"""Benchmark of qmonogamy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
The workload runs in a fresh process of its own (worker.py) with the BLAS
thread count fixed at 1.  Before it, set-up is sampled in PROBES further
fresh processes that stop once ready.  Inputs come from --seed only.

Times are reported at the reference speed of calibrate.py (see worker.py);
they are also printed as measured, on lines named raw.<metric>.

Prints one line per metric (name, value, unit) and, as the last line, a JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A result
record with provenance is written to .perfbench-out/ in the checkout.
Exits 2 without a result when the checkout has no src/qmonogamy, and 1 when
a benchmark process fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
PROBES = 4
TIME_LIMIT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "states_per_s": "1/s",
    "calls_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "validations": "count", "calls_per_state": "count",
                   "spectra_per_pair": "ratio", "bytes_read": "bytes", "bytes_written": "bytes",
                   "max_err_min": "abs", "max_err_max": "abs", "overhead_pct": "%",
                   "spans": "count", "states": "count"}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(RuntimeError):
    pass


def run_worker(args, out_dir, env, deadline, probe=False, importtime=False):
    """Start worker.py, wait for it, and return (seconds from start to ready, its result)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    if probe:
        cmd.append("--probe")
    started = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=out_dir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        result["importtime"] = import_seconds(proc.stderr)
    return result["ready"] - started, result


def import_seconds(stderr: str) -> dict:
    """Cumulative import times of qmonogamy and scipy.optimize from ``-X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in ("qmonogamy",
                                                                                         "scipy.optimize"):
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def provenance(args, env) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        if not index.startswith("index"):
            continue
        base = os.path.join(cache_dir, index)
        caches[f"L{_read(base + '/level')} {_read(base + '/type')}"] = _read(base + "/size")
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"), "blas": blas,
        "threads": {k: env[k] for k in THREAD_VARS}, "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qmonogamy", "__init__.py")):
        print(f"error: no src/qmonogamy package under {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    os.environ.update({k: "1" for k in THREAD_VARS})  # before numpy loads in this process too
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    deadline = monotonic() + TIME_LIMIT_S
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workloads.WORKLOADS[args.workload].prepare(args.seed, out_dir)

    try:
        probes = [run_worker(args, out_dir, env, deadline, probe=True, importtime=bool(args.trace))
                  for _ in range(PROBES)]
        setup, result = run_worker(args, out_dir, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if args.trace:
        metrics["setup.import_s"] = statistics.median(p["importtime"]["qmonogamy"] for _, p in probes)
        metrics["setup.scipy_optimize_import_s"] = statistics.median(
            p["importtime"].get("scipy.optimize", 0.0) for _, p in probes)
    else:
        # scaled by the run's median round scale: a fresh process is too short to calibrate itself
        raw_setup = statistics.median([setup] + [s for s, _ in probes])
        metrics["setup_s"] = raw_setup * statistics.median(result["scales"])
        result["raw"]["setup_s"] = raw_setup
    gates = result["gates"]
    correct = not gates and result["failed"] == 0
    record = {
        "provenance": provenance(args, env), "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"], "gates": gates, "rounds": result.get("rounds"),
        "fuzz_digests": result.get("digests", []), "metrics": metrics,
        "raw_metrics": result.get("raw"), "round_scales": result.get("scales"),
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print("provenance " + json.dumps(record["provenance"]))
    for message in gates + result["failures"]:
        print(f"FAILED {message}")
    print(f"ops attempted {result['attempted']} failed {result['failed']}"
          + ("" if args.trace else f", latency samples {result['attempted'] - 1}"))
    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    for name, value in (result.get("raw") or {}).items():
        print(f"raw.{name} {value} {unit_of(name)}")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
