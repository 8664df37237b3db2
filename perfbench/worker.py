"""The workload process of the qmonogamy benchmark.

run.py starts it with the BLAS thread count fixed.  It imports qmonogamy
from the checkout's src/, runs one untimed warm-up op, notes the monotonic
clock at that moment ("ready"), and then runs ops closed loop with one
client: the next op starts when the previous one has returned.

* ``--probe``: stop once ready (a set-up sample).
* default: run rounds until ``--seconds`` have passed, timing the
  calibration kernel (calibrate.py) after every op.
* ``--trace 1``: run a fixed number of rounds twice, untraced and then
  traced, so that call counts repeat exactly and the difference between the
  two passes is the tracing overhead.

It prints one JSON line on stdout.  The program's own stdout and stderr are
captured per op, so nothing else reaches it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time

from spans import VALIDATIONS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


class Runner:
    """Runs ops against the package's public entry points and keeps the failure accounting."""

    def __init__(self):
        import numpy as np
        import qmonogamy.cli
        import qmonogamy.convex_roof
        import qmonogamy.states

        import workloads

        self.np, self.wl = np, workloads
        self.pkg = qmonogamy
        self.attempted = self.failed = 0
        self.failures, self.digests = [], []
        self.bytes_read = self.bytes_written = 0
        self.max_err = {"minimize": 0.0, "maximize": 0.0}

    def run(self, op) -> float:
        """Run one op and check its output; returns its latency in seconds."""
        self.attempted += 1
        if op.out and os.path.exists(op.out):
            os.remove(op.out)  # a stale report must not pass for this op's output
        start = time.perf_counter()
        try:
            if op.argv is not None:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.pkg.cli.main(op.argv)  # attribute lookup, so a traced rebinding is used
                elapsed = time.perf_counter() - start
                error, digest = self.wl.check_cli(op, rc, out.getvalue(), err.getvalue())
                if digest:
                    self.digests.append(digest)
                self.bytes_written += len(out.getvalue().encode())
                if op.out and os.path.exists(op.out):
                    self.bytes_written += os.path.getsize(op.out)
                if op.entry:
                    self.bytes_read += os.path.getsize(op.entry["path"])
            else:
                dm = self.pkg.states.DensityMatrix((0, 1), op.matrix)
                rng = self.np.random.default_rng(list(op.rng_key))
                start = time.perf_counter()
                value, _ = self.pkg.convex_roof.convex_roof_optimize(dm, op.mode, seed=rng)
                elapsed = time.perf_counter() - start
                self.max_err[op.mode] = max(self.max_err[op.mode], self.wl.roof_error(op, value))
                error = self.wl.check_roof(op, value)
        except Exception as exc:  # the op fails; the benchmark goes on and counts it
            elapsed = time.perf_counter() - start
            error = f"{op.tag}: {type(exc).__name__}: {exc}"
        if error:
            self.failed += 1
            self.failures.append(error)
        return elapsed


def run_timed(runner, rounds, seconds, calibration):
    """Closed loop until the deadline.

    Returns per-op latencies and, per round, (states, ops, busy seconds,
    complete, scale).  One block of the ``calibration`` kernel follows every
    op, outside the op's time, and a round's scale is ``REFERENCE_S`` over
    the median of its blocks: the factor that turns the round's times into
    times at the reference speed.
    """
    latencies, done = [], []
    deadline = time.perf_counter() + seconds
    for ops in rounds:
        states = busy = 0.0
        blocks = []
        for count, op in enumerate(ops, 1):
            latencies.append(runner.run(op))
            busy += latencies[-1]
            states += op.states
            blocks.append(calibration.block())
            if time.perf_counter() >= deadline:
                break
        scale = calibration.REFERENCE_S / statistics.median(blocks)
        done.append((states, count, busy, count == len(ops), scale))
        if time.perf_counter() >= deadline:
            return latencies, done
    return latencies, done


def throughput(done, scaled=True):
    """States/s and ops/s over the complete rounds (the partial round if none completed).

    Totals, not a median of per-round rates: a run of roof-oracle completes
    only four to six rounds, whose costs differ with the seeded rotations.
    """
    whole = [r for r in done if r[3]] or done
    busy = sum(t * (scale if scaled else 1.0) for _, _, t, _, scale in whole)
    return sum(r[0] for r in whole) / busy, sum(r[1] for r in whole) / busy


def e2e_metrics(latencies, done):
    """End-to-end metrics at the reference speed, and the same measured as they were."""
    import numpy as np

    scales = np.concatenate([np.full(n, scale) for _, n, _, _, scale in done])
    metrics, raw = {}, {}
    for out, factor, scaled in ((metrics, scales, True), (raw, 1.0, False)):
        states_per_s, calls_per_s = throughput(done, scaled)
        lat_ms = np.asarray(latencies) * factor * 1e3
        out.update(states_per_s=states_per_s, calls_per_s=calls_per_s,
                   op_ms_p50=float(np.percentile(lat_ms, 50)), op_ms_p90=float(np.percentile(lat_ms, 90)))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, raw


def layer_metrics(tracer, ops, runner, untraced_s, traced_s):
    calls, self_s, layer_s, op_layer_s, op_calls = tracer.summary()
    # state ratios count only ops that evaluate states (fuzz, check), not reproduce-paper
    evaluating = [i for i, op in enumerate(ops) if op.pairs]
    states = sum(ops[i].states for i in evaluating)
    pairs = sum(ops[i].pairs for i in evaluating)

    def per(name, base):
        return sum(op_calls[i, name] for i in evaluating) / base if base else 0.0

    metrics = {
        "states.self_s": layer_s["states"],
        "states.partial_trace.calls": calls["states.partial_trace"],
        "states.partial_trace.calls_per_state": per("states.partial_trace", states),
        "states.partial_trace.self_s": self_s["states.partial_trace"],
        VALIDATIONS: tracer.counts[VALIDATIONS],
        "states.random_haar_state.self_s": self_s["states.random_haar_state"],
        "concurrence.self_s": layer_s["concurrence"],
        "concurrence.lambda_spectrum.calls": calls["concurrence.lambda_spectrum"],
        "concurrence.lambda_spectrum.calls_per_state": per("concurrence.lambda_spectrum", states),
        "concurrence.lambda_spectrum.self_s": self_s["concurrence.lambda_spectrum"],
        "concurrence.pure_concurrence_sq.self_s": self_s["concurrence.pure_concurrence_sq"],
        "concurrence.spectra_per_pair": per("concurrence.lambda_spectrum", pairs),
        "monogamy.self_s": layer_s["monogamy"],
        "monogamy.wclass_bounds.calls": calls["monogamy.wclass_bounds"],
        "monogamy.wclass_bounds.self_s": self_s["monogamy.wclass_bounds"],
        "statefile.self_s": layer_s["statefile"],
        "statefile.bytes_read": runner.bytes_read,
        "cli.self_s": layer_s["cli"],
        "cli.bytes_written": runner.bytes_written,
        "cases.self_s": layer_s["cases"],
    }
    for mode in ("minimize", "maximize"):
        for rank in (2, 3, 4):
            tag = f"{mode}.rank{rank}"
            metrics[f"convex_roof.{tag}.self_s"] = sum(
                op_layer_s[i, "convex_roof"] for i, op in enumerate(ops) if op.tag == tag)
    metrics["convex_roof.polish_s"] = self_s["convex_roof.polish"]
    metrics["convex_roof.search_s"] = layer_s["convex_roof"] - self_s["convex_roof.polish"]
    metrics["convex_roof.max_err_min"] = runner.max_err["minimize"]
    metrics["convex_roof.max_err_max"] = runner.max_err["maximize"]
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.states"] = states
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import qmonogamy  # before numpy, so that -X importtime charges numpy to the package

    if not os.path.abspath(qmonogamy.__file__).startswith(SRC + os.sep):
        print(f"error: qmonogamy imported from {qmonogamy.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner()
    warmup = workload.warmup(args.out_dir)
    runner.run(warmup)
    gates = []
    if getattr(workload, "warmup_digest", None) and runner.digests[-1:] != [workload.warmup_digest]:
        gates.append(f"warm-up min-slack digest {runner.digests[-1:]} != pinned {workload.warmup_digest}")
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if not args.probe:
        rounds = workload.rounds(args.seed, args.out_dir)
        if args.trace:
            ops = [op for ops in itertools.islice(rounds, workload.trace_rounds) for op in ops]
            untraced_s = sum(runner.run(op) for op in ops)
            traced_runner, tracer = Runner(), Tracer()
            tracer.install()
            try:
                traced_s = 0.0
                for index, op in enumerate(ops):
                    tracer.op = index
                    traced_s += traced_runner.run(op)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(args.out_dir, "spans.jsonl"))
            result["metrics"] = layer_metrics(tracer, ops, traced_runner, untraced_s, traced_s)
            runner.attempted += traced_runner.attempted
            runner.failed += traced_runner.failed
            runner.failures += traced_runner.failures
        else:
            import calibrate  # after the ready mark, so set-up does not include it

            latencies, done = run_timed(runner, rounds, args.seconds, calibrate)
            result["metrics"], result["raw"] = e2e_metrics(latencies, done)
            result["rounds"] = len(done)
            result["scales"] = [r[4] for r in done]
        result["digests"] = runner.digests
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures[:10], gates=gates)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
