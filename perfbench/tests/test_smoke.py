"""Smoke tests of the benchmark itself: python3 -m pytest perfbench/tests -q

Each workload runs for one second; the traced runs do their fixed work.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONFIG = json.load(fh)


def bench(root, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace):
    result = result_of(bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_traced_call_counts_repeat():
    first = result_of(bench(ROOT, "fuzz-small", 1))["metrics"]
    second = result_of(bench(ROOT, "fuzz-small", 1))["metrics"]
    counts = [m["name"] for m in CONFIG["per_layer"] if m["unit"] == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["states.partial_trace.calls_per_state"]["value"] == 50
    assert first["concurrence.lambda_spectrum.calls_per_state"]["value"] == 72
    assert first["monogamy.wclass_bounds.calls"]["value"] == 0


def test_malformed_state_file_counts_as_failed(tmp_path):
    import calibrate
    import worker

    manifest = workloads.write_corpus(3, str(tmp_path))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ops = [workloads.CheckStructured.check_op(dict(manifest[0], path=str(bad)), str(tmp_path)),
           workloads.CheckStructured.check_op(manifest[0], str(tmp_path))]
    runner = worker.Runner()
    latencies, rounds = worker.run_timed(runner, iter([ops]), seconds=60, calibration=calibrate)
    assert len(latencies) == 2 and rounds[0][1] == 2
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "exit code 1" in runner.failures[0]


def test_times_are_scaled_to_the_reference_speed(tmp_path):
    import calibrate
    import worker

    class HalfSpeed:  # a machine on which the kernel takes twice the reference time
        REFERENCE_S = calibrate.REFERENCE_S

        @staticmethod
        def block():
            return 2 * calibrate.REFERENCE_S

    manifest = workloads.write_corpus(3, str(tmp_path))
    ops = [workloads.CheckStructured.check_op(entry, str(tmp_path)) for entry in manifest[:3]]
    latencies, rounds = worker.run_timed(worker.Runner(), iter([ops]), seconds=60, calibration=HalfSpeed)
    assert rounds[0][4] == 0.5
    metrics, raw = worker.e2e_metrics(latencies, rounds)
    assert metrics["op_ms_p50"] == pytest.approx(raw["op_ms_p50"] / 2)
    assert metrics["states_per_s"] == pytest.approx(raw["states_per_s"] * 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "fuzz-small", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
