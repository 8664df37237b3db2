import argparse
import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import qmonogamy.cases
import qmonogamy.cli
import qmonogamy.concurrence
import qmonogamy.monogamy

from qmonogamy import (PureState, StateError, evaluate_all, random_haar_state, read_state_file, state_from_basis_terms,
                       wclass_bounds, write_state_file)
from qmonogamy.cli import CHUNK as DEFAULT_CHUNK, main
from qmonogamy.concurrence import MarginalTable
from qmonogamy.monogamy import BoundEntry, BoundReport, _entry, _weight1_amplitudes, wclass_state


@pytest.fixture
def sat4_file(tmp_path):
    path = tmp_path / "sat4.json"
    write_state_file(state_from_basis_terms(4, [("0000", 1), ("1001", 1)]), path)
    return path


class TestCheck:
    def test_saturating_state_exits_zero(self, sat4_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", str(sat4_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        by_name = {e["inequality"]: e for e in doc["entries"]}
        assert by_name["ab_rest_lower"]["lhs"] == pytest.approx(1.0, abs=1e-9)
        assert by_name["ab_rest_lower"]["rhs"] == pytest.approx(1.0, abs=1e-9)
        assert all(e["satisfied"] for e in doc["entries"])

    def test_product_state_all_zero_report(self, tmp_path):
        path = tmp_path / "zeros.json"
        write_state_file(state_from_basis_terms(4, [("0000", 1)]), path)
        out = tmp_path / "report.json"
        assert main(["check", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(abs(e["lhs"]) < 1e-12 and abs(e["rhs"]) < 1e-12 for e in doc["entries"])

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # not JSON, not UTF-8, an integer literal over Python's 4300-digit limit
        for data in (b"{broken", b'{"n_qubits": 3, "amplitudes": "\xff"}',
                     b'{"n_qubits": 3, "amplitudes": [[1' + b"0" * 5000 + b", 0]]}"):
            path.write_bytes(data)
            assert main(["check", str(path)]) == 1
            assert capsys.readouterr().err.startswith("error [parse]")

    def test_non_finite_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        # NaN, and an integer amplitude beyond the double range
        for first in ("NaN", "1" + "0" * 400):
            path.write_text('{"n_qubits": 3, "amplitudes": [[' + first + ', 0]' + ', [0, 0]' * 7 + ']}')
            assert main(["check", str(path)]) == 1
            assert capsys.readouterr().err.startswith("error [finite]")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error [io]")

    def test_too_small_state_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        write_state_file(state_from_basis_terms(2, [("00", 1), ("11", 1)]), path)
        assert main(["check", str(path)]) == 1
        assert "[qubits]" in capsys.readouterr().err

    def test_huge_amplitude_file_gives_one_error_line(self, tmp_path, capsys):
        # the norm of a 1e200 amplitude overflows unless taken at a power-of-two scale: no RuntimeWarning
        path = tmp_path / "huge.json"
        path.write_text('{"n_qubits": 3, "amplitudes": [[1e200, 0]' + ', [0, 0]' * 7 + ']}')
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [normalization]: norm 1e+200 ") and err.count("\n") == 1

    def test_overflowing_norm_file_gives_one_error_line(self, tmp_path, capsys):
        # 1e308 and 1.7e308 are finite, but their norm is beyond the float range: it reads inf, with no warning
        path = tmp_path / "overflow.json"
        path.write_text('{"n_qubits": 3, "amplitudes": [[1e308, 0], [1.7e308, 0]' + ', [0, 0]' * 6 + ']}')
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == "error [normalization]: norm inf deviates from 1 by more than 1e-6\n"

    def test_csv_format(self, sat4_file, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["check", str(sat4_file), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "inequality,lhs,rhs,slack,satisfied"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_violated_report_exits_two(self, sat4_file, monkeypatch, capsys):
        # exit-code contract for the (theorem-excluded) violation branch
        bad = BoundReport("s", 4, 1e-7, (BoundEntry("fake", 1.0, 0.0, -1.0, False),), {})
        monkeypatch.setattr("qmonogamy.cli.evaluate_all", lambda *a, **k: bad)
        assert main(["check", str(sat4_file)]) == 2

    @pytest.mark.parametrize("tolerance", [None, "1e-3"])
    @pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 2)])
    def test_verdict_boundary(self, tolerance, factor, code, sat4_file, tmp_path, monkeypatch, capsys):
        # the saturating state's ab_rest_upper slack is -8.9e-16; lowering the bound by delta moves it to about
        # -delta, inside the tolerance at half of it and beyond it at twice it
        tol = 1e-7 if tolerance is None else float(tolerance)
        upper = qmonogamy.monogamy._ab_rest_upper
        monkeypatch.setattr(qmonogamy.monogamy, "_ab_rest_upper", lambda ca_sq: upper(ca_sq) - factor * tol)
        out = tmp_path / "report.json"
        argv = ["check", str(sat4_file), "--out", str(out)] + (["--tolerance", tolerance] if tolerance else [])
        assert main(argv) == code
        entry = next(e for e in json.loads(out.read_text())["entries"] if e["inequality"] == "ab_rest_upper")
        assert -(factor + 0.01) * tol < entry["slack"] < -(factor - 0.01) * tol
        assert entry["satisfied"] is (code == 0)

    def test_bad_tolerance_exits_one(self, sat4_file, capsys):
        assert main(["check", str(sat4_file), "--tolerance", "-1"]) == 1

    def test_norm_just_off_one_evaluates(self, tmp_path, capsys):
        # a norm kept as given puts its square on every marginal's trace,
        # which must stay within the density-matrix trace tolerance
        for n in (3, 12):
            base = random_haar_state(n, n).amplitudes
            for delta in (5e-13, -5e-13, 8e-13, -8e-13, 1e-12, -1e-12):
                assert evaluate_all(PureState(n, base * (1 + delta))).all_satisfied()
        path = tmp_path / "near.json"
        amps = random_haar_state(4, 3).amplitudes * (1 + 9e-13)
        path.write_text(json.dumps({"n_qubits": 4, "amplitudes": [[a.real, a.imag] for a in amps]}))
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().err == ""


def assert_first_eight_dumped(directory, capsys, seed, states, failing, inequality):
    """The first eight failing states have one file and one stderr line each, naming ``inequality``."""
    dumped = failing[:8]
    assert sorted(p.name for p in directory.glob("violation-*")) == sorted(
        f"violation-{seed}-{index}.json" for index in dumped)
    for index in dumped:
        reloaded = read_state_file(directory / f"violation-{seed}-{index}.json")
        np.testing.assert_array_equal(reloaded.amplitudes, states[index].amplitudes)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(dumped)
    for line, index in zip(err, dumped):
        assert line.startswith(f"violation: {inequality} slack -")
        assert line.endswith(f" on state {index}; dumped violation-{seed}-{index}.json")


def pair_table(state):
    """The bytes of a state's C_a^2 table, which a stack holding the state gives bit for bit."""
    return MarginalTable(state.amplitudes[None]).pair_sq[1].tobytes()


def broken_rows(broken):
    """Which states of a stack's (B, n, n) C_a^2 table have their table in ``broken``."""
    return lambda casq: np.array([table.tobytes() in broken for table in casq])


class OneFillPerChunk:
    """The table work of a command that fills one ``MarginalTable`` per ``CHUNK`` states."""

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_one_fill_per_chunk(self, n, monkeypatch, table_work):
        monkeypatch.setattr(qmonogamy.cli, "CHUNK", 7)
        # neither command builds a report
        monkeypatch.setattr(qmonogamy.monogamy, "BoundReport", None)
        assert main(self.argv(n) + ["--count", "15", "--seed", "2"]) == 0
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert table_work.fills == [7, 7, 1]
        # one lambda kernel call per fill: on the amplitude blocks up to 4 qubits, through lambda_spectra from 5
        assert [[factor.shape for factor in calls] for calls in table_work.factors] == [
            [(size, len(pairs), 4, 4)] for size in (7, 7, 1)]
        assert [[stack.shape for stack in calls] for calls in table_work.spectra] == [
            [(size, len(pairs), 4, 4)] * (n >= 5) for size in (7, 7, 1)]
        assert table_work.marginals == [Counter(dict.fromkeys(pairs + self.cuts(n), 1))] * 3
        assert table_work.gathers == self.GATHERS[n]

    def test_chunk_holds_at_most_2_15_amplitudes(self, table_work):
        # unpatched, a fill at n = 12 takes 8 states of the cap's 64
        assert main(self.argv(12) + ["--count", "20", "--seed", "2"]) == 0
        assert table_work.fills == [8, 8, 4]


class TestFuzz(OneFillPerChunk):
    # pairs, singles and ABC1 each in one gather, but at n = 10 a gather of 7 states holds
    # 1 marginal (2^13 // (7 * 2^10)) and a gather of one state 8: 45 + 10 + 1 and 6 + 2 + 1
    GATHERS = {3: [2, 2, 2], 6: [3, 3, 3], 10: [56, 56, 9]}

    @staticmethod
    def argv(n):
        return ["fuzz", "--qubits", str(n)]

    @staticmethod
    def cuts(n):
        """Every single qubit, and ABC1 once it is the smaller side."""
        return [(q,) for q in range(n)] + [(0, 1, 2)] * (n >= 6)

    def test_small_run_exits_zero(self, capsys):
        assert main(["fuzz", "--qubits", "4", "--count", "10", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "min slack" in out
        assert "abc_rest_upper" in out

    def test_three_qubit_run_has_no_abc_rows(self, capsys):
        assert main(["fuzz", "--qubits", "3", "--count", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ab_rest_lower" in out
        assert "abc_rest" not in out

    def test_deterministic_summaries(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fuzz", "--qubits", "3", "--count", "8", "--seed", "3", "--out", str(a)]) == 0
        assert main(["fuzz", "--qubits", "3", "--count", "8", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "fuzz.csv"
        assert main(["fuzz", "--qubits", "4", "--count", "5", "--seed", "2",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "inequality,lhs,rhs,slack,satisfied"

    def test_bad_config_exits_one(self, capsys):
        assert main(["fuzz", "--qubits", "2", "--count", "5", "--seed", "1"]) == 1
        assert main(["fuzz", "--qubits", "4", "--count", "0", "--seed", "1"]) == 1

    def test_negative_seed_exits_one(self, capsys):
        assert main(["fuzz", "--qubits", "4", "--count", "5", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error [config]: seed must be non-negative\n" and captured.out == ""

    @pytest.mark.parametrize("tolerance", [None, "1e-3"])
    @pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 2)])
    def test_verdict_boundary(self, tolerance, factor, code, tmp_path, monkeypatch, capsys):
        # the first state's ab_rest_upper rhs planted at lhs - delta: a slack of about -delta, inside the tolerance
        # at half of it and beyond it at twice it
        tol = 1e-7 if tolerance is None else float(tolerance)
        entries = qmonogamy.cli._entries

        def planted(table):
            row_sets = entries(table)
            _, names, lhs, rhs = row_sets[0]
            k = names.index("ab_rest_upper")
            rhs[k, 0] = lhs[k, 0] - factor * tol
            return row_sets

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(qmonogamy.cli, "_entries", planted)
        argv = ["fuzz", "--qubits", "4", "--count", "5", "--seed", "1", "--out", "fuzz.json"]
        assert main(argv + (["--tolerance", tolerance] if tolerance else [])) == code
        entry = json.loads((tmp_path / "fuzz.json").read_text())["min_slack"]["ab_rest_upper"]
        assert -(factor + 0.01) * tol < entry["slack"] < -(factor - 0.01) * tol
        assert entry["satisfied"] is (code == 0)

    # n = 4 is the benchmark's size and the last on the amplitude-block pair route; n = 5 takes eigh of rho
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_output_does_not_depend_on_the_chunk(self, n, tmp_path, monkeypatch, capsys):
        seed = 4
        for count in (3, 15, 2 * DEFAULT_CHUNK + 1):  # 2 * chunk + 1 for chunks 1, 7 and the default
            outputs = set()
            for chunk in (1, 7, DEFAULT_CHUNK):
                monkeypatch.setattr(qmonogamy.cli, "CHUNK", chunk)
                argv = ["fuzz", "--qubits", str(n), "--count", str(count), "--seed", str(seed)]
                assert main(argv + ["--out", str(tmp_path / "fuzz.json")]) == 0
                assert main(argv + ["--format", "csv", "--out", str(tmp_path / "fuzz.csv")]) == 0
                assert main(argv + ["--format", "csv"]) == 0
                outputs.add(((tmp_path / "fuzz.json").read_bytes(), (tmp_path / "fuzz.csv").read_bytes(),
                             capsys.readouterr().out))
            assert len(outputs) == 1
            # each row is the least-slack entry of a per-state loop, the first state on ties
            worst = {}
            for index in range(count):
                state = random_haar_state(n, np.random.default_rng([seed, index]))
                for e in evaluate_all(state).entries:
                    if e.inequality not in worst or e.slack < worst[e.inequality].slack:
                        worst[e.inequality] = e
            doc = json.loads((tmp_path / "fuzz.json").read_text())
            assert doc["min_slack"] == {
                name: {"lhs": e.lhs, "rhs": e.rhs, "slack": e.slack, "satisfied": e.satisfied}
                for name, e in worst.items()}

    # chunks of 64 and 6 states at n = 6, of 32 and 8 at n = 10
    @pytest.mark.parametrize("n, count", [(6, 70), (10, 40)])
    def test_output_does_not_depend_on_the_gather_size(self, n, count, tmp_path, monkeypatch, capsys):
        outputs = set()
        for elements in (2**6, 2**13, 2**16):
            monkeypatch.setattr(qmonogamy.concurrence, "_GATHER_ELEMENTS", elements)
            argv = ["fuzz", "--qubits", str(n), "--count", str(count), "--seed", "5"]
            assert main(argv + ["--out", str(tmp_path / "fuzz.json")]) == 0
            assert main(argv + ["--format", "csv", "--out", str(tmp_path / "fuzz.csv")]) == 0
            outputs.add(((tmp_path / "fuzz.json").read_bytes(), (tmp_path / "fuzz.csv").read_bytes(),
                         capsys.readouterr().out))
        assert len(outputs) == 1

    # chunks of 2 / 32 / 64 states at n = 10 and of 1 / 8 / 64 at n = 12
    @pytest.mark.parametrize("n, count", [(10, 40), (12, 10)])
    def test_output_does_not_depend_on_the_chunk_amplitudes(self, n, count, tmp_path, monkeypatch, capsys):
        outputs = set()
        for amplitudes in (2**11, 2**15, 2**21):
            monkeypatch.setattr(qmonogamy.cli, "_CHUNK_AMPLITUDES", amplitudes)
            fuzz, scan = (argv + [str(n), "--count", str(count), "--seed", "5"]
                          for argv in (["fuzz", "--qubits"], ["wclass-scan", "--n"]))
            assert main(fuzz + ["--out", str(tmp_path / "fuzz.json")]) == 0
            assert main(fuzz + ["--format", "csv", "--out", str(tmp_path / "fuzz.csv")]) == 0
            assert main(scan + ["--out", str(tmp_path / "scan.csv")]) == 0
            files = tuple((tmp_path / name).read_bytes() for name in ("fuzz.json", "fuzz.csv", "scan.csv"))
            outputs.add(files + (capsys.readouterr().out,))
        assert len(outputs) == 1

    def test_violations_dump_the_first_eight_states(self, tmp_path, monkeypatch, capsys):
        # a broken upper bound on nine states, six of them past the first chunk of 4
        seed, count, failing = 5, 16, [1, 2, 5, 6, 9, 10, 11, 13, 14]
        monkeypatch.setattr(qmonogamy.cli, "CHUNK", 4)
        states = [random_haar_state(3, np.random.default_rng([seed, index])) for index in range(count)]
        hit = broken_rows({pair_table(states[index]) for index in failing})
        upper = qmonogamy.monogamy._ab_rest_upper
        monkeypatch.setattr(qmonogamy.monogamy, "_ab_rest_upper",
                            lambda ca_sq: np.where(hit(ca_sq)[:, None, None], -1.0, upper(ca_sq)))
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--qubits", "3", "--count", str(count), "--seed", str(seed),
                     "--out", "fuzz.json"]) == 2
        assert json.loads((tmp_path / "fuzz.json").read_text())["violations"] == len(failing)
        assert_first_eight_dumped(tmp_path, capsys, seed, states, failing, "ab_rest_upper")

    def test_violations_dump_each_state_once(self, tmp_path, monkeypatch, capsys):
        # a broken raw lower bound breaks its clamped twin too: two entries on each of ten states
        seed, count, failing = 3, 14, [0, 2, 3, 5, 6, 7, 9, 11, 12, 13]
        monkeypatch.setattr(qmonogamy.cli, "CHUNK", 5)
        states = [random_haar_state(4, np.random.default_rng([seed, index])) for index in range(count)]
        hit = broken_rows({pair_table(states[index]) for index in failing})
        grow = qmonogamy.monogamy._grow

        def broken_grow(lower, upper, csq, casq, q):
            diff, hub, abc_upper = grow(lower, upper, csq, casq, q)
            return diff, hub + 10.0 * hit(casq), abc_upper

        monkeypatch.setattr(qmonogamy.monogamy, "_grow", broken_grow)
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--qubits", "4", "--count", str(count), "--seed", str(seed),
                     "--out", "fuzz.json"]) == 2
        assert json.loads((tmp_path / "fuzz.json").read_text())["violations"] == 2 * len(failing)
        assert_first_eight_dumped(tmp_path, capsys, seed, states, failing, "abc_rest_lower_hub")

    def test_memory_does_not_grow_with_the_count(self, tmp_path, monkeypatch, capsys):
        # every state violates, yet only the eight lowest offenders are kept, and each chunk builds its own seeds:
        # an up-front seed list adds 0.3 MB at count 3000, and offenders that keep their chunks alive 1.3 MB
        monkeypatch.setattr(qmonogamy.cli, "CHUNK", 32)
        upper = qmonogamy.monogamy._ab_rest_upper
        monkeypatch.setattr(qmonogamy.monogamy, "_ab_rest_upper", lambda ca_sq: upper(ca_sq) - 50)
        monkeypatch.chdir(tmp_path)
        peaks = []
        for count in (100, 100, 3000):  # the first run fills the caches
            tracemalloc.start()
            assert main(["fuzz", "--qubits", "3", "--count", str(count), "--seed", "1"]) == 2
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[2] - peaks[1] < 150_000, peaks


def reference_fold(chunks, tolerance=1e-7):
    """What ``fuzz`` must report from ``(amplitudes, entries)`` per chunk, read as one run of states in plain Python:
    per inequality the entry of least slack over the run (the first NaN slack if there is one, else the first least),
    the violation count and the eight lowest offending states with their first violated entry, (index, (name, slack))."""
    sides, states = {}, []  # per inequality its (lhs, rhs) over the run; per state its (name, slack) in report order
    for amplitudes, entries in chunks:
        start = len(states)
        states.extend([] for _ in amplitudes)
        for rows, names, lhs, rhs in entries:
            for name, lefts, rights in zip(names, lhs.tolist(), rhs.tolist()):
                for row, left, right in zip(rows.tolist(), lefts, rights):
                    sides.setdefault(name, []).append((left, right))
                    states[start + row].append((name, right - left))
    worst = {}
    for name, pairs in sides.items():
        slacks = [right - left for left, right in pairs]
        nans = [k for k, slack in enumerate(slacks) if math.isnan(slack)]
        worst[name] = _entry(name, *pairs[nans[0] if nans else slacks.index(min(slacks))], tolerance)
    bad = [[(name, slack) for name, slack in entries if not slack >= -tolerance] for entries in states]
    return worst, sum(map(len, bad)), [(index, found[0]) for index, found in enumerate(bad) if found][:8]


class TestFuzzFold:
    """``fuzz`` folds each chunk as one slack matrix per row set, and must report what one pass over the run reports."""

    @staticmethod
    def fold(tmp_path, monkeypatch, capsys, count, chunk, plants, seed=5):
        """Run ``fuzz --qubits 4`` with ``plants[name][index]`` added to the lhs of entry ``name`` on state
        ``index``, check its report against the reference fold of the same chunks, and return the --out
        document, the chunks' entries, the reference offenders and the run's outputs: its exit code, stdout,
        stderr, --out file and dumped files."""
        chunks, entries = [], qmonogamy.cli._entries

        def planted(table):
            start = sum(len(amplitudes) for amplitudes, _ in chunks)
            found = entries(table)
            for k, (rows, names, lhs, rhs) in enumerate(found):
                lhs = lhs.copy()
                for e, name in enumerate(names):
                    if name in plants:
                        lhs[e] += [plants[name].get(start + row, 0.0) for row in rows.tolist()]
                found[k] = (rows, names, lhs, rhs)
            chunks.append((table.amplitudes.copy(), found))
            return found

        monkeypatch.setattr(qmonogamy.cli, "CHUNK", chunk)
        monkeypatch.setattr(qmonogamy.cli, "_entries", planted)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = main(["fuzz", "--qubits", "4", "--count", str(count), "--seed", str(seed), "--out", "fuzz.json"])
        captured = capsys.readouterr()
        worst, violations, offenders = reference_fold(chunks)
        doc = json.loads((tmp_path / "fuzz.json").read_text())
        # compared as JSON text, in which a NaN slack equals a NaN slack
        assert json.dumps(doc["min_slack"]) == json.dumps({
            name: {"lhs": e.lhs, "rhs": e.rhs, "slack": e.slack, "satisfied": e.satisfied}
            for name, e in worst.items()})
        assert doc["violations"] == violations and code == (2 if violations else 0)
        assert captured.err.splitlines() == [
            f"violation: {name} slack {value:.3e} on state {index}; dumped violation-{seed}-{index}.json"
            for index, (name, value) in offenders]
        dumped = sorted(tmp_path.glob("violation-*"))
        assert [p.name for p in dumped] == sorted(f"violation-{seed}-{index}.json" for index, _ in offenders)
        stack = np.concatenate([amplitudes for amplitudes, _ in chunks])
        for index, _ in offenders:
            reloaded = read_state_file(tmp_path / f"violation-{seed}-{index}.json")
            np.testing.assert_array_equal(reloaded.amplitudes, stack[index])
        outputs = (code, captured.out, captured.err, (tmp_path / "fuzz.json").read_bytes(),
                   tuple((p.name, p.read_bytes()) for p in dumped))
        return doc, chunks, offenders, outputs

    def test_violations_on_several_entries_across_chunks(self, tmp_path, monkeypatch, capsys):
        # nine states on four entries over five chunks of 5; states 7 and 12 violate two entries or three
        plants = {"ckw": dict.fromkeys([1, 7, 12, 20], 10.0),
                  "lin_entropy_upper": dict.fromkeys([7, 8, 14, 22], 10.0),
                  "abc_rest_upper": dict.fromkeys([3, 12, 19], 10.0),
                  "ab_rest_lower": {12: 10.0}}
        doc, _, offenders, _ = self.fold(tmp_path, monkeypatch, capsys, 23, 5, plants)
        assert doc["violations"] == 12
        assert [(index, name) for index, (name, _) in offenders] == [
            (1, "ckw"), (3, "abc_rest_upper"), (7, "ckw"), (8, "lin_entropy_upper"), (12, "ab_rest_lower"),
            (14, "lin_entropy_upper"), (19, "abc_rest_upper"), (20, "ckw")]

    def test_nan_slacks_are_violations(self, tmp_path, monkeypatch, capsys):
        # a NaN slack is the least of its run, in the first chunk or a later one: ckw's NaN on state 5 outranks
        # its violation on state 6 and the first chunk's least slack
        nan = float("nan")
        plants = {"chain_upper": {2: nan}, "dual_assist": {9: nan}, "ckw": {5: nan, 6: 10.0}}
        doc, _, offenders, _ = self.fold(tmp_path, monkeypatch, capsys, 12, 4, plants)
        assert doc["violations"] == 4
        for name in ("chain_upper", "dual_assist", "ckw"):
            assert math.isnan(doc["min_slack"][name]["slack"]) and not doc["min_slack"][name]["satisfied"], name
        assert [(index, name) for index, (name, _) in offenders] == [
            (2, "chain_upper"), (5, "ckw"), (6, "ckw"), (9, "dual_assist")]

    def test_output_does_not_depend_on_the_chunk(self, tmp_path, monkeypatch, capsys):
        # ckw: a NaN on state 9 and a violation on state 10, in one later chunk or in two, or past the first chunk
        # only; ab_rest_upper: a violation on state 1, in the first chunk
        nan = float("nan")
        plants = {"ab_rest_upper": {1: 10.0}, "ckw": {9: nan, 10: 10.0}}
        outputs = set()
        for chunk in (1, 4, 5, 64):
            (tmp_path / str(chunk)).mkdir()
            doc, _, offenders, run = self.fold(tmp_path / str(chunk), monkeypatch, capsys, 12, chunk, plants)
            outputs.add(run)
        assert len(outputs) == 1
        code, out, _, _, dumped = run
        assert code == 2 and doc["violations"] == 3 and len(dumped) == 3
        assert re.search(r"^ckw +nan  false$", out, re.M) and re.search(r"^ab_rest_upper +-[\d.e+-]+  false$", out, re.M)
        assert [(index, name) for index, (name, _) in offenders] == [(1, "ab_rest_upper"), (9, "ckw"), (10, "ckw")]

    def test_weight1_rows_fold_the_wclass_entries(self, tmp_path, monkeypatch, capsys):
        # every third state, and the whole third chunk of 4, drawn weight-1: the W-class entries cover a part
        # of a chunk's states and, in the third chunk, all of them
        haar = qmonogamy.cli._haar_amplitudes

        def draw(n, seeds):
            amplitudes = haar(n, seeds)
            for row, (_, index) in enumerate(seeds):
                if index % 3 == 0 or 8 <= index < 12:
                    c = [1, 1j] @ np.random.default_rng(index).standard_normal((2, n))
                    amplitudes[row] = _weight1_amplitudes(c[None] / np.linalg.norm(c))[0]
            return amplitudes

        monkeypatch.setattr(qmonogamy.cli, "_haar_amplitudes", draw)
        plants = {"wclass_upper": dict.fromkeys([0, 3, 9], 10.0), "wclass_lower": {6: 10.0},
                  "ab_rest_upper": dict.fromkeys([3, 5], 10.0)}
        doc, chunks, offenders, _ = self.fold(tmp_path, monkeypatch, capsys, 14, 4, plants)
        assert [len(entries[1][0]) for _, entries in chunks] == [2, 1, 4, 1]
        assert {entries[1][1] for _, entries in chunks} == {("wclass_lower", "wclass_upper")}
        assert doc["violations"] == 6 and not doc["min_slack"]["wclass_upper"]["satisfied"]
        assert [(index, name) for index, (name, _) in offenders] == [
            (0, "wclass_upper"), (3, "ab_rest_upper"), (5, "ab_rest_upper"), (6, "wclass_lower"), (9, "wclass_upper")]


class TestReproducePaper:
    def test_all_checks_pass(self, capsys):
        assert main(["reproduce-paper"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "saturating-4q" in out
        assert "triangle-4q" in out
        lines = out.splitlines()
        assert "  ok    concurrence_sq[AB|CD]          expected            1  computed            1" in lines
        assert lines[-1] == "42/42 checks passed"

    def test_failed_check_exits_two(self, monkeypatch, capsys):
        # a pinned closed form that does not reproduce is an implementation bug, as a violated bound is
        def one_wrong():
            cases = qmonogamy.cases.builtin_cases()
            quantity, computed, expected, note = cases[0][2][0]
            cases[0][2][0] = (quantity, computed, expected + 0.5, note)
            return cases

        monkeypatch.setattr(qmonogamy.cli, "builtin_cases", one_wrong)
        assert main(["reproduce-paper"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.lstrip().startswith("FAIL") for line in lines) == 1
        assert lines[-1] == "41/42 checks passed"

    def test_each_case_computes_its_values_once(self, table_work, capsys):
        # one report for each of the four cases that read bound entries, one table for each of the 7 cuts, one
        # for the triangle vectors and one for the W-class chain
        assert main(["reproduce-paper"]) == 0
        assert table_work.fills == [1] * 13

    def test_each_pair_takes_one_spectrum(self, monkeypatch, capsys):
        # 8 pair marginals, each read for both closed forms from one lambda spectrum; every module that holds the
        # function is patched, as the benchmark's tracer rebinds it
        spectrum, marginals = qmonogamy.concurrence.lambda_spectrum, []

        def counted(dm):
            marginals.append(dm)
            return spectrum(dm)

        for module in (qmonogamy, qmonogamy.concurrence, qmonogamy.cases):
            if vars(module).get("lambda_spectrum") is spectrum:
                monkeypatch.setattr(module, "lambda_spectrum", counted)
        assert main(["reproduce-paper"]) == 0
        assert len(marginals) == len(set(map(id, marginals))) == 8

    def test_json_output(self, tmp_path):
        out = tmp_path / "cases.json"
        assert main(["reproduce-paper", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["failures"] == 0
        quantities = {(row["case"], row["quantity"]) for row in doc["checks"]}
        assert ("six-qubit-bell-c1-c2", "abc_rest_lower_diff") in quantities
        assert len(doc["checks"]) == 42
        for row in doc["checks"]:
            assert set(row) == {"case", "quantity", "expected", "computed", "tolerance", "ok", "note"}
            assert row["tolerance"] == 1e-9


class TestWclassScan(OneFillPerChunk):
    # the pairs, and the singles at n = 3: 45 pairs at n = 10 in 45 gathers of 7 states or 6 of one
    GATHERS = {3: [2, 2, 2], 6: [1, 1, 1], 10: [45, 45, 6]}

    @staticmethod
    def argv(n):
        return ["wclass-scan", "--n", str(n)]

    @staticmethod
    def cuts(n):
        """C^2(A_i A_j|rest) reuses the pair's marginal once the pair is the smaller side."""
        return [(q,) for q in range(n)] if n == 3 else []

    def test_scan_rows_and_chain(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["wclass-scan", "--n", "5", "--count", "3", "--seed", "11",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "coefficients,pair,lower,mid,upper,gap_lower,gap_upper"
        assert len(lines) == 1 + 3 * 10  # 10 pairs per 5-qubit sample
        for line in lines[1:]:
            fields = line.split(",")
            lower, mid, upper = float(fields[2]), float(fields[3]), float(fields[4])
            assert lower <= mid + 1e-7
            assert mid <= upper + 1e-7

    def test_negative_seed_exits_one(self, capsys):
        assert main(["wclass-scan", "--n", "4", "--count", "5", "--seed", "-5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error [config]: seed must be non-negative\n" and captured.out == ""

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["wclass-scan", "--n", "4", "--count", "2", "--seed", "5", "--out", str(a)]) == 0
        assert main(["wclass-scan", "--n", "4", "--count", "2", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gap_summary_only_with_out(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["wclass-scan", "--n", "4", "--count", "2", "--seed", "5", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n=4 count=2 pairs=12"
        assert lines[1].startswith("lower gap: min ") and lines[2].startswith("upper gap: min ")
        assert main(["wclass-scan", "--n", "4", "--count", "2", "--seed", "5"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_bad_config_exits_one(self):
        assert main(["wclass-scan", "--n", "2", "--count", "1", "--seed", "0"]) == 1

    @pytest.mark.parametrize("n", [3, 6])
    def test_output_does_not_depend_on_the_chunk(self, n, tmp_path, monkeypatch, capsys):
        # stdout, the --out CSV, stderr and the exit code of a run of 2 * 64 + 1 states
        runs = set()
        for chunk in (1, 4, 5, 64):
            monkeypatch.setattr(qmonogamy.cli, "CHUNK", chunk)
            out = tmp_path / f"{chunk}.csv"
            code = main(["wclass-scan", "--n", str(n), "--count", "129", "--seed", "8", "--out", str(out)])
            captured = capsys.readouterr()
            runs.add((code, captured.out, captured.err, out.read_bytes()))
        assert len(runs) == 1 and runs.pop()[0] == 0

    def test_nan_output_does_not_depend_on_the_chunk(self, tmp_path, monkeypatch, capsys):
        # a NaN lower side planted on states 2-5, inside one chunk or across the boundaries at 4 or 5
        runs = set()
        for chunk in (1, 4, 5, 64):
            (tmp_path / str(chunk)).mkdir()
            runs.add(self.scan_with_a_broken_side(tmp_path / str(chunk), monkeypatch, capsys, 0, np.nan, chunk))
            monkeypatch.undo()  # the next clean run reads the real chain
        assert len(runs) == 1

    @pytest.mark.parametrize("tolerance", [None, "1e-3"])
    @pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 2)])
    def test_verdict_boundary(self, tolerance, factor, code, tmp_path, monkeypatch, capsys):
        # the first state's first upper side planted at mid - delta: an upper gap of about -delta, inside the
        # tolerance at half of it and beyond it at twice it
        tol = 1e-7 if tolerance is None else float(tolerance)
        chain = qmonogamy.cli._wclass_chain

        def planted(table):
            lower, mid, upper = chain(table)
            upper[0, 0] = mid[0, 0] - factor * tol
            return lower, mid, upper

        monkeypatch.setattr(qmonogamy.cli, "_wclass_chain", planted)
        out = tmp_path / "scan.csv"
        argv = ["wclass-scan", "--n", "4", "--count", "5", "--seed", "3", "--out", str(out)]
        assert main(argv + (["--tolerance", tolerance] if tolerance else [])) == code
        gap = float(out.read_text().splitlines()[1].split(",")[-1])
        assert -(factor + 0.01) * tol < gap < -(factor - 0.01) * tol
        assert capsys.readouterr().err == ("" if code == 0 else "1 rows violate the two-sided bound\n")

    @staticmethod
    def scan_with_a_broken_side(tmp_path, monkeypatch, capsys, side, value, chunk=4):
        """A scan whose chain reads ``value`` on one side (0 lower, 2 upper) for four of ten states,
        two on each side of the chunk boundary at 4: it exits 2, counts the rows and keeps every row.
        Returns its stdout, its stderr and its CSV."""
        seed, count, failing = 6, 10, [2, 3, 4, 5]
        argv = ["wclass-scan", "--n", "3", "--count", str(count), "--seed", str(seed)]
        assert main(argv + ["--out", str(tmp_path / "clean.csv")]) == 0
        rng = np.random.default_rng(seed)
        states = [wclass_state(np.sqrt(rng.dirichlet(np.ones(3))) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3)))
                  for _ in range(count)]
        broken = {states[index].amplitudes.tobytes() for index in failing}
        chain = qmonogamy.cli._wclass_chain

        def broken_chain(table):
            sides = list(chain(table))
            hit = np.array([row.tobytes() in broken for row in table.amplitudes])
            sides[side] = np.where(hit[:, None], value, sides[side])
            return tuple(sides)

        monkeypatch.setattr(qmonogamy.cli, "CHUNK", chunk)
        monkeypatch.setattr(qmonogamy.cli, "_wclass_chain", broken_chain)
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "scan.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{3 * len(failing)} rows violate the two-sided bound\n"
        clean = (tmp_path / "clean.csv").read_text().splitlines()
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert len(lines) == len(clean) == 1 + 3 * count
        moved = {2 + side, 5 + side // 2}  # the side's column and its gap's
        for row, (line, clean_line) in enumerate(zip(lines[1:], clean[1:])):
            if row // 3 in failing:
                fields, clean_fields = line.split(","), clean_line.split(",")
                assert fields[2 + side] == format(value, ".17g")
                assert [f for k, f in enumerate(fields) if k not in moved] == \
                    [f for k, f in enumerate(clean_fields) if k not in moved]
            else:
                assert line == clean_line
        return captured.out, captured.err, (tmp_path / "scan.csv").read_bytes()

    def test_violations_exit_two_and_keep_every_row(self, tmp_path, monkeypatch, capsys):
        self.scan_with_a_broken_side(tmp_path, monkeypatch, capsys, 2, -1.0)

    def test_nan_gaps_are_violations(self, tmp_path, monkeypatch, capsys):
        self.scan_with_a_broken_side(tmp_path, monkeypatch, capsys, 0, np.nan)


class TestExitCodeContract:
    def test_usage_errors_exit_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main(["fuzz", "--qubits", "4"]) == 1  # missing required flags
        assert main([]) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(["fuzz", "--qubits", "x", "--count", "1", "--seed", "0"], id="bad-int"),
        pytest.param(["check"], id="missing-argument"),
        pytest.param(["check", "s.json", "--format", "xml"], id="bad-choice"),
        pytest.param(["no-such-command"], id="unknown-command"),
        pytest.param([], id="no-arguments"),
        pytest.param(["fuzz", "--qubits", "4", "--count", "1", "--seed", "0", "--no-such-flag"], id="unknown-flag"),
    ])
    def test_usage_error_prints_one_config_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [config]: ") and captured.err.count("\n") == 1, captured.err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["check", "fuzz", "wclass-scan"])
    def test_non_finite_tolerance_exits_one(self, command, tolerance, sat4_file, tmp_path,
                                            monkeypatch, capsys):
        # rejected before any work: no report, no --out file, no dumped violation
        argv = {
            "check": ["check", str(sat4_file)],
            "fuzz": ["fuzz", "--qubits", "3", "--count", "2", "--seed", "0"],
            "wclass-scan": ["wclass-scan", "--n", "3", "--count", "2", "--seed", "0"],
        }[command]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(argv + ["--tolerance", tolerance, "--out", "out.txt"]) == 1
        captured = capsys.readouterr()
        assert "error [config]" in captured.err and captured.out == ""
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command", ["check", "fuzz"])
    def test_tolerance_judged_by_the_api_rule(self, command, tolerance, sat4_file, capsys):
        # the command line says what evaluate_all says of the same value, word for word
        argv = {"check": ["check", str(sat4_file)], "fuzz": ["fuzz", "--qubits", "3", "--count", "2", "--seed", "0"]}
        with pytest.raises(ValueError) as err:
            evaluate_all(read_state_file(sat4_file), tolerance=float(tolerance))
        assert main(argv[command] + ["--tolerance", tolerance]) == 1
        assert capsys.readouterr().err == f"error [config]: {err.value}\n"

    @pytest.mark.parametrize("command", ["check", "fuzz", "reproduce-paper", "wclass-scan"])
    def test_unwritable_out_exits_one(self, command, sat4_file, tmp_path, capsys):
        argv = {
            "check": ["check", str(sat4_file)],
            "fuzz": ["fuzz", "--qubits", "3", "--count", "2", "--seed", "0"],
            "reproduce-paper": ["reproduce-paper"],
            "wclass-scan": ["wclass-scan", "--n", "3", "--count", "2", "--seed", "0"],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "missing" / "out.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [io]") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["check-2", "fuzz-2", "fuzz-13", "wclass-scan-2", "wclass-scan-13",
                                      "evaluate_all-2", "wclass_bounds-2"])
    def test_qubit_count_judged_by_one_rule(self, case, tmp_path, monkeypatch, capsys):
        # the bounds' qubit-count rule, met from the command line (before any work: no --out file) or from code
        monkeypatch.chdir(tmp_path)
        weight1 = state_from_basis_terms(2, [("01", 1), ("10", 1)])
        write_state_file(weight1, "s2.json")
        argv = {
            "check-2": ["check", "s2.json"],
            "fuzz-2": ["fuzz", "--qubits", "2", "--count", "2", "--seed", "0"],
            "fuzz-13": ["fuzz", "--qubits", "13", "--count", "2", "--seed", "0"],
            "wclass-scan-2": ["wclass-scan", "--n", "2", "--count", "2", "--seed", "0"],
            "wclass-scan-13": ["wclass-scan", "--n", "13", "--count", "2", "--seed", "0"],
        }.get(case)
        if argv:
            assert main(argv + ["--out", "out.txt"]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error [qubits]: ") and captured.err.count("\n") == 1
            assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["s2.json"]
            return
        call = {
            "evaluate_all-2": lambda: evaluate_all(weight1),
            "wclass_bounds-2": lambda: wclass_bounds(weight1, 0, 1),
        }[case]
        with pytest.raises(StateError, match="at least 3 qubits") as err:
            call()
        assert err.value.code == "qubits"


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it must not change any output."""

    CALLS = [
        ["check", "sat4.json", "--format", "csv"],
        ["check", "sat4.json"],
        ["check", "sat4.json", "--format", "csv", "--out", "check.csv"],
        ["check", "sat4.json", "--out", "check.json"],
        ["fuzz", "--qubits", "4", "--count", "3", "--seed", "1", "--format", "csv"],
        ["fuzz", "--qubits", "4", "--count", "3", "--seed", "1"],
        ["fuzz", "--qubits", "4", "--count", "3", "--seed", "1", "--format", "csv", "--out", "fuzz.csv"],
        ["fuzz", "--qubits", "4", "--count", "3", "--seed", "1", "--out", "fuzz.json"],
        ["wclass-scan", "--n", "4", "--count", "3", "--seed", "2"],
        ["reproduce-paper", "--out", "paper.json"],
        ["wclass-scan", "--n", "4", "--count", "3", "--seed", "2", "--out", "scan.csv"],
        ["fuzz", "--qubits", "4"],  # a usage error: required flags missing
        ["--help"],
        ["check", "sat4.json", "--tolerance", "nan"],
        ["check", "sat4.json", "--format", "csv"],
    ]

    @staticmethod
    def _run(directory, monkeypatch, capsys, fresh: bool):
        directory.mkdir()
        monkeypatch.chdir(directory)
        write_state_file(state_from_basis_terms(4, [("0000", 1), ("1001", 1)]), "sat4.json")
        qmonogamy.cli.build_parser.cache_clear()
        calls = []
        for argv in TestParserReuse.CALLS:
            if fresh:
                qmonogamy.cli.build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            calls.append((argv, code, captured.out, captured.err))
        return calls, {path.name: path.read_text() for path in sorted(directory.iterdir())}

    def test_reused_parser_gives_what_a_fresh_one_gives(self, tmp_path, monkeypatch, capsys):
        reused, reused_files = self._run(tmp_path / "reused", monkeypatch, capsys, fresh=False)
        fresh, fresh_files = self._run(tmp_path / "fresh", monkeypatch, capsys, fresh=True)
        assert reused == fresh
        assert reused_files == fresh_files
        assert len(reused_files) == 7  # sat4.json and six --out files
        assert [code for _, code, _, _ in reused] == [0] * 11 + [1, 0, 1, 0]
        assert reused[0][2] == reused[-1][2] and reused[0][2] != reused[1][2]  # csv, json, ..., csv again

    def test_parser_is_built_once(self):
        assert qmonogamy.cli.build_parser() is qmonogamy.cli.build_parser()

    def test_handler_rebound_after_the_first_call_is_used(self, sat4_file, monkeypatch, capsys):
        assert main(["check", str(sat4_file)]) == 0
        seen = []
        monkeypatch.setattr(qmonogamy.cli, "cmd_check", lambda args: seen.append(args.state_file) or 7)
        assert main(["check", str(sat4_file)]) == 7
        assert seen == [str(sat4_file)]


def stdlib_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


class TestJsonWriter:
    """The CLI writes each JSON document exactly as ``json.dumps(doc, indent=2)`` lays it out."""

    IDS = ["plain", 'a "quoted" back\\slash', "non-ASCII: \u00fc\u00df \u2713 \U0001d11e", "%s %d %% {} {0} {{x}}"]
    ODD = [-0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("n", [3, 4, 6, 12])
    def test_check_reports(self, n, tmp_path):
        weights = np.arange(1.0, n + 1)
        for state in (random_haar_state(n, n), wclass_state(weights / np.linalg.norm(weights))):
            report = evaluate_all(state)
            for state_id in self.IDS:
                report = dataclasses.replace(report, state_id=state_id)
                assert qmonogamy.cli._json_report(report) == stdlib_json(dataclasses.asdict(report))
        assert {"wclass_lower", "wclass_upper"} <= {e.inequality for e in report.entries}
        # the whole command, its state id being the file's path
        path = tmp_path / "a \"q\" b\\s %s \u00fc {}.json"
        write_state_file(state, path)
        assert main(["check", str(path), "--out", str(tmp_path / "report.json")]) == 0
        text = (tmp_path / "report.json").read_text(encoding="ascii")
        assert text == stdlib_json(json.loads(text))

    def test_synthetic_values(self):
        entries = tuple(BoundEntry(f"e{k}", x, -x, x, k % 2 == 0) for k, x in enumerate(self.ODD))
        components = {f"p{k}": {"concurrence_sq": x, "assistance_sq": -x} for k, x in enumerate(self.ODD)}
        for tolerance in self.ODD:
            for report in (BoundReport("s", 7, tolerance, entries, components), BoundReport("", 3, tolerance, (), {})):
                assert qmonogamy.cli._json_report(report) == stdlib_json(dataclasses.asdict(report))
            args = argparse.Namespace(qubits=12, count=10**6, seed=2**63, tolerance=tolerance)
            for worst in ({e.inequality: e for e in entries}, {}):
                doc = {"config": vars(args),
                       "min_slack": {name: {"lhs": e.lhs, "rhs": e.rhs, "slack": e.slack, "satisfied": e.satisfied}
                                     for name, e in worst.items()},
                       "violations": 3}
                assert qmonogamy.cli._json_fuzz(args, worst, 3) == stdlib_json(doc)
            checks = [{"case": name, "quantity": f"q[{k}]", "expected": x, "computed": -x, "tolerance": tolerance,
                       "ok": k % 2 == 1, "note": name} for k, (name, x) in enumerate(zip(self.IDS * 2, self.ODD))]
            for doc in ({"checks": checks, "failures": 3}, {"checks": [], "failures": 0}):
                assert qmonogamy.cli._json_checks(doc) == stdlib_json(doc)

    def test_fuzz_payloads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for n in (3, 4, 6):
            assert main(["fuzz", "--qubits", str(n), "--count", "70", "--seed", "1", "--out", "clean.json"]) == 0
            text = (tmp_path / "clean.json").read_text(encoding="ascii")
            assert text == stdlib_json(json.loads(text))
        # a broken upper bound: satisfied false rows
        upper = qmonogamy.monogamy._ab_rest_upper
        monkeypatch.setattr(qmonogamy.monogamy, "_ab_rest_upper", lambda ca_sq: upper(ca_sq) - 50)
        assert main(["fuzz", "--qubits", "4", "--count", "5", "--seed", "1", "--out", "broken.json"]) == 2
        text = (tmp_path / "broken.json").read_text(encoding="ascii")
        assert text == stdlib_json(json.loads(text))
        assert not json.loads(text)["min_slack"]["ab_rest_upper"]["satisfied"]

    def test_reproduce_paper_with_a_failed_check(self, tmp_path, monkeypatch, capsys):
        cases = qmonogamy.cases.builtin_cases

        def one_wrong():
            rows = cases()
            quantity, computed, expected, note = rows[1][2][2]
            rows[1][2][2] = (quantity, computed, expected + 0.5, note)
            return rows

        out = tmp_path / "checks.json"
        assert main(["reproduce-paper", "--out", str(out)]) == 0
        text = out.read_text(encoding="ascii")
        assert text == stdlib_json(json.loads(text))
        monkeypatch.setattr(qmonogamy.cli, "builtin_cases", one_wrong)
        assert main(["reproduce-paper", "--out", str(out)]) == 2
        text = out.read_text(encoding="ascii")
        assert text == stdlib_json(json.loads(text))
        assert [row["quantity"] for row in json.loads(text)["checks"] if not row["ok"]] == ["concurrence[B|ACD]"]


class TestFuzzRegression:
    def test_pinned_min_slack_table(self, tmp_path):
        # frozen from the first run of this configuration; any drift in the
        # measures or the state generator shows up here
        out = tmp_path / "fuzz.json"
        assert main(["fuzz", "--qubits", "4", "--count", "1000", "--seed", "7",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == 0
        min_slack = {name: row["slack"] for name, row in doc["min_slack"].items()}
        assert min_slack["ab_rest_lower"] == pytest.approx(0.85977542704237864, abs=1e-9)
        assert min_slack["abc_rest_upper"] == pytest.approx(2.207438075371726, abs=1e-9)
        assert all(slack >= -1e-7 for slack in min_slack.values())
