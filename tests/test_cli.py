import json
from collections import Counter

import numpy as np
import pytest

import qmonogamy.cli
import qmonogamy.monogamy

from qmonogamy import (PureState, StateError, ab_rest_lower, abc_rest_upper, evaluate_all, random_haar_state,
                       read_state_file, state_from_basis_terms, wclass_bounds, write_state_file)
from qmonogamy.cli import CHUNK as DEFAULT_CHUNK, main
from qmonogamy.concurrence import MarginalTable
from qmonogamy.monogamy import BoundEntry, BoundReport, wclass_state


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
    return MarginalTable([state]).pair_sq[1].tobytes()


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


class TestFuzz(OneFillPerChunk):
    # pairs, singles and ABC1 each in one gather, but at n = 10 a gather of 7 states holds
    # 2 marginals (2^14 // (7 * 2^10)) and a gather of one state 16: 23 + 5 + 1 and 3 + 1 + 1
    GATHERS = {3: [2, 2, 2], 6: [3, 3, 3], 10: [29, 29, 5]}

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

    @pytest.mark.parametrize("n", [3, 5])
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
    # the pairs, and the singles at n = 3: 45 pairs at n = 10 in 23 gathers of 7 states or 3 of one
    GATHERS = {3: [2, 2, 2], 6: [1, 1, 1], 10: [23, 23, 3]}

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

    @staticmethod
    def scan_with_a_broken_side(tmp_path, monkeypatch, capsys, side, value):
        """A scan whose chain reads ``value`` on one side (0 lower, 2 upper) for four of ten states,
        two on each side of the chunk boundary at 4: it exits 2, counts the rows and keeps every row."""
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
            hit = np.array([state.amplitudes.tobytes() in broken for state in table.states])
            sides[side] = np.where(hit[:, None], value, sides[side])
            return tuple(sides)

        monkeypatch.setattr(qmonogamy.cli, "CHUNK", 4)
        monkeypatch.setattr(qmonogamy.cli, "_wclass_chain", broken_chain)
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "scan.csv")]) == 2
        assert capsys.readouterr().err == f"{3 * len(failing)} rows violate the two-sided bound\n"
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

    def test_violations_exit_two_and_keep_every_row(self, tmp_path, monkeypatch, capsys):
        self.scan_with_a_broken_side(tmp_path, monkeypatch, capsys, 2, -1.0)

    def test_nan_gaps_are_violations(self, tmp_path, monkeypatch, capsys):
        self.scan_with_a_broken_side(tmp_path, monkeypatch, capsys, 0, np.nan)


class TestExitCodeContract:
    def test_usage_errors_exit_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main(["fuzz", "--qubits", "4"]) == 1  # missing required flags
        assert main([]) == 1

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
                                      "evaluate_all-2", "ab_rest_lower-2", "abc_rest_upper-3", "wclass_bounds-2"])
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
            "ab_rest_lower-2": lambda: ab_rest_lower(weight1),
            "abc_rest_upper-3": lambda: abc_rest_upper(state_from_basis_terms(3, [("000", 1), ("111", 1)])),
            "wclass_bounds-2": lambda: wclass_bounds(weight1, 0, 1),
        }[case]
        with pytest.raises(StateError, match=f"at least {4 if case.endswith('-3') else 3} qubits") as err:
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
