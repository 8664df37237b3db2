import json
from collections import Counter

import pytest

import qmonogamy.concurrence

from qmonogamy import PureState, evaluate_all, random_haar_state, state_from_basis_terms, write_state_file
from qmonogamy.cli import main
from qmonogamy.monogamy import BoundEntry, BoundReport


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
        path.write_text("{broken")
        assert main(["check", str(path)]) == 1
        assert "[parse]" in capsys.readouterr().err

    def test_non_finite_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"n_qubits": 3, "amplitudes": [[NaN, 0]' + ', [0, 0]' * 7 + ']}')
        assert main(["check", str(path)]) == 1
        assert "[finite]" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 1

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


class TestFuzz:
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


class TestWclassScan:
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

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_one_table_per_state(self, n, tmp_path, monkeypatch):
        traces, spectra = Counter(), Counter()
        partial_trace_fn = qmonogamy.concurrence.partial_trace
        spectrum_fn = qmonogamy.concurrence.lambda_spectrum

        def counted_trace(st, keep):
            traces[tuple(sorted(keep))] += 1
            return partial_trace_fn(st, keep)

        def counted_spectrum(dm):
            spectra[dm.qubit_labels] += 1
            return spectrum_fn(dm)

        monkeypatch.setattr(qmonogamy.concurrence, "partial_trace", counted_trace)
        monkeypatch.setattr(qmonogamy.concurrence, "lambda_spectrum", counted_spectrum)
        count = 2
        assert main(["wclass-scan", "--n", str(n), "--count", str(count), "--seed", "3",
                     "--out", str(tmp_path / "scan.csv")]) == 0
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert spectra == Counter({pair: count for pair in pairs})
        # C^2(A_i A_j|rest) reuses the pair's marginal once the pair is the smaller side
        singles = [(q,) for q in range(n)] if n == 3 else []
        assert traces == Counter({key: count for key in pairs + singles})


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
