"""Command-line front end.

Exit codes: 0 success, 1 input or configuration error, 2 at least one bound
violated beyond tolerance (which, the bounds being theorems, indicates an
implementation bug rather than a counterexample).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .cases import builtin_cases, run_case
from .monogamy import DEFAULT_TOLERANCE, BoundReport, _wclass_chain, _wclass_table, evaluate_all, wclass_state
from .statefile import StateFileError, read_state_file, write_state_file
from .states import MAX_QUBITS, random_haar_state


@dataclass(frozen=True)
class RunConfig:
    command: str
    state_path: str | None = None
    qubits: int = 4
    count: int = 100
    seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    out: str | None = None
    fmt: str = "json"

    def validate(self):
        if self.command in ("fuzz", "wclass-scan"):
            if self.count < 1:
                raise ValueError("count must be at least 1")
            if not 3 <= self.qubits <= MAX_QUBITS:
                raise ValueError(f"qubit count must be in [3, {MAX_QUBITS}]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _report_csv(report: BoundReport) -> str:
    lines = ["inequality,lhs,rhs,slack,satisfied"]
    for e in report.entries:
        lines.append(f"{e.inequality},{_fmt(e.lhs)},{_fmt(e.rhs)},{_fmt(e.slack)},{str(e.satisfied).lower()}")
    return "\n".join(lines) + "\n"


def _report_json(report: BoundReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(config: RunConfig) -> int:
    try:
        state = read_state_file(config.state_path)
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1
    except StateFileError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    if state.n_qubits < 3:
        print("error [qubits]: bound checking needs at least 3 qubits", file=sys.stderr)
        return 1
    report = evaluate_all(state, tolerance=config.tolerance, state_id=str(config.state_path))
    _emit(_report_csv(report) if config.fmt == "csv" else _report_json(report), config.out)
    return 0 if report.all_satisfied() else 2


def cmd_fuzz(config: RunConfig) -> int:
    worst: dict = {}
    violations = []
    for index in range(config.count):
        state = random_haar_state(config.qubits, np.random.default_rng([config.seed, index]))
        report = evaluate_all(state, tolerance=config.tolerance, state_id=f"fuzz-{config.seed}-{index}")
        for e in report.entries:
            if e.inequality not in worst or e.slack < worst[e.inequality].slack:
                worst[e.inequality] = e
            if not e.satisfied:
                violations.append((index, state, e))

    lines = [f"fuzz: n={config.qubits} count={config.count} seed={config.seed} tolerance={config.tolerance:g}"]
    lines.append(f"{'inequality':<28}{'min slack':>24}  satisfied")
    for name, e in worst.items():
        lines.append(f"{name:<28}{_fmt(e.slack):>24}  {str(e.satisfied).lower()}")
    summary = "\n".join(lines) + "\n"

    if config.fmt == "csv":
        rows = ["inequality,lhs,rhs,slack,satisfied"]
        for name, e in worst.items():
            rows.append(f"{name},{_fmt(e.lhs)},{_fmt(e.rhs)},{_fmt(e.slack)},{str(e.satisfied).lower()}")
        _emit("\n".join(rows) + "\n", config.out)
        if config.out:
            sys.stdout.write(summary)
    else:
        payload = {
            "config": {"qubits": config.qubits, "count": config.count, "seed": config.seed,
                       "tolerance": config.tolerance},
            "min_slack": {
                name: {"lhs": e.lhs, "rhs": e.rhs, "slack": e.slack, "satisfied": e.satisfied}
                for name, e in worst.items()
            },
            "violations": len(violations),
        }
        if config.out:
            _emit(json.dumps(payload, indent=2) + "\n", config.out)
        sys.stdout.write(summary)

    if violations:
        for index, state, entry in violations[:8]:
            path = f"violation-{config.seed}-{index}.json"
            write_state_file(state, path)
            print(
                f"violation: {entry.inequality} slack {entry.slack:.3e} on state {index}; dumped {path}",
                file=sys.stderr,
            )
        return 2
    return 0


def cmd_reproduce_paper(config: RunConfig) -> int:
    failures = 0
    all_rows = []
    for case in builtin_cases():
        print(f"case {case.case_id}: {case.description}")
        for quantity, expected, computed, tol, ok, note in run_case(case):
            status = "ok" if ok else "FAIL"
            print(f"  {status:<5} {quantity:<30} expected {expected:>12.9g}  computed {computed:>12.9g}")
            all_rows.append({
                "case": case.case_id, "quantity": quantity, "expected": expected,
                "computed": computed, "tolerance": tol, "ok": ok, "note": note,
            })
            failures += 0 if ok else 1
    print(f"{len(all_rows) - failures}/{len(all_rows)} checks passed")
    if config.out:
        _emit(json.dumps({"checks": all_rows, "failures": failures}, indent=2) + "\n", config.out)
    return 0 if failures == 0 else 1


def cmd_wclass_scan(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    n = config.qubits
    rows = ["coefficients,pair,lower,mid,upper,gap_lower,gap_upper"]
    gaps_lower, gaps_upper = [], []
    bad = 0
    for _ in range(config.count):
        moduli_sq = rng.dirichlet(np.ones(n))
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        coeffs = np.sqrt(moduli_sq) * np.exp(1j * phases)
        table = _wclass_table(wclass_state(coeffs))
        ctext = ";".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in coeffs)
        for i in range(n):
            for j in range(i + 1, n):
                lower, mid, upper = _wclass_chain(table, i, j)
                gaps_lower.append(mid - lower)
                gaps_upper.append(upper - mid)
                if mid - lower < -config.tolerance or upper - mid < -config.tolerance:
                    bad += 1
                rows.append(
                    f"{ctext},{i + 1}-{j + 1},{_fmt(lower)},{_fmt(mid)},{_fmt(upper)},"
                    f"{_fmt(mid - lower)},{_fmt(upper - mid)}"
                )
    _emit("\n".join(rows) + "\n", config.out)
    if config.out:
        lines = [f"n={n} count={config.count} pairs={len(gaps_lower)}"]
        for side, gaps in (("lower", gaps_lower), ("upper", gaps_upper)):
            lines.append(f"{side} gap: min {min(gaps):.3e}  mean {np.mean(gaps):.3e}  max {max(gaps):.3e}")
        sys.stdout.write("\n".join(lines) + "\n")
    if bad:
        print(f"{bad} rows violate the two-sided bound", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmonogamy",
        description="Concurrence monogamy bounds for N-qubit pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate every applicable bound on a state file")
    p.add_argument("state_file")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("fuzz", help="check the bounds on random states")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("reproduce-paper", help="recompute the bundled worked examples")
    p.add_argument("--out", default=None)

    p = sub.add_parser("wclass-scan", help="scan random weight-1 states, emitting a CSV of bound chains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for bound violations
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "check":
            config = RunConfig("check", state_path=args.state_file, tolerance=args.tolerance,
                               out=args.out, fmt=args.format)
            config.validate()
            return cmd_check(config)
        if args.command == "fuzz":
            config = RunConfig("fuzz", qubits=args.qubits, count=args.count, seed=args.seed,
                               tolerance=args.tolerance, out=args.out, fmt=args.format)
            config.validate()
            return cmd_fuzz(config)
        if args.command == "reproduce-paper":
            config = RunConfig("reproduce-paper", out=args.out)
            config.validate()
            return cmd_reproduce_paper(config)
        config = RunConfig("wclass-scan", qubits=args.n, count=args.count, seed=args.seed,
                           tolerance=args.tolerance, out=args.out)
        config.validate()
        return cmd_wclass_scan(config)
    except ValueError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
