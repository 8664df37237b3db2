"""Command-line front end.

Exit codes: 0 success, 1 input or configuration error, 2 at least one bound
violated beyond tolerance (which, the bounds being theorems, indicates an
implementation bug rather than a counterexample).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cases import CHECK_TOLERANCE, builtin_cases
from .concurrence import MarginalTable
from .monogamy import DEFAULT_TOLERANCE, BoundReport, _report, _wclass_chain, _wclass_table, evaluate_all, wclass_state
from .statefile import StateFileError, read_state_file, write_state_file
from .states import MAX_QUBITS, random_haar_state

FUZZ_CHUNK = 64  # states per table fill in ``fuzz``; no output depends on it


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _entries_csv(entries) -> str:
    lines = ["inequality,lhs,rhs,slack,satisfied"]
    for e in entries:
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


def cmd_check(args) -> int:
    state = read_state_file(args.state_file)
    if state.n_qubits < 3:
        print("error [qubits]: bound checking needs at least 3 qubits", file=sys.stderr)
        return 1
    report = evaluate_all(state, tolerance=args.tolerance, state_id=str(args.state_file))
    _emit(_entries_csv(report.entries) if args.format == "csv" else _report_json(report), args.out)
    return 0 if report.all_satisfied() else 2


def cmd_fuzz(args) -> int:
    worst: dict = {}
    violations = []
    for start in range(0, args.count, FUZZ_CHUNK):
        indices = range(start, min(start + FUZZ_CHUNK, args.count))
        table = MarginalTable(random_haar_state(args.qubits, np.random.default_rng([args.seed, i])) for i in indices)
        for index, row in zip(indices, table.rows):
            report = _report(row, args.tolerance, f"fuzz-{args.seed}-{index}")
            for e in report.entries:
                if e.inequality not in worst or e.slack < worst[e.inequality].slack:
                    worst[e.inequality] = e
                if not e.satisfied:
                    violations.append((index, row.state, e))

    lines = [f"fuzz: n={args.qubits} count={args.count} seed={args.seed} tolerance={args.tolerance:g}"]
    lines.append(f"{'inequality':<28}{'min slack':>24}  satisfied")
    for name, e in worst.items():
        lines.append(f"{name:<28}{_fmt(e.slack):>24}  {str(e.satisfied).lower()}")
    summary = "\n".join(lines) + "\n"

    if args.format == "csv":
        _emit(_entries_csv(worst.values()), args.out)
        if args.out:
            sys.stdout.write(summary)
    else:
        payload = {
            "config": {"qubits": args.qubits, "count": args.count, "seed": args.seed,
                       "tolerance": args.tolerance},
            "min_slack": {
                name: {"lhs": e.lhs, "rhs": e.rhs, "slack": e.slack, "satisfied": e.satisfied}
                for name, e in worst.items()
            },
            "violations": len(violations),
        }
        if args.out:
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        sys.stdout.write(summary)

    if violations:
        for index, state, entry in violations[:8]:
            path = f"violation-{args.seed}-{index}.json"
            write_state_file(state, path)
            print(
                f"violation: {entry.inequality} slack {entry.slack:.3e} on state {index}; dumped {path}",
                file=sys.stderr,
            )
        return 2
    return 0


def cmd_reproduce_paper(args) -> int:
    rows = []
    for case_id, description, state, checks in builtin_cases():
        print(f"case {case_id}: {description}")
        for quantity, compute, expected, note in checks:
            computed = compute(state)
            ok = abs(computed - expected) <= CHECK_TOLERANCE
            status = "ok" if ok else "FAIL"
            print(f"  {status:<5} {quantity:<30} expected {expected:>12.9g}  computed {computed:>12.9g}")
            rows.append({
                "case": case_id, "quantity": quantity, "expected": expected,
                "computed": computed, "tolerance": CHECK_TOLERANCE, "ok": ok, "note": note,
            })
    failures = sum(not row["ok"] for row in rows)
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    if args.out:
        _emit(json.dumps({"checks": rows, "failures": failures}, indent=2) + "\n", args.out)
    return 0 if failures == 0 else 1


def cmd_wclass_scan(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.qubits
    rows = ["coefficients,pair,lower,mid,upper,gap_lower,gap_upper"]
    gaps_lower, gaps_upper = [], []
    bad = 0
    for _ in range(args.count):
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
                if mid - lower < -args.tolerance or upper - mid < -args.tolerance:
                    bad += 1
                rows.append(
                    f"{ctext},{i + 1}-{j + 1},{_fmt(lower)},{_fmt(mid)},{_fmt(upper)},"
                    f"{_fmt(mid - lower)},{_fmt(upper - mid)}"
                )
    _emit("\n".join(rows) + "\n", args.out)
    if args.out:
        lines = [f"n={n} count={args.count} pairs={len(gaps_lower)}"]
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
    p.add_argument("--n", dest="qubits", metavar="N", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None)

    return parser


COMMANDS = {
    "check": cmd_check,
    "fuzz": cmd_fuzz,
    "reproduce-paper": cmd_reproduce_paper,
    "wclass-scan": cmd_wclass_scan,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for bound violations
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "count", 1) < 1:
            raise ValueError("count must be at least 1")
        if not 3 <= getattr(args, "qubits", 3) <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [3, {MAX_QUBITS}]")
        if not 0 < getattr(args, "tolerance", DEFAULT_TOLERANCE) < np.inf:
            raise ValueError("tolerance must be positive and finite")
        return COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1
    except StateFileError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
