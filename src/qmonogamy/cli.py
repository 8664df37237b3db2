"""Command-line front end.

Exit codes: 0 success, 1 input or configuration error, 2 at least one bound
violated beyond tolerance (which, the bounds being theorems, indicates an
implementation bug rather than a counterexample).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .cases import CHECK_TOLERANCE, builtin_cases
from .concurrence import pair_index
from .monogamy import DEFAULT_TOLERANCE, _bound_qubits, _entries, _entry, _table, _wclass_chain, evaluate_all, wclass_state
from .statefile import read_state_file, write_state_file
from .states import StateError, random_haar_state

CHUNK = 64  # states per table fill in ``fuzz`` and ``wclass-scan``; no output depends on it


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _entries_csv(entries) -> str:
    lines = ["inequality,lhs,rhs,slack,satisfied"]
    for e in entries:
        lines.append(f"{e.inequality},{_fmt(e.lhs)},{_fmt(e.rhs)},{_fmt(e.slack)},{str(e.satisfied).lower()}")
    return "\n".join(lines) + "\n"


def _tables(states):
    """One ``MarginalTable`` per ``CHUNK`` states, in order."""
    states = iter(states)
    while chunk := list(itertools.islice(states, CHUNK)):
        yield _table(chunk)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    state = read_state_file(args.state_file)
    report = evaluate_all(state, tolerance=args.tolerance, state_id=str(args.state_file))
    text = _entries_csv(report.entries) if args.format == "csv" else json.dumps(report.to_dict(), indent=2) + "\n"
    _emit(text, args.out)
    return 0 if report.all_satisfied() else 2


def cmd_fuzz(args) -> int:
    worst: dict = {}
    violations = 0
    offenders = {}  # index -> (state, its first violated entry's name and slack)
    states = (random_haar_state(args.qubits, np.random.default_rng([args.seed, i])) for i in range(args.count))
    start = 0
    for table in _tables(states):
        for name, (rows, lhs, rhs) in _entries(table).items():
            slack = rhs - lhs
            k = np.argmin(slack)  # the first state on ties, as the running minimum keeps the earlier one
            if name not in worst or slack[k] < worst[name].slack:
                worst[name] = _entry(name, lhs[k], rhs[k], args.tolerance)
            bad = ~(slack >= -args.tolerance)
            violations += int(np.count_nonzero(bad))
            for row, value in zip(rows[bad].tolist(), slack[bad].tolist()):
                offenders.setdefault(start + row, (table.states[row], name, value))
        start += len(table.states)

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
            "violations": violations,
        }
        if args.out:
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        sys.stdout.write(summary)

    if violations:
        for index, (state, name, slack) in sorted(offenders.items())[:8]:
            path = f"violation-{args.seed}-{index}.json"
            write_state_file(state, path)
            print(
                f"violation: {name} slack {slack:.3e} on state {index}; dumped {path}",
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
    draws = [(rng.dirichlet(np.ones(n)), rng.uniform(0.0, 2.0 * np.pi, n)) for _ in range(args.count)]
    samples = [np.sqrt(moduli_sq) * np.exp(1j * phases) for moduli_sq, phases in draws]
    # (count, P) arrays over the pairs i < j of every sample
    lower, mid, upper = map(np.concatenate, zip(*map(_wclass_chain, _tables(map(wclass_state, samples)))))
    gaps_lower, gaps_upper = mid - lower, upper - mid
    # judged as fuzz judges slack, so that a NaN gap is a violation
    bad = np.count_nonzero(~((gaps_lower >= -args.tolerance) & (gaps_upper >= -args.tolerance)))
    rows = ["coefficients,pair,lower,mid,upper,gap_lower,gap_upper"]
    labels = [f"{i + 1}-{j + 1}" for i, j in pair_index(n)[0]]
    for coeffs, *chain in zip(samples, *(side.tolist() for side in (lower, mid, upper, gaps_lower, gaps_upper))):
        ctext = ";".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in coeffs)
        rows.extend(f"{ctext},{label}," + ",".join(map(_fmt, values)) for label, *values in zip(labels, *chain))
    _emit("\n".join(rows) + "\n", args.out)
    if args.out:
        lines = [f"n={n} count={args.count} pairs={gaps_lower.size}"]
        for side, gaps in (("lower", gaps_lower.ravel()), ("upper", gaps_upper.ravel())):
            lines.append(f"{side} gap: min {gaps.min():.3e}  mean {np.mean(gaps):.3e}  max {gaps.max():.3e}")
        sys.stdout.write("\n".join(lines) + "\n")
    if bad:
        print(f"{bad} rows violate the two-sided bound", file=sys.stderr)
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  It names each handler, and ``main`` looks the name up
    when it dispatches, so a later rebinding of ``cmd_*`` in this module takes effect."""
    parser = argparse.ArgumentParser(
        prog="qmonogamy",
        description="Concurrence monogamy bounds for N-qubit pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate every applicable bound on a state file")
    p.set_defaults(run="cmd_check")
    p.add_argument("state_file")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("fuzz", help="check the bounds on random states")
    p.set_defaults(run="cmd_fuzz")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("reproduce-paper", help="recompute the bundled worked examples")
    p.set_defaults(run="cmd_reproduce_paper")
    p.add_argument("--out", default=None)

    p = sub.add_parser("wclass-scan", help="scan random weight-1 states, emitting a CSV of bound chains")
    p.set_defaults(run="cmd_wclass_scan")
    p.add_argument("--n", dest="qubits", metavar="N", type=int, required=True)
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
        if getattr(args, "count", 1) < 1:
            raise ValueError("count must be at least 1")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("seed must be non-negative")
        if hasattr(args, "qubits"):  # the bounds' own rule, before any work starts
            _bound_qubits(args.qubits)
        if not 0 < getattr(args, "tolerance", DEFAULT_TOLERANCE) < np.inf:
            raise ValueError("tolerance must be positive and finite")
        return globals()[args.run](args)
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1
    except StateError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
