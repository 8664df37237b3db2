"""Command-line front end.

Exit codes: 0 success, 1 input or configuration error, 2 at least one bound
violated beyond tolerance or one ``reproduce-paper`` check failed (which, the
bounds being theorems and the checks closed forms, indicates an
implementation bug rather than a counterexample).
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .cases import CHECK_TOLERANCE, builtin_cases
from .concurrence import pair_index
from .monogamy import (DEFAULT_TOLERANCE, _MIN_QUBITS, _entries, _entry, _satisfied, _table, _tolerance,
                       _wclass_chain, _weight1_amplitudes, _worst, evaluate_all)
from .statefile import read_state_file, write_state_file
from .states import PureState, StateError, _admit_amplitudes, _haar_amplitudes, _qubit_count

# The most states per table fill in ``fuzz`` and ``wclass-scan``; no output depends on it, NaN slacks included.  A
# fill takes fewer when CHUNK states would hold more than _CHUNK_AMPLITUDES amplitudes (0.5 MB): 8 states at n = 12,
# 16 at 11, 32 at 10.  In-process fuzz on 2 CPUs with one BLAS thread ran 392 / 432 / 442 / 483 states/s at n = 12
# and 1337 / 1441 / 1403 / 1332 at n = 10 with 64 / 32 / 16 / 8 states a fill.
CHUNK = 64
_CHUNK_AMPLITUDES = 2**15


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _entries_csv(entries) -> str:
    lines = ["inequality,lhs,rhs,slack,satisfied"]
    for e in entries:
        lines.append(f"{e.inequality},{_fmt(e.lhs)},{_fmt(e.rhs)},{_fmt(e.slack)},{str(e.satisfied).lower()}")
    return "\n".join(lines) + "\n"


# The JSON documents the CLI writes, each exactly as ``json.dumps(doc, indent=2) + "\n"`` lays it out (ASCII only),
# from one template per document shape: with ``indent`` set, ``json`` runs its pure-Python encoder, which takes 2-3
# times as long.  Each template names its keys in the order the document holds them and reads each value as the
# type the document gives it: str, int, bool, or float (spelled as ``json`` spells it, NaN and +-Infinity included).
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_num(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_SPECIAL.get(text, text)


def _json_bool(b: bool) -> str:
    return "true" if b else "false"


def _json_block(items: list, brackets: str) -> str:
    """A list or dict at the second level, from the JSON texts of its items."""
    return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}" if items else brackets


def _json_bound(e: dict) -> str:
    """The lhs, rhs, slack and satisfied fields of a bound entry, at the third level."""
    return (f'"lhs": {_json_num(e["lhs"])},\n      "rhs": {_json_num(e["rhs"])},\n'
            f'      "slack": {_json_num(e["slack"])},\n      "satisfied": {_json_bool(e["satisfied"])}')


def _json_report(report) -> str:
    """The ``check`` report, ``dataclasses.asdict(report)`` of a ``BoundReport``."""
    entries = [f'{{\n      "inequality": {_json_str(e["inequality"])},\n      {_json_bound(e)}\n    }}'
               for e in map(vars, report.entries)]
    components = [f'{_json_str(pair)}: {{\n      "concurrence_sq": {_json_num(c["concurrence_sq"])},\n'
                  f'      "assistance_sq": {_json_num(c["assistance_sq"])}\n    }}'
                  for pair, c in report.components.items()]
    return (f'{{\n  "state_id": {_json_str(report.state_id)},\n  "n_qubits": {report.n_qubits},\n'
            f'  "tolerance": {_json_num(report.tolerance)},\n  "entries": {_json_block(entries, "[]")},\n'
            f'  "components": {_json_block(components, "{}")}\n}}\n')


def _json_fuzz(args, worst: dict, violations: int) -> str:
    """The ``fuzz --out`` summary: the run's config, its least-slack ``BoundEntry`` per inequality and its violations."""
    rows = [f'{_json_str(name)}: {{\n      {_json_bound(vars(e))}\n    }}' for name, e in worst.items()]
    return (f'{{\n  "config": {{\n    "qubits": {args.qubits},\n    "count": {args.count},\n'
            f'    "seed": {args.seed},\n    "tolerance": {_json_num(args.tolerance)}\n  }},\n'
            f'  "min_slack": {_json_block(rows, "{}")},\n  "violations": {violations}\n}}\n')


def _json_checks(doc: dict) -> str:
    """The ``reproduce-paper --out`` checks."""
    checks = [f'{{\n      "case": {_json_str(r["case"])},\n      "quantity": {_json_str(r["quantity"])},\n'
              f'      "expected": {_json_num(r["expected"])},\n      "computed": {_json_num(r["computed"])},\n'
              f'      "tolerance": {_json_num(r["tolerance"])},\n      "ok": {_json_bool(r["ok"])},\n'
              f'      "note": {_json_str(r["note"])}\n    }}' for r in doc["checks"]]
    return f'{{\n  "checks": {_json_block(checks, "[]")},\n  "failures": {doc["failures"]}\n}}\n'


def _tables(n: int, count: int, rows):
    """One ``MarginalTable`` per chunk of states, in order; ``rows(start, stop)`` stacks their amplitudes."""
    chunk = max(1, min(CHUNK, _CHUNK_AMPLITUDES >> n))
    for start in range(0, count, chunk):
        yield _table(_admit_amplitudes(n, rows(start, min(start + chunk, count)))[1])


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    state = read_state_file(args.state_file)
    report = evaluate_all(state, tolerance=args.tolerance, state_id=str(args.state_file))
    text = _entries_csv(report.entries) if args.format == "csv" else _json_report(report)
    _emit(text, args.out)
    return 0 if report.all_satisfied() else 2


def cmd_fuzz(args) -> int:
    picks = {}  # the inequalities of a row set -> their (lhs, rhs) of least slack so far
    violations = 0
    offenders = {}  # the eight lowest indices -> (a copy of the amplitudes, first violated entry name, slack)
    start = 0
    for table in _tables(args.qubits, args.count,
                         lambda a, b: _haar_amplitudes(args.qubits, [[args.seed, i] for i in range(a, b)])):
        for rows, names, lhs, rhs in _entries(table):
            pick = _worst(lhs, rhs)
            if names in picks:  # the earlier chunks' pick first, so that the run folds as one argmin over its states
                pick = _worst(*(np.stack(side, axis=1) for side in zip(picks[names], pick)))
            picks[names] = pick
            slack = rhs - lhs
            bad = ~_satisfied(slack, args.tolerance)
            found = int(np.count_nonzero(bad))
            if found:
                violations += found
                at, which = np.nonzero(bad.T)  # row-major: each state's violated entries in ``_entries`` order
                for row, e, value in zip(rows[at].tolist(), which.tolist(), slack[which, at].tolist()):
                    offenders.setdefault(start + row, (table.amplitudes[row], names[e], value))
        offenders = {i: (amps.copy(), name, value) for i, (amps, name, value) in sorted(offenders.items())[:8]}
        start += len(table.amplitudes)
    worst = {name: _entry(name, low, high, args.tolerance)
             for names, (lows, highs) in picks.items() for name, low, high in zip(names, lows.tolist(), highs.tolist())}

    lines = [f"fuzz: n={args.qubits} count={args.count} seed={args.seed} tolerance={args.tolerance:g}"]
    lines.append(f"{'inequality':<28}{'min slack':>24}  satisfied")
    for name, e in worst.items():
        lines.append(f"{name:<28}{_fmt(e.slack):>24}  {str(e.satisfied).lower()}")
    if args.format == "csv":
        _emit(_entries_csv(worst.values()), args.out)
    elif args.out:
        _emit(_json_fuzz(args, worst, violations), args.out)
    if args.out or args.format == "json":
        sys.stdout.write("\n".join(lines) + "\n")

    if violations:
        for index, (amplitudes, name, slack) in offenders.items():
            path = f"violation-{args.seed}-{index}.json"
            write_state_file(PureState(args.qubits, amplitudes), path)
            print(
                f"violation: {name} slack {slack:.3e} on state {index}; dumped {path}",
                file=sys.stderr,
            )
        return 2
    return 0


def cmd_reproduce_paper(args) -> int:
    rows = []
    for case_id, description, checks in builtin_cases():
        print(f"case {case_id}: {description}")
        for quantity, computed, expected, note in checks:
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
        _emit(_json_checks({"checks": rows, "failures": failures}), args.out)
    return 0 if failures == 0 else 2


def cmd_wclass_scan(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.qubits
    draws = [(rng.dirichlet(np.ones(n)), rng.uniform(0.0, 2.0 * np.pi, n)) for _ in range(args.count)]
    samples = np.array([np.sqrt(moduli_sq) * np.exp(1j * phases) for moduli_sq, phases in draws])
    # (count, P) arrays over the pairs i < j of every sample
    tables = map(_wclass_chain, _tables(n, args.count, lambda a, b: _weight1_amplitudes(samples[a:b])))
    lower, mid, upper = map(np.concatenate, zip(*tables))
    gaps_lower, gaps_upper = mid - lower, upper - mid
    bad = np.count_nonzero(~(_satisfied(gaps_lower, args.tolerance) & _satisfied(gaps_upper, args.tolerance)))
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, which ``main`` reports as ``error [config]``."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  It names each handler, and ``main`` looks the name up
    when it dispatches, so a later rebinding of ``cmd_*`` in this module takes effect."""
    parser = _Parser(
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
        if getattr(args, "count", 1) < 1:
            raise ValueError("count must be at least 1")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("seed must be non-negative")
        if hasattr(args, "qubits"):  # the bounds' own rule, before any work starts
            _qubit_count(args.qubits, "--qubits/--n", _MIN_QUBITS)
        _tolerance(getattr(args, "tolerance", DEFAULT_TOLERANCE))
        return globals()[args.run](args)
    except SystemExit:  # only --help leaves the parser this way, once its text is printed
        return 0
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
