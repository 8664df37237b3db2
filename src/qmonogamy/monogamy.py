"""Monogamy bounds on the squared concurrence of N-qubit pure states.

Subsystem roles are fixed by qubit position: qubit 0 is A, qubit 1 is B and
qubit ``i + 1`` is C_i.  Callers wanting a different role assignment permute
their amplitudes first.  Every bound is an entry of the ``evaluate_all``
report.  A lower bound's entry holds its raw signed value, and a
clamped-at-zero entry goes alongside it, since a negative lower bound carries
no information beyond C^2 >= 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .concurrence import MarginalTable, pair_index
from .states import PureState, _qubit_count, _qubits

WEIGHT1_SUPPORT_ATOL = 1e-12
DEFAULT_TOLERANCE = 1e-7
TRIANGLE_DEGENERATE_EPS = 1e-12
_MIN_QUBITS = 3  # the bounds' qubit-count minimum: AB|rest needs A, B and a rest; ABC1|rest entries start at 4


def _table(amplitudes: np.ndarray) -> MarginalTable:
    table = MarginalTable(amplitudes)
    _qubit_count(table.n_qubits, "the bounds' qubit count", _MIN_QUBITS)
    return table


def _tolerance(tolerance):
    if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real) or not 0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be a positive, finite real number, got {tolerance!r}")


def _sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis from left to right, as Python's ``sum`` adds (``np.sum`` pairs terms)."""
    return terms.cumsum(axis=-1)[..., -1]


def _ab_rest_lower(csq: np.ndarray, ca_sq: np.ndarray) -> np.ndarray:
    """The AB|rest lower bound at every role pair (a, b) of a stack, (B, n, n), reading C_a^2 from ``ca_sq``."""
    # sum over C of C^2(a, C) - C_a^2(b, C): the row sums K(a) and A(b), less their (a, b) terms
    gaps = (_sum(csq)[:, :, None] - csq) - (_sum(ca_sq)[:, None, :] - ca_sq)
    return np.maximum(gaps, gaps.swapaxes(-1, -2))


def _ab_rest_upper(ca_sq: np.ndarray) -> np.ndarray:
    """The AB|rest upper bound at every role pair (a, b) of a stack, (B, n, n), reading C_a^2 from ``ca_sq``."""
    totals = _sum(ca_sq)  # 2 C_a^2(a, b) + sum over C of C_a^2(a, C) + C_a^2(b, C) is A(a) + A(b)
    return totals[:, :, None] + totals[:, None, :]


def _grow(lower, upper, csq: np.ndarray, casq: np.ndarray, q: int) -> tuple:
    """From the bounds on C^2(S|rest) over a stack to the (diff, hub, upper) bounds on C^2(Sq|rest).

    They are (lower - A(q), K(q) - upper, upper + A(q)), with K and A the row sums of C^2 and C_a^2.
    """
    assistance = _sum(casq[:, q])
    return lower - assistance, _sum(csq[:, q]) - upper, upper + assistance


@dataclass(frozen=True)
class TriangleVectors:
    """Planar vectors with |a_vec| = a, |b_vec| = b, |c_vec| = c and a_vec + b_vec = c_vec."""

    a_vec: tuple
    b_vec: tuple
    c_vec: tuple


def triangle_vectors(state: PureState) -> TriangleVectors:
    """Realize a = C^2(A|rest), b = C^2(B|rest) and c = C^2(AB|rest) as side lengths of a closed planar triangle.

    ``c_vec`` is laid along the first axis.  When c vanishes the chain |a - b| <= c <= a + b (the report's
    ``chain_*`` entries) forces a = b, and the construction degenerates to an antiparallel pair.
    """
    a, b, c = _table(state.amplitudes[None]).cut_sq([0], [1], [0, 1])[0].tolist()
    if c <= TRIANGLE_DEGENERATE_EPS:
        a_vec = (a, 0.0)
        c_vec = (0.0, 0.0)
    else:
        ax = (c * c + a * a - b * b) / (2.0 * c)
        disc = a * a - ax * ax
        if disc < -1e-12:
            raise ValueError(f"triangle infeasible: discriminant {disc}")
        a_vec = (ax, float(np.sqrt(max(0.0, disc))))
        c_vec = (c, 0.0)
    b_vec = (c_vec[0] - a_vec[0], c_vec[1] - a_vec[1])
    # c - ax can round, so re-form the base from the sides: closure is then
    # exact in floating point, and |c_vec| differs from c only by rounding.
    c_vec = (a_vec[0] + b_vec[0], a_vec[1] + b_vec[1])
    return TriangleVectors(a_vec, b_vec, c_vec)


def wclass_state(coefficients) -> PureState:
    """State supported on Hamming-weight-1 basis labels with the given amplitudes, whose norm ``PureState`` judges."""
    coeffs = np.asarray(list(coefficients), dtype=complex)
    return PureState(len(coeffs), _weight1_amplitudes(coeffs[None])[0])


def _weight1_amplitudes(coefficients: np.ndarray) -> np.ndarray:
    """The (B, 2^n) amplitudes of a (B, n) coefficient stack: coefficient k on the label with only qubit k set."""
    n = _qubit_count(coefficients.shape[1], "the number of coefficients")
    amps = np.zeros((len(coefficients), 2**n), dtype=complex)
    amps[:, 1 << np.arange(n - 1, -1, -1)] = coefficients
    return amps


@cache
def _off_weight1(dim: int) -> np.ndarray:
    """Of ``dim`` = 2^n basis labels, those whose Hamming weight is not 1."""
    off = np.ones(dim, dtype=bool)
    off[[1 << k for k in range(dim.bit_length() - 1)]] = False
    off.flags.writeable = False
    return off


def _weight1(amplitudes: np.ndarray) -> np.ndarray:
    """Per row of a (B, 2^n) amplitude stack, whether all its weight sits on Hamming-weight-1 labels."""
    off = np.abs(amplitudes).max(axis=-1, initial=0.0, where=_off_weight1(amplitudes.shape[-1]))
    return off <= WEIGHT1_SUPPORT_ATOL


def _wclass_chain(table: MarginalTable):
    """The AB|rest bounds around C^2(A_i A_j | rest), C^2 read for C_a^2: (B, P) arrays over pairs i < j."""
    pairs, i, j = pair_index(table.n_qubits)
    csq = table.pair_sq[0]  # the pair fill first: it keeps every pair purity, so no pair is traced twice
    return _ab_rest_lower(csq, csq)[:, i, j], table.cut_sq(*pairs), _ab_rest_upper(csq)[:, i, j]


def wclass_bounds(state: PureState, i: int, j: int):
    """Two-sided bound chain (lower, mid, upper) on C^2(A_i A_j | rest).

    The AB|rest bounds with qubits i and j as A and B, valid on weight-1-supported
    states only: there every two-qubit marginal has C_a = C, so the bounds are
    sums of pair concurrences, and the lower one is |sum_k C^2_ik - C^2_jk|.
    """
    table = _table(state.amplitudes[None])
    pair = _qubits((i, j), "the pair (i, j)", range(table.n_qubits))
    if pair != (i, j):
        raise ValueError(f"need i < j, got ({i}, {j})")
    if not _weight1(state.amplitudes[None])[0]:
        raise ValueError("state is not supported on Hamming-weight-1 basis labels")
    k = pair_index(table.n_qubits)[0].index(pair)
    return tuple(float(side[0, k]) for side in _wclass_chain(table))


def role_name(q: int) -> str:
    return "A" if q == 0 else "B" if q == 1 else f"C{q - 1}"


@dataclass(frozen=True)
class BoundEntry:
    """One inequality instance, stated as lhs <= rhs with slack = rhs - lhs."""

    inequality: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool


@dataclass(frozen=True)
class BoundReport:
    state_id: str
    n_qubits: int
    tolerance: float
    entries: tuple
    components: dict = field(compare=False)

    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.inequality == name:
                return e
        raise KeyError(name)


def evaluate_all(state: PureState, tolerance: float = DEFAULT_TOLERANCE, state_id: str = "state") -> BoundReport:
    """Evaluate every bound applicable at the state's size and report slack.

    Entries use the convention lhs <= rhs, slack = rhs - lhs, satisfied iff
    slack >= -tolerance.  Raw and clamped readings of the signed lower bounds
    are reported separately.
    """
    _tolerance(tolerance)
    table = _table(state.amplitudes[None])
    entries = tuple(_entry(name, low, high, tolerance) for _, names, lhs, rhs in _entries(table)
                    for name, low, high in zip(names, lhs[:, 0].tolist(), rhs[:, 0].tolist()))
    csq, casq = (sq[0].tolist() for sq in table.pair_sq)
    components = {
        f"{role_name(i)}-{role_name(j)}": {"concurrence_sq": csq[i][j], "assistance_sq": casq[i][j]}
        for i, j in pair_index(table.n_qubits)[0]
    }
    return BoundReport(state_id, table.n_qubits, tolerance, entries, components)


def _satisfied(slack, tolerance: float):
    """The one verdict rule, on a slack or an array of them: slack >= -tolerance, so a NaN is never satisfied."""
    return slack >= -tolerance


def _entry(name: str, lhs, rhs, tolerance: float) -> BoundEntry:
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    return BoundEntry(name, lhs, rhs, slack, _satisfied(slack, tolerance))


def _worst(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """Per row of two (rows, columns) matrices, the (lhs, rhs) of the column with the least slack ``rhs - lhs``.

    Ties go to the first column, and the first NaN slack counts as least.  It is the one least-slack rule: over the
    pairs of each state, over the states of a ``fuzz`` chunk, and over the chunks of a run, each earlier pick first.
    """
    k, rows = np.argmin(rhs - lhs, axis=-1), np.arange(len(lhs))
    return lhs[rows, k], rhs[rows, k]


def _entries(table: MarginalTable) -> list:
    """``[(rows, names, lhs, rhs)]``: the row sets of the bounds applicable at the table's size, in report order.

    ``lhs`` and ``rhs`` are (E, R) matrices, one row per inequality of ``names`` and one column per state of
    ``rows``, which indexes the stack.  The first row set holds every inequality over all the states; a second,
    present only when the stack has weight-1-supported states, holds the W-class bounds over those.
    """
    n, everyone = table.n_qubits, np.arange(len(table.amplitudes))
    pairs, i, j = pair_index(n)
    # the pair fill first: it keeps every pair purity, so no pair is traced twice
    csq, casq = table.pair_sq
    entropies = table.linear_entropies([(q,) for q in range(n)] + list(pairs))
    singles, doubles = entropies[:, :n], entropies[:, n:]
    cuts = table.cut_sq([0], [1], [0, 1], *[[0, 1, 2]] * (n >= 4))
    a_sq, b_sq, mid_ab = cuts[:, 0], cuts[:, 1], cuts[:, 2]
    ab_lower, ab_upper = _ab_rest_lower(csq, casq)[:, 0, 1], _ab_rest_upper(casq)[:, 0, 1]

    sides = {
        "ab_rest_lower": (ab_lower, mid_ab),
        "ab_rest_upper": (mid_ab, ab_upper),
        "chain_lower": (np.abs(a_sq - b_sq), mid_ab),
        "chain_upper": (mid_ab, a_sq + b_sq),
        "dual_assist": (a_sq, _sum(casq[:, 0])),
        "ckw": (_sum(csq[:, 0]), a_sq),
        "lin_entropy_lower": _worst(np.abs(singles[:, i] - singles[:, j]), doubles),
        "lin_entropy_upper": _worst(doubles, singles[:, i] + singles[:, j]),
    }
    if n >= 4:
        mid_abc = cuts[:, 3]
        diff, hub, abc_upper = _grow(ab_lower, ab_upper, csq, casq, 2)
        sides["abc_rest_lower_diff"] = (diff, mid_abc)
        sides["abc_rest_lower_diff_clamped"] = (np.maximum(0.0, diff), mid_abc)
        sides["abc_rest_lower_hub"] = (hub, mid_abc)
        sides["abc_rest_lower_hub_clamped"] = (np.maximum(0.0, hub), mid_abc)
        sides["abc_rest_upper"] = (mid_abc, abc_upper)
    row_sets = [(everyone, sides)]

    weight1 = np.flatnonzero(_weight1(table.amplitudes))
    if len(weight1):
        lower, mid, upper = (side[weight1] for side in _wclass_chain(table))
        row_sets.append((weight1, {"wclass_lower": _worst(lower, mid), "wclass_upper": _worst(mid, upper)}))
    return [(rows, tuple(sides), *map(np.array, zip(*sides.values()))) for rows, sides in row_sets]
