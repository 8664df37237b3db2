"""Monogamy bounds on the squared concurrence of N-qubit pure states.

Subsystem roles are fixed by qubit position: qubit 0 is A, qubit 1 is B and
qubit ``i + 1`` is C_i.  Callers wanting a different role assignment permute
their amplitudes first.  Lower-bound evaluators return the raw signed value;
a clamped-at-zero reading is reported alongside it in ``evaluate_all`` since
a negative lower bound carries no information beyond C^2 >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .concurrence import MarginalTable, pair_index
from .states import PureState, StateError, _qubit_count, _qubits

WEIGHT1_SUPPORT_ATOL = 1e-12
DEFAULT_TOLERANCE = 1e-7
TRIANGLE_DEGENERATE_EPS = 1e-12


def _bound_qubits(n, minimum: int = 3):
    """Admit ``n`` as a qubit count the bounds take: in [1, MAX_QUBITS], and at least 3 (AB|rest) or 4 (ABC1|rest)."""
    if _qubit_count(n, "the qubit count") < minimum:
        raise StateError("qubits", f"these bounds need at least {minimum} qubits, got {n}")


def _table(states: list, minimum: int = 3) -> MarginalTable:
    _bound_qubits(states[0].n_qubits, minimum)
    return MarginalTable(states)


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


def _abc_rest(state: PureState) -> tuple:
    """The ABC1|rest bounds (diff, hub, upper) of one state: the AB|rest bounds grown by C1."""
    csq, casq = _table([state], 4).pair_sq
    return _grow(_ab_rest_lower(csq, casq)[:, 0, 1], _ab_rest_upper(casq)[:, 0, 1], csq, casq, 2)


def ab_rest_lower(state: PureState) -> float:
    """Lower bound on C^2(AB|rest) from pairwise concurrence/assistance gaps.

    Raw value of max over the two difference sums; may be negative.
    """
    return float(_ab_rest_lower(*_table([state]).pair_sq)[0, 0, 1])


def ab_rest_upper(state: PureState) -> float:
    """Upper bound on C^2(AB|rest) from the assistance of AB and all AB-C_i pairs."""
    return float(_ab_rest_upper(_table([state]).pair_sq[1])[0, 0, 1])


def concurrence_chain(state: PureState):
    """Triangle chain (|a-b|, c, a+b) with a = C^2(A|rest), b = C^2(B|rest), c = C^2(AB|rest)."""
    a, b, c = _table([state]).cut_sq([0], [1], [0, 1])[0].tolist()
    return abs(a - b), c, a + b


@dataclass(frozen=True)
class TriangleVectors:
    """Planar vectors with |a_vec| = a, |b_vec| = b, |c_vec| = c and a_vec + b_vec = c_vec."""

    a_vec: tuple
    b_vec: tuple
    c_vec: tuple


def triangle_vectors(state: PureState) -> TriangleVectors:
    """Realize the chain values as side lengths of a closed planar triangle.

    ``c_vec`` is laid along the first axis.  When c vanishes the chain forces
    a = b, and the construction degenerates to an antiparallel pair.
    """
    a, b, c = _table([state]).cut_sq([0], [1], [0, 1])[0].tolist()
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


def abc_rest_lower_diff(state: PureState) -> float:
    """Raw lower bound on C^2(ABC1|rest): the AB-versus-rest bound minus C1's assistance total."""
    return float(_abc_rest(state)[0][0])


def abc_rest_lower_hub(state: PureState) -> float:
    """Raw lower bound on C^2(ABC1|rest): C1's concurrence total minus the AB-versus-rest upper bound."""
    return float(_abc_rest(state)[1][0])


def abc_rest_upper(state: PureState) -> float:
    """Upper bound on C^2(ABC1|rest): the AB-versus-rest upper bound plus C1's assistance total."""
    return float(_abc_rest(state)[2][0])


def wclass_state(coefficients) -> PureState:
    """State supported on Hamming-weight-1 basis labels with the given amplitudes, whose norm ``PureState`` judges."""
    coeffs = np.asarray(list(coefficients), dtype=complex)
    n = _qubit_count(len(coeffs), "the number of coefficients")
    amps = np.zeros(2**n, dtype=complex)
    for i, c in enumerate(coeffs):
        amps[1 << (n - 1 - i)] = c
    return PureState(n, amps)


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


def is_weight1_supported(state: PureState) -> bool:
    """True when all amplitude weight sits on Hamming-weight-1 basis labels."""
    return bool(_weight1(state.amplitudes[None])[0])


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
    table = _table([state])
    pair = _qubits((i, j), "the pair (i, j)", range(table.n_qubits))
    if pair != (i, j):
        raise ValueError(f"need i < j, got ({i}, {j})")
    if not is_weight1_supported(state):
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

    def to_dict(self) -> dict:
        """``dataclasses.asdict(self)`` without its deep copies: below the dicts every value is immutable."""
        return {
            "state_id": self.state_id, "n_qubits": self.n_qubits, "tolerance": self.tolerance,
            "entries": tuple(vars(e).copy() for e in self.entries),
            "components": {pair: dict(values) for pair, values in self.components.items()},
        }


def evaluate_all(state: PureState, tolerance: float = DEFAULT_TOLERANCE, state_id: str = "state") -> BoundReport:
    """Evaluate every bound applicable at the state's size and report slack.

    Entries use the convention lhs <= rhs, slack = rhs - lhs, satisfied iff
    slack >= -tolerance.  Raw and clamped readings of the signed lower bounds
    are reported separately.
    """
    if not 0 < tolerance < np.inf:
        raise ValueError("tolerance must be positive and finite")
    table = _table([state])
    entries = tuple(_entry(name, lhs[0], rhs[0], tolerance) for name, (_, lhs, rhs) in _entries(table).items())
    csq, casq = (sq[0].tolist() for sq in table.pair_sq)
    components = {
        f"{role_name(i)}-{role_name(j)}": {"concurrence_sq": csq[i][j], "assistance_sq": casq[i][j]}
        for i, j in pair_index(table.n_qubits)[0]
    }
    return BoundReport(state_id, table.n_qubits, tolerance, entries, components)


def _entry(name: str, lhs, rhs, tolerance: float) -> BoundEntry:
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    return BoundEntry(name, lhs, rhs, slack, slack >= -tolerance)


def _worst(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """Per state, the (lhs, rhs) of the pair with the least slack, the first pair on ties."""
    k, states = np.argmin(rhs - lhs, axis=-1), np.arange(len(lhs))
    return lhs[states, k], rhs[states, k]


def _entries(table: MarginalTable) -> dict:
    """``{inequality: (states, lhs, rhs)}`` of every bound applicable at the table's size, in report order.

    ``states`` indexes the stack's states the bound applies to: all of them, or
    for the W-class bounds the weight-1-supported ones.  ``lhs`` and ``rhs`` are
    arrays over those states.
    """
    n, everyone = table.n_qubits, np.arange(len(table.states))
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
    entries = {name: (everyone, lhs, rhs) for name, (lhs, rhs) in sides.items()}

    weight1 = np.flatnonzero(_weight1(table.amplitudes))
    if len(weight1):
        lower, mid, upper = (side[weight1] for side in _wclass_chain(table))
        entries["wclass_lower"] = (weight1, *_worst(lower, mid))
        entries["wclass_upper"] = (weight1, *_worst(mid, upper))
    return entries
