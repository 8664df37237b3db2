"""Monogamy bounds on the squared concurrence of N-qubit pure states.

Subsystem roles are fixed by qubit position: qubit 0 is A, qubit 1 is B and
qubit ``i + 1`` is C_i.  Callers wanting a different role assignment permute
their amplitudes first.  Lower-bound evaluators return the raw signed value;
a clamped-at-zero reading is reported alongside it in ``evaluate_all`` since
a negative lower bound carries no information beyond C^2 >= 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .concurrence import MarginalTable, TableRow
from .states import MAX_QUBITS, PureState

WEIGHT1_SUPPORT_ATOL = 1e-12
DEFAULT_TOLERANCE = 1e-7
TRIANGLE_DEGENERATE_EPS = 1e-12


def _table(state: PureState, minimum: int, what: str) -> TableRow:
    if state.n_qubits < minimum:
        raise ValueError(f"{what} needs at least {minimum} qubits, got {state.n_qubits}")
    return MarginalTable([state]).rows[0]


def _ab_rest_lower(t: TableRow, a: int = 0, b: int = 1, ca_sq=TableRow.casq) -> float:
    """The AB|rest lower bound with qubits ``a`` and ``b`` as A and B, reading C_a^2 with ``ca_sq``."""
    cs = [c for c in range(t.n_qubits) if c not in (a, b)]
    sum_a = sum(t.csq(a, c) - ca_sq(t, b, c) for c in cs)
    sum_b = sum(t.csq(b, c) - ca_sq(t, a, c) for c in cs)
    return float(max(sum_a, sum_b))


def _ab_rest_upper(t: TableRow, a: int = 0, b: int = 1, ca_sq=TableRow.casq) -> float:
    """The AB|rest upper bound with qubits ``a`` and ``b`` as A and B, reading C_a^2 with ``ca_sq``."""
    cs = [c for c in range(t.n_qubits) if c not in (a, b)]
    total = 2.0 * ca_sq(t, a, b)
    total += sum(ca_sq(t, a, c) + ca_sq(t, b, c) for c in cs)
    return float(total)


def _c1_assistance(t: TableRow) -> float:
    """C1's assistance total: C_a^2 of C1 with every other qubit."""
    return sum(t.casq(2, j) for j in [0, 1] + list(range(3, t.n_qubits)))


def _abc_rest_lower_diff(t: TableRow) -> float:
    return float(_ab_rest_lower(t) - _c1_assistance(t))


def _abc_rest_lower_hub(t: TableRow) -> float:
    cs = range(2, t.n_qubits)
    total = t.csq(0, 2) + t.csq(1, 2)
    total += sum(t.csq(2, c) for c in cs if c != 2)
    total -= 2.0 * t.casq(0, 1)
    total -= sum(t.casq(0, c) + t.casq(1, c) for c in cs)
    return float(total)


def _abc_rest_upper(t: TableRow) -> float:
    return float(_ab_rest_upper(t) + _c1_assistance(t))


def ab_rest_lower(state: PureState) -> float:
    """Lower bound on C^2(AB|rest) from pairwise concurrence/assistance gaps.

    Raw value of max over the two difference sums; may be negative.
    """
    return _ab_rest_lower(_table(state, 3, "the AB-versus-rest lower bound"))


def ab_rest_upper(state: PureState) -> float:
    """Upper bound on C^2(AB|rest) from the assistance of AB and all AB-C_i pairs."""
    return _ab_rest_upper(_table(state, 3, "the AB-versus-rest upper bound"))


def concurrence_chain(state: PureState):
    """Triangle chain (|a-b|, c, a+b) with a = C^2(A|rest), b = C^2(B|rest), c = C^2(AB|rest)."""
    t = _table(state, 3, "the concurrence chain")
    a, b, c = t.cut_sq([0]), t.cut_sq([1]), t.cut_sq([0, 1])
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
    t = _table(state, 3, "the triangle construction")
    a, b, c = t.cut_sq([0]), t.cut_sq([1]), t.cut_sq([0, 1])
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
    return _abc_rest_lower_diff(_table(state, 4, "the ABC1-versus-rest bounds"))


def abc_rest_lower_hub(state: PureState) -> float:
    """Raw lower bound on C^2(ABC1|rest) from C1's pair concurrences minus A/B assistance totals."""
    return _abc_rest_lower_hub(_table(state, 4, "the ABC1-versus-rest bounds"))


def abc_rest_upper(state: PureState) -> float:
    """Upper bound on C^2(ABC1|rest): the AB-versus-rest upper bound plus C1's assistance total."""
    return _abc_rest_upper(_table(state, 4, "the ABC1-versus-rest bounds"))


def wclass_state(coefficients) -> PureState:
    """State supported on Hamming-weight-1 basis labels with the given amplitudes."""
    coeffs = np.asarray(list(coefficients), dtype=complex)
    n = len(coeffs)
    if n < 3:
        raise ValueError(f"at least 3 coefficients are required, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} coefficients are supported, got {n}")
    if abs(np.sum(np.abs(coeffs) ** 2) - 1.0) > 1e-10:
        raise ValueError("coefficients must be normalized to unit total weight")
    amps = np.zeros(2**n, dtype=complex)
    for i, c in enumerate(coeffs):
        amps[1 << (n - 1 - i)] = c
    return PureState(n, amps)


def is_weight1_supported(state: PureState) -> bool:
    """True when all amplitude weight sits on Hamming-weight-1 basis labels."""
    weight1 = [1 << k for k in range(state.n_qubits)]
    off = np.delete(state.amplitudes, weight1)
    return bool(np.max(np.abs(off), initial=0.0) <= WEIGHT1_SUPPORT_ATOL)


def _wclass_chain(t: TableRow, i: int, j: int):
    """The AB|rest bounds around C^2(A_i A_j | rest), with C^2 read for C_a^2."""
    return _ab_rest_lower(t, i, j, TableRow.csq), t.cut_sq([i, j]), _ab_rest_upper(t, i, j, TableRow.csq)


def wclass_bounds(state: PureState, i: int, j: int):
    """Two-sided bound chain (lower, mid, upper) on C^2(A_i A_j | rest).

    The AB|rest bounds with qubits i and j as A and B, valid on weight-1-supported
    states only: there every two-qubit marginal has C_a = C, so the bounds are
    sums of pair concurrences, and the lower one is |sum_k C^2_ik - C^2_jk|.
    """
    n = state.n_qubits
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < {n}, got ({i}, {j})")
    if not is_weight1_supported(state):
        raise ValueError("state is not supported on Hamming-weight-1 basis labels")
    return _wclass_chain(MarginalTable([state]).rows[0], i, j)


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
        return asdict(self)


def evaluate_all(state: PureState, tolerance: float = DEFAULT_TOLERANCE, state_id: str = "state") -> BoundReport:
    """Evaluate every bound applicable at the state's size and report slack.

    Entries use the convention lhs <= rhs, slack = rhs - lhs, satisfied iff
    slack >= -tolerance.  Raw and clamped readings of the signed lower bounds
    are reported separately.
    """
    if not 0 < tolerance < np.inf:
        raise ValueError("tolerance must be positive and finite")
    t = _table(state, 3, "bound evaluation")
    n = t.n_qubits
    components = {
        f"{role_name(i)}-{role_name(j)}": {"concurrence_sq": t.csq(i, j), "assistance_sq": t.casq(i, j)}
        for i in range(n) for j in range(i + 1, n)
    }
    return BoundReport(state_id, n, tolerance, _entries(t, tolerance), components)


def _entries(t: TableRow, tolerance: float) -> tuple:
    """The ``BoundEntry`` of every bound applicable at the row's size."""
    n = t.n_qubits
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # the pair fill first: it keeps every pair purity, so no pair is traced twice
    ab_lower = _ab_rest_lower(t)
    singles = {q: t.linear_entropy([q]) for q in range(n)}
    doubles = {(i, j): t.linear_entropy((i, j)) for i, j in pairs}

    mid_ab = t.cut_sq([0, 1])
    a_sq = t.cut_sq([0])
    b_sq = t.cut_sq([1])

    entries = []

    def add(name, lhs, rhs):
        slack = rhs - lhs
        entries.append(BoundEntry(name, float(lhs), float(rhs), float(slack), bool(slack >= -tolerance)))

    def add_worst(name, sides):
        """Add the (lhs, rhs) with the least slack, the first pair on ties."""
        add(name, *min(sides, key=lambda side: side[1] - side[0]))

    add("ab_rest_lower", ab_lower, mid_ab)
    add("ab_rest_upper", mid_ab, _ab_rest_upper(t))
    add("chain_lower", abs(a_sq - b_sq), mid_ab)
    add("chain_upper", mid_ab, a_sq + b_sq)
    add("dual_assist", a_sq, sum(t.casq(0, j) for j in range(1, n)))
    add("ckw", sum(t.csq(0, j) for j in range(1, n)), a_sq)

    add_worst("lin_entropy_lower", [(abs(singles[i] - singles[j]), doubles[i, j]) for i, j in pairs])
    add_worst("lin_entropy_upper", [(doubles[i, j], singles[i] + singles[j]) for i, j in pairs])

    if n >= 4:
        mid_abc = t.cut_sq([0, 1, 2])
        diff = _abc_rest_lower_diff(t)
        hub = _abc_rest_lower_hub(t)
        add("abc_rest_lower_diff", diff, mid_abc)
        add("abc_rest_lower_diff_clamped", max(0.0, diff), mid_abc)
        add("abc_rest_lower_hub", hub, mid_abc)
        add("abc_rest_lower_hub_clamped", max(0.0, hub), mid_abc)
        add("abc_rest_upper", mid_abc, _abc_rest_upper(t))

    if is_weight1_supported(t.state):
        chains = [_wclass_chain(t, i, j) for i, j in pairs]
        add_worst("wclass_lower", [(lower, mid) for lower, mid, _ in chains])
        add_worst("wclass_upper", [(mid, upper) for _, mid, upper in chains])

    return tuple(entries)
