"""The bound arithmetic restated per state, as two references for the stack path.

``monogamy._entries`` computes each inequality as one array expression over a
stack of states.  The formulas below compute the same entries for one state at
a time, as plain Python sums over that state's pair values C^2 and C_a^2 and
its cut values, each read for that state alone rather than from a
``MarginalTable``: the cut values from ``partial_trace``, the pair values by
the table's route (``helpers.pair_sq``).

The first reference states the AB|rest and ABC1|rest bounds through the row
sums K(q) = sum_j C^2(q, j) and A(q) = sum_j C_a^2(q, j), as the stack path
does.  Every sum adds left to right from 0, as Python's ``sum`` does, so the
stack path must give the same bits for every state of every stack, whatever
the stack holds.  The second reference keeps the paper's literal grouping of
those sums.  It rounds differently, so the entries built from it agree with
the stack path within 1e-13, and every other entry bit for bit.
"""

import numpy as np
import pytest

from qmonogamy import linear_entropy, partial_trace, random_haar_state, wclass_state
from qmonogamy.concurrence import MarginalTable
from qmonogamy.monogamy import _entries, _wclass_chain, _weight1

from helpers import pair_sq, sparse_state, stacked


class Row:
    """One state's pair and cut values, as Python floats."""

    def __init__(self, state):
        self.state, self.n_qubits = state, state.n_qubits
        n = self.n_qubits
        self.pairs = {(i, j): pair_sq(state, i, j) for i in range(n) for j in range(i + 1, n)}

    def csq(self, i, j):
        return 0.0 if i == j else self.pairs[min(i, j), max(i, j)][0]

    def casq(self, i, j):
        return 0.0 if i == j else self.pairs[min(i, j), max(i, j)][1]

    def linear_entropy(self, qubits):
        return linear_entropy(partial_trace(self.state, qubits))

    def cut_sq(self, left):
        right = set(range(self.n_qubits)) - set(left)
        return 2.0 * self.linear_entropy(left if len(left) <= len(right) else right)


def row_sum(t, q, sq=Row.csq):
    """K(q) = sum_j C^2(q, j), or with ``Row.casq`` A(q), the zero (q, q) term included."""
    return sum(sq(t, q, j) for j in range(t.n_qubits))


class RowSums:
    """The AB|rest and ABC1|rest bounds from the row sums, as the stack path states them."""

    @staticmethod
    def ab_rest(t, a=0, b=1, ca_sq=Row.casq):
        def gap(a, b):  # sum over C of C^2(a, C) - C_a^2(b, C)
            return (row_sum(t, a) - t.csq(a, b)) - (row_sum(t, b, ca_sq) - ca_sq(t, a, b))

        return max(gap(a, b), gap(b, a)), row_sum(t, a, ca_sq) + row_sum(t, b, ca_sq)

    @staticmethod
    def abc_rest(t):
        lower, upper = RowSums.ab_rest(t)
        assistance = row_sum(t, 2, Row.casq)
        return lower - assistance, row_sum(t, 2) - upper, upper + assistance


class Literal:
    """The same bounds with the paper's grouping of the sums."""

    @staticmethod
    def ab_rest(t, a=0, b=1, ca_sq=Row.casq):
        cs = [c for c in range(t.n_qubits) if c not in (a, b)]
        sum_a = sum(t.csq(a, c) - ca_sq(t, b, c) for c in cs)
        sum_b = sum(t.csq(b, c) - ca_sq(t, a, c) for c in cs)
        upper = 2.0 * ca_sq(t, a, b)
        upper += sum(ca_sq(t, a, c) + ca_sq(t, b, c) for c in cs)
        return max(sum_a, sum_b), upper

    @staticmethod
    def abc_rest(t):
        lower, upper = Literal.ab_rest(t)
        c1_assistance = sum(t.casq(2, j) for j in [0, 1] + list(range(3, t.n_qubits)))
        cs = range(2, t.n_qubits)
        hub = t.csq(0, 2) + t.csq(1, 2)
        hub += sum(t.csq(2, c) for c in cs if c != 2)
        hub -= 2.0 * t.casq(0, 1)
        hub -= sum(t.casq(0, c) + t.casq(1, c) for c in cs)
        return lower - c1_assistance, hub, upper + c1_assistance


# the entries whose values the two references round differently
MOVED = {"ab_rest_lower", "ab_rest_upper", "abc_rest_lower_diff", "abc_rest_lower_diff_clamped",
         "abc_rest_lower_hub", "abc_rest_lower_hub_clamped", "abc_rest_upper", "wclass_lower", "wclass_upper"}


def wclass_chains(t, bounds=RowSums):
    """(lower, mid, upper) of C^2(A_i A_j|rest) at each pair i < j: the AB|rest bounds with C^2 read for C_a^2."""
    chains = []
    for i in range(t.n_qubits):
        for j in range(i + 1, t.n_qubits):
            lower, upper = bounds.ab_rest(t, i, j, Row.csq)
            chains.append((lower, t.cut_sq([i, j]), upper))
    return chains


def entries(t, bounds=RowSums):
    """``[(inequality, lhs, rhs)]`` of one state, in report order."""
    n = t.n_qubits
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    singles = {q: t.linear_entropy([q]) for q in range(n)}
    doubles = {(i, j): t.linear_entropy([i, j]) for i, j in pairs}
    mid_ab, a_sq, b_sq = t.cut_sq([0, 1]), t.cut_sq([0]), t.cut_sq([1])
    ab_lower, ab_upper = bounds.ab_rest(t)
    out = []

    def add_worst(name, sides):
        """The (lhs, rhs) with the least slack, the first pair on ties."""
        out.append((name, *min(sides, key=lambda side: side[1] - side[0])))

    out.append(("ab_rest_lower", ab_lower, mid_ab))
    out.append(("ab_rest_upper", mid_ab, ab_upper))
    out.append(("chain_lower", abs(a_sq - b_sq), mid_ab))
    out.append(("chain_upper", mid_ab, a_sq + b_sq))
    out.append(("dual_assist", a_sq, sum(t.casq(0, j) for j in range(1, n))))
    out.append(("ckw", sum(t.csq(0, j) for j in range(1, n)), a_sq))
    add_worst("lin_entropy_lower", [(abs(singles[i] - singles[j]), doubles[i, j]) for i, j in pairs])
    add_worst("lin_entropy_upper", [(doubles[i, j], singles[i] + singles[j]) for i, j in pairs])
    if n >= 4:
        mid_abc = t.cut_sq([0, 1, 2])
        diff, hub, upper = bounds.abc_rest(t)
        out.append(("abc_rest_lower_diff", diff, mid_abc))
        out.append(("abc_rest_lower_diff_clamped", max(0.0, diff), mid_abc))
        out.append(("abc_rest_lower_hub", hub, mid_abc))
        out.append(("abc_rest_lower_hub_clamped", max(0.0, hub), mid_abc))
        out.append(("abc_rest_upper", mid_abc, upper))
    if _weight1(t.state.amplitudes[None])[0]:
        chains = wclass_chains(t, bounds)
        add_worst("wclass_lower", [(lower, mid) for lower, mid, _ in chains])
        add_worst("wclass_upper", [(mid, upper) for _, mid, upper in chains])
    return out


def weight1_state(n, rng):
    return wclass_state(np.sqrt(rng.dirichlet(np.ones(n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))


def stack(n, count):
    """Haar states with a weight-1 state at every third place, so that stacks mix the two."""
    states = []
    for k in range(count):
        rng = np.random.default_rng([n, k])
        states.append(random_haar_state(n, rng) if k % 3 else weight1_state(n, rng))
    return states


def mixed_stack(n, count):
    """Haar, weight-1, sparse and sparse weight-1 states in turn."""
    weight1_labels = [1 << q for q in range(n)]
    families = [random_haar_state, weight1_state,
                lambda n, rng: sparse_state(n, rng, np.arange(2**n)),
                lambda n, rng: sparse_state(n, rng, weight1_labels)]
    return [families[k % 4](n, np.random.default_rng([n, k, 4])) for k in range(count)]


def stack_entries(table):
    """``[(inequality, lhs, rhs)]`` of each state of a table, from the stack path."""
    got = [[] for _ in table.amplitudes]
    for rows, names, lhs, rhs in _entries(table):
        for name, lefts, rights in zip(names, lhs.tolist(), rhs.tolist()):
            for b, left, right in zip(rows.tolist(), lefts, rights):
                got[b].append((name, left, right))
    return got


@pytest.mark.parametrize("n", range(3, 13))
def test_stack_path_equals_per_state_sums(n):
    states = stack(n, 22)
    expected = [entries(Row(state)) for state in states]
    assert sum(name == "wclass_upper" for row in expected for name, _, _ in row) == 8
    for chunk in (1, 7, 64):
        for start in range(0, len(states), chunk):
            got = stack_entries(MarginalTable(stacked(states[start:start + chunk])))
            assert got == expected[start:start + chunk], f"chunk {chunk} from state {start}"


@pytest.mark.parametrize("n", range(3, 13))
def test_stack_path_within_1e13_of_the_literal_sums(n):
    states = mixed_stack(n, 24)
    table = MarginalTable(stacked(states))
    got = stack_entries(table)
    lower, mid, upper = _wclass_chain(table)
    for b, state in enumerate(states):
        t = Row(state)
        literal = entries(t, Literal)
        assert [name for name, _, _ in got[b]] == [name for name, _, _ in literal]
        for (name, lhs, rhs), (_, ref_lhs, ref_rhs) in zip(got[b], literal):
            if name not in MOVED:
                assert (lhs, rhs) == (ref_lhs, ref_rhs), (name, b)
            elif name.startswith("wclass"):
                # the least slack may fall to another pair whose slack is within 1e-13
                assert abs((rhs - lhs) - (ref_rhs - ref_lhs)) <= 1e-13, (name, b)
            else:
                assert abs(lhs - ref_lhs) <= 1e-13 and abs(rhs - ref_rhs) <= 1e-13, (name, b)
        if _weight1(state.amplitudes[None])[0]:
            ref_lower, ref_mid, ref_upper = zip(*wclass_chains(t, Literal))
            assert mid[b].tolist() == list(ref_mid)
            np.testing.assert_allclose(lower[b], ref_lower, rtol=0, atol=1e-13)
            np.testing.assert_allclose(upper[b], ref_upper, rtol=0, atol=1e-13)
