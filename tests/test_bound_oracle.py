"""The bound arithmetic restated per state, as a reference for the stack path.

``monogamy._entries`` computes each inequality as one array expression over a
stack of states.  The formulas below compute the same entries for one state at
a time, as plain Python sums over that state's pair values C^2 and C_a^2 and
its cut values, each read from ``partial_trace`` rather than from a
``MarginalTable``.  Every sum adds left to right from 0, as Python's ``sum``
does, so the stack path must give the same bits for every state of every
stack, whatever the stack holds.
"""

import numpy as np
import pytest

from qmonogamy import (
    concurrence_of_assistance,
    linear_entropy,
    partial_trace,
    random_haar_state,
    wclass_state,
    wootters_concurrence,
)
from qmonogamy.concurrence import MarginalTable
from qmonogamy.monogamy import _entries, is_weight1_supported


class Row:
    """One state's pair and cut values, as Python floats."""

    def __init__(self, state):
        self.state, self.n_qubits = state, state.n_qubits
        self.pairs = {}
        for i in range(self.n_qubits):
            for j in range(i + 1, self.n_qubits):
                dm = partial_trace(state, [i, j])
                self.pairs[i, j] = (wootters_concurrence(dm) ** 2, concurrence_of_assistance(dm) ** 2)

    def csq(self, i, j):
        return self.pairs[min(i, j), max(i, j)][0]

    def casq(self, i, j):
        return self.pairs[min(i, j), max(i, j)][1]

    def linear_entropy(self, qubits):
        return linear_entropy(partial_trace(self.state, qubits))

    def cut_sq(self, left):
        right = set(range(self.n_qubits)) - set(left)
        return 2.0 * self.linear_entropy(left if len(left) <= len(right) else right)


def ab_rest_lower(t, a=0, b=1, ca_sq=Row.casq):
    cs = [c for c in range(t.n_qubits) if c not in (a, b)]
    sum_a = sum(t.csq(a, c) - ca_sq(t, b, c) for c in cs)
    sum_b = sum(t.csq(b, c) - ca_sq(t, a, c) for c in cs)
    return max(sum_a, sum_b)


def ab_rest_upper(t, a=0, b=1, ca_sq=Row.casq):
    cs = [c for c in range(t.n_qubits) if c not in (a, b)]
    total = 2.0 * ca_sq(t, a, b)
    total += sum(ca_sq(t, a, c) + ca_sq(t, b, c) for c in cs)
    return total


def c1_assistance(t):
    return sum(t.casq(2, j) for j in [0, 1] + list(range(3, t.n_qubits)))


def abc_rest_lower_diff(t):
    return ab_rest_lower(t) - c1_assistance(t)


def abc_rest_lower_hub(t):
    cs = range(2, t.n_qubits)
    total = t.csq(0, 2) + t.csq(1, 2)
    total += sum(t.csq(2, c) for c in cs if c != 2)
    total -= 2.0 * t.casq(0, 1)
    total -= sum(t.casq(0, c) + t.casq(1, c) for c in cs)
    return total


def abc_rest_upper(t):
    return ab_rest_upper(t) + c1_assistance(t)


def wclass_chain(t, i, j):
    return ab_rest_lower(t, i, j, Row.csq), t.cut_sq([i, j]), ab_rest_upper(t, i, j, Row.csq)


def entries(t):
    """``[(inequality, lhs, rhs)]`` of one state, in report order."""
    n = t.n_qubits
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    singles = {q: t.linear_entropy([q]) for q in range(n)}
    doubles = {(i, j): t.linear_entropy([i, j]) for i, j in pairs}
    mid_ab, a_sq, b_sq = t.cut_sq([0, 1]), t.cut_sq([0]), t.cut_sq([1])
    out = []

    def add_worst(name, sides):
        """The (lhs, rhs) with the least slack, the first pair on ties."""
        out.append((name, *min(sides, key=lambda side: side[1] - side[0])))

    out.append(("ab_rest_lower", ab_rest_lower(t), mid_ab))
    out.append(("ab_rest_upper", mid_ab, ab_rest_upper(t)))
    out.append(("chain_lower", abs(a_sq - b_sq), mid_ab))
    out.append(("chain_upper", mid_ab, a_sq + b_sq))
    out.append(("dual_assist", a_sq, sum(t.casq(0, j) for j in range(1, n))))
    out.append(("ckw", sum(t.csq(0, j) for j in range(1, n)), a_sq))
    add_worst("lin_entropy_lower", [(abs(singles[i] - singles[j]), doubles[i, j]) for i, j in pairs])
    add_worst("lin_entropy_upper", [(doubles[i, j], singles[i] + singles[j]) for i, j in pairs])
    if n >= 4:
        mid_abc = t.cut_sq([0, 1, 2])
        diff, hub = abc_rest_lower_diff(t), abc_rest_lower_hub(t)
        out.append(("abc_rest_lower_diff", diff, mid_abc))
        out.append(("abc_rest_lower_diff_clamped", max(0.0, diff), mid_abc))
        out.append(("abc_rest_lower_hub", hub, mid_abc))
        out.append(("abc_rest_lower_hub_clamped", max(0.0, hub), mid_abc))
        out.append(("abc_rest_upper", mid_abc, abc_rest_upper(t)))
    if is_weight1_supported(t.state):
        chains = [wclass_chain(t, i, j) for i, j in pairs]
        add_worst("wclass_lower", [(lower, mid) for lower, mid, _ in chains])
        add_worst("wclass_upper", [(mid, upper) for _, mid, upper in chains])
    return out


def stack(n, count):
    """Haar states with a weight-1 state at every third place, so that stacks mix the two."""
    states = []
    for k in range(count):
        rng = np.random.default_rng([n, k])
        if k % 3:
            states.append(random_haar_state(n, rng))
        else:
            states.append(wclass_state(np.sqrt(rng.dirichlet(np.ones(n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))))
    return states


@pytest.mark.parametrize("n", range(3, 13))
def test_stack_path_equals_per_state_sums(n):
    states = stack(n, 22)
    expected = [entries(Row(state)) for state in states]
    assert sum(name == "wclass_upper" for row in expected for name, _, _ in row) == 8
    for chunk in (1, 7, 64):
        for start in range(0, len(states), chunk):
            table = MarginalTable(states[start:start + chunk])
            got = [[] for _ in table.states]
            for name, (rows, lhs, rhs) in _entries(table).items():
                for b, left, right in zip(rows.tolist(), lhs.tolist(), rhs.tolist()):
                    got[b].append((name, left, right))
            assert got == expected[start:start + chunk], f"chunk {chunk} from state {start}"
