"""Built-in worked examples with pinned expected values.

These are the regression baseline behind the ``reproduce-paper`` command:
small states whose concurrences and bounds are known in closed form.  Each
check is one row: the quantity, how to compute it from the case's state and
its ``evaluate_all`` report, its exact expected value and a short note saying
where the number comes from.  A bound is read from its report entry.  Every
check is held to the same tolerance, ``CHECK_TOLERANCE``.
"""

from __future__ import annotations

import math

from .concurrence import (
    concurrence_of_assistance,
    pure_concurrence_sq,
    wootters_concurrence,
)
from .monogamy import triangle_vectors, wclass_bounds, wclass_state
from .states import partial_trace, state_from_basis_terms

CHECK_TOLERANCE = 1e-9


def _concurrence(i, j):
    return lambda s, report: wootters_concurrence(partial_trace(s, [i, j]))


def _assistance(i, j):
    return lambda s, report: concurrence_of_assistance(partial_trace(s, [i, j]))


def _cut_sq(*left):
    return lambda s, report: pure_concurrence_sq(s, left)


def _cut(*left):
    return lambda s, report: math.sqrt(pure_concurrence_sq(s, left))


def _lhs(name):
    return lambda s, report: report.entry(name).lhs


def _rhs(name):
    return lambda s, report: report.entry(name).rhs


def builtin_cases():
    """Fresh rows (case_id, description, state, checks), each check (quantity, compute, expected, note), where
    ``compute(state, report)`` reads the state and its ``evaluate_all`` report."""
    sat4 = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
    # With |1010> as the third term (B = 0 throughout) no single-qubit
    # marginal has the spectrum {2/3, 1/3} that the pinned values require;
    # flipping B in that term is the variant that attains all of them.
    phi = state_from_basis_terms(4, [("0000", 1), ("0010", 1), ("1110", 1)])
    ex1 = state_from_basis_terms(6, [("000000", 1), ("101000", 1)])
    ex2 = state_from_basis_terms(6, [("000000", 1), ("001100", 1)])
    w5 = wclass_state([1 / math.sqrt(5)] * 5)

    return [
        ("saturating-4q", "(|0000> + |1001>)/sqrt(2): both AB|CD bounds saturate", sat4, [
            ("concurrence_sq[AB|CD]", _cut_sq(0, 1), 1.0, "one ebit across the AB|CD cut"),
            ("ab_rest_lower", _lhs("ab_rest_lower"), 1.0, "lower bound saturates"),
            ("ab_rest_upper", _rhs("ab_rest_upper"), 1.0, "upper bound saturates"),
            ("concurrence[A-C1]", _concurrence(0, 2), 0.0, "A-C1 marginal is product"),
            ("concurrence[A-C2]", _concurrence(0, 3), 1.0, "A-C2 marginal is a Bell pair"),
            ("assistance[A-B]", _assistance(0, 1), 0.0, "no assisted entanglement for A-B"),
            ("assistance[A-C1]", _assistance(0, 2), 0.0, "none for A-C1"),
            ("assistance[A-C2]", _assistance(0, 3), 1.0, "full assisted entanglement for A-C2"),
            ("assistance[B-C1]", _assistance(1, 2), 0.0, "none for B-C1"),
            ("assistance[B-C2]", _assistance(1, 3), 0.0, "none for B-C2"),
        ]),
        ("triangle-4q", "(|0000> + |0010> + |1110>)/sqrt(3): closed vector triangle", phi, [
            ("concurrence[AB|CD]", _cut(0, 1), 2 / 3, "pair-versus-rest concurrence"),
            ("concurrence[A|BCD]", _cut(0), 2 * math.sqrt(2) / 3, "single-versus-rest concurrence"),
            ("concurrence[B|ACD]", _cut(1), 2 * math.sqrt(2) / 3, "equal by symmetry of the state"),
            ("chain_lower", _lhs("chain_lower"), 0.0, "|a - b| with a = b"),
            ("chain_mid", _rhs("chain_lower"), 4 / 9, "squared pair-versus-rest concurrence"),
            ("chain_upper", _rhs("chain_upper"), 16 / 9, "a + b"),
            ("a_vec_x", lambda s, report: triangle_vectors(s).a_vec[0], 2 / 9, "triangle side, first component"),
            ("a_vec_y", lambda s, report: triangle_vectors(s).a_vec[1], 2 * math.sqrt(15) / 9,
             "triangle side, second component"),
            ("b_vec_x", lambda s, report: triangle_vectors(s).b_vec[0], 2 / 9, "mirror side"),
            ("b_vec_y", lambda s, report: triangle_vectors(s).b_vec[1], -2 * math.sqrt(15) / 9,
             "mirror side, reflected"),
            ("c_vec_x", lambda s, report: triangle_vectors(s).c_vec[0], 4 / 9, "base along the first axis"),
            ("c_vec_y", lambda s, report: triangle_vectors(s).c_vec[1], 0.0, "base along the first axis"),
        ]),
        ("six-qubit-bell-a-c1", "(|000000> + |101000>)/sqrt(2): ebit between A and C1", ex1, [
            ("concurrence_sq[ABC1|rest]", _cut_sq(0, 1, 2), 0.0, "Bell pair lies inside ABC1"),
            ("abc_rest_lower_diff", _lhs("abc_rest_lower_diff"), 0.0,
             "pair-gap bound: the A-C1 ebit cancels against C1's assistance total"),
            ("abc_rest_lower_hub", _lhs("abc_rest_lower_hub"), 0.0, "hub bound: C1's concurrence cancels likewise"),
            ("abc_rest_upper", _rhs("abc_rest_upper"), 2.0, "A-C1 assistance counted in both sums"),
            ("ab_rest_lower", _lhs("ab_rest_lower"), 1.0, "AB|C1C2C3C4 lower bound saturates"),
            ("concurrence_sq[AB|rest]", _cut_sq(0, 1), 1.0, "the ebit straddles the AB|rest cut"),
            ("concurrence[A-C1]", _concurrence(0, 2), 1.0, "Bell pair"),
            ("assistance[A-C1]", _assistance(0, 2), 1.0, "Bell pair"),
        ]),
        ("six-qubit-bell-c1-c2", "(|000000> + |001100>)/sqrt(2): ebit between C1 and C2", ex2, [
            ("concurrence_sq[ABC1|rest]", _cut_sq(0, 1, 2), 1.0, "the ebit straddles the ABC1|rest cut"),
            ("abc_rest_lower_diff", _lhs("abc_rest_lower_diff"), -1.0, "raw pair-gap bound is negative here"),
            ("abc_rest_lower_diff_clamped", _lhs("abc_rest_lower_diff_clamped"), 0.0, "clamped reading"),
            ("abc_rest_lower_hub", _lhs("abc_rest_lower_hub"), 1.0,
             "hub bound saturates: tighter than the pair-gap bound"),
            ("abc_rest_upper", _rhs("abc_rest_upper"), 1.0, "upper bound saturates"),
            ("concurrence[C1-C2]", _concurrence(2, 3), 1.0, "Bell pair"),
            ("assistance[C1-C2]", _assistance(2, 3), 1.0, "Bell pair"),
        ]),
        ("uniform-w5", "uniform five-qubit weight-1 state, pair (1, 2)", w5, [
            ("wclass_lower[1,2]", lambda s, report: wclass_bounds(s, 0, 1)[0], 0.0,
             "symmetric coefficients cancel the difference sum"),
            ("wclass_mid[1,2]", lambda s, report: wclass_bounds(s, 0, 1)[1], 24 / 25, "pair marginal purity is 13/25"),
            ("wclass_upper[1,2]", lambda s, report: wclass_bounds(s, 0, 1)[2], 32 / 25, "2(2/5)^2 + 6(2/5)^2"),
            ("concurrence[pair]", _concurrence(0, 1), 2 / 5, "2|a_p a_q| for uniform weights"),
            ("assistance[pair]", _assistance(0, 1), 2 / 5, "equal to the concurrence on weight-1 states"),
        ]),
    ]
