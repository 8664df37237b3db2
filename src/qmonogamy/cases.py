"""Built-in worked examples with pinned expected values.

These are the regression baseline behind the ``reproduce-paper`` command:
small states whose concurrences and bounds are known in closed form.  Each
check is one row: the quantity, its value computed from the case's state, its
exact expected value and a short note saying where the number comes from.
Each case computes its values once: a bound is read from the entries of one
``evaluate_all`` report, a cut from ``pure_concurrence_sq``, and a pair's
concurrence and assistance from the closed forms of one lambda spectrum of one
``partial_trace``.  Every check is held to the same tolerance,
``CHECK_TOLERANCE``.
"""

from __future__ import annotations

import math

from .concurrence import _assistance, _wootters, lambda_spectrum, pure_concurrence_sq
from .monogamy import evaluate_all, triangle_vectors, wclass_bounds, wclass_state
from .states import partial_trace, state_from_basis_terms

CHECK_TOLERANCE = 1e-9


def _pair_values(state, pair):
    """(concurrence, assistance) of a pair's marginal, as ``wootters_concurrence`` and
    ``concurrence_of_assistance`` give them, both read from one lambda spectrum."""
    l = lambda_spectrum(partial_trace(state, pair))
    return float(_wootters(l)), float(_assistance(l))


def builtin_cases():
    """Fresh rows (case_id, description, checks), each check (quantity, computed, expected, note)."""
    sat4 = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
    sat4_bounds = evaluate_all(sat4)
    sat4_pairs = {pair: _pair_values(sat4, pair) for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]}
    # With |1010> as the third term (B = 0 throughout) no single-qubit
    # marginal has the spectrum {2/3, 1/3} that the pinned values require;
    # flipping B in that term is the variant that attains all of them.
    phi = state_from_basis_terms(4, [("0000", 1), ("0010", 1), ("1110", 1)])
    phi_bounds, phi_sides = evaluate_all(phi), triangle_vectors(phi)
    ex1 = state_from_basis_terms(6, [("000000", 1), ("101000", 1)])
    ex1_bounds, (ex1_c, ex1_ca) = evaluate_all(ex1), _pair_values(ex1, [0, 2])
    ex2 = state_from_basis_terms(6, [("000000", 1), ("001100", 1)])
    ex2_bounds, (ex2_c, ex2_ca) = evaluate_all(ex2), _pair_values(ex2, [2, 3])
    w5 = wclass_state([1 / math.sqrt(5)] * 5)
    (w5_lower, w5_mid, w5_upper), (w5_c, w5_ca) = wclass_bounds(w5, 0, 1), _pair_values(w5, [0, 1])

    return [
        ("saturating-4q", "(|0000> + |1001>)/sqrt(2): both AB|CD bounds saturate", [
            ("concurrence_sq[AB|CD]", pure_concurrence_sq(sat4, [0, 1]), 1.0, "one ebit across the AB|CD cut"),
            ("ab_rest_lower", sat4_bounds.entry("ab_rest_lower").lhs, 1.0, "lower bound saturates"),
            ("ab_rest_upper", sat4_bounds.entry("ab_rest_upper").rhs, 1.0, "upper bound saturates"),
            ("concurrence[A-C1]", sat4_pairs[0, 2][0], 0.0, "A-C1 marginal is product"),
            ("concurrence[A-C2]", sat4_pairs[0, 3][0], 1.0, "A-C2 marginal is a Bell pair"),
            ("assistance[A-B]", sat4_pairs[0, 1][1], 0.0, "no assisted entanglement for A-B"),
            ("assistance[A-C1]", sat4_pairs[0, 2][1], 0.0, "none for A-C1"),
            ("assistance[A-C2]", sat4_pairs[0, 3][1], 1.0,
             "full assisted entanglement for A-C2"),
            ("assistance[B-C1]", sat4_pairs[1, 2][1], 0.0, "none for B-C1"),
            ("assistance[B-C2]", sat4_pairs[1, 3][1], 0.0, "none for B-C2"),
        ]),
        ("triangle-4q", "(|0000> + |0010> + |1110>)/sqrt(3): closed vector triangle", [
            ("concurrence[AB|CD]", math.sqrt(pure_concurrence_sq(phi, [0, 1])), 2 / 3, "pair-versus-rest concurrence"),
            ("concurrence[A|BCD]", math.sqrt(pure_concurrence_sq(phi, [0])), 2 * math.sqrt(2) / 3,
             "single-versus-rest concurrence"),
            ("concurrence[B|ACD]", math.sqrt(pure_concurrence_sq(phi, [1])), 2 * math.sqrt(2) / 3,
             "equal by symmetry of the state"),
            ("chain_lower", phi_bounds.entry("chain_lower").lhs, 0.0, "|a - b| with a = b"),
            ("chain_mid", phi_bounds.entry("chain_lower").rhs, 4 / 9, "squared pair-versus-rest concurrence"),
            ("chain_upper", phi_bounds.entry("chain_upper").rhs, 16 / 9, "a + b"),
            ("a_vec_x", phi_sides.a_vec[0], 2 / 9, "triangle side, first component"),
            ("a_vec_y", phi_sides.a_vec[1], 2 * math.sqrt(15) / 9, "triangle side, second component"),
            ("b_vec_x", phi_sides.b_vec[0], 2 / 9, "mirror side"),
            ("b_vec_y", phi_sides.b_vec[1], -2 * math.sqrt(15) / 9, "mirror side, reflected"),
            ("c_vec_x", phi_sides.c_vec[0], 4 / 9, "base along the first axis"),
            ("c_vec_y", phi_sides.c_vec[1], 0.0, "base along the first axis"),
        ]),
        ("six-qubit-bell-a-c1", "(|000000> + |101000>)/sqrt(2): ebit between A and C1", [
            ("concurrence_sq[ABC1|rest]", pure_concurrence_sq(ex1, [0, 1, 2]), 0.0, "Bell pair lies inside ABC1"),
            ("abc_rest_lower_diff", ex1_bounds.entry("abc_rest_lower_diff").lhs, 0.0,
             "pair-gap bound: the A-C1 ebit cancels against C1's assistance total"),
            ("abc_rest_lower_hub", ex1_bounds.entry("abc_rest_lower_hub").lhs, 0.0,
             "hub bound: C1's concurrence cancels likewise"),
            ("abc_rest_upper", ex1_bounds.entry("abc_rest_upper").rhs, 2.0, "A-C1 assistance counted in both sums"),
            ("ab_rest_lower", ex1_bounds.entry("ab_rest_lower").lhs, 1.0, "AB|C1C2C3C4 lower bound saturates"),
            ("concurrence_sq[AB|rest]", pure_concurrence_sq(ex1, [0, 1]), 1.0, "the ebit straddles the AB|rest cut"),
            ("concurrence[A-C1]", ex1_c, 1.0, "Bell pair"),
            ("assistance[A-C1]", ex1_ca, 1.0, "Bell pair"),
        ]),
        ("six-qubit-bell-c1-c2", "(|000000> + |001100>)/sqrt(2): ebit between C1 and C2", [
            ("concurrence_sq[ABC1|rest]", pure_concurrence_sq(ex2, [0, 1, 2]), 1.0,
             "the ebit straddles the ABC1|rest cut"),
            ("abc_rest_lower_diff", ex2_bounds.entry("abc_rest_lower_diff").lhs, -1.0,
             "raw pair-gap bound is negative here"),
            ("abc_rest_lower_diff_clamped", ex2_bounds.entry("abc_rest_lower_diff_clamped").lhs, 0.0,
             "clamped reading"),
            ("abc_rest_lower_hub", ex2_bounds.entry("abc_rest_lower_hub").lhs, 1.0,
             "hub bound saturates: tighter than the pair-gap bound"),
            ("abc_rest_upper", ex2_bounds.entry("abc_rest_upper").rhs, 1.0, "upper bound saturates"),
            ("concurrence[C1-C2]", ex2_c, 1.0, "Bell pair"),
            ("assistance[C1-C2]", ex2_ca, 1.0, "Bell pair"),
        ]),
        ("uniform-w5", "uniform five-qubit weight-1 state, pair (1, 2)", [
            ("wclass_lower[1,2]", w5_lower, 0.0, "symmetric coefficients cancel the difference sum"),
            ("wclass_mid[1,2]", w5_mid, 24 / 25, "pair marginal purity is 13/25"),
            ("wclass_upper[1,2]", w5_upper, 32 / 25, "2(2/5)^2 + 6(2/5)^2"),
            ("concurrence[pair]", w5_c, 2 / 5, "2|a_p a_q| for uniform weights"),
            ("assistance[pair]", w5_ca, 2 / 5,
             "equal to the concurrence on weight-1 states"),
        ]),
    ]
