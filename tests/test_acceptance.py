"""Acceptance suite: end-to-end checks of every pinned value and bound guarantee.

Each test prints one ACCEPTANCE line (run with ``pytest -s`` to stream them)
and enforces its wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from qmonogamy import (
    concurrence_of_assistance,
    convex_roof_optimize,
    evaluate_all,
    linear_entropy,
    partial_trace,
    pure_concurrence_sq,
    random_haar_state,
    state_from_basis_terms,
    three_tangle,
    triangle_vectors,
    wclass_bounds,
    wclass_state,
    wootters_concurrence,
)
from qmonogamy.convex_roof import MAX_SWEEPS

from helpers import random_two_qubit_mixed

SQRT2 = np.sqrt(2)
SQRT15 = np.sqrt(15)


def report(index, ok, description, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index}: {status} - {description} ({elapsed:.2f}s)")


def soft_checks(checks):
    failures = [
        f"{label}: expected {expected:.12g}, computed {computed:.12g} (tol {tol:g})"
        for label, expected, computed, tol in checks
        if not abs(computed - expected) <= tol
    ]
    return failures


def test_saturating_four_qubit_state():
    t0 = time.time()
    state = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
    bounds = evaluate_all(state)
    checks = [
        ("concurrence(AB|CD)", 1.0, math.sqrt(pure_concurrence_sq(state, [0, 1])), 1e-9),
        ("two-vs-rest lower bound", 1.0, bounds.entry("ab_rest_lower").lhs, 1e-9),
        ("two-vs-rest upper bound", 1.0, bounds.entry("ab_rest_upper").rhs, 1e-9),
    ]
    failures = soft_checks(checks)
    elapsed = time.time() - t0
    report(1, not failures and elapsed < 1.0, "saturating four-qubit state, both bounds equal 1", elapsed)
    assert not failures, "; ".join(failures)
    assert elapsed < 1.0


def test_triangle_vector_worked_example():
    t0 = time.time()
    # Third term corrected to |1110>: with |1010> (B = 0 in every term) no
    # single-qubit marginal has the {2/3, 1/3} spectrum that the pinned
    # single-versus-rest values 2*sqrt(2)/3 require, and qubit B decouples
    # entirely.  The one-bit-flip state reproduces every pinned value.
    state = state_from_basis_terms(4, [("0000", 1), ("0010", 1), ("1110", 1)])
    tri = triangle_vectors(state)
    checks = [
        ("concurrence(AB|CD)", 2 / 3, math.sqrt(pure_concurrence_sq(state, [0, 1])), 1e-9),
        ("concurrence(A|BCD)", 2 * SQRT2 / 3, math.sqrt(pure_concurrence_sq(state, [0])), 1e-9),
        ("concurrence(B|ACD)", 2 * SQRT2 / 3, math.sqrt(pure_concurrence_sq(state, [1])), 1e-9),
        ("a_vec x", 2 / 9, tri.a_vec[0], 1e-9),
        ("a_vec y", 2 * SQRT15 / 9, tri.a_vec[1], 1e-9),
        ("b_vec x", 2 / 9, tri.b_vec[0], 1e-9),
        ("b_vec y", -2 * SQRT15 / 9, tri.b_vec[1], 1e-9),
        ("c_vec x", 4 / 9, tri.c_vec[0], 1e-9),
        ("c_vec y", 0.0, tri.c_vec[1], 1e-9),
    ]
    failures = soft_checks(checks)
    elapsed = time.time() - t0
    report(2, not failures and elapsed < 1.0, "worked triangle example reproduces all values", elapsed)
    assert not failures, "; ".join(failures)
    assert elapsed < 1.0


def test_six_qubit_examples():
    t0 = time.time()
    ex1 = state_from_basis_terms(6, [("000000", 1), ("101000", 1)])
    ex2 = state_from_basis_terms(6, [("000000", 1), ("001100", 1)])
    # State 1's ebit joins A and C1, so it lies wholly inside ABC1: the
    # squared concurrence across ABC1|rest is 0 and any sound lower bound is
    # at most 0.  Direct substitution into the pair-gap bound agrees:
    # ab_rest_lower = C^2(A,C1) - 0 = 1, minus C1's assistance total, which
    # holds C_a^2(C1,A) = 1 from the same Bell pair, gives 0; any value above
    # 0 would make evaluate_all report the bound as violated.  State 2's ebit
    # joins C1 and C2, so it straddles the cut and C^2(ABC1|rest) = 1.
    bounds1, bounds2 = evaluate_all(ex1), evaluate_all(ex2)
    checks = [
        ("state 1 C^2(ABC1|rest)", 0.0, pure_concurrence_sq(ex1, [0, 1, 2]), 1e-9),
        ("state 1 pair-gap lower bound", 0.0, bounds1.entry("abc_rest_lower_diff").lhs, 1e-9),
        ("state 1 hub lower bound", 0.0, bounds1.entry("abc_rest_lower_hub").lhs, 1e-9),
        ("state 2 C^2(ABC1|rest)", 1.0, pure_concurrence_sq(ex2, [0, 1, 2]), 1e-9),
        ("state 2 hub lower bound", 1.0, bounds2.entry("abc_rest_lower_hub").lhs, 1e-9),
        ("state 2 pair-gap lower bound (raw)", -1.0, bounds2.entry("abc_rest_lower_diff").lhs, 1e-9),
        ("state 2 pair-gap lower bound (clamped)", 0.0, bounds2.entry("abc_rest_lower_diff_clamped").lhs, 1e-9),
    ]
    failures = soft_checks(checks)
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 1.0, "six-qubit three-vs-rest bound examples", elapsed)
    assert not failures, "; ".join(failures)
    assert elapsed < 1.0


def test_convex_roof_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(20240814)
    worst_min, worst_max = 0.0, 0.0
    min_sweeps, unconverged = [], 0
    for index in range(200):
        rank = 1 + index % 4
        dm = random_two_qubit_mixed(rng, rank)
        vmin, dec_min = convex_roof_optimize(dm, "minimize", seed=np.random.default_rng([1, index]))
        vmax, dec_max = convex_roof_optimize(dm, "maximize", seed=np.random.default_rng([2, index]))
        worst_min = max(worst_min, abs(vmin - wootters_concurrence(dm)))
        worst_max = max(worst_max, abs(vmax - concurrence_of_assistance(dm)))
        if rank > 1:  # rank 1 takes no sweeps
            min_sweeps.append(dec_min.sweeps)
        unconverged += (not dec_min.converged) + (not dec_max.converged)
    elapsed = time.time() - t0
    p90_sweeps = float(np.percentile(min_sweeps, 90))
    ok = worst_min <= 1e-3 and worst_max <= 1e-3 and p90_sweeps < MAX_SWEEPS and elapsed < 300
    report(4, ok, f"optimizer vs closed forms on 200 states "
                  f"(worst min {worst_min:.2e}, worst max {worst_max:.2e}; rank 2-4 minimize "
                  f"sweeps p90 {p90_sweeps:g} of {MAX_SWEEPS}; {unconverged}/400 calls unconverged)",
           elapsed)
    assert worst_min <= 1e-3
    assert worst_max <= 1e-3
    assert p90_sweeps < MAX_SWEEPS
    assert elapsed < 300


def test_assistance_identity_on_random_states():
    t0 = time.time()
    worst = 0.0
    for index in range(500):
        state = random_haar_state(3, np.random.default_rng([3, index]))
        rho = partial_trace(state, [0, 1])
        gap = concurrence_of_assistance(rho) ** 2 - wootters_concurrence(rho) ** 2
        worst = max(worst, abs(gap - three_tangle(state, 2)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 30
    report(5, ok, f"assistance-squared identity on 500 random 3-qubit states (worst {worst:.2e})", elapsed)
    assert worst <= 1e-8
    assert elapsed < 30


def test_soundness_fuzz():
    t0 = time.time()
    violations = 0
    min_slack = np.inf
    for n in (3, 4, 5, 6):
        for index in range(1000):
            state = random_haar_state(n, np.random.default_rng([4, n, index]))
            rep = evaluate_all(state, tolerance=1e-7)
            for entry in rep.entries:
                min_slack = min(min_slack, entry.slack)
                if not entry.satisfied:
                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300
    report(6, ok, f"4000-state soundness fuzz, zero violations (min slack {min_slack:.2e})", elapsed)
    assert violations == 0
    assert elapsed < 300


def test_wclass_properties():
    t0 = time.time()
    worst_gap = 0.0
    chain_ok = True
    for n in (4, 5, 6):
        for index in range(200):
            rng = np.random.default_rng([5, n, index])
            coeffs = np.sqrt(rng.dirichlet(np.ones(n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            state = wclass_state(coeffs)
            for i in range(n):
                for j in range(i + 1, n):
                    dm = partial_trace(state, [i, j])
                    worst_gap = max(
                        worst_gap, abs(wootters_concurrence(dm) - concurrence_of_assistance(dm))
                    )
                    lower, mid, upper = wclass_bounds(state, i, j)
                    chain_ok = chain_ok and lower <= mid + 1e-7 and mid <= upper + 1e-7
    w5 = wclass_state([1 / np.sqrt(5)] * 5)
    lower, mid, upper = wclass_bounds(w5, 0, 1)
    pinned = abs(mid - 24 / 25) <= 1e-9 and abs(upper - 32 / 25) <= 1e-9
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-9 and chain_ok and pinned and elapsed < 60
    report(7, ok, f"weight-1 family: assistance equals concurrence "
                  f"(worst gap {worst_gap:.2e}), chain holds, uniform-5 values pinned", elapsed)
    assert worst_gap <= 1e-9
    assert chain_ok
    assert pinned
    assert elapsed < 60
