import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy import (
    DensityMatrix,
    PureState,
    concurrence_of_assistance,
    lambda_spectrum,
    partial_trace,
    pure_concurrence_sq,
    random_haar_state,
    spin_flip,
    state_from_basis_terms,
    three_tangle,
    wootters_concurrence,
)
from qmonogamy.concurrence import RANK_CUTOFF, _least_eigenvalues, lambda_spectra

from helpers import random_two_qubit_mixed, random_unitary

SQRT2 = np.sqrt(2)


def bell():
    return state_from_basis_terms(2, [("00", 1), ("11", 1)])


def ghz(n):
    return state_from_basis_terms(n, [("0" * n, 1), ("1" * n, 1)])


def w_state(n):
    return state_from_basis_terms(n, [("0" * i + "1" + "0" * (n - 1 - i), 1) for i in range(n)])


class TestSpinFlip:
    def test_bell_projector_invariant(self):
        rho = partial_trace(bell(), [0, 1])
        np.testing.assert_allclose(spin_flip(rho), rho.matrix, atol=1e-14)

    def test_zero_zero_maps_to_one_one(self):
        rho = partial_trace(state_from_basis_terms(2, [("00", 1)]), [0, 1])
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(spin_flip(rho), expected, atol=1e-14)

    def test_maximally_mixed_invariant(self):
        dm = DensityMatrix((0, 1), np.eye(4, dtype=complex) / 4)
        np.testing.assert_allclose(spin_flip(dm), dm.matrix, atol=1e-15)

    def test_wrong_dimension_rejected(self):
        dm = DensityMatrix((0,), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="2 qubits"):
            spin_flip(dm)


class TestConcurrencePure:
    def test_saturating_state_pair_partition(self):
        state = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
        assert math.sqrt(pure_concurrence_sq(state, [0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_state_partitions(self):
        # closed-triangle example: both single-qubit cuts give 2*sqrt(2)/3
        state = state_from_basis_terms(4, [("0000", 1), ("0010", 1), ("1110", 1)])
        assert math.sqrt(pure_concurrence_sq(state, [0, 1])) == pytest.approx(2 / 3, abs=1e-12)
        assert math.sqrt(pure_concurrence_sq(state, [0])) == pytest.approx(2 * SQRT2 / 3, abs=1e-12)
        assert math.sqrt(pure_concurrence_sq(state, [1])) == pytest.approx(2 * SQRT2 / 3, abs=1e-12)

    def test_one_bit_flip_changes_the_values(self):
        # with qubit B = 0 in every term, B decouples: its cut concurrence
        # vanishes and the A cut drops to 2/3
        state = state_from_basis_terms(4, [("0000", 1), ("0010", 1), ("1010", 1)])
        assert math.sqrt(pure_concurrence_sq(state, [0, 1])) == pytest.approx(2 / 3, abs=1e-12)
        assert math.sqrt(pure_concurrence_sq(state, [0])) == pytest.approx(2 / 3, abs=1e-12)
        assert math.sqrt(pure_concurrence_sq(state, [1])) == pytest.approx(0.0, abs=1e-9)

    def test_product_state_zero(self):
        state = state_from_basis_terms(4, [("0000", 1)])
        assert math.sqrt(pure_concurrence_sq(state, [0, 2])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("left", [[], [0, 1, 2], [3], [0, 5]])
    def test_squared_cut_needs_a_proper_subset(self, left):
        with pytest.raises(ValueError, match="proper subset"):
            pure_concurrence_sq(state_from_basis_terms(3, [("000", 1), ("111", 1)]), left)

    def test_squared_cut_rejects_duplicates_as_partial_trace_does(self):
        # [0, 0] once collapsed to {0} and gave C^2(A|BC) of GHZ3, 1.0000000000000004
        for call in (pure_concurrence_sq, partial_trace):
            with pytest.raises(ValueError, match="duplicates"):
                call(ghz(3), [0, 0])

    @given(seed=st.integers(0, 10**9), n=st.integers(2, 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_under_side_swap(self, seed, n, data):
        left = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        right = frozenset(range(n)) - left
        state = random_haar_state(n, seed)
        c1 = math.sqrt(pure_concurrence_sq(state, left))
        c2 = math.sqrt(pure_concurrence_sq(state, right))
        assert abs(c1 - c2) < 1e-10


class TestWoottersConcurrence:
    def test_bell_projector(self):
        assert wootters_concurrence(partial_trace(bell(), [0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_saturating_state_ad_marginal(self):
        state = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
        assert wootters_concurrence(partial_trace(state, [0, 3])) == pytest.approx(1.0, abs=1e-12)

    def test_w3_pair_marginal(self):
        assert wootters_concurrence(partial_trace(w_state(3), [0, 1])) == pytest.approx(2 / 3, abs=1e-12)

    def test_separable_diagonal_zero(self):
        dm = DensityMatrix((0, 1), np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
        assert wootters_concurrence(dm) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_size_rejected(self):
        dm = DensityMatrix((0,), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            wootters_concurrence(dm)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_pure_input_collapses_to_pure_concurrence(self, seed):
        state = random_haar_state(2, seed)
        rho = partial_trace(state, [0, 1])
        expected = math.sqrt(pure_concurrence_sq(state, [0]))
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-10)
        assert concurrence_of_assistance(rho) == pytest.approx(expected, abs=1e-10)


class TestConcurrenceOfAssistance:
    def test_saturating_state_marginals(self):
        state = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
        assert concurrence_of_assistance(partial_trace(state, [0, 3])) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_of_assistance(partial_trace(state, [1, 2])) == pytest.approx(0.0, abs=1e-9)
        assert concurrence_of_assistance(partial_trace(state, [1, 3])) == pytest.approx(0.0, abs=1e-9)

    def test_ghz3_pair_marginal(self):
        assert concurrence_of_assistance(partial_trace(ghz(3), [0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_ghz4_pair_marginal(self):
        assert concurrence_of_assistance(partial_trace(ghz(4), [0, 1])) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 10**9), rank=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_dominates_wootters(self, seed, rank):
        dm = random_two_qubit_mixed(np.random.default_rng(seed), rank)
        assert concurrence_of_assistance(dm) >= wootters_concurrence(dm) - 1e-10

    @given(seed=st.integers(0, 10**9), rank=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_lambda_spectrum_descending_nonnegative(self, seed, rank):
        dm = random_two_qubit_mixed(np.random.default_rng(seed), rank)
        lam = lambda_spectrum(dm)
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 1e-15)


class TestLambdaSpectra:
    def test_rank_mixed_stack_rows_equal_their_lone_spectra(self):
        rng = np.random.default_rng(16)
        haar = random_haar_state(4, rng)
        # no amplitude on |..11>: qubits 2 and 3 span three states, so pair (0, 1) has rank 3
        cut = haar.amplitudes * (np.arange(16) % 4 != 3)
        product = state_from_basis_terms(4, [("0000", 1), ("0100", 1j)])
        bell_pair = state_from_basis_terms(4, [("0000", 1), ("1100", 1)])
        marginals = [
            (partial_trace(haar, [0, 1]), 4),
            (partial_trace(product, [0, 1]), 1),
            (partial_trace(ghz(4), [1, 3]), 2),
            (partial_trace(bell_pair, [0, 1]), 1),
            (partial_trace(PureState(4, cut / np.linalg.norm(cut)), [0, 1]), 3),
            (partial_trace(w_state(4), [0, 2]), 2),
            (partial_trace(bell_pair, [0, 2]), 2),
            (partial_trace(haar, [1, 2]), 4),
        ]
        stack = np.stack([dm.matrix for dm, _ in marginals])
        w, l = lambda_spectra(stack)
        assert [int(np.count_nonzero(row > RANK_CUTOFF)) for row in w] == [rank for _, rank in marginals]
        for k, (dm, rank) in enumerate(marginals):
            alone_w, alone_l = lambda_spectra(dm.matrix)
            assert np.array_equal(w[k], alone_w) and np.array_equal(l[k], alone_l)
            assert np.all(l[k, rank:] == 0)


def random_product(n, rng):
    """A product of n Haar-random qubit states: every single-qubit marginal is pure, with off-diagonal entries."""
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(amps, qubit / np.linalg.norm(qubit))
    return PureState(n, amps)


class TestLeastEigenvalues:
    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_closed_form_equals_eigvalsh_on_single_qubit_marginals(self, n):
        # the singles' PSD floor reads this closed form: zero on pure marginals, 1/2 on GHZ ones
        rng = np.random.default_rng(50 + n)
        states = [random_haar_state(n, rng) for _ in range(3)] + [random_product(n, rng) for _ in range(3)]
        states += [ghz(n), state_from_basis_terms(n, [("0" * n, 1), ("1" * n, np.exp(0.7j))])]
        rho = np.array([[partial_trace(state, [q]).matrix for q in range(n)] for state in states])
        np.testing.assert_allclose(_least_eigenvalues(rho), np.linalg.eigvalsh(rho)[..., 0], rtol=0, atol=1e-15)


class TestThreeTangle:
    def test_ghz_focus_any(self):
        for focus in range(3):
            assert three_tangle(ghz(3), focus) == pytest.approx(1.0, abs=1e-10)

    def test_w_state_zero(self):
        # 8/9 - 4/9 - 4/9
        assert pure_concurrence_sq(w_state(3), [0]) == pytest.approx(8 / 9, abs=1e-12)
        assert three_tangle(w_state(3), 0) == pytest.approx(0.0, abs=1e-10)

    def test_product_state_zero(self):
        assert three_tangle(state_from_basis_terms(3, [("000", 1)]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(ValueError, match="3 qubits"):
            three_tangle(ghz(4), 0)

    def test_bad_focus_rejected(self):
        with pytest.raises(ValueError, match="focus"):
            three_tangle(ghz(3), 3)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_focus_permutation_invariant(self, seed):
        state = random_haar_state(3, seed)
        values = [three_tangle(state, focus) for focus in range(3)]
        assert max(values) - min(values) < 1e-9

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_for_qubits(self, seed):
        assert three_tangle(random_haar_state(3, seed), 0) >= -1e-8

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_assistance_identity(self, seed):
        # Ca^2(AB) - C^2(AB) equals the residual tangle with focus on the third qubit
        state = random_haar_state(3, seed)
        rho = partial_trace(state, [0, 1])
        gap = concurrence_of_assistance(rho) ** 2 - wootters_concurrence(rho) ** 2
        assert gap == pytest.approx(three_tangle(state, 2), abs=1e-8)


class TestMonogamyProperties:
    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_dual_assistance_bound(self, seed, n):
        state = random_haar_state(n, seed)
        lhs = pure_concurrence_sq(state, [0])
        rhs = sum(concurrence_of_assistance(partial_trace(state, [0, q])) ** 2 for q in range(1, n))
        assert lhs <= rhs + 1e-8

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_squared_concurrence_distributes(self, seed, n):
        state = random_haar_state(n, seed)
        lhs = sum(wootters_concurrence(partial_trace(state, [0, q])) ** 2 for q in range(1, n))
        assert lhs <= pure_concurrence_sq(state, [0]) + 1e-8


def random_single_qubit_unitaries(n, rng):
    return functools.reduce(np.kron, (random_unitary(rng, 2) for _ in range(n)), np.eye(1))


class TestLocalUnitaryInvariance:
    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_all_measures_invariant(self, seed):
        rng = np.random.default_rng(seed)
        state = random_haar_state(3, rng)
        u = random_single_qubit_unitaries(3, rng)
        from qmonogamy import PureState

        rotated = PureState(3, u @ state.amplitudes)
        pairs = [(0, 1), (0, 2), (1, 2)]
        for i, j in pairs:
            a, b = partial_trace(state, [i, j]), partial_trace(rotated, [i, j])
            assert abs(wootters_concurrence(a) - wootters_concurrence(b)) < 1e-9
            assert abs(concurrence_of_assistance(a) - concurrence_of_assistance(b)) < 1e-9
        assert abs(math.sqrt(pure_concurrence_sq(state, [0])) - math.sqrt(pure_concurrence_sq(rotated, [0]))) < 1e-9
        assert abs(three_tangle(state, 0) - three_tangle(rotated, 0)) < 1e-9
