import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy import (
    DensityMatrix,
    Partition,
    PureState,
    StateError,
    concurrence_pure,
    convex_roof_optimize,
    lambda_spectrum,
    linear_entropy,
    partial_trace,
    pure_concurrence_sq,
    random_haar_state,
    spin_flip,
    state_from_basis_terms,
    three_tangle,
    wclass_bounds,
)
from qmonogamy.states import _admit

INV_SQRT2 = 1 / np.sqrt(2)


def noisy_rank3_mixture():
    """A rank-3 two-qubit mixture plus upper-triangular noise of 3e-13: Hermitian within tolerance only."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    noise = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
    return x @ x.conj().T / np.vdot(x, x).real + 3e-13 * noise / np.abs(noise).max()


HAAR3 = random_haar_state(3, 1)
W3 = state_from_basis_terms(3, [("100", 1), ("010", 2), ("001", 3)])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: partial_trace(HAAR3, [1.9]), id="partial_trace-float"),
    pytest.param(lambda: partial_trace(HAAR3, [True, 2]), id="partial_trace-bool"),
    pytest.param(lambda: Partition(frozenset({0.5}), frozenset({1, 2})), id="Partition-float"),
    pytest.param(lambda: DensityMatrix((0.7,), np.eye(2) / 2), id="DensityMatrix-float"),
    pytest.param(lambda: pure_concurrence_sq(HAAR3, [True]), id="pure_concurrence_sq-bool"),
    pytest.param(lambda: wclass_bounds(W3, True, 2), id="wclass_bounds-bool"),
    pytest.param(lambda: wclass_bounds(W3, 0.5, 1), id="wclass_bounds-float"),
    pytest.param(lambda: three_tangle(HAAR3, True), id="three_tangle-bool"),
    pytest.param(lambda: three_tangle(HAAR3, 1.0), id="three_tangle-float"),
    pytest.param(lambda: partial_trace(HAAR3, [np.True_]), id="partial_trace-numpy-bool"),
])
def test_non_integer_qubit_index_rejected(call):
    # a float or a boolean is no qubit index, even if it compares equal to one
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integer_qubit_indices_accepted():
    assert partial_trace(HAAR3, [np.int64(2), np.uint8(0)]).qubit_labels == (0, 2)
    assert Partition(frozenset({np.intp(0)}), frozenset({1, 2})).left == frozenset({0})
    assert three_tangle(HAAR3, np.int32(1)) == pytest.approx(three_tangle(HAAR3, 1), abs=1e-12)
    assert wclass_bounds(W3, np.int64(0), np.int64(2)) == wclass_bounds(W3, 0, 2)
    assert pure_concurrence_sq(HAAR3, [np.int16(1)]) == pure_concurrence_sq(HAAR3, [1])


def _mixed(labels):
    return DensityMatrix(labels, np.eye(2 ** len(labels)) / 2 ** len(labels))


RHO3 = partial_trace(HAAR3, [0, 1, 2])  # a DensityMatrix: its labels are the qubits partial_trace may keep
# Each entry point that takes qubit indices, called on 3 qubits: a call taking its qubit arguments, and those
# arguments valid and then with one index a float, a bool, none at all, a duplicate, negative or beyond the 3
# qubits.  A focus is one index and a pair two, so no index or a duplicate reaches them as a list in place of one.
# A DensityMatrix knows no system beyond its labels, so the universe it gives is judged by partial_trace.
QUBIT_ARGUMENTS = {
    "partial_trace": (lambda keep: partial_trace(HAAR3, keep).matrix.tolist(),
                      [([0, 2],), ([1.0, 2],), ([True, 2],), ([],), ([0, 0],), ([-1, 2],), ([0, 3],)]),
    "partial_trace-DensityMatrix": (lambda keep: partial_trace(RHO3, keep).matrix.tolist(),
                                    [([0, 2],), ([1.0, 2],), ([True, 2],), ([],), ([0, 0],), ([-1, 2],), ([0, 3],)]),
    "DensityMatrix": (lambda labels: _mixed(labels).qubit_labels,
                      [((0, 2),), ((1.0, 2),), ((True, 2),), ((),), ((0, 0),), ((-1, 2),), None]),
    "Partition": (lambda left: concurrence_pure(HAAR3, Partition(left, [q for q in range(3) if q not in left])),
                  [([0, 2],), ([1.0, 2],), ([True, 2],), ([],), ([0, 0],), ([-1, 2],), ([0, 3],)]),
    "pure_concurrence_sq": (lambda left: pure_concurrence_sq(HAAR3, left),
                            [([0, 2],), ([1.0, 2],), ([True, 2],), ([],), ([0, 0],), ([-1, 2],), ([0, 3],)]),
    "three_tangle": (lambda focus: three_tangle(HAAR3, focus),
                     [(1,), (1.0,), (True,), ([],), ([1, 1],), (-1,), (3,)]),
    "wclass_bounds": (lambda i, j: wclass_bounds(W3, i, j),
                      [(0, 2), (1.0, 2), (True, 2), ([], []), (2, 2), (-1, 2), (0, 3)]),
}
BAD_QUBITS = ["float", "bool", "none", "duplicate", "negative", "beyond"]


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry, (_, arguments) in QUBIT_ARGUMENTS.items()
    for bad, args in zip(BAD_QUBITS, arguments[1:]) if args is not None
])
def test_qubit_sets_judged_by_one_rule(entry, bad):
    call, arguments = QUBIT_ARGUMENTS[entry]
    with pytest.raises(ValueError) as err:
        call(*arguments[1 + BAD_QUBITS.index(bad)])
    assert not isinstance(err.value, StateError)  # a qubit set is an argument, not a state: no code


@pytest.mark.parametrize("entry", QUBIT_ARGUMENTS)
def test_qubit_sets_equal_for_numpy_and_python_integers(entry):
    call, (valid, *_) = QUBIT_ARGUMENTS[entry]
    numpy_ints = tuple(type(arg)(map(np.int64, arg)) if isinstance(arg, (list, tuple)) else np.uint8(arg)
                       for arg in valid)
    assert call(*numpy_ints) == call(*valid)


class TestStateFromBasisTerms:
    def test_two_term_superposition(self):
        state = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[9] = INV_SQRT2
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_single_basis_state(self):
        state = state_from_basis_terms(1, [("0", 1)])
        np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-15)

    def test_bell_state(self):
        state = state_from_basis_terms(2, [("00", 1), ("11", 1)])
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bit string"):
            state_from_basis_terms(3, [("00", 1)])

    def test_non_binary_label_rejected(self):
        with pytest.raises(ValueError, match="bit string"):
            state_from_basis_terms(2, [("02", 1)])

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            state_from_basis_terms(2, [("00", 1), ("00", -1)])

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            state_from_basis_terms(2, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            state_from_basis_terms(2, [("00", 1), ("11", bad)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_coded_without_warning(self, bad):
        # PureState judges finiteness: inf / inf in the normalization gives a NaN, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError) as err:
                state_from_basis_terms(2, [("00", 1), ("11", bad)])
        assert err.value.code == "finite"

    def test_repeated_labels_accumulate(self):
        state = state_from_basis_terms(1, [("0", 1), ("0", 1), ("1", 2)])
        np.testing.assert_allclose(np.abs(state.amplitudes), [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


class TestPureStateInvariants:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState(1, np.array([1.0, bad]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            PureState(2, np.array([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array([0.5, 0.0]))

    def test_qubit_budget_enforced(self):
        with pytest.raises(ValueError):
            state_from_basis_terms(13, [("0" * 13, 1)])

    @pytest.mark.parametrize("n", [0, 13])
    def test_qubit_count_out_of_range_rejected(self, n):
        with pytest.raises(ValueError, match="n_qubits must be in"):
            PureState(n, np.ones(1))

    @pytest.mark.parametrize("n", [2.0, True, np.bool_(True), np.float64(1.0)])
    def test_non_integer_qubit_count_rejected(self, n):
        # a float or a boolean is no count, even if it compares equal to one
        with pytest.raises(ValueError, match="must be an integer"):
            PureState(n, np.eye(4)[0] if n == 2 else [1.0, 0.0])
        with pytest.raises(ValueError, match="must be an integer"):
            random_haar_state(n, 0)
        with pytest.raises(ValueError, match="must be an integer"):
            state_from_basis_terms(n, [("0" * int(n), 1)])

    @pytest.mark.parametrize("n", [np.int64(2), np.uint8(2), np.intp(2)])
    def test_numpy_integer_qubit_count_stored_as_int(self, n):
        for state in (PureState(n, np.eye(4)[0]), random_haar_state(n, 0),
                      state_from_basis_terms(n, [("01", 1)])):
            assert type(state.n_qubits) is int and state.n_qubits == 2

    def test_amplitudes_read_only(self):
        state = state_from_basis_terms(1, [("0", 1)])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_callers_array_stays_writeable(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        state = PureState(1, amps)
        amps[1] = 0.5
        assert state.amplitudes.tolist() == [1.0, 0.0]


class TestDensityMatrixInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix((0,), np.diag([1.0, np.nan]).astype(complex))

    @pytest.mark.parametrize("labels", [(), (0, 0)])
    def test_empty_or_duplicate_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            DensityMatrix(labels, np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("labels", [(-3, 7), (-1,)])
    def test_negative_labels_rejected(self, labels):
        # labels name qubits of the original system, as Partition's indices do
        with pytest.raises(ValueError, match="qubit labels must be non-negative"):
            DensityMatrix(labels, np.eye(2 ** len(labels), dtype=complex) / 2 ** len(labels))

    @pytest.mark.parametrize("labels", [(1, 0), (0, 2, 1)])
    def test_unsorted_labels_rejected(self, labels):
        # partial_trace reads rows in label order: (1, 0) kept as given would swap the qubits
        with pytest.raises(ValueError, match="qubit labels must be in ascending order"):
            DensityMatrix(labels, np.eye(2 ** len(labels), dtype=complex) / 2 ** len(labels))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            DensityMatrix((0, 1), np.eye(2, dtype=complex) / 2)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((0,), m)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((0,), np.eye(2, dtype=complex))

    def test_imaginary_trace_rejected_before_the_hermitian_part(self):
        # Hermitian within HERMITICITY_ATOL, but |Im tr| = 1.6e-12; the Hermitian part has Im tr = 0
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((0, 1), np.eye(4) / 4 + np.diag([4e-13j] * 4))

    def test_matrix_is_stored_as_its_hermitian_part(self):
        dm = DensityMatrix((0, 1), noisy_rank3_mixture())
        assert np.array_equal(dm.matrix, dm.matrix.conj().T)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix((0,), m)

    def test_noise_floor_tolerated(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        dm = DensityMatrix((0,), m)
        assert dm.n_qubits == 1

    def test_callers_array_stays_writeable(self):
        m = np.diag([0.75, 0.25]).astype(complex)
        dm = DensityMatrix((0,), m)
        m[0, 1] = 0.5
        assert dm.matrix.tolist() == [[0.75, 0.0], [0.0, 0.25]]
        with pytest.raises(ValueError):
            dm.matrix[0, 1] = 0.5


def test_readers_of_a_noisy_matrix_see_the_admitted_one():
    m = noisy_rank3_mixture()
    dm, clean = DensityMatrix((0, 1), m), DensityMatrix((0, 1), (m + m.conj().T) / 2)
    assert lambda_spectrum(dm).tobytes() == lambda_spectrum(clean).tobytes()
    assert spin_flip(dm).tobytes() == spin_flip(clean).tobytes()
    assert linear_entropy(dm) == linear_entropy(clean)
    for mode in ("minimize", "maximize"):
        results = [convex_roof_optimize(d, mode, seed=1) for d in (dm, clean)]
        (value, ensemble), (value_clean, ensemble_clean) = results
        assert value == value_clean and ensemble.sweeps == ensemble_clean.sweeps
        members = [(p, psi.amplitudes.tobytes()) for p, psi in ensemble.members]
        assert members == [(p, psi.amplitudes.tobytes()) for p, psi in ensemble_clean.members]


@pytest.mark.parametrize("layout", [lambda a: a.swapaxes(0, 1), np.asfortranarray], ids=["swapped", "fortran"])
@pytest.mark.parametrize("off", [0.0, 1e-9, 4e-13j])
def test_admission_reads_a_stack_of_any_layout(layout, off):
    # a (2, 3, 4, 4) stack whose batch axes are not C-ordered, as a matmul may return one, meets the trace rule
    # as its C-ordered copy does (off = 4e-13j puts Im tr at 1.6e-12); the copy's message reads the larger of
    # |Re tr - 1| and |Im tr|
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    rho = x @ x.conj().swapaxes(-1, -2)
    stack = layout(rho / rho.trace(axis1=-2, axis2=-1)[..., None, None] + off * np.eye(4))
    copy = np.ascontiguousarray(stack)
    if not off:
        np.testing.assert_array_equal(_admit(stack), _admit(copy))
        return
    with pytest.raises(ValueError, match="^trace deviates from 1 by .*, beyond tolerance$"):
        _admit(stack)
    tr = copy.trace(axis1=-2, axis2=-1) - 1.0
    largest = max(np.abs(tr.real).max(), np.abs(tr.imag).max())
    with pytest.raises(ValueError, match=f"^trace deviates from 1 by {largest}, beyond tolerance$"):
        _admit(copy)


class TestPartition:
    def test_disjoint_required(self):
        with pytest.raises(ValueError, match="overlap"):
            Partition(frozenset({0, 1}), frozenset({1, 2}))

    def test_non_empty_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            Partition(frozenset(), frozenset({0}))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Partition(frozenset({-1}), frozenset({0}))


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        bell = state_from_basis_terms(2, [("00", 1), ("11", 1)])
        rho = partial_trace(bell, [0])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)

    def test_product_state_marginal(self):
        state = state_from_basis_terms(2, [("01", 1)])
        rho = partial_trace(state, [0])
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_three_qubit_marginal_of_saturating_state(self):
        state = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
        rho = partial_trace(state, [1, 2, 3])
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = expected[1, 1] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)
        assert rho.qubit_labels == (1, 2, 3)

    def test_empty_keep_rejected(self):
        bell = state_from_basis_terms(2, [("00", 1), ("11", 1)])
        with pytest.raises(ValueError, match="non-empty"):
            partial_trace(bell, [])

    def test_unknown_index_rejected(self):
        bell = state_from_basis_terms(2, [("00", 1), ("11", 1)])
        with pytest.raises(ValueError, match="unknown"):
            partial_trace(bell, [5])

    def test_duplicate_keep_rejected(self):
        bell = state_from_basis_terms(2, [("00", 1), ("11", 1)])
        with pytest.raises(ValueError, match="duplicates"):
            partial_trace(bell, [0, 0])

    def test_unknown_label_on_density_matrix_rejected(self):
        ghz = state_from_basis_terms(3, [("000", 1), ("111", 1)])
        with pytest.raises(ValueError, match="unknown"):
            partial_trace(partial_trace(ghz, [0, 2]), [1])

    def test_wrong_input_type_rejected(self):
        with pytest.raises(TypeError, match="expected PureState or DensityMatrix, got ndarray"):
            partial_trace(np.eye(2) / 2, [0])

    def test_density_matrix_input(self):
        ghz = state_from_basis_terms(3, [("000", 1), ("111", 1)])
        rho3 = partial_trace(ghz, [0, 1, 2])
        via_dm = partial_trace(rho3, [0, 1])
        via_state = partial_trace(ghz, [0, 1])
        np.testing.assert_allclose(via_dm.matrix, via_state.matrix, atol=1e-13)

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_staged_equals_single_stage(self, seed, n, data):
        keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        extra = data.draw(st.sets(st.integers(0, n - 1)))
        mid = sorted(set(keep) | extra)
        state = random_haar_state(n, seed)
        staged = partial_trace(partial_trace(state, mid), keep)
        direct = partial_trace(state, keep)
        np.testing.assert_allclose(staged.matrix, direct.matrix, atol=1e-12)

    @given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_marginal_trace_is_one(self, seed, n):
        state = random_haar_state(n, seed)
        for q in range(n):
            rho = partial_trace(state, [q])
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


class TestLinearEntropy:
    def test_pure_projector_zero(self):
        state = state_from_basis_terms(2, [("01", 1)])
        rho = partial_trace(state, [0, 1])
        assert linear_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        dm = DensityMatrix((0,), np.eye(2, dtype=complex) / 2)
        assert linear_entropy(dm) == pytest.approx(0.5, abs=1e-15)

    def test_maximally_mixed_two_qubits(self):
        dm = DensityMatrix((0, 1), np.eye(4, dtype=complex) / 4)
        assert linear_entropy(dm) == pytest.approx(0.75, abs=1e-15)

    @given(seed=st.integers(0, 10**9), n=st.integers(2, 6), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_complementary_marginals_equal(self, seed, n, data):
        left = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        right = [q for q in range(n) if q not in left]
        state = random_haar_state(n, seed)
        t_left = linear_entropy(partial_trace(state, left))
        t_right = linear_entropy(partial_trace(state, right))
        assert abs(t_left - t_right) < 1e-10

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_two_qubit_triangle(self, seed, n, data):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda x: x != i))
        state = random_haar_state(n, seed)
        t_i = linear_entropy(partial_trace(state, [i]))
        t_j = linear_entropy(partial_trace(state, [j]))
        t_ij = linear_entropy(partial_trace(state, [i, j]))
        assert t_ij >= abs(t_i - t_j) - 1e-9
        assert t_ij <= t_i + t_j + 1e-9


class TestRandomHaarState:
    def test_deterministic_for_fixed_seed(self):
        a = random_haar_state(3, 424242)
        b = random_haar_state(3, 424242)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_unit_norm(self):
        state = random_haar_state(1, 7)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            random_haar_state(0, 1)
        with pytest.raises(ValueError):
            random_haar_state(13, 1)

    def test_mean_marginal_purity_two_qubits(self):
        # mean Tr(rho_A^2) over the invariant measure at n = 2 is
        # (d_A + d_B) / (d_A d_B + 1) = 4/5; pinned by a 10^6-sample run
        rng = np.random.default_rng(2718)
        total = 0.0
        samples = 10_000
        for _ in range(samples):
            state = random_haar_state(2, rng)
            rho = partial_trace(state, [0])
            total += 1.0 - linear_entropy(rho)
        assert total / samples == pytest.approx(0.8, abs=0.01)
