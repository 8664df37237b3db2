import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy import (
    MAX_QUBITS,
    PureState,
    concurrence_chain,
    concurrence_of_assistance,
    evaluate_all,
    lambda_spectrum,
    linear_entropy,
    partial_trace,
    pure_concurrence_sq,
    random_haar_state,
    state_from_basis_terms,
    triangle_vectors,
    wclass_bounds,
    wclass_state,
    wootters_concurrence,
)
import qmonogamy.concurrence
from qmonogamy.concurrence import MarginalTable, _assistance, _block_index, _factor_spectra, _wootters
from qmonogamy.monogamy import _entries, _weight1, role_name

from helpers import amplitude_block, pair_sq, random_unitary, sparse_state, stacked


def random_wclass_state(n, seed):
    rng = np.random.default_rng(seed)
    return wclass_state(np.sqrt(rng.dirichlet(np.ones(n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))

SAT4 = state_from_basis_terms(4, [("0000", 1), ("1001", 1)])
TRIANGLE4 = state_from_basis_terms(4, [("0000", 1), ("0010", 1), ("1110", 1)])
ZEROS6 = state_from_basis_terms(6, [("000000", 1)])
BELL_AB_X00 = state_from_basis_terms(4, [("0000", 1), ("1100", 1)])
EX_BELL_A_C1 = state_from_basis_terms(6, [("000000", 1), ("101000", 1)])
EX_BELL_C1_C2 = state_from_basis_terms(6, [("000000", 1), ("001100", 1)])
GHZ4 = state_from_basis_terms(4, [("0000", 1), ("1111", 1)])
W4 = state_from_basis_terms(4, [("1000", 1), ("0100", 1), ("0010", 1), ("0001", 1)])
W6 = state_from_basis_terms(6, [("0" * i + "1" + "0" * (5 - i), 1) for i in range(6)])


class TestAbRestBounds:
    def test_saturating_state(self):
        report = evaluate_all(SAT4)
        assert report.entry("ab_rest_lower").lhs == pytest.approx(1.0, abs=1e-12)
        assert report.entry("ab_rest_upper").rhs == pytest.approx(1.0, abs=1e-12)
        assert pure_concurrence_sq(SAT4, [0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_zero(self):
        report = evaluate_all(ZEROS6)
        assert report.entry("ab_rest_lower").lhs == pytest.approx(0.0, abs=1e-12)
        assert report.entry("ab_rest_upper").rhs == pytest.approx(0.0, abs=1e-12)

    def test_ghz4_raw_lower(self):
        # every pair marginal has concurrence 0 and assistance 1, so both
        # difference sums are -2; the raw bound stays negative
        report = evaluate_all(GHZ4)
        assert report.entry("ab_rest_lower").lhs == pytest.approx(-2.0, abs=1e-12)
        assert report.entry("ab_rest_upper").rhs == pytest.approx(6.0, abs=1e-12)

    def test_w4_upper(self):
        # each pair assistance is 1/2: 2/4 + 2*(1/4 + 1/4) = 3/2
        assert evaluate_all(W4).entry("ab_rest_upper").rhs == pytest.approx(1.5, abs=1e-12)

    def test_too_few_qubits_rejected(self):
        bell = state_from_basis_terms(2, [("00", 1), ("11", 1)])
        with pytest.raises(ValueError, match="at least 3"):
            evaluate_all(bell)

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_bracket_the_midpoint(self, seed, n):
        state = random_haar_state(n, seed)
        mid = pure_concurrence_sq(state, [0, 1])
        report = evaluate_all(state)
        assert report.entry("ab_rest_lower").lhs <= mid + 1e-7
        assert report.entry("ab_rest_upper").rhs >= mid - 1e-7


class TestConcurrenceChain:
    def test_triangle_state(self):
        lower, mid, upper = concurrence_chain(TRIANGLE4)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert mid == pytest.approx(4 / 9, abs=1e-12)
        assert upper == pytest.approx(16 / 9, abs=1e-12)

    def test_product_state(self):
        assert concurrence_chain(ZEROS6) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_bell_pair_inside_ab(self):
        lower, mid, upper = concurrence_chain(BELL_AB_X00)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert mid == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(2.0, abs=1e-12)

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_ordered(self, seed, n):
        lower, mid, upper = concurrence_chain(random_haar_state(n, seed))
        assert lower <= mid + 1e-7
        assert mid <= upper + 1e-7


class TestTriangleVectors:
    def test_worked_example(self):
        tri = triangle_vectors(TRIANGLE4)
        np.testing.assert_allclose(tri.a_vec, (2 / 9, 2 * np.sqrt(15) / 9), atol=1e-12)
        np.testing.assert_allclose(tri.b_vec, (2 / 9, -2 * np.sqrt(15) / 9), atol=1e-12)
        np.testing.assert_allclose(tri.c_vec, (4 / 9, 0.0), atol=1e-12)

    def test_product_state_all_zero(self):
        tri = triangle_vectors(ZEROS6)
        assert tri.a_vec == (0.0, 0.0)
        assert tri.b_vec == (0.0, 0.0)
        assert tri.c_vec == (0.0, 0.0)

    def test_degenerate_antiparallel(self):
        tri = triangle_vectors(BELL_AB_X00)
        np.testing.assert_allclose(tri.a_vec, (1.0, 0.0), atol=1e-12)
        np.testing.assert_allclose(tri.b_vec, (-1.0, 0.0), atol=1e-12)
        np.testing.assert_allclose(tri.c_vec, (0.0, 0.0), atol=1e-12)

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6))
    @settings(max_examples=50, deadline=None)
    def test_lengths_and_closure(self, seed, n):
        state = random_haar_state(n, seed)
        a = pure_concurrence_sq(state, [0])
        b = pure_concurrence_sq(state, [1])
        c = pure_concurrence_sq(state, [0, 1])
        tri = triangle_vectors(state)
        assert np.hypot(*tri.a_vec) == pytest.approx(a, abs=1e-9)
        assert np.hypot(*tri.b_vec) == pytest.approx(b, abs=1e-9)
        assert np.hypot(*tri.c_vec) == pytest.approx(c, abs=1e-9)
        # closure is exact by construction
        assert tri.a_vec[0] + tri.b_vec[0] == tri.c_vec[0]
        assert tri.a_vec[1] + tri.b_vec[1] == tri.c_vec[1]


class TestAbcRestBounds:
    def test_bell_a_c1_values(self):
        # the A-C1 ebit makes the pair-gap sum and C1's assistance total
        # cancel exactly; the true squared concurrence across ABC1|rest is 0
        report = evaluate_all(EX_BELL_A_C1)
        assert report.entry("abc_rest_lower_diff").lhs == pytest.approx(0.0, abs=1e-12)
        assert report.entry("abc_rest_lower_hub").lhs == pytest.approx(0.0, abs=1e-12)
        assert report.entry("abc_rest_upper").rhs == pytest.approx(2.0, abs=1e-12)
        assert pure_concurrence_sq(EX_BELL_A_C1, [0, 1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_bell_a_c1_hand_substitution(self):
        # independent route: substitute the closed-form pair values directly
        c_ac1 = wootters_concurrence(partial_trace(EX_BELL_A_C1, [0, 2]))
        ca_ac1 = concurrence_of_assistance(partial_trace(EX_BELL_A_C1, [0, 2]))
        assert c_ac1 == pytest.approx(1.0, abs=1e-12)
        assert ca_ac1 == pytest.approx(1.0, abs=1e-12)
        # max{C^2(AC1) - 0, 0 - Ca^2(AC1)} - Ca^2(C1A) = 1 - 1
        assert evaluate_all(EX_BELL_A_C1).entry("abc_rest_lower_diff").lhs == pytest.approx(
            c_ac1**2 - ca_ac1**2, abs=1e-12
        )

    def test_bell_c1_c2_values(self):
        report = evaluate_all(EX_BELL_C1_C2)
        assert report.entry("abc_rest_lower_diff").lhs == pytest.approx(-1.0, abs=1e-12)
        assert report.entry("abc_rest_lower_diff_clamped").lhs == pytest.approx(0.0, abs=1e-12)
        assert report.entry("abc_rest_lower_hub").lhs == pytest.approx(1.0, abs=1e-12)
        assert report.entry("abc_rest_upper").rhs == pytest.approx(1.0, abs=1e-12)
        assert pure_concurrence_sq(EX_BELL_C1_C2, [0, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_zero(self):
        report = evaluate_all(ZEROS6)
        assert report.entry("abc_rest_lower_diff").lhs == pytest.approx(0.0, abs=1e-12)
        assert report.entry("abc_rest_lower_hub").lhs == pytest.approx(0.0, abs=1e-12)
        assert report.entry("abc_rest_upper").rhs == pytest.approx(0.0, abs=1e-12)

    def test_w6_upper(self):
        # 15 pair assistances of 1/3 each: 2/9 + 8/9 + 5/9
        assert evaluate_all(W6).entry("abc_rest_upper").rhs == pytest.approx(15 / 9, abs=1e-12)

    @given(seed=st.integers(0, 10**9), n=st.integers(4, 6))
    @settings(max_examples=40, deadline=None)
    def test_bracket_the_midpoint(self, seed, n):
        state = random_haar_state(n, seed)
        mid = pure_concurrence_sq(state, [0, 1, 2])
        report = evaluate_all(state)
        assert report.entry("abc_rest_lower_diff").lhs <= mid + 1e-7
        assert report.entry("abc_rest_lower_hub").lhs <= mid + 1e-7
        assert report.entry("abc_rest_upper").rhs >= mid - 1e-7


class TestWclassStates:
    def test_uniform_w3(self):
        state = wclass_state([1 / np.sqrt(3)] * 3)
        expected = np.zeros(8, dtype=complex)
        expected[4] = expected[2] = expected[1] = 1 / np.sqrt(3)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_single_coefficient_product_state(self):
        state = wclass_state([1, 0, 0])
        assert state.amplitudes[4] == pytest.approx(1.0)
        assert _weight1(state.amplitudes[None])[0]

    def test_uniform_w5_amplitudes(self):
        state = wclass_state([1 / np.sqrt(5)] * 5)
        weight1 = sorted(1 << k for k in range(5))
        np.testing.assert_allclose(state.amplitudes[weight1], [1 / np.sqrt(5)] * 5, atol=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="deviates from 1 by more than 1e-6") as err:
            wclass_state([1, 1, 0])
        assert err.value.code == "normalization"

    def test_too_few_rejected(self):
        # a 2-coefficient state is a valid PureState: the bounds on it raise their qubit-count error
        state = wclass_state([1, 0])
        assert state.amplitudes.tolist() == [0, 0, 1, 0]
        with pytest.raises(ValueError, match="at least 3") as err:
            wclass_bounds(state, 0, 1)
        assert err.value.code == "qubits"

    def test_too_many_rejected(self):
        with pytest.raises(ValueError, match=rf"must be in \[1, {MAX_QUBITS}\], got {MAX_QUBITS + 1}") as err:
            wclass_state([1] + [0] * MAX_QUBITS)
        assert err.value.code == "qubits"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            wclass_state([bad, 0, 0])

    def test_norm_judged_as_pure_state_judges_it(self):
        # total weight 1e-8 off is accepted and renormalized as PureState renormalizes; 1e-5 off is rejected
        weights = np.array([0.5, 0.3, 0.2])
        for off in (1e-8, -1e-8):
            coeffs = np.sqrt(weights * (1 + off))
            amps = np.zeros(8, dtype=complex)
            amps[[4, 2, 1]] = coeffs
            state = wclass_state(coeffs)
            assert state.amplitudes.tobytes() == PureState(3, amps).amplitudes.tobytes()
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15
        for off in (1e-5, -1e-5):
            with pytest.raises(ValueError) as err:
                wclass_state(np.sqrt(weights * (1 + off)))
            assert err.value.code == "normalization"

    def test_non_wclass_input_rejected_by_bounds(self):
        with pytest.raises(ValueError, match="weight-1"):
            wclass_bounds(GHZ4, 0, 1)

    def test_two_qubit_state_rejected_by_qubit_count(self):
        # (|01> + |10>)/sqrt(2) is weight-1 supported, but the AB|rest bounds need a rest
        bell = state_from_basis_terms(2, [("01", 1), ("10", 1)])
        assert _weight1(bell.amplitudes[None])[0]
        with pytest.raises(ValueError, match="at least 3") as err:
            wclass_bounds(bell, 0, 1)
        assert err.value.code == "qubits"

    def test_bad_pair_rejected(self):
        w5 = wclass_state([1 / np.sqrt(5)] * 5)
        with pytest.raises(ValueError):
            wclass_bounds(w5, 2, 1)


class TestWclassBounds:
    def test_uniform_w5_pair_12(self):
        w5 = wclass_state([1 / np.sqrt(5)] * 5)
        lower, mid, upper = wclass_bounds(w5, 0, 1)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert mid == pytest.approx(24 / 25, abs=1e-12)
        assert upper == pytest.approx(32 / 25, abs=1e-12)

    def test_product_coefficients_all_zero(self):
        state = wclass_state([1, 0, 0])
        lower, mid, upper = wclass_bounds(state, 0, 1)
        assert (lower, mid, upper) == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)

    def test_uniform_symmetry_zero_lower(self):
        w5 = wclass_state([1 / np.sqrt(5)] * 5)
        for i in range(5):
            for j in range(i + 1, 5):
                assert wclass_bounds(w5, i, j)[0] == pytest.approx(0.0, abs=1e-12)

    @given(seed=st.integers(0, 10**9), n=st.integers(4, 6))
    @settings(max_examples=30, deadline=None)
    def test_random_coefficients_chain_and_marginal_property(self, seed, n):
        rng = np.random.default_rng(seed)
        coeffs = np.sqrt(rng.dirichlet(np.ones(n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        state = wclass_state(coeffs)
        for i in range(n):
            for j in range(i + 1, n):
                dm = partial_trace(state, [i, j])
                assert wootters_concurrence(dm) == pytest.approx(
                    concurrence_of_assistance(dm), abs=1e-9
                )
                lower, mid, upper = wclass_bounds(state, i, j)
                assert lower <= mid + 1e-7
                assert mid <= upper + 1e-7


class TestEvaluateAll:
    def test_saturating_state_slacks(self):
        report = evaluate_all(SAT4, state_id="sat4")
        assert report.all_satisfied()
        assert report.entry("ab_rest_lower").slack == pytest.approx(0.0, abs=1e-9)
        assert report.entry("ab_rest_upper").slack == pytest.approx(0.0, abs=1e-9)

    def test_product_state_all_zero_entries(self):
        report = evaluate_all(state_from_basis_terms(4, [("0000", 1)]))
        assert report.all_satisfied()
        for entry in report.entries:
            assert entry.lhs == pytest.approx(0.0, abs=1e-12)
            assert entry.rhs == pytest.approx(0.0, abs=1e-12)

    def test_three_qubit_report_has_no_abc_entries(self):
        report = evaluate_all(random_haar_state(3, 5))
        names = {e.inequality for e in report.entries}
        assert "ab_rest_lower" in names
        assert not any(name.startswith("abc_rest") for name in names)

    def test_wclass_entries_present_iff_weight1(self):
        w5 = wclass_state([1 / np.sqrt(5)] * 5)
        names = {e.inequality for e in evaluate_all(w5).entries}
        assert {"wclass_lower", "wclass_upper"} <= names
        names = {e.inequality for e in evaluate_all(SAT4).entries}
        assert not any(name.startswith("wclass") for name in names)

    def test_components_cover_all_pairs(self):
        report = evaluate_all(random_haar_state(5, 17))
        assert len(report.components) == 10
        assert "A-B" in report.components
        assert "C1-C3" in report.components
        for data in report.components.values():
            assert set(data) == {"concurrence_sq", "assistance_sq"}
            assert data["assistance_sq"] >= data["concurrence_sq"] - 1e-10

    def test_seeded_random_state_satisfied(self):
        report = evaluate_all(random_haar_state(5, 12345))
        assert report.all_satisfied()

    def test_report_dict_schema(self):
        report = evaluate_all(SAT4, state_id="sat4")
        doc = dataclasses.asdict(report)
        assert doc["state_id"] == "sat4"
        assert doc["n_qubits"] == 4
        entry = doc["entries"][0]
        assert set(entry) == {"inequality", "lhs", "rhs", "slack", "satisfied"}

    def test_unknown_entry_raises_key_error(self):
        with pytest.raises(KeyError, match="no_such_bound"):
            evaluate_all(SAT4).entry("no_such_bound")

    def test_bad_tolerance_rejected(self):
        # a bool or a string is no tolerance, even where it compares or converts like one
        for tolerance in (True, "1e-7", 0, 0.0, -1, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                evaluate_all(SAT4, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [1e-7, 1, np.float32(1e-3), np.int64(2)])
    def test_real_tolerance_kept_as_given(self, tolerance):
        assert evaluate_all(SAT4, tolerance=tolerance).tolerance is tolerance

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_random_states_always_satisfied(self, seed, n):
        report = evaluate_all(random_haar_state(n, seed))
        assert report.all_satisfied()


class TestMarginalTable:
    @pytest.mark.parametrize("kind", ["haar", "wclass"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_evaluate_all_traces_each_marginal_and_spectrum_once(self, n, kind, table_work):
        state = random_haar_state(n, 7) if kind == "haar" else random_wclass_state(n, 7)
        report = evaluate_all(state)
        assert report.all_satisfied()
        assert ("wclass_upper" in {e.inequality for e in report.entries}) == (kind == "wclass")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert table_work.fills == [1]
        # one lambda kernel call, holding each pair's factor once, in pair order
        [factor] = table_work.factors[0]
        if n <= 4:
            # the amplitude blocks, with no eigh of rho
            assert table_work.spectra[0] == []
            np.testing.assert_array_equal(factor, [[amplitude_block(state, *pair) for pair in pairs]])
        else:
            # one spectrum call, holding each pair's marginal once, in pair order
            [stack] = table_work.spectra[0]
            np.testing.assert_array_equal(stack, [[partial_trace(state, pair).matrix for pair in pairs]])
        # pairs, singles, and at n >= 6 the ABC1 cut: each traced once, one gather for each of the three
        marginals = table_work.marginals[0]
        assert set(marginals.values()) == {1}
        assert len(marginals) == n * (n - 1) // 2 + n + (n >= 6)
        assert table_work.gathers == [2 + (n >= 6)]

    @pytest.mark.parametrize("delta", [1e-13, 1e-14])
    @pytest.mark.parametrize("n", [3, 4])
    def test_pair_values_keep_spectra_below_the_rank_cutoff(self, n, delta):
        # sqrt(1 - delta) |Phi+>|0...> + sqrt(delta) |Phi->|1...>: rho_AB mixes two Bell states with
        # weights 1 - delta and delta, so lambda = (1 - delta, delta, 0, 0)
        zeros, ones = "0" * (n - 2), "1" * (n - 2)
        state = state_from_basis_terms(n, [("00" + zeros, np.sqrt(1 - delta)), ("11" + zeros, np.sqrt(1 - delta)),
                                           ("00" + ones, np.sqrt(delta)), ("11" + ones, -np.sqrt(delta))])
        pair = evaluate_all(state).components["A-B"]
        assert abs(pair["concurrence_sq"] - (1 - 2 * delta) ** 2) <= 1e-15
        assert abs(pair["assistance_sq"] - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_pair_values_keep_an_eigenvalue_above_the_rank_cutoff(self, n):
        # the pair (0, 1) block in Schmidt form, M = U diag(sqrt(p)) V^H, so rho_AB has the eigenvalues p, one of
        # them 1e-10: the eigh route of n >= 5 must keep it, as a cutoff that zeroed it moves C^2 and C_a^2 by ~1e-10
        rng = np.random.default_rng(50 + n)
        p = np.array([0.85, 0.1, 0.05 - 1e-10, 1e-10])
        m = random_unitary(rng, 4) * np.sqrt(p) @ random_unitary(rng, 2 ** (n - 2))[:, :4].conj().T
        state = PureState(n, m.ravel())
        block = state.amplitudes.reshape(4, -1)
        assert abs(np.linalg.eigvalsh(block @ block.conj().T)[0] - 1e-10) <= 1e-15
        csq, casq = MarginalTable(stacked([state])).pair_sq
        # a reference with no cutoff: M^H = QR gives rho = M M^H = R^H R, so R^H is a factor
        l = _factor_spectra(np.linalg.qr(block.conj().T, mode="r").conj().T)
        assert _wootters(l) > 0.2
        assert abs(csq[0, 0, 1] - _wootters(l) ** 2) <= 1e-12
        assert abs(casq[0, 0, 1] - _assistance(l) ** 2) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_block_route_agrees_with_lambda_spectrum(self, n):
        rng = np.random.default_rng(40 + n)
        states = [random_haar_state(n, rng) for _ in range(12)]
        states += [sparse_state(n, rng, np.arange(2**n)) for _ in range(12)]
        states += [state_from_basis_terms(n, [("0" * n, 1)]), state_from_basis_terms(n, [("0" * n, 1), ("1" * n, 1)]),
                   state_from_basis_terms(n, [("0" * q + "1" + "0" * (n - 1 - q), 1) for q in range(n)])]
        csq, casq = MarginalTable(stacked(states)).pair_sq
        for b, state in enumerate(states):
            for i in range(n):
                for j in range(i + 1, n):
                    dm = partial_trace(state, [i, j])
                    assert abs(csq[b, i, j] - wootters_concurrence(dm) ** 2) <= 1e-14, (b, i, j)
                    assert abs(casq[b, i, j] - concurrence_of_assistance(dm) ** 2) <= 1e-14, (b, i, j)

    @pytest.mark.parametrize("n", [3, 4])
    def test_block_route_keeps_the_trace_check(self, n):
        good = [random_haar_state(n, seed) for seed in range(3)]
        MarginalTable(stacked(good)).pair_sq
        off = SimpleNamespace(n_qubits=n, amplitudes=good[1].amplitudes * (1 + 1e-9))
        with pytest.raises(ValueError, match="trace"):
            MarginalTable(stacked([good[0], off, good[2]])).pair_sq

    # how a table reads each kind of marginal: the pair fill, a single, a larger cut
    READS = {(0, 1): lambda table: table.pair_sq, (0,): lambda table: table.cut_sq([0]),
             (0, 1, 2): lambda table: table.cut_sq([0, 1, 2])}

    @pytest.mark.parametrize("keep", READS)
    def test_fill_keeps_the_trace_check(self, keep):
        good = [random_haar_state(6, seed) for seed in range(3)]
        self.READS[keep](MarginalTable(stacked(good)))
        # past the norm check of PureState: the marginal traces are 1 + 2e-9
        off = SimpleNamespace(n_qubits=6, amplitudes=good[1].amplitudes * (1 + 1e-9))
        with pytest.raises(ValueError, match="trace"):
            self.READS[keep](MarginalTable(stacked([good[0], off, good[2]])))

    @pytest.mark.parametrize("keep", READS)
    def test_fill_keeps_the_psd_floor(self, keep, monkeypatch):
        # the product state |0...0> has diagonal marginals with zero eigenvalues;
        # moving 1e-9 of weight between two of them keeps the trace and breaks the floor
        marginals = MarginalTable._marginals

        def shifted(table, keeps):
            rho = marginals(table, keeps)
            if keep in keeps:
                slot = keeps.index(keep)
                rho[1:, slot, -1, -1] -= 1e-9
                rho[1:, slot, -2, -2] += 1e-9
            return rho

        monkeypatch.setattr(MarginalTable, "_marginals", shifted)
        states = [random_haar_state(6, 0), state_from_basis_terms(6, [("000000", 1)])]
        self.READS[keep](MarginalTable(stacked(states[:1])))
        with pytest.raises(ValueError, match="PSD"):
            self.READS[keep](MarginalTable(stacked(states)))

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("n", [5, 8, 10, 12])
    def test_gathered_marginals_equal_partial_trace(self, n, size, monkeypatch):
        # a gather holds all of a size's subsets or only some, as n and the stack size set
        traced, marginals = {}, MarginalTable._marginals

        def recorded(table, keeps):
            rho = marginals(table, keeps)
            traced.update(zip(keeps, rho.swapaxes(0, 1)))
            return rho

        monkeypatch.setattr(MarginalTable, "_marginals", recorded)
        states = [random_haar_state(n, seed) for seed in range(size)]
        table = MarginalTable(stacked(states))
        table.pair_sq
        table.linear_entropies([(q,) for q in range(n)])
        # the ABC1 cut as the bounds trace it, and another 3-qubit cut as ``pure_concurrence_sq`` traces it from
        # 6 qubits: each a group of its own, with its own cached index
        cuts = [(0, 1, 2), (1, 3, 4)]
        for cut in cuts:
            table.linear_entropies([cut])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert sorted(traced) == sorted(pairs + [(q,) for q in range(n)] + cuts)
        for keep, rho in traced.items():
            for b, state in enumerate(states):
                np.testing.assert_array_equal(rho[b], partial_trace(state, keep).matrix)

    def test_gather_index_is_cached_and_read_only(self):
        index = _block_index(6, ((0, 1, 2),))
        assert _block_index(6, ((0, 1, 2),)) is index and not index.flags.writeable

    def test_gather_index_dtype_follows_the_qubit_limit(self, monkeypatch):
        # the smallest dtype holding every index below 2^MAX_QUBITS: uint16 at 12 qubits, and no wrap at 16
        assert _block_index(12, ((0, 1),)).dtype == np.uint16
        monkeypatch.setattr(qmonogamy.concurrence, "MAX_QUBITS", 16)
        index = _block_index(16, ((0, 1),))
        assert index.min() == 0 and index.max() == 2**16 - 1

    @pytest.mark.parametrize("size", [3, 17])
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_stack_rows_equal_stacks_of_one(self, n, size):
        # the stack size sets how the marginals split into gathers; no bit may follow it
        rng = np.random.default_rng(n + size)
        states = [random_wclass_state(n, rng) if b % 3 == 1 else random_haar_state(n, rng) for b in range(size)]
        subsets = [(q,) for q in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)] + [(0, 1, 2)]
        stack = MarginalTable(stacked(states))
        pairs, entropies, entries = stack.pair_sq, stack.linear_entropies(subsets), _entries(stack)
        for b, state in enumerate(states):
            one = MarginalTable(stacked([state]))
            for full, alone in zip(pairs, one.pair_sq):
                np.testing.assert_array_equal(full[b], alone[0])
            np.testing.assert_array_equal(entropies[b], one.linear_entropies(subsets)[0])
            alone = _entries(one)
            assert [names for rows, names, _, _ in entries if b in rows] == [names for _, names, _, _ in alone]
            full = {names: (list(rows).index(b), lhs, rhs) for rows, names, lhs, rhs in entries if b in rows}
            for _, names, lhs, rhs in alone:
                k, full_lhs, full_rhs = full[names]
                for e, name in enumerate(names):
                    assert (full_lhs[e, k], full_rhs[e, k]) == (lhs[e, 0], rhs[e, 0]), name

    @given(seed=st.integers(0, 10**9), n=st.integers(3, 6), weight1=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_report_equals_public_functions(self, seed, n, weight1):
        state = random_wclass_state(n, seed) if weight1 else random_haar_state(n, seed)
        report = evaluate_all(state)
        mid_ab = pure_concurrence_sq(state, [0, 1])
        assert report.entry("ab_rest_lower").rhs == mid_ab
        assert (report.entry("chain_lower").lhs, mid_ab, report.entry("chain_upper").rhs) == concurrence_chain(state)
        for i in range(n):
            for j in range(i + 1, n):
                pair = report.components[f"{role_name(i)}-{role_name(j)}"]
                assert (pair["concurrence_sq"], pair["assistance_sq"]) == pair_sq(state, i, j)
        single = [linear_entropy(partial_trace(state, [q])) for q in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        double = {(i, j): linear_entropy(partial_trace(state, [i, j])) for i, j in pairs}
        # the least-slack pair, the first in pair order on ties
        lo = min(pairs, key=lambda p: double[p] - abs(single[p[0]] - single[p[1]]))
        hi = min(pairs, key=lambda p: single[p[0]] + single[p[1]] - double[p])
        assert (report.entry("lin_entropy_lower").lhs, report.entry("lin_entropy_lower").rhs) == (
            abs(single[lo[0]] - single[lo[1]]), double[lo])
        assert (report.entry("lin_entropy_upper").lhs, report.entry("lin_entropy_upper").rhs) == (
            double[hi], single[hi[0]] + single[hi[1]])
        if n >= 4:
            mid_abc = pure_concurrence_sq(state, [0, 1, 2])
            diff, hub = report.entry("abc_rest_lower_diff").lhs, report.entry("abc_rest_lower_hub").lhs
            assert report.entry("abc_rest_lower_diff").rhs == mid_abc
            assert report.entry("abc_rest_lower_diff_clamped").lhs == max(0.0, diff)
            assert report.entry("abc_rest_lower_hub_clamped").lhs == max(0.0, hub)
        if weight1:
            chains = [wclass_bounds(state, i, j) for i in range(n) for j in range(i + 1, n)]
            lower, mid, _ = min(chains, key=lambda c: c[1] - c[0])
            assert (report.entry("wclass_lower").lhs, report.entry("wclass_lower").rhs) == (lower, mid)
            _, mid, upper = min(chains, key=lambda c: c[2] - c[1])
            assert (report.entry("wclass_upper").lhs, report.entry("wclass_upper").rhs) == (mid, upper)


class TestEvaluateAllEdges:
    """evaluate_all at n = MAX_QUBITS, at the RANK_CUTOFF edge and on near-degenerate lambda."""

    @given(seed=st.integers(0, 2**32 - 1), weight1=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_max_qubits_no_violations(self, seed, weight1):
        state = random_wclass_state(MAX_QUBITS, seed) if weight1 else random_haar_state(MAX_QUBITS, seed)
        report = evaluate_all(state)
        assert report.n_qubits == MAX_QUBITS
        assert report.all_satisfied()
        assert ("wclass_upper" in {e.inequality for e in report.entries}) == weight1

    @given(n=st.integers(3, 8), data=st.data(), log_eps=st.floats(-14, -10), phase=st.floats(0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_product_pair_marginals_at_rank_cutoff(self, n, data, log_eps, phase):
        # sqrt(1 - eps)|x> + e^{i phase} sqrt(eps)|y> with eps on both sides of RANK_CUTOFF:
        # a pair where x and y differ in at most one bit has a product marginal
        x = data.draw(st.integers(0, 2**n - 1))
        y = data.draw(st.integers(0, 2**n - 1).filter(lambda v: v != x))
        eps = 10.0**log_eps
        amplitudes = np.zeros(2**n, dtype=complex)
        amplitudes[x] = np.sqrt(1 - eps)
        amplitudes[y] = np.exp(1j * phase) * np.sqrt(eps)
        report = evaluate_all(PureState(n, amplitudes))
        assert report.all_satisfied()
        flips = {q for q in range(n) if (x ^ y) >> (n - 1 - q) & 1}
        for i in range(n):
            for j in range(i + 1, n):
                if len(flips & {i, j}) > 1:
                    continue  # a GHZ-like pair, entangled or with assistance
                pair = report.components[f"{role_name(i)}-{role_name(j)}"]
                if flips - {i, j}:
                    # diagonal marginal of rank 1 or 2, the eps eigenvalue kept or cut
                    assert pair == {"concurrence_sq": 0.0, "assistance_sq": 0.0}
                else:
                    # a pure product marginal: only its eigenvectors' rounding is left
                    assert pair["concurrence_sq"] <= 1e-30
                    assert pair["assistance_sq"] <= 1e-30

    @given(
        n=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.1, np.pi / 2 - 0.1),
        log_delta=st.floats(-12, -4),
    )
    @settings(max_examples=40, deadline=None)
    def test_near_degenerate_lambda(self, n, seed, theta, log_delta):
        # GHZ-like pair marginals have lambda = (cs, cs, 0, 0) with c = cos theta,
        # s = sin theta, so C = 0 and C_a = sin 2 theta; a delta perturbation
        # splits the degenerate pair
        rng = np.random.default_rng(seed)
        delta = 10.0**log_delta
        amplitudes = np.zeros(2**n, dtype=complex)
        amplitudes[0] = np.cos(theta)
        amplitudes[-1] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.sin(theta)
        amplitudes += delta * random_haar_state(n, rng).amplitudes
        state = PureState(n, amplitudes / np.linalg.norm(amplitudes))
        l = lambda_spectrum(partial_trace(state, [0, 1]))
        assert l[0] - l[1] <= 10 * delta
        report = evaluate_all(state)
        assert report.all_satisfied()
        for pair in report.components.values():
            assert pair["concurrence_sq"] <= delta
            assert abs(pair["assistance_sq"] - np.sin(2 * theta) ** 2) <= 10 * delta
