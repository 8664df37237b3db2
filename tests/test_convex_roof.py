import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmonogamy
import qmonogamy.concurrence
import qmonogamy.convex_roof
from qmonogamy import (
    DensityMatrix,
    EnsembleDecomposition,
    StateError,
    concurrence_of_assistance,
    convex_roof_optimize,
    partial_trace,
    state_from_basis_terms,
    wootters_concurrence,
)
from qmonogamy.concurrence import SPIN_FLIP_YY, _support_root
from qmonogamy.convex_roof import (
    ENSEMBLE_SIZE,
    LEADERS,
    RESTARTS,
    STOP_GAIN,
    _diag,
    _haar_isometries,
    _pair_rotation,
    _rounds,
    _score,
    _sweep,
)

from helpers import random_two_qubit_mixed, random_unitary

ORACLE_ATOL = 1e-3


def diagonal(v, tau):
    """The diagonal of V tau V^T over a stack of isometries V."""
    return np.einsum("rii->ri", v @ tau @ v.swapaxes(1, 2))


def tau_matrix(matrix):
    """The oracle's symmetric tau on the support of ``matrix``."""
    root = _support_root((matrix + matrix.conj().T) / 2)[1]
    basis = root[:, root.any(axis=0)]
    return basis.T @ SPIN_FLIP_YY @ basis


def test_pure_bell_input_single_member():
    bell = state_from_basis_terms(2, [("00", 1), ("11", 1)])
    rho = partial_trace(bell, [0, 1])
    for mode in ("minimize", "maximize"):
        value, decomposition = convex_roof_optimize(rho, mode, seed=3)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert len(decomposition.members) == 1
        assert (decomposition.sweeps, decomposition.converged) == (0, True)


def test_maximally_mixed_minimize_zero():
    dm = DensityMatrix((0, 1), np.eye(4, dtype=complex) / 4)
    value, decomposition = convex_roof_optimize(dm, "minimize", seed=11)
    assert value == pytest.approx(0.0, abs=ORACLE_ATOL)
    assert decomposition.reconstruction_error(dm) < 1e-8


def test_maximally_mixed_maximize_one():
    dm = DensityMatrix((0, 1), np.eye(4, dtype=complex) / 4)
    value, decomposition = convex_roof_optimize(dm, "maximize", seed=11)
    assert value == pytest.approx(1.0, abs=ORACLE_ATOL)
    assert decomposition.reconstruction_error(dm) < 1e-8


def test_ghz_marginal_both_modes():
    ghz = state_from_basis_terms(3, [("000", 1), ("111", 1)])
    rho = partial_trace(ghz, [0, 1])
    assert convex_roof_optimize(rho, "minimize", seed=5)[0] == pytest.approx(0.0, abs=ORACLE_ATOL)
    assert convex_roof_optimize(rho, "maximize", seed=5)[0] == pytest.approx(1.0, abs=ORACLE_ATOL)


def test_w3_marginal_min_equals_max():
    w3 = state_from_basis_terms(3, [("100", 1), ("010", 1), ("001", 1)])
    rho = partial_trace(w3, [0, 1])
    assert convex_roof_optimize(rho, "minimize", seed=5)[0] == pytest.approx(2 / 3, abs=ORACLE_ATOL)
    assert convex_roof_optimize(rho, "maximize", seed=5)[0] == pytest.approx(2 / 3, abs=ORACLE_ATOL)


def test_value_is_the_decomposition_average():
    dm = random_two_qubit_mixed(np.random.default_rng(8), 3)
    value, decomposition = convex_roof_optimize(dm, "maximize", seed=8)
    assert value == pytest.approx(decomposition.average_concurrence(), abs=1e-12)


def test_diagnostics_of_a_capped_call(monkeypatch):
    monkeypatch.setattr(qmonogamy.convex_roof, "MAX_SWEEPS", 1)
    dm = random_two_qubit_mixed(np.random.default_rng(22), 3)
    for mode in ("minimize", "maximize"):
        value, decomposition = convex_roof_optimize(dm, mode, seed=4)
        assert (decomposition.sweeps, decomposition.converged) == (1, False)
        assert value == pytest.approx(decomposition.average_concurrence(), abs=1e-12)


def test_diagnostics_of_converged_calls():
    dm = random_two_qubit_mixed(np.random.default_rng(23), 4)
    for mode in ("minimize", "maximize"):
        _, decomposition = convex_roof_optimize(dm, mode, seed=5)
        assert decomposition.converged is True
        assert 1 <= decomposition.sweeps < qmonogamy.convex_roof.MAX_SWEEPS


def test_user_built_decomposition_has_no_diagnostics():
    psi = state_from_basis_terms(2, [("00", 1)])
    decomposition = EnsembleDecomposition((0, 1), ((1.0, psi),))
    assert (decomposition.sweeps, decomposition.converged) == (None, None)


def test_deterministic_for_fixed_seed():
    dm = random_two_qubit_mixed(np.random.default_rng(21), 3)
    a = convex_roof_optimize(dm, "minimize", seed=77)[0]
    b = convex_roof_optimize(dm, "minimize", seed=77)[0]
    assert a == b


@pytest.mark.parametrize("real", [True, False])
def test_rank_three_separable_mixtures_minimize_to_zero(real):
    # such a mixture can need four members; three-member ensembles miss the
    # minimum of 0 by up to ~0.25
    rng = np.random.default_rng(60 + real)
    found = 0
    while found < 4:
        z = rng.standard_normal((4, 3)) + (0 if real else 1j * rng.standard_normal((4, 3)))
        q, _ = np.linalg.qr(z)
        dm = DensityMatrix((0, 1), (q * rng.dirichlet(np.full(3, 8.0))) @ q.conj().T)
        if wootters_concurrence(dm) > 0:
            continue
        found += 1
        for seed in (found, 100 + found):
            value, decomposition = convex_roof_optimize(dm, "minimize", seed=seed)
            assert value == pytest.approx(0.0, abs=ORACLE_ATOL)
            assert decomposition.reconstruction_error(dm) < 1e-8


@pytest.mark.parametrize("probs, match", [
    ((), r"\(0, 1\]"),
    ((1.0, 0.0), r"\(0, 1\]"),
    ((1.5, -0.5), r"\(0, 1\]"),
    ((0.5, 0.4), "sum to"),
])
def test_decomposition_probabilities_validated(probs, match):
    psi = state_from_basis_terms(2, [("00", 1)])
    with pytest.raises(ValueError, match=match):
        EnsembleDecomposition((0, 1), tuple((p, psi) for p in probs))


@pytest.mark.parametrize("labels, match", [
    ((1, 0), "ascending"),
    ((0, 0), "distinct"),
    ((-1, 0), "non-negative"),
    ((0, 1, 2), "2 qubits"),
    ((0,), "2 qubits"),
])
def test_decomposition_labels_validated(labels, match):
    psi = state_from_basis_terms(2, [("00", 1)])
    with pytest.raises(ValueError, match=match):
        EnsembleDecomposition(labels, ((1.0, psi),))


def test_decomposition_members_validated():
    # a three-qubit member used to fail only later, inside average_concurrence's matmul
    with pytest.raises(StateError, match="2 qubits") as info:
        EnsembleDecomposition((0, 1), ((1.0, state_from_basis_terms(3, [("000", 1)])),))
    assert info.value.code == "qubits"
    with pytest.raises(TypeError, match="ndarray"):
        EnsembleDecomposition((0, 1), ((1.0, np.array([1, 0, 0, 0], dtype=complex)),))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_oracle_decompositions_pass_their_own_rules(rank, monkeypatch):
    # labels other than (0, 1) pass through unchanged, and rebuilding the ensemble raises nothing
    m = random_two_qubit_mixed(np.random.default_rng(30 + rank), rank).matrix
    dm = DensityMatrix((2, 5), m)
    for mode in ("minimize", "maximize"):
        _, decomposition = convex_roof_optimize(dm, mode, seed=rank)
        assert decomposition.qubit_labels == (2, 5)
        rebuilt = EnsembleDecomposition(decomposition.qubit_labels, decomposition.members)
        assert rebuilt.reconstruction_error(dm) < 1e-8
    # every rank, a pure input too, leaves through the reconstruction check
    monkeypatch.setattr(qmonogamy.convex_roof, "RECONSTRUCTION_ATOL", -1.0)
    for mode in ("minimize", "maximize"):
        with pytest.raises(RuntimeError, match="off by"):
            convex_roof_optimize(dm, mode, seed=rank)


def test_mode_validated():
    dm = DensityMatrix((0, 1), np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError, match="mode"):
        convex_roof_optimize(dm, "extremize", seed=0)


def test_two_qubits_required():
    dm = DensityMatrix((0,), np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="2-qubit"):
        convex_roof_optimize(dm, "minimize", seed=0)


def test_local_unitary_invariance_at_oracle_tolerance():
    rng = np.random.default_rng(3141)
    dm = random_two_qubit_mixed(rng, 3)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = DensityMatrix((0, 1), u @ dm.matrix @ u.conj().T)
    for mode in ("minimize", "maximize"):
        a = convex_roof_optimize(dm, mode, seed=9)[0]
        b = convex_roof_optimize(rotated, mode, seed=10)[0]
        assert abs(a - b) <= 2 * ORACLE_ATOL


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_agreement_with_closed_forms_per_rank(rank):
    rng = np.random.default_rng(1000 + rank)
    for trial in range(8):
        dm = random_two_qubit_mixed(rng, rank)
        seed = 31 * rank + trial
        vmin, dec_min = convex_roof_optimize(dm, "minimize", seed=seed)
        vmax, dec_max = convex_roof_optimize(dm, "maximize", seed=seed)
        assert abs(vmin - wootters_concurrence(dm)) <= ORACLE_ATOL
        assert abs(vmax - concurrence_of_assistance(dm)) <= ORACLE_ATOL
        assert dec_min.reconstruction_error(dm) < 1e-8
        assert dec_max.reconstruction_error(dm) < 1e-8
        assert len(dec_min.members) <= 4 and len(dec_max.members) <= 4
        probs = [p for p, _ in dec_min.members]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def random_symmetric_block(rng, scale=1.0):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return scale * (z + z.T) / 2


def unitaries(ch, s):
    """The stack of ``U = [[ch, conj(s)], [-s, ch]]``."""
    return np.stack([np.stack([ch, s.conj()], -1), np.stack([-s, ch + 0j], -1)], -2)


def pair_steps(blocks, mode):
    """U and U B U^T for a stack of blocks B; the step reads B's upper triangle."""
    u = unitaries(*_pair_rotation(blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1], mode))
    return u, u @ blocks @ u.swapaxes(1, 2)


def pair_step(block, mode):
    """U and U B U^T for one block."""
    u, out = pair_steps(block[None], mode)
    return u[0], out[0]


def unitarity_error(u):
    return np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(2)).max()


def assert_pair_step_optimal(block):
    s1, s2 = np.linalg.svd(block, compute_uv=False)  # the Takagi values of a symmetric B
    atol = 1e-12 * max(1.0, s1)
    u, out = pair_step(block, "maximize")
    assert unitarity_error(u) <= 1e-14
    assert abs(out[0, 0]) + abs(out[1, 1]) == pytest.approx(s1 + s2, abs=atol)
    u, out = pair_step(block, "minimize")
    assert unitarity_error(u) <= 1e-14
    assert abs(out[0, 1]) == pytest.approx((s1 + s2) / 2, abs=atol)
    assert abs(out[0, 0]) ** 2 + abs(out[1, 1]) ** 2 == pytest.approx((s1 - s2) ** 2 / 2, abs=atol * max(1.0, s1))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow and no 0/0, masked or not
class TestPairStep:
    def test_zero_block_keeps_identity(self):
        for mode in ("minimize", "maximize"):
            u = unitaries(*_pair_rotation(*np.zeros((3, 3), dtype=complex), mode))
            assert np.array_equal(u, np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_zero_blocks_leave_v_unchanged(self):
        v = _haar_isometries(5, 4, 2, np.random.default_rng(1))
        tau = np.zeros((2, 2), dtype=complex)
        v_before = v.copy()
        for mode in ("minimize", "maximize"):
            _sweep(v, tau, mode)
            assert np.array_equal(v, v_before)

    def test_rank_one_block(self):
        rng = np.random.default_rng(2)
        w = random_unitary(rng, 2)[:, 0]
        block = 0.7 * np.outer(w, w)
        assert_pair_step_optimal(block)
        _, out = pair_step(block, "maximize")
        assert sorted([abs(out[0, 0]), abs(out[1, 1])]) == pytest.approx([0.0, 0.7], abs=1e-12)

    def test_equal_takagi_values(self):
        rng = np.random.default_rng(3)
        w = random_unitary(rng, 2)
        block = 0.4 * w @ w.T
        assert np.linalg.svd(block, compute_uv=False) == pytest.approx([0.4, 0.4], abs=1e-14)
        assert_pair_step_optimal(block)

    @pytest.mark.parametrize("block", [
        np.exp(0.3j) * np.array([[0, 1], [1, 0]]),  # q = 0 with p along e_z
        np.exp(2.1j) * np.array([[0, 1], [1, 0]]),
        2 * np.eye(2, dtype=complex),  # q = 0 with p along e_y
        np.array([[1, 0], [0, -1]], dtype=complex),  # q = 0 with p along e_x
        np.array([[0, 1j], [1j, 0]]),  # p = -e_z: r_z = -1 before the sign flip
        np.array([[1, 1e-160], [1e-160, 1]], dtype=complex),  # |p x q| ~ 1e-160
        np.array([[2.1e-317 - 1.4e-317j, 0], [0, 0]]),  # subnormal, as rows of V decay
    ])
    def test_exact_degenerate_blocks(self, block):
        assert_pair_step_optimal(block)

    def test_tiny_block_steps_as_its_rescaled_copy(self):
        block = random_symmetric_block(np.random.default_rng(4))
        for mode in ("minimize", "maximize"):
            u, _ = pair_step(block, mode)
            u_tiny, out = pair_step(1e-170 * block, mode)
            assert np.all(np.isfinite(u_tiny))
            assert unitarity_error(u_tiny) <= 1e-14
            assert np.abs(u_tiny - u).max() <= 1e-14

    def test_rounding_asymmetry_keeps_u_unitary(self):
        # a noise-level block of V tau V^T whose off-diagonal entries differ in
        # rounding by as much as the block's size
        block = 1e-17 * np.array([[-8.3 - 0.7j, -2.1 - 6.2j], [-2.8 - 5.6j, -12.5 + 4.1j]])
        for mode in ("minimize", "maximize"):
            u = pair_step(block, mode)[0]
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_thousands_of_blocks_reach_the_takagi_bounds(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4000, 2, 2)) + 1j * rng.standard_normal((4000, 2, 2))
        blocks = (z + z.swapaxes(1, 2)) / 2 * 10.0 ** rng.uniform(-8, 2, (4000, 1, 1))
        w = np.stack([random_unitary(rng, 2) for _ in range(600)])
        blocks[:300] = 0.7 * np.einsum("si,sj->sij", w[:300, :, 0], w[:300, :, 0])  # rank one
        blocks[300:600] = 0.4 * w[300:] @ w[300:].swapaxes(1, 2)  # equal Takagi values
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (100, 1, 1)))
        blocks[600:700] = phases * np.array([[0, 1], [1, 0]])
        blocks[700:800] = phases * np.eye(2)
        blocks[800:850] = phases[:50] * np.array([[1, 0], [0, 0]])
        blocks[850:900] = phases[50:] * np.array([[1, 0], [0, -1]])
        blocks[900:910] = 0
        s1, s2 = np.linalg.svd(blocks, compute_uv=False).T
        atol = 1e-12 * np.maximum(1.0, s1)
        u, out = pair_steps(blocks, "maximize")
        assert unitarity_error(u) <= 1e-14
        assert np.all(np.abs(np.abs(out[:, 0, 0]) + np.abs(out[:, 1, 1]) - (s1 + s2)) <= atol)
        u, out = pair_steps(blocks, "minimize")
        assert unitarity_error(u) <= 1e-14
        assert np.all(np.abs(np.abs(out[:, 0, 1]) - (s1 + s2) / 2) <= atol)

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8, 2))
    @settings(max_examples=60, deadline=None)
    def test_random_blocks(self, seed, log_scale):
        rng = np.random.default_rng(seed)
        block = random_symmetric_block(rng, 10.0**log_scale)
        assert_pair_step_optimal(block)
        # no unitary does better than the step
        s1, s2 = np.linalg.svd(block, compute_uv=False)
        for _ in range(20):
            u = random_unitary(rng, 2)
            out = u @ block @ u.T
            assert abs(out[0, 0]) + abs(out[1, 1]) <= s1 + s2 + 1e-12 * max(1.0, s1)
            assert abs(out[0, 1]) <= (s1 + s2) / 2 + 1e-12 * max(1.0, s1)

    @pytest.mark.parametrize("mode", ["minimize", "maximize"])
    @pytest.mark.parametrize("rank, m", [(2, 4), (3, 3), (4, 4), (3, 5), (4, 8)])
    def test_sweep_keeps_v_isometric_and_m_consistent(self, mode, rank, m):
        # M = V tau V^T is never stored: the diagonal the oracle reads from V must be M's
        rng = np.random.default_rng(10 * rank + m)
        tau = tau_matrix(random_two_qubit_mixed(rng, rank).matrix)
        v = _haar_isometries(6, m, rank, rng)
        before = v.copy()
        for _ in range(10):
            _sweep(v, tau, mode)
        assert np.all(np.any(v != before, axis=-1))  # the sweeps moved every row of V, not four fixed rows
        assert np.allclose(v.conj().swapaxes(1, 2) @ v, np.eye(rank), atol=1e-12)
        if m == rank:  # square V: its rows are orthonormal too
            assert np.allclose(v @ v.conj().swapaxes(1, 2), np.eye(m), atol=1e-12)
        assert np.allclose(_diag(v, tau), diagonal(v, tau), atol=1e-14)


@pytest.mark.parametrize("mode", ["minimize", "maximize"])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_sweep_never_worsens_the_swept_objective(mode, rank):
    rng = np.random.default_rng(40 + rank)
    for _ in range(3):
        tau = tau_matrix(random_two_qubit_mixed(rng, rank).matrix)
        v = _haar_isometries(16, 4, rank, rng)
        score = _score(diagonal(v, tau), mode)
        for _ in range(20):
            _sweep(v, tau, mode)
            new = _score(diagonal(v, tau), mode)
            assert np.all(new >= score - 1e-12)
            score = new


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["minimize", "maximize"])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_sweep_makes_no_lapack_call(mode, rank, monkeypatch):
    # the pair step is closed-form arithmetic; no decomposition runs inside the sweep loop
    rng = np.random.default_rng(70 + rank)
    tau = tau_matrix(random_two_qubit_mixed(rng, rank).matrix)
    v = _haar_isometries(32, 4, rank, rng)
    before = v.copy()

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep called LAPACK")

    with monkeypatch.context() as patch:
        for name in ("eigh", "eigvalsh", "svd", "qr"):
            patch.setattr(np.linalg, name, forbidden)
        for _ in range(3):
            _sweep(v, tau, mode)
    assert not np.array_equal(v, before)
    assert np.all(_score(diagonal(v, tau), mode) >= _score(diagonal(before, tau), mode) - 1e-12)


def round_pairs(rounds):
    return [[(int(p), int(q)) for p, q in zip(ps, qs)] for ps, qs in rounds]


@pytest.mark.parametrize("m", range(2, 9))
def test_rounds_step_every_pair_once_in_cyclic_order(m):
    # the fewest rounds of disjoint pairs, as one holds at most m // 2 pairs; at even m each round turns the
    # one before it, rows after 0 one place round their circle; odd m drops row m's pairs from m + 1 rows
    rounds = round_pairs(_rounds(m))
    assert len(rounds) == m - 1 + m % 2
    assert sorted(sum(rounds, [])) == [(p, q) for p in range(m) for q in range(p + 1, m)]
    assert all(len({row for pair in r for row in pair}) == 2 * len(r) for r in rounds)
    if m % 2:
        assert rounds == [[pair for pair in r if m not in pair] for r in round_pairs(_rounds(m + 1))]
    else:
        turn = [0, *range(2, m), 1]
        assert all({frozenset((turn[p], turn[q])) for p, q in r} == set(map(frozenset, after))
                   for r, after in zip(rounds, rounds[1:]))


def test_four_members_sweep_in_three_rounds():
    assert round_pairs(_rounds(4)) == [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]


def sequential_steps(v, tau, mode, pairs):
    """One step per row pair in ``pairs``, a pair at a time."""
    for p, q in pairs:
        vp, vq = v[:, p], v[:, q]
        tp = vp @ tau
        ch, s = _pair_rotation((tp * vp).sum(1), (tp * vq).sum(1), ((vq @ tau) * vq).sum(1), mode)
        ch, s = ch[:, None], s[:, None]
        v[:, p], v[:, q] = ch * vp + s.conj() * vq, ch * vq - s * vp


@pytest.mark.parametrize("mode", ["minimize", "maximize"])
@pytest.mark.parametrize("rank, m", [(r, m) for m in (3, 4, 5, 8) for r in (2, 3, 4) if r <= m])
def test_fused_sweep_equals_sequential_steps(mode, rank, m):
    # steps on disjoint rows commute exactly, so fusing them moves no bit
    rng = np.random.default_rng(90 + 10 * rank + m)
    tau = tau_matrix(random_two_qubit_mixed(rng, rank).matrix)
    v = _haar_isometries(32, m, rank, rng)
    reference = v.copy()
    for _ in range(10):
        _sweep(v, tau, mode)
        sequential_steps(reference, tau, mode, sum(round_pairs(_rounds(m)), []))
        assert np.array_equal(v, reference)


@pytest.mark.parametrize("mode", ["minimize", "maximize"])
def test_restarts_take_the_steps_of_sweeps_started_at_0_1(mode, monkeypatch):
    # the first sweep starts on the Haar draw, and each sweep steps the restarts
    # through the six pairs in round order, one pair at a time, bit for bit
    seen = []
    sweep = qmonogamy.convex_roof._sweep

    def recording(v, tau, mode_):
        seen.append(v.copy())
        sweep(v, tau, mode_)

    monkeypatch.setattr(qmonogamy.convex_roof, "_sweep", recording)
    dm = random_two_qubit_mixed(np.random.default_rng(61), 3)
    convex_roof_optimize(dm, mode, seed=5)
    assert len(seen) > 2
    tau = tau_matrix(dm.matrix)
    v = _haar_isometries(RESTARTS, ENSEMBLE_SIZE, 3, np.random.default_rng(5))
    assert np.array_equal(seen[0], v)
    for before, after in zip(seen, seen[1:]):
        stepped = before.copy()
        sequential_steps(stepped, tau, mode, sum(round_pairs(_rounds(ENSEMBLE_SIZE)), []))
        assert np.array_equal(after, stepped)


def test_restarts_are_haar():
    # QR's Q alone is not Haar: over these draws its mean V[0, 0] is about -0.29
    v = _haar_isometries(20000, 4, 2, np.random.default_rng(6))
    assert abs(v[:, 0, 0].mean()) < 0.02
    assert np.allclose(v.conj().swapaxes(1, 2) @ v, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("mode", ["minimize", "maximize"])
@pytest.mark.parametrize("rank", [3, 4])
def test_stop_test_tracks_the_swept_objective(mode, rank, monkeypatch):
    # minimize sweeps the squared sum, so the loop must rank and stop on it;
    # it stops once each of the LEADERS best restarts gains less than STOP_GAIN
    leader_gains = []
    sweep = qmonogamy.convex_roof._sweep

    def recording(v, tau, mode_):
        before = _score(diagonal(v, tau), mode_)
        sweep(v, tau, mode_)
        after = _score(diagonal(v, tau), mode_)
        leader_gains.append((after - before)[np.argsort(after)[-LEADERS:]])

    monkeypatch.setattr(qmonogamy.convex_roof, "_sweep", recording)
    monkeypatch.setattr(qmonogamy.convex_roof, "MAX_SWEEPS", 200)
    dm = random_two_qubit_mixed(np.random.default_rng(50 + rank), rank)
    convex_roof_optimize(dm, mode, seed=3)
    assert all(np.max(g) >= STOP_GAIN for g in leader_gains[:-1])
    assert np.all(leader_gains[-1] < STOP_GAIN) or len(leader_gains) == 200


def test_oracle_never_calls_the_closed_forms(monkeypatch):
    rng = np.random.default_rng(77)
    cases = [random_two_qubit_mixed(rng, rank) for rank in (2, 3, 4)]
    expected = [(wootters_concurrence(dm), concurrence_of_assistance(dm)) for dm in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a closed form")

    for module in (qmonogamy, qmonogamy.concurrence, qmonogamy.convex_roof):
        for name in ("_factor_spectra", "lambda_spectra", "lambda_spectrum", "wootters_concurrence",
                     "concurrence_of_assistance"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for dm, (cmin, cmax) in zip(cases, expected):
        assert convex_roof_optimize(dm, "minimize", seed=1)[0] == pytest.approx(cmin, abs=ORACLE_ATOL)
        assert convex_roof_optimize(dm, "maximize", seed=1)[0] == pytest.approx(cmax, abs=ORACLE_ATOL)


def test_oracle_is_sweeps_only(monkeypatch):
    # no quasi-Newton stage: the sweeps alone reach the closed forms
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called scipy.optimize.minimize")

    monkeypatch.setattr(qmonogamy.convex_roof, "minimize", forbidden, raising=False)
    rng = np.random.default_rng(78)
    for rank in (2, 3, 4):
        dm = random_two_qubit_mixed(rng, rank)
        cmin, cmax = wootters_concurrence(dm), concurrence_of_assistance(dm)
        assert convex_roof_optimize(dm, "minimize", seed=rank)[0] == pytest.approx(cmin, abs=ORACLE_ATOL)
        assert convex_roof_optimize(dm, "maximize", seed=rank)[0] == pytest.approx(cmax, abs=ORACLE_ATOL)


def test_import_loads_no_scipy():
    # scipy.optimize is imported only when convex_roof.minimize is read, as the
    # benchmark's tracer does; it used to take most of the package's import time
    code = """
import sys
import qmonogamy, qmonogamy.cli
assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded on import'
from qmonogamy import convex_roof
assert convex_roof.minimize.__module__.startswith('scipy.optimize')
"""
    src = os.path.dirname(os.path.dirname(qmonogamy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Every console command and the oracle, in a fresh process run from the working directory: it prints each command's
# exit code, stdout and stderr, each oracle value, and what reading convex_roof.minimize gives.
EVERY_COMMAND = """
import contextlib, io, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy or of a submodule raises ImportError
import numpy as np
import qmonogamy as qm
from qmonogamy import convex_roof
from qmonogamy.cli import main

qm.write_state_file(qm.wclass_state(np.arange(1, 5) / np.sqrt(30)), "w4.json")
qm.write_state_file(qm.random_haar_state(6, 1), "h6.json")
for argv in (["reproduce-paper", "--out", "paper.json"], ["check", "w4.json", "--out", "w4-report.json"],
             ["check", "h6.json", "--format", "csv"], ["fuzz", "--qubits", "4", "--count", "70", "--seed", "1"],
             ["fuzz", "--qubits", "5", "--count", "70", "--seed", "1", "--format", "csv", "--out", "fuzz.csv"],
             ["wclass-scan", "--n", "4", "--count", "10", "--seed", "3", "--out", "scan.csv"]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(argv, code, repr(out.getvalue()), repr(err.getvalue()))
rng = np.random.default_rng(7)
x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
rho = qm.DensityMatrix((0, 1), x @ x.conj().T / np.vdot(x, x).real)
for mode in ("minimize", "maximize"):
    value, ensemble = qm.convex_roof_optimize(rho, mode, seed=1)
    print(mode, repr(value), ensemble.sweeps, ensemble.converged, [p for p, _ in ensemble.members])
try:
    convex_roof.minimize
except ImportError:
    print("minimize: ImportError")
else:
    print("minimize: read")
"""


def test_commands_and_oracle_need_no_scipy(tmp_path):
    # the package depends on numpy alone: with scipy unimportable every command and the oracle give the same
    # bytes and values as with it, and only the tracer's read of convex_roof.minimize fails
    src = os.path.dirname(os.path.dirname(qmonogamy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = {}
    for mode in ("blocked", "installed"):
        (tmp_path / mode).mkdir()
        proc = subprocess.run([sys.executable, "-c", EVERY_COMMAND, mode], cwd=tmp_path / mode, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        files = {path.name: path.read_bytes() for path in sorted((tmp_path / mode).iterdir())}
        runs[mode] = proc.stdout.splitlines(), files
    (blocked, blocked_files), (installed, installed_files) = runs["blocked"], runs["installed"]
    assert blocked[-1] == "minimize: ImportError" and installed[-1] == "minimize: read"
    assert blocked[:-1] == installed[:-1] and blocked_files == installed_files
    assert [line.split("] ")[1].split()[0] for line in blocked[:6]] == ["0"] * 6
    assert sorted(blocked_files) == ["fuzz.csv", "h6.json", "paper.json", "scan.csv", "w4-report.json", "w4.json"]
