"""Numerical convex-roof optimization for two-qubit states.

Every pure-state decomposition of a rank-r density matrix is generated by an
m x r isometry V acting on the eigendecomposition: the subnormalized members
are ``|w_i> = sum_j V_ij sqrt(mu_j) |e_j>``.  The ensemble-average concurrence
of that decomposition is ``sum_i |(V tau V^T)_ii|`` with the symmetric tau
matrix from :mod:`qmonogamy.concurrence`, so optimizing over isometries is a
direct numerical evaluation of the convex-roof minimum or maximum.

The search runs Haar-random restarts of sweeps over the row pairs of V.  Each
step rotates one pair of rows by the 2x2 unitary that is exactly optimal for
the pair's 2x2 block of ``V tau V^T``, found from that block's Takagi
factorization (Uhlmann, PRA 62, 032307 (2000); Wootters, PRL 80, 2245
(1998)).  The maximum takes the sum of moduli.  The minimum takes the sum of
squared moduli: its global minimum is attained by the balanced decomposition
that also attains the convex-roof minimum, and it is smooth where the plain
sum has kinks.  Only local 2x2 blocks are factorized, never tau itself, whose
Takagi values are the closed forms this oracle checks.

The settings are fixed: 32 restarts of four-member ensembles, at most 60
sweeps, stopping once each of the four restarts that score best on the swept
objective gains less than 1e-9 in a sweep; the best restart is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concurrence import SPIN_FLIP_YY, _cleaned_root
from .states import DensityMatrix, PureState


def __getattr__(name: str):
    # Only perfbench/spans.py reads ``minimize``, to time a polish stage that no longer
    # exists.  Importing scipy on that read keeps it out of ``import qmonogamy``.
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize

    return minimize


RECONSTRUCTION_ATOL = 1e-8
MEMBER_PROB_CUTOFF = 1e-12
RESTARTS = 32
LEADERS = 4  # the best-scoring restarts the stop test waits for
# Four members: Wootters' decomposition attaining the minimum has four
# (PRL 80, 2245 (1998)), and a rank-3 separable mixture can need all four.
ENSEMBLE_SIZE = 4
MAX_SWEEPS = 60
STOP_GAIN = 1e-9


@dataclass(frozen=True)
class EnsembleDecomposition:
    """Pure-state ensemble realizing a two-qubit density matrix.

    ``sweeps`` and ``converged`` are set by :func:`convex_roof_optimize`: the
    sweeps it used, and whether its stop test fired within ``MAX_SWEEPS``.
    ``converged`` bounds no error: the minimize stop test reads gains of the
    squared sum, which on separable inputs fall below ``STOP_GAIN`` while the
    returned value is still ~1e-5 above 0.
    """

    qubit_labels: tuple
    members: tuple  # of (probability, PureState) pairs
    sweeps: int | None = None
    converged: bool | None = None

    def __post_init__(self):
        probs = np.array([p for p, _ in self.members])
        if len(probs) == 0 or np.any(probs <= 0) or np.any(probs > 1 + 1e-12):
            raise ValueError("member probabilities must lie in (0, 1]")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

    def mixture(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for p, psi in self.members:
            out += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return out

    def average_concurrence(self) -> float:
        return float(
            sum(p * abs(psi.amplitudes @ SPIN_FLIP_YY @ psi.amplitudes) for p, psi in self.members)
        )

    def reconstruction_error(self, dm: DensityMatrix) -> float:
        return float(np.max(np.abs(self.mixture() - dm.matrix)))


def _haar_isometries(count: int, m: int, r: int, rng) -> np.ndarray:
    z = rng.standard_normal((count, m, r)) + 1j * rng.standard_normal((count, m, r))
    q, _ = np.linalg.qr(z)
    return q


# Takes diag(s1, s2) to a block with off-diagonal entries (s1 + s2) / 2.
_BALANCE = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)


def _score(diag: np.ndarray, mode: str) -> np.ndarray:
    """What the search maximizes over the diagonal of V tau V^T (last axis).

    Maximize: the sum of moduli.  Minimize: minus the sum of squared moduli.
    """
    if mode == "maximize":
        return np.abs(diag).sum(axis=-1)
    return -(np.abs(diag) ** 2).sum(axis=-1)


def _pair_unitaries(block: np.ndarray, mode: str) -> np.ndarray:
    """Optimal 2x2 unitaries U for a stack of complex-symmetric 2x2 blocks B.

    With the Takagi factorization B = W diag(s1, s2) W^T, ``U = W^H`` gives
    ``|m_pp| + |m_qq| = s1 + s2`` in ``U B U^T``, the most any U gives, and
    ``U = BALANCE W^H`` the largest ``|m_pq|``, ``(s1 + s2) / 2``, hence
    (the Frobenius norm being fixed) the least ``|m_pp|^2 + |m_qq|^2``.
    An eigenvector ``[x; y]`` of ``[[Re B, Im B], [Im B, -Re B]]`` (spectrum
    ``+-s1, +-s2``) for eigenvalue s has ``B conj(w) = s w`` for
    ``w = x + iy``; the two largest give a unitary W also when s1 = s2 or
    s2 = 0.  That holds only for exactly symmetric B, so rounding asymmetry
    is averaged out first.  A zero block keeps ``U = I``.
    """
    block = (block + block.swapaxes(-1, -2)) / 2
    h = np.empty(block.shape[:-2] + (4, 4))
    h[..., :2, :2] = block.real
    h[..., :2, 2:] = block.imag
    h[..., 2:, :2] = block.imag
    h[..., 2:, 2:] = -block.real
    _, vec = np.linalg.eigh(h)
    u = (vec[..., :2, 2:] + 1j * vec[..., 2:, 2:]).conj().swapaxes(-1, -2)
    if mode == "minimize":
        u = _BALANCE @ u
    u[~np.any(block, axis=(-2, -1))] = np.eye(2)
    return u


def _sweep(v, tau, mode):
    """One exact optimizing step per row pair of V, vectorized over restarts."""
    for p in range(v.shape[1]):
        for q in range(p + 1, v.shape[1]):
            w = v[:, [p, q]]
            v[:, [p, q]] = _pair_unitaries(w @ tau @ w.swapaxes(1, 2), mode) @ w


def _diag(v, tau) -> np.ndarray:
    """The diagonal of V tau V^T over a stack of isometries V (last axis)."""
    return np.einsum("sir,rt,sit->si", v, tau, v)


def convex_roof_optimize(dm: DensityMatrix, mode: str, seed=0):
    """Best ensemble-average concurrence found over decompositions of ``dm``.

    Returns ``(value, EnsembleDecomposition)`` where the value is recomputed
    from the returned decomposition, so it is an attained average concurrence
    whatever the optimizer did.  ``mode`` is ``"minimize"`` or ``"maximize"``.
    """
    if mode not in ("minimize", "maximize"):
        raise ValueError(f"mode must be 'minimize' or 'maximize', got {mode!r}")
    if dm.n_qubits != 2:
        raise ValueError(f"convex roof optimization is for 2-qubit states, got {dm.n_qubits}")
    rng = np.random.default_rng(seed)

    basis = _cleaned_root(dm.matrix)  # columns sqrt(mu_j)|e_j> on the support
    if basis.shape[1] == 1:
        psi = basis[:, 0] / np.linalg.norm(basis[:, 0])
        decomposition = EnsembleDecomposition(dm.qubit_labels, ((1.0, PureState(2, psi)),), 0, True)
        return decomposition.average_concurrence(), decomposition

    tau = basis.T @ SPIN_FLIP_YY @ basis  # the tau of concurrence.lambda_spectra

    v = _haar_isometries(RESTARTS, ENSEMBLE_SIZE, basis.shape[1], rng)
    score = _score(_diag(v, tau), mode)
    for sweeps in range(1, MAX_SWEEPS + 1):
        _sweep(v, tau, mode)
        gain = _score(_diag(v, tau), mode) - score
        score += gain
        converged = bool(np.all(gain[np.argsort(score)[-LEADERS:]] < STOP_GAIN))
        if converged:
            break

    best = _score(_diag(v, tau), "maximize")
    best_v = v[np.argmax(best if mode == "maximize" else -best)]

    members = []
    for row in best_v:
        w = basis @ row  # subnormalized member in the full 4-dim space
        p = float(np.vdot(w, w).real)
        if p > MEMBER_PROB_CUTOFF:
            members.append((p, PureState(2, w / np.sqrt(p))))
    total = sum(p for p, _ in members)
    members = tuple((p / total, psi) for p, psi in members)
    decomposition = EnsembleDecomposition(dm.qubit_labels, members, sweeps, converged)
    err = decomposition.reconstruction_error(dm)
    if err > RECONSTRUCTION_ATOL:
        raise RuntimeError(
            f"optimizer produced a decomposition off by {err:.3e} from the input state"
        )
    return decomposition.average_concurrence(), decomposition
