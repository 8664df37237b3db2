"""Numerical convex-roof optimization for two-qubit states.

Every pure-state decomposition of a rank-r density matrix is generated by an
m x r isometry V acting on the eigendecomposition: the subnormalized members
are ``|w_i> = sum_j V_ij sqrt(mu_j) |e_j>``.  The ensemble-average concurrence
of that decomposition is ``sum_i |(V tau V^T)_ii|`` with the symmetric tau
matrix from :mod:`qmonogamy.concurrence`, so optimizing over isometries is a
direct numerical evaluation of the convex-roof minimum or maximum.

The search runs Haar-random restarts of sweeps over the row pairs of V.  A
sweep steps the pairs in cyclic order (0, 1), (0, 2), ..., (m - 2, m - 1),
started at (0, 2).  One (0, 1) step on the restarts opens the order, so they
take the steps of sweeps started at (0, 1), each sweep ending on the next
one's opening step.  Steps on disjoint rows commute exactly, so a step that
shares no row with the round before it joins that round, and each round runs
as one vectorized step.  A four-member sweep is the four rounds ``_ROUNDS``,
(0, 2) | (0, 3) + (1, 2) | (1, 3) | (2, 3) + (0, 1), with the bits of the six
steps taken one by one.

Each step rotates one pair of rows by the 2x2 unitary that is exactly optimal
for the pair's 2x2 block of ``V tau V^T`` (Uhlmann, PRA 62, 032307 (2000);
Wootters, PRL 80, 2245 (1998)).  That unitary is in closed form: an SU(2)
rotation of the pair turns a complex 3-vector built from the block's three
entries by a real rotation, and the optimal one takes a real axis read off
that vector to e_z.  A step is thus a few elementwise operations over the
restarts, with no LAPACK call.  The maximum takes the sum of moduli.  The
minimum takes the sum of squared moduli: its global minimum is attained by
the balanced decomposition that also attains the convex-roof minimum, and it
is smooth where the plain sum has kinks.  Only local 2x2 blocks are
factorized, never tau itself, whose Takagi values are the closed forms this
oracle checks.

The settings are fixed: 32 restarts of four-member ensembles, at most 60
sweeps, stopping once each of the four restarts that score best on the swept
objective gains less than 1e-9 in a sweep; the best restart is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concurrence import SPIN_FLIP_YY, _support_root
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
_TINY = np.finfo(float).tiny


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
    q, r_ = np.linalg.qr(z)
    d = np.diagonal(r_, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]  # Haar only once R's diagonal is made positive


def _score(diag: np.ndarray, mode: str) -> np.ndarray:
    """What the search maximizes over the diagonal of V tau V^T (last axis).

    Maximize: the sum of moduli.  Minimize: minus the sum of squared moduli.
    """
    if mode == "maximize":
        return np.abs(diag).sum(axis=-1)
    return -(np.abs(diag) ** 2).sum(axis=-1)


def _pair_rotation(a, b, c, mode: str):
    """The optimal pair step ``U = [[ch, conj(s)], [-s, ch]]`` for blocks ``[[a, b], [b, c]]``.

    a, b and c are arrays over a stack of complex-symmetric 2x2 blocks B; ch
    is real.  For U in SU(2), ``U B U^T = (U B sigma_y U^H) sigma_y``, so with
    ``B sigma_y = w . sigma``, ``w = (i(c - a)/2, (a + c)/2, ib)``, U turns w
    by a real rotation, and the new block is ``[[y + ix, -iz], [-iz, y - ix]]``
    for the turned ``w = (x, y, z)``.  Phased by ``exp(-i arg(w . w)/2)``,
    where ``w . w = det B``, w is p + iq with p and q real and orthogonal,
    ``|p| = (s1 + s2)/2`` and ``|q| = (s1 - s2)/2`` for the Takagi values
    s1 >= s2 of B.  Minimize turns p to e_z: then ``|m_pq| = (s1 + s2)/2``,
    the most any U gives, hence (the Frobenius norm being fixed) the least
    ``|m_pp|^2 + |m_qq|^2``.  Maximize turns p x q, or an axis normal to p
    when q = 0, to e_z: the block becomes diagonal with
    ``|m_pp| + |m_qq| = s1 + s2``, the most any U gives.  The U that turns a
    unit r with r_z >= 0 to e_z has ``ch = sqrt((1 + r_z)/2)`` and
    ``s = (r_x + i r_y)/(2 ch)``; turning -r serves as well, so r's sign is
    flipped where r_z < 0.  Each block is first divided by |a| + |b| + |c|,
    so tiny blocks do not underflow in the products; a zero block keeps
    U = I.
    """
    size = np.abs(a) + np.abs(b) + np.abs(c)
    zero = size == 0
    # floored at the least normal float: dividing complex by real takes the reciprocal
    size = np.maximum(size, _TINY)
    a, b, c = a / size, b / size, c / size
    phase = np.exp(-0.5j * np.angle(a * c - b * b))
    x, y, z = phase * (0.5j * (c - a)), phase * (0.5 * (a + c)), phase * (1j * b)
    px, py, pz = x.real, y.real, z.real
    if mode == "minimize":
        nx, ny, nz = px, py, pz
    else:
        qx, qy, qz = x.imag, y.imag, z.imag
        nx, ny, nz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
        flat = (nx == 0) & (ny == 0) & (nz == 0)
        if flat.any():  # q = 0: p x e_x, or p x e_y where p is nearer e_x than e_y
            use_x = np.abs(px) <= np.abs(py)
            nx = np.where(flat, np.where(use_x, 0, -pz), nx)
            ny = np.where(flat, np.where(use_x, pz, 0), ny)
            nz = np.where(flat, np.where(use_x, -py, px), nz)
    nz = nz + zero  # a zero block turns e_z to e_z
    unit = np.copysign(1 / np.hypot(np.hypot(nx, ny), nz), nz)
    ch = np.sqrt(0.5 + 0.5 * (nz * unit))
    return ch, (nx * unit + 1j * (ny * unit)) / (2 * ch)


# The four-member sweep's rounds (see the module docstring), each the first and the second rows of its pairs.
_ROUNDS = tuple((np.array(ps), np.array(qs)) for ps, qs in (([0], [2]), ([0, 1], [3, 2]), ([1], [3]), ([2, 0], [3, 1])))


def _step(v, p, q, tau, mode):
    """The exact optimizing step on the disjoint row pairs (p[i], q[i]) of V, vectorized over restarts and pairs."""
    rows = v.swapaxes(0, 1)  # (m, S, r): the pairs' rows gather as (k, S, r) blocks
    vp, vq = rows[p], rows[q]
    tp = vp @ tau
    a, b, c = (tp * vp).sum(-1), (tp * vq).sum(-1), ((vq @ tau) * vq).sum(-1)
    ch, s = _pair_rotation(a.ravel(), b.ravel(), c.ravel(), mode)  # 1-D: the cheapest ufunc loops
    ch, s = ch.reshape(a.shape + (1,)), s.reshape(a.shape + (1,))
    rows[p], rows[q] = ch * vp + s.conj() * vq, ch * vq - s * vp


def _sweep(v, tau, mode):
    """One exact optimizing step per row pair of a four-row V, one vectorized step per round."""
    for p, q in _ROUNDS:
        _step(v, p, q, tau, mode)


def _diag(v, tau) -> np.ndarray:
    """The diagonal of V tau V^T over a stack of isometries V (last axis)."""
    return ((v.reshape(-1, v.shape[-1]) @ tau).reshape(v.shape) * v).sum(-1)


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

    root = _support_root(dm.matrix)[1]
    basis = root[:, root.any(axis=0)]  # the nonzero columns sqrt(mu_j)|e_j> span the support
    if basis.shape[1] == 1:
        psi = basis[:, 0] / np.linalg.norm(basis[:, 0])
        decomposition = EnsembleDecomposition(dm.qubit_labels, ((1.0, PureState(2, psi)),), 0, True)
        return decomposition.average_concurrence(), decomposition

    tau = basis.T @ SPIN_FLIP_YY @ basis  # the tau of concurrence.lambda_spectra

    v = _haar_isometries(RESTARTS, ENSEMBLE_SIZE, basis.shape[1], rng)
    _step(v, [0], [1], tau, mode)  # opens the cyclic order; the sweeps continue it from (0, 2)
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
