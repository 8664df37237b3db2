"""Concurrence-family entanglement measures.

For a pure state split across a bipartition, the concurrence is
``sqrt(2 (1 - Tr rho_left^2))``.  For two-qubit mixed states the closed forms
of the convex-roof minimum (Wootters) and maximum (concurrence of assistance)
are both functions of the same spectrum: the descending square roots
``lambda_i`` of the eigenvalues of ``rho @ spin_flip(rho)``: the singular
values of the symmetric ``tau_jk = sqrt(mu_j mu_k) <e_j*|YY|e_k>`` on rho's support.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .states import PSD_FLOOR, TRACE_ATOL, DensityMatrix, Partition, PureState

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP_YY = np.kron(SIGMA_Y, SIGMA_Y).real  # real symmetric 4x4

# Eigenvalues of a density matrix below this cutoff are treated as exact
# zeros so that square roots never amplify O(1e-16) noise into O(1e-8).
RANK_CUTOFF = 1e-12


def spin_flip(dm: DensityMatrix) -> np.ndarray:
    """Two-qubit spin-flipped matrix (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    if dm.n_qubits != 2:
        raise ValueError(f"spin flip is defined for 2 qubits, got {dm.n_qubits}")
    return SPIN_FLIP_YY @ dm.matrix.conj() @ SPIN_FLIP_YY


def _cleaned_root(matrix: np.ndarray):
    """Eigenvectors scaled by sqrt of eigenvalues, zero modes dropped."""
    w, u = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    keep = w > RANK_CUTOFF
    return u[:, keep] * np.sqrt(w[keep])


def lambda_spectra(rho: np.ndarray):
    """Eigenvalues and descending lambda spectra of a stack ``(..., 4, 4)`` of two-qubit matrices."""
    w, u = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    root = u * np.sqrt(np.where(w > RANK_CUTOFF, w, 0.0))[..., None, :]
    rank = np.count_nonzero(w > RANK_CUTOFF, axis=-1)
    l = np.zeros(w.shape)
    # one batch per rank k: tau on the last k modes (eigh sorts ascending), as if alone
    for k in set(rank.flat) - {0}:
        b = root[rank == k][..., 4 - k :]
        l[rank == k, :k] = np.linalg.svd(b.swapaxes(-1, -2) @ SPIN_FLIP_YY @ b, compute_uv=False)
    return w, l


def lambda_spectrum(dm: DensityMatrix) -> np.ndarray:
    """Descending lambda_i, padded with zeros to length 4."""
    if dm.n_qubits != 2:
        raise ValueError(f"lambda spectrum is defined for 2 qubits, got {dm.n_qubits}")
    return lambda_spectra(dm.matrix)[1]


def _wootters(l: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, l[..., 0] - l[..., 1] - l[..., 2] - l[..., 3])


def _assistance(l: np.ndarray) -> np.ndarray:
    return np.sum(l, axis=-1)


def wootters_concurrence(dm: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence max(0, l1 - l2 - l3 - l4)."""
    return float(_wootters(lambda_spectrum(dm)))


def concurrence_of_assistance(dm: DensityMatrix) -> float:
    """Two-qubit concurrence of assistance l1 + l2 + l3 + l4."""
    return float(_assistance(lambda_spectrum(dm)))


def _check_floor(eigenvalues: np.ndarray):
    if eigenvalues.min() < PSD_FLOOR:
        raise ValueError(f"marginal has eigenvalue {eigenvalues.min()} below the PSD noise floor")


class MarginalTable:
    """The marginals of a stack of pure states and the squared concurrences they give.

    Each marginal is traced on first use, once for the stack, and checked as a
    ``DensityMatrix`` is (trace, PSD floor); the first pair entry asked for fills
    every pair, with one ``lambda_spectra`` call.  ``rows[b]`` is what the bound
    arithmetic reads of state b, which does not depend on the rest of the stack.
    """

    def __init__(self, states):
        self.states = list(states)
        n = self.n_qubits = self.states[0].n_qubits
        self._tensor = np.stack([s.amplitudes for s in self.states]).reshape((-1,) + (2,) * n)
        self._purities = {}
        self.rows = [TableRow(self, b) for b in range(len(self.states))]

    @cached_property
    def pairs(self) -> list:
        """Per state, ``{(i, j): (C^2, C_a^2)}`` over all pairs i < j."""
        pairs = [(i, j) for i in range(self.n_qubits) for j in range(i + 1, self.n_qubits)]
        w, l = lambda_spectra(np.stack([self._marginal(pair) for pair in pairs], axis=1))
        _check_floor(w)
        csq, casq = _wootters(l).tolist(), _assistance(l).tolist()
        return [{p: (c**2, a**2) for p, c, a in zip(pairs, cs, As)} for cs, As in zip(csq, casq)]

    def _marginal(self, keep: tuple) -> np.ndarray:
        """Reduced matrices of the qubits ``keep`` over the stack; stores their purities."""
        order = [0] + [1 + q for q in keep] + [1 + q for q in range(self.n_qubits) if q not in keep]
        m = self._tensor.transpose(order).reshape(len(self.states), 2 ** len(keep), -1)
        rho = m @ m.conj().swapaxes(-1, -2)
        rho = (rho + rho.conj().swapaxes(-1, -2)) / 2
        off = float(abs(rho.trace(axis1=-2, axis2=-1) - 1.0).max())
        if off > TRACE_ATOL:
            raise ValueError(f"marginal trace deviates from 1 by {off}, beyond tolerance")
        flat = rho.reshape(len(m), 1, -1)
        # a row-times-column matmul gives np.vdot's purity bit for bit; einsum does not
        self._purities[keep] = (flat.conj() @ flat.swapaxes(-1, -2))[:, 0, 0].real.tolist()
        return rho


class TableRow:
    """The entries of state ``b`` of a ``MarginalTable``."""

    def __init__(self, table: MarginalTable, b: int):
        self.table, self.b, self.n_qubits, self.state = table, b, table.n_qubits, table.states[b]

    def csq(self, i: int, j: int) -> float:
        return self.table.pairs[self.b][(i, j) if i < j else (j, i)][0]

    def casq(self, i: int, j: int) -> float:
        return self.table.pairs[self.b][(i, j) if i < j else (j, i)][1]

    def linear_entropy(self, qubits) -> float:
        """1 - Tr rho^2 of the marginal of ``qubits``, as ``states.linear_entropy`` gives it."""
        key = tuple(sorted(qubits))
        if key not in self.table._purities:
            _check_floor(np.linalg.eigvalsh(self.table._marginal(key)))
        return max(0.0, 1.0 - self.table._purities[key][self.b])

    def cut_sq(self, left) -> float:
        """Squared concurrence of ``left`` versus the rest, reduced over the smaller side."""
        left, everything = frozenset(left), frozenset(range(self.n_qubits))
        if not left or not left < everything:
            raise ValueError(f"left must be a non-empty proper subset of the {self.n_qubits} qubits")
        right = everything - left
        return 2.0 * self.linear_entropy(left if len(left) <= len(right) else right)


def concurrence_pure(state: PureState, partition: Partition) -> float:
    """Bipartite concurrence of a pure state across ``partition``.

    The partition must cover every qubit of the state.  The reduction is
    taken over the smaller side; the value is symmetric in the two sides.
    """
    if partition.left | partition.right != frozenset(range(state.n_qubits)):
        raise ValueError("partition must cover all qubits of the state")
    return float(np.sqrt(pure_concurrence_sq(state, partition.left)))


def pure_concurrence_sq(state: PureState, left) -> float:
    """Squared concurrence of ``left`` versus the remaining qubits."""
    return MarginalTable([state]).rows[0].cut_sq(left)


def three_tangle(state: PureState, focus: int) -> float:
    """Residual tangle C^2(focus|rest) - C^2(pair 1) - C^2(pair 2) of a 3-qubit pure state.

    Permutation invariant over the focus choice for pure states.
    """
    if state.n_qubits != 3:
        raise ValueError(f"three-tangle is defined for 3 qubits, got {state.n_qubits}")
    if focus not in (0, 1, 2):
        raise ValueError(f"focus must be a qubit index in 0..2, got {focus}")
    table = MarginalTable([state]).rows[0]
    total = table.cut_sq([focus])
    for other in range(3):
        if other != focus:
            total -= table.csq(focus, other)
    return float(total)
