"""Concurrence-family entanglement measures.

For a pure state split across a bipartition, the concurrence is
``sqrt(2 (1 - Tr rho_left^2))``.  For two-qubit mixed states the closed forms
of the convex-roof minimum (Wootters) and maximum (concurrence of assistance)
are both functions of the same spectrum: the descending square roots
``lambda_i`` of the eigenvalues of ``rho @ spin_flip(rho)``.
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, Partition, PureState, linear_entropy, partial_trace

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


def tau_matrix(matrix: np.ndarray) -> np.ndarray:
    """Symmetric matrix tau_jk = sqrt(mu_j mu_k) <e_j*|YY|e_k> on the support of rho.

    Its singular values are the lambda spectrum of the two-qubit closed
    forms, and ``sum_i |(V tau V^T)_ii|`` is the ensemble-average pure-state
    concurrence of the decomposition encoded by the isometry ``V``.
    """
    b = _cleaned_root(matrix)
    return b.T @ SPIN_FLIP_YY @ b


def lambda_spectrum(dm: DensityMatrix) -> np.ndarray:
    """Descending lambda_i, padded with zeros to length 4."""
    if dm.n_qubits != 2:
        raise ValueError(f"lambda spectrum is defined for 2 qubits, got {dm.n_qubits}")
    s = np.linalg.svd(tau_matrix(dm.matrix), compute_uv=False)
    out = np.zeros(4)
    out[: len(s)] = s
    return out


def _wootters(l: np.ndarray) -> float:
    return float(max(0.0, l[0] - l[1] - l[2] - l[3]))


def _assistance(l: np.ndarray) -> float:
    return float(np.sum(l))


def wootters_concurrence(dm: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence max(0, l1 - l2 - l3 - l4)."""
    return _wootters(lambda_spectrum(dm))


def concurrence_of_assistance(dm: DensityMatrix) -> float:
    """Two-qubit concurrence of assistance l1 + l2 + l3 + l4."""
    return _assistance(lambda_spectrum(dm))


class MarginalTable:
    """The marginals of one pure state and the squared concurrences they give.

    Every monogamy bound is arithmetic over these entries.  Each marginal is
    traced once and each pair's lambda spectrum computed once, on first use,
    so a quantity asked for alone costs no more than computing it directly.
    """

    def __init__(self, state: PureState):
        self.state = state
        self.n_qubits = state.n_qubits
        self._marginals = {}
        self._pairs = {}

    def marginal(self, qubits) -> DensityMatrix:
        key = tuple(sorted(qubits))
        if key not in self._marginals:
            self._marginals[key] = partial_trace(self.state, key)
        return self._marginals[key]

    def pair(self, i: int, j: int):
        """(C^2, C_a^2) of the two-qubit marginal of qubits i and j."""
        key = (i, j) if i < j else (j, i)
        if key not in self._pairs:
            l = lambda_spectrum(self.marginal(key))
            self._pairs[key] = (_wootters(l) ** 2, _assistance(l) ** 2)
        return self._pairs[key]

    def csq(self, i: int, j: int) -> float:
        return self.pair(i, j)[0]

    def casq(self, i: int, j: int) -> float:
        return self.pair(i, j)[1]

    def cut_sq(self, left) -> float:
        """Squared concurrence of ``left`` versus the rest, reduced over the smaller side."""
        left = frozenset(left)
        right = frozenset(range(self.n_qubits)) - left
        side = left if len(left) <= len(right) else right
        return 2.0 * linear_entropy(self.marginal(side))


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
    return MarginalTable(state).cut_sq(left)


def three_tangle(state: PureState, focus: int) -> float:
    """Residual tangle C^2(focus|rest) - C^2(pair 1) - C^2(pair 2) of a 3-qubit pure state.

    Permutation invariant over the focus choice for pure states.
    """
    if state.n_qubits != 3:
        raise ValueError(f"three-tangle is defined for 3 qubits, got {state.n_qubits}")
    if focus not in (0, 1, 2):
        raise ValueError(f"focus must be a qubit index in 0..2, got {focus}")
    table = MarginalTable(state)
    total = table.cut_sq([focus])
    for other in range(3):
        if other != focus:
            total -= table.csq(focus, other)
    return float(total)
