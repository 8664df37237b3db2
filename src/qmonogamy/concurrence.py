"""Concurrence-family entanglement measures.

For a pure state split across a bipartition, the concurrence is
``sqrt(2 (1 - Tr rho_left^2))``.  For two-qubit mixed states the closed forms
of the convex-roof minimum (Wootters) and maximum (concurrence of assistance)
are both functions of the same spectrum: the descending square roots
``lambda_i`` of the eigenvalues of ``rho @ spin_flip(rho)``: the singular
values of the 4x4 ``tau_jk = sqrt(mu_j mu_k) <e_j*|YY|e_k>``, zero where mu_j or mu_k <= RANK_CUTOFF.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .states import DensityMatrix, Partition, PureState, _admit, _check_floor, _integer

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


def _support_root(rho: np.ndarray):
    """Eigenvalues of a stack of Hermitian matrices, and eigenvectors scaled by sqrt(mu), zero at or below RANK_CUTOFF."""
    w, u = np.linalg.eigh(rho)
    return w, u * np.sqrt(np.where(w > RANK_CUTOFF, w, 0.0))[..., None, :]


def lambda_spectra(rho: np.ndarray):
    """Eigenvalues and descending lambda spectra of a stack ``(..., 4, 4)`` of Hermitian two-qubit matrices."""
    w, root = _support_root(rho)
    return w, np.linalg.svd(root.swapaxes(-1, -2) @ SPIN_FLIP_YY @ root, compute_uv=False)


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


@cache
def pair_index(n: int) -> tuple:
    """The pairs i < j of ``n`` qubits in order: a tuple of ``(i, j)``, and its two index arrays."""
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    i, j = np.array(pairs).T
    i.flags.writeable = j.flags.writeable = False
    return pairs, i, j


class MarginalTable:
    """The marginals of a stack of B pure states and the squared concurrences they give.

    Each marginal is traced on first use, once for the stack, and admitted as ``DensityMatrix``
    admits a matrix: trace rule, Hermitian part, PSD floor.  ``pair_sq`` fills every pair with one ``eigh`` and one
    ``svd`` over the stack; LAPACK factors each matrix on its own, so state b gets what it gets alone.
    """

    def __init__(self, states):
        self.states = list(states)
        self.n_qubits = self.states[0].n_qubits
        self.amplitudes = np.stack([s.amplitudes for s in self.states])  # (B, 2^n)
        self._purities = {}

    @cached_property
    def pair_sq(self) -> tuple:
        """(C^2, C_a^2) of every pair: two symmetric (B, n, n) arrays with zero diagonals."""
        n = self.n_qubits
        pairs, i, j = pair_index(n)
        w, l = lambda_spectra(np.stack([self._marginal(pair) for pair in pairs], axis=1))
        _check_floor(w)
        sq = np.zeros((2, len(self.states), n, n))
        # float_power is the C library's pow, as Python's float ** is; the ** of arrays multiplies
        sq[:, :, i, j] = sq[:, :, j, i] = np.float_power([_wootters(l), _assistance(l)], 2)
        return sq[0], sq[1]

    def _marginal(self, keep: tuple) -> np.ndarray:
        """Reduced matrices of the qubits ``keep`` over the stack; stores their purities."""
        order = [0] + [1 + q for q in keep] + [1 + q for q in range(self.n_qubits) if q not in keep]
        tensor = self.amplitudes.reshape((-1,) + (2,) * self.n_qubits)
        m = tensor.transpose(order).reshape(len(self.states), 2 ** len(keep), -1)
        rho = _admit(m @ m.conj().swapaxes(-1, -2))
        flat = rho.reshape(len(m), 1, -1)
        # a row-times-column matmul gives np.vdot's purity bit for bit; einsum does not
        self._purities[keep] = (flat.conj() @ flat.swapaxes(-1, -2))[:, 0, 0].real
        return rho

    def linear_entropies(self, subsets) -> np.ndarray:
        """1 - Tr rho^2 of each subset's marginal, as ``states.linear_entropy`` gives it: (B, len(subsets))."""
        keys = [tuple(sorted(qubits)) for qubits in subsets]
        for key in keys:
            if key not in self._purities:
                _check_floor(np.linalg.eigvalsh(self._marginal(key)))
        return np.maximum(0.0, 1.0 - np.array([self._purities[key] for key in keys]).T)

    def cut_sq(self, *lefts) -> np.ndarray:
        """Squared concurrence of each ``left`` versus the rest, reduced over the smaller side: (B, len(lefts))."""
        everything, sides = frozenset(range(self.n_qubits)), []
        for left in map(frozenset, lefts):
            if not left or not left < everything:
                raise ValueError(f"left must be a non-empty proper subset of the {self.n_qubits} qubits")
            right = everything - left
            sides.append(left if len(left) <= len(right) else right)
        return 2.0 * self.linear_entropies(sides)


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
    return float(MarginalTable([state]).cut_sq([_integer(q, "qubit index in left") for q in left])[0, 0])


def three_tangle(state: PureState, focus: int) -> float:
    """Residual tangle C^2(focus|rest) - C^2(pair 1) - C^2(pair 2) of a 3-qubit pure state.

    Permutation invariant over the focus choice for pure states.
    """
    if state.n_qubits != 3:
        raise ValueError(f"three-tangle is defined for 3 qubits, got {state.n_qubits}")
    if _integer(focus, "focus") not in (0, 1, 2):
        raise ValueError(f"focus must be a qubit index in 0..2, got {focus}")
    table = MarginalTable([state])
    total = float(table.cut_sq([focus])[0, 0])
    for other in range(3):
        if other != focus:
            total -= float(table.pair_sq[0][0, focus, other])
    return total
