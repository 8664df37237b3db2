"""Concurrence-family entanglement measures.

For a pure state split across a bipartition, the concurrence is
``sqrt(2 (1 - Tr rho_left^2))``.  For two-qubit mixed states the closed forms
of the convex-roof minimum (Wootters) and maximum (concurrence of assistance)
are both functions of the same spectrum: the descending square roots
``lambda_i`` of the eigenvalues of ``rho @ spin_flip(rho)``, which for any
factor F with rho = F F^H are the singular values of ``F^T YY F``.
``MarginalTable`` holds these values, and the purities the bounds read, for a
stack of pure states: it gathers the amplitude blocks M of same-size marginals
through a cached index and forms their rho = M M^H by one batched matmul a gather.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .states import MAX_QUBITS, DensityMatrix, Partition, PureState, _admit, _check_floor, _qubits

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


def _factor_spectra(factor: np.ndarray) -> np.ndarray:
    """Descending lambda spectra of rho = F F^H from a stack ``(..., 4, 4)`` of factors F."""
    return np.linalg.svd(factor.swapaxes(-1, -2) @ SPIN_FLIP_YY @ factor, compute_uv=False)


def lambda_spectra(rho: np.ndarray):
    """Eigenvalues and descending lambda spectra of a stack ``(..., 4, 4)`` of Hermitian two-qubit matrices."""
    w, root = _support_root(rho)
    return w, _factor_spectra(root)


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


# A gather holds as many marginals as fit in this many amplitudes (256 KiB), at least one, so it stays in cache: on
# 2 CPUs with one BLAS thread, all 66 pairs in one gather made a fill at n = 12 take 5.2-5.7 ms for a stack of one
# and 280-318 ms for a stack of 64, against 2.5-3.0 and 159-164 ms in groups.
_GATHER_ELEMENTS = 2**14


def _block_index(n: int, keeps: tuple) -> np.ndarray:
    """Where each subset's block M[r, c] lies among the 2^n amplitudes, (K, 2^k, 2^(n-k)), r over its qubits and c
    over the others in ascending order, in the smallest dtype that holds every index below 2^MAX_QUBITS."""
    positions = np.arange(2**n, dtype=np.min_scalar_type(2**MAX_QUBITS - 1)).reshape((2,) * n)
    orders = [list(keep) + [q for q in range(n) if q not in keep] for keep in keeps]
    return np.stack([positions.transpose(order).reshape(2 ** len(keeps[0]), -1) for order in orders])


@cache
def _family_index(n: int, k: int) -> tuple:
    """Every k-qubit subset of ``n`` qubits in ``combinations`` (at k = 2, ``pair_index``) order, and their index."""
    keeps = tuple(combinations(range(n), k))
    index = _block_index(n, keeps)
    index.flags.writeable = False
    return keeps, index


class MarginalTable:
    """The marginals of a stack of B pure states and the squared concurrences they give.

    Each marginal is traced on first use, once for the stack, and admitted as ``DensityMatrix`` admits a matrix:
    trace rule, Hermitian part, PSD floor.  Same-size marginals are traced together, ``_GATHER_ELEMENTS`` at a time:
    one ``np.take`` through a cached index gathers their amplitude blocks M and one batched matmul forms rho = M M^H.
    ``pair_sq`` fills every pair with one ``svd`` over the stack.  Up to 4 qubits it factors rho = M M^H by each
    pair's block M, zero padded to 4 columns, and runs no ``eigh``; from 5 it takes the ``eigh`` root of rho.
    LAPACK factors each matrix on its own, so state b gets what it gets alone.
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
        if n <= 4:  # M has at most 4 columns; from 5 qubits the eigh route is faster (measured)
            _, m = self._marginals(pairs, blocks=True)
            factor = np.zeros(m.shape[:-1] + (4,), dtype=complex)  # zero padded to 4 columns
            factor[..., : m.shape[-1]] = m
            l = _factor_spectra(factor)
        else:
            w, l = lambda_spectra(self._marginals(pairs))
            _check_floor(w)
        sq = np.zeros((2, len(self.states), n, n))
        # float_power is the C library's pow, as Python's float ** is; the ** of arrays multiplies
        sq[:, :, i, j] = sq[:, :, j, i] = np.float_power([_wootters(l), _assistance(l)], 2)
        return sq[0], sq[1]

    def _marginals(self, keeps: tuple, blocks=False):
        """Reduced matrices rho = M M^H of the same-size subsets ``keeps`` over the stack, (B, K, 2^k, 2^k), and
        with ``blocks`` the amplitude blocks M too, (B, K, 2^k, 2^(n-k)); stores their purities."""
        n, size = self.n_qubits, len(self.states)
        family, index = _family_index(n, len(keeps[0])) if len(keeps[0]) <= 2 else ((), None)
        index = index if keeps == family else _block_index(n, keeps)
        group = max(1, _GATHER_ELEMENTS // (size << n))
        rho, gathered = [], []
        for start in range(0, len(keeps), group):
            m = np.take(self.amplitudes, index[start : start + group], axis=1)
            rho.append(_admit(m @ m.conj().swapaxes(-1, -2)))
            if blocks:
                gathered.append(m)
        rho = np.concatenate(rho, axis=1)
        flat = rho.reshape(size, len(keeps), 1, -1)
        # a row-times-column matmul gives np.vdot's purity bit for bit; einsum does not
        self._purities.update(zip(keeps, (flat.conj() @ flat.swapaxes(-1, -2))[..., 0, 0].real.T))
        return (rho, np.concatenate(gathered, axis=1)) if blocks else rho

    def linear_entropies(self, subsets) -> np.ndarray:
        """1 - Tr rho^2 of each subset's marginal, as ``states.linear_entropy`` gives it: (B, len(subsets))."""
        keys = [tuple(sorted(qubits)) for qubits in subsets]
        missing = [key for key in dict.fromkeys(keys) if key not in self._purities]
        for k in dict.fromkeys(map(len, missing)):  # one trace of each size's subsets
            _check_floor(np.linalg.eigvalsh(self._marginals(tuple(key for key in missing if len(key) == k))))
        return np.maximum(0.0, 1.0 - np.array([self._purities[key] for key in keys]).T)

    def cut_sq(self, *lefts) -> np.ndarray:
        """Squared concurrence of each ``left`` versus the rest, reduced over the smaller side, (B, len(lefts)).  Internal:
        it judges no ``left``, as the bounds pass fixed role sets and ``pure_concurrence_sq`` a set it has judged."""
        n = self.n_qubits
        return 2.0 * self.linear_entropies([left if 2 * len(left) <= n else set(range(n)) - set(left) for left in lefts])


def concurrence_pure(state: PureState, partition: Partition) -> float:
    """Bipartite concurrence of a pure state across ``partition``.

    The partition must cover every qubit of the state.  The reduction is
    taken over the smaller side; the value is symmetric in the two sides.
    """
    if partition.left | partition.right != frozenset(range(state.n_qubits)):
        raise ValueError("partition must cover all qubits of the state")
    return float(np.sqrt(pure_concurrence_sq(state, partition.left)))


def pure_concurrence_sq(state: PureState, left) -> float:
    """Squared concurrence of ``left`` versus the remaining qubits; ``left`` is judged here, not in ``cut_sq``."""
    n = state.n_qubits
    left = _qubits(left, f"left (a proper subset of the {n} qubits)", range(n))
    if len(left) == n:
        raise ValueError(f"left must be a proper subset of the {n} qubits, got all of them")
    return float(MarginalTable([state]).cut_sq(left)[0, 0])


def three_tangle(state: PureState, focus: int) -> float:
    """Residual tangle C^2(focus|rest) - C^2(pair 1) - C^2(pair 2) of a 3-qubit pure state.

    Permutation invariant over the focus choice for pure states.
    """
    if state.n_qubits != 3:
        raise ValueError(f"three-tangle is defined for 3 qubits, got {state.n_qubits}")
    (focus,) = _qubits([focus], "focus", range(3))
    table = MarginalTable([state])
    total = float(table.cut_sq([focus])[0, 0])
    for csq in table.pair_sq[0][0, focus].tolist():  # C^2(focus, focus) is the table's zero diagonal
        total -= csq
    return total
