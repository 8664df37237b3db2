"""Test helpers shared by several test modules: pair values read one state at a time, sparse states, the
amplitude stack a ``MarginalTable`` takes, random two-qubit mixtures and Haar unitaries.

Up to 4 qubits a ``MarginalTable`` takes each pair's lambda spectrum from the
pair's (4, 2^(n-2)) amplitude block M, a factor of its marginal rho = M M^H,
zero padded to 4 columns at n = 3.  From 5 qubits it takes it from rho, as
``lambda_spectrum`` does.  ``pair_sq`` follows the same rule for one state,
so a reference that reads it gets the table's bits at every n.
"""

import numpy as np

from qmonogamy import DensityMatrix, PureState, concurrence_of_assistance, partial_trace, wootters_concurrence
from qmonogamy.concurrence import _assistance, _factor_spectra, _wootters


def amplitude_block(state, i, j):
    """The amplitudes of ``state`` as a 4x4 matrix: rows |q_i q_j>, the other qubits in order along the
    columns, zero padded at n = 3."""
    block = np.zeros((4, 4), dtype=complex)
    block[:, : 2 ** (state.n_qubits - 2)] = np.moveaxis(
        state.amplitudes.reshape((2,) * state.n_qubits), (i, j), (0, 1)).reshape(4, -1)
    return block


def pair_sq(state, i, j):
    """(C^2, C_a^2) of the qubits i < j as Python floats, by the route a ``MarginalTable`` of the state takes."""
    if state.n_qubits <= 4:
        l = _factor_spectra(amplitude_block(state, i, j))
        return float(_wootters(l)) ** 2, float(_assistance(l)) ** 2
    dm = partial_trace(state, [i, j])
    return wootters_concurrence(dm) ** 2, concurrence_of_assistance(dm) ** 2


def sparse_state(n, rng, labels):
    """Complex Gaussian amplitudes on 2-4 of the given basis labels, where the bounds saturate."""
    amps = np.zeros(2**n, dtype=complex)
    support = rng.choice(labels, rng.integers(2, min(4, len(labels)) + 1), replace=False)
    amps[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return PureState(n, amps / np.linalg.norm(amps))


def stacked(states):
    """The (B, 2^n) amplitude stack of ``states``, as a ``MarginalTable`` takes it."""
    return np.stack([state.amplitudes for state in states])


def random_two_qubit_mixed(rng, rank):
    """A random two-qubit density matrix of the given rank: a weighted sum of ``rank`` complex Gaussian projectors."""
    m = np.zeros((4, 4), dtype=complex)
    for _ in range(rank):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m += rng.uniform(0.2, 1.0) * np.outer(v, v.conj())
    m /= np.trace(m).real
    return DensityMatrix((0, 1), m)


def random_unitary(rng, k):
    """A Haar-random k x k unitary: QR's Q with R's diagonal made positive."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
