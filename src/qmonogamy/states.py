"""Dense multi-qubit pure states and density matrices.

Qubit ordering convention used throughout the package: qubit 0 is the
leftmost character of a ket label and the most significant bit of the
amplitude index, so ``|1001>`` on four qubits sits at index 9.  Subsystem
roles follow the same order: qubit 0 plays A, qubit 1 plays B and qubit
``i + 1`` plays C_i.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

MAX_QUBITS = 12

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
# Every marginal's trace is ||psi||^2 ~ 1 + 2 (||psi|| - 1), so a norm kept as
# given must stay within TRACE_ATOL / 4, leaving half of TRACE_ATOL for rounding.
NORM_ATOL = TRACE_ATOL / 4
PSD_FLOOR = -1e-10
NORM_BOUND = 1e-6  # a state norm further than this from 1 is rejected, not renormalized


class StateError(ValueError):
    """Rejected amplitude vector or state document; ``code`` names the rule: parse, length, finite, normalization or qubits."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _integer(x, name: str) -> int:
    """``x`` as an ``int``; a float or a boolean is no integer, even if integral."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _qubits(indices, name: str, universe=None) -> tuple:
    """``indices`` as an ascending tuple of distinct non-negative ``int``s, each in ``universe`` if one is given."""
    qubits = tuple(sorted(_integer(q, f"a qubit index in {name}") for q in indices))
    if not qubits or qubits[0] < 0 or len(set(qubits)) < len(qubits):
        raise ValueError(f"{name} must be non-negative, non-empty and distinct (no duplicates), got {list(qubits)}")
    unknown = [q for q in qubits if universe is not None and q not in universe]
    if unknown:
        raise ValueError(f"{name} has unknown qubit indices {unknown}")
    return qubits


def _qubit_count(n, name: str) -> int:
    """``n`` as an ``int`` in [1, MAX_QUBITS]."""
    if not 1 <= _integer(n, name) <= MAX_QUBITS:
        raise StateError("qubits", f"{name} must be in [1, {MAX_QUBITS}], got {n}")
    return int(n)


def _admit(rho):
    """The Hermitian part (rho + rho^H)/2 of a stack of matrices whose traces, as given, pass the trace rule."""
    # |Re tr - 1| and |Im tr| each within TRACE_ATOL; read part by part, which a stack of any memory layout allows
    off = rho.trace(axis1=-2, axis2=-1) - 1.0
    off = np.maximum(np.abs(off.real), np.abs(off.imag)).max()
    if off > TRACE_ATOL:
        raise ValueError(f"trace deviates from 1 by {off}, beyond tolerance")
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def _check_floor(eigenvalues):
    if eigenvalues.min() < PSD_FLOOR:
        raise ValueError(f"eigenvalue {eigenvalues.min()} below the PSD noise floor")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits; each of its admission rules raises a coded ``StateError``."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _qubit_count(self.n_qubits, "n_qubits")
        amps = np.array(self.amplitudes, dtype=complex)  # a copy: the caller's array stays writeable
        if amps.shape != (2**n,):
            raise StateError("length", f"amplitude vector must have length 2**{n} = {2**n}, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise StateError("finite", "amplitudes must be finite numbers, not NaN or Infinity")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_BOUND:
            bound = np.format_float_scientific(NORM_BOUND, trim="-", exp_digits=1)  # 1e-6, not 1e-06
            raise StateError("normalization", f"norm {norm} deviates from 1 by more than {bound}")
        if abs(norm - 1.0) > NORM_ATOL:
            amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix over labeled qubits.

    ``qubit_labels`` records which qubits of the original system the rows and
    columns refer to, in ascending order.  ``matrix`` is stored as the exactly
    Hermitian part of the given one.  Eigenvalues down to ``PSD_FLOOR``
    are tolerated as numerical noise; anything more negative is rejected.
    """

    qubit_labels: tuple
    matrix: np.ndarray

    def __post_init__(self):
        given = tuple(self.qubit_labels)
        labels = _qubits(given, "qubit labels")
        if labels != given:
            raise ValueError(f"qubit labels must be in ascending order, got {list(given)}")
        m = np.array(self.matrix, dtype=complex)  # a copy: the caller's array stays writeable
        dim = 2 ** len(labels)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim} for {len(labels)} qubits, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        m = _admit(m[None])[0]
        _check_floor(np.linalg.eigvalsh(m))
        m.flags.writeable = False
        object.__setattr__(self, "qubit_labels", labels)
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_labels)


@dataclass(frozen=True)
class Partition:
    """Ordered pair of disjoint, non-empty qubit index sets."""

    left: frozenset
    right: frozenset

    def __post_init__(self):
        left, right = frozenset(_qubits(self.left, "left")), frozenset(_qubits(self.right, "right"))
        if left & right:
            raise ValueError(f"partition sides overlap: {sorted(left & right)}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def state_from_basis_terms(n: int, terms: Sequence) -> PureState:
    """Build a normalized state from ``(bit-string label, coefficient)`` terms.

    Labels are length-``n`` strings over {0, 1}; repeated labels accumulate.
    """
    n = _qubit_count(n, "n")
    if not terms:
        raise ValueError("at least one basis term is required")
    amps = np.zeros(2**n, dtype=complex)
    for label, coeff in terms:
        if len(label) != n or any(ch not in "01" for ch in label):
            raise ValueError(f"basis label {label!r} is not a length-{n} bit string")
        amps[int(label, 2)] += complex(coeff)
    norm = np.linalg.norm(amps)
    if norm < 1e-15:
        raise ValueError("coefficients sum to the zero vector")
    with np.errstate(invalid="ignore"):  # inf / inf gives NaN, which PureState rejects with code finite
        return PureState(n, amps / norm)


def partial_trace(state_or_dm: Union[PureState, DensityMatrix], keep: Iterable) -> DensityMatrix:
    """Reduce a state to the qubits in ``keep``, tracing out the rest.

    ``keep`` uses the original qubit indices of the input; the result is
    labeled by ``sorted(keep)``.
    """
    if isinstance(state_or_dm, PureState):
        n = state_or_dm.n_qubits
        keep = _qubits(keep, "keep", range(n))
        drop = tuple(q for q in range(n) if q not in keep)
        tensor = state_or_dm.amplitudes.reshape((2,) * n)
        tensor = np.moveaxis(tensor, keep + drop, range(n))
        m = tensor.reshape(2 ** len(keep), 2 ** len(drop))
        return DensityMatrix(keep, m @ m.conj().T)

    if isinstance(state_or_dm, DensityMatrix):
        labels = state_or_dm.qubit_labels
        keep = _qubits(keep, "keep", labels)
        k = len(labels)
        drop_pos = [i for i, q in enumerate(labels) if q not in keep]
        tensor = state_or_dm.matrix.reshape((2,) * (2 * k))
        remaining = k
        for pos in sorted(drop_pos, reverse=True):
            tensor = np.trace(tensor, axis1=pos, axis2=pos + remaining)
            remaining -= 1
        return DensityMatrix(keep, tensor.reshape(2**remaining, 2**remaining))

    raise TypeError(f"expected PureState or DensityMatrix, got {type(state_or_dm).__name__}")


def linear_entropy(dm: DensityMatrix) -> float:
    """Mixedness measure 1 - Tr(rho^2); zero exactly for pure states."""
    purity = float(np.vdot(dm.matrix, dm.matrix).real)
    return max(0.0, 1.0 - purity)


def random_haar_state(n: int, seed) -> PureState:
    """Draw a pure state from the unitarily invariant distribution.

    Normalizing a vector of independent standard complex Gaussians is exactly
    Haar on the unit sphere.  ``seed`` may be an integer, a seed sequence, or
    an existing ``numpy.random.Generator``.
    """
    n = _qubit_count(n, "n")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, z / np.linalg.norm(z))
