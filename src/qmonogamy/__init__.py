"""Concurrence-based entanglement measures and monogamy bounds for N-qubit pure states."""

from .concurrence import (
    concurrence_of_assistance,
    lambda_spectrum,
    pure_concurrence_sq,
    spin_flip,
    three_tangle,
    wootters_concurrence,
)
from .convex_roof import EnsembleDecomposition, convex_roof_optimize
from .monogamy import (
    BoundEntry,
    BoundReport,
    TriangleVectors,
    concurrence_chain,
    evaluate_all,
    triangle_vectors,
    wclass_bounds,
    wclass_state,
)
from .statefile import StateFileError, parse_state, read_state_file, serialize_state, write_state_file
from .states import (
    MAX_QUBITS,
    DensityMatrix,
    PureState,
    StateError,
    linear_entropy,
    partial_trace,
    random_haar_state,
    state_from_basis_terms,
)

__all__ = [
    "MAX_QUBITS",
    "BoundEntry",
    "BoundReport",
    "DensityMatrix",
    "EnsembleDecomposition",
    "PureState",
    "StateError",
    "StateFileError",
    "TriangleVectors",
    "concurrence_chain",
    "concurrence_of_assistance",
    "convex_roof_optimize",
    "evaluate_all",
    "lambda_spectrum",
    "linear_entropy",
    "parse_state",
    "partial_trace",
    "pure_concurrence_sq",
    "random_haar_state",
    "read_state_file",
    "serialize_state",
    "spin_flip",
    "state_from_basis_terms",
    "three_tangle",
    "triangle_vectors",
    "wclass_bounds",
    "wclass_state",
    "wootters_concurrence",
    "write_state_file",
]

__version__ = "0.1.0"
