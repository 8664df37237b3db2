"""Text serialization of pure states.

The document is plain JSON with two fields: ``n_qubits`` and ``amplitudes``,
the latter an array of ``[re, im]`` pairs indexed by the big-endian bit
string of each basis label.  Floats are written with 17 significant digits so
a write/read cycle reproduces every amplitude bit-for-bit.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .states import MAX_QUBITS, NORM_BOUND, PureState


class StateFileError(ValueError):
    """Rejected state document; ``code`` is one of parse / length / finite / normalization / qubits."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def serialize_state(state: PureState) -> str:
    rows = ",\n".join(
        f"    [{a.real:.17g}, {a.imag:.17g}]" for a in state.amplitudes
    )
    # JSON reads "-0" as the integer 0, so negative zero is written "-0.0"
    rows = rows.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")
    return (
        "{\n"
        f'  "n_qubits": {state.n_qubits},\n'
        '  "amplitudes": [\n'
        f"{rows}\n"
        "  ]\n"
        "}\n"
    )


def parse_state(text: str) -> PureState:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal over Python's digit limit
        raise StateFileError("parse", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n_qubits" not in doc or "amplitudes" not in doc:
        raise StateFileError("parse", "document must be an object with n_qubits and amplitudes")
    n = doc["n_qubits"]
    if type(n) is not int or not 1 <= n <= MAX_QUBITS:
        raise StateFileError("parse", f"n_qubits must be an integer in [1, {MAX_QUBITS}]")
    raw = doc["amplitudes"]
    # json gives exact types, so exact-type tests also reject booleans; each
    # test is one C-level pass over what the tests before it admitted
    if (type(raw) is not list or not set(map(type, raw)) <= {list} or not set(map(len, raw)) <= {2}
            or not set(map(type, flat := list(itertools.chain.from_iterable(raw)))) <= {int, float}):
        raise StateFileError("parse", "amplitudes must be a list of [re, im] number pairs")
    if len(raw) != 2**n:
        raise StateFileError("length", f"expected 2**{n} = {2**n} amplitudes, got {len(raw)}")
    try:
        # each number rounds to the nearest double, as complex(re, im) rounds it
        amps = np.array(flat, dtype=float).view(complex)
    except OverflowError as exc:  # an integer literal beyond the double range
        raise StateFileError("finite", f"amplitude out of the double range: {exc}") from exc
    if not np.all(np.isfinite(amps)):
        raise StateFileError("finite", "amplitudes must be finite numbers, not NaN or Infinity")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_BOUND:
        bound = np.format_float_scientific(NORM_BOUND, trim="-", exp_digits=1)  # 1e-6, not 1e-06
        raise StateFileError("normalization", f"norm {norm} deviates from 1 by more than {bound}")
    # PureState renormalizes only when the deviation exceeds its own strict
    # tolerance, so clean documents round-trip bit-for-bit.
    return PureState(n, amps)


def write_state_file(state: PureState, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_state(state))


def read_state_file(path) -> PureState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise StateFileError("parse", f"not UTF-8 text: {exc}") from exc
    return parse_state(text)
