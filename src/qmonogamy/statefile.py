"""Text serialization of pure states.

The document is plain JSON with two fields: ``n_qubits`` and ``amplitudes``,
the latter an array of ``[re, im]`` pairs indexed by the big-endian bit
string of each basis label.  Floats are written with 17 significant digits so
a write/read cycle reproduces every amplitude bit-for-bit.

``parse_state`` checks only the JSON form; ``PureState`` judges qubit count,
length, finiteness and norm as for a state built in code.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .states import PureState, StateError as StateFileError  # one coded error for files and code


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
    if type(n) is not int:
        raise StateFileError("parse", "n_qubits must be an integer")
    raw = doc["amplitudes"]
    # json gives exact types, so exact-type tests also reject booleans; each
    # test is one C-level pass over what the tests before it admitted
    if (type(raw) is not list or not set(map(type, raw)) <= {list} or not set(map(len, raw)) <= {2}
            or not set(map(type, flat := list(itertools.chain.from_iterable(raw)))) <= {int, float}):
        raise StateFileError("parse", "amplitudes must be a list of [re, im] number pairs")
    try:
        # each number rounds to the nearest double, as complex(re, im) rounds it
        amps = np.array(flat, dtype=float).view(complex)
    except OverflowError as exc:  # an integer literal beyond the double range
        raise StateFileError("finite", f"amplitude out of the double range: {exc}") from exc
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
