import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmonogamy import (
    PureState,
    StateFileError,
    parse_state,
    random_haar_state,
    read_state_file,
    serialize_state,
    state_from_basis_terms,
    write_state_file,
)


def test_bell_round_trip():
    bell = state_from_basis_terms(2, [("00", 1), ("11", 1)])
    again = parse_state(serialize_state(bell))
    np.testing.assert_allclose(again.amplitudes, bell.amplitudes, atol=1e-15)


@given(seed=st.integers(0, 10**9), n=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_random_state_round_trip_exact(seed, n):
    state = random_haar_state(n, seed)
    again = parse_state(serialize_state(state))
    # 17 significant digits reproduce doubles bit-for-bit
    np.testing.assert_array_equal(again.amplitudes, state.amplitudes)


def test_document_is_json_with_17_digit_floats():
    state = random_haar_state(2, 12)
    text = serialize_state(state)
    doc = json.loads(text)
    assert doc["n_qubits"] == 2
    assert len(doc["amplitudes"]) == 4


def test_length_mismatch_rejected():
    text = json.dumps({"n_qubits": 2, "amplitudes": [[1.0, 0.0]] * 3})
    with pytest.raises(StateFileError) as err:
        parse_state(text)
    assert err.value.code == "length"


def test_bad_norm_rejected():
    text = json.dumps({"n_qubits": 1, "amplitudes": [[0.5, 0.0], [0.0, 0.0]]})
    with pytest.raises(StateFileError) as err:
        parse_state(text)
    assert err.value.code == "normalization"


def _last_of_4096(bad: str) -> str:
    """An n = 12 document whose 4095 first pairs are 1/64 each and whose last pair is ``bad``."""
    return '{"n_qubits": 12, "amplitudes": [' + "[0.015625, 0], " * 4095 + bad + "]}"


def test_huge_integer_in_the_last_pair_is_not_finite():
    assert parse_state(_last_of_4096("[0.015625, 0]")).n_qubits == 12  # a good last pair passes
    with pytest.raises(StateFileError) as err:
        parse_state(_last_of_4096("[0.0, -1" + "0" * 400 + "]"))
    assert err.value.code == "finite"


@pytest.mark.parametrize("n", range(1, 13))
def test_round_trip_bit_exact_with_signed_zeros_and_integers(n):
    rng = np.random.default_rng(n)
    haar = random_haar_state(n, rng).amplitudes.copy()
    haar[rng.integers(0, 2**n, 2 ** (n - 1))] = complex(-0.0, -0.0)
    haar.imag[rng.integers(0, 2**n, 2 ** (n - 1))] = -0.0
    basis = np.full(2**n, complex(-0.0, 0.0))
    basis[rng.integers(0, 2**n)] = -1j if n % 2 else -1.0  # written as the integers 0 and -1
    for amps in (haar / np.linalg.norm(haar), basis):
        state = PureState(n, amps)
        text = serialize_state(state)
        again = parse_state(text).amplitudes
        # what complex(re, im) makes of the document, bit for bit
        reference = np.array([complex(re, im) for re, im in json.loads(text)["amplitudes"]])
        assert again.tobytes() == reference.tobytes()
        # every amplitude comes back bit for bit, negative zeros included
        assert again.tobytes() == state.amplitudes.tobytes()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity",
                                 pytest.param("1" + "0" * 400, id="400-digit-int")])
def test_non_finite_amplitude_rejected(bad):
    text = f'{{"n_qubits": 1, "amplitudes": [[1.0, 0.0], [{bad}, 0.0]]}}'
    with pytest.raises(StateFileError) as err:
        parse_state(text)
    assert err.value.code == "finite"


def test_malformed_document_rejected(tmp_path):
    for text in ("{not json", "[]", '{"n_qubits": 2}',
                 '{"n_qubits": "2", "amplitudes": []}',
                 '{"n_qubits": 1, "amplitudes": [[1.0], [0.0]]}',
                 '{"n_qubits": 1, "amplitudes": [[1.0, "x"], [0.0, 0.0]]}',
                 '{"n_qubits": true, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
                 '{"n_qubits": 1, "amplitudes": [[true, 0.0], [0.0, 0.0]]}',
                 '{"n_qubits": 1, "amplitudes": [[1' + "0" * 5000 + ', 0.0], [0.0, 0.0]]}',
                 # the bad pair is the last of 4096, after 4095 that sum to norm 1
                 *(_last_of_4096(bad) for bad in ('[1.0]', '"xy"', '[0.0, "x"]', 'null', '[0.0, null]',
                                                  '[false, 0.0]', '[0.0, true]', '[[0.0], 0.0]',
                                                  '[0.0, [0.0, 0.0]]'))):
        with pytest.raises(StateFileError) as err:
            parse_state(text)
        assert err.value.code == "parse"
    path = tmp_path / "latin1.json"
    path.write_bytes('{"n_qubits": 1, "amplitudes": "\xe9"}'.encode("latin-1"))
    with pytest.raises(StateFileError) as err:
        read_state_file(path)
    assert err.value.code == "parse"


def test_norm_within_gate_renormalized():
    # norms within 1e-6 of 1 are accepted and snapped back to exactly 1
    amps = [[1.0 + 5e-7, 0.0], [0.0, 0.0]]
    state = parse_state(json.dumps({"n_qubits": 1, "amplitudes": amps}))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15


def test_file_round_trip(tmp_path):
    state = random_haar_state(3, 99)
    path = tmp_path / "state.json"
    write_state_file(state, path)
    again = read_state_file(path)
    np.testing.assert_array_equal(again.amplitudes, state.amplitudes)
