"""Round trips of the JSON value encodings."""

import numpy as np
import pytest

from entcost import AffineTail, DiagonalHamiltonian, Spectrum, stream
from entcost import random_density_state, random_pure_state
from entcost.jsonio import (
    SchemaError,
    hamiltonian_from_json,
    hamiltonian_to_json,
    matrix_to_pairs,
    pairs_to_matrix,
    pure_from_json,
    pure_to_json,
    read,
    read_list,
    spectrum_from_json,
    spectrum_to_json,
    state_from_json,
    state_to_json,
)


def test_matrix_pairs_round_trip():
    rng = stream(41, 0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = pairs_to_matrix(matrix_to_pairs(m), 3, 2)
    assert np.allclose(back, m, atol=0.0)


def test_matrix_pairs_length_checked():
    with pytest.raises(SchemaError):
        pairs_to_matrix([[1.0, 0.0]], 2, 2)


def test_spectrum_round_trip():
    s = Spectrum(np.array([0.6, 0.3]), tail_mass=0.1)
    back = spectrum_from_json(spectrum_to_json(s))
    assert np.allclose(back.values, s.values, atol=0.0)
    assert back.tail_mass == s.tail_mass


def test_state_round_trip():
    rng = stream(41, 1)
    rho = random_density_state(rng, 2, 3)
    back = state_from_json(state_to_json(rho))
    assert (back.dim_a, back.dim_b) == (2, 3)
    assert np.allclose(back.matrix, rho.matrix, atol=1e-15)


def test_pure_round_trip():
    rng = stream(41, 2)
    psi = random_pure_state(rng, 2, 4)
    back = pure_from_json(pure_to_json(psi))
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_hamiltonian_round_trip_with_tail():
    h = DiagonalHamiltonian(np.array([0.0, 1.0, 2.0]), AffineTail(1.0, 0.5))
    back = hamiltonian_from_json(hamiltonian_to_json(h))
    assert np.allclose(back.energies, h.energies, atol=0.0)
    assert back.tail == h.tail
    bare = hamiltonian_from_json(hamiltonian_to_json(
        DiagonalHamiltonian(np.array([0.0, 2.0]))))
    assert bare.tail is None


def test_hamiltonian_rejects_unknown_tail_kind():
    with pytest.raises(SchemaError):
        hamiltonian_from_json({"energies": [0.0, 1.0],
                               "tail_model": {"kind": "quadratic"}})


@pytest.mark.parametrize("kind, value", [
    (int, True), (int, 1.0), (int, "1"), (float, False), (float, "0.5"),
    (float, None), (float, [1.0]), (str, 1), (list, {}), (dict, []),
])
def test_read_never_coerces(kind, value):
    with pytest.raises(SchemaError):
        read({"k": value}, "k", "test", kind)


def test_read_types_and_defaults():
    obj = {"i": 3, "f": 2, "big": 10 ** 400}
    assert read(obj, "i", "test", int) == 3
    value = read(obj, "f", "test", float)  # any JSON number, as a float
    assert (value, type(value)) == (2.0, float)
    assert read(obj, "absent", "test", int, 7) == 7
    with pytest.raises(SchemaError):
        read(obj, "absent", "test", int)
    with pytest.raises(SchemaError):  # beyond the float range
        read(obj, "big", "test", float)
    assert read({"k": 2 ** 63 - 1}, "k", "test", int) == 2 ** 63 - 1
    for big in (2 ** 63, -2 ** 63 - 1):  # beyond int64
        with pytest.raises(SchemaError):
            read({"k": big}, "k", "test", int)
    with pytest.raises(SchemaError):
        read([], "i", "test", int)


def test_read_list_checks_every_entry():
    assert read_list({"v": [1, 0.5]}, "v", "test", float) == [1.0, 0.5]
    for bad in ([1, True], [1, "2"], 3):
        with pytest.raises(SchemaError):
            read_list({"v": bad}, "v", "test", int)


@pytest.mark.parametrize("entry", [{}, [1.0], [1.0, 0.0, 0.0], [True, 0.0], ["1", 0.0], 1.0])
def test_matrix_entries_are_pairs_of_numbers(entry):
    with pytest.raises(SchemaError):
        pairs_to_matrix([[1.0, 0.0], entry], 1, 2)
