"""JSON encodings of the value types used by the command-line interface,
and the one reader of config values.

Complex matrices travel as flat row-major lists of [re, im] pairs next to
their dimensions; spectra as value lists plus tail mass; Hamiltonians as
energy lists plus an optional affine tail model.

Every config value is read through ``read`` or ``read_list``, which check
its JSON type and coerce nothing: a bool is never a number, a string never
a number, and a number with a fraction never an integer.  Asking for
``float`` accepts any JSON number and only then converts it to a float;
asking for ``int`` accepts a JSON integer in the signed 64-bit range.
"""

from __future__ import annotations

import numpy as np

from .gibbs import AffineTail, DiagonalHamiltonian
from .spectra import BipartiteState, Ensemble, PureBipartite, Spectrum, schmidt_decompose


class SchemaError(ValueError):
    """Input does not match the documented JSON layout."""


_REQUIRED = object()
# the JSON values each requested type accepts, and its name in messages
_ACCEPTS = {int: (int, "an integer"), float: ((int, float), "a number"),
            str: (str, "a string"), list: (list, "a list"), dict: (dict, "an object")}


def _typed(value, kind, where: str):
    accepted, name = _ACCEPTS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise SchemaError(f"{where} must be {name}")
    if kind is int and not -2 ** 63 <= value < 2 ** 63:
        # counts and sizes reach NumPy as int64; a seed is masked to 64 bits
        raise SchemaError(f"{where} is out of the 64-bit integer range")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise SchemaError(f"{where} is out of range") from exc


def read(obj, key: str, what: str, kind, default=_REQUIRED):
    """``obj[key]`` checked to be a ``kind`` (int, float, str, list or dict).

    A missing key returns ``default``, or fails if none is given.  ``what``
    names the object in the error message.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object")
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"{what}: missing required key '{key}'")
        return default
    return _typed(obj[key], kind, f"{what}: '{key}'")


def read_list(obj, key: str, what: str, kind) -> list:
    """``obj[key]``, a required list whose every entry is a ``kind``."""
    return [_typed(v, kind, f"{what}: every entry of '{key}'")
            for v in read(obj, key, what, list)]


def matrix_to_pairs(m: np.ndarray) -> list:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_matrix(pairs, rows: int, cols: int) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != rows * cols:
        raise SchemaError(f"matrix needs {rows * cols} [re, im] pairs")
    flat = []
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2):
            raise SchemaError("matrix entries must be [re, im] pairs")
        re, im = (_typed(x, float, "a matrix entry") for x in p)
        flat.append(complex(re, im))
    return np.array(flat).reshape(rows, cols)


def spectrum_to_json(s: Spectrum) -> dict:
    return {"values": [float(v) for v in s.values],
            "tail_mass": float(s.tail_mass)}


def spectrum_from_json(obj) -> Spectrum:
    values = read_list(obj, "values", "spectrum", float)
    if not values:
        raise SchemaError("spectrum 'values' must be a non-empty list")
    return Spectrum(values, read(obj, "tail_mass", "spectrum", float, 0.0))


def state_to_json(s: BipartiteState) -> dict:
    return {"dim_a": s.dim_a, "dim_b": s.dim_b,
            "matrix": matrix_to_pairs(s.matrix)}


def state_from_json(obj) -> BipartiteState:
    da, db = read(obj, "dim_a", "state", int), read(obj, "dim_b", "state", int)
    matrix = pairs_to_matrix(read(obj, "matrix", "state", list), da * db, da * db)
    return BipartiteState(da, db, matrix)


def pure_to_json(p: PureBipartite) -> dict:
    return {"dim_a": p.dim_a, "dim_b": p.dim_b,
            "amplitudes": matrix_to_pairs(p.amplitudes)}


def pure_from_json(obj) -> PureBipartite:
    what = "pure state"
    da, db = read(obj, "dim_a", what, int), read(obj, "dim_b", what, int)
    return schmidt_decompose(pairs_to_matrix(read(obj, "amplitudes", what, list), da, db))


def ensemble_to_json(e: Ensemble) -> dict:
    members = []
    for m in e.members:
        members.append(pure_to_json(m) if isinstance(m, PureBipartite)
                       else state_to_json(m))
    return {"weights": [float(w) for w in e.weights], "members": members}


def ensemble_from_json(obj) -> Ensemble:
    weights = read_list(obj, "weights", "ensemble", float)
    members = [pure_from_json(m) if "amplitudes" in m else state_from_json(m)
               for m in read_list(obj, "members", "ensemble", dict)]
    return Ensemble(weights, tuple(members))


def hamiltonian_to_json(h: DiagonalHamiltonian) -> dict:
    tail = ({"kind": "affine", "a": h.tail.a, "b": h.tail.b}
            if h.tail is not None else {"kind": "none"})
    return {"energies": [float(e) for e in h.energies], "tail_model": tail}


def hamiltonian_from_json(obj) -> DiagonalHamiltonian:
    energies = read_list(obj, "energies", "hamiltonian", float)
    tail_obj = read(obj, "tail_model", "hamiltonian", dict, {"kind": "none"})
    kind = read(tail_obj, "kind", "tail_model", str)
    if kind == "none":
        tail = None
    elif kind == "affine":
        tail = AffineTail(read(tail_obj, "a", "affine tail", float),
                          read(tail_obj, "b", "affine tail", float))
    else:
        raise SchemaError(f"unknown tail model {kind!r}")
    return DiagonalHamiltonian(energies, tail)
