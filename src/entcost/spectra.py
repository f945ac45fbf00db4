"""Core value types for finite-truncation bipartite states.

Everything in this module is a dense double-precision truncation of an
in-principle infinite-dimensional object: probability spectra with declared
tail mass, bipartite density operators, pure states with cached Schmidt
coefficients, and weighted ensembles.  Constructors validate their numeric
invariants once; instances are immutable afterwards and safe to share
across threads.  A bipartite state also carries the convex-roof estimates
taken of it, each a deterministic function of the state and its options.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

PSD_ATOL = 1e-12
TRACE_ATOL = 1e-12
NORMALIZED_ATOL = 1e-12
WEIGHT_ATOL = 1e-10


class InvariantViolation(ValueError):
    """A constructed value broke one of its declared numeric invariants."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Spectrum:
    """Probability spectrum: a non-increasing sequence of finite non-negative
    reals plus declared tail mass, together carrying total mass 1 within 1e-12.

    ``tail_mass`` records how much weight lives beyond the truncation point,
    so downstream bounds can account for what was cut off.
    """

    values: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size == 0:
            raise InvariantViolation("spectrum needs at least one value")
        tail = float(self.tail_mass)
        if not math.isfinite(tail):
            raise InvariantViolation("spectrum values and tail mass must be finite")
        v = _checked_rows(v)
        if tail < -PSD_ATOL:
            raise InvariantViolation("tail mass must be non-negative")
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "tail_mass", max(tail, 0.0))
        if abs(self.total_mass - 1.0) > NORMALIZED_ATOL:
            raise InvariantViolation(
                f"normalized spectrum has total mass {self.total_mass!r}")

    @classmethod
    def from_unsorted(cls, values, tail_mass: float = 0.0) -> "Spectrum":
        v = np.sort(np.asarray(values, dtype=float).reshape(-1))[::-1]
        return cls(v, tail_mass)

    @property
    def total_mass(self) -> float:
        return float(_total(self.values)) + self.tail_mass

    def __len__(self) -> int:
        return int(self.values.size)

    def stripped(self) -> "Spectrum":
        """Drop trailing zero values (tail mass is kept)."""
        nz = np.nonzero(self.values)[0]
        if nz.size == 0:
            return Spectrum(self.values[:1], self.tail_mass)
        return Spectrum(self.values[:nz[-1] + 1], self.tail_mass)


def _untailed(spectrum: Spectrum, consumer: str) -> np.ndarray:
    """The values of ``spectrum`` up to its last nonzero one, once it declares
    no tail mass; else InvariantViolation naming ``consumer``.  The one tail
    rule: a consumer that needs the whole distribution refuses a declared
    tail, however small, and never drops it, since nothing says where the
    tail's mass lies."""
    if spectrum.tail_mass > 0.0:
        raise InvariantViolation(f"{consumer} refuses a tail mass of {spectrum.tail_mass!r}")
    # with no tail the values sum to 1, so one of them is nonzero
    return spectrum.values[:np.flatnonzero(spectrum.values)[-1] + 1]


def _total(v: np.ndarray) -> np.ndarray:
    """The sum over the last axis of ``v``: inf, with no warning, where
    finite values sum past the float range."""
    with np.errstate(over="ignore"):
        return v.sum(axis=-1)


def _checked_rows(v: np.ndarray, normalized: bool = False) -> np.ndarray:
    """The checks a Spectrum makes on its values, on one row or on a stack
    of rows (..., n): finite, non-negative and non-increasing, and with
    ``normalized`` (and no tail mass) of total 1 within 1e-12.  Returns the
    rows clipped at 0 (-0.0 to +0.0, as ``np.clip`` clips it)."""
    if not np.isfinite(v).all():
        raise InvariantViolation("spectrum values and tail mass must be finite")
    # a reduction per check costs less than a mask and its any(); an empty stack passes
    if v.min(initial=0.0) < -PSD_ATOL:
        raise InvariantViolation("spectrum values must be non-negative")
    if (v[..., 1:] - v[..., :-1]).max(initial=0.0) > 1e-12:
        raise InvariantViolation("spectrum values must be non-increasing")
    v = np.maximum(v, 0.0)
    if normalized:
        total = _total(v)
        off = np.abs(total - 1.0) > NORMALIZED_ATOL
        if off.any():
            raise InvariantViolation(
                f"normalized spectrum has total mass {float(total[off].flat[0])!r}")
    return v


def _checked_int(value, name: str, lo: int | None, hi: int | None = None) -> int:
    """``value`` as a Python int, once checked to be a Python or NumPy integer,
    never a bool, in [lo, hi] (None leaves an end open); else ValueError naming
    ``name`` and its range.  The one check of an integer argument."""
    # a plain int skips the abstract-class tests; a bool's type is not int
    if type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        v = int(value)
        if (lo is None or lo <= v) and (hi is None or v <= hi):
            return v
    span = (f" in [{lo}, {hi}]" if None not in (lo, hi) else
            f" >= {lo}" if lo is not None else f" <= {hi}" if hi is not None else "")
    try:
        shown = repr(value)
    except ValueError:  # repr refuses an integer of more than 4 300 digits
        shown = (f"an integer of {value.bit_length()} bits" if isinstance(value, int)
                 else f"a {type(value).__name__} too long to print")
    raise ValueError(f"{name} must be an integer{span}, got {shown}")


def _checked_real(value, name: str, lo: float, hi: float, ends: str = "[]",
                  error: type = ValueError) -> float:
    """``value`` as a Python float, once checked to be a Python or NumPy real,
    never a bool or NaN, in the interval from lo to hi whose ends ``ends``
    marks closed ("[", "]") or open ("(", ")"); else ``error`` naming ``name``
    and the interval.  An integer beyond the float range is out of range.
    The one check of a real argument."""
    v, shown = math.nan, None
    # a plain float skips the abstract-class test, which costs about 0.5 us
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # and repr may refuse an integer of 4 300 digits
            shown = "a number beyond the float range"
    if (lo < v or lo == v and ends[0] == "[") and (v < hi or v == hi and ends[1] == "]"):
        return v
    span = f"{ends[0]}{lo!r}, {hi!r}{ends[1]}"
    raise error(f"{name} = {shown or repr(value)} lies outside {span}: "
                "it must be a real number, never a bool or NaN")


def _checked_matrix(value, name: str, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a complex array, once checked to be a non-empty finite
    matrix of ``shape`` (a None entry takes any size; no shape, a square one);
    else InvariantViolation naming ``name``.  The one check of a matrix argument."""
    m = np.asarray(value, dtype=complex)
    shape = m.shape[:1] * 2 if shape is None else shape
    if m.ndim != 2 or m.size == 0 or not all(s in (None, t) for s, t in zip(shape, m.shape)):
        raise InvariantViolation(f"{name} must be a non-empty {shape} matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise InvariantViolation(f"{name} must be finite")
    return m


def _checked_probs(values, name: str, atol: float) -> np.ndarray:
    """``values`` as a new read-only flat float array, once checked to be a
    non-empty finite probability vector: non-negative within ``atol`` and of
    total 1 within ``atol``, then clipped at 0 (-0.0 to +0.0, as ``np.clip``
    clips it); else InvariantViolation naming ``name``.  The one check of an
    unordered probability vector."""
    p = np.asarray(values, dtype=float).reshape(-1)
    if p.size == 0 or not np.isfinite(p).all() or p.min() < -atol:
        raise InvariantViolation(f"{name} must be finite, non-negative and non-empty")
    total = float(_total(p))
    if not abs(total - 1.0) <= atol:
        raise InvariantViolation(f"{name} sum to {total!r}")
    return _readonly(np.maximum(p, 0.0))


@dataclass(frozen=True)
class BipartiteState:
    """Density operator on a (dim_a x dim_b)-dimensional bipartite space.

    The constructor symmetrizes the matrix as (x + x')/2 before validating,
    so inputs that are Hermitian only up to roundoff are accepted.  Basis
    ordering is row-major: index i*dim_b + j carries |i>_A |j>_B.  The
    state keeps each ``eof_estimate`` taken of it, keyed by the options.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim_a", _checked_int(self.dim_a, "dim_a", 1))
        object.__setattr__(self, "dim_b", _checked_int(self.dim_b, "dim_b", 1))
        d = self.dim_a * self.dim_b
        m = _checked_matrix(self.matrix, "state matrix", (d, d))
        m = (m + m.conj().T) / 2.0
        eig = np.linalg.eigvalsh(m)
        if eig[0] < -PSD_ATOL:
            raise InvariantViolation(f"state has negative eigenvalue {eig[0]!r}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"state trace is {tr!r}")
        object.__setattr__(self, "matrix", _readonly(m))
        # eof_estimate's results by their options: derived from the matrix,
        # like a pure state's Schmidt spectrum, and no field, so repr and ==
        # never see it
        object.__setattr__(self, "_estimates", {})

    def spectrum(self) -> Spectrum:
        # the constructor refused an eigenvalue below -PSD_ATOL, and Spectrum
        # clips the others at 0 as np.clip does
        return Spectrum(np.linalg.eigvalsh(self.matrix)[::-1])


@dataclass(frozen=True)
class PureBipartite:
    """Pure bipartite state stored as its amplitude matrix.

    ``amplitudes[i, j]`` is the coefficient of |i>_A |j>_B; the Frobenius
    norm must be 1 within 1e-9.  ``schmidt`` is derived on construction from
    one SVD: the squared singular values of the amplitude matrix, sorted
    non-increasing and normalized to sum 1.
    """

    amplitudes: np.ndarray
    schmidt: Spectrum = field(init=False)

    def __post_init__(self) -> None:
        c = np.array(_checked_matrix(self.amplitudes, "amplitudes", (None, None)))
        schmidt = Spectrum(_schmidt_rows(_unit_checked(c)))
        object.__setattr__(self, "amplitudes", _readonly(c))
        object.__setattr__(self, "schmidt", schmidt)

    @property
    def dim_a(self) -> int:
        return int(self.amplitudes.shape[0])

    @property
    def dim_b(self) -> int:
        return int(self.amplitudes.shape[1])

    def vector(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)

    def marginal_a(self) -> np.ndarray:
        c = self.amplitudes
        return c @ c.conj().T

    def marginal_b(self) -> np.ndarray:
        c = self.amplitudes
        return c.T @ c.conj()

    def to_density(self) -> BipartiteState:
        v = self.vector()
        return BipartiteState(self.dim_a, self.dim_b, np.outer(v, v.conj()))


def _norms(c: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack (..., d_A, d_B).

    The norms are taken one matrix at a time, as ``np.linalg.norm`` takes
    one: a stacked norm sums the squares in another order, which can move
    the last bit, and it warns where a square overflows.
    """
    flat = c.reshape((-1,) + c.shape[-2:])
    return np.array([np.linalg.norm(m) for m in flat]).reshape(c.shape[:-2])


def _unit_amplitudes(c: np.ndarray) -> np.ndarray:
    """Each amplitude matrix of a stack (..., d_A, d_B) divided by its
    Frobenius norm, which must be nonzero and finite."""
    norms = _norms(c)
    if not (np.isfinite(norms) & (norms > 0.0)).all():
        raise InvariantViolation("amplitude matrix must be nonzero and finite")
    return c / norms[..., None, None]


def _unit_checked(c: np.ndarray) -> np.ndarray:
    """The stack of amplitude matrices ``c`` (..., d_A, d_B), once every
    Frobenius norm is 1 within 1e-9."""
    norms = _norms(c)
    off = ~(np.abs(norms - 1.0) <= 1e-9)
    if off.any():
        raise InvariantViolation(f"amplitude matrix has norm {float(norms[off].flat[0])!r}")
    return c


def _schmidt_rows(c: np.ndarray) -> np.ndarray:
    """Schmidt coefficients of each amplitude matrix in a stack
    (..., d_A, d_B): its squared singular values, non-increasing and
    normalized to sum 1.  The one Schmidt routine; callers check or set the
    norms."""
    sq = np.linalg.svd(c, compute_uv=False) ** 2
    return sq / sq.sum(axis=-1, keepdims=True)


def schmidt_decompose(amplitudes) -> PureBipartite:
    """Build a PureBipartite from a nonzero amplitude matrix.

    The matrix is normalized to unit Frobenius norm first; the Schmidt
    spectrum is the vector of squared singular values of the result.
    """
    c = _checked_matrix(amplitudes, "amplitudes", (None, None))
    return PureBipartite(_unit_amplitudes(c))


@dataclass(frozen=True)
class Ensemble:
    """Finite weighted list of bipartite states on common dimensions.

    Members may be PureBipartite or BipartiteState.  Weights pass the
    probability rule, ``_checked_probs``, within 1e-10.  Only finitely many
    members are representable here; a countable preparation has to be
    truncated before it can be stored, with the cut accounted for by the
    caller.
    """

    weights: np.ndarray
    members: tuple

    def __post_init__(self) -> None:
        w = _checked_probs(self.weights, "weights", WEIGHT_ATOL)
        members = tuple(self.members)
        if w.size != len(members):
            raise InvariantViolation("weights and members must align")
        dims = {(m.dim_a, m.dim_b) for m in members}
        if len(dims) != 1:
            raise InvariantViolation(f"members live on mixed dimensions {dims}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", members)

    @property
    def dim_a(self) -> int:
        return self.members[0].dim_a

    @property
    def dim_b(self) -> int:
        return self.members[0].dim_b

    def all_pure(self) -> bool:
        return all(isinstance(m, PureBipartite) for m in self.members)


def partial_trace(state: BipartiteState, keep: str) -> np.ndarray:
    """Trace out one side of a bipartite state; ``keep`` is "A" or "B"."""
    da, db = state.dim_a, state.dim_b
    t = state.matrix.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise ValueError("keep must be 'A' or 'B'")


def trace_distance(x: np.ndarray, y: np.ndarray) -> float:
    """(1/2)||x - y||_1 for Hermitian matrices of equal shape."""
    x = _checked_matrix(x, "x")
    d = x - _checked_matrix(y, "y", x.shape)
    d = (d + d.conj().T) / 2.0
    eig = np.linalg.eigvalsh(d)
    return float(np.sum(np.abs(eig)) / 2.0)


def ensemble_average(ensemble: Ensemble) -> BipartiteState:
    """The barycenter sum_x w(x) rho_x as a BipartiteState."""
    d = ensemble.dim_a * ensemble.dim_b
    acc = np.zeros((d, d), dtype=complex)
    for w, m in zip(ensemble.weights, ensemble.members):
        if isinstance(m, PureBipartite):
            v = m.vector()
            acc += w * np.outer(v, v.conj())
        else:
            acc += w * m.matrix
    return BipartiteState(ensemble.dim_a, ensemble.dim_b, acc)


def tensor_state(x: BipartiteState, y: BipartiteState) -> BipartiteState:
    """Tensor product regrouped to the (AA' : BB') bipartition."""
    m = np.kron(x.matrix, y.matrix)
    da, db, dc, dd = x.dim_a, x.dim_b, y.dim_a, y.dim_b
    t = m.reshape(da, db, dc, dd, da, db, dc, dd)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    d = da * db * dc * dd
    return BipartiteState(da * dc, db * dd, t.reshape(d, d))


def random_pure_state(rng: np.random.Generator, dim_a: int, dim_b: int) -> PureBipartite:
    dim_a, dim_b = _checked_int(dim_a, "dim_a", 1), _checked_int(dim_b, "dim_b", 1)
    c = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
    return schmidt_decompose(c)


def random_density_state(rng: np.random.Generator, dim_a: int, dim_b: int,
                         rank: int | None = None) -> BipartiteState:
    dim_a, dim_b = _checked_int(dim_a, "dim_a", 1), _checked_int(dim_b, "dim_b", 1)
    d = dim_a * dim_b
    r = d if rank is None else _checked_int(rank, "rank", 1, d)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return BipartiteState(dim_a, dim_b, m / np.trace(m).real)
