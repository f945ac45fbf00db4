"""Convex-roof estimation of entanglement of formation at finite truncation.

The formation value of a mixed state is the infimum, over pure-state
decompositions, of the mean marginal entropy.  On two qubits Wootters'
explicit optimal decomposition (PRL 80, 2245, 1998) attains it, so a
two-qubit state of rank r >= 2 with at least 4 slots takes that
decomposition in closed form; every other state is searched.

Decompositions of a rank-r state correspond to isometries W from its
r-dimensional purification ancilla into m >= r slots.  The search holds the
member vectors V = W F^T (frame F with columns sqrt(w_i) u_i), rotating two
rows of V per step.  One step is one pass over the two rows: it forms both
rotated rows and adds up their squared norms in element order, and then one
pair rule, chosen once per search, gives both members' entropies from their
min(d_A, d_B)-dimensional Gram matrices: in closed form (Cauchy-Binet) when
that dimension is 2, else from one stacked ``eigvalsh`` of the two.  The
starting values go through the same rule.  Each anneal draws its whole
table of moves from its own stream up front.
Every point visited is a valid decomposition, so the running best is a
certified UPPER bound.  Either way the returned decomposition is checked to
reconstruct the state, and its bound to stay under the marginal entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy, von_neumann_entropy
from .rng import stream
from .spectra import (
    BipartiteState,
    Ensemble,
    InvariantViolation,
    PureBipartite,
    Spectrum,
    _checked_int,
    ensemble_average,
    partial_trace,
    schmidt_decompose,
    tensor_state,
    trace_distance,
)

MAX_RANK = 16
MAX_RESTARTS = 1000
MAX_ITERATIONS = 100_000
MAX_ENSEMBLE_SIZE = MAX_RANK ** 2  # Uhlmann: r^2 members reach the convex roof
RECONSTRUCTION_ATOL = 1e-9
T0, T1 = 0.2, 1e-5  # annealing temperature at the first and last step
A0, A1 = math.pi / 2.0, 0.05  # rotation-angle scale at the first and last step
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y
_HADAMARD_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0


@dataclass(frozen=True)
class EofEstimate:
    """Certified upper bound on formation cost plus the achieving decomposition.

    ``restarts`` is the number of annealing restarts run and ``converged``
    whether the polish anneal gained less than 1e-9; the two are 0 and True
    where no anneal runs, on rank-1 states and on Wootters' two-qubit
    decomposition, whose bound is the exact formation value.
    """

    upper_bound_bits: float
    decomposition: Ensemble
    restarts: int
    converged: bool


def eof_pure(psi: PureBipartite) -> float:
    """Exact formation value of a pure state: entropy of its Schmidt spectrum."""
    return von_neumann_entropy(psi.schmidt)


def wootters_eof(rho: BipartiteState) -> float:
    """Exact two-qubit formation value from the concurrence (Wootters 1998)."""
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise InvariantViolation("the Wootters closed form needs two qubits")
    lam = _takagi(_spectral_frame(rho))[0]
    c = min(1.0, max(0.0, float(lam[0] - np.sum(lam[1:]))))
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def _takagi(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wootters' lam, descending, and x = frame U with <x_i|x~_j> = lam_i delta_ij.

    tau = F^dagger (Y x Y) conj(F) is complex symmetric, so tau = U diag(lam)
    U^T with U unitary (Takagi).  With tau = A + iB the real symmetric
    [[A, B], [B, -A]] has spectrum +-lam, read with no sqrt of noise, and its
    eigenvector (a, b) for +lam_k gives u_k = a + ib.  A QR keeps U unitary
    where lam_k is 0 and the embedding's eigenvectors mix the two signs.
    """
    tau = frame.conj().T @ _SPIN_FLIP @ frame.conj()
    r = len(tau)
    w, v = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    w, v = w[::-1][:r], v[:, ::-1][:, :r]  # eigh sorts ascending
    q, t = np.linalg.qr(v[:r] + 1j * v[r:])
    return w, frame @ (q * np.exp(1j * np.angle(np.diag(t))))


def _wootters_members(frame: np.ndarray) -> np.ndarray:
    """Wootters' optimal two-qubit decomposition: four member vectors as rows.

    Below rank 4 some rows can be zero; ``_ensemble_from`` drops them.

    With C = lam_1 - lam_2 - lam_3 - lam_4 > 0, the y = (x_1, i x_2, i x_3,
    i x_4) have <y_i|y~_j> = D = diag(lam_1, -lam_2, -lam_3, -lam_4), so a real
    rotation V gives members z = V y of concurrence C exactly when the
    diagonal of V (D - C Re<y|y>) V^T is 0; that matrix has trace C - C tr rho
    = 0, and each Givens rotation zeroes one more diagonal entry.  With C <= 0,
    phases with sum_k lam_k e^{-2i theta_k} = 0 on y_k = e^{i theta_k} x_k and
    the +-1/2 Hadamard signs give four product members.
    """
    lam, x = _takagi(frame)
    pad = 4 - len(lam)
    lam = np.concatenate((np.clip(lam, 0.0, None), np.zeros(pad)))
    x = np.hstack((x, np.zeros((4, pad))))
    c = lam[0] - np.sum(lam[1:])
    if c > 0.0:
        y = x * np.array([1.0, 1j, 1j, 1j])
        m = np.diag(lam * np.array([1.0, -1.0, -1.0, -1.0])) - c * np.real(y.conj().T @ y)
        v = np.eye(4)
        for _ in range(3):
            d = np.diag(m)
            i, j = int(np.argmax(d)), int(np.argmin(d))
            if not d[i] > 0.0 > d[j]:
                break
            # the rotation in the (i, j) plane that zeroes m_ii has tan t a
            # root of m_jj t^2 + 2 m_ij t + m_ii = 0, real as m_ii m_jj < 0;
            # this is the root formed without cancellation
            tan = -d[i] / (m[i, j] + math.copysign(
                math.sqrt(m[i, j] ** 2 - d[i] * d[j]), m[i, j]))
            cos = 1.0 / math.hypot(1.0, tan)
            g = np.eye(4)
            g[i, i] = g[j, j] = cos
            g[i, j], g[j, i] = cos * tan, -cos * tan
            m, v = g @ m @ g.T, g @ v
        return v @ y.T
    # a closed quadrilateral with sides lam_k: two triangles on a diagonal of
    # length l, which both can span since lam_1 - lam_2 <= lam_3 + lam_4
    l = max(lam[0] - lam[1], lam[2] - lam[3])
    a, b = _triangle(lam[0], lam[1], l), -_triangle(lam[2], lam[3], l)
    ends = np.array([a, l - a, b, -l - b])
    size = np.abs(ends)
    phase = np.divide(ends, size, out=np.ones(4, dtype=complex), where=size > 0.0)
    return _HADAMARD_SIGNS @ (x * np.sqrt(phase).conj()).T


def _triangle(p: float, q: float, l: float) -> complex:
    """The point a with |a| = p and |l - a| = q, on or above the real axis.

    Its height is twice the area over l, by Kahan's form of Heron's formula,
    so a needle-like triangle keeps a height accurate to rounding.
    """
    if not l > 0.0:
        return complex(p)  # then p = q, and a + (l - a) = 0 at a = p
    x, y, z = sorted((p, q, l), reverse=True)
    area4 = math.sqrt(max(0.0, (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))))
    return complex(((p - q) * (p + q) + l * l) / (2.0 * l), area4 / (2.0 * l))


class _DecompositionSearch:
    """Annealed search over m slots, each a never-mutated list of amplitudes.

    ``pair`` is the one member-entropy rule, chosen here once: it maps two
    members and their squared norms to each one's weight times marginal
    entropy, p S = sum_i lam_i log2(p / lam_i), from the eigenvalues lam of
    its min(d_A, d_B)-dimensional Gram matrix (in closed form when that is 2).
    """

    def __init__(self, dim_a: int, dim_b: int, slots: int):
        self.slots = slots
        flat = np.arange(dim_a * dim_b).reshape(dim_a, dim_b)
        rows = self.small = flat if dim_a <= dim_b else flat.T  # smaller factor first
        if len(rows) == 2:
            i, j = np.triu_indices(rows.shape[1], 1)
            # flat positions (a, b, c, d) of each 2 x 2 minor v_a v_b - v_c v_d
            self.minors = np.stack((rows[0, i], rows[1, j], rows[0, j], rows[1, i]),
                                   1).tolist()
            self.pair = self._closed_form_pair
        else:
            self.pair = self._gram_pair

    def parts(self, members) -> list[float]:
        """Each member's weight times marginal entropy, two at a time by ``pair``."""
        out = []
        for k in range(0, len(members), 2):
            r1, r2 = members[k], members[min(k + 1, len(members) - 1)]
            out += self.pair(r1, _squared_norm(r1), r2, _squared_norm(r2))
        return out[:len(members)]

    def _closed_form_pair(self, r1, p1, r2, p2) -> tuple[float, float]:
        det1 = det2 = 0.0  # by Cauchy-Binet: no cancellation as in |c0|^2 |c1|^2 - |<c0, c1>|^2
        for a, b, c, d in self.minors:
            z = r1[a] * r1[b] - r1[c] * r1[d]
            det1 += z.real * z.real + z.imag * z.imag
            z = r2[a] * r2[b] - r2[c] * r2[d]
            det2 += z.real * z.real + z.imag * z.imag
        return _two_level_part(p1, det1), _two_level_part(p2, det2)

    def _gram_pair(self, r1, p1, r2, p2) -> tuple[float, float]:
        # the norms go unused: each trace is read as its eigenvalue sum
        c = np.array((r1, r2), dtype=complex)[:, self.small]
        lam1, lam2 = np.linalg.eigvalsh(c @ c.conj().transpose(0, 2, 1)).tolist()
        return _spectral_part(lam1), _spectral_part(lam2)

    def anneal(self, v0: list, iterations: int,
               rng: np.random.Generator) -> tuple[float, list]:
        """Anneal from member vectors v0 along one table of moves drawn from rng."""
        frac = np.arange(iterations) / max(1, iterations - 1)
        temps = (T0 * (T1 / T0) ** frac).tolist()
        theta = rng.normal(0.0, A0 * (A1 / A0) ** frac)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, iterations))
        first = rng.integers(0, self.slots, iterations)
        second = (first + rng.integers(1, self.slots, iterations)) % self.slots
        accept = rng.random(iterations).tolist()
        # slots (j1, j2) rotate by [[cos, -twist], [conj(twist), cos]]
        cos, twist = np.cos(theta).tolist(), (np.sin(theta) * phase).tolist()
        v = list(v0)
        parts = self.parts(v)
        current = sum(parts)
        best, best_v = current, v[:]
        pair = self.pair
        for j1, j2, c, s, t, u in zip(first.tolist(), second.tolist(), cos, twist,
                                      temps, accept):
            sc = s.conjugate()
            r1, r2 = [], []
            p1 = p2 = 0.0
            for x, y in zip(v[j1], v[j2]):
                a = c * x - s * y
                b = sc * x + c * y
                r1.append(a)
                r2.append(b)
                p1 += a.real * a.real + a.imag * a.imag
                p2 += b.real * b.real + b.imag * b.imag
            s1, s2 = pair(r1, p1, r2, p2)
            delta = (s1 + s2) - (parts[j1] + parts[j2])
            if delta <= 0.0 or u < math.exp(-delta / t):
                v[j1], v[j2] = r1, r2
                parts[j1], parts[j2] = s1, s2
                current += delta
                if current < best - 1e-15:
                    best, best_v = current, v[:]
        return best, best_v


def _two_level_part(p: float, det: float) -> float:
    """p S of a member whose Gram matrix has trace p and determinant det."""
    hi = 0.5 * (p + math.sqrt(max(0.0, p * p - 4.0 * det)))
    lo = det / hi if hi > 0.0 else 0.0
    q = hi + lo
    if not q > 1e-14:
        return 0.0
    s = hi * math.log2(q / hi) if hi > 0.0 else 0.0
    return s + lo * math.log2(q / lo) if lo > 0.0 else s


def _spectral_part(lam) -> float:
    """p S of a member whose Gram matrix has eigenvalues lam, p = sum lam."""
    q = 0.0
    for x in lam:
        q += x
    if not q > 1e-14:
        return 0.0
    s = 0.0
    for x in lam:
        if x > 0.0:
            s += x * math.log2(q / x)
    return s


def _squared_norm(vec) -> float:
    """sum |z|^2 over the amplitudes, added in the order the step adds them."""
    p = 0.0
    for z in vec:
        p += z.real * z.real + z.imag * z.imag
    return p


def _spectral_frame(rho: BipartiteState) -> np.ndarray:
    w, u = np.linalg.eigh(rho.matrix)
    w, u = w[::-1], u[:, ::-1]  # eigh sorts ascending
    r = int(np.sum(w > 1e-12))
    if r > MAX_RANK:
        raise InvariantViolation(f"rank {r} exceeds the search limit {MAX_RANK}")
    return u[:, :r] * np.sqrt(np.clip(w[:r], 0.0, None))


def _ensemble_from(v: list, dim_a: int, dim_b: int,
                   rho: BipartiteState) -> tuple[Ensemble, float]:
    weights, members = [], []
    for vec in map(np.asarray, v):
        p = float(np.real(np.vdot(vec, vec)))
        if p <= 1e-12:
            continue
        weights.append(p)
        members.append(schmidt_decompose(vec.reshape(dim_a, dim_b)))
    arr = np.asarray(weights)
    ens = Ensemble(arr / np.sum(arr), tuple(members))
    dist = trace_distance(ensemble_average(ens).matrix, rho.matrix)
    if dist > RECONSTRUCTION_ATOL:
        raise InvariantViolation(
            f"decomposition reconstructs the state only to {dist!r}")
    # the mean marginal entropy sum_x p(x) S(psi_x_A) of the decomposition
    return ens, float(np.sum(ens.weights * np.array(
        [von_neumann_entropy(m.schmidt) for m in members])))


def eof_estimate(rho: BipartiteState, ensemble_size: int | None = None,
                 restarts: int = 6, iterations: int = 3000,
                 seed: int = 0) -> EofEstimate:
    """Upper-bound the formation cost of a mixed bipartite state.

    A rank-1 state gets its exact pure-state value.  A two-qubit state of
    rank r >= 2 whose slot count (``ensemble_size``, else 2r) is at least 4
    gets Wootters' optimal decomposition, exact to rounding; ``seed``,
    ``restarts`` and ``iterations`` are then unused, though still checked.
    Otherwise the search anneals from ``restarts`` random isometries
    (restart rs on ``stream(seed, rs)``), keeps the best of them and the
    spectral decomposition, and polishes it with one more anneal on
    ``stream(seed, restarts)``.  ``converged`` reports that the polish
    improved the bound by less than 1e-9.
    ``restarts`` must be an integer in [0, MAX_RESTARTS], ``iterations`` in
    [0, MAX_ITERATIONS], ``ensemble_size`` at most MAX_ENSEMBLE_SIZE and
    ``seed`` any integer; each is checked before any work, even a memo hit
    or the closed form, which never reach ``stream``.  An ``ensemble_size``
    below the rank raises ``InvariantViolation``.

    The search is deterministic in its options and its result is immutable,
    so it runs once per (state object, options): the state keeps each
    estimate, and a repeat call returns the same object.
    """
    restarts = _checked_int(restarts, "restarts", 0, MAX_RESTARTS)
    iterations = _checked_int(iterations, "iterations", 0, MAX_ITERATIONS)
    if ensemble_size is not None:
        ensemble_size = _checked_int(ensemble_size, "ensemble_size", None, MAX_ENSEMBLE_SIZE)
    seed = _checked_int(seed, "seed", None)
    key = (ensemble_size, restarts, iterations, seed)
    est = rho._estimates.get(key)
    if est is None:
        # threads that race here compute equal results; setdefault keeps the first
        est = rho._estimates.setdefault(
            key, _search(rho, ensemble_size, restarts, iterations, seed))
    return est


def _search(rho: BipartiteState, ensemble_size: int | None, restarts: int,
            iterations: int, seed: int) -> EofEstimate:
    """The search behind ``eof_estimate``, on checked options."""
    frame = _spectral_frame(rho)
    r = frame.shape[1]
    m = ensemble_size if ensemble_size is not None else 2 * r
    if m < r:
        raise InvariantViolation(f"ensemble size {m} is below the rank {r}")
    if r == 1:
        vec = frame[:, 0]
        member = schmidt_decompose(vec.reshape(rho.dim_a, rho.dim_b) /
                                   np.linalg.norm(vec))
        ens = Ensemble(np.array([1.0]), (member,))
        return EofEstimate(eof_pure(member), ens, 0, True)
    if (rho.dim_a, rho.dim_b) == (2, 2) and m >= 4:
        best_v, restarts, converged = _wootters_members(frame), 0, True
    else:
        best_v, converged = _anneal(rho, frame, m, restarts, iterations, seed)
    ens, bound = _ensemble_from(best_v, rho.dim_a, rho.dim_b, rho)
    ceiling = min(von_neumann_entropy(Spectrum.from_unsorted(np.clip(
        np.linalg.eigvalsh(partial_trace(rho, side)), 0.0, None))) for side in "AB")
    if bound > ceiling + 1e-8:
        raise InvariantViolation(
            f"upper bound {bound!r} exceeds the marginal-entropy ceiling")
    return EofEstimate(bound, ens, restarts, bool(converged))


def _anneal(rho: BipartiteState, frame: np.ndarray, m: int, restarts: int,
            iterations: int, seed: int) -> tuple[list, bool]:
    """The annealed search's best member vectors, and whether its polish was flat."""
    r = frame.shape[1]
    search = _DecompositionSearch(rho.dim_a, rho.dim_b, m)
    best_v = (np.eye(m, r) @ frame.T).tolist()  # the spectral decomposition
    best_val = sum(search.parts(best_v))
    for rs in range(restarts):
        rng = stream(seed, rs)
        q = np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))[0]
        val, v = search.anneal((q @ frame.T).tolist(), iterations, rng)
        if val < best_val:
            best_val, best_v = val, v
    # polish the winner with a second pass; a flat polish signals convergence
    val, v = search.anneal(best_v, iterations, stream(seed, restarts))
    if val < best_val:
        return v, best_val - val < 1e-9
    return best_v, True


def regularized_probe(rho: BipartiteState, n_max: int = 2,
                      **estimate_kwargs) -> list[float]:
    """Per-copy formation upper bounds for 1..n_max copies (n_max <= 2).

    The tensor square of the one-copy decomposition certifies exactly twice
    the one-copy bound for two copies, so the two-copy entry is the smaller
    of that and the direct 4 x 4 two-copy search, and the sequence never
    increases.  The converse chain does not call it: its formation term is
    ``eof_surrogate_for_copies``.
    """
    n_max = _checked_int(n_max, "n_max", 1, 2)
    one = eof_estimate(rho, **estimate_kwargs).upper_bound_bits
    if n_max == 1:
        return [one]
    two = eof_estimate(tensor_state(rho, rho), **estimate_kwargs).upper_bound_bits
    return [one, min(two / 2.0, one)]


def eof_surrogate_for_copies(rho: BipartiteState, n: int,
                             **estimate_kwargs) -> tuple[float, str]:
    """(upper bound on formation of n copies in bits, provenance flag).

    n times one ``eof_estimate`` of a single copy: the n-fold tensor power of
    its decomposition decomposes rho^n, so the product stays an upper bound.
    The flag is "pure-exact" when the estimate's decomposition has one
    member, which happens exactly for rank-1 states; their formation value
    is additive, so the product is exact.  Otherwise it is "estimate-upper".
    The estimate is taken once per (state object, options), whatever n is.
    """
    n = _checked_int(n, "n", 1)
    est = eof_estimate(rho, **estimate_kwargs)
    kind = "pure-exact" if len(est.decomposition.members) == 1 else "estimate-upper"
    return n * est.upper_bound_bits, kind
