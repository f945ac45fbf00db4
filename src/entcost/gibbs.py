"""Grounded diagonal Hamiltonians, Gibbs spectra, and continuity bounds.

Hamiltonians are diagonal with non-decreasing energies, ground energy 0,
and natural-log units (a Gibbs weight is exp(-beta * e_n)).  An optional
affine tail model e_n = a*n + b for levels beyond the truncation makes the
partition function and mean energy exactly summable, so an infinite ladder
like the harmonic oscillator can be represented without approximation.

The max-entropy-at-fixed-energy curve F(E) (entropy in bits of the Gibbs
state with mean energy E) underpins a one-sided continuity bound

    eps' * F(E / eps') + g(eps'),   eps' = sqrt(eps * (2 - eps)),

which vanishes as eps -> 0 precisely because F grows sublinearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import LN2, _suffix_sums, g_function
from .spectra import InvariantViolation, Spectrum, _checked_int, _checked_matrix, _checked_real

ENERGY_RTOL = 1e-10
_MAX_NEWTON_STEPS = 100
DEFAULT_BETA_GRID = (0.1, 0.5, 1.0, 2.0)
# exp(-t) is exactly 0 for every t beyond 745.14
_UNDERFLOW_EXPONENT = 746.0


@dataclass(frozen=True)
class AffineTail:
    """Energies e_n = a*n + b for every level n beyond the stored ones; a
    slope a > 0 makes the tail converge, and b is finite."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a = _checked_real(self.a, "a", 0.0, math.inf, "()", InvariantViolation)
        b = _checked_real(self.b, "b", -math.inf, math.inf, "()", InvariantViolation)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Diagonal Hamiltonian with non-decreasing energies and ground energy 0."""

    energies: np.ndarray
    tail: AffineTail | None = None

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float).reshape(-1)
        if e.size == 0:
            raise InvariantViolation("need at least one level")
        if not np.all(np.isfinite(e)):
            raise InvariantViolation("energies must be finite")
        if abs(e[0]) > 1e-9:
            raise InvariantViolation(f"ground energy must be 0, got {e[0]!r}")
        e = e - e[0]
        if np.any(e[1:] - e[:-1] < -1e-12):
            raise InvariantViolation("energies must be non-decreasing")
        if self.tail is not None:
            first_tail = self.tail.a * e.size + self.tail.b
            if first_tail < e[-1] - 1e-9:
                raise InvariantViolation(
                    "tail model starts below the last stored energy")
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)

    @property
    def levels(self) -> int:
        return int(self.energies.size)

    def ground_degeneracy(self) -> int:
        return int(np.sum(np.abs(self.energies) <= 1e-12))


def harmonic_oscillator(levels: int = 64) -> DiagonalHamiltonian:
    """The ladder e_n = n, stored up to ``levels`` and continued exactly."""
    levels = _checked_int(levels, "levels", 1)
    return DiagonalHamiltonian(np.arange(levels, dtype=float), AffineTail(1.0, 0.0))


class _Sums(NamedTuple):
    """Partition sums at one beta; ``weights`` are exp(-beta e_n) over the
    stored levels, 0 where they underflow; ``tail`` is the tail model's
    share of Z, formed without subtracting from 1."""

    z: float
    log_z: float
    mean: float  # <beta H>
    var: float  # Var(beta H)
    weights: np.ndarray
    tail: float


def _partition_sums(h: DiagonalHamiltonian, beta: float) -> _Sums:
    """Z, ln Z, <beta H> and Var(beta H) under the weights w_n = exp(-beta e_n).

    The stored levels and the tail model are each reduced to a weight, a
    mean and a variance of beta e_n, then combined as a two-part mixture.
    The raw tail sums sum_n e_n^k w_n grow like beta^-(k+1) and overflow
    once beta a < 1e-154; in units of 1/beta the tail's moments stay of
    order 1 as beta -> 0.  Its q = 1 - exp(-beta a) is -expm1(-beta a),
    which does not cancel as beta -> 0.  The mixture weights are the
    ratio z q : exp(-t0), finite even where the tail's sum exp(-t0) / q
    overflows or q underflows to 0 (Z is inf there, ln Z is not).

    Levels whose weight underflows are dropped before beta e_n is formed,
    which could overflow.  ln Z of the stored levels is ln g + log1p(X / g),
    with g the number of levels of weight exactly 1 and X the rest: at low
    energy Z = g + X rounds X away, and ln Z with it."""
    beta = _checked_real(beta, "beta", 0.0, math.inf, "()")
    weights = np.zeros(h.levels)
    reach = h.energies <= _UNDERFLOW_EXPONENT / beta
    t = beta * h.energies[reach]
    w = np.exp(-t)
    weights[reach] = w
    keep = w > 0.0  # a level whose weight underflows carries nothing
    t, w = t[keep], w[keep]
    z = float(np.sum(w))
    mean = float(np.sum(w * t)) / z
    var = float(np.sum(w * (t - mean) ** 2)) / z
    ground = int(np.count_nonzero(t == 0.0))
    excited = float(np.sum(w[t != 0.0]))
    log_z = math.log(ground) + math.log1p(excited / ground)
    head = p_tail = 0.0
    if h.tail is not None:
        step = beta * h.tail.a
        t0 = beta * (h.tail.a * h.levels + h.tail.b)
        head = math.exp(-t0)
    if head > 0.0:
        # the tail is t0 + k * step with weights exp(-t0) x^k, x = exp(-step):
        # its sum is exp(-t0) / q, its mean t0 + r x and its variance r^2 x,
        # with r = step / q -> 1 as beta -> 0, where step and q underflow
        q = -math.expm1(-step)
        x, r = math.exp(-step), step / q if q > 0.0 else 1.0
        mean_tail, var_tail = t0 + r * x, r * r * x
        # the two parts weigh z q : exp(-t0), finite where exp(-t0) / q overflows
        total = z * q + head
        p, p_tail = z * q / total, head / total
        both = p * mean + p_tail * mean_tail
        var = (p * (var + (mean - both) ** 2)
               + p_tail * (var_tail + (mean_tail - both) ** 2))
        # ln Z = ln(z + exp(-t0) / q), with ln q = ln(step / r) formed from logs
        log_tail = -t0 - (math.log(beta) + math.log(h.tail.a) - math.log(r))
        log_z = float(np.logaddexp(log_z, log_tail))
        z, mean = z + head / q if q > 0.0 else math.inf, both
    return _Sums(z, log_z, mean, var, weights, p_tail)


@dataclass(frozen=True)
class GibbsPoint:
    """A point on the Gibbs curve: inverse temperature, mean energy, entropy.

    ``beta = math.inf`` encodes the zero-energy endpoint, where the state is
    uniform on the ground space.
    """

    beta: float
    energy: float
    entropy_bits: float


def gibbs_state(h: DiagonalHamiltonian, beta: float) -> Spectrum:
    """Gibbs spectrum exp(-beta e_n)/Z over the stored levels.

    The mass of the (exactly summed) tail levels is reported as the
    spectrum's tail mass, so the result is normalized including its tail.
    That mass is the tail's share of the mixture in ``_partition_sums``,
    exp(-t0) / (z q + exp(-t0)), not 1 minus the stored values, which
    cancels to 0 once it falls below the rounding of their sum.
    """
    sums = _partition_sums(h, beta)
    return Spectrum(sums.weights / sums.z, sums.tail)


def gibbs_point(h: DiagonalHamiltonian, beta: float) -> GibbsPoint:
    sums = _partition_sums(h, beta)
    return GibbsPoint(beta, sums.mean / beta, (sums.mean + sums.log_z) / LN2)


def _max_mean_energy(h: DiagonalHamiltonian) -> float:
    """Supremum of representable mean energies (inf with a tail model)."""
    if h.tail is not None:
        return math.inf
    return float(np.mean(h.energies))


def _newton_step(u: float, step: float, root_above: bool, lo: float,
                 hi: float) -> tuple[float, float, float]:
    """One safeguarded Newton step, returning (next u, lo, hi): u narrows the
    bracket on the side ``root_above`` names, a move is at most 2 while a
    side is open (2 for a NaN or wrong-signed step), and a step that would
    leave a closed bracket bisects it."""
    if root_above:
        lo, side = u, 1.0
    else:
        hi, side = u, -1.0
    if math.isinf(lo) or math.isinf(hi):
        return u + side * (min(2.0, side * step) if side * step > 0.0 else 2.0), lo, hi
    if lo < u + step < hi:
        return u + step, lo, hi
    return 0.5 * (lo + hi), lo, hi


def beta_of_energy(h: DiagonalHamiltonian, energy: float,
                   rtol: float = ENERGY_RTOL) -> GibbsPoint:
    """Solve <H>_beta = E by Newton's method on f(u) = ln(<H>_beta / E),
    u = ln beta, f'(u) = -beta Var_beta(H) / <H>_beta.

    Each evaluation narrows a bracket on u (``_newton_step``).  The start
    is the ladder value ln(1 + e_1/E) / e_1 (e_1 the first excited level),
    scaled by 1 - E/mean without a tail.  Stops at |<H> - E| <= rtol * E or a
    step of a few ulps; rtol must be a real in (0, inf).  E = 0 gives
    beta = inf and the ground entropy.
    """
    energy = _checked_real(energy, "energy", 0.0, math.inf, "[)", InvariantViolation)
    rtol = _checked_real(rtol, "rtol", 0.0, math.inf, "()")
    if energy == 0.0:
        return GibbsPoint(math.inf, 0.0, math.log2(h.ground_degeneracy()))
    if energy >= _max_mean_energy(h):
        raise InvariantViolation(
            f"energy {energy!r} is not attained by any Gibbs state of this Hamiltonian")
    excited = h.energies[h.energies > 0.0]
    gap = float(excited[0]) if excited.size else h.tail.a
    beta = math.log1p(gap / energy) / gap
    if h.tail is None:
        beta *= 1.0 - energy / _max_mean_energy(h)
    u = math.log(beta)
    lo, hi = -math.inf, math.inf  # f(lo) > 0 > f(hi)
    for _ in range(_MAX_NEWTON_STEPS):
        beta = math.exp(u)
        sums = _partition_sums(h, beta)
        reduced, var = sums.mean, sums.var
        mean = reduced / beta
        if abs(mean - energy) <= rtol * energy:
            break
        step = ((math.log(mean) - math.log(energy)) * reduced / var
                if 0.0 < mean < math.inf and var > 0.0 else math.nan)
        # an overflowed (inf or nan) mean also means beta is too small
        new, lo, hi = _newton_step(u, step, not mean <= energy, lo, hi)
        if abs(new - u) <= 4.0 * math.ulp(u):
            break
        u = new
    if not abs(mean - energy) <= 10.0 * rtol * energy:
        raise InvariantViolation(
            f"Gibbs inversion reached energy {mean!r} for target {energy!r}")
    return GibbsPoint(beta, mean, (reduced + sums.log_z) / LN2)


def max_entropy_at_energy(h: DiagonalHamiltonian, energy: float) -> float:
    """F(E) = sup { S(rho) : Tr[rho H] <= E }, in bits.

    For E below the uniform-state energy this is the Gibbs entropy at the
    matching beta.  A bounded Hamiltonian saturates at log2(levels) once
    the constraint goes inactive; with a tail model every energy is
    attained.
    """
    energy = _checked_real(energy, "energy", 0.0, math.inf, "[]", InvariantViolation)
    if h.tail is None and energy >= _max_mean_energy(h):
        return math.log2(h.levels)
    return beta_of_energy(h, energy).entropy_bits


def sublinearity_probe(h: DiagonalHamiltonian, energy_grid) -> list[tuple[float, float]]:
    """Table of (E, F(E)/E) across an increasing grid spanning >= 3 decades."""
    grid = [_checked_real(e, "energy_grid entry", 0.0, math.inf, "()")
            for e in np.asarray(energy_grid, dtype=object).reshape(-1)]
    if len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("energy grid must be strictly increasing")
    if grid[-1] / grid[0] < 1e3:
        raise ValueError("energy grid must span at least three decades")
    return [(e, max_entropy_at_energy(h, e) / e) for e in grid]


def one_sided_continuity_bound(h: DiagonalHamiltonian, energy: float,
                               epsilon: float) -> float:
    """eps' * F(E/eps') + g(eps') with eps' = sqrt(eps*(2-eps)).

    One-sided, energy-constrained continuity of the entanglement of
    formation: if Tr[rho_A H] <= E and (1/2)||rho - sigma||_1 <= eps, then
    E_F(rho) - E_F(sigma) <= eps' F(E/eps') + g(eps').  Only rho carries the
    energy constraint; sigma is arbitrary.  Tends to 0 as eps -> 0 because
    F grows sublinearly.  At E = 0 the term is eps' * F(0), with F(0) =
    log2 of the ground degeneracy.

    ``epsilon`` is the trace distance (1/2)||.||_1, the convention of
    ``spectra.trace_distance`` and ``DilutionTrace.error``.  It becomes
    eps' in four steps:

    1. Fuchs-van de Graaf: 1 - sqrt(F(rho, sigma)) <= eps, so the root
       fidelity is at least 1 - eps.
    2. Uhlmann: take a pure-state ensemble {q_x, sigma_x} of sigma
       attaining E_F(sigma) (or to within any eta > 0) and its purification
       |Sigma> = sum_x sqrt(q_x) |sigma_x>_AB |x>_R.  Some purification
       |P> of rho has |<P|Sigma>| >= 1 - eps, so the two pure states lie
       within sqrt(1 - (1 - eps)^2) = eps' in trace distance.
    3. Measuring R in the basis {|x>} leaves A untouched.  It maps Sigma to
       the cq state omega_sigma = sum_x q_x sigma_x (x) |x><x| and P to
       omega_rho = sum_x p_x rho_x (x) |x><x|, where {p_x, rho_x} is a
       pure-state ensemble of rho.  Trace distance contracts, so the two cq
       states are within eps', and omega_rho still has A-energy <= E.
    4. E_F(rho) <= S(A|X)_omega_rho and E_F(sigma) = S(A|X)_omega_sigma.
       One-sided continuity of the conditional entropy of cq states, with
       the energy constraint on omega_rho only (the Alicki-Fannes-Winter
       coupling as used by Winter, CMP 347 (2016), and Shirokov), bounds
       the difference by delta F(E/delta) + g(delta) at distance delta.
       This is non-decreasing in delta, because F is concave with
       F(0) >= 0, so delta = eps' applies.  Step 4 is cited (Winter, CMP
       347 (2016); Shirokov), not proved in this package, and its constant
       (delta F(E/delta) + g(delta), rather than say twice that) has not
       been checked against the paper: the plain coupling does not give
       it, since the positive part of omega_rho - omega_sigma need not
       keep A-energy <= E/delta when only omega_rho is constrained.

    If eps were the purified distance sqrt(1 - F) instead, step 1 would drop
    out and eps' = eps.  The package never uses that convention.
    """
    energy = _checked_real(energy, "energy", 0.0, math.inf, "[]", InvariantViolation)
    epsilon = _checked_real(epsilon, "epsilon", 0.0, 1.0)
    if epsilon == 0.0:
        return 0.0
    return sum(_continuity_terms(h, energy, epsilon))


def _continuity_terms(h: DiagonalHamiltonian, energy: float,
                      epsilon: float) -> tuple[float, float]:
    """The two terms (eps' F(E/eps'), g(eps')) of ``one_sided_continuity_bound``
    for 0 < epsilon <= 1, eps' = sqrt(eps (2 - eps)); F(0) = log2 of the
    ground degeneracy."""
    eps_prime = math.sqrt(epsilon * (2.0 - epsilon))
    return (eps_prime * max_entropy_at_energy(h, energy / eps_prime),
            g_function(eps_prime))


def _series_weights(a) -> np.ndarray:
    """Diverging weights b against a non-negative summable sequence a.

    Weights grow like 1 + log2(total / tail_n), with tail_n the suffix sums
    of a, so they diverge along the truncated trend wherever the suffix mass
    keeps shrinking; indices past the support continue the growth by one per
    step.  b is non-decreasing with b >= 1, and sum(a*b) <= 5 sum(a).
    """
    arr = np.asarray(a, dtype=float).reshape(-1)
    if arr.size == 0 or np.any(arr < 0.0):
        raise InvariantViolation("series must be non-negative and non-empty")
    total = float(np.sum(arr))
    if total <= 0.0:
        raise InvariantViolation("series must carry positive mass")
    tails = _suffix_sums(arr)[:-1]
    m = int(np.count_nonzero(tails > 0.0))  # the zero tails trail the support
    b = np.empty(arr.size)
    b[:m] = 1.0 - np.log2(tails[:m] / total)
    # past the support: keep the divergence going, one per step
    b[m - 1:] = np.cumsum(np.concatenate(([b[m - 1]], np.ones(arr.size - m))))
    if np.any(b < 1.0 - 1e-12):
        raise InvariantViolation("weights must satisfy b >= 1")
    if np.any(np.diff(b) < -1e-12):
        raise InvariantViolation("weights must be non-decreasing")
    weighted = float(np.sum(arr * b))
    if weighted > 5.0 * total * (1.0 + 1e-12):
        raise InvariantViolation(
            f"sum(a*b) = {weighted!r} exceeds 5 * sum(a) = {5.0 * total!r}")
    return b


def hamiltonian_for_spectrum(spectrum: Spectrum) -> DiagonalHamiltonian:
    """Grounded diagonal Hamiltonian under which a given state has finite energy.

    Level n >= 1 gets energy b_n * ln(1 / p_n) with b the series weights of
    the probability sequence itself; the largest eigenvalue sits at energy 0.
    Weights diverge while sum p_n b_n ln(1/p_n) stays within 5 times the
    entropy in nats, so the state's mean energy is finite while the
    Hamiltonian still forces Gibbs normalizability.
    """
    sp = spectrum.stripped()
    if sp.tail_mass > 1e-12:
        raise InvariantViolation("need the full spectrum (tail mass 0)")
    p = sp.values
    if p.size == 1:
        return DiagonalHamiltonian(np.zeros(1), None)
    b = _series_weights(p)
    energies = np.concatenate(([0.0], b[1:] * np.log(1.0 / p[1:])))
    return DiagonalHamiltonian(energies, None)


def mean_energy_density(h: DiagonalHamiltonian, rho: np.ndarray) -> float:
    """Tr[rho H] for a density matrix expressed in the Hamiltonian's eigenbasis."""
    rho = _checked_matrix(rho, "density matrix")
    if len(rho) > h.levels:
        raise InvariantViolation("density matrix does not fit the stored levels")
    return float(np.sum(np.diag(rho).real * h.energies[:len(rho)]))


def gibbs_hypothesis_check(h: DiagonalHamiltonian) -> bool:
    """True iff the partition function is finite at every probe temperature
    of ``DEFAULT_BETA_GRID``.

    Finite level sets always pass; an affine tail passes because its
    geometric remainder is summed exactly.
    """
    for beta in DEFAULT_BETA_GRID:
        sums = _partition_sums(h, beta)
        if not (math.isfinite(sums.z) and math.isfinite(sums.mean)):
            return False
    return True

