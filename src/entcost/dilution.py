"""Entanglement dilution protocols and their resource ledgers.

Preparing n copies of a pure target from shared maximal entanglement needs
one ebit per qubit of the typical subspace, so the ledger of a block is
ceil(log2 |W_delta|) ebits (capped by ceil(n(S + delta))) and, under the
teleportation convention adopted here, two classical bits per ebit; the
ledger derives its classical bits and rate from the ebits.  The
approximation error of projecting onto the typical subspace is exactly
sqrt(1 - mass(W_delta)) in trace distance; the count and the error come
from one ``typicality`` census, which sums the mass outside W_delta over
its types directly where 1 - mass is small, not subtracted from 1.
``dilution_sweep`` drives every block, and ``pure_dilution`` is its
one-block call.  The source, the target's Schmidt spectrum, must declare no
tail mass: ``spectra``'s tail rule refuses a declared tail, however small,
and never drops it.  Its values up to the last nonzero one pass
``typicality``'s one door once per sweep: the door drops the remaining zero
coefficients and checks every block length, and the census or, in Monte
Carlo mode, the sampler reads the door's record.  ``samples`` and ``seed``
are checked once per sweep in either mode.

Mixed targets are diluted member-by-member from a pure decomposition; the
rare part beyond a cutoff is prepared wastefully and only contributes
delta_N * S(omega_N^A), which vanishes as the cutoff grows.  Binary
mixtures can instead be driven by a curtailed binomial on the mixing
weight, at cost 2 * (1 - mass) in trace distance; that cost is summed
directly over the curtailed counts, not subtracted from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import _shannon_bits, von_neumann_entropy
from .eof import eof_surrogate_for_copies
from .gibbs import DiagonalHamiltonian, _continuity_terms, mean_energy_density
from .rng import stream
from .spectra import (
    BipartiteState,
    Ensemble,
    InvariantViolation,
    PureBipartite,
    Spectrum,
    _checked_int,
    _checked_real,
    _untailed,
    partial_trace,
)
from .typicality import (
    MAX_SAMPLES,
    SourceDistribution,
    _binomial_weights,
    _box,
    _census,
    _check_block,
    _mc_mass,
)


@dataclass(frozen=True)
class DilutionTrace:
    """Resource ledger of one dilution block.

    ``n`` is an integer >= 1 and ``ebits`` an integer >= 0, by the argument
    rule.  ``error`` is trace distance in [0, 1]; ``error_kind`` records
    whether it is the exact projection error or a sampled estimate.
    ``error_high`` is an upper bound on the error: the error itself in exact
    mode, and sqrt(1 - mass_low) from the 99% interval of the mass in Monte
    Carlo mode; left out, it is the error.  ``cbits`` = 2 * ebits, by the
    two-classical-bits-per-teleported-qubit convention, and ``rate`` =
    ebits / n are derived, not passed.
    """

    n: int
    ebits: int
    cbits: int = field(init=False)
    error: float
    rate: float = field(init=False)
    error_kind: str = "exact"
    error_high: float = math.nan

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _checked_int(self.n, "n", 1))
        object.__setattr__(self, "ebits", _checked_int(self.ebits, "ebits", 0))
        object.__setattr__(self, "cbits", 2 * self.ebits)
        object.__setattr__(self, "rate", self.ebits / self.n)
        if math.isnan(self.error_high):
            object.__setattr__(self, "error_high", self.error)
        if not (0.0 <= self.error <= self.error_high <= 1.0):
            raise InvariantViolation(
                f"need 0 <= error {self.error!r} <= error_high {self.error_high!r} <= 1")


def pure_dilution(target: PureBipartite | Spectrum, delta: float, n: int,
                  mode: str = "exact", samples: int = 100_000,
                  seed: int = 0) -> DilutionTrace:
    """Dilute n copies of a pure target through its typical subspace: the
    one-block ``dilution_sweep``."""
    return dilution_sweep(target, delta, [n], mode, samples, seed)[0]


def dilution_sweep(target: PureBipartite | Spectrum, delta: float, n_grid,
                   mode: str = "exact", samples: int = 100_000,
                   seed: int = 0) -> list[DilutionTrace]:
    """Dilution traces at each block length in ``n_grid``.  The source, the
    target's Schmidt spectrum, passes ``spectra``'s tail rule, which refuses
    any declared tail mass before n and the mode are read, and then
    ``typicality``'s one door once for the whole grid: the door reads its
    support and checks every n.  ``samples`` (an integer in [1,
    ``typicality.MAX_SAMPLES``]) and ``seed`` (any integer) are checked
    next, in both modes and even for an empty grid, and then the mode.

    The target may be the state itself or just its Schmidt spectrum.  Exact
    mode enumerates the Schmidt-coefficient types: the subspace dimension
    |W_delta| is an exact integer and the error sqrt(1 - mass(W_delta)) is
    exact; below 1 - mass = 1e-6 it is the square root of the cut types'
    mass, summed directly.  Monte Carlo mode estimates the mass, sampling
    each n from the door's one record, and books the theoretical
    ceil(n(S + delta)) ebits instead.  Every input is checked before any
    census or draw; each n must be a Python or NumPy integer below 2^63.
    Exact mode reads the type tables of the whole grid in one census pass
    and books each n as it comes, with the bits it gets alone.
    """
    # an infinite delta has no ebit cap ceil(n (S + delta))
    delta = _checked_real(delta, "delta", 0.0, math.inf, "[)")
    schmidt = _untailed(target if isinstance(target, Spectrum) else target.schmidt, "dilution")
    source, ns, delta = _check_block(SourceDistribution(schmidt), n_grid, delta)
    samples = _checked_int(samples, "samples", 1, MAX_SAMPLES)
    seed = _checked_int(seed, "seed", None)
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    h = source.entropy_bits
    censuses = _census(source, ns, delta)  # drawn from in exact mode only
    traces = []
    for n in ns:
        cap = math.ceil(n * (h + delta)) if h + delta > 0.0 else 0
        if mode == "exact":
            _, count, root_cut = next(censuses)
            ebits = min((count - 1).bit_length(), cap) if count > 0 else 0
            error = root_cut()
            error_high, kind = error, "exact"
        else:
            mass, mass_low, _ = _mc_mass(source, n, delta, "weak", samples, seed)
            ebits, error = cap, math.sqrt(max(0.0, 1.0 - mass))
            error_high, kind = math.sqrt(1.0 - mass_low), "mc-estimate"
        traces.append(DilutionTrace(n, ebits, min(1.0, error), kind,
                                    min(1.0, error_high)))
    return traces


@dataclass(frozen=True)
class MixedDilutionPoint:
    """Rate bound of a decomposition split at a cutoff into common and rare parts."""

    n_cut: int
    rate_bound: float
    wasteful_term: float
    delta_n: float


def mixed_dilution_rate(decomposition: Ensemble, n_cut: int) -> MixedDilutionPoint:
    """Rate bound sum_{x<=N} p(x) S(psi_x_A) + delta_N * S(omega_N^A).

    Members with index above ``n_cut`` form the rare part of weight delta_N;
    they are prepared jointly (wastefully) at the entropy of their averaged
    marginal, which is the term that must vanish as the cutoff grows.
    """
    n_cut = _checked_int(n_cut, "n_cut", 0)
    if not decomposition.all_pure():
        raise InvariantViolation("dilution needs a pure-member decomposition")
    w = decomposition.weights
    members = decomposition.members
    common = float(sum(
        w[x] * von_neumann_entropy(members[x].schmidt)
        for x in range(min(n_cut + 1, len(members)))))
    delta_n = float(np.sum(w[n_cut + 1:])) if n_cut + 1 < len(members) else 0.0
    if delta_n <= 0.0:
        return MixedDilutionPoint(n_cut, common, 0.0, 0.0)
    da = decomposition.dim_a
    omega = np.zeros((da, da), dtype=complex)
    for x in range(n_cut + 1, len(members)):
        omega += w[x] * members[x].marginal_a()
    omega /= delta_n
    eig = np.clip(np.linalg.eigvalsh((omega + omega.conj().T) / 2.0), 0.0, None)
    wasteful = delta_n * _shannon_bits(np.sort(eig)[::-1])
    return MixedDilutionPoint(n_cut, common + wasteful, wasteful, delta_n)


def _curtailed_support(p0: float, xi: float, n: int) -> np.ndarray:
    """The mixing counts k = 0..n kept by the curtailed binomial, those with
    |k / n - p0| <= xi: the strong rule's ``_box`` for one symbol of
    probability p0."""
    p0 = _checked_real(p0, "p0", 0.0, 1.0, "()")
    xi = _checked_real(xi, "xi", 0.0, math.inf, "(]")
    lo, hi = _box(_checked_int(n, "n", 1), p0, xi)
    return np.arange(lo, hi + 1)


def binary_mixing_error(p0: float, xi: float, n: int) -> float:
    """Raw error bound 2 * (1 - mass) of driving a binary mixture by a
    curtailed binomial count; may exceed 1, cap at 1 when booking it as a
    trace distance.  1 - mass is summed over the curtailed counts, so a
    small value keeps its relative precision.  It is 0.0 only when no count
    is curtailed; where counts are curtailed but their sum underflows, it is
    the smallest positive double, still an upper bound."""
    ks = _curtailed_support(p0, xi, n)
    w = _binomial_weights(n, math.log(p0) - math.log1p(-p0), 0, n)
    error = 2.0 * float(np.sum(np.delete(w, ks))) / float(np.sum(w))
    if error == 0.0 and ks.size <= n:
        return math.ulp(0.0)
    return error


def curtailed_binomial_pmf(p0: float, xi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and normalized probabilities of the curtailed binomial."""
    ks = _curtailed_support(p0, xi, n)
    if ks.size == 0:
        raise InvariantViolation("curtailed support is empty; widen xi or grow n")
    w = _binomial_weights(n, math.log(p0) - math.log1p(-p0), ks[0], ks[-1])
    return ks, w / np.sum(w)


def curtailed_binomial_sample(p0: float, xi: float, n: int, size: int = 1,
                              seed: int = 0) -> np.ndarray:
    """Draw mixing counts K with |K/n - p0| <= xi from the curtailed binomial.

    The draws are those of ``stream(seed, 0).choice(ks, size, p=probs)`` over
    the support and probabilities of ``curtailed_binomial_pmf``: uniforms u
    from ``random(size)``, each drawing ks[#{cdf entries <= u}].  The count is
    found by a binary search that moves every u one step at a time, down
    the CDF padded to a power of two with 1.0, which no u reaches; NumPy's
    ``searchsorted`` costs more on unsorted draws.
    """
    size, rng = _checked_int(size, "size", 0), stream(seed, 0)
    ks, probs = curtailed_binomial_pmf(p0, xi, n)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    step = 1 << (len(cdf) - 1).bit_length()
    padded = np.ones(step)
    padded[:len(cdf)] = cdf
    k = np.zeros(size, dtype=np.intp)
    while step > 1:
        step //= 2
        k += (padded[step - 1:].take(k) <= u) * step
    return ks[k]


@dataclass(frozen=True)
class ConverseReport:
    """Terms of the rate converse chain at one (n, epsilon) point.

    floor(r*n) is compared against the formation surrogate of the n-copy
    target (n times one single-copy estimate) minus the energy-continuity
    correction n * eps' * F(E/eps') and the offset g(eps').  The surrogate
    is an UPPER bound on the true formation value (exact for pure targets),
    so ``slack_bits`` is reliable as a consistency indicator, not as a proof
    of optimality.
    """

    n: int
    r: float
    epsilon: float
    energy: float
    lhs_ebits: int
    ef_surrogate_bits: float
    surrogate_kind: str
    continuity_term_bits: float
    g_term_bits: float
    rate_lower_bound: float
    slack_bits: float


def converse_bound(rho: BipartiteState, r: float, epsilon: float,
                   hamiltonian: DiagonalHamiltonian, n: int,
                   **estimate_kwargs) -> ConverseReport:
    """Evaluate the converse chain floor(rn) >= E_f(rho^n) - n*eps'F(E/eps') - g(eps').

    E is the A-marginal energy under the supplied grounded Hamiltonian;
    eps' = sqrt(epsilon * (2 - epsilon)).  ``epsilon`` is the trace
    distance (1/2)||.||_1 between the protocol output and rho^n, the
    convention of ``spectra.trace_distance`` and ``DilutionTrace.error``.
    The formation term is ``eof_surrogate_for_copies(rho, n)``: n times one
    ``eof_estimate`` of rho, exact for pure targets.  That search runs once
    per (state object, options), so a grid of calls over n and epsilon on
    one state searches once.

    The chain: an LOCC protocol turns floor(rn) ebits into sigma_n with
    (1/2)||sigma_n - rho^n||_1 <= epsilon.  E_F does not grow under LOCC,
    so floor(rn) >= E_F(sigma_n).  The one-sided continuity bound of
    ``gibbs.one_sided_continuity_bound`` then gives
    E_F(rho^n) - E_F(sigma_n) <= eps' F_n(nE/eps') + g(eps'), with the
    energy constraint on rho^n only.  Its docstring derives eps' from
    epsilon: Fuchs-van de Graaf, Uhlmann on purifications, measuring the
    ensemble register, then one-sided continuity of conditional entropy.
    For the sum Hamiltonian on n copies F_n(nE') = n F(E'), so the
    continuity term is n * eps' F(E/eps') while g(eps') is paid once.  At
    E = 0 the per-copy term is eps' * log2 of the ground degeneracy.
    """
    return _converse(rho, r, [epsilon], hamiltonian, n, **estimate_kwargs)[0]


def _converse(rho: BipartiteState, r: float, epsilons, hamiltonian: DiagonalHamiltonian,
              n: int, **estimate_kwargs) -> list[ConverseReport]:
    """Converse reports at each epsilon in ``epsilons``.  Only the continuity
    terms depend on epsilon, so the A-energy and the formation term are
    taken once for the whole grid, even an empty one, so that the estimate
    options are checked whatever the grid's length."""
    n = _checked_int(n, "n", 1)
    r = _checked_real(r, "r", 0.0, math.inf, "[)")
    if not math.isfinite(r * n):  # floor(r n) must exist
        raise ValueError("need r * n finite")
    epsilons = [_checked_real(epsilon, "epsilon", 0.0, 1.0, "(]") for epsilon in epsilons]
    energy = mean_energy_density(hamiltonian, partial_trace(rho, "A"))
    # a state within PSD tolerance can have an A-energy a hair below 0
    terms = [_continuity_terms(hamiltonian, max(0.0, energy), epsilon)
             for epsilon in epsilons]
    ef_total, kind = eof_surrogate_for_copies(rho, n, **estimate_kwargs)
    lhs = math.floor(r * n)
    return [ConverseReport(n, r, epsilon, energy, lhs, ef_total, kind,
                           n * cont_per_copy, g_term,
                           ef_total / n - cont_per_copy - g_term / n,
                           lhs - (ef_total - n * cont_per_copy - g_term))
            for epsilon, (cont_per_copy, g_term) in zip(epsilons, terms)]

