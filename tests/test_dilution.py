"""Dilution ledgers, mixing-driven convexity, and the converse chain."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from entcost import (
    BipartiteState,
    DilutionTrace,
    Ensemble,
    InvariantViolation,
    Spectrum,
    binary_mixing_error,
    converse_bound,
    curtailed_binomial_pmf,
    curtailed_binomial_sample,
    dilution_sweep,
    eof_pure,
    harmonic_oscillator,
    mixed_dilution_rate,
    pure_dilution,
    random_density_state,
    random_pure_state,
    regularized_probe,
    schmidt_decompose,
    stream,
)
from entcost import dilution, typicality
from entcost.typicality import SourceDistribution, _log2_prob, _members


def _geometric_pure_ensemble(members: int = 24) -> Ensemble:
    """p(x) proportional to 2^-x over pure states with marginal entropy <= 2 bits."""
    w = 2.0 ** -np.arange(members, dtype=float)
    pures = []
    for x in range(members):
        r = 0.25 + 0.5 * (x % 7) / 6.0
        q = r ** np.arange(4)
        pures.append(schmidt_decompose(np.diag(np.sqrt(q / q.sum()))))
    return Ensemble(w / w.sum(), tuple(pures))


def test_trace_invariants():
    with pytest.raises(InvariantViolation):
        DilutionTrace(n=4, ebits=3, error=1.5)
    t = DilutionTrace(n=4, ebits=3, error=0.1)
    assert t.cbits == 2 * t.ebits
    assert t.rate == t.ebits / t.n


def test_error_high_defaults_to_the_error_and_bounds_it():
    assert DilutionTrace(n=4, ebits=3, error=0.1).error_high == 0.1
    with pytest.raises(InvariantViolation):
        DilutionTrace(n=4, ebits=3, error=0.1, error_high=0.05)
    with pytest.raises(InvariantViolation):
        DilutionTrace(n=4, ebits=3, error=0.1, error_high=1.5)


def test_monte_carlo_error_high_bounds_a_zero_estimate():
    # all 1000 sampled blocks are typical at n = 2000, so the point estimate
    # reads 0.0; the 99% interval's mass_low = 0.005^(1/1000) bounds it
    spec = Spectrum(np.array([0.8, 0.2]))
    mc = dilution_sweep(spec, 0.1, [100, 2000], mode="mc", samples=1000)
    assert mc[1].error == 0.0
    assert mc[1].error_high == pytest.approx(
        math.sqrt(-math.expm1(math.log(0.005) / 1000)), rel=1e-12)
    exact = pure_dilution(spec, 0.1, 2000)
    assert exact.error_high == exact.error <= mc[1].error_high
    assert all(t.error <= t.error_high <= 1.0 for t in mc)


def test_ebit_dilutes_at_rate_one_with_zero_error():
    ebit = Spectrum(np.array([0.5, 0.5]))
    for n in (1, 3, 10, 64):
        t = pure_dilution(ebit, 0.01, n)
        assert t.error == 0.0
        assert t.ebits == n
        assert t.rate == 1.0
        assert t.cbits == 2 * n


@pytest.mark.parametrize("delta", [math.inf, math.nan, -0.1])
def test_dilution_rejects_delta_without_a_finite_cap(delta):
    # delta = inf overflowed in ceil(n (S + delta))
    with pytest.raises(ValueError):
        pure_dilution(Spectrum(np.array([0.8, 0.2])), delta, 10)


@pytest.mark.parametrize("n_grid", [[10.7], [10, 10.0], [10, "10"], [10, 0], [None]])
def test_dilution_rejects_a_block_length_that_is_not_a_positive_integer(monkeypatch, n_grid):
    # dilution_sweep ran n = 10 for 10.7, and pure_dilution raised a raw
    # TypeError; every n is checked before the first census
    def no_census(*args):
        raise AssertionError("a census ran")
    monkeypatch.setattr(dilution, "_census", no_census)
    spec = Spectrum(np.array([0.8, 0.2]))
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        dilution_sweep(spec, 0.05, n_grid)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        pure_dilution(spec, 0.05, n_grid[-1])


def test_a_monte_carlo_ledger_reads_no_type_table(monkeypatch):
    # dilution_sweep makes its census in every mode but draws from it only in
    # exact mode; the census is a generator, so a Monte Carlo ledger, which
    # the benchmark's sampling workload runs on every pass, builds no table
    def no_table(*args):
        raise RuntimeError("a type table was read")
    monkeypatch.setattr(typicality, "_judged_blocks", no_table)
    spec = Spectrum(np.array([0.8, 0.2]))
    traces = dilution_sweep(spec, 0.05, [40, 7, 40], mode="mc", samples=2000, seed=3)
    assert [(t.n, t.error_kind) for t in traces] == [(40, "mc-estimate"), (7, "mc-estimate"),
                                                     (40, "mc-estimate")]
    assert pure_dilution(spec, 0.05, 40, mode="mc", samples=2000, seed=3) == traces[0]
    with pytest.raises(RuntimeError, match="a type table was read"):
        pure_dilution(spec, 0.05, 40)


def test_dilution_checks_the_mode_on_an_empty_grid():
    # an unknown mode returned [] for an empty grid
    with pytest.raises(ValueError, match="unknown mode"):
        dilution_sweep(Spectrum(np.array([0.8, 0.2])), 0.05, [], mode="bogus")


def test_numpy_integer_block_lengths_dilute_as_python_ints():
    spec = Spectrum(np.array([0.7, 0.3]))
    traces = dilution_sweep(spec, 0.05, np.array([10, 300]))
    assert traces == dilution_sweep(spec, 0.05, [10, 300])
    assert [type(t.n) for t in traces] == [int, int]
    assert pure_dilution(spec, 0.05, np.int64(300)) == traces[1]


def test_product_state_needs_no_entanglement():
    t = pure_dilution(Spectrum(np.array([1.0])), 0.05, 20)
    assert t.ebits == 0
    assert t.error == 0.0
    assert t.rate == 0.0


def test_dilution_error_falls_below_tenth():
    spec = Spectrum(np.array([0.8, 0.2]))
    t = pure_dilution(spec, 0.05, 1731)
    assert t.error < 0.1
    assert t.error_kind == "exact"


def test_dilution_rate_within_entropy_window():
    spec = Spectrum(np.array([0.8, 0.2]))
    h = 0.7219280948873623
    for t in dilution_sweep(spec, 0.05, [10, 50, 200, 800]):
        assert t.rate <= h + 0.05 + 1.0 / t.n + 1e-12


def test_dilution_error_decreases_down_the_sweep():
    spec = Spectrum(np.array([0.8, 0.2]))
    errors = [t.error for t in dilution_sweep(spec, 0.05,
                                              [200, 400, 800, 1600])]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_exact_error_sums_the_cut_types_when_the_mass_rounds_near_one():
    # (3/4, 1/4) at n = 300, delta = 0.3 cuts a mass of 6.4e-13, of which
    # 1 - mass keeps about 4 digits; the squared error must be the exact
    # rational mass of the census's own non-members
    n, delta = 300, 0.3
    dist = SourceDistribution([0.75, 0.25])
    c0 = np.arange(n + 1)
    counts = np.column_stack([c0, n - c0])
    member = _members(dist, n, delta, "weak", counts, _log2_prob(dist, counts))
    cut = Fraction(sum(math.comb(n, int(c)) * 3 ** int(c) for c in c0[~member]), 4 ** n)
    error = pure_dilution(Spectrum(np.array([0.75, 0.25])), delta, n).error
    assert error ** 2 == pytest.approx(float(cut), rel=1e-12, abs=0.0)
    # types are cut at both points but the member mass rounds to 1, which
    # printed 0.0; the exact errors are rational sums over the cut types of
    # the float inputs
    traces = dilution_sweep(Spectrum(np.array([0.8, 0.2])), 0.3, [1000, 2000])
    for t, exact in zip(traces, (1.3219055272517313e-14, 6.642432056364038e-28)):
        assert t.error_high == t.error == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_sweep_builds_the_source_once_and_matches_single_calls(monkeypatch):
    spec = Spectrum(np.array([0.6, 0.3, 0.1, 0.0]))
    grid = [1, 7, 40, 120]
    for kwargs in ({}, {"mode": "mc", "samples": 2_000, "seed": 3}):
        singles = [pure_dilution(spec, 0.05, n, **kwargs) for n in grid]
        built = []
        source = dilution.SourceDistribution

        def counting_source(*args):
            built.append(args)
            return source(*args)

        monkeypatch.setattr(dilution, "SourceDistribution", counting_source)
        assert dilution_sweep(spec, 0.05, grid, **kwargs) == singles
        monkeypatch.undo()
        assert len(built) == 1


def test_monte_carlo_mode_tracks_exact():
    spec = Spectrum(np.array([0.7, 0.3]))
    exact = pure_dilution(spec, 0.05, 300)
    mc = pure_dilution(spec, 0.05, 300, mode="mc", samples=40_000, seed=9)
    assert mc.error_kind == "mc-estimate"
    assert abs(mc.error - exact.error) < 0.05
    # Monte Carlo books the theoretical subspace size
    assert mc.ebits == math.ceil(300 * (0.8812908992306927 + 0.05))


def test_mixed_single_member_rate_is_marginal_entropy():
    psi = schmidt_decompose(np.diag([np.sqrt(0.8), np.sqrt(0.2)]))
    ens = Ensemble(np.array([1.0]), (psi,))
    for cut in (0, 3):
        point = mixed_dilution_rate(ens, cut)
        assert point.rate_bound == pytest.approx(eof_pure(psi), abs=1e-12)
        assert point.wasteful_term == 0.0
        assert point.delta_n == 0.0


def test_mixed_two_members_full_cut_is_exact_mean():
    m1 = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    m2 = schmidt_decompose(np.diag([1.0, 0.0]))
    ens = Ensemble(np.array([0.6, 0.4]), (m1, m2))
    point = mixed_dilution_rate(ens, 1)
    assert point.rate_bound == pytest.approx(0.6, abs=1e-12)
    assert point.wasteful_term == 0.0


@pytest.mark.parametrize("n_cut", [1.5, 0.5, 1.0, -1])
def test_mixed_cutoff_must_be_a_non_negative_integer(n_cut):
    # 1.5 was booked as a cutoff of n_cut=1.5, and 0.5 raised a raw TypeError
    m1 = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    ens = Ensemble(np.array([0.6, 0.4]), (m1, m1))
    with pytest.raises(ValueError, match="n_cut must be an integer >= 0"):
        mixed_dilution_rate(ens, n_cut)


def test_mixed_wasteful_term_vanishes_geometrically():
    ens = _geometric_pure_ensemble()
    points = [mixed_dilution_rate(ens, cut) for cut in range(0, 20)]
    wasteful = [p.wasteful_term for p in points]
    assert all(a > b for a, b in zip(wasteful, wasteful[1:]))
    assert wasteful[-1] < 1e-3
    # the rare weight itself halves with every extra common member
    deltas = [p.delta_n for p in points]
    assert all(abs(d2 / d1 - 0.5) < 0.05 for d1, d2 in zip(deltas, deltas[1:])
               if d1 > 1e-12)


def _seeded_pure_ensemble(seed: int) -> Ensemble:
    """5 + seed % 3 random pure members on (2 + seed % 3) x 3, random weights."""
    k = 5 + seed % 3
    w = stream(seed, 0).random(k)
    members = tuple(random_pure_state(stream(seed, 1 + x), 2 + seed % 3, 3)
                    for x in range(k))
    return Ensemble(w / w.sum(), members)


# (seed, n_cut, rate_bound, wasteful_term, delta_n) by float.hex: cut 0, a
# middle cut and a cut past the last member of each seeded ensemble
_MIXED_PINS = [
    (1, 0, "0x1.7f9fc0f79921dp+0", "0x1.6cf8af42e7c36p+0", "0x1.df2f43ae8f540p-1"),
    (1, 3, "0x1.30445cd764f40p+0", "0x1.41975bee0630ep-2", "0x1.0e3c2e595f604p-2"),
    (1, 7, "0x1.11a1064b0de77p+0", "0x0.0p+0", "0x0.0p+0"),
    (2, 0, "0x1.a585a43c236b3p+0", "0x1.6e352e7d8a38fp+0", "0x1.8cb0e967f8390p-1"),
    (2, 3, "0x1.549a0e1218bd2p+0", "0x1.aef805060d064p-1", "0x1.04b5c2e2d8259p-1"),
    (2, 8, "0x1.fc8367355259fp-1", "0x0.0p+0", "0x0.0p+0"),
    (3, 0, "0x1.e09b54431e648p-1", "0x1.961048acd10acp-1", "0x1.9e478f8490b29p-1"),
    (3, 2, "0x1.81e70ebc9b6afp-1", "0x1.47d3df8efd7ecp-2", "0x1.8669f69dcca0bp-2"),
    (3, 6, "0x1.81d6684b91bbap-1", "0x0.0p+0", "0x0.0p+0"),
]


@pytest.mark.parametrize("seed, n_cut, rate, wasteful, delta", _MIXED_PINS)
def test_mixed_dilution_rate_is_pinned_bit_for_bit(seed, n_cut, rate, wasteful, delta):
    # values taken while the wasteful term was the entropy of an unnormalized
    # Spectrum built from the averaged marginal's eigenvalues
    point = mixed_dilution_rate(_seeded_pure_ensemble(seed), n_cut)
    assert point.n_cut == n_cut
    assert (point.rate_bound.hex(), point.wasteful_term.hex(), point.delta_n.hex()) == \
        (rate, wasteful, delta)


def test_binary_mixing_hand_oracles():
    # n = 1, xi = 0.49 around one half: neither count is inside the window,
    # the raw bound saturates at 2
    assert binary_mixing_error(0.5, 0.49, 1) == 2.0
    # n = 2, xi = 0.5: every count is inside, the protocol is exact
    assert binary_mixing_error(0.5, 0.5, 2) == 0.0
    assert binary_mixing_error(0.3, 0.05, 10_000) < 1e-2


def _dyadic_binomial_terms(p0, n):
    """Bin(n, p0) terms as exact integers over the common denominator d^n,
    for a dyadic p0 = a / d."""
    a, d = p0.as_integer_ratio()
    return [math.comb(n, k) * a ** k * (d - a) ** (n - k) for k in range(n + 1)], d ** n


def test_curtailed_binomial_matches_exact_rationals():
    # the oracle sums exact integers on the float window _curtailed_support
    # returns; int / int rounds correctly, so the only error is the kernel's
    for n in range(1, 41):
        for p0 in (0.125, 0.5, 0.6875):
            for xi in (0.05, 0.15, 0.3):
                terms, total = _dyadic_binomial_terms(p0, n)
                ks = dilution._curtailed_support(p0, xi, n).tolist()
                outside = sum(terms) - sum(terms[k] for k in ks)
                got = binary_mixing_error(p0, xi, n)
                if outside == 0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(2 * outside / total, rel=1e-12)
                if ks:
                    inside = sum(terms[k] for k in ks)
                    support, probs = curtailed_binomial_pmf(p0, xi, n)
                    assert support.tolist() == ks
                    for k, q in zip(ks, probs):
                        assert q == pytest.approx(terms[k] / inside, rel=1e-12)


def test_binary_mixing_error_keeps_tiny_values():
    # 1 - mass by subtraction leaves only rounding noise, or 0.0, here
    assert binary_mixing_error(0.25, 0.15, 2000) == pytest.approx(
        7.19269539178494e-49, rel=1e-12)
    assert binary_mixing_error(0.01, 0.005, 10**5) > 0.0


def test_binary_mixing_error_is_positive_when_counts_are_curtailed():
    # (0.3, 0.2, 10^4) curtails counts whose 2 (1 - mass) is 3.0e-381, below
    # the smallest double: the bound reads that double, not 0.0
    assert binary_mixing_error(0.3, 0.2, 10_000) == math.ulp(0.0)
    # nothing is curtailed at (0.5, 0.6, 10), so the error is exactly 0.0
    assert binary_mixing_error(0.5, 0.6, 10) == 0.0


@pytest.mark.parametrize("window", [binary_mixing_error, curtailed_binomial_pmf])
def test_curtailed_window_rejects_nan_xi(window):
    # NaN passed the xi <= 0 check: the error read 2.0 and the pmf reported
    # an empty support, an invariant error, where the input is at fault
    with pytest.raises(ValueError) as caught:
        window(0.3, math.nan, 10)
    assert not isinstance(caught.value, InvariantViolation)


@pytest.mark.parametrize("window", [binary_mixing_error, curtailed_binomial_pmf])
def test_curtailed_window_rejects_a_non_integral_block_length(window):
    # the pmf raised a raw slice TypeError at n = 10.5
    with pytest.raises(ValueError, match="integer"):
        window(0.5, 0.1, 10.5)


def test_binary_mixing_error_non_increasing_in_blocks():
    errors = [binary_mixing_error(0.3, 0.05, n) for n in (10, 100, 1000, 10_000)]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[0] > errors[-1]


def test_curtailed_pmf_support_and_normalization():
    ks, probs = curtailed_binomial_pmf(0.3, 0.1, 100)
    assert ks.min() >= 20 and ks.max() <= 40
    assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvariantViolation):
        curtailed_binomial_pmf(0.5, 0.49, 1)


def test_curtailed_sampler_respects_support():
    draws = curtailed_binomial_sample(0.3, 0.1, 100, size=3000, seed=17)
    assert draws.min() >= 20 and draws.max() <= 40
    again = curtailed_binomial_sample(0.3, 0.1, 100, size=3000, seed=17)
    assert np.array_equal(draws, again)


def test_curtailed_sampler_singleton_support():
    # window so tight only the exact composition count fits
    draws = curtailed_binomial_sample(0.5, 1e-9, 2, size=50, seed=1)
    assert np.all(draws == 1)


def test_converse_terms_decrease_with_epsilon():
    bell = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    rho = bell.to_density()
    h = harmonic_oscillator()
    reports = [converse_bound(rho, 1.0, eps, h, 4, seed=0)
               for eps in (1e-2, 1e-3, 1e-4)]
    conts = [r.continuity_term_bits for r in reports]
    gs = [r.g_term_bits for r in reports]
    assert all(a > b for a, b in zip(conts, conts[1:]))
    assert all(a > b for a, b in zip(gs, gs[1:]))
    lowers = [r.rate_lower_bound for r in reports]
    assert all(a < b for a, b in zip(lowers, lowers[1:]))


def test_a_converse_grid_on_one_state_anneals_once(anneals):
    # the probe's one-copy estimate, Wootters' decomposition with no
    # annealing, serves all nine converse points; the 4 x 4 two-copy search
    # (one restart plus the polish) is the probe's own and the only anneal
    rho = random_density_state(stream(31, 14), 2, 2, rank=2)
    options = {"restarts": 1, "iterations": 300, "seed": 5}
    regularized_probe(rho, 2, **options)
    grid = [(n, eps) for n in (1, 2, 3) for eps in (1e-2, 1e-3, 1e-4)]
    reports = [converse_bound(rho, 1.0, eps, harmonic_oscillator(), n, **options)
               for n, eps in grid]
    assert anneals == [8, 8]
    for (n, eps), rep in zip(grid, reports):
        fresh = BipartiteState(rho.dim_a, rho.dim_b, rho.matrix)
        want = converse_bound(fresh, 1.0, eps, harmonic_oscillator(), n, **options)
        assert dataclasses.astuple(rep) == dataclasses.astuple(want)
    assert rep.surrogate_kind == "estimate-upper"


def test_converse_pure_target_uses_exact_surrogate():
    bell = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    rep = converse_bound(bell.to_density(), 1.0, 1e-3, harmonic_oscillator(),
                         6, seed=0)
    assert rep.surrogate_kind == "pure-exact"
    assert rep.ef_surrogate_bits == pytest.approx(6.0, abs=1e-9)
    assert rep.lhs_ebits == 6


def test_converse_energy_below_zero_within_psd_tolerance():
    # eigenvalue -1e-13 is inside PSD_ATOL, so the A-energy is -1e-13; the
    # continuity term is taken at E = 0 (eps' * log2 1 = 0)
    rho = BipartiteState(2, 2, np.diag([1.0 + 1e-13, 0.0, -1e-13, 0.0]).astype(complex))
    rep = converse_bound(rho, 1.0, 1e-2, harmonic_oscillator(), 1)
    assert rep.energy == -1e-13
    assert rep.continuity_term_bits == 0.0


def test_converse_rejects_bad_epsilon():
    bell = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    with pytest.raises(ValueError):
        converse_bound(bell.to_density(), 1.0, 0.0, harmonic_oscillator(), 2)


@pytest.mark.parametrize("r, n", [(math.inf, 1), (1e308, 10), (math.nan, 1),
                                  (-1.0, 1), (1.0, 0), (1.0, 2.5)])
def test_converse_rejects_r_n_without_a_finite_floor(r, n):
    # floor(r n) overflowed for r = inf and for r n = 1e309; n = 2.5 gave
    # a report for 2.5 copies
    bell = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    with pytest.raises(ValueError):
        converse_bound(bell.to_density(), r, 1e-2, harmonic_oscillator(), n)

