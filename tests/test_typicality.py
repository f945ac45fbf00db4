"""Typical-set masses: exact type census, Monte Carlo, and rate bounds."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entcost import typicality
from entcost import (
    InvariantViolation,
    SourceDistribution,
    Spectrum,
    aep_bounds_check,
    is_weakly_typical,
    pure_dilution,
    sequence_rate_bits,
    strong_typical_mass,
    type_count,
    weak_typical_census,
    weak_typical_mass,
)


def test_source_distribution_entropy():
    d = SourceDistribution(np.array([0.9, 0.1]))
    assert d.entropy_bits == pytest.approx(0.4689955935892812, abs=1e-13)


@pytest.mark.parametrize("probs", [[1.0], [1.0, 0.0]])
def test_source_entropy_of_a_point_mass_is_positive_zero(probs):
    h = SourceDistribution(np.array(probs)).entropy_bits
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


@pytest.mark.parametrize("probs", [[math.nan, 0.5], [math.inf, 0.0],
                                   [0.5, 0.5, math.nan]])
def test_source_distribution_rejects_non_finite(probs):
    with pytest.raises(InvariantViolation):
        SourceDistribution(np.array(probs))


def test_source_distribution_copies_its_input():
    probs = np.array([0.5, 0.5])
    d = SourceDistribution(probs)
    probs[0] = 0.9
    assert d.probs.tolist() == [0.5, 0.5]


def test_source_entropy_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        SourceDistribution(np.array([0.5, 0.5]), entropy_bits=1.0)


def test_sequence_rate_and_membership():
    d = SourceDistribution(np.array([0.9, 0.1]))
    # the all-zeros block has rate -log2(0.9) = 0.152, far below H
    seq = np.zeros(20, dtype=int)
    rate = sequence_rate_bits(d, seq)
    assert rate == pytest.approx(-math.log2(0.9), abs=1e-13)
    assert not is_weakly_typical(d, seq, delta=0.05)
    # a block at the true composition sits inside any window
    seq2 = np.array([0] * 18 + [1] * 2)
    assert is_weakly_typical(d, seq2, delta=0.05)


def test_rate_infinite_on_impossible_symbol():
    d = SourceDistribution(np.array([1.0, 0.0]))
    assert sequence_rate_bits(d, [0, 1, 0]) == math.inf


def test_type_count_multiset_coefficient():
    assert type_count(2, 2) == 3
    assert type_count(5, 2) == 6
    assert type_count(4, 3) == 15


def test_weak_mass_empty_window_small_block():
    # (0.8, 0.2) at n = 2: attainable rates are 0.3219, 1.3219, 2.3219 while
    # H = 0.7219; the window [H - 0.05, H + 0.05] contains none of them
    d = SourceDistribution(np.array([0.8, 0.2]))
    rep = weak_typical_mass(d, 2, 0.05)
    assert rep.mass == 0.0
    assert rep.log2_cardinality_bound == -math.inf


def test_weak_mass_uniform_source_is_one_exactly():
    d = SourceDistribution(np.full(3, 1.0 / 3.0))
    rep = weak_typical_mass(d, 5, 0.1)
    assert rep.mass == 1.0
    assert rep.log2_cardinality_bound == pytest.approx(5.0 * math.log2(3.0),
                                                       abs=1e-12)


def test_weak_mass_ignores_zero_probability_symbols():
    # a padded alphabet must behave exactly like the unpadded one
    d2 = SourceDistribution(np.array([0.5, 0.5]))
    d3 = SourceDistribution(np.array([0.5, 0.5, 0.0]))
    r2 = weak_typical_mass(d2, 12, 0.08)
    r3 = weak_typical_mass(d3, 12, 0.08)
    assert r3.mass == pytest.approx(r2.mass, abs=1e-14)
    assert r3.log2_cardinality_bound == pytest.approx(
        r2.log2_cardinality_bound, abs=1e-12)


def test_strong_mass_hand_census():
    # (0.5, 0.5) at n = 2, delta = 0.1: only the (1, 1) composition has both
    # empirical frequencies within 0.1 of one half; its mass is 2 * 0.25
    d = SourceDistribution(np.array([0.5, 0.5]))
    rep = strong_typical_mass(d, 2, 0.1)
    assert rep.mass == pytest.approx(0.5, abs=1e-15)
    assert rep.log2_cardinality_bound == pytest.approx(1.0, abs=1e-12)


def test_strong_typicality_excludes_impossible_symbols():
    d = SourceDistribution(np.array([0.7, 0.3, 0.0]))
    rep = strong_typical_mass(d, 10, 0.25)
    assert rep.mass > 0.5
    # sequences using symbol 2 are excluded, so mass is also the mass of the
    # same census on the reduced alphabet
    d2 = SourceDistribution(np.array([0.7, 0.3]))
    rep2 = strong_typical_mass(d2, 10, 0.25)
    assert rep.mass == pytest.approx(rep2.mass, abs=1e-14)


def test_census_matches_report_and_integer_count():
    d = SourceDistribution(np.array([0.8, 0.2]))
    mass, count = weak_typical_census(d, 60, 0.08)
    rep = weak_typical_mass(d, 60, 0.08)
    assert mass == pytest.approx(rep.mass, abs=1e-15)
    assert isinstance(count, int)
    assert count > 0
    assert rep.log2_cardinality_bound == pytest.approx(math.log2(count),
                                                       abs=1e-10)


def test_mass_grows_with_block_length():
    d = SourceDistribution(np.array([0.7, 0.3]))
    masses = [weak_typical_mass(d, n, 0.05).mass for n in (100, 400, 1000)]
    assert masses[0] < masses[1] < masses[2]
    assert masses[2] >= 0.99


def test_mass_grows_with_delta():
    d = SourceDistribution(np.array([0.8, 0.2]))
    masses = [weak_typical_mass(d, 120, delta).mass
              for delta in (0.02, 0.05, 0.1, 0.2)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    assert masses[-1] > masses[0]


def test_cardinality_bounded_by_entropy_window():
    d = SourceDistribution(np.array([0.6, 0.3, 0.1]))
    n, delta = 40, 0.07
    rep = weak_typical_mass(d, n, delta)
    assert rep.log2_cardinality_bound <= n * (d.entropy_bits + delta) + 1e-9


def test_monte_carlo_interval_covers_exact_mass():
    d = SourceDistribution(np.array([0.8, 0.2]))
    exact = weak_typical_mass(d, 80, 0.06).mass
    mc = weak_typical_mass(d, 80, 0.06, mode="mc", samples=60_000, seed=3)
    assert mc.mode == "mc"
    assert mc.mass_low <= exact <= mc.mass_high
    assert abs(mc.mass - exact) < 0.02


def test_monte_carlo_strong_agrees():
    d = SourceDistribution(np.array([0.5, 0.3, 0.2]))
    exact = strong_typical_mass(d, 30, 0.1).mass
    mc = strong_typical_mass(d, 30, 0.1, mode="mc", samples=60_000, seed=5)
    assert mc.mass_low <= exact <= mc.mass_high


@pytest.mark.parametrize("kind", ["weak", "strong"])
@pytest.mark.parametrize("probs, n", [([0.7, 0.0, 0.3], 60),
                                      ([0.5, 0.3, 0.0, 0.2], 40),
                                      ([0.4, 0.3, 0.0, 0.2, 0.1], 25)])
def test_monte_carlo_types_agree_with_census(kind, probs, n):
    # K = 2..4 symbols of positive probability plus one of probability zero
    dist = SourceDistribution(np.array(probs))
    fn = weak_typical_mass if kind == "weak" else strong_typical_mass
    exact = fn(dist, n, 0.08).mass
    samples = 50_000
    mc = fn(dist, n, 0.08, mode="mc", samples=samples, seed=11)
    # the variance floor 4/N covers the Poisson regime near mass 0 or 1
    se = math.sqrt(max(exact * (1.0 - exact), 4.0 / samples) / samples)
    assert abs(mc.mass - exact) <= 5.0 * se
    assert mc.mass_low <= exact <= mc.mass_high
    assert (mc.mode, mc.samples) == ("mc", samples)


def test_monte_carlo_does_not_depend_on_chunk_size(monkeypatch):
    dist = SourceDistribution(np.array([0.5, 0.3, 0.0, 0.2]))

    def reports():
        return [weak_typical_mass(dist, 200, 0.05, mode="mc", samples=1003, seed=7),
                strong_typical_mass(dist, 200, 0.05, mode="mc", samples=1003, seed=7)]

    want = reports()
    monkeypatch.setattr(typicality, "_BLOCK_ROWS", 5)
    assert reports() == want


def test_monte_carlo_same_seed_same_report():
    dist = SourceDistribution(np.array([0.8, 0.2]))
    first = weak_typical_mass(dist, 500, 0.05, mode="mc", samples=20_000, seed=21)
    assert weak_typical_mass(dist, 500, 0.05, mode="mc", samples=20_000, seed=21) == first
    assert weak_typical_mass(dist, 500, 0.05, mode="mc", samples=20_000, seed=22) != first


def test_monte_carlo_memory_does_not_grow_with_n():
    # drawing whole sequences would hold at least 200 000 x 100 000 symbols
    # in chunks of 2e7, 160 MB each; types take K integers per sample
    dist = SourceDistribution(np.array([0.8, 0.2]))
    tracemalloc.start()
    try:
        rep = weak_typical_mass(dist, 100_000, 0.01, mode="mc", samples=200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.mass_low <= rep.mass <= rep.mass_high
    assert peak < 16 * 2 ** 20


def _binomial_tail_at_least(k, n, p):
    """P(X >= k) for X ~ Bin(n, p), exactly, at the float p = a / b."""
    a, b = p.as_integer_ratio()
    return Fraction(sum(math.comb(n, j) * a ** j * (b - a) ** (n - j)
                        for j in range(k, n + 1)), b ** n)


def test_clopper_pearson_solves_exact_rational_tails():
    # each bound's defining tail, summed in exact rationals at the float bound
    alpha = Fraction(1, 200)
    for n in range(1, 41):
        for k in range(n + 1):
            lo, hi = typicality._clopper_pearson_99(k, n)
            if k > 0:  # P(X >= k; lo) = alpha
                tail = _binomial_tail_at_least(k, n, lo)
                assert abs(tail / alpha - 1) <= 1e-12, (k, n)
            if k < n:  # P(X <= k; hi) = alpha
                tail = 1 - _binomial_tail_at_least(k + 1, n, hi)
                assert abs(tail / alpha - 1) <= 1e-12, (k, n)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 1000, 10 ** 6])
def test_clopper_pearson_closed_forms_at_the_ends(n):
    assert typicality._clopper_pearson_99(0, n) == (
        0.0, -math.expm1(math.log(0.005) / n))
    assert typicality._clopper_pearson_99(n, n) == (0.005 ** (1.0 / n), 1.0)


@pytest.mark.parametrize("n", [2, 3, 40, 999, 10 ** 5])
def test_clopper_pearson_upper_is_the_mirrored_lower(n):
    for k in sorted({1, 2, n // 3, n // 2, n - 2, n - 1} - {0, n}):
        _, hi = typicality._clopper_pearson_99(k, n)
        mirrored, _ = typicality._clopper_pearson_99(n - k, n)
        assert abs(hi - (1.0 - mirrored)) <= math.ulp(1.0)


def test_clopper_pearson_at_huge_sample_counts_builds_no_table():
    # a table of ln k! up to 1e8 would take 800 MB; the tail sums only
    # the terms near the mode
    n = 10 ** 8
    tracemalloc.start()
    try:
        lo, hi = typicality._clopper_pearson_99(n // 2, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo < 0.5 < hi
    assert peak < 16 * 2 ** 20


def test_nan_delta_is_rejected():
    # a NaN window used to give mass 0.0 (and error 1.0 in dilution)
    dist = SourceDistribution(np.array([0.8, 0.2]))
    with pytest.raises(ValueError):
        is_weakly_typical(dist, [0, 1], math.nan)
    with pytest.raises(ValueError):
        weak_typical_mass(dist, 10, math.nan)
    with pytest.raises(ValueError):
        strong_typical_mass(dist, 10, math.nan)
    with pytest.raises(ValueError):
        weak_typical_census(dist, 10, math.nan)
    with pytest.raises(ValueError):
        pure_dilution(Spectrum(np.array([0.8, 0.2])), math.nan, 10)


@pytest.mark.parametrize("samples", [0, -5])
def test_monte_carlo_rejects_non_positive_samples(samples):
    dist = SourceDistribution(np.array([0.8, 0.2]))
    with pytest.raises(ValueError):
        weak_typical_mass(dist, 10, 0.1, mode="mc", samples=samples)
    with pytest.raises(ValueError):
        strong_typical_mass(dist, 10, 0.1, mode="mc", samples=samples)
    with pytest.raises(ValueError):
        pure_dilution(Spectrum(np.array([0.8, 0.2])), 0.1, 10, mode="mc",
                      samples=samples)


def test_aep_bounds_hold_on_window():
    d = SourceDistribution(np.array([0.8, 0.2]))
    assert aep_bounds_check(d, 50, 0.1)


def test_aep_bounds_fail_when_tightened():
    # typical types at deviation in (delta/2, delta] violate the tightened
    # probability window, so the check must notice
    d = SourceDistribution(np.array([0.8, 0.2]))
    assert not aep_bounds_check(d, 50, 0.1, bound_delta=0.05)


def test_exact_mode_rejects_huge_type_tables():
    d = SourceDistribution(np.full(12, 1.0 / 12.0))
    with pytest.raises(ValueError):
        weak_typical_mass(d, 64, 0.05, max_types=10_000)


def _brute_force(p, n, delta, kind):
    """(mass, member count, AEP verdicts at delta and delta/2) from all K^n
    sequences; assumes no sequence sits within 1e-9 of a window edge."""
    seqs = np.array(list(itertools.product(range(p.size), repeat=n)))
    prob = np.prod(p[seqs], axis=1)
    feasible = prob > 0.0
    h = SourceDistribution(p).entropy_bits
    rate_dev = np.abs(-np.log2(np.where(feasible, prob, 1.0)) / n - h)[feasible]
    if kind == "weak":
        dev = rate_dev
    else:
        freq = np.stack([np.sum(seqs == s, axis=1) for s in range(p.size)], axis=1) / n
        dev = np.max(np.abs(freq - p)[:, p > 0.0], axis=1)[feasible]
    assume(np.all(np.abs(dev - delta) > 1e-9))
    member = dev <= delta
    typical = rate_dev[rate_dev <= delta]
    assume(np.all(np.abs(typical - delta / 2) > 1e-9))
    return (math.fsum(prob[feasible][member]), int(np.sum(member)),
            True, bool(np.all(typical <= delta / 2)))


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                        min_size=1, max_size=4).filter(lambda w: sum(w) > 0.0),
       n=st.integers(1, 6), delta=st.floats(0.0, 0.6),
       kind=st.sampled_from(["weak", "strong"]))
def test_census_matches_brute_force_enumeration(weights, n, delta, kind):
    # every K^n sequence of a K <= 4 alphabet, zero-probability symbols
    # included, against the type census: masses to 1e-12, counts exactly
    p = np.array(weights) / sum(weights)
    dist = SourceDistribution(p)
    mass, count, aep, aep_half = _brute_force(p, n, delta, kind)
    if kind == "weak":
        got_mass, got_count = weak_typical_census(dist, n, delta)
        assert got_count == count
    else:
        rep = strong_typical_mass(dist, n, delta)
        got_mass = rep.mass
        assert rep.log2_cardinality_bound == (math.log2(count) if count else -math.inf)
    assert got_mass == pytest.approx(mass, abs=1e-12)
    assert aep_bounds_check(dist, n, delta) == aep
    assert aep_bounds_check(dist, n, delta, bound_delta=delta / 2) == aep_half


def test_census_counts_are_exact_integers_at_large_n():
    n = 2000
    mass, count = weak_typical_census(SourceDistribution(np.array([0.5, 0.5])), n, 0.05)
    assert (mass, count) == (1.0, 2 ** n)
    # membership is the bare compare of the symbol-by-symbol log2 probability
    p = np.array([0.8, 0.2])
    dist = SourceDistribution(p)
    log2p = np.log2(p)
    members = [c0 for c0 in range(n + 1)
               if abs(-(0.0 + c0 * log2p[0] + (n - c0) * log2p[1]) / n
                      - dist.entropy_bits) <= 0.05]
    assert len(members) == 100
    _, count = weak_typical_census(dist, n, 0.05)
    assert count == sum(math.comb(n, c0) for c0 in members)


@pytest.mark.parametrize("probs, n", [([0.5, 0.3, 0.2], 40),
                                      ([0.4, 0.3, 0.2, 0.1], 20),
                                      ([0.6, 0.0, 0.4], 30)])
def test_census_does_not_depend_on_block_size(monkeypatch, probs, n):
    dist = SourceDistribution(np.array(probs))

    def census():
        return ([weak_typical_census(dist, n, d) for d in (0.02, 0.1)],
                [strong_typical_mass(dist, n, d) for d in (0.05, 0.15)],
                aep_bounds_check(dist, n, 0.1, bound_delta=0.05))

    want = census()
    monkeypatch.setattr(typicality, "_BLOCK_ROWS", 5)
    got = census()
    assert [c for _, c in got[0]] == [c for _, c in want[0]]
    assert [r.log2_cardinality_bound for r in got[1]] == \
        [r.log2_cardinality_bound for r in want[1]]
    assert got[2] == want[2]
    for g, w in zip([m for m, _ in got[0]] + [r.mass for r in got[1]],
                    [m for m, _ in want[0]] + [r.mass for r in want[1]]):
        assert g == pytest.approx(w, abs=1e-14)


def test_census_memory_is_bounded_by_blocks():
    # 658 008 types; their counts matrix alone would take 31.6 MB
    dist = SourceDistribution(np.full(6, 1.0 / 6.0))
    n = 35
    assert type_count(n, 6) == 658_008
    tracemalloc.start()
    try:
        mass, count = weak_typical_census(dist, n, 0.1)
        # a strong window of 0.02 admits only c_i = 6, which sums to 36 != 35
        strong = strong_typical_mass(dist, n, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (mass, count) == (1.0, 6 ** n)
    assert strong.mass == 0.0
    assert peak < 12 * 2 ** 20


def _census_member_types(dist, n, delta, kind):
    """Count rows of the types the census itself counts as members."""
    return [row for counts, log2_prob in typicality._type_blocks(dist, n, type_count(n, len(dist)))
            for row in counts[typicality._members(dist, n, delta, kind, counts,
                                                  log2_prob)].tolist()]


@pytest.mark.parametrize("numerators, n, delta", [((3, 1), 300, 0.05),
                                                  ((3, 1), 2000, 0.02),
                                                  ((4, 3, 1), 120, 0.1)])
def test_census_masses_match_exact_integer_sums(numerators, n, delta):
    # dyadic p_i = a_i / d: a type's mass is multinomial(n; c) prod a_i^c_i
    # over d^n, so a set's mass is one integer over d^n, summed over the
    # census's own members
    d = sum(numerators)
    dist = SourceDistribution(np.array(numerators) / d)
    for kind, fn in (("weak", weak_typical_mass), ("strong", strong_typical_mass)):
        exact = 0
        for c in _census_member_types(dist, n, delta, kind):
            term, rem = 1, n
            for a, ci in zip(numerators, c):
                term *= math.comb(rem, ci) * a ** ci
                rem -= ci
            exact += term
        assert 0 < exact < d ** n, (kind, "the window must cut the set")
        got = fn(dist, n, delta).mass
        assert abs(Fraction(got) / Fraction(exact, d ** n) - 1) <= 1e-13, kind


def test_sequence_membership_is_the_census_membership():
    # (0.8, 0.2) at n = 84, delta = 0.1: the type (63, 21) sits on the window
    # edge; the census counts it as a member, while a rate summed symbol by
    # symbol along the sequence falls just outside
    dist = SourceDistribution(np.array([0.8, 0.2]))
    assert is_weakly_typical(dist, [0] * 63 + [1] * 21, 0.1)
    # binary: every n <= 120, the end types and the type on each side of
    # every window edge; K = 3: every type
    grid = [((0.8, 0.2), n) for n in range(1, 121)]
    grid += [(probs, n) for probs in ((0.5, 0.3, 0.2), (0.6, 0.0, 0.4)) for n in (6, 10)]
    for probs, n in grid:
        dist = SourceDistribution(np.array(probs))
        (counts, log2_prob), = typicality._type_blocks(dist, n, type_count(n, len(probs)))
        for delta in (0.05, 0.1):
            member = typicality._members(dist, n, delta, "weak", counts, log2_prob)
            rows = range(len(counts))
            if len(probs) == 2:
                edges = np.flatnonzero(member[1:] != member[:-1])
                rows = sorted({0, n, *edges.tolist(), *(edges + 1).tolist()})
            for i in rows:
                seq = np.repeat(np.arange(len(probs)), counts[i])
                assert is_weakly_typical(dist, seq, delta) == member[i], (probs, counts[i], delta)
