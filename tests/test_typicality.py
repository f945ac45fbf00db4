"""Typical-set masses: exact type census, Monte Carlo, and rate bounds."""

import functools
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entcost import typicality
from entcost import (
    InvariantViolation,
    SourceDistribution,
    Spectrum,
    aep_bounds_check,
    dilution_sweep,
    is_weakly_typical,
    pure_dilution,
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
    assert not is_weakly_typical(d, seq, delta=0.05)
    # a block at the true composition sits inside any window
    seq2 = np.array([0] * 18 + [1] * 2)
    assert is_weakly_typical(d, seq2, delta=0.05)


@pytest.mark.parametrize("seq", [[0.9, 1.7, 0.2], [0, 1.5], [0.0, math.nan],
                                 [1.0, math.inf], ["0", "1"], [True, False, True],
                                 np.array([False, True, False])])
def test_sequence_of_non_integer_symbols_is_rejected(seq):
    # [0.9, 1.7, 0.2] was read as [0, 1, 0] and judged typical, and
    # [True, False, True] as [1, 0, 1]: a bool is never an integer
    with pytest.raises(ValueError, match="integers"):
        is_weakly_typical(SourceDistribution([0.7, 0.3]), seq, 0.5)


def test_integral_sequences_of_any_numeric_type_are_read_as_symbols():
    d = SourceDistribution([0.7, 0.3])
    for seq in ([0, 1, 0], np.array([0, 1, 0]), np.array([0, 1, 0], dtype=np.uint8),
                [0.0, 1.0, 0.0]):
        assert is_weakly_typical(d, seq, 0.5)
    assert not is_weakly_typical(d, [1.0, 1.0, 1.0], 0.5)


@pytest.mark.parametrize("seq", [[[0, 1], [1, 0]], 1])
def test_sequence_that_is_not_one_dimensional_is_rejected(seq):
    # [[0, 1], [1, 0]] was flattened and judged typical as a length-4
    # sequence, and a bare 1 as a length-1 sequence
    with pytest.raises(ValueError, match="one-dimensional"):
        is_weakly_typical(SourceDistribution([0.7, 0.3]), seq, 0.5)


def test_rate_infinite_on_impossible_symbol():
    # a zero-probability symbol makes the rate +inf, outside every window
    d = SourceDistribution(np.array([1.0, 0.0]))
    assert not is_weakly_typical(d, [0, 1, 0], delta=math.inf)


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


def _exact_results(dist, n, delta):
    """Every exact census result at (n, delta), floats taken by float.hex."""
    weak, strong = weak_typical_mass(dist, n, delta), strong_typical_mass(dist, n, delta)
    return [_hexes(r.mass, r.log2_cardinality_bound, r.mass_low, r.mass_high)
            for r in (weak, strong)] + [
        _hexes(*weak_typical_census(dist, n, delta)),
        _hexes(aep_bounds_check(dist, n, delta), aep_bounds_check(dist, n, delta, delta / 2))]


# (unpadded probabilities, n, delta, the same padded with zeros first, in the
# middle and last).  Padded (0.4, 0, 0.3, 0, 0.2, 0.1) at n = 30 has
# C(35, 5) = 324 632 types, more than a block, while its support's
# C(33, 3) = 5 456 fit one: summed over the padded table block by block, its
# weak mass was 1 ulp above the unpadded one
_PADDED = [
    ((0.5, 0.5), 12, 0.08, [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]),
    ((0.7, 0.3), 10, 0.25, [(0.0, 0.0, 0.7, 0.3), (0.7, 0.0, 0.3), (0.7, 0.3, 0.0)]),
    ((0.6, 0.4), 30, 0.1, [(0.0, 0.6, 0.4), (0.6, 0.0, 0.4), (0.6, 0.4, 0.0, 0.0)]),
    ((0.4, 0.3, 0.2, 0.1), 30, 0.1, [(0.0, 0.4, 0.3, 0.2, 0.1), (0.4, 0.0, 0.3, 0.0, 0.2, 0.1),
                                     (0.4, 0.3, 0.2, 0.1, 0.0)]),
]


def test_weak_mass_ignores_zero_probability_symbols():
    # a padded alphabet must behave exactly like the unpadded one: weak,
    # strong, the weak census and the AEP check, bit for bit
    for probs, n, delta, padded in _PADDED:
        want = _exact_results(SourceDistribution(np.array(probs)), n, delta)
        for pad in padded:
            assert _exact_results(SourceDistribution(np.array(pad)), n, delta) == want, pad


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
    # same census on the reduced alphabet, to the bit
    rep2 = strong_typical_mass(SourceDistribution(np.array([0.7, 0.3])), 10, 0.25)
    assert (rep.mass.hex(), rep.log2_cardinality_bound.hex()) == \
        (rep2.mass.hex(), rep2.log2_cardinality_bound.hex())


def test_the_monte_carlo_strong_bound_counts_only_the_support():
    # the bound was n log2 of the alphabet's size, zero-probability symbols
    # included: 10 log2 3 = 15.85 for the padded source; the exact log2 size
    # of both sets is 9.39
    padded, bare = (SourceDistribution(np.array(p)) for p in ([0.5, 0.5, 0.0], [0.5, 0.5]))
    reports = [strong_typical_mass(d, 10, 0.1, mode="mc", samples=2_000, seed=4)
               for d in (padded, bare)]
    assert [r.log2_cardinality_bound for r in reports] == [10.0, 10.0]
    assert reports[0] == reports[1]
    exact = strong_typical_mass(padded, 10, 0.1).log2_cardinality_bound
    assert exact == strong_typical_mass(bare, 10, 0.1).log2_cardinality_bound
    assert exact == pytest.approx(math.log2(252 + 2 * 210), abs=1e-12)


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


@pytest.mark.parametrize("call", [
    lambda dist: weak_typical_mass(dist, 10.7, 0.1, mode="mc", samples=100),
    lambda dist: weak_typical_mass(dist, 10.7, 0.1),
    lambda dist: strong_typical_mass(dist, 10.7, 0.1),
    lambda dist: strong_typical_mass(dist, 10.0, 0.1, mode="mc", samples=100),
    lambda dist: weak_typical_census(dist, 10.7, 0.1),
    lambda dist: aep_bounds_check(dist, 10.7, 0.1),
])
def test_non_integral_block_length_is_rejected(call):
    # the Monte Carlo mass read 0.45 at n = 10.7; exact mode raised a raw
    # TypeError from the census
    with pytest.raises(ValueError, match="integer"):
        call(SourceDistribution([0.7, 0.3]))


def test_numpy_integer_block_length_is_counted_exactly():
    # K^n with a NumPy n overflowed: the uniform census counted 0 sequences
    uniform, dist = SourceDistribution([0.5, 0.5]), SourceDistribution([0.7, 0.3])
    assert weak_typical_census(uniform, np.int64(100), 0.05) == (1.0, 2 ** 100)
    assert weak_typical_mass(dist, np.int64(300), 0.05) == weak_typical_mass(dist, 300, 0.05)
    assert aep_bounds_check(dist, np.int64(300), 0.05)


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


def test_monte_carlo_rejects_sample_counts_above_the_limit(monkeypatch):
    # 2^40 samples ran until killed; the limit is checked before any stream
    def no_draws(*args):
        raise AssertionError("a stream was made")
    monkeypatch.setattr(typicality, "stream", no_draws)
    dist = SourceDistribution(np.array([0.8, 0.2]))
    for samples in (typicality.MAX_SAMPLES + 1, 2 ** 40):
        for fn in (weak_typical_mass, strong_typical_mass):
            with pytest.raises(ValueError, match="samples"):
                fn(dist, 10, 0.1, mode="mc", samples=samples)
        with pytest.raises(ValueError, match="samples"):
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


@pytest.mark.parametrize("n, delta, bound_delta", [
    (0, 0.1, None), (10, math.nan, None), (10, -0.5, None),
    (10, 0.1, -0.05), (10, 0.1, math.nan)])
def test_aep_bounds_check_rejects_bad_block_and_windows(n, delta, bound_delta):
    # each of these read True (n = 0 after a divide-by-zero warning) or
    # False, where its siblings raise
    d = SourceDistribution(np.array([0.8, 0.2]))
    with pytest.raises(ValueError):
        aep_bounds_check(d, n, delta, bound_delta=bound_delta)


def test_exact_mode_rejects_huge_type_tables():
    # 12 symbols at n = 64 make C(75, 11) = 4.9e12 types, above MAX_TYPES
    d = SourceDistribution(np.full(12, 1.0 / 12.0))
    with pytest.raises(ValueError):
        weak_typical_mass(d, 64, 0.05)


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


def test_binary_census_holds_one_multiplicity_at_a_time():
    # at n = 20 000 and delta = 0.4, 8 001 binary types are members; their
    # exact multiplicities, of up to 20 000 bits each, take about 12 MB
    # together, while the table of 20 001 rows takes well under 1 MB
    tracemalloc.start()
    try:
        rep = weak_typical_mass(SourceDistribution(np.array([0.8, 0.2])), 20_000, 0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.mass == 1.0
    assert peak < 4 * 2 ** 20


def _census_member_types(dist, n, delta):
    """Count rows of the types the census itself counts as weak members."""
    source, _, delta = typicality._check_block(dist, [n], delta)
    return [row for _, counts, _, member in typicality._judged_blocks(source, [n], delta)
            for row in counts[member].tolist()]


@pytest.mark.parametrize("numerators, n, delta", [((3, 1), 300, 0.05),
                                                  ((3, 1), 2000, 0.02),
                                                  ((4, 3, 1), 120, 0.1)])
def test_census_masses_match_exact_integer_sums(numerators, n, delta):
    # dyadic p_i = a_i / d: a type's mass is multinomial(n; c) prod a_i^c_i
    # over d^n, so a set's mass is one integer over d^n, summed over the
    # census's own weak members, and by _exact_strong over the strong box
    d = sum(numerators)
    dist = SourceDistribution(np.array(numerators) / d)
    weak = 0
    for c in _census_member_types(dist, n, delta):
        term, rem = 1, n
        for a, ci in zip(numerators, c):
            term *= math.comb(rem, ci) * a ** ci
            rem -= ci
        weak += term
    strong = _exact_strong(dist.probs, n, delta)[0]
    for kind, fn, exact in (("weak", weak_typical_mass, Fraction(weak, d ** n)),
                            ("strong", strong_typical_mass, strong)):
        assert 0 < exact < 1, (kind, "the window must cut the set")
        got = fn(dist, n, delta).mass
        assert abs(Fraction(got) / exact - 1) <= 1e-13, kind


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
        # the census reads the support; its columns are these symbols
        source, _, _ = typicality._check_block(dist, [n], 0.0)
        symbols = source.symbols
        for delta in (0.05, 0.1):
            (_, counts, _, member), = typicality._judged_blocks(source, [n], delta)
            rows = range(len(counts))
            if len(probs) == 2:
                edges = np.flatnonzero(member[1:] != member[:-1])
                rows = sorted({0, n, *edges.tolist(), *(edges + 1).tolist()})
            for i in rows:
                seq = np.repeat(symbols, counts[i])
                assert is_weakly_typical(dist, seq, delta) == member[i], (probs, counts[i], delta)


def _seeded_source(seed):
    return np.sort(np.random.default_rng(seed).dirichlet(np.ones(3)))[::-1].tolist()


# (probabilities, n, deltas): K = 1; uniform sources, which cut no type, in
# one block and in several; a zero-probability symbol; single blocks with and
# without a cut; tables of more than 32 768 types; and the regime where
# 1 - mass <= 1e-6, in one block and in several
_PIN_GRID = [
    ([1.0], 5, (0.0, 0.1)),
    ([0.5, 0.5], 50, (0.05,)),
    ([0.6, 0.0, 0.4], 30, (0.1, 0.3)),
    ([0.8, 0.2], 84, (0.05, 0.1)),
    ([0.75, 0.25], 300, (0.3,)),
    ([0.5, 0.3, 0.2], 180, (0.05, 0.7)),
    ([1 / 3, 1 / 3, 1 / 3], 300, (0.05,)),
    ([0.5, 0.3, 0.2], 300, (0.05,)),
    ([0.4, 0.3, 0.2, 0.1], 60, (0.1,)),
    (_seeded_source(1), 240, (0.8,)),
    (_seeded_source(2), 240, (0.8,)),
]


def _hexes(*values):
    return ",".join(v.hex() if isinstance(v, float) else repr(v) for v in values)


def _census_pin_digests():
    """SHA-256 digests of every census result over the pin grid, one per
    function, floats taken by float.hex."""
    seen = {name: hashlib.sha256() for name in
            ("weak", "strong", "census", "aep", "dilution", "mc")}
    for probs, n, deltas in _PIN_GRID:
        dist = SourceDistribution(np.array(probs))
        spec = Spectrum.from_unsorted(np.array(probs))
        for delta in deltas:
            for name, fn in (("weak", weak_typical_mass), ("strong", strong_typical_mass)):
                r = fn(dist, n, delta)
                seen[name].update(_hexes(r.mass, r.log2_cardinality_bound, r.mass_low,
                                         r.mass_high).encode())
            seen["census"].update(_hexes(*weak_typical_census(dist, n, delta)).encode())
            seen["aep"].update(_hexes(aep_bounds_check(dist, n, delta),
                                      aep_bounds_check(dist, n, delta, delta / 2)).encode())
            for t in dilution_sweep(spec, delta, [n, n // 2 + 1]):
                seen["dilution"].update(_hexes(t.ebits, t.error, t.error_high).encode())
            if n <= 84:
                for fn in (weak_typical_mass, strong_typical_mass):
                    r = fn(dist, n, delta, mode="mc", samples=3000, seed=n)
                    seen["mc"].update(_hexes(r.mass, r.mass_low, r.mass_high).encode())
                t = pure_dilution(spec, delta, n, mode="mc", samples=3000, seed=n)
                seen["mc"].update(_hexes(t.ebits, t.error, t.error_high).encode())
    return {name: h.hexdigest() for name, h in seen.items()}


def test_census_results_are_pinned_bit_for_bit():
    # digests taken from the census of four loops over the type table,
    # before weak, strong, AEP and dilution shared one reader and one sum;
    # strong retaken from the program over symbols, and weak and census once
    # a table of at most _BLOCK_ROWS types was tallied as one block (each
    # moved mass within 1e-14 of its last pin)
    assert _census_pin_digests() == {
        "weak": "e300890f6f8ce5f3b6e23814b2ca9260026697ea41cc8277438f303681b135b6",
        "strong": "c26e32a2382a9dc17190c01a1dc45f7f34d4985545303a80f59b140dbd2ad3ab",
        "census": "89fac1840e995cee493ab8a452e0b2a8a0894215cb66c5da51639a3ca57ecb63",
        "aep": "eb55c570b4f2dc33de61d38527121f4736e5b7b7f0cc4e868f327c29da5bbe23",
        "dilution": "00b3fb8576f1974f66bab540eae588a079c7593cb03ec3350dd3a53da5d1d75b",
        "mc": "abec93f3750202724dae63eec8f07b65e9b5feb3882e3e7b983327128448a55e"}


def _ledger_pin_digest():
    """SHA-256 over every dilution ledger on the census pin grid, exact and
    (for n <= 84) Monte Carlo, floats taken by float.hex."""
    seen = hashlib.sha256()
    for probs, n, deltas in _PIN_GRID:
        spec = Spectrum.from_unsorted(np.array(probs))
        for delta in deltas:
            traces = dilution_sweep(spec, delta, [n, n // 2 + 1])
            if n <= 84:
                traces += dilution_sweep(spec, delta, [n, n // 2 + 1], mode="mc",
                                         samples=3000, seed=n)
            for t in traces:
                seen.update(_hexes(t.n, t.ebits, t.cbits, t.rate, t.error,
                                   t.error_high, t.error_kind).encode())
    return seen.hexdigest()


def test_dilution_ledgers_are_pinned_bit_for_bit():
    # digest taken while DilutionTrace still took cbits and rate as inputs
    # and dilution_sweep forwarded to a private driver
    assert _ledger_pin_digest() == (
        "5909c04558916c55eba4b043543ef9bc86063e287d0db8a3b33783a1a4b3aca2")


# (probabilities, delta, block lengths): unsorted grids with repeated n, in
# every census regime: a cut, no cut, 1 - mass <= 1e-6, K = 1 to 4
_SWEEP_GRIDS = [
    ([0.8, 0.2], 0.05, [40, 7, 300, 7, 120, 1, 84, 84, 299, 2]),
    ([0.8, 0.2], 0.1, [int(n) for n in np.random.default_rng(5).permutation(120) + 1]
     + [60, 60]),
    ([0.75, 0.25], 0.3, [300, 151, 300, 2, 250, 299]),
    ([0.5, 0.5], 0.05, [5, 50, 3, 50]),
    ([1.0], 0.1, [3, 1, 3]),
    ([0.5, 0.3, 0.2], 0.1, [12, 40, 5, 40, 25, 1]),
    ([0.5, 0.3, 0.2], 0.6, [150, 20, 150]),
    ([1 / 3] * 3, 0.05, [30, 9, 30]),
    ([0.4, 0.3, 0.2, 0.1], 0.1, [10, 25, 3, 25]),
    (_seeded_source(2), 0.8, [240, 31]),
]


@pytest.mark.parametrize("block_rows", [64, 4096, None])
def test_a_sweep_books_each_block_as_its_own_one_block_call(monkeypatch, block_rows):
    # grids that span several blocks of types at 64 and 4096 rows a block;
    # at the default, a K = 3 table of two blocks (n = 200, 20 301 types)
    grids = list(_SWEEP_GRIDS)
    if block_rows is None:
        grids.append(([0.5, 0.3, 0.2], 0.05, [200, 31, 200]))
    else:
        monkeypatch.setattr(typicality, "_BLOCK_ROWS", block_rows)
    for probs, delta, ns in grids:
        spec = Spectrum.from_unsorted(np.array(probs))
        swept = dilution_sweep(spec, delta, ns)
        alone = [pure_dilution(spec, delta, n) for n in ns]
        assert [_hexes(t.n, t.ebits, t.cbits, t.rate, t.error, t.error_high, t.error_kind)
                for t in swept] == \
            [_hexes(t.n, t.ebits, t.cbits, t.rate, t.error, t.error_high, t.error_kind)
             for t in alone], (probs, delta)


@st.composite
def _sweeps(draw):
    """(probabilities, delta, unsorted grid with a repeated n, rows per block
    or None for the default): K = 1 to 4, sometimes with a zero-probability
    symbol.  The largest n still splits a K = 3 or 4 table over blocks, and
    keeps each call quick: at 64 rows a block, K = 3 tables split from n = 8
    and K = 4 from n = 4; at 4 096, from n = 64 and n = 19."""
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, k - 1))] = 0
    block_rows = draw(st.sampled_from([64, 4096, None]))
    top = {1: 300, 2: 300, 3: 30, 4: 15} if block_rows == 64 else {1: 300, 2: 300, 3: 100, 4: 30}
    ns = draw(st.lists(st.integers(1, top[k]), min_size=1, max_size=5))
    ns = draw(st.permutations(ns + draw(st.lists(st.sampled_from(ns), min_size=1,
                                                     max_size=3))))
    # a narrow window cuts most tables, so half the draws take delta <= 0.1
    delta = draw(st.one_of(st.floats(0.0, 0.1), st.floats(0.0, 1.0)))
    return np.array(weights) / sum(weights), delta, ns, block_rows


@given(_sweeps())
# two tables whose member rows continue one binomial run across the table
# edge: c_0 = 7 is the one member of n = 9, and c_0 = 8 the one of n = 10
@example((np.array([0.8, 0.2]), 0.05, [9, 10], None))
@settings(max_examples=60, deadline=None)
def test_any_sweep_books_each_block_as_its_own_one_block_call(sweep):
    # a block of several tables is tallied at once; each table, and each
    # dilution trace, keeps the bits of its census alone
    probs, delta, ns, block_rows = sweep
    # the census reads the support, as the door hands it over
    dist, _, _ = typicality._check_block(SourceDistribution(probs), ns, delta)
    spec = Spectrum.from_unsorted(probs)
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(typicality, "_BLOCK_ROWS", block_rows)
        assert [_hexes(mass, count, cut()) for mass, count, cut in
                typicality._census(dist, ns, delta)] == \
            [_hexes(mass, count, cut()) for n in ns
             for mass, count, cut in typicality._census(dist, [n], delta)]
        assert [_hexes(t.n, t.ebits, t.error, t.error_high) for t in
                dilution_sweep(spec, delta, ns)] == \
            [_hexes(t.n, t.ebits, t.error, t.error_high) for t in
             (pure_dilution(spec, delta, n) for n in ns)]


def _reads(monkeypatch):
    """A list that records the block count of every read of the type table."""
    reader, reads = typicality._judged_blocks, []

    def counted(*args):
        reads.append(0)
        for block in reader(*args):
            reads[-1] += 1
            yield block
    monkeypatch.setattr(typicality, "_judged_blocks", counted)
    return reads


def _walked_rows(monkeypatch):
    """A list that records the row count of every block the census sums."""
    terms, rows = typicality._type_terms, []

    def counted(n, counts, log2_prob):
        rows.append(len(counts))
        return terms(n, counts, log2_prob)
    monkeypatch.setattr(typicality, "_type_terms", counted)
    return rows


def _judged_rows(monkeypatch):
    """A list that records (rows, largest n) of every block of types judged."""
    judge, judged = typicality._judge, []

    def counted(dist, n, delta, counts):
        judged.append((len(counts), int(np.max(n))))
        return judge(dist, n, delta, counts)
    monkeypatch.setattr(typicality, "_judge", counted)
    return judged


@pytest.mark.parametrize("probs, n, delta, block_rows, regime, reads, rows", [
    ([0.8, 0.2], 84, 0.05, 1 << 15, "cut", (1, 1), (4, 4)),
    ([0.75, 0.25], 300, 0.3, 1 << 15, "direct", (1, 1), (113, 301)),
    ([0.5, 0.3, 0.2], 150, 0.6, 1 << 15, "direct", (1, 1), (10619, 11476)),
    ([1 / 3] * 3, 40, 0.05, 64, "none", (1, 1), (0, 0)),
    ([0.5, 0.3, 0.2], 40, 0.05, 64, "cut", (2, 2), (84, 84)),
    ([0.5, 0.3, 0.2], 150, 0.6, 4096, "direct", (2, 3), (10619, 11476)),
    # grids of tables that are each one block alone: 30 binary tables that
    # need two blocks together (60 465 types), and K = 3 tables that need two
    # (32 963 types)
    ([0.8, 0.2], list(range(1971, 2001)), 0.05, 1 << 15, "cut", (1, 1), (2978, 2978)),
    ([0.5, 0.3, 0.2], [150, 140, 150], 0.6, 1 << 15, "direct", (1, 1), (30499, 32963)),
])
def test_one_census_reads_the_type_table_as_often_as_its_regime_needs(
        monkeypatch, probs, n, delta, block_rows, regime, reads, rows):
    # a single block is held, so it is read once in every regime; a table of
    # several blocks is read again to sum a cut set.  Only the ledger calls
    # the root cut, which sums the cut types where 1 - mass <= 1e-6, and so
    # reads a table of several blocks once more.  A grid of tables that are
    # each one block is read once.  (reads, rows) pairs are (mass callers,
    # ledger).  No block judged holds more than max(_BLOCK_ROWS, n + 1) rows.
    monkeypatch.setattr(typicality, "_BLOCK_ROWS", block_rows)
    dist = SourceDistribution(np.array(probs))
    grid = isinstance(n, list)
    ns = n if grid else [n]
    seen, walked = _reads(monkeypatch), _walked_rows(monkeypatch)
    judged = _judged_rows(monkeypatch)
    source, _, _ = typicality._check_block(dist, ns, delta)
    censuses = list(typicality._census(source, ns, delta))
    assert (len(seen), sum(walked)) == (reads[0], rows[0])
    # a table alone is judged block by block; the 30 binary tables in two
    # blocks, and the K = 3 tables in two: n = 150 and 140, then 150
    assert len(judged) == ({30: 2, 3: 2}[len(ns)] if grid else sum(seen))
    for mass, _, root_cut in censuses:
        cut = root_cut()
        assert {"none": cut == 0.0, "cut": 1.0 - mass > 1e-6,
                "direct": 0.0 < cut and 1.0 - mass <= 1e-6}[regime]
    assert (len(seen), sum(walked)) == (reads[1], rows[1])
    assert seen == [seen[0]] * len(seen)
    # a read yields one item per block it judges, of one or more tables
    assert sum(seen) == len(judged)
    # the public mass callers walk no cut row; a dilution block is the ledger
    spec = Spectrum.from_unsorted(np.array(probs))
    calls = [(lambda: dilution_sweep(spec, delta, ns), 1)] if grid else [
        (lambda: weak_typical_census(dist, n, delta), 0),
        (lambda: weak_typical_mass(dist, n, delta), 0),
        (lambda: pure_dilution(spec, delta, n), 1)]
    for call, expected in calls:
        seen.clear()
        walked.clear()
        call()
        assert (len(seen), sum(walked)) == (reads[expected], rows[expected])
    if not grid:
        seen.clear()
        aep_bounds_check(dist, n, delta, delta / 2)
        assert len(seen) == 1
    assert all(size <= max(block_rows, top + 1) for size, top in judged)


def test_a_block_of_tables_is_judged_and_walked_in_one_call_each(monkeypatch):
    # 30 binary tables of 272 to 301 types fit one block, and each has a cut:
    # one judgement, and one walk over the member rows of all 30 tables
    judged, walked = _judged_rows(monkeypatch), _walked_rows(monkeypatch)
    traces = dilution_sweep(Spectrum(np.array([0.8, 0.2])), 0.05, list(range(271, 301)))
    assert all(t.error > 1e-3 for t in traces)
    assert (len(judged), len(walked)) == (1, 1)


def test_a_table_that_fits_a_block_is_judged_once(monkeypatch):
    # K = 4 at n = 45 has 17 296 types, fewer than _BLOCK_ROWS, and a cut:
    # one judgement scans it and holds it for the sum
    judged = _judged_rows(monkeypatch)
    t = pure_dilution(Spectrum(np.array([0.4, 0.3, 0.2, 0.1])), 0.05, 45)
    assert t.error > 1e-3
    assert judged == [(17_296, 45)]


def _exact_strong(probs, n, delta):
    """(mass as a Fraction of the float probabilities, cardinality) of the
    strong set, in exact integers: a memoized recursion over (symbol,
    positions left) sums, over each count the per-symbol rule admits, the
    binomial ways to place it times the completions by the symbols after
    it, the last symbol taking the positions left."""
    fractions = [Fraction(p) for p in probs]
    den = max(f.denominator for f in fractions)
    nums = [int(f * den) for f in fractions]
    boxes = [[c for c in range(n + 1) if abs(c / n - p) <= delta] if p > 0.0 else [0]
             for p in probs]

    @functools.cache
    def completions(i, rem):
        """(weight, count) of the admitted completions of rem positions by
        symbols i and after, each weighed by prod nums^c."""
        if i == len(probs) - 1:
            return (nums[i] ** rem, 1) if rem in boxes[i] else (0, 0)
        weight = count = 0
        for c in boxes[i]:
            if c <= rem:
                rest_weight, rest_count = completions(i + 1, rem - c)
                ways = math.comb(rem, c)
                weight += ways * nums[i] ** c * rest_weight
                count += ways * rest_count
        return weight, count
    weight, count = completions(0, n)
    return Fraction(weight, den ** n), count


def test_strong_program_reaches_past_the_type_table_limit():
    # (5, 3, 1, 1)/10 at n = 400 has C(403, 3) = 10.8 million types, more
    # than MAX_TYPES, so no census can enumerate them
    probs, n, delta = [0.5, 0.3, 0.1, 0.1], 400, 0.02
    assert type_count(n, len(probs)) > typicality.MAX_TYPES
    mass, count = _exact_strong(probs, n, delta)
    rep = strong_typical_mass(SourceDistribution(np.array(probs)), n, delta)
    assert 0 < mass < 1
    assert abs(Fraction(rep.mass) / mass - 1) <= 1e-13
    assert rep.log2_cardinality_bound == typicality._log2_bigint(count)


@pytest.mark.parametrize("probs, n, delta", [
    ([0.25] * 4, 1998, 0.3),                  # 2 377 299 (state, count) terms
    ([0.5, 0.3, 0.2], 1999, 0.1),             # n where K = 3 tables exceed MAX_TYPES
    ([0.5, 0.5], typicality.MAX_TYPES, 0.0),  # one term, but n where K = 2 tables do
])
def test_strong_program_refuses_work_above_the_limit(probs, n, delta):
    with pytest.raises(InvariantViolation, match="use Monte Carlo mode"):
        strong_typical_mass(SourceDistribution(np.array(probs)), n, delta)


def test_strong_program_takes_every_table_the_census_takes():
    # uniform K = 3 at n = 1998 has C(2000, 2) = 1 999 000 types, within
    # MAX_TYPES, but the program visits 1998 + 1 998 997 = 2 000 995 terms.
    # Every box is [0, 1997], so the set is every type but the three
    # constant ones: 3^1998 - 3 sequences, of mass 1 - 3^-1997
    rep = strong_typical_mass(SourceDistribution(np.full(3, 1.0 / 3.0)), 1998, 0.6666)
    assert rep.log2_cardinality_bound == typicality._log2_bigint(3 ** 1998 - 3)
    assert rep.mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("probs", [[1.0], [1.0, 0.0]])
def test_block_lengths_stop_below_2_63(probs):
    # the census builds its table in int64 and the strong program bisected a
    # range of n + 1 counts, so n = 2^63 raised a raw OverflowError, and the
    # strong program did at 2^63 - 1 too.  Both read the support alone, so
    # [1.0, 0.0] is one symbol, of one type at any n
    dist, spec, top = SourceDistribution(np.array(probs)), Spectrum(np.array(probs)), 2 ** 63 - 1
    calls = [lambda n: weak_typical_mass(dist, n, 0.1), lambda n: strong_typical_mass(dist, n, 0.1),
             lambda n: weak_typical_census(dist, n, 0.1), lambda n: aep_bounds_check(dist, n, 0.1),
             lambda n: pure_dilution(spec, 0.1, n)]
    for call in calls:
        with pytest.raises(ValueError, match=r"n must be an integer in \[1, 9223372036854775807\]"):
            call(top + 1)
    reports = [strong_typical_mass(dist, top, 0.1), weak_typical_mass(dist, top, 0.1)]
    assert [(r.mass, r.log2_cardinality_bound) for r in reports] == [(1.0, 0.0)] * 2
    # the strong draws are judged by the program's boxes; a box of 2^63 counts
    # is bisected without a len
    assert strong_typical_mass(dist, top, 0.1, mode="mc", samples=10).mass == 1.0
    assert strong_typical_mass(dist, top, 0.0).mass == 1.0
    assert pure_dilution(spec, 0.1, top).ebits == 0


@st.composite
def _strong_sources(draw):
    """(probabilities, n, delta): K = 1 to 5, sometimes with a
    zero-probability symbol; a K = 5 table at n = 60 has 635 376 types."""
    k = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, k - 1))] = 0
    n = draw(st.integers(1, 60))
    delta = draw(st.one_of(st.floats(0.0, 0.1), st.floats(0.0, 1.0)))
    return np.array(weights) / sum(weights), n, delta


@given(_strong_sources())
@settings(max_examples=40, deadline=None)
def test_strong_program_counts_the_census_members(source):
    # the program judges each symbol by the per-symbol rule, so its count is
    # the exact integer sum over the tuples of counts the rule admits
    probs, n, delta = source
    exact_mass, exact_count = _exact_strong(probs, n, delta)
    source, _, _ = typicality._check_block(SourceDistribution(probs), [n], delta)
    mass, count = typicality._strong_program(source, n, delta)
    assert count == exact_count
    assert mass == pytest.approx(float(exact_mass), rel=1e-13, abs=0.0)
