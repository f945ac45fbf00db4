"""Entropy functionals, tail sums, and the integral representation."""

import math

import numpy as np
import pytest

from entcost import (
    InvariantViolation,
    Spectrum,
    binary_entropy,
    entropy_integral_closed_form,
    entropy_integral_quadrature,
    g_function,
    stream,
    tail_sums,
    von_neumann_entropy,
)
from entcost.entropy import _entropy_tail_uncertainty, _row_entropies, _suffix_sums


def test_binary_entropy_known_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # H(0.2) = -(0.2 log2 0.2 + 0.8 log2 0.8)
    assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-14)


def test_g_function_known_values():
    assert g_function(0.0) == 0.0
    assert g_function(1.0) == pytest.approx(2.0, abs=1e-14)
    # g(3) = 4 log2 4 - 3 log2 3
    assert g_function(3.0) == pytest.approx(8.0 - 3.0 * math.log2(3.0), abs=1e-13)


def test_binary_entropy_rejects_nan():
    # NaN failed neither bound and came back as NaN bits
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(math.nan)


def test_g_function_rejects_nan():
    # NaN passed the x < 0 guard and came back as NaN bits
    with pytest.raises(ValueError, match="NaN"):
        g_function(math.nan)


def test_g_function_at_infinity_is_its_limit():
    # x log1p(1/x) read inf * 0 = NaN at x = inf; g grows without bound
    assert g_function(math.inf) == math.inf
    assert type(g_function(0)) is float


def test_g_function_sublinear_growth():
    xs = np.array([1.0, 10.0, 100.0, 1000.0])
    ratios = [g_function(x) / x for x in xs]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("x", [1e6, 1e9, 1e12, 1e15])
def test_g_function_does_not_cancel_at_large_argument(x):
    # g(x) = log2 x + log2 e + 1/(2x ln 2) + O(1/x^2); the difference form
    # (x+1) log2(x+1) - x log2 x was off by 1.8e-9 at 1e6 and 1.1e-3 at 1e12
    asymptote = math.log2(x) + math.log2(math.e) + 1.0 / (2.0 * x * math.log(2.0))
    assert abs(g_function(x) - asymptote) <= 1e-11


def test_g_function_small_argument():
    # g(x) = x (1 - ln x) / ln 2 + O(x^2) as x -> 0
    for x in (1e-12, 1e-200):
        want = x * (1.0 - math.log(x)) / math.log(2.0)
        assert abs(g_function(x) - want) <= 1e-10 * want


def test_von_neumann_entropy_examples():
    assert von_neumann_entropy(Spectrum(np.array([1.0]))) == 0.0
    assert von_neumann_entropy(Spectrum(np.array([0.5, 0.5]))) == pytest.approx(
        1.0, abs=1e-15)
    s = Spectrum(np.array([0.8, 0.2]))
    assert von_neumann_entropy(s) == pytest.approx(0.7219280948873623, abs=1e-14)


def test_entropy_never_negative_zero():
    val = von_neumann_entropy(Spectrum(np.array([1.0, 0.0])))
    assert val == 0.0 and math.copysign(1.0, val) > 0.0


def test_tail_uncertainty_needs_dimension_bound():
    s = Spectrum(np.array([0.6, 0.3]), tail_mass=0.1)
    assert _entropy_tail_uncertainty(s) == math.inf
    bounded = _entropy_tail_uncertainty(s, dim_bound=16)
    assert bounded == pytest.approx(0.1 * math.log2(16 / 0.1), abs=1e-12)
    assert _entropy_tail_uncertainty(Spectrum(np.array([1.0]))) == 0.0


def test_tail_sum_table_telescopes_exactly():
    rng = stream(11, 0)
    v = rng.random(32)
    s = Spectrum.from_unsorted(v / v.sum())
    table = tail_sums(s, len(s) + 1)
    # backward accumulation means consecutive differences reproduce the
    # values at machine precision, not merely to a loose tolerance
    diffs = table[:-1] - table[1:]
    assert np.max(np.abs(diffs - s.values)) < 1e-15
    assert table[0] == pytest.approx(1.0, abs=1e-12)
    assert table[-1] == 0.0


def test_tail_sum_table_accumulates_one_term_at_a_time():
    # the tail sums equal a Python loop from the declared tail upward, bit
    # for bit, with trailing zeros and a tail mass, and pad with that tail
    v = np.array([0.4, 0.2, 0.15, 0.1, 0.05, 0.0, 0.0])
    s = Spectrum(v, 0.1)
    want = [0.1]
    for x in v[::-1]:
        want.append(want[-1] + x)
    assert tail_sums(s, len(v) + 3).tolist() == want[::-1] + [0.1, 0.1]


def test_suffix_sums_of_rows_match_each_row():
    # a 2-D stack accumulates along its last axis, bit for bit as each row
    # alone, with one tail mass per row
    rng = stream(11, 1)
    rows = np.sort(rng.uniform(0.0, 1.0, (6, 9)), axis=1)[:, ::-1]
    rows[:, 6:] = 0.0
    tails = rng.uniform(0.0, 0.1, 6)
    got = _suffix_sums(rows, tails)
    assert got.shape == (6, 10)
    for row, tail, want in zip(rows, tails, got):
        assert _suffix_sums(row, tail).tolist() == want.tolist()


def test_row_entropies_match_von_neumann_entropy():
    rng = stream(11, 2)
    rows = np.sort(rng.dirichlet(np.ones(5), 8), axis=1)[:, ::-1]
    rows[:3, 3:] = 0.0
    rows[:3] /= np.sum(rows[:3], axis=1, keepdims=True)
    rows[3] = [1.0, 0.0, 0.0, 0.0, 0.0]
    for row, got in zip(rows, _row_entropies(rows)):
        assert got == von_neumann_entropy(Spectrum(row))
    assert _row_entropies(rows)[3] == 0.0 and not np.signbit(_row_entropies(rows)[3])


def test_tail_sum_indexing():
    s = Spectrum(np.array([0.5, 0.3, 0.2]))
    got = tail_sums(s, 100)
    assert got[0] == pytest.approx(1.0, abs=1e-15)
    assert got[1] == pytest.approx(0.5, abs=1e-15)
    assert got[2] == pytest.approx(0.2, abs=1e-15)
    assert got[3] == 0.0
    assert got[99] == 0.0
    assert tail_sums(s, 0).shape == (0,)
    with pytest.raises(ValueError):
        tail_sums(s, -1)


def test_tail_sums_prefix():
    s = Spectrum(np.array([0.5, 0.3, 0.2]))
    got = tail_sums(s, 6)
    assert np.allclose(got, [1.0, 0.5, 0.2, 0.0, 0.0, 0.0], atol=1e-15)


def test_integral_closed_form_matches_direct_entropy():
    cases = [
        Spectrum(np.array([1.0])),
        Spectrum(np.array([0.5, 0.5])),
        Spectrum(np.full(8, 0.125)),
        Spectrum(np.array([0.9, 0.05, 0.03, 0.02])),
    ]
    for s in cases:
        direct = von_neumann_entropy(s)
        integral = entropy_integral_closed_form(s)
        assert integral == pytest.approx(direct, abs=1e-12)


def test_integral_closed_form_random_sweep():
    rng = stream(11, 1)
    for i in range(60):
        ln = int(rng.integers(1, 33))
        v = rng.random(ln) + 1e-9
        s = Spectrum.from_unsorted(v / v.sum())
        direct = von_neumann_entropy(s)
        integral = entropy_integral_closed_form(s)
        assert abs(integral - direct) <= 1e-9 * max(1.0, direct)


def test_integral_quadrature_agrees_with_closed_form():
    rng = stream(11, 2)
    for i in range(20):
        ln = int(rng.integers(2, 17))
        v = rng.random(ln) + 1e-6
        s = Spectrum.from_unsorted(v / v.sum())
        cf = entropy_integral_closed_form(s)
        quad = entropy_integral_quadrature(s)
        assert abs(quad - cf) <= 1e-9


def test_integral_handles_degenerate_spectra():
    s = Spectrum(np.full(4, 0.25))
    assert entropy_integral_closed_form(s) == pytest.approx(2.0, abs=1e-12)
    assert entropy_integral_quadrature(s) == pytest.approx(2.0, abs=1e-9)


def test_integral_requires_normalized_no_tail():
    with pytest.raises(InvariantViolation):
        entropy_integral_closed_form(
            Spectrum(np.array([0.6, 0.3]), tail_mass=0.1))


@pytest.mark.parametrize("integral", [entropy_integral_closed_form,
                                      entropy_integral_quadrature])
def test_integral_rejects_any_positive_tail(integral):
    # within the total-mass tolerance, yet log(p_L / 0) would diverge
    with pytest.raises(InvariantViolation):
        integral(Spectrum(np.array([0.6, 0.4]), tail_mass=1e-13))


def test_pointwise_min_convention():
    # at mu = 1 the k = 0 term (total mass) must win: min is tails[0] = 1,
    # pinning the 0-indexed convention of the representation
    s = Spectrum(np.array([0.7, 0.3]))
    table = tail_sums(s, len(s) + 1)
    ks = np.arange(table.size)
    assert np.min(table + ks * 1.0) == pytest.approx(1.0, abs=1e-15)
    # at mu just above the smallest eigenvalue, k = 1 wins for this spectrum
    mu = 0.4
    vals = table + ks * mu
    assert int(np.argmin(vals)) == 1
