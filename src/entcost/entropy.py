"""Entropy functionals and the tail-sum integral representation.

The central objects are suffix sums of a sorted spectrum: ``tails[k]`` is
the total mass outside the k largest values.  Entropy of a normalized
spectrum can be recovered from these suffix sums alone through

    S = (1/ln 2) * ( integral_0^1 (dmu/mu) min_k { tails[k] + k*mu } - 1 ),

which this module evaluates both in closed form (splitting the integral at
the eigenvalues) and by direct quadrature of the pointwise minimum, as an
independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .spectra import Spectrum, _checked_int, _checked_real, _untailed

LN2 = math.log(2.0)


def binary_entropy(x: float) -> float:
    """Entropy in bits of a (x, 1-x) distribution."""
    x = _checked_real(x, "x", 0.0, 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def g_function(x: float) -> float:
    """Entropy in bits of a geometric distribution with mean x.

    g(x) = (x+1) log2(x+1) - x log2 x, with g(0) = 0 and g(inf) = inf, its
    limit; x must be a real in [0, inf].  Monotone increasing and concave;
    grows like log2(x) + log2(e) for large x, so g(x)/x -> 0.
    Evaluated as (ln(1+x) + x ln(1 + 1/x)) / ln 2, free of cancellation;
    ln(1 + 1/x) is log1p(1/x) for x >= 1, else ln(1+x) - ln x.
    """
    x = _checked_real(x, "x", 0.0, math.inf)
    if x == 0.0 or x == math.inf:
        return float(x)
    log_ratio = math.log1p(1.0 / x) if x >= 1.0 else math.log1p(x) - math.log(x)
    return float((math.log1p(x) + x * log_ratio) / LN2)


def von_neumann_entropy(spectrum: Spectrum) -> float:
    """Shannon entropy in bits of the stored values; zeros contribute 0.

    The declared tail mass is not included in the point value; the private
    ``_entropy_tail_uncertainty`` bounds what the tail could add.
    """
    return _shannon_bits(spectrum.values)


def _shannon_bits(p: np.ndarray) -> float:
    """-sum p log2 p over p > 0; + 0.0 turns a point mass's -0.0 into 0.0."""
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)) + 0.0)


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a 2-D array of probabilities;
    zeros contribute 0."""
    logs = np.log2(rows, out=np.zeros(rows.shape), where=rows > 0.0)
    return -(rows * logs).sum(axis=1) + 0.0


def _entropy_tail_uncertainty(spectrum: Spectrum, dim_bound: int | None = None) -> float:
    """Upper bound on entropy carried by the declared tail mass.

    With a dimension bound d for the truncated part this is
    t * log2(d / t); without one the tail entropy is unbounded and the
    sentinel ``math.inf`` is returned (callers must handle it explicitly).
    """
    t = spectrum.tail_mass
    if dim_bound is None:
        return math.inf if t > 0.0 else 0.0
    dim_bound = _checked_int(dim_bound, "dim_bound", 1)
    return float(t * math.log2(dim_bound / t)) if 0.0 < t < dim_bound else 0.0


def _suffix_sums(values: np.ndarray, tail=0.0) -> np.ndarray:
    """out[..., k] = tail + sum(values[..., k:]), k = 0..values.shape[-1],
    added one term at a time from the end of the last axis.

    ``values`` is one spectrum or a 2-D stack of them (one per row), and
    ``tail`` a scalar or one tail mass per row."""
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 1,))
    out[..., 0] = tail
    out[..., 1:] = values[..., ::-1]
    return np.add.accumulate(out, axis=-1, out=out)[..., ::-1]


def tail_sums(spectrum: Spectrum, count: int) -> np.ndarray:
    """First ``count`` suffix sums tails[0..count-1] of a spectrum.

    tails[k] is the mass outside the k largest values: tails[0] is the total
    mass, and every index from len(spectrum) on reads the declared tail
    mass.  Summed backward (smallest terms first), so consecutive
    differences reproduce the values to machine precision.
    """
    count = _checked_int(count, "count", 0)
    tails = _suffix_sums(spectrum.values, spectrum.tail_mass)[:count]
    out = np.full(count, spectrum.tail_mass)
    out[:tails.size] = tails
    return out


def entropy_integral_closed_form(spectrum: Spectrum) -> float:
    """Entropy in bits from suffix sums, splitting the integral exactly.

    On mu in [p_{n+1}, p_n] (eigenvalues padded with p_0 := 1 above and 0
    below) the pointwise minimum min_k {tails[k] + k*mu} equals
    tails[n] + n*mu, so the integral collapses to

        sum_n [ n*(p_n - p_{n+1}) + tails[n]*ln(p_n / p_{n+1}) ]

    and S = (sum - 1)/ln 2.  Terms with tails[n] = 0 contribute only their
    linear part by the 0*log convention.  A declared tail mass is refused by
    the tail rule, ``spectra._untailed``: it puts mass below the smallest
    stored value, where the last cell's log(p_L / 0) diverges.
    """
    v = _untailed(spectrum, "the entropy integral")
    tails = _suffix_sums(v)
    q = np.concatenate(([1.0], v, [0.0]))  # q[n] = p_n with the two pads
    hi, lo = q[:-1], q[1:]
    ratio = np.divide(hi, lo, out=np.ones(hi.size), where=(tails > 0.0) & (hi > lo))
    total = float(np.sum(np.arange(hi.size) * (hi - lo) + tails * np.log(ratio)))
    return (total - 1.0) / LN2


def _pointwise_min(tails: np.ndarray, mu: np.ndarray) -> np.ndarray:
    ks = np.arange(tails.size)
    return np.min(tails[None, :] + ks[None, :] * mu[:, None], axis=1)


def entropy_integral_quadrature(spectrum: Spectrum) -> float:
    """Entropy in bits by numerical quadrature of the suffix-sum minimum.

    The integrand min_k {tails[k] + k*mu} / mu is evaluated by brute-force
    minimization at every node, without assuming which k wins where.  The
    domain is split exactly at the eigenvalues; each cell above the smallest
    eigenvalue is integrated in log coordinates (which absorbs the 1/mu
    weight) in chunks of at most one e-fold, so 24 Gauss-Legendre nodes see a
    smooth integrand and the result matches the closed form to ~1e-12.  A
    declared tail mass is refused, as by the closed form.
    """
    v = _untailed(spectrum, "the entropy integral")
    tails = _suffix_sums(v)
    nodes, weights = np.polynomial.legendre.leggauss(24)

    edges = np.concatenate(([1.0], v))  # cell boundaries from 1 down to p_L
    total = 0.0
    for i in range(edges.size - 1):
        hi, lo = edges[i], edges[i + 1]
        if not hi > lo:
            continue
        t_lo, t_hi = math.log(lo), math.log(hi)
        n_chunks = max(1, int(math.ceil(t_hi - t_lo)))
        cuts = np.linspace(t_lo, t_hi, n_chunks + 1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            t = (b - a) / 2.0 * nodes + (b + a) / 2.0
            mu = np.exp(t)
            total += (b - a) / 2.0 * float(np.dot(weights, _pointwise_min(tails, mu)))
    # bottom cell [0, p_L]: the integrand min/mu is bounded (it tends to the
    # number of nonzero values as mu -> 0), so plain nodes suffice.
    p_min = float(edges[-1])
    if p_min > 0.0:
        mu = p_min / 2.0 * nodes + p_min / 2.0
        vals = _pointwise_min(tails, mu) / mu
        total += p_min / 2.0 * float(np.dot(weights, vals))
    return (total - 1.0) / LN2
