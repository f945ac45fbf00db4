"""Weak and strong typical sets over finite alphabets.

Exact masses and cardinalities come from one census of the empirical types
(compositions of n into K parts), built as integer count matrices in bounded
blocks.  Every sequence of a type has the same probability, so a set's mass
is the sum over its types of multinomial(n; c) * prod_i p_i^c_i, taken in log
space; its cardinality is an exact integer.  A Monte Carlo mode with a 99%
Clopper-Pearson interval covers type counts too large to enumerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.special import betaincinv, gammaln

from .rng import stream
from .spectra import InvariantViolation

DEFAULT_MAX_TYPES = 2_000_000
_BLOCK_ROWS = 1 << 15  # census rows per block


@dataclass(frozen=True)
class SourceDistribution:
    """Probability vector over a finite alphabet with cached entropy."""

    probs: np.ndarray
    entropy_bits: float = field(default=math.nan)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise InvariantViolation("probabilities must be finite, non-negative and non-empty")
        if abs(float(np.sum(p)) - 1.0) > 1e-12:
            raise InvariantViolation(f"probabilities sum to {float(np.sum(p))!r}")
        p.setflags(write=False)
        nz = p[p > 0.0]
        h = float(-np.sum(nz * np.log2(nz)))
        if not math.isnan(self.entropy_bits) and abs(self.entropy_bits - h) > 1e-12:
            raise InvariantViolation("cached entropy does not match the probabilities")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "entropy_bits", h)

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class TypicalReport:
    """Mass and size of a typical set at block length n and slack delta.

    ``log2_cardinality_bound`` is the exact log2 set size in exact mode
    (-inf for an empty set) and the theoretical bound in Monte Carlo mode.
    ``mass_low``/``mass_high`` carry the 99% Clopper-Pearson interval for
    Monte Carlo estimates; in exact mode they equal the mass.
    """

    n: int
    delta: float
    mass: float
    log2_cardinality_bound: float
    kind: str
    mode: str = "exact"
    samples: int = 0
    mass_low: float = math.nan
    mass_high: float = math.nan


def sequence_rate_bits(dist: SourceDistribution, x_seq) -> float:
    """Empirical rate -(1/n) log2 p(x^n); +inf if a zero-probability symbol occurs."""
    x = np.asarray(x_seq, dtype=int).reshape(-1)
    if x.size == 0:
        raise ValueError("sequence must be non-empty")
    if np.any(x < 0) or np.any(x >= len(dist)):
        raise ValueError("sequence contains out-of-alphabet symbols")
    p = dist.probs[x]
    if np.any(p <= 0.0):
        return math.inf
    return float(-np.sum(np.log2(p)) / x.size)


def is_weakly_typical(dist: SourceDistribution, x_seq, delta: float) -> bool:
    """True iff |rate(x^n) - H| <= delta; zero-probability symbols disqualify."""
    if delta < 0.0:
        raise ValueError("delta must be non-negative")
    r = sequence_rate_bits(dist, x_seq)
    return math.isfinite(r) and abs(r - dist.entropy_bits) <= delta


def type_count(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def _log2_bigint(m: int) -> float:
    if m <= 0:
        return -math.inf
    shift = max(0, m.bit_length() - 900)
    return math.log2(m >> shift) + shift


def _prefix_blocks(n: int, width: int) -> Iterator[np.ndarray]:
    """Every tuple of ``width`` non-negative ints summing to at most n, in
    lexicographic order and in int64 blocks of at most max(_BLOCK_ROWS, n + 1)
    rows, so memory does not grow with the count."""
    if width == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    step = max(1, _BLOCK_ROWS // (n + 1))  # a row extends to at most n + 1 rows
    for head in _prefix_blocks(n, width - 1):
        for part in np.split(head, range(step, len(head), step)):
            room = n + 1 - part.sum(axis=1)
            starts = np.repeat(np.cumsum(room) - room, room)
            yield np.column_stack([np.repeat(part, room, axis=0),
                                   np.arange(starts.size) - starts])


def _type_blocks(dist: SourceDistribution, n: int,
                 max_types: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(counts, log2 p(x^n) per sequence, ln multiplicity) per block of types;
    log2 p is summed symbol by symbol (a matrix product rounds differently and
    moves types on the window edge) and is -inf on zero-probability types."""
    total = type_count(n, len(dist))
    if total > max_types:
        raise InvariantViolation(
            f"{total} empirical types exceed the exact-mode limit {max_types}; "
            "use Monte Carlo mode")
    pos = dist.probs > 0.0
    log2p = np.log2(np.where(pos, dist.probs, 1.0))
    ln_fact = gammaln(np.arange(1.0, n + 2.0))
    for head in _prefix_blocks(n, len(dist) - 1):
        counts = np.column_stack([head, n - head.sum(axis=1)])
        log2_prob = np.zeros(len(counts))
        # ln n! is shared by every term, so its rounding (1e-12 at n = 2000)
        # scales the mass; math.lgamma keeps perfbench's stored masses to 1e-13
        ln_mult = np.full(len(counts), math.lgamma(n + 1))
        for i, c in enumerate(counts.T):
            if pos[i]:
                log2_prob += c * log2p[i]
            ln_mult -= ln_fact[c]
        log2_prob[np.any(counts[:, ~pos] > 0, axis=1)] = -math.inf
        yield counts, log2_prob, ln_mult


def _members(dist: SourceDistribution, n: int, delta: float, kind: str,
             counts: np.ndarray, log2_prob: np.ndarray) -> np.ndarray:
    """Weak or strong membership mask; types of zero probability are never members."""
    if kind == "weak":
        return np.isfinite(log2_prob) & (np.abs(-log2_prob / n - dist.entropy_bits) <= delta)
    dev = np.abs(counts / n - dist.probs)[:, dist.probs > 0.0]
    return np.isfinite(log2_prob) & np.all(dev <= delta, axis=1)


def _member_count(n: int, counts: np.ndarray) -> int:
    """Exact sum of multinomial(n; c) over the rows of one block: a run of rows
    sharing c_0..c_{K-3} walks one binomial row in exact integer steps."""
    total, head = 0, None
    for row in counts.tolist():
        if row[:-2] != head:
            head, prefix, rem = row[:-2], 1, n
            for c in head:
                prefix *= math.comb(rem, c)
                rem -= c
            j, binom = row[-2], math.comb(rem, row[-2])
        while j < row[-2]:
            binom = binom * (rem - j) // (j + 1)
            j += 1
        total += prefix * binom
    return total


def _census(dist: SourceDistribution, n: int, delta: float, kind: str,
            max_types: int) -> tuple[float, int]:
    """(mass, exact cardinality) of the weak or strong typical set."""
    mass, excluded, blocks = 0.0, False, 0
    for counts, log2_prob, ln_mult in _type_blocks(dist, n, max_types):
        ok = _members(dist, n, delta, kind, counts, log2_prob)
        excluded = excluded or bool(np.any(np.isfinite(log2_prob) & ~ok))
        mass += float(np.sum(np.exp(ln_mult[ok] + log2_prob[ok] * math.log(2.0))))
        members, blocks = counts[ok], blocks + 1
    if not excluded:
        # no type that carries mass was cut: mass 1 and count K_+^n, exactly
        return 1.0, int(np.count_nonzero(dist.probs)) ** n
    if blocks == 1:
        return min(mass, 1.0), _member_count(n, members)
    # a table of several blocks is read again once a cut is known
    return min(mass, 1.0), sum(
        _member_count(n, counts[_members(dist, n, delta, kind, counts, log2_prob)])
        for counts, log2_prob, _ in _type_blocks(dist, n, max_types))


def _clopper_pearson_99(hits: int, n: int) -> tuple[float, float]:
    lo = 0.0 if hits == 0 else float(betaincinv(hits, n - hits + 1, 0.005))
    hi = 1.0 if hits == n else float(betaincinv(hits + 1, n - hits, 0.995))
    return lo, hi


def _mc_mass(dist: SourceDistribution, n: int, delta: float, kind: str,
             samples: int, seed: int) -> tuple[float, float, float]:
    rng = stream(seed, 0)
    k = len(dist)
    p = dist.probs
    log2p = np.where(p > 0.0, np.log2(np.where(p > 0.0, p, 1.0)), -np.inf)
    hits = 0
    done = 0
    chunk = max(1, min(samples, int(2e7) // max(n, 1)))
    while done < samples:
        m = min(chunk, samples - done)
        seqs = rng.choice(k, size=(m, n), p=p)
        if kind == "weak":
            rates = -np.sum(log2p[seqs], axis=1) / n
            ok = np.abs(rates - dist.entropy_bits) <= delta
        else:
            counts = np.stack([np.sum(seqs == s, axis=1) for s in range(k)], axis=1)
            dev = np.abs(counts / n - p[None, :])
            ok = np.all(dev[:, p > 0.0] <= delta, axis=1)
            if np.any(p <= 0.0):
                ok &= np.all(counts[:, p <= 0.0] == 0, axis=1)
        hits += int(np.sum(ok))
        done += m
    lo, hi = _clopper_pearson_99(hits, samples)
    return hits / samples, lo, hi


def weak_typical_mass(dist: SourceDistribution, n: int, delta: float,
                      mode: str = "exact", samples: int = 100_000, seed: int = 0,
                      max_types: int = DEFAULT_MAX_TYPES) -> TypicalReport:
    """Probability mass of the weakly typical set W_delta at block length n.

    Exact mode enumerates empirical types (guarded by ``max_types``); the
    reported cardinality is then an exact integer count in log2.  Monte
    Carlo mode samples i.i.d. blocks and reports a 99% confidence interval.
    """
    if n < 1 or delta < 0.0:
        raise ValueError("need n >= 1 and delta >= 0")
    if mode == "exact":
        mass, card = _census(dist, n, delta, "weak", max_types)
        return TypicalReport(n, delta, mass, _log2_bigint(card), "weak",
                             mode="exact", mass_low=mass, mass_high=mass)
    if mode == "mc":
        mass, lo, hi = _mc_mass(dist, n, delta, "weak", samples, seed)
        bound = n * (dist.entropy_bits + delta)
        return TypicalReport(n, delta, mass, bound, "weak", mode="mc",
                             samples=samples, mass_low=lo, mass_high=hi)
    raise ValueError(f"unknown mode {mode!r}")


def strong_typical_mass(dist: SourceDistribution, n: int, delta: float,
                        mode: str = "exact", samples: int = 100_000, seed: int = 0,
                        max_types: int = DEFAULT_MAX_TYPES) -> TypicalReport:
    """Mass of the strongly typical set: every empirical frequency within
    delta of its probability, and zero-probability symbols absent."""
    if n < 1 or delta < 0.0:
        raise ValueError("need n >= 1 and delta >= 0")
    if mode == "exact":
        mass, card = _census(dist, n, delta, "strong", max_types)
        return TypicalReport(n, delta, mass, _log2_bigint(card), "strong",
                             mode="exact", mass_low=mass, mass_high=mass)
    if mode == "mc":
        mass, lo, hi = _mc_mass(dist, n, delta, "strong", samples, seed)
        return TypicalReport(n, delta, mass, n * math.log2(len(dist)), "strong",
                             mode="mc", samples=samples, mass_low=lo, mass_high=hi)
    raise ValueError(f"unknown mode {mode!r}")


def weak_typical_census(dist: SourceDistribution, n: int, delta: float,
                        max_types: int = DEFAULT_MAX_TYPES) -> tuple[float, int]:
    """(exact mass, exact integer cardinality) of the weakly typical set."""
    if n < 1 or delta < 0.0:
        raise ValueError("need n >= 1 and delta >= 0")
    return _census(dist, n, delta, "weak", max_types)


def aep_bounds_check(dist: SourceDistribution, n: int, delta: float,
                     bound_delta: float | None = None, rtol: float = 1e-12,
                     max_types: int = DEFAULT_MAX_TYPES) -> bool:
    """Verify 2^{-n(H+d)} <= p(x^n) <= 2^{-n(H-d)} on every weakly typical type.

    ``bound_delta`` sets the window half-width d used for the bounds
    themselves (defaults to ``delta``); passing a smaller value tightens the
    bounds and should fail on non-degenerate sources.  Comparisons happen in
    log space with relative slack ``rtol``.
    """
    if bound_delta is None:
        bound_delta = delta
    h = dist.entropy_bits
    slack = rtol * max(1.0, n * (h + max(delta, bound_delta)))
    lo = -n * (h + bound_delta) - slack
    hi = -n * (h - bound_delta) + slack
    for counts, log2_prob, _ in _type_blocks(dist, n, max_types):
        typical = log2_prob[_members(dist, n, delta, "weak", counts, log2_prob)]
        if not np.all((lo <= typical) & (typical <= hi)):
            return False
    return True
