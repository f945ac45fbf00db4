"""Weak and strong typical sets over finite alphabets.

Exact masses and cardinalities come from one census of the empirical types
(compositions of n into K parts), built as integer count matrices in bounded
blocks.  One reader walks that table and judges each block of types; one
sum over it serves the weak and strong masses, the AEP check and dilution.
The census takes a grid of block lengths: a dilution sweep's tables are
built and judged together, in blocks of the same bounded size, each block
holding whole tables.  A block is tallied at once: one walk over the member
rows of all its tables that cut a type, one exp, and one sum per table over
its own terms in its own order, so every n of a grid gets the bits it gets
alone.
Every sequence of a type has the same probability, so a set's mass is the
sum over its types of multinomial(n; c) * prod_i p_i^c_i.  Each multinomial
is one exact integer, walked along binomial rows: the integers sum to the
set's cardinality, and a type's mass is exp(ln multinomial + ln p(x^n)).
The census also hands back dilution's error, the square root of the cut
mass, unsummed: only dilution's ledger sums it, and below 1 - mass = 1e-6 it
sums the cut types directly.  Block lengths must be integers.  A single
one-dimensional sequence is judged by the census's rule, so it is weakly
typical exactly when its type is a member of the census's weak set.  Where
the types are too many to enumerate, a Monte Carlo mode draws the types of
i.i.d. blocks directly (multinomial(n, p)), judges them by the same
membership rule, and reports a 99% Clopper-Pearson interval.  Its bounds
solve exact binomial tail equations by safeguarded Newton steps in logit p;
each tail is a sum over the O(sqrt(samples)) terms near the mode, so memory
does not grow with the sample count.  ``dilution``'s curtailed binomial uses
the same terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .entropy import _shannon_bits
from .gibbs import _MAX_NEWTON_STEPS, _newton_step
from .rng import stream
from .spectra import InvariantViolation, _checked_int, _checked_real

MAX_TYPES = 2_000_000  # the largest type table exact mode enumerates
MAX_SAMPLES = 10 ** 8  # the most blocks Monte Carlo mode draws
_BLOCK_ROWS = 1 << 15  # rows per block of census types or Monte Carlo draws
_ALPHA = 0.005  # each side of the 99% Clopper-Pearson interval
_LN_ALPHA = math.log(_ALPHA)
_Z99 = 2.5758293035489004  # the standard normal 0.995 quantile


@dataclass(frozen=True)
class SourceDistribution:
    """Probability vector over a finite alphabet with its entropy, computed
    once from the probabilities."""

    probs: np.ndarray
    entropy_bits: float = field(init=False)

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float).reshape(-1)
        if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise InvariantViolation("probabilities must be finite, non-negative and non-empty")
        if abs(float(np.sum(p)) - 1.0) > 1e-12:
            raise InvariantViolation(f"probabilities sum to {float(np.sum(p))!r}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "entropy_bits", _shannon_bits(p))

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


def is_weakly_typical(dist: SourceDistribution, x_seq, delta: float) -> bool:
    """True iff |rate(x^n) - H| <= delta; zero-probability symbols disqualify.
    The sequence's type is judged by the census's own rule, so a sequence is
    typical exactly when its type is a member of the census's weak set."""
    delta = _checked_real(delta, "delta", 0.0, math.inf)
    x = np.asarray(x_seq)
    if x.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if x.dtype.kind not in "biu":
        if x.dtype.kind != "f" or not np.all(np.isfinite(x) & (x == np.trunc(x))):
            raise ValueError("sequence symbols must be integers")
        x = x.astype(int)
    if x.size == 0:
        raise ValueError("sequence must be non-empty")
    if np.any(x < 0) or np.any(x >= len(dist)):
        raise ValueError("sequence contains out-of-alphabet symbols")
    counts = np.bincount(x, minlength=len(dist))[None, :]
    return bool(_judge(dist, x.size, delta, "weak", counts)[1][0])


def type_count(n: int, k: int) -> int:
    n, k = _checked_int(n, "n", 0), _checked_int(k, "k", 1)
    return math.comb(n + k - 1, k - 1)


def _log2_bigint(m: int) -> float:
    if m <= 0:
        return -math.inf
    shift = max(0, m.bit_length() - 900)
    return math.log2(m >> shift) + shift


def _prefix_blocks(ns: np.ndarray, width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(tuples, n per tuple) in int64 blocks: for each n of ns in turn, every
    tuple of ``width`` non-negative ints summing to at most n, in
    lexicographic order.  With n the largest of ns, a block holds at most
    max(_BLOCK_ROWS, n + 1) rows, so memory does not grow with the count."""
    if width == 0:
        yield np.zeros((len(ns), 0), dtype=np.int64), ns
        return
    step = max(1, _BLOCK_ROWS // (int(ns.max()) + 1))  # a row extends to at most n + 1 rows
    for head, head_n in _prefix_blocks(ns, width - 1):
        for lo in range(0, len(head), step):
            part, part_n = head[lo:lo + step], head_n[lo:lo + step]
            room = part_n + 1 - part.sum(axis=1)
            # no row-sized local is held across the yield, while the block is summed
            yield (np.column_stack([np.repeat(part, room, axis=0), np.arange(room.sum())
                                    - np.repeat(np.cumsum(room) - room, room)]),
                   np.repeat(part_n, room))


def _log2_prob(dist: SourceDistribution, counts: np.ndarray) -> np.ndarray:
    """log2 p(x^n) of one sequence per type row, summed symbol by symbol (a
    matrix product rounds differently and moves types on the window edge);
    -inf on types that use a zero-probability symbol."""
    pos = dist.probs > 0.0
    log2p = np.log2(np.where(pos, dist.probs, 1.0))
    log2_prob = np.zeros(len(counts))
    for i in np.flatnonzero(pos):
        log2_prob += counts[:, i] * log2p[i]
    log2_prob[np.any(counts[:, ~pos] > 0, axis=1)] = -math.inf
    return log2_prob


def _members(dist: SourceDistribution, n, delta: float, kind: str,
             counts: np.ndarray, log2_prob: np.ndarray) -> np.ndarray:
    """Weak or strong membership mask; types of zero probability are never
    members.  n is one block length or one per row; either way each row is
    divided by its own n alone, so a row's verdict does not depend on the
    rows judged with it."""
    if kind == "weak":
        return np.isfinite(log2_prob) & (np.abs(-log2_prob / n - dist.entropy_bits) <= delta)
    dev = np.abs(counts / np.reshape(n, (-1, 1)) - dist.probs)[:, dist.probs > 0.0]
    return np.isfinite(log2_prob) & np.all(dev <= delta, axis=1)


def _judge(dist: SourceDistribution, n, delta: float, kind: str,
           counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log2 p(x^n), membership mask) of type rows: the one rule by which the
    census, a single sequence and a Monte Carlo draw are judged."""
    log2_prob = _log2_prob(dist, counts)
    return log2_prob, _members(dist, n, delta, kind, counts, log2_prob)


def _judged_blocks(dist: SourceDistribution, ns: list[int], delta: float, kind: str
                   ) -> Iterator[tuple[tuple[int, np.ndarray | None], np.ndarray, np.ndarray,
                                       np.ndarray]]:
    """((first, edges), counts, log2 p(x^n) per sequence, membership mask)
    per block of the type tables of ns, in order: the one reader of the type
    table.  ``first`` is the position in ns of the block's first table.  A
    block holds whole tables, the i-th from row edges[i] to edges[i + 1];
    only a table too large for one block comes in several, each with edges
    None.

    A run of consecutive tables whose heads (the rows the last step of
    ``_prefix_blocks`` extends) fit one step of the run's largest n is
    built as one block of at most max(_BLOCK_ROWS, n + 1) rows and judged
    in one call: with each row's own n if it holds several tables, and with
    its one n, not an array of it, if it holds one.  A table whose heads do
    not fit is a run of its own, in the blocks it has alone.  Judging is
    elementwise, so each row reads as it would in its table alone."""
    k = len(dist)
    totals = [math.comb(n + k - 1, k - 1) for n in ns]  # each n is checked already
    for total in totals:
        if total > MAX_TYPES:
            raise InvariantViolation(
                f"{total} empirical types exceed the exact-mode limit {MAX_TYPES}; "
                "use Monte Carlo mode")
    heads = [math.comb(n + k - 2, k - 2) if k > 1 else 1 for n in ns]
    start = 0
    while start < len(ns):
        stop, top, held = start + 1, ns[start], heads[start]
        while stop < len(ns) and (held + heads[stop]
                                  <= max(1, _BLOCK_ROWS // (max(top, ns[stop]) + 1))):
            top, held, stop = max(top, ns[stop]), held + heads[stop], stop + 1
        # heads that fit one step make one block; a table alone may not fit
        whole = held <= max(1, _BLOCK_ROWS // (top + 1))
        edges = np.cumsum([0, *totals[start:stop]]) if whole else None
        for rows, n_row in _prefix_blocks(np.array(ns[start:stop], dtype=np.int64), k - 1):
            n_row = n_row if stop > start + 1 else ns[start]
            counts = np.column_stack([rows, n_row - rows.sum(axis=1)])
            del rows  # counts holds a copy; hold no second while the block is summed
            log2_prob, ok = _judge(dist, n_row, delta, kind, counts)
            yield (start, edges), counts, log2_prob, ok
        start = stop


def _type_terms(n, counts: np.ndarray, log2_prob: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(ln of each row's mass, exact total multiplicity of each table) of
    the rows of one table or of several: n is one block length, or a pair
    (block lengths, row edges) whose i-th table is rows edges[i] to
    edges[i + 1].  Within a table, a run of rows sharing c_0..c_{K-3} walks
    one binomial row in exact integer steps, and the walk restarts at each
    table edge; each row's multiplicity is that exact integer, and its ln
    mass is ln mult + log2 p ln 2, where ln of an int is accurate at any
    size."""
    ns, edges = ([n], [0, len(counts)]) if isinstance(n, int) else n
    rows, ln_mult, totals = iter(counts.tolist()), [], []
    for n, lo, hi in zip(ns, edges, edges[1:]):
        total, head = 0, None
        for row in itertools.islice(rows, hi - lo):
            if row[:-2] != head:
                head, prefix, rem = row[:-2], 1, n
                for c in head:
                    prefix *= math.comb(rem, c)
                    rem -= c
                j, binom = row[-2], math.comb(rem, row[-2])
            while j < row[-2]:
                binom = binom * (rem - j) // (j + 1)
                j += 1
            mult = prefix * binom
            total += mult
            ln_mult.append(math.log(mult))
        totals.append(total)
    del rows  # islice leaves the row lists referenced; free them before the array
    return np.array(ln_mult) + log2_prob * math.log(2.0), totals


def _census(dist: SourceDistribution, ns: list[int], delta: float,
            kind: str) -> Iterator[tuple[float, int, object]]:
    """(mass, exact cardinality, root cut) of the weak or strong set at each
    n of ns, in order, from one read of the type tables of the whole grid.
    Each block of whole tables is tallied at once, by ``_tally``.  A table
    of several blocks is scanned for a cut and, only if it has one, read
    again alone, so each of its blocks is summed on its own, bit for bit as
    n's census alone sums it.  A generator: each n's result is handed over
    as soon as its table is read, so a block of tables is released once the
    caller drops the results drawn from it, and memory does not grow with
    the grid; a caller that draws nothing reads no table."""
    blocks = itertools.groupby(_judged_blocks(dist, ns, delta, kind),
                               key=lambda block: (block[0][0], block[0][1] is None))
    for (first, split), table in blocks:
        if not split:
            yield from _tally(dist, ns, delta, kind, next(table))
            continue
        n, cut = ns[first], False
        for _, _, log2_prob, ok in table:
            cut = cut or bool(np.any(np.isfinite(log2_prob) & ~ok))
        if not cut:
            yield 1.0, int(np.count_nonzero(dist.probs)) ** n, lambda: 0.0
            continue
        mass, count = 0.0, 0
        for _, counts, log2_prob, ok in _judged_blocks(dist, [n], delta, kind):
            ln_mass, (block_count,) = _type_terms(n, counts[ok], log2_prob[ok])
            mass, count = mass + float(np.sum(np.exp(ln_mass))), count + block_count
        mass = min(mass, 1.0)
        yield mass, count, _root_cut(dist, n, delta, kind, mass, None)


def _tally(dist: SourceDistribution, ns: list[int], delta: float, kind: str,
           block) -> Iterator[tuple[float, int, object]]:
    """(mass, exact cardinality, root cut) of each table of one judged block
    of whole tables of the grid ns.  One
    ``np.logical_or.reduceat`` over the table edges finds the tables with a
    cut, that is a type that carries mass but is no member.  A table with
    none has mass 1 and count K_+^n exactly.  The member rows of all the cut
    tables are walked in one ``_type_terms`` call, each table with its own
    n and the walk restarting at each table edge, and exp is taken once;
    each cut table's slice of terms is then summed in one reduction, as
    ``np.sum`` sums it.  Those are the terms of the table alone, in its
    order, so each table's mass, count and root cut have the bits of its
    census alone."""
    (first, edges), counts, log2_prob, ok = block
    ns = ns[first:first + len(edges) - 1]
    cut = np.logical_or.reduceat(np.isfinite(log2_prob) & ~ok, edges[:-1])
    # the member rows of the cut tables; the i-th table's are walked[at[i]:at[i + 1]]
    walked = np.flatnonzero(ok & np.repeat(cut, edges[1:] - edges[:-1]))
    at, cut = walked.searchsorted(edges).tolist(), cut.tolist()
    if any(cut):
        ln_mass, totals = _type_terms((ns, at), counts[walked], log2_prob[walked])
        terms = np.exp(ln_mass)
    k_pos = int(np.count_nonzero(dist.probs))
    for i, (n, is_cut) in enumerate(zip(ns, cut)):
        if not is_cut:
            yield 1.0, k_pos ** n, lambda: 0.0
            continue
        lo, hi = at[i], at[i + 1]
        mass = min(float(terms[lo:hi].sum()), 1.0)
        table = slice(edges[i], edges[i + 1])
        held = [(None, counts[table], log2_prob[table], ok[table])]
        yield mass, totals[i], _root_cut(dist, n, delta, kind, mass, held)


def _root_cut(dist: SourceDistribution, n: int, delta: float, kind: str, mass: float,
              held) -> object:
    """The root cut of n's table of set mass ``mass``: a zero-argument
    callable, summed only when called, so only dilution's ledger pays for
    it.  It returns dilution's exact projection error, the square root of
    the mass of the types that carry probability but are cut: sqrt(1 -
    mass) while 1 - mass > 1e-6.  Below that, sqrt(1 - mass) keeps fewer
    than about 8 correct digits, so the cut types are summed directly from
    the judged blocks ``held``, or from the table read again alone if None,
    scaled by the largest term so that the sum keeps its relative precision
    where it would underflow, and floored at the smallest positive double."""
    def root_cut() -> float:
        if 1.0 - mass > 1e-6:
            return math.sqrt(1.0 - mass)
        top, scaled = -math.inf, 0.0  # the cut mass is e^top * scaled
        for _, counts, log2_prob, ok in held or _judged_blocks(dist, [n], delta, kind):
            rows = np.isfinite(log2_prob) & ~ok
            if not np.any(rows):
                continue
            ln_mass = _type_terms(n, counts[rows], log2_prob[rows])[0]
            new_top = max(top, float(np.max(ln_mass)))
            scaled = scaled * math.exp(top - new_top) + float(np.sum(np.exp(ln_mass - new_top)))
            top = new_top
        return max(math.exp(0.5 * (top + math.log(scaled))), math.ulp(0.0))
    return root_cut


def _expit(u: float) -> float:
    """1 / (1 + e^-u); near 1 it is 1 minus the small side, rounded once."""
    if u > 0.0:
        return 1.0 - 1.0 / (1.0 + math.exp(u))
    return 1.0 / (1.0 + math.exp(-u))


def _binomial_weights(n: int, u: float, a: int, b: int) -> np.ndarray:
    """t_j / t_mode for j = a..b: the Bin(n, p) pmf, p = expit(u), relative
    to its largest term.  Consecutive terms have the ratio
    (n - j) / (j + 1) * e^u, so every term is the mode's times a cumulative
    product of ratios, summed outward from the mode.  No ln n! enters,
    whose rounding is about ulp(n ln n), so a ratio of two sums of weights
    is a ratio of masses to double precision."""
    mode = min(n, int((n + 1) * _expit(u)))
    lo, hi = min(a, mode), max(b, mode)
    j = np.arange(lo, hi, dtype=float)
    log_ratio = np.log((n - j) / (j + 1.0)) + u  # ln(t_{j+1} / t_j)
    weights = np.exp(np.concatenate((
        -np.cumsum(log_ratio[:mode - lo][::-1])[::-1], [0.0],
        np.cumsum(log_ratio[mode - lo:]))))
    return weights[a - lo:b - lo + 1]


def _log_upper_tail(k: int, n: int, u: float) -> tuple[float, float]:
    """ln P(X >= k) for X ~ Bin(n, p), p = expit(u), and its derivative in u,
    k (1 - p) pmf(k) / P(X >= k).

    The terms within 12 standard deviations and 40 steps of the mode carry
    all the mass to double precision, so their sum normalizes the tail.  A
    tail that starts outside that window reads 0 or 1."""
    p, q = _expit(u), _expit(-u)
    mode = min(n, int((n + 1) * p))
    reach = int(12.0 * math.sqrt(n * p * q)) + 40
    a, b = max(0, mode - reach), min(n, mode + reach)
    weights = _binomial_weights(n, u, a, b)
    tail = float(np.sum(weights[max(k - a, 0):]))
    if tail == 0.0:  # the tail starts past the window, or underflows
        return -math.inf, math.nan
    slope = k * q * float(weights[k - a]) / tail if k >= a else 0.0
    return math.log(tail) - math.log(float(np.sum(weights))), slope


def _lower_logit(k: int, n: int) -> float:
    """logit of the p with P(X >= k) = 0.005 for X ~ Bin(n, p), 0 < k < n.

    Safeguarded Newton steps (``gibbs._newton_step``) on u = logit p.  They
    start from the Wilson score bound at k - 1/2, a few steps from the
    root, and stop once a step is below 1e-12 in u: Newton's error after
    such a step is far below the tail's own rounding."""
    # the smaller root of (n + z^2) p^2 - (2x + z^2) p + x^2 / n, x = k - 1/2,
    # as the product of the roots over the larger one, which does not cancel
    x = k - 0.5
    start = (x * x / n) / (x + 0.5 * _Z99 ** 2
                           + _Z99 * math.sqrt(x * (n - x) / n + 0.25 * _Z99 ** 2))
    u = math.log(start) - math.log1p(-start)
    lo, hi = -math.inf, math.inf  # P(X >= k) < alpha at lo, > alpha at hi
    for _ in range(_MAX_NEWTON_STEPS):
        log_tail, slope = _log_upper_tail(k, n, u)
        f = log_tail - _LN_ALPHA
        if f == 0.0:
            break
        step = -f / slope if slope > 0.0 else math.nan
        if abs(step) <= 1e-12 * max(1.0, abs(u)):
            return u + step
        u, lo, hi = _newton_step(u, step, f < 0.0, lo, hi)
    return u


def _clopper_pearson_99(hits: int, n: int) -> tuple[float, float]:
    """The 99% Clopper-Pearson interval for ``hits`` successes in n trials,
    solved from exact binomial tails.  The lower bound solves
    P(X >= hits) = 0.005; it is 0 at hits = 0 and 0.005^(1/n) at hits = n.
    The upper bound is 1 - lower(n - hits, n), taken as expit(-u) from the
    logit u of that lower bound so that a small bound keeps its relative
    precision; 1 - 0.005^(1/n) at hits = 0 goes through expm1."""
    if hits == 0:
        return 0.0, -math.expm1(_LN_ALPHA / n)
    if hits == n:
        return _ALPHA ** (1.0 / n), 1.0
    return _expit(_lower_logit(hits, n)), _expit(-_lower_logit(n - hits, n))


def _mc_mass(dist: SourceDistribution, n: int, delta: float, kind: str,
             samples: int, seed: int) -> tuple[float, float, float]:
    """Fraction of ``samples`` i.i.d. length-n blocks inside the set, with its
    99% interval.  A block's type has the law multinomial(n, p), so types are
    drawn directly and judged by the census's own membership rule; the draws
    do not depend on the chunk size."""
    samples = _checked_int(samples, "samples", 1, MAX_SAMPLES)
    rng = stream(seed, 0)
    hits = 0
    for done in range(0, samples, _BLOCK_ROWS):
        counts = rng.multinomial(n, dist.probs, size=min(_BLOCK_ROWS, samples - done))
        hits += int(np.count_nonzero(_judge(dist, n, delta, kind, counts)[1]))
    lo, hi = _clopper_pearson_99(hits, samples)
    return hits / samples, lo, hi


def _check_block(n: int, delta: float) -> tuple[int, float]:
    """(n, delta) as a Python int and float, once checked to be an integer
    >= 1 and a real in [0, inf]; a NumPy integer would overflow in the
    census's K^n."""
    delta = _checked_real(delta, "delta", 0.0, math.inf)
    return _checked_int(n, "n", 1), delta


def _typical_report(dist: SourceDistribution, n: int, delta: float, kind: str,
                    mode: str, samples: int, seed: int) -> TypicalReport:
    """The weak or strong report: exact census or Monte Carlo estimate.  In
    Monte Carlo mode the cardinality is the theoretical bound, n (H + delta)
    for the weak set and n log2 K for the strong one."""
    n, delta = _check_block(n, delta)
    if mode == "exact":
        (mass, card, _), = _census(dist, [n], delta, kind)
        return TypicalReport(n, delta, mass, _log2_bigint(card), kind,
                             mode="exact", mass_low=mass, mass_high=mass)
    if mode == "mc":
        mass, lo, hi = _mc_mass(dist, n, delta, kind, samples, seed)
        bound = (n * (dist.entropy_bits + delta) if kind == "weak"
                 else n * math.log2(len(dist)))
        return TypicalReport(n, delta, mass, bound, kind, mode="mc",
                             samples=samples, mass_low=lo, mass_high=hi)
    raise ValueError(f"unknown mode {mode!r}")


def weak_typical_mass(dist: SourceDistribution, n: int, delta: float,
                      mode: str = "exact", samples: int = 100_000,
                      seed: int = 0) -> TypicalReport:
    """Probability mass of the weakly typical set W_delta at block length n.

    Exact mode enumerates empirical types (at most ``MAX_TYPES``); the
    reported cardinality is then an exact integer count in log2.  Monte
    Carlo mode samples i.i.d. types (at most ``MAX_SAMPLES``) and reports a
    99% confidence interval.
    """
    return _typical_report(dist, n, delta, "weak", mode, samples, seed)


def strong_typical_mass(dist: SourceDistribution, n: int, delta: float,
                        mode: str = "exact", samples: int = 100_000,
                        seed: int = 0) -> TypicalReport:
    """Mass of the strongly typical set: every empirical frequency within
    delta of its probability, and zero-probability symbols absent."""
    return _typical_report(dist, n, delta, "strong", mode, samples, seed)


def weak_typical_census(dist: SourceDistribution, n: int, delta: float) -> tuple[float, int]:
    """(exact mass, exact integer cardinality) of the weakly typical set."""
    n, delta = _check_block(n, delta)
    (mass, count, _), = _census(dist, [n], delta, "weak")
    return mass, count


def aep_bounds_check(dist: SourceDistribution, n: int, delta: float,
                     bound_delta: float | None = None) -> bool:
    """Verify 2^{-n(H+d)} <= p(x^n) <= 2^{-n(H-d)} on every weakly typical type.

    ``bound_delta`` sets the window half-width d used for the bounds
    themselves (defaults to ``delta``); passing a smaller value tightens the
    bounds and should fail on non-degenerate sources.  Comparisons happen in
    log space with relative slack 1e-12.
    """
    n, delta = _check_block(n, delta)
    if bound_delta is None:
        bound_delta = delta
    bound_delta = _checked_real(bound_delta, "bound_delta", 0.0, math.inf)
    h = dist.entropy_bits
    slack = 1e-12 * max(1.0, n * (h + max(delta, bound_delta)))
    lo = -n * (h + bound_delta) - slack
    hi = -n * (h - bound_delta) + slack
    for _, _, log2_prob, ok in _judged_blocks(dist, [n], delta, "weak"):
        typical = log2_prob[ok]
        if not np.all((lo <= typical) & (typical <= hi)):
            return False
    return True
