"""Weak and strong typical sets over finite alphabets.

Every exact and Monte Carlo entry, and dilution, passes one door,
``_check_block``, that reads the source once into one record, ``_Source``:
the K_+ symbols of positive probability, their probabilities and log2
probabilities, and the entropy.  Past it, the census, the strong program
and the sampler read only that record, so none of them sees a symbol of
zero probability; the weak judge takes its log2 probabilities from it, and
the strong program takes its own natural logs.
Exact weak masses and cardinalities come from one census of the empirical
types (compositions of n into K_+ parts), built as integer count matrices
in bounded blocks.  One reader walks that table and judges each block of
types; one sum over it serves the weak mass, the AEP check and dilution.
The census takes a grid of block lengths: a dilution sweep's tables are
built and judged together, in blocks of the same bounded size, and every
run of tables that fits one block is built, judged and tallied as one
block.  A block is tallied at once: one walk over the member rows of all
its tables that cut a type, one exp, and one sum per table over its own
terms in its own order, so every n of a grid gets the bits it gets alone.
Every sequence of a type has the same probability, so a set's mass is the
sum over its types of multinomial(n; c) * prod_i p_i^c_i.  Each multinomial
is one exact integer, walked along binomial rows: the integers sum to the
set's cardinality, and a type's mass is exp(ln multinomial + ln p(x^n)).
The census also hands back dilution's error, the square root of the cut
mass, unsummed: only dilution's ledger sums it, and below 1 - mass = 1e-6 it
sums the cut types directly.  Block lengths must be integers.  A single
one-dimensional sequence is judged by the census's rule, so it is weakly
typical exactly when its type is a member of the census's weak set.
The strong set is a box, each symbol's count judged alone by one
per-symbol rule, ``_near``, whose run of admitted counts ``_box`` finds.
So its exact mass and cardinality come from a dynamic program over the
symbols, whose state is the number of positions filled: no type table is
built, and the work grows with the box widths, not with the type count.
Where the types or the program's terms are too many, a Monte Carlo mode
draws the types of i.i.d. blocks directly (multinomial(n, p)), judges them
by the same membership rules, and reports a 99% Clopper-Pearson interval.
Its bounds solve exact binomial tail equations by safeguarded Newton steps
in logit p; each tail is a sum over the O(sqrt(samples)) terms near the
mode, so memory does not grow with the sample count.  ``dilution``'s
curtailed binomial uses the same terms, on the counts ``_box`` admits.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .entropy import _shannon_bits
from .gibbs import _MAX_NEWTON_STEPS, _newton_step
from .rng import stream
from .spectra import InvariantViolation, _checked_int, _checked_real

MAX_TYPES = 2_000_000  # exact mode refuses more types, or a strong program of more terms and types
MAX_SAMPLES = 10 ** 8  # the most blocks Monte Carlo mode draws
_MAX_N = int(np.iinfo(np.int64).max)  # the longest block: the census's tables are int64
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
class _Source:
    """The support of a source, as ``_check_block`` reads it once per call
    for every engine: ``symbols`` are the positions of the symbols of
    positive probability in the caller's alphabet, in order, ``probs`` their
    probabilities and ``log2_probs`` their log2.  ``entropy_bits`` is the
    source's own, which its zero-probability symbols do not change."""

    symbols: np.ndarray
    probs: np.ndarray
    log2_probs: np.ndarray
    entropy_bits: float


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
    The counts of the other symbols are judged on the support by the
    census's own rule, so a sequence is typical exactly when its type is a
    member of the census's weak set."""
    x = np.asarray(x_seq)
    if x.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if x.dtype.kind not in "iu":  # a bool is never an integer
        if x.dtype.kind != "f" or not np.all(np.isfinite(x) & (x == np.trunc(x))):
            raise ValueError("sequence symbols must be integers")
        x = x.astype(int)
    if x.size == 0:
        raise ValueError("sequence must be non-empty")
    if np.any(x < 0) or np.any(x >= len(dist)):
        raise ValueError("sequence contains out-of-alphabet symbols")
    source, (n,), delta = _check_block(dist, [x.size], delta)
    counts = np.bincount(x, minlength=len(dist))[source.symbols]
    # the support's counts fall short of n where a zero-probability symbol occurs
    return bool(counts.sum() == n and _judge(source, n, delta, counts[None, :])[1][0])


def type_count(n: int, k: int) -> int:
    n, k = _checked_int(n, "n", 0), _checked_int(k, "k", 1)
    return math.comb(n + k - 1, k - 1)


def _log2_bigint(m: int) -> float:
    if m <= 0:
        return -math.inf
    shift = max(0, m.bit_length() - 900)
    return math.log2(m >> shift) + shift


def _prefix_blocks(ns: np.ndarray, width: int, step: int
                   ) -> Iterator[tuple[list[np.ndarray], np.ndarray, np.ndarray]]:
    """(columns, n per tuple, sum per tuple) in int64 blocks: for each n of
    ns in turn, every tuple of ``width`` non-negative ints summing to at
    most n, in lexicographic order, one array per position.  Each block
    extends ``step`` tuples of the width below, each to at most n + 1 rows;
    a step at least the rows of all the tuples makes one block, since no
    width has more tuples than the next."""
    if width == 0:
        yield [], ns, np.zeros(len(ns), dtype=np.int64)
        return
    for head, head_n, head_sum in _prefix_blocks(ns, width - 1, step):
        for lo in range(0, len(head_n), step):
            # no row-sized local is held across the yield, while the block is summed
            yield _extended([column[lo:lo + step] for column in head],
                            head_n[lo:lo + step], head_sum[lo:lo + step])


def _extended(head: list[np.ndarray], head_n: np.ndarray, head_sum: np.ndarray
              ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """(columns, n per tuple, sum per tuple) of each tuple of ``head``
    extended by every count from 0 to what its n leaves; one repeat per
    column, since a repeat of a 2-D block along its rows is far slower."""
    room = head_n + 1 - head_sum
    last = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
    return ([np.repeat(column, room) for column in head] + [last], np.repeat(head_n, room),
            np.repeat(head_sum, room) + last)


def _log2_prob(source: _Source, counts: np.ndarray) -> np.ndarray:
    """log2 p(x^n) of one sequence per type row of the support, summed
    symbol by symbol (a matrix product rounds differently and moves types on
    the window edge)."""
    log2_prob = np.zeros(len(counts))
    for column, log2p in zip(counts.T, source.log2_probs):
        log2_prob += column * log2p
    return log2_prob


def _near(count, n, p, delta: float):
    """The strong rule for one symbol: its frequency count / n lies within
    delta of its probability p."""
    return abs(count / n - p) <= delta


def _judge(source: _Source, n, delta: float,
           counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log2 p(x^n), weak membership mask) of type rows of the support: the
    one weak rule.  n is one block length or one per row, so a row's verdict
    does not depend on the rows judged with it."""
    log2_prob = _log2_prob(source, counts)
    return log2_prob, np.abs(-log2_prob / n - source.entropy_bits) <= delta


def _judged_blocks(source: _Source, ns: list[int], delta: float
                   ) -> Iterator[tuple[tuple[int, np.ndarray | None], np.ndarray, np.ndarray,
                                       np.ndarray]]:
    """((first, edges), counts, log2 p(x^n) per sequence, weak membership
    mask) per block of the type tables of ns, in order: the one reader of
    the type table, which serves the weak set, the AEP check and dilution.
    ``first`` is the position in ns of the block's first table.  A block
    holds whole tables, the i-th from row edges[i] to edges[i + 1]; only a
    table too large for one block comes in several, each with edges None.

    A run of consecutive tables of at most _BLOCK_ROWS rows together is
    built as one block and judged in one call: with each row's own n if it
    holds several tables, and with its one n, not an array of it, if it
    holds one.  A larger table is a run of its own, built in steps of heads
    (the rows the last step of ``_prefix_blocks`` extends), each block of
    at most max(_BLOCK_ROWS, n + 1) rows.  Judging is elementwise, so each
    row reads as it would in its table alone."""
    k = len(source.probs)
    totals = [math.comb(n + k - 1, k - 1) for n in ns]  # each n is checked already
    for total in totals:
        if total > MAX_TYPES:
            raise InvariantViolation(
                f"{total} empirical types exceed the exact-mode limit {MAX_TYPES}; "
                "use Monte Carlo mode")
    start = 0
    while start < len(ns):
        stop, held = start + 1, totals[start]
        while stop < len(ns) and held + totals[stop] <= _BLOCK_ROWS:
            held, stop = held + totals[stop], stop + 1
        whole = held <= _BLOCK_ROWS  # a table alone may not fit
        edges = np.cumsum([0, *totals[start:stop]]) if whole else None
        step = held if whole else max(1, _BLOCK_ROWS // (ns[start] + 1))
        for columns, n_row, used in _prefix_blocks(np.array(ns[start:stop], dtype=np.int64),
                                                   k - 1, step):
            n_row = n_row if stop > start + 1 else ns[start]
            counts = np.column_stack([*columns, n_row - used])
            del columns, used  # counts holds a copy; hold no second while the block is summed
            log2_prob, ok = _judge(source, n_row, delta, counts)
            yield (start, edges), counts, log2_prob, ok
        start = stop


def _type_terms(n, counts: np.ndarray, log2_prob: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(ln of each row's mass, exact total multiplicity of each table) of
    the rows of one table or of several: n is one block length, or a pair
    (block lengths, row edges) whose i-th table is rows edges[i] to
    edges[i + 1].  A run of rows of one table that share c_0..c_{K-3} and
    step c_{K-2} by one walks one binomial row in exact integer steps, from
    a ``math.comb`` at its first row; a run starts at each table edge.
    Each row's multiplicity is that exact integer, and its ln mass is
    ln mult + log2 p ln 2, where ln of an int is accurate at any size."""
    ns, edges = ([n], [0, len(counts)]) if isinstance(n, int) else n
    fresh = np.ones(len(counts), dtype=bool)  # the first row of each run
    fresh[1:] = (np.diff(counts[:, -2]) != 1) | np.any(np.diff(counts[:, :-2], axis=0), axis=1)
    fresh[[lo for lo in edges[:-1] if lo < len(counts)]] = True
    starts = np.flatnonzero(fresh).tolist()
    heads = counts[starts].tolist()
    ln_mult, totals, run = [], [], 0
    for n, hi in zip(ns, edges[1:]):
        total = 0
        while run < len(starts) and starts[run] < hi:
            stop = starts[run + 1] if run + 1 < len(starts) else len(counts)
            *head, j, _ = heads[run]
            prefix, rem = 1, n
            for c in head:
                prefix *= math.comb(rem, c)
                rem -= c
            for mult in itertools.accumulate(  # one multiplicity held at a time
                    range(j, j + stop - starts[run] - 1), initial=prefix * math.comb(rem, j),
                    func=lambda mult, i: mult * (rem - i) // (i + 1)):
                total += mult
                ln_mult.append(math.log(mult))
            run += 1
        totals.append(total)
    return np.array(ln_mult) + log2_prob * math.log(2.0), totals


def _census(source: _Source, ns: list[int], delta: float
            ) -> Iterator[tuple[float, int, object]]:
    """(mass, exact cardinality, root cut) of the weak set at each n of ns,
    in order, from one read of the type tables of the whole grid.  Each
    block of whole tables is tallied at once, by ``_tally``.  A table of
    several blocks is scanned for a cut and, only if it has one, read
    again alone, so each of its blocks is summed on its own, bit for bit as
    n's census alone sums it.  A generator: each n's result is handed over
    as soon as its table is read, so a block of tables is released once the
    caller drops the results drawn from it, and memory does not grow with
    the grid; a caller that draws nothing reads no table."""
    blocks = itertools.groupby(_judged_blocks(source, ns, delta),
                               key=lambda block: (block[0][0], block[0][1] is None))
    for (first, split), table in blocks:
        if not split:
            yield from _tally(source, ns, next(table))
            continue
        n = ns[first]
        if all([np.all(ok) for *_, ok in table]):  # a list: the whole table is read first
            yield 1.0, len(source.probs) ** n, lambda: 0.0
            continue
        mass, count = 0.0, 0
        for _, counts, log2_prob, ok in _judged_blocks(source, [n], delta):
            ln_mass, (block_count,) = _type_terms(n, counts[ok], log2_prob[ok])
            mass, count = mass + float(np.sum(np.exp(ln_mass))), count + block_count
        mass = min(mass, 1.0)
        yield mass, count, _root_cut(n, mass, lambda n=n: _judged_blocks(source, [n], delta))


def _tally(source: _Source, ns: list[int], block) -> Iterator[tuple[float, int, object]]:
    """(mass, exact cardinality, root cut) of the weak set of each table of
    one judged block of whole tables of the grid ns.  One
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
    cut = np.logical_or.reduceat(~ok, edges[:-1])
    # the member rows of the cut tables; the i-th table's are walked[at[i]:at[i + 1]]
    walked = np.flatnonzero(ok & np.repeat(cut, edges[1:] - edges[:-1]))
    at, cut = walked.searchsorted(edges).tolist(), cut.tolist()
    if any(cut):
        ln_mass, totals = _type_terms((ns, at), counts[walked], log2_prob[walked])
        terms = np.exp(ln_mass)
    for i, (n, is_cut) in enumerate(zip(ns, cut)):
        if not is_cut:
            yield 1.0, len(source.probs) ** n, lambda: 0.0
            continue
        lo, hi = at[i], at[i + 1]
        mass = min(float(terms[lo:hi].sum()), 1.0)
        table = slice(edges[i], edges[i + 1])
        yield mass, totals[i], _root_cut(n, mass, lambda table=table: [
            (None, counts[table], log2_prob[table], ok[table])])


def _root_cut(n: int, mass: float, blocks) -> object:
    """The root cut of n's table of set mass ``mass``: a zero-argument
    callable, summed only when called, so only dilution's ledger pays for
    it.  It returns dilution's exact projection error, the square root of
    the mass of the types that carry probability but are cut: sqrt(1 -
    mass) while 1 - mass > 1e-6.  Below that, sqrt(1 - mass) keeps fewer
    than about 8 correct digits, so the cut types are summed directly from
    ``blocks()``, the judged blocks of the table (sliced from the block
    that holds it, or the table read again alone), scaled by the largest
    term so that the sum keeps its relative precision where it would
    underflow, and floored at the smallest positive double."""
    def root_cut() -> float:
        if 1.0 - mass > 1e-6:
            return math.sqrt(1.0 - mass)
        top, scaled = -math.inf, 0.0  # the cut mass is e^top * scaled
        for _, counts, log2_prob, ok in blocks():
            if np.all(ok):
                continue
            ln_mass = _type_terms(n, counts[~ok], log2_prob[~ok])[0]
            new_top = max(top, float(np.max(ln_mass)))
            scaled = scaled * math.exp(top - new_top) + float(np.sum(np.exp(ln_mass - new_top)))
            top = new_top
        return max(math.exp(0.5 * (top + math.log(scaled))), math.ulp(0.0))
    return root_cut


def _box(n: int, p: float, delta: float) -> tuple[int, int]:
    """(lo, hi): the run of counts c = 0..n that ``_near`` admits for a
    symbol of probability p, lo > hi if none: the strong program, the strong
    Monte Carlo draws and ``dilution``'s curtailed binomial all judge by it.
    c / n - p rounds monotonically in c, and it is at most 0 up to
    m = floor(p n) and above 0 after, so the rule admits a suffix of 0..m
    and a prefix of m + 1..n: one bisection finds each, judging O(log n)
    counts."""
    num, den = p.as_integer_ratio()
    mid = min(n, num * n // den)  # the last c with c / n <= p exactly
    # mid itself apart: at p = 1 and n = 2^63 - 1, 0..mid is too long for a len
    lo = bisect.bisect_left(range(mid), True, key=lambda c: _near(c, n, p, delta))
    if lo == mid and not _near(mid, n, p, delta):
        lo = mid + 1
    above = bisect.bisect_left(range(mid + 1, n + 1), True,
                               key=lambda c: not _near(c, n, p, delta))
    return lo, mid + above


def _strong_program(source: _Source, n: int, delta: float) -> tuple[float, int]:
    """(mass, exact cardinality) of the strong set at n, by a dynamic
    program over the symbols of the support, with no type table.

    Strong membership is a box: each count c_i lies in its own run of
    ``_box`` (the one strong rule).  The state is the number m of positions
    filled by the symbols before symbol i, kept to the m from which the
    boxes after it can still fill n.
    With no type cut, the mass is 1 and the count K_+^n, as in the census.
    Otherwise the count adds up C(n - m, c) times the state's count in
    exact integers, each binomial walked from the one before it.  The mass
    multiplies conditional binomial terms, C(r, c) q^c (1 - q)^(r - c) with
    r = n - m and q = p_i / R_i, where R_i is the probability of symbol i
    and the ones after it; each is exp of ln C(r, c), taken from the exact
    integer, plus c ln p_i + (r - c) ln R_(i+1) - r ln R_i, so no term
    overflows.  The last symbol takes the positions left, with term 1, and
    the product over symbols is the type's mass over R_0^n.

    The work, the (state, count) terms over all symbols, is refused where
    it and the type count C(n + K_+ - 1, K_+ - 1) both exceed ``MAX_TYPES``:
    the terms may outnumber the types, by up to n + 1 at three symbols, so
    the program takes every table the census takes.  An n at which the
    census refuses a table of min(K_+, 3) symbols is refused too: with two
    symbols each term is a binomial walk as in the census, and with three
    or more it multiplies integers of up to n log2 K bits, so n stays
    within the census's own reach.  Memory holds one count and one mass per
    state, and one part of at most _BLOCK_ROWS words of binomials, whose
    terms are added to the next states' masses at once."""
    probs = source.probs.tolist()
    n = n if len(probs) > 1 else 1  # one symbol's one type, c = n, has c / n = 1 at any n
    k = min(len(probs), 3)
    if (reach := math.comb(n + k - 1, k - 1)) > MAX_TYPES:
        raise InvariantViolation(f"{reach} empirical types of {k} symbols at n = {n} exceed the "
                                 f"exact-mode limit {MAX_TYPES}; use Monte Carlo mode")
    boxes = [_box(n, p, delta) for p in probs]
    if all(lo <= (n if len(probs) == 1 else 0) and hi == n for lo, hi in boxes):
        return 1.0, len(probs) ** n
    low = list(itertools.accumulate((lo for lo, _ in boxes), initial=0))
    high = list(itertools.accumulate((hi for _, hi in boxes), initial=0))
    if low[-1] > n or high[-1] < n or any(lo > hi for lo, hi in boxes):
        return 0.0, 0
    # the states before each symbol: reachable by the boxes before it, and
    # able to reach n by the boxes after it
    states = [(max(low[i], n - high[-1] + high[i]), min(high[i], n - low[-1] + low[i]))
              for i in range(len(probs))]
    work = sum(min(hi, b_next - m) - max(lo, a_next - m) + 1
               for (a, b), (lo, hi), (a_next, b_next) in zip(states, boxes, states[1:])
               for m in range(a, b + 1))
    if work > MAX_TYPES and type_count(n, len(probs)) > MAX_TYPES:
        raise InvariantViolation(f"{work} strong-program terms exceed the exact-mode limit "
                                 f"{MAX_TYPES}; use Monte Carlo mode")
    ln_p = [math.log(p) for p in probs]
    ln_rest = [math.log(r) for r in itertools.accumulate(reversed(probs))][::-1]
    mass, count = np.ones(1), [1]
    for i, ((a, b), (lo, hi), (a_next, b_next)) in enumerate(zip(states, boxes, states[1:])):
        # the states after the last level are only summed, so they share one slot
        keep = int(i < len(probs) - 2)
        size = 1 + keep * (b_next - a_next)
        next_mass, next_count = np.zeros(size), [0] * size
        step = max(1, (_BLOCK_ROWS << 6) // n)  # counts per part: _BLOCK_ROWS words of binomials
        for m, held in zip(range(a, b + 1), count):
            r, first, last = n - m, max(lo, a_next - m), min(hi, b_next - m)
            if m == a:
                start = math.comb(r, first)
            else:  # walk the state before's C(r + 1, before), before = first or first + 1
                start = start * (r + 1 - first if first == before else first + 1) // (r + 1)
            before, binom = first, start
            for part in range(first, last + 1, step):
                top = min(last, part + step - 1)
                row = list(itertools.accumulate(range(part, top + 1), initial=binom,
                                                func=lambda v, c: v * (r - c) // (c + 1)))
                binom = row.pop()  # C(r, top + 1), where the next part starts
                c = np.arange(part, top + 1)
                ln_term = (np.fromiter(map(math.log, row), float, len(row)) + c * ln_p[i]
                           + (r - c) * ln_rest[i + 1] - r * ln_rest[i])
                terms = mass[m - a] * np.exp(ln_term)
                if keep:
                    at = slice(m + part - a_next, m + top + 1 - a_next)
                    next_count[at] = map(operator.add, next_count[at],
                                         map(operator.mul, itertools.repeat(held), row))
                    next_mass[at] += terms
                else:
                    next_count[0] += held * sum(row)
                    next_mass[0] += terms.sum()
        mass, count = next_mass, next_count
    # R_0 is 1 to within the distribution's tolerance, and n is bounded above
    total = float(np.sum(mass)) * math.exp(n * ln_rest[0])
    return min(total, 1.0), sum(count)


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


def _mc_mass(source: _Source, n: int, delta: float, kind: str,
             samples: int, seed: int) -> tuple[float, float, float]:
    """Fraction of ``samples`` i.i.d. length-n blocks inside the set, with its
    99% interval.  A block's type has the law multinomial(n, p), so types are
    drawn directly and judged by exact mode's own rule, the weak one or each
    count in its ``_box``; the draws do not depend on the chunk size."""
    samples = _checked_int(samples, "samples", 1, MAX_SAMPLES)
    if kind == "strong":
        low, high = np.array([_box(n, p, delta) for p in source.probs.tolist()]).T
    rng = stream(seed, 0)
    hits = 0
    for done in range(0, samples, _BLOCK_ROWS):
        counts = rng.multinomial(n, source.probs, size=min(_BLOCK_ROWS, samples - done))
        member = (np.all((low <= counts) & (counts <= high), axis=1) if kind == "strong"
                  else _judge(source, n, delta, counts)[1])
        hits += int(np.count_nonzero(member))
    lo, hi = _clopper_pearson_99(hits, samples)
    return hits / samples, lo, hi


def _check_block(dist: SourceDistribution, ns, delta: float
                 ) -> tuple[_Source, list[int], float]:
    """(source, ns, delta): the one door; every exact and Monte Carlo
    entry, and dilution, passes it.  delta is a float in [0, inf], each n
    of the grid ns a Python int in [1, 2^63 - 1] (for K_+^n and the
    census's int64 table), and source the one record of dist that the
    engines read: its symbols of positive probability, in order, with their
    log2 probabilities taken once, and its entropy."""
    delta = _checked_real(delta, "delta", 0.0, math.inf)
    ns = [_checked_int(n, "n", 1, _MAX_N) for n in ns]
    symbols = np.flatnonzero(dist.probs > 0.0)
    probs = dist.probs[symbols]
    return _Source(symbols, probs, np.log2(probs), dist.entropy_bits), ns, delta


def _typical_report(dist: SourceDistribution, n: int, delta: float, kind: str,
                    mode: str, samples: int, seed: int) -> TypicalReport:
    """The weak or strong report of the support: exact or Monte Carlo.  In
    Monte Carlo mode the cardinality is the theoretical bound, n (H + delta)
    for the weak set and n log2 K, K the size of dist, for the strong one."""
    source, (n,), delta = _check_block(dist, [n], delta)
    if mode == "exact":
        if kind == "strong":
            mass, card = _strong_program(source, n, delta)
        else:
            (mass, card, _), = _census(source, [n], delta)
        return TypicalReport(n, delta, mass, _log2_bigint(card), kind,
                             mode="exact", mass_low=mass, mass_high=mass)
    if mode == "mc":
        mass, lo, hi = _mc_mass(source, n, delta, kind, samples, seed)
        bound = (n * (dist.entropy_bits + delta) if kind == "weak"
                 else n * math.log2(len(dist)))
        return TypicalReport(n, delta, mass, bound, kind, mode="mc",
                             samples=samples, mass_low=lo, mass_high=hi)
    raise ValueError(f"unknown mode {mode!r}")


def weak_typical_mass(dist: SourceDistribution, n: int, delta: float,
                      mode: str = "exact", samples: int = 100_000,
                      seed: int = 0) -> TypicalReport:
    """Probability mass of the weakly typical set W_delta at block length n.

    Exact mode enumerates empirical types of the K_+ symbols of positive
    probability (C(n + K_+ - 1, K_+ - 1) <= ``MAX_TYPES``); the cardinality
    is then an exact integer count in log2.  Monte Carlo mode samples
    i.i.d. types (at most ``MAX_SAMPLES``) and reports a 99% interval.
    """
    return _typical_report(dist, n, delta, "weak", mode, samples, seed)


def strong_typical_mass(dist: SourceDistribution, n: int, delta: float,
                        mode: str = "exact", samples: int = 100_000,
                        seed: int = 0) -> TypicalReport:
    """Mass of the strongly typical set: every empirical frequency within
    delta of its probability, and zero-probability symbols absent.

    Exact mode runs a program over the K_+ symbols of positive probability,
    not the type table: at most ``MAX_TYPES`` (state, count) terms, about
    2 delta n + 1 counts per state, or more where their type count is at
    most ``MAX_TYPES``, so every table the census takes; and n within its
    reach at min(K_+, 3) symbols (n + 1 <= ``MAX_TYPES`` for two, n <= 1998
    for more); the cardinality is an exact integer count in log2.
    Monte Carlo mode is as for the weak set."""
    return _typical_report(dist, n, delta, "strong", mode, samples, seed)


def weak_typical_census(dist: SourceDistribution, n: int, delta: float) -> tuple[float, int]:
    """(exact mass, exact integer cardinality) of the weakly typical set."""
    source, (n,), delta = _check_block(dist, [n], delta)
    (mass, count, _), = _census(source, [n], delta)
    return mass, count


def aep_bounds_check(dist: SourceDistribution, n: int, delta: float,
                     bound_delta: float | None = None) -> bool:
    """Verify 2^{-n(H+d)} <= p(x^n) <= 2^{-n(H-d)} on every weakly typical type.

    ``bound_delta`` sets the window half-width d used for the bounds
    themselves (defaults to ``delta``); passing a smaller value tightens the
    bounds and should fail on non-degenerate sources.  Comparisons happen in
    log space with relative slack 1e-12.
    """
    source, (n,), delta = _check_block(dist, [n], delta)
    if bound_delta is None:
        bound_delta = delta
    bound_delta = _checked_real(bound_delta, "bound_delta", 0.0, math.inf)
    h = source.entropy_bits
    slack = 1e-12 * max(1.0, n * (h + max(delta, bound_delta)))
    lo = -n * (h + bound_delta) - slack
    hi = -n * (h - bound_delta) + slack
    for _, _, log2_prob, ok in _judged_blocks(source, [n], delta):
        typical = log2_prob[ok]
        if not np.all((lo <= typical) & (typical <= hi)):
            return False
    return True
