"""Reference values the benchmark checks entcost's outputs against.

Everything here is computed independently of entcost: a vectorized
type census, the two-qubit closed form for entanglement of formation,
marginal entropies and the geometric entropy g.  The benchmark calls these
only while checking, never inside a timed call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import gammaln

LN2 = math.log(2.0)


def compositions(n: int, k: int) -> np.ndarray:
    """Every count vector of length k summing to n, one per row (stars and bars)."""
    if k == 1:
        return np.array([[n]])
    bars = np.array(list(itertools.combinations(range(n + k - 1), k - 1)))
    edges = np.concatenate([np.full((len(bars), 1), -1), bars,
                            np.full((len(bars), 1), n + k - 1)], axis=1)
    return np.diff(edges, axis=1) - 1


def entropy_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def census(probs, n: int, delta: float, kind: str,
           want_count: bool = False) -> tuple[float, int | None]:
    """(mass, exact cardinality or None) of the weak or strong typical set."""
    p = np.asarray(probs, dtype=float)
    counts = compositions(n, p.size)
    pos = p > 0.0
    log2p = np.log2(np.where(pos, p, 1.0))
    feasible = np.all(counts[:, ~pos] == 0, axis=1)
    # Summed symbol by symbol, as entcost does: a matrix product rounds
    # differently, which flips types that sit exactly on the window edge.
    log2_prob = np.zeros(len(counts))
    for i in np.flatnonzero(pos):
        log2_prob = log2_prob + counts[:, i] * log2p[i]
    if kind == "weak":
        member = feasible & (np.abs(-log2_prob / n - entropy_bits(p)) <= delta)
    else:
        dev = np.abs(counts / n - p)[:, pos]
        member = feasible & np.all(dev <= delta, axis=1)
    if np.all(member | ~feasible):
        mass = 1.0  # no type that carries mass was cut
    else:
        ln_w = (gammaln(n + 1) - np.sum(gammaln(counts[member] + 1), axis=1)
                + log2_prob[member] * LN2)
        mass = min(1.0, math.fsum(np.exp(ln_w)))
    if not want_count:
        return mass, None
    count = 0
    for row in counts[member]:
        m, rem = 1, n
        for c in row.tolist():
            m *= math.comb(rem, c)
            rem -= c
        count += m
    return mass, count


def log2_int(m: int) -> float:
    """log2 of a positive integer, accurate for integers beyond float range."""
    shift = max(0, m.bit_length() - 900)
    return math.log2(m >> shift) + shift


def g_bits(x: float) -> float:
    """Entropy of a geometric distribution with mean x, in bits."""
    return 0.0 if x == 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _binary_h(x: float) -> float:
    return entropy_bits([x, 1.0 - x])


def wootters_bits(rho4: np.ndarray) -> float:
    """Exact entanglement of formation of a two-qubit state (Wootters 1998)."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    rt = rho4 @ yy @ rho4.conj() @ yy
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(rt).real)[::-1], 0.0, None))
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return _binary_h((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def _spectrum_entropy(m: np.ndarray) -> float:
    return entropy_bits(np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2.0), 0.0, None))


def marginal_entropies(rho: np.ndarray, dim_a: int, dim_b: int) -> tuple[float, float, float]:
    """(S(A), S(B), S(AB)) in bits."""
    t = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return (_spectrum_entropy(np.einsum("ijkj->ik", t)),
            _spectrum_entropy(np.einsum("ijil->jl", t)),
            _spectrum_entropy(rho))


def formation_bracket(rho: np.ndarray, dim_a: int, dim_b: int) -> tuple[float, float]:
    """(lower, upper) bounds on entanglement of formation in bits.

    Lower: the hashing bound max(0, S(B)-S(AB), S(A)-S(AB)), which also
    bounds the formation of n copies from below by n times itself.  Upper:
    the smaller marginal entropy.
    """
    sa, sb, sab = marginal_entropies(rho, dim_a, dim_b)
    return max(0.0, sb - sab, sa - sab), min(sa, sb)
