"""Tail-sum majorization checks for separable (product-Kraus) operations.

The quantity tracked everywhere is the suffix sum of a sorted spectrum,
tails_N(T) = Tr T - (sum of the N largest eigenvalues), as read by
``entropy.tail_sums``: when a pure bipartite state is hit by a channel
whose Kraus operators factor as L_k (x) M_k, the weighted suffix sums of
the outcome marginals on A can never exceed the suffix sums of the input
marginal.  Entropy inequalities follow from the integral representation,
which consumes nothing but those suffix sums.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import _row_entropies, _suffix_sums, tail_sums, von_neumann_entropy
from .rng import stream
from .spectra import (
    NORMALIZED_ATOL,
    BipartiteState,
    Ensemble,
    InvariantViolation,
    PureBipartite,
    Spectrum,
    random_pure_state,
    schmidt_decompose,
)

logger = logging.getLogger(__name__)

COMPLETENESS_ATOL = 1e-10
MARGIN_ATOL = 1e-10
OUTCOME_PROB_FLOOR = 1e-15


@dataclass(frozen=True)
class ProductKrausInstrument:
    """Finite family of product Kraus pairs (L_k, M_k) with outcome labels.

    ``ls`` and ``ms`` are read-only stacks of shape (k, r_A, d_A) and
    (k, r_B, d_B): all L_k share one shape and all M_k share one shape.
    ``outcomes[k]`` names the measurement record branch k feeds into
    (coarse-graining); the finest graining gives every branch its own
    outcome.  ``completeness_defect`` is the operator-norm distance of
    sum_k L_k'L_k (x) M_k'M_k from the identity.
    """

    ls: np.ndarray
    ms: np.ndarray
    outcomes: tuple
    completeness_defect: float = math.nan

    def __post_init__(self) -> None:
        try:
            ls = np.array(self.ls, dtype=complex)
            ms = np.array(self.ms, dtype=complex)
        except ValueError as exc:
            raise InvariantViolation("Kraus operators have inconsistent shapes") from exc
        if ls.ndim != 3 or ms.ndim != 3:
            raise InvariantViolation("Kraus operators have inconsistent shapes")
        if len(ls) == 0 or len(ls) != len(ms):
            raise InvariantViolation("need equally many L and M operators")
        outcomes = tuple(self.outcomes) if self.outcomes else tuple(range(len(ls)))
        if len(outcomes) != len(ls):
            raise InvariantViolation("outcome labels must align with the Kraus pairs")
        d = ls.shape[2] * ms.shape[2]
        defect = float(np.max(np.abs(np.linalg.eigvalsh(
            _completeness_matrix(ls, ms) - np.eye(d)))))
        ls.setflags(write=False)
        ms.setflags(write=False)
        object.__setattr__(self, "ls", ls)
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "completeness_defect", defect)

    @property
    def dim_a(self) -> int:
        return int(self.ls.shape[2])

    @property
    def dim_b(self) -> int:
        return int(self.ms.shape[2])

    def is_channel(self, atol: float = COMPLETENESS_ATOL) -> bool:
        return self.completeness_defect <= atol


def _completeness_matrix(ls: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_k L_k'L_k (x) M_k'M_k for stacked L_k and M_k."""
    a = ls.conj().transpose(0, 2, 1) @ ls
    b = ms.conj().transpose(0, 2, 1) @ ms
    d = a.shape[1] * b.shape[1]
    acc = np.einsum("kij,kab->iajb", a, b).reshape(d, d)
    return (acc + acc.conj().T) / 2.0


def schur_horn_check(matrix: np.ndarray, vectors, atol: float = MARGIN_ATOL) -> bool:
    """Top eigenvalue sums dominate diagonal sums over any orthonormal frame.

    For Hermitian M and orthonormal v_0..v_{N-1}:
    sum of the N largest eigenvalues >= sum_n <v_n|M|v_n>, within ``atol``.
    """
    m = np.asarray(matrix, dtype=complex)
    m = (m + m.conj().T) / 2.0
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[1] != m.shape[0] or v.shape[0] < 1:
        raise InvariantViolation("vectors must be rows matching the matrix dimension")
    gram = v @ v.conj().T
    if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-10:
        raise InvariantViolation("frame is not orthonormal to 1e-10")
    eig = np.linalg.eigvalsh(m)[::-1]
    top = float(np.sum(eig[:v.shape[0]]))
    diag = float(np.real(np.einsum("ni,ij,nj->", v.conj(), m, v)))
    return top >= diag - atol


def tail_sum_operator_inequality(a: np.ndarray, b: np.ndarray, k: np.ndarray,
                                 n_top: int, atol: float = 1e-10) -> bool:
    """Suffix sums after a sandwich are bounded by truncating the middle factor.

    With K PSD and K_N the same operator minus its top-N eigenspace:
    tails_N(A K B B' K A') <= Tr[A K_N B B' K_N A'], within
    atol * (Tr of the left side + 1).
    """
    if n_top < 0:
        raise ValueError("n_top must be non-negative")
    k = np.asarray(k, dtype=complex)
    k = (k + k.conj().T) / 2.0
    w, vecs = np.linalg.eigh(k)
    if w[0] < -1e-10:
        raise InvariantViolation("middle factor must be positive semidefinite")
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    vecs = vecs[:, order]
    c = np.asarray(a, dtype=complex) @ k @ np.asarray(b, dtype=complex)
    t_eigs = np.clip(np.linalg.eigvalsh(c @ c.conj().T)[::-1], 0.0, None)
    trace = float(np.sum(t_eigs))
    lhs = float(np.sum(t_eigs[n_top:]))
    k_trunc = (vecs[:, n_top:] * w[n_top:]) @ vecs[:, n_top:].conj().T
    c_trunc = np.asarray(a, dtype=complex) @ k_trunc @ np.asarray(b, dtype=complex)
    rhs = float(np.linalg.norm(c_trunc) ** 2)
    return lhs <= rhs + atol * (trace + 1.0)


class _Outcomes(NamedTuple):
    """Outcomes of an instrument on a pure input, one row per outcome kept.

    ``probs`` are the outcome probabilities above ``OUTCOME_PROB_FLOOR``
    (not renormalized), ``pure`` marks outcomes whose branches are pairwise
    parallel, ``heads`` holds each outcome's largest branch and ``spectra``
    the Schmidt spectrum of each head (meaningful where ``pure``).
    ``groups[x, k]`` says whether branch k feeds outcome x, and ``vecs`` are
    the branches flattened.
    """

    probs: np.ndarray
    pure: np.ndarray
    heads: np.ndarray
    spectra: np.ndarray
    groups: np.ndarray
    vecs: np.ndarray
    dropped: int


def _outcomes(inst: ProductKrausInstrument, psi: PureBipartite) -> _Outcomes:
    """Every outcome's weight and Schmidt spectrum from one stacked SVD.

    Branch k maps the amplitude matrix C to L_k C M_k^T.  Branches sharing
    an outcome label form one outcome; it is pure when every branch is
    parallel to its largest one, and its spectrum is that of the largest
    branch.
    """
    if (inst.dim_a, inst.dim_b) != (psi.dim_a, psi.dim_b):
        raise InvariantViolation("instrument and state dimensions differ")
    if not inst.is_channel():
        raise InvariantViolation(
            f"completeness defect {inst.completeness_defect!r} exceeds tolerance")
    branches = inst.ls @ psi.amplitudes @ inst.ms.transpose(0, 2, 1)
    vecs = branches.reshape(len(branches), -1)
    norms = np.linalg.norm(vecs, axis=1)
    norms2 = norms ** 2
    keys = sorted(set(inst.outcomes))
    index = {x: i for i, x in enumerate(keys)}
    labels = np.array([index[x] for x in inst.outcomes])
    groups = labels == np.arange(len(keys))[:, None]
    probs = np.where(groups, norms2, 0.0).sum(axis=1)
    # largest branch of each outcome, the first one on a tie
    tops = np.where(groups, norms2, -1.0).argmax(axis=1)
    head = tops[labels]
    overlaps = np.abs(np.einsum("ki,ki->k", vecs, vecs[head].conj())) ** 2
    parallel = overlaps >= (1.0 - 1e-10) * norms2[head] * norms2
    pure = ~(groups & ~parallel).any(axis=1)
    keep = probs > OUTCOME_PROB_FLOOR
    tops = tops[keep]
    sq = np.maximum(np.linalg.svd(branches[tops] / norms[tops, None, None],
                                  compute_uv=False), 0.0) ** 2
    spectra = sq / sq.sum(axis=1, keepdims=True)
    # a NaN or inf entry fails the comparison as well
    if not (np.abs(spectra.sum(axis=1) - 1.0) <= NORMALIZED_ATOL).all():
        raise InvariantViolation("outcome Schmidt spectra must be finite and normalized")
    return _Outcomes(probs[keep], pure[keep], branches[tops], spectra, groups[keep],
                     vecs, len(keys) - len(tops))


def apply_instrument(inst: ProductKrausInstrument, psi: PureBipartite) -> Ensemble:
    """Outcome ensemble of a product-Kraus instrument on a pure input.

    Branch k maps the amplitude matrix C to L_k C M_k^T; branches sharing an
    outcome label are collected into one (generally mixed) member.  Members
    whose branches are pairwise parallel are stored as pure states.
    Probability-zero outcomes are dropped with a log notice.
    """
    out = _outcomes(inst, psi)
    if out.dropped:
        logger.info("dropped %d probability-zero outcomes", out.dropped)
    members = []
    for x, p in enumerate(out.probs):
        if out.pure[x]:
            members.append(schmidt_decompose(out.heads[x]))
        else:
            group = out.vecs[out.groups[x]]
            members.append(BipartiteState(*out.heads.shape[1:], group.T @ group.conj() / p))
    return Ensemble(out.probs / np.sum(out.probs), tuple(members))


def _pure_outcomes(inst: ProductKrausInstrument,
                   psi: PureBipartite) -> tuple[np.ndarray, np.ndarray]:
    """Normalized outcome weights and Schmidt spectrum rows of an instrument
    whose outcomes must all be pure."""
    out = _outcomes(inst, psi)
    if not out.pure.all():
        raise InvariantViolation("tail sums and entropies need pure outcome states")
    return out.probs / out.probs.sum(), out.spectra


@dataclass(frozen=True)
class MajorizationReport:
    """Suffix-sum margins of an instrument outcome ensemble against its input."""

    margins: np.ndarray
    passed: bool


def majorization_condition_check(psi: PureBipartite, ensemble: Ensemble,
                                 atol: float = MARGIN_ATOL) -> MajorizationReport:
    """Margins tails_N(psi_A) - sum_x p(x) tails_N(phi_x_A).

    All members must be pure.  N runs from 0 (exactly zero margin for a
    channel) up to the largest marginal dimension; the check passes iff no
    margin is below -atol.
    """
    if not ensemble.all_pure():
        raise InvariantViolation("majorization margins need pure ensemble members")
    margins = _margins(psi.schmidt, ensemble.weights,
                       [member.schmidt.values for member in ensemble.members],
                       max(psi.dim_a, ensemble.dim_a))
    return MajorizationReport(margins, bool(np.min(margins) >= -atol))


def _margins(lhs_spectrum: Spectrum, weights: np.ndarray, rows, n_max: int,
             tails=0.0) -> np.ndarray:
    """tails_N(lhs_spectrum) - sum_x w_x tails_N(rows[x]) for N = 0..n_max.

    Each of ``rows`` is a non-increasing spectrum at most n_max long; it is
    zero-padded to n_max, so indices past its length read its tail mass
    ``tails[x]`` (a scalar applies to every row).  The weighted sum runs in
    row order.
    """
    padded = np.zeros((len(rows), n_max))
    for x, row in enumerate(rows):
        padded[x, :len(row)] = row
    weighted = (weights[:, None] * _suffix_sums(padded, tails)).sum(axis=0)
    return tail_sums(lhs_spectrum, n_max + 1) - weighted


@dataclass(frozen=True)
class TailDominanceResult:
    """Outcome of converting suffix-sum dominance into an entropy inequality."""

    conclusive: bool
    holds: bool
    entropy_margin: float
    min_tail_margin: float


def tail_dominance_entropy_check(rho_spectrum: Spectrum, weights,
                                 member_spectra, atol: float = 1e-9) -> TailDominanceResult:
    """If tail sums of rho dominate the weighted member tail sums at every
    truncation point, the entropy of rho dominates the weighted mean entropy.

    A violated precondition yields an inconclusive result (the implication
    is silent there), never a failure.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    members = list(member_spectra)
    if w.size != len(members) or w.size == 0:
        raise InvariantViolation("weights and spectra must align and be non-empty")
    if abs(float(np.sum(w)) - 1.0) > 1e-10 or np.any(w < 0.0):
        raise InvariantViolation("weights must be a probability vector")
    n_max = max(len(rho_spectrum), max(len(s) for s in members))
    min_tail_margin = float(np.min(_margins(
        rho_spectrum, w, [s.values for s in members], n_max,
        np.array([s.tail_mass for s in members]))))
    if min_tail_margin < -MARGIN_ATOL:
        return TailDominanceResult(False, False, math.nan, min_tail_margin)
    entropy_margin = von_neumann_entropy(rho_spectrum) - float(
        np.sum(w * np.array([von_neumann_entropy(s) for s in members])))
    return TailDominanceResult(True, entropy_margin >= -atol,
                               entropy_margin, min_tail_margin)


def entropy_monotonicity_check(psi: PureBipartite, inst: ProductKrausInstrument,
                               atol: float = 1e-9) -> bool:
    """Marginal entropy never grows on average under a product-Kraus instrument
    with pure outcomes: S(psi_A) >= sum_x p(x) S(phi_x_A) - atol."""
    weights, spectra = _pure_outcomes(inst, psi)
    avg = float((weights * _row_entropies(spectra)).sum())
    return von_neumann_entropy(psi.schmidt) >= avg - atol


def _inverse_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Inverse square root of each PSD matrix in a stack (..., d, d)."""
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    w = np.maximum(w, 1e-300)
    return (v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _random_local_instruments(rng: np.random.Generator, dim: int, branches: int,
                              copies: int = 1) -> np.ndarray:
    """``copies`` independent random local instruments of ``branches`` Kraus
    operators each, stacked as (copies * branches, dim, dim).  One draw
    fills them in order, so the values match ``copies`` successive draws."""
    z = rng.standard_normal((copies, branches, 2, dim, dim))
    gs = z[:, :, 0] + 1j * z[:, :, 1]
    corr = _inverse_sqrt_psd((gs.conj().swapaxes(-1, -2) @ gs).sum(axis=1))
    return (gs @ corr[:, None]).reshape(-1, dim, dim)


def random_product_instrument(rng: np.random.Generator, dim_a: int, dim_b: int,
                              branches_a: int = 2, branches_b: int = 2,
                              conditioned: bool = True) -> ProductKrausInstrument:
    """Seeded random product-Kraus channel with exact completeness.

    Gaussian draws are corrected per side by the inverse square root of
    their local completeness sums (a product correction by construction, so
    no rejection loop is needed).  With ``conditioned=True`` the B-side
    instrument differs per A-branch, which leaves the family product-Kraus
    complete since each conditional block sums to the identity on B.
    """
    ls_local = _random_local_instruments(rng, dim_a, branches_a)
    if conditioned:
        ms = _random_local_instruments(rng, dim_b, branches_b, copies=branches_a)
    else:
        ms = np.tile(_random_local_instruments(rng, dim_b, branches_b),
                     (branches_a, 1, 1))
    ls = np.repeat(ls_local, branches_b, axis=0)
    return ProductKrausInstrument(ls, ms, tuple(range(len(ls))))


@dataclass(frozen=True)
class SweepReport:
    """Aggregate of a randomized instrument sweep.

    ``worst_trial`` is the index of the first trial whose smallest margin
    equals ``min_margin``.
    """

    trials: int
    failures: int
    min_margin: float
    worst_trial: int
    max_completeness_defect: float
    seed: int


def _trial_inputs(seed: int, trial: int,
                  max_dim: int) -> tuple[PureBipartite, ProductKrausInstrument]:
    """Pure state and instrument of one sweep trial, from stream (seed, trial)."""
    rng = stream(seed, trial)
    da = int(rng.integers(2, max_dim + 1))
    db = int(rng.integers(2, max_dim + 1))
    psi = random_pure_state(rng, da, db)
    return psi, random_product_instrument(
        rng, da, db,
        branches_a=int(rng.integers(2, 4)),
        branches_b=int(rng.integers(2, 4)),
        conditioned=bool(rng.integers(0, 2)))


def _majorization_trial(seed: int, trial: int, max_dim: int) -> tuple[float, float]:
    """Smallest tail-sum margin and completeness defect of one sweep trial."""
    psi, inst = _trial_inputs(seed, trial, max_dim)
    weights, spectra = _pure_outcomes(inst, psi)
    margins = _margins(psi.schmidt, weights, spectra, max(psi.dim_a, inst.ls.shape[1]))
    return float(np.min(margins)), inst.completeness_defect


def majorization_sweep(trials: int, max_dim: int, seed: int,
                       threads: int = 1) -> SweepReport:
    """Randomized check of the outcome-ensemble suffix-sum condition.

    Each trial draws its own stream from (seed, trial) and the trials run in
    order.  ``threads`` is accepted for compatibility and no longer used: a
    thread pool measured 2-3x slower than this serial loop.
    """
    if trials < 1 or max_dim < 2:
        raise ValueError("need trials >= 1 and max_dim >= 2")
    results = np.array([_majorization_trial(seed, t, max_dim) for t in range(trials)])
    margins, defects = results[:, 0], results[:, 1]
    worst = int(np.argmin(margins))
    failures = int(np.sum(margins < -MARGIN_ATOL))
    return SweepReport(trials, failures, float(margins[worst]), worst,
                       float(np.max(defects)), seed)
