"""Tail-sum majorization checks for separable (product-Kraus) operations.

The quantity tracked everywhere is the suffix sum of a sorted spectrum,
tails_N(T) = Tr T - (sum of the N largest eigenvalues), as read by
``entropy.tail_sums``: when a pure bipartite state is hit by a channel
whose Kraus operators factor as L_k (x) M_k, the weighted suffix sums of
the outcome marginals on A can never exceed the suffix sums of the input
marginal.  Entropy inequalities follow from the integral representation,
which consumes nothing but those suffix sums.

Outcomes are laid out two ways.  One instrument on one state
(``apply_instrument``, ``entropy_monotonicity_check``) is read by outcome
label, with no trial axis, so branches may be coarse-grained into mixed
outcomes; an outcome that one branch feeds is pure, with that branch's
squared norm as its probability, and needs no grouping arithmetic.  A sweep
stacks trials on a fixed 3 x 3 branch grid, where every branch is its own
outcome and a branch a trial does not have is exactly zero, so its outcome
has probability 0 and is dropped.  A sweep solves the local instruments of
a block of trials once per local dimension, and takes one SVD per
(d_A, d_B) for its inputs and outcomes together.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .entropy import _row_entropies, _suffix_sums, tail_sums, von_neumann_entropy
from .rng import stream
from .spectra import (
    WEIGHT_ATOL,
    BipartiteState,
    Ensemble,
    InvariantViolation,
    PureBipartite,
    Spectrum,
    _checked_int,
    _checked_matrix,
    _checked_probs,
    _checked_rows,
    _schmidt_rows,
    _unit_amplitudes,
    schmidt_decompose,
)

logger = logging.getLogger(__name__)

COMPLETENESS_ATOL = 1e-10
MARGIN_ATOL = 1e-10
# relative slack of tail_sum_operator_inequality, per unit of trace
OPERATOR_ATOL = 1e-10
# slack of the entropy inequalities, in bits
ENTROPY_ATOL = 1e-9
OUTCOME_PROB_FLOOR = 1e-15
# the most trials one sweep runs
MAX_TRIALS = 100_000
# the largest local dimension a sweep draws
MAX_DIM = 16
# trials stacked at once by a sweep; bounds its memory whatever the trial count
_BLOCK = 512
# A and B branches per side of a random instrument's branch grid
_GRID = 3


@dataclass(frozen=True)
class ProductKrausInstrument:
    """Finite family of product Kraus pairs (L_k, M_k) with outcome labels.

    ``ls`` and ``ms`` are read-only stacks of shape (k, r_A, d_A) and
    (k, r_B, d_B): all L_k share one shape and all M_k share one shape, and
    every entry is finite.  ``outcomes[k]`` names the measurement record
    branch k feeds into (coarse-graining); the finest graining gives every
    branch its own outcome.  ``completeness_defect`` is derived, not passed:
    the operator-norm distance of sum_k L_k'L_k (x) M_k'M_k from the
    identity, a sum that must not overflow.
    """

    ls: np.ndarray
    ms: np.ndarray
    outcomes: tuple
    completeness_defect: float = field(init=False)

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
        if not (np.isfinite(ls).all() and np.isfinite(ms).all()):
            raise InvariantViolation("Kraus operators must be finite")
        outcomes = tuple(self.outcomes) if self.outcomes else tuple(range(len(ls)))
        if len(outcomes) != len(ls):
            raise InvariantViolation("outcome labels must align with the Kraus pairs")
        # finite entries whose squares overflow make an infinite sum, which
        # the eigensolver cannot take
        with np.errstate(over="ignore", invalid="ignore"):
            completeness = _completeness_matrix(ls, ms)
        if not np.isfinite(completeness).all():
            raise InvariantViolation("Kraus operators overflow the completeness sum")
        defect = float(_completeness_defects(completeness))
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

    def is_channel(self) -> bool:
        return self.completeness_defect <= COMPLETENESS_ATOL


def _completeness_matrix(ls: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_k L_k'L_k (x) M_k'M_k for stacked L_k and M_k,
    of shapes (..., k, r, d): one matrix per leading index."""
    a = ls.conj().swapaxes(-1, -2) @ ls
    b = ms.conj().swapaxes(-1, -2) @ ms
    d = a.shape[-1] * b.shape[-1]
    acc = np.einsum("...kij,...kab->...iajb", a, b).reshape(a.shape[:-3] + (d, d))
    return (acc + acc.conj().swapaxes(-1, -2)) / 2.0


def _completeness_defects(matrices: np.ndarray) -> np.ndarray:
    """Operator-norm distance from the identity of each completeness matrix
    in a stack (..., d, d), from one batched ``eigvalsh``."""
    eye = np.eye(matrices.shape[-1])
    return np.max(np.abs(np.linalg.eigvalsh(matrices - eye)), axis=-1)


def schur_horn_check(matrix: np.ndarray, vectors) -> bool:
    """Top eigenvalue sums dominate diagonal sums over any orthonormal frame.

    For Hermitian M and orthonormal v_0..v_{N-1}:
    sum of the N largest eigenvalues >= sum_n <v_n|M|v_n>, within
    ``MARGIN_ATOL``.
    """
    m = _checked_matrix(matrix, "matrix")
    m = (m + m.conj().T) / 2.0
    v = _checked_matrix(vectors, "vectors", (None, len(m)))
    gram = v @ v.conj().T
    if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-10:
        raise InvariantViolation("frame is not orthonormal to 1e-10")
    eig = np.linalg.eigvalsh(m)[::-1]
    top = float(np.sum(eig[:v.shape[0]]))
    diag = float(np.real(np.einsum("ni,ij,nj->", v.conj(), m, v)))
    return top >= diag - MARGIN_ATOL


def tail_sum_operator_inequality(a: np.ndarray, b: np.ndarray, k: np.ndarray,
                                 n_top: int) -> bool:
    """Suffix sums after a sandwich are bounded by truncating the middle factor.

    With K PSD and K_N the same operator minus its top-N eigenspace:
    tails_N(A K B B' K A') <= Tr[A K_N B B' K_N A'], within
    ``OPERATOR_ATOL`` * (Tr of the left side + 1).
    """
    n_top = _checked_int(n_top, "n_top", 0)
    k = _checked_matrix(k, "k")
    a, b = _checked_matrix(a, "a", (None, len(k))), _checked_matrix(b, "b", (len(k), None))
    k = (k + k.conj().T) / 2.0
    w, vecs = np.linalg.eigh(k)
    if w[0] < -1e-10:
        raise InvariantViolation("middle factor must be positive semidefinite")
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    vecs = vecs[:, order]
    c = a @ k @ b
    t_eigs = np.clip(np.linalg.eigvalsh(c @ c.conj().T)[::-1], 0.0, None)
    trace = float(np.sum(t_eigs))
    lhs = float(np.sum(t_eigs[n_top:]))
    k_trunc = (vecs[:, n_top:] * w[n_top:]) @ vecs[:, n_top:].conj().T
    c_trunc = a @ k_trunc @ b
    rhs = float(np.linalg.norm(c_trunc) ** 2)
    return lhs <= rhs + OPERATOR_ATOL * (trace + 1.0)


def _outcome_spectra(branches: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Schmidt spectrum of each branch in a stack (n, r_A, r_B), from one
    batched ``_schmidt_rows`` of the branches divided by their Frobenius
    norms ``norms``.  Every row must pass the checks of a normalized Spectrum."""
    return _checked_rows(_schmidt_rows(branches / norms[:, None, None]), normalized=True)


class _Outcomes(NamedTuple):
    """Kept outcomes of one instrument on one pure input, in sorted label order.

    An outcome is kept when its probability (``probs``, not renormalized)
    exceeds ``OUTCOME_PROB_FLOOR``; ``dropped`` counts the others.
    ``groups[x, k]`` says whether branch k feeds outcome x, ``tops`` names
    each outcome's largest branch (the first on a tie) and ``pure`` marks
    outcomes whose branches are all parallel to it.  ``branches`` holds every
    branch and ``norms`` their Frobenius norms.
    """

    probs: np.ndarray
    pure: np.ndarray
    tops: np.ndarray
    groups: np.ndarray
    branches: np.ndarray
    norms: np.ndarray
    dropped: int


def _instrument_outcomes(inst: ProductKrausInstrument, psi: PureBipartite) -> _Outcomes:
    """Outcomes of ``inst`` applied to ``psi``.

    Branch k maps the amplitude matrix C to L_k C M_k^T and feeds outcome
    ``inst.outcomes[k]``; one batched product forms every branch.  An outcome
    is pure when every branch is parallel to its largest one, so one that a
    single branch feeds is pure, with that branch as its top.  The
    instrument's completeness defect must be within ``COMPLETENESS_ATOL``.
    """
    if (inst.dim_a, inst.dim_b) != (psi.dim_a, psi.dim_b):
        raise InvariantViolation("instrument and state dimensions differ")
    if not inst.is_channel():
        raise InvariantViolation(
            f"completeness defect {inst.completeness_defect!r} exceeds tolerance")
    index = {x: i for i, x in enumerate(sorted(set(inst.outcomes)))}
    labels = np.array([index[x] for x in inst.outcomes])
    groups = labels == np.arange(len(index))[:, None]
    branches = inst.ls @ psi.amplitudes @ inst.ms.swapaxes(-1, -2)
    vecs = branches.reshape(len(branches), -1)
    norms = np.linalg.norm(vecs, axis=-1)
    norms2 = norms ** 2
    if len(index) == len(labels):
        # one branch per outcome: it is the outcome's top, and the outcome
        # is pure with that branch's squared norm as its probability
        tops = np.argsort(labels)
        probs, pure = norms2[tops], np.ones(len(tops), dtype=bool)
    else:
        probs = np.where(groups, norms2, 0.0).sum(axis=-1)
        tops = np.where(groups, norms2, -1.0).argmax(axis=-1)
        head = tops[labels]
        overlaps = np.abs(np.einsum("ki,ki->k", vecs, vecs[head].conj())) ** 2
        parallel = overlaps >= (1.0 - 1e-10) * norms2[head] * norms2
        pure = ~(groups & ~parallel).any(axis=-1)
    keep = probs > OUTCOME_PROB_FLOOR
    return _Outcomes(probs[keep], pure[keep], tops[keep], groups[keep], branches, norms,
                     len(keep) - int(np.count_nonzero(keep)))


def apply_instrument(inst: ProductKrausInstrument, psi: PureBipartite) -> Ensemble:
    """Outcome ensemble of a product-Kraus instrument on a pure input.

    Branch k maps the amplitude matrix C to L_k C M_k^T; branches sharing an
    outcome label are collected into one (generally mixed) member.  Members
    whose branches are pairwise parallel are stored as pure states.
    Probability-zero outcomes are dropped with a log notice.
    """
    out = _instrument_outcomes(inst, psi)
    if out.dropped:
        logger.info("dropped %d probability-zero outcomes", out.dropped)
    vecs = out.branches.reshape(len(out.branches), -1)
    members = tuple(
        schmidt_decompose(out.branches[top]) if pure
        else BipartiteState(*out.branches.shape[1:],
                            vecs[group].T @ vecs[group].conj() / prob)
        for prob, pure, top, group in zip(out.probs, out.pure, out.tops, out.groups))
    return Ensemble(out.probs / np.sum(out.probs), members)


def _trial_weights(probs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Outcome weights of a stack of trials (T, X), normalized within each
    trial, zero on slots not kept.

    Each trial's weights are divided by the sum of its own kept
    probabilities, taken over exactly those: a sum over zero slots would
    add in another order.
    """
    weights = np.zeros(probs.shape)
    counts = keep.sum(axis=1)
    for count in set(counts.tolist()):
        kept = keep & (counts == count)[:, None]
        rows = probs[kept].reshape(-1, count)
        weights[kept] = (rows / rows.sum(axis=1, keepdims=True)).reshape(-1)
    return weights


@dataclass(frozen=True)
class MajorizationReport:
    """Suffix-sum margins of an instrument outcome ensemble against its input."""

    margins: np.ndarray
    passed: bool


def majorization_condition_check(psi: PureBipartite,
                                 ensemble: Ensemble) -> MajorizationReport:
    """Margins tails_N(psi_A) - sum_x p(x) tails_N(phi_x_A).

    All members must be pure.  N runs from 0 (exactly zero margin for a
    channel) up to the largest marginal dimension; the check passes iff no
    margin is below -``MARGIN_ATOL``.
    """
    if not ensemble.all_pure():
        raise InvariantViolation("majorization margins need pure ensemble members")
    n_max = max(psi.dim_a, ensemble.dim_a)
    rows = _padded([member.schmidt.values for member in ensemble.members], n_max)
    margins = _margins(tail_sums(psi.schmidt, n_max + 1), ensemble.weights, rows)
    return MajorizationReport(margins, bool(np.min(margins) >= -MARGIN_ATOL))


def _padded(rows, n: int) -> np.ndarray:
    """Rows of at most n values each, as one zero-padded (len(rows), n) array."""
    lengths = np.array([len(row) for row in rows])
    out = np.zeros((len(rows), n))
    out[np.arange(n) < lengths[:, None]] = np.concatenate(rows)
    return out


def _margins(lhs_tails: np.ndarray, weights: np.ndarray, rows: np.ndarray,
             tails=0.0) -> np.ndarray:
    """lhs_tails[N] - sum_x w_x tails_N(rows[x]) for N = 0..n.

    ``rows`` is one trial's (R, n) or a stack of trials' (T, R, n)
    non-increasing spectra, zero-padded to n, so indices past a row's length
    read its tail mass ``tails[..., x]`` (a scalar applies to every row).
    ``weights`` is (..., R), zero on padding rows, and ``lhs_tails`` is
    (..., n + 1), the left side's tail sums.  The weighted sum runs in row
    order; a zero row adds exactly nothing to it.
    """
    weighted = (weights[..., None] * _suffix_sums(rows, tails)).sum(axis=-2)
    return lhs_tails - weighted


@dataclass(frozen=True)
class TailDominanceResult:
    """Outcome of converting suffix-sum dominance into an entropy inequality."""

    conclusive: bool
    holds: bool
    entropy_margin: float
    min_tail_margin: float


def _tail_dominance_entropy_check(rho_spectrum: Spectrum, weights,
                                  member_spectra) -> TailDominanceResult:
    """If tail sums of rho dominate the weighted member tail sums at every
    truncation point, the entropy of rho dominates the weighted mean entropy,
    within ``ENTROPY_ATOL``.

    A violated precondition yields an inconclusive result (the implication
    is silent there), never a failure.
    """
    w = _checked_probs(weights, "weights", WEIGHT_ATOL)
    members = list(member_spectra)
    if w.size != len(members):
        raise InvariantViolation("weights and spectra must align")
    n_max = max(len(rho_spectrum), max(len(s) for s in members))
    min_tail_margin = float(np.min(_margins(
        tail_sums(rho_spectrum, n_max + 1), w, _padded([s.values for s in members], n_max),
        np.array([s.tail_mass for s in members]))))
    if min_tail_margin < -MARGIN_ATOL:
        return TailDominanceResult(False, False, math.nan, min_tail_margin)
    entropy_margin = von_neumann_entropy(rho_spectrum) - float(
        np.sum(w * np.array([von_neumann_entropy(s) for s in members])))
    return TailDominanceResult(True, entropy_margin >= -ENTROPY_ATOL,
                               entropy_margin, min_tail_margin)


def entropy_monotonicity_check(psi: PureBipartite, inst: ProductKrausInstrument) -> bool:
    """Marginal entropy never grows on average under a product-Kraus instrument
    with pure outcomes: S(psi_A) >= sum_x p(x) S(phi_x_A) - ``ENTROPY_ATOL``."""
    out = _instrument_outcomes(inst, psi)
    if not out.pure.all():
        raise InvariantViolation("tail sums and entropies need pure outcome states")
    spectra = _outcome_spectra(out.branches[out.tops], out.norms[out.tops])
    avg = float((out.probs / np.sum(out.probs) * _row_entropies(spectra)).sum())
    return von_neumann_entropy(psi.schmidt) >= avg - ENTROPY_ATOL


def _inverse_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Inverse square root of each PSD matrix in a stack (..., d, d)."""
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    w = np.maximum(w, 1e-300)
    return (v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _draw_kraus(rng: np.random.Generator, dim_a: int, dim_b: int, branches_a: int,
                branches_b: int, conditioned: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian draws of a random product instrument, A side first, each copy
    zero-padded to the branch grid: shapes (1, 3, 2, d_A, d_A) and
    (copies, 3, 2, d_B, d_B), with one B copy per A branch when
    ``conditioned``, else one.

    The draws fill (1, branches_a, 2, d_A, d_A) and (copies, branches_b, 2,
    d_B, d_B), in that order.
    """
    z_a = np.zeros((1, _GRID, 2, dim_a, dim_a))
    z_a[:, :branches_a] = rng.standard_normal((1, branches_a, 2, dim_a, dim_a))
    copies = branches_a if conditioned else 1
    z_b = np.zeros((copies, _GRID, 2, dim_b, dim_b))
    z_b[:, :branches_b] = rng.standard_normal((copies, branches_b, 2, dim_b, dim_b))
    return z_a, z_b


def _local_kraus(z: np.ndarray) -> np.ndarray:
    """Complete local instruments from Gaussian draws z of shape
    (..., branches, 2, dim, dim): each copy's Kraus operators g_j are
    corrected by the inverse square root of sum_j g_j'g_j, giving shape
    (..., branches, dim, dim).  A zero draw gives an exactly-zero operator,
    and neither it nor stacking copies changes any other value."""
    gs = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    corr = _inverse_sqrt_psd((gs.conj().swapaxes(-1, -2) @ gs).sum(axis=-3))
    return gs @ corr[..., None, :, :]


def _grid(ka: np.ndarray, kb: np.ndarray, first_a: np.ndarray, first_b: np.ndarray,
          copies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product Kraus pairs of a stack of T trials on the 3 x 3 branch grid.

    ``ka`` (n_A, 3, d_A, d_A) and ``kb`` (n_B, 3, d_B, d_B) stack solved
    local copies: trial t owns A copy ``first_a[t]`` and the ``copies[t]``
    B copies from ``first_b[t]`` on.  Branch k pairs A operator k // 3 with
    B operator k % 3 of copy min(k // 3, copies[t] - 1), its A branch's own
    copy when conditioned, else the one copy; an A branch past the drawn
    ones is exactly zero, whichever copy it meets.  The stacks are
    (T, 9, d_A, d_A) and (T, 9, d_B, d_B).
    """
    k = np.arange(_GRID * _GRID)
    b_copies = first_b[:, None] + np.minimum(k // _GRID, copies[:, None] - 1)
    return ka[first_a[:, None], k // _GRID], kb[b_copies, k % _GRID]


def random_product_instrument(rng: np.random.Generator, dim_a: int, dim_b: int,
                              branches_a: int = 2, branches_b: int = 2,
                              conditioned: bool = True) -> ProductKrausInstrument:
    """Seeded random product-Kraus channel with exact completeness.

    Gaussian draws are corrected per side by the inverse square root of
    their local completeness sums (a product correction by construction, so
    no rejection loop is needed).  With ``conditioned=True`` the B-side
    instrument differs per A-branch, which leaves the family product-Kraus
    complete since each conditional block sums to the identity on B.
    ``branches_a`` and ``branches_b`` lie in [1, 3]; branch
    i * branches_b + j pairs A operator i with B operator j.
    """
    dim_a, dim_b = _checked_int(dim_a, "dim_a", 1), _checked_int(dim_b, "dim_b", 1)
    branches_a = _checked_int(branches_a, "branches_a", 1, _GRID)
    branches_b = _checked_int(branches_b, "branches_b", 1, _GRID)
    z_a, z_b = _draw_kraus(rng, dim_a, dim_b, branches_a, branches_b, conditioned)
    first = np.zeros(1, dtype=np.intp)
    ls, ms = _grid(_local_kraus(z_a), _local_kraus(z_b), first, first, np.array([len(z_b)]))
    k = np.arange(_GRID * _GRID)
    real = (k // _GRID < branches_a) & (k % _GRID < branches_b)
    return ProductKrausInstrument(ls[0, real], ms[0, real], tuple(range(branches_a * branches_b)))


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


def _draw(seed: int, trial: int, max_dim: int) -> tuple:
    """Raw arrays of one sweep trial from stream (seed, trial): its amplitude
    matrix and its instrument's Gaussian copies, (1, 3, 2, d_A, d_A) on A and
    (copies, 3, 2, d_B, d_B) on B, as ``_draw_kraus`` draws them.  A
    conditioned trial draws one B copy per A branch, 2 or 3, an
    unconditioned one draws 1, and only drawn copies are kept.

    The order is that of ``random_pure_state`` followed by
    ``random_product_instrument``: d_A, d_B, the amplitude matrix (real part
    first), branches_a, branches_b, ``conditioned``, then the local Gaussians.
    """
    rng = stream(seed, trial)
    da = int(rng.integers(2, max_dim + 1))
    db = int(rng.integers(2, max_dim + 1))
    amplitudes = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
    ba = int(rng.integers(2, 4))
    bb = int(rng.integers(2, 4))
    conditioned = bool(rng.integers(0, 2))
    return (amplitudes, *_draw_kraus(rng, da, db, ba, bb, conditioned))


def _sweep_block(draws: list) -> tuple[np.ndarray, np.ndarray]:
    """Smallest tail-sum margin and completeness defect of each drawn trial.

    Every trial's local instruments, A and B sides together, are solved in
    one ``_local_kraus`` call per local dimension.  Trials sharing
    (d_A, d_B) then run as one stack on the branch grid, each branch its own
    outcome: their completeness matrices are formed, and their eigenvalues
    taken, in one batched call each, and one SVD gives the inputs' Schmidt
    rows and the kept outcomes' spectra, checked together.
    """
    margins = np.empty(len(draws))
    defects = np.empty(len(draws))
    # each trial's first A and first B copy in its dimension's stack
    first = np.empty((len(draws), 2), dtype=np.intp)
    copies = np.empty(len(draws), dtype=np.intp)
    stacks, sizes, by_dims = {}, {}, {}
    for i, (amplitudes, *zs) in enumerate(draws):
        by_dims.setdefault(amplitudes.shape, []).append(i)
        for side, z in enumerate(zs):
            dim = z.shape[-1]
            first[i, side] = sizes.get(dim, 0)
            sizes[dim] = first[i, side] + len(z)
            stacks.setdefault(dim, []).append(z)
        copies[i] = len(zs[1])
    solved = {dim: _local_kraus(np.concatenate(stack)) for dim, stack in stacks.items()}
    for (da, db), trials in by_dims.items():
        ls, ms = _grid(solved[da], solved[db], first[trials, 0], first[trials, 1],
                       copies[trials])
        group_defects = _completeness_defects(_completeness_matrix(ls, ms))
        if not (group_defects <= COMPLETENESS_ATOL).all():
            raise InvariantViolation(
                f"completeness defect {float(np.max(group_defects))!r} exceeds tolerance")
        amplitudes = _unit_amplitudes(np.stack([draws[i][0] for i in trials]))
        branches = ls @ amplitudes[:, None] @ ms.swapaxes(-1, -2)
        norms = np.linalg.norm(branches.reshape(branches.shape[:2] + (-1,)), axis=-1)
        probs = norms ** 2
        keep = probs > OUTCOME_PROB_FLOOR
        # the inputs' Schmidt rows and the kept outcomes' spectra, from one
        # SVD: an input enters as a branch of norm 1
        spectra = _outcome_spectra(np.concatenate([amplitudes, branches[keep]]),
                                   np.concatenate([np.ones(len(trials)), norms[keep]]))
        lhs = spectra[:len(trials)]
        # the instruments are square, so every spectrum has min(d_A, d_B) values
        rows = np.zeros(keep.shape + lhs.shape[1:])
        rows[keep] = spectra[len(trials):]
        margins[trials] = _margins(_suffix_sums(lhs), _trial_weights(probs, keep),
                                   rows).min(axis=1)
        defects[trials] = group_defects
    return margins, defects


def _sweep_trials(seed: int, trials: int, max_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest tail-sum margin and completeness defect of every sweep trial,
    in trial order, drawn and computed ``_BLOCK`` trials at a time."""
    parts = [_sweep_block([_draw(seed, t, max_dim)
                           for t in range(start, min(start + _BLOCK, trials))])
             for start in range(0, trials, _BLOCK)]
    return (np.concatenate([margins for margins, _ in parts]),
            np.concatenate([defects for _, defects in parts]))


def majorization_sweep(trials: int, max_dim: int, seed: int,
                       threads: int = 1) -> SweepReport:
    """Randomized check of the outcome-ensemble suffix-sum condition.

    Trial t draws its state and instrument from its own stream (seed, t),
    in the order ``random_pure_state`` and ``random_product_instrument``
    draw them, and no state or instrument object is built.  Each instrument
    is laid out on a 3 x 3 branch grid, 3 A branches by 3 B branches, whose
    branches it does not draw are exactly zero and feed probability-0
    outcomes, which are dropped.  Trials are computed ``_BLOCK`` at a time,
    so memory does not grow with ``trials``.  Within a block, the local
    instruments of every trial are solved in one call per local dimension,
    the trials of each (d_A, d_B) share one batched product, SVD and
    eigenvalue call per step, and every sum adds in the order a one-trial
    computation adds.  Each matrix is solved, multiplied and decomposed
    alone whatever stack holds it, so a trial's margin and defect are the
    same bits whichever trials share its block, and the report is
    reproducible bit for bit.  ``threads``, an integer >= 1, is accepted for
    compatibility and unused.  ``trials`` must lie in [1, MAX_TRIALS] and
    ``max_dim`` in [2, MAX_DIM].
    """
    trials = _checked_int(trials, "trials", 1, MAX_TRIALS)
    max_dim = _checked_int(max_dim, "max_dim", 2, MAX_DIM)
    _checked_int(threads, "threads", 1)
    margins, defects = _sweep_trials(seed, trials, max_dim)
    worst = int(np.argmin(margins))
    failures = int(np.sum(margins < -MARGIN_ATOL))
    return SweepReport(trials, failures, float(margins[worst]), worst,
                       float(np.max(defects)), seed)
