"""Tail-sum majorization checks for separable (product-Kraus) operations.

The quantity tracked everywhere is the suffix sum of a sorted spectrum,
tail_sum(T, N) = Tr T - (sum of the N largest eigenvalues): when a pure
bipartite state is hit by an instrument whose Kraus operators factor as
L_k (x) M_k, the weighted suffix sums of the outcome marginals on A can
never exceed the suffix sums of the input marginal (times the operator
norm of the completeness operator).  Entropy inequalities follow from the
integral representation, which consumes nothing but those suffix sums.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .entropy import tail_sums, von_neumann_entropy
from .rng import stream
from .spectra import (
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

    ``outcomes[k]`` names the measurement record branch k feeds into
    (coarse-graining); the finest graining gives every branch its own
    outcome.  ``completeness_defect`` is the operator-norm distance of
    sum_k L_k'L_k (x) M_k'M_k from the identity.
    """

    ls: tuple
    ms: tuple
    outcomes: tuple
    completeness_defect: float = math.nan

    def __post_init__(self) -> None:
        ls = tuple(np.asarray(l, dtype=complex) for l in self.ls)
        ms = tuple(np.asarray(m, dtype=complex) for m in self.ms)
        if not ls or len(ls) != len(ms):
            raise InvariantViolation("need equally many L and M operators")
        da = ls[0].shape[1]
        db = ms[0].shape[1]
        for l, m in zip(ls, ms):
            if l.ndim != 2 or m.ndim != 2 or l.shape[1] != da or m.shape[1] != db:
                raise InvariantViolation("Kraus operators have inconsistent shapes")
        outcomes = tuple(self.outcomes) if self.outcomes else tuple(range(len(ls)))
        if len(outcomes) != len(ls):
            raise InvariantViolation("outcome labels must align with the Kraus pairs")
        defect = float(np.max(np.abs(np.linalg.eigvalsh(
            _completeness_matrix(ls, ms) - np.eye(da * db)))))
        for arr in ls + ms:
            arr.setflags(write=False)
        object.__setattr__(self, "ls", ls)
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "completeness_defect", defect)

    @property
    def dim_a(self) -> int:
        return int(self.ls[0].shape[1])

    @property
    def dim_b(self) -> int:
        return int(self.ms[0].shape[1])

    def is_channel(self, atol: float = COMPLETENESS_ATOL) -> bool:
        return self.completeness_defect <= atol


@dataclass(frozen=True)
class CompletenessOperator:
    """sum_k L_k'L_k (x) M_k'M_k and its operator norm."""

    matrix: np.ndarray
    operator_norm: float


def _completeness_matrix(ls, ms) -> np.ndarray:
    """Hermitian part of sum_k L_k'L_k (x) M_k'M_k."""
    d = ls[0].shape[1] * ms[0].shape[1]
    acc = np.zeros((d, d), dtype=complex)
    for l, m in zip(ls, ms):
        acc += np.kron(l.conj().T @ l, m.conj().T @ m)
    return (acc + acc.conj().T) / 2.0


def completeness_operator(inst: ProductKrausInstrument) -> CompletenessOperator:
    acc = _completeness_matrix(inst.ls, inst.ms)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(acc))))
    return CompletenessOperator(acc, norm)


def spectrum_tail_sums(spec: Spectrum, n_max: int) -> np.ndarray:
    """tail_sum(spec, N) for N = 0..n_max, padding beyond the length with
    the spectrum's tail mass."""
    return tail_sums(spec, n_max + 1)


def _weighted_tail_sums(weights: np.ndarray, spectra, n_max: int) -> np.ndarray:
    """sum_x w_x tail_sum(spectra[x], N) for N = 0..n_max, summed in order."""
    table = np.array([spectrum_tail_sums(s, n_max) for s in spectra])
    return np.sum(weights[:, None] * table, axis=0)


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
    tail_sum(A K B B' K A', N) <= Tr[A K_N B B' K_N A'], within
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


def apply_instrument(inst: ProductKrausInstrument, psi: PureBipartite) -> Ensemble:
    """Outcome ensemble of a product-Kraus instrument on a pure input.

    Branch k maps the amplitude matrix C to L_k C M_k^T; branches sharing an
    outcome label are collected into one (generally mixed) member.  Members
    whose branches are pairwise parallel are stored as pure states.
    Probability-zero outcomes are dropped with a log notice.
    """
    if (inst.dim_a, inst.dim_b) != (psi.dim_a, psi.dim_b):
        raise InvariantViolation("instrument and state dimensions differ")
    if not inst.is_channel():
        raise InvariantViolation(
            f"completeness defect {inst.completeness_defect!r} exceeds tolerance")
    c = psi.amplitudes
    by_outcome: dict = {}
    for l, m, x in zip(inst.ls, inst.ms, inst.outcomes):
        by_outcome.setdefault(x, []).append(l @ c @ m.T)
    weights = []
    members = []
    dropped = 0
    for x in sorted(by_outcome):
        branches = by_outcome[x]
        p = float(sum(np.linalg.norm(br) ** 2 for br in branches))
        if p <= OUTCOME_PROB_FLOOR:
            dropped += 1
            continue
        vecs = [br.reshape(-1) for br in branches]
        principal = max(vecs, key=lambda v: np.linalg.norm(v))
        pn2 = float(np.linalg.norm(principal) ** 2)
        pure = all(
            abs(np.vdot(principal, v)) ** 2 >= (1.0 - 1e-10) * pn2 * np.linalg.norm(v) ** 2
            for v in vecs)
        if pure:
            da, db = branches[0].shape
            members.append(schmidt_decompose(principal.reshape(da, db)))
        else:
            d = vecs[0].size
            rho = np.zeros((d, d), dtype=complex)
            for v in vecs:
                rho += np.outer(v, v.conj())
            members.append(BipartiteState(inst.dim_a, inst.dim_b, rho / p))
        weights.append(p)
    if dropped:
        logger.info("dropped %d probability-zero outcomes", dropped)
    w = np.asarray(weights)
    return Ensemble(w / np.sum(w), tuple(members))


@dataclass(frozen=True)
class MajorizationReport:
    """Suffix-sum margins of an instrument outcome ensemble against its input."""

    margins: np.ndarray
    r_norm: float
    passed: bool


def majorization_condition_check(psi: PureBipartite, ensemble: Ensemble,
                                 r_norm: float = 1.0,
                                 atol: float = MARGIN_ATOL) -> MajorizationReport:
    """Margins tail_sum(psi_A, N) * r_norm - sum_x p(x) tail_sum(phi_x_A, N).

    All members must be pure.  N runs from 0 (exactly zero margin for a
    channel) up to the largest marginal dimension; the check passes iff no
    margin is below -atol.
    """
    if not ensemble.all_pure():
        raise InvariantViolation("majorization margins need pure ensemble members")
    n_max = max(psi.dim_a, ensemble.dim_a)
    lhs = spectrum_tail_sums(psi.schmidt, n_max) * r_norm
    margins = lhs - _weighted_tail_sums(
        ensemble.weights, [member.schmidt for member in ensemble.members], n_max)
    return MajorizationReport(margins, r_norm, bool(np.min(margins) >= -atol))


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
    lhs = spectrum_tail_sums(rho_spectrum, n_max)
    min_tail_margin = float(np.min(lhs - _weighted_tail_sums(w, members, n_max)))
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
    ens = apply_instrument(inst, psi)
    if not ens.all_pure():
        raise InvariantViolation("monotonicity check needs pure outcome states")
    avg = float(np.sum(ens.weights * np.array(
        [von_neumann_entropy(m.schmidt) for m in ens.members])))
    return von_neumann_entropy(psi.schmidt) >= avg - atol


def _inverse_sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.clip(w, 1e-300, None)
    return (v / np.sqrt(w)) @ v.conj().T


def _random_local_instrument(rng: np.random.Generator, dim: int,
                             branches: int) -> list[np.ndarray]:
    gs = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
          for _ in range(branches)]
    total = sum(g.conj().T @ g for g in gs)
    corr = _inverse_sqrt_psd(total)
    return [g @ corr for g in gs]


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
    ls_local = _random_local_instrument(rng, dim_a, branches_a)
    ls, ms = [], []
    if conditioned:
        for l in ls_local:
            for m in _random_local_instrument(rng, dim_b, branches_b):
                ls.append(l)
                ms.append(m)
    else:
        ms_local = _random_local_instrument(rng, dim_b, branches_b)
        for l in ls_local:
            for m in ms_local:
                ls.append(l)
                ms.append(m)
    return ProductKrausInstrument(tuple(ls), tuple(ms), tuple(range(len(ls))))


@dataclass(frozen=True)
class SweepReport:
    """Aggregate of a randomized instrument sweep."""

    trials: int
    failures: int
    min_margin: float
    max_completeness_defect: float
    seed: int


def _majorization_trial(seed: int, trial: int, max_dim: int) -> tuple[float, float]:
    rng = stream(seed, trial)
    da = int(rng.integers(2, max_dim + 1))
    db = int(rng.integers(2, max_dim + 1))
    psi = random_pure_state(rng, da, db)
    inst = random_product_instrument(
        rng, da, db,
        branches_a=int(rng.integers(2, 4)),
        branches_b=int(rng.integers(2, 4)),
        conditioned=bool(rng.integers(0, 2)))
    ens = apply_instrument(inst, psi)
    report = majorization_condition_check(psi, ens)
    return float(np.min(report.margins)), inst.completeness_defect


def majorization_sweep(trials: int, max_dim: int, seed: int,
                       threads: int = 1) -> SweepReport:
    """Randomized check of the outcome-ensemble suffix-sum condition.

    Each trial draws its own stream from (seed, trial) and the trials run in
    order.  ``threads`` is accepted for compatibility and no longer used: a
    thread pool measured 2-3x slower than this serial loop.
    """
    if trials < 1 or max_dim < 2:
        raise ValueError("need trials >= 1 and max_dim >= 2")
    results = [_majorization_trial(seed, t, max_dim) for t in range(trials)]
    margins = np.array([r[0] for r in results])
    defects = np.array([r[1] for r in results])
    failures = int(np.sum(margins < -MARGIN_ATOL))
    return SweepReport(trials, failures, float(np.min(margins)),
                       float(np.max(defects)), seed)
