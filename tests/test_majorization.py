"""Suffix-sum dominance under product-Kraus instruments."""

import hashlib
import math

import numpy as np
import pytest

from entcost import (
    InvariantViolation,
    ProductKrausInstrument,
    PureBipartite,
    Spectrum,
    apply_instrument,
    entropy_monotonicity_check,
    majorization_condition_check,
    majorization_sweep,
    random_product_instrument,
    random_pure_state,
    schmidt_decompose,
    schur_horn_check,
    stream,
    tail_dominance_entropy_check,
    tail_sum_operator_inequality,
    tail_sums,
)
from entcost import majorization
from entcost.majorization import (
    SweepReport,
    _completeness_matrix,
    _draw,
    _instrument_outcomes,
    _inverse_sqrt_psd,
    _outcome_spectra,
    _sweep_block,
    _sweep_trials,
)


def _ebit():
    return schmidt_decompose(np.eye(2) / np.sqrt(2.0))


def _trial_inputs(seed, trial, max_dim):
    """Pure state and instrument of one sweep trial, built by the public
    constructors from stream (seed, trial) in the sweep's documented order."""
    rng = stream(seed, trial)
    da = int(rng.integers(2, max_dim + 1))
    db = int(rng.integers(2, max_dim + 1))
    psi = random_pure_state(rng, da, db)
    return psi, random_product_instrument(
        rng, da, db,
        branches_a=int(rng.integers(2, 4)),
        branches_b=int(rng.integers(2, 4)),
        conditioned=bool(rng.integers(0, 2)))


def test_instrument_completeness_defect():
    # a projective measurement on A tensored with identity on B is complete
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    eye = np.eye(2)
    inst = ProductKrausInstrument((p0, p1), (eye, eye), (0, 1))
    assert inst.completeness_defect < 1e-14
    assert inst.is_channel()
    assert np.allclose(_completeness_matrix(inst.ls, inst.ms), np.eye(4), atol=1e-14)


def test_incomplete_instrument_detected():
    half = np.eye(2) / 2.0
    inst = ProductKrausInstrument((half,), (np.eye(2),), (0,))
    assert not inst.is_channel()
    with pytest.raises(InvariantViolation):
        apply_instrument(inst, _ebit())


def test_spectrum_tail_sums_padding():
    # past its length a spectrum's tail sums read its declared tail mass
    got = tail_sums(Spectrum(np.array([0.7, 0.3])), 5)
    assert np.allclose(got, [1.0, 0.3, 0.0, 0.0, 0.0], atol=1e-15)
    got = tail_sums(Spectrum(np.array([0.6, 0.3]), tail_mass=0.1), 5)
    assert np.allclose(got, [1.0, 0.4, 0.1, 0.1, 0.1], atol=1e-15)
    assert got[2:].tolist() == [0.1, 0.1, 0.1]


def test_projective_measurement_on_ebit():
    # measuring A of an ebit in the computational basis gives two product
    # states with probability one half each; suffix sums collapse
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    eye = np.eye(2)
    inst = ProductKrausInstrument((p0, p1), (eye, eye), (0, 1))
    ens = apply_instrument(inst, _ebit())
    assert np.allclose(np.sort(ens.weights), [0.5, 0.5], atol=1e-12)
    assert ens.all_pure()
    report = majorization_condition_check(_ebit(), ens)
    # margins: at N = 0 channels give exactly 0; at N = 1 the input keeps
    # 0.5 while the outcomes keep nothing
    assert report.passed
    assert report.margins[0] == pytest.approx(0.0, abs=1e-12)
    assert report.margins[1] == pytest.approx(0.5, abs=1e-12)


def test_margin_zero_at_n_zero_for_channels():
    rng = stream(21, 0)
    psi = random_pure_state(rng, 3, 3)
    inst = random_product_instrument(rng, 3, 3)
    ens = apply_instrument(inst, psi)
    report = majorization_condition_check(psi, ens)
    assert abs(report.margins[0]) < 1e-10


def test_schur_horn_diagonal_frame_equality():
    # with eigenvector rows the diagonal sums meet the eigenvalue sums
    rng = stream(21, 1)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    top = v[:, np.argsort(w)[::-1][:3]].T
    assert schur_horn_check(m, top)


def test_schur_horn_random_frames():
    rng = stream(21, 2)
    for t in range(50):
        d = int(rng.integers(2, 9))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (g + g.conj().T) / 2.0
        k = int(rng.integers(1, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, k))
                            + 1j * rng.standard_normal((d, k)))
        assert schur_horn_check(m, q.T)


def test_schur_horn_rejects_skew_frame():
    m = np.diag([2.0, 1.0])
    with pytest.raises(InvariantViolation):
        schur_horn_check(m, np.array([[1.0, 1.0]]))


def test_operator_inequality_random_sweep():
    rng = stream(21, 3)
    for t in range(60):
        d = int(rng.integers(2, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k = g @ g.conj().T
        for n_top in range(d + 1):
            assert tail_sum_operator_inequality(a, b, k, n_top)


def test_operator_inequality_edge_truncations():
    rng = stream(21, 4)
    d = 4
    a = rng.standard_normal((d, d))
    b = rng.standard_normal((d, d))
    g = rng.standard_normal((d, d))
    k = g @ g.T
    # n_top = 0: both sides equal the full trace (no truncation)
    assert tail_sum_operator_inequality(a, b, k, 0)
    # n_top >= rank: left side is zero, right side is zero
    assert tail_sum_operator_inequality(a, b, k, d)


def test_apply_instrument_probabilities_sum_to_one():
    rng = stream(21, 5)
    psi = random_pure_state(rng, 2, 4)
    inst = random_product_instrument(rng, 2, 4, branches_a=3, branches_b=2)
    ens = apply_instrument(inst, psi)
    assert float(np.sum(ens.weights)) == pytest.approx(1.0, abs=1e-10)
    assert ens.all_pure()


def test_coarse_grained_outcomes_can_be_mixed():
    rng = stream(21, 6)
    psi = random_pure_state(rng, 2, 2)
    fine = random_product_instrument(rng, 2, 2)
    coarse = ProductKrausInstrument(fine.ls, fine.ms,
                                    tuple(0 for _ in fine.ls))
    ens = apply_instrument(coarse, psi)
    assert len(ens.members) == 1
    assert not ens.all_pure()
    with pytest.raises(InvariantViolation):
        entropy_monotonicity_check(psi, coarse)


def test_tail_dominance_entropy_conversion():
    rho = Spectrum(np.array([0.5, 0.5]))
    members = [Spectrum(np.array([1.0])), Spectrum(np.array([0.75, 0.25]))]
    res = tail_dominance_entropy_check(rho, [0.5, 0.5], members)
    assert res.conclusive and res.holds
    assert res.min_tail_margin >= 0.0
    assert res.entropy_margin > 0.0


def test_tail_dominance_inconclusive_not_failure():
    # members majorize the mixture here, so the precondition fails and the
    # check must report inconclusive rather than a violation
    rho = Spectrum(np.array([1.0]))
    members = [Spectrum(np.array([0.5, 0.5]))]
    res = tail_dominance_entropy_check(rho, [1.0], members)
    assert not res.conclusive
    assert res.min_tail_margin < 0.0


def test_entropy_monotonicity_random_instruments():
    rng = stream(21, 7)
    for t in range(40):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        psi = random_pure_state(rng, da, db)
        inst = random_product_instrument(rng, da, db)
        assert entropy_monotonicity_check(psi, inst)


def test_sweep_zero_failures_and_thread_invariance():
    r1 = majorization_sweep(60, max_dim=4, seed=13, threads=1)
    r4 = majorization_sweep(60, max_dim=4, seed=13, threads=4)
    assert r1.failures == 0
    assert r1 == r4
    assert r1.min_margin >= -1e-10
    assert r1.max_completeness_defect < 1e-10


def test_sweep_report_ignores_threads():
    reports = [majorization_sweep(12, max_dim=3, seed=5, threads=t) for t in (1, 2, 4)]
    assert reports[0] == reports[1] == reports[2]


def _reference_outcomes(inst, psi):
    """Per-branch loop: (weight, Schmidt spectrum or None, density or None)."""
    by_outcome = {}
    for l, m, x in zip(inst.ls, inst.ms, inst.outcomes):
        by_outcome.setdefault(x, []).append(l @ psi.amplitudes @ m.T)
    out = []
    for x in sorted(by_outcome):
        branches = by_outcome[x]
        p = sum(np.linalg.norm(br) ** 2 for br in branches)
        if p <= 1e-15:
            continue
        vecs = [br.reshape(-1) for br in branches]
        principal = max(vecs, key=np.linalg.norm)
        pn2 = np.linalg.norm(principal) ** 2
        if all(abs(np.vdot(principal, v)) ** 2
               >= (1.0 - 1e-10) * pn2 * np.linalg.norm(v) ** 2 for v in vecs):
            sv = np.linalg.svd(principal.reshape(branches[0].shape), compute_uv=False)
            out.append((p, sv ** 2 / np.sum(sv ** 2), None))
        else:
            out.append((p, None, sum(np.outer(v, v.conj()) for v in vecs) / p))
    total = sum(p for p, _, _ in out)
    return [(p / total, schmidt, rho) for p, schmidt, rho in out]


def _instruments_with_labels():
    rng = stream(21, 8)
    for t in range(12):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        psi = random_pure_state(rng, da, db)
        fine = random_product_instrument(
            rng, da, db, branches_a=int(rng.integers(2, 4)),
            branches_b=int(rng.integers(2, 4)), conditioned=bool(t % 2))
        k = len(fine.ls)
        yield psi, fine
        yield psi, ProductKrausInstrument(fine.ls, fine.ms, tuple(i // 2 for i in range(k)))
        yield psi, ProductKrausInstrument(fine.ls, fine.ms, tuple(i % 2 for i in range(k)))
    # two parallel branches share a label (a pure member), and a
    # probability-zero outcome is dropped
    p0, p1, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
    yield _ebit(), ProductKrausInstrument((0.6 * p0, 0.8 * p0, p1), (eye, eye, eye),
                                          ("x", "x", "y"))
    product = schmidt_decompose(np.array([[1.0, 0.0], [0.0, 0.0]]))
    yield product, ProductKrausInstrument((p0, p1), (eye, eye), (0, 1))


def _local_kraus(rng, k, r, d):
    """k complete Kraus operators of shape (r, d)."""
    g = rng.standard_normal((k, r, d)) + 1j * rng.standard_normal((k, r, d))
    return g @ _inverse_sqrt_psd(np.sum(g.conj().transpose(0, 2, 1) @ g, axis=0))


def _non_square_instruments():
    # Kraus operators of shape (r, d) with r != d: outcome states live on
    # (r_A, r_B), not on the input's (d_A, d_B)
    rng = stream(21, 10)
    for (ra, da), (rb, db) in [((3, 2), (2, 2)), ((2, 3), (4, 2)), ((1, 3), (2, 3))]:
        la, mb = _local_kraus(rng, 3, ra, da), _local_kraus(rng, 2, rb, db)
        inst = ProductKrausInstrument(np.repeat(la, 2, axis=0), np.tile(mb, (3, 1, 1)), ())
        yield random_pure_state(rng, da, db), inst


def _largest_branches(inst, psi):
    """Largest branch of each outcome above the probability floor, by a
    per-branch loop."""
    by_outcome = {}
    for l, m, x in zip(inst.ls, inst.ms, inst.outcomes):
        by_outcome.setdefault(x, []).append(l @ psi.amplitudes @ m.T)
    return [max(branches, key=np.linalg.norm) for _, branches in sorted(by_outcome.items())
            if sum(np.linalg.norm(br) ** 2 for br in branches) > 1e-15]


def test_outcome_spectra_match_schmidt_decompose():
    dropped = 0
    for psi, inst in [*_instruments_with_labels(), *_non_square_instruments()]:
        out = _instrument_outcomes(inst, psi)
        heads = _largest_branches(inst, psi)
        dropped += out.dropped
        spectra = _outcome_spectra(out.branches[out.tops], out.norms[out.tops])
        assert len(spectra) == len(heads)
        for row, head in zip(spectra, heads):
            want = schmidt_decompose(head).schmidt.values
            assert row.shape == want.shape
            assert np.max(np.abs(row - want)) <= 1e-14
    assert dropped == 1


def test_sweep_trial_margins_match_the_public_check():
    margins, defects = _sweep_trials(31, 100, 6)
    for t in range(100):
        psi, inst = _trial_inputs(31, t, 6)
        want = majorization_condition_check(psi, apply_instrument(inst, psi)).margins
        assert abs(margins[t] - float(np.min(want))) <= 1e-15
        assert defects[t] == inst.completeness_defect


def test_sweep_trials_do_not_depend_on_their_block(monkeypatch):
    # stacked with 299 other trials, stacked with 6, or run alone, a trial
    # gives the same bits
    margins, defects = _sweep_trials(7, 300, 5)
    alone = np.array([_sweep_block([_draw(7, t, 5)]) for t in range(300)])[:, :, 0].T
    monkeypatch.setattr(majorization, "_BLOCK", 7)
    small = _sweep_trials(7, 300, 5)
    for got in (alone, small):
        assert got[0].tobytes() == margins.tobytes()
        assert got[1].tobytes() == defects.tobytes()


def test_margins_subtract_row_order_sums_of_tail_sums():
    # bit for bit: each row's tail sums padded with its tail mass, weighted
    # and added in row order, taken from the left side's tail sums
    rng = stream(21, 12)
    lhs = Spectrum.from_unsorted(rng.dirichlet(np.ones(6)))
    rows = [np.sort(rng.dirichlet(np.ones(k)))[::-1] * 0.9 for k in (2, 5, 3)]
    tails = np.full(3, 0.1)
    weights = rng.dirichlet(np.ones(3))
    want = weights[0] * tail_sums(Spectrum(rows[0], 0.1), 7)
    for w, row in zip(weights[1:], rows[1:]):
        want = want + w * tail_sums(Spectrum(row, 0.1), 7)
    padded = np.zeros((3, 6))
    for x, row in enumerate(rows):
        padded[x, :len(row)] = row
    assert majorization._padded(rows, 6).tolist() == padded.tolist()
    got = majorization._margins(tail_sums(lhs, 7), weights, padded, tails)
    assert got.tolist() == (tail_sums(lhs, 7) - want).tolist()
    # a stack of trials gives each trial's margins, padding rows included
    stacked = majorization._margins(np.stack([tail_sums(lhs, 7)] * 2),
                                    np.stack([weights, np.append(weights[:2], 0.0)]),
                                    np.stack([padded, padded * [[1.0], [1.0], [0.0]]]))
    assert stacked[0].tolist() == majorization._margins(tail_sums(lhs, 7), weights,
                                                        padded).tolist()
    assert stacked[1].tolist() == majorization._margins(tail_sums(lhs, 7), weights[:2],
                                                        padded[:2]).tolist()


def test_every_margin_goes_through_one_routine(monkeypatch):
    calls = []
    margins = majorization._margins

    def counted(*args):
        calls.append(1)
        return margins(*args)

    monkeypatch.setattr(majorization, "_margins", counted)
    psi, inst = _trial_inputs(31, 0, 4)
    majorization_condition_check(psi, apply_instrument(inst, psi))
    _sweep_trials(31, 1, 4)
    tail_dominance_entropy_check(Spectrum(np.array([0.5, 0.5])), [1.0],
                                 [Spectrum(np.array([0.75, 0.25]))])
    assert len(calls) == 3


def test_sweep_and_monotonicity_build_no_state_per_outcome(monkeypatch):
    def refuse(*args):
        raise AssertionError("an outcome state was built")

    def refuse_object(self):
        raise AssertionError(f"the sweep built a {type(self).__name__}")

    monkeypatch.setattr(majorization, "schmidt_decompose", refuse)
    with monkeypatch.context() as m:
        m.setattr(PureBipartite, "__post_init__", refuse_object)
        m.setattr(ProductKrausInstrument, "__post_init__", refuse_object)
        assert majorization_sweep(40, max_dim=5, seed=17).failures == 0
    rng = stream(21, 11)
    for _ in range(20):
        psi = random_pure_state(rng, 3, 4)
        assert entropy_monotonicity_check(psi, random_product_instrument(rng, 3, 4))


def test_sweep_worst_trial_is_the_argmin_of_trial_margins():
    margins = _sweep_trials(13, 60, 4)[0]
    reports = [majorization_sweep(60, max_dim=4, seed=13, threads=t) for t in (1, 2, 4)]
    assert reports[0].worst_trial == int(np.argmin(margins))
    assert reports[0].min_margin == margins[reports[0].worst_trial]
    assert reports[0] == reports[1] == reports[2]


def test_apply_instrument_matches_per_branch_loop():
    kinds = set()
    for psi, inst in [*_instruments_with_labels(), *_non_square_instruments()]:
        ens = apply_instrument(inst, psi)
        want = _reference_outcomes(inst, psi)
        assert len(ens.members) == len(want)
        for w, member, (p, schmidt, rho) in zip(ens.weights, ens.members, want):
            assert abs(w - p) <= 1e-15
            if schmidt is None:
                kinds.add("mixed")
                assert np.max(np.abs(member.matrix - rho)) <= 1e-14
            else:
                kinds.add("pure")
                got = member.schmidt.values
                assert got.shape == schmidt.shape
                assert np.max(np.abs(got - schmidt)) <= 1e-14
    assert kinds == {"pure", "mixed"}


# reports of the trial-by-trial sweep that built PureBipartite and
# ProductKrausInstrument objects, as its repr printed them
_PINNED_SWEEPS = [
    ((150, 6, 0), SweepReport(150, 0, -2.220446049250313e-16, 6, 1.0165578427199217e-14, 0)),
    ((150, 6, 1), SweepReport(150, 0, -2.220446049250313e-16, 11, 7.69768170942078e-15, 1)),
    ((150, 6, 2), SweepReport(150, 0, -3.3306690738754696e-16, 46, 8.162511978930087e-15, 2)),
    ((150, 6, 3), SweepReport(150, 0, -3.3306690738754696e-16, 47, 8.246540113688484e-15, 3)),
    ((150, 6, 4), SweepReport(150, 0, -3.3306690738754696e-16, 43, 1.0503911246976751e-14, 4)),
    ((1000, 6, 2026),
     SweepReport(1000, 0, -4.440892098500626e-16, 535, 1.459172692089204e-14, 2026)),
]


@pytest.mark.parametrize("args, want", _PINNED_SWEEPS)
def test_sweep_reports_are_pinned_bit_for_bit(args, want):
    assert majorization_sweep(*args) == want


def test_sweep_trial_count_is_bounded_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(majorization, "_draw", refuse)
    for trials in (0, majorization.MAX_TRIALS + 1, 2 ** 50):
        with pytest.raises(ValueError):
            majorization_sweep(trials, max_dim=3, seed=0)
    with pytest.raises(ValueError):
        majorization_sweep(1, max_dim=1, seed=0)


def test_sweep_dimension_is_bounded_before_any_draw(monkeypatch):
    # max_dim = 10**6 would ask for hundreds of GiB; it must never be drawn
    assert majorization_sweep(2, max_dim=majorization.MAX_DIM, seed=0).failures == 0

    def refuse(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(majorization, "stream", refuse)
    for max_dim in (1, majorization.MAX_DIM + 1, 10 ** 6):
        with pytest.raises(ValueError, match="max_dim"):
            majorization_sweep(1, max_dim=max_dim, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_kraus_operators_are_invariant_violations(bad):
    # a NaN or inf entry used to warn in the completeness sum and then fail
    # the eigensolve with LinAlgError
    p0, p1, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
    broken = np.array(p1, dtype=complex)
    broken[0, 1] = bad
    with pytest.raises(InvariantViolation, match="finite"):
        ProductKrausInstrument((p0, broken), (eye, eye), (0, 1))
    with pytest.raises(InvariantViolation, match="finite"):
        ProductKrausInstrument((p0, p1), (eye, broken), (0, 1))


@pytest.mark.parametrize("branches", [(0, 2), (2, 0), (4, 2), (2, 4)])
def test_random_instrument_branches_lie_on_the_grid(branches):
    with pytest.raises(ValueError, match="branch counts"):
        random_product_instrument(stream(21, 13), 2, 2, *branches)


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [1.0, math.nan], [math.nan, math.nan]])
def test_tail_dominance_rejects_nan_weights(weights):
    # [nan, 1.0] passed both weight checks and gave a conclusive False with
    # NaN margins
    members = [Spectrum(np.array([1.0])), Spectrum(np.array([0.75, 0.25]))]
    with pytest.raises(InvariantViolation):
        tail_dominance_entropy_check(Spectrum(np.array([0.5, 0.5])), weights, members)


def test_completeness_matrix_matches_kron_sum():
    rng = stream(21, 9)
    for shape_a, shape_b in [((2, 2), (3, 3)), ((3, 2), (1, 4)), ((2, 4), (3, 2))]:
        k = int(rng.integers(1, 6))
        ls = rng.standard_normal((k, *shape_a)) + 1j * rng.standard_normal((k, *shape_a))
        ms = rng.standard_normal((k, *shape_b)) + 1j * rng.standard_normal((k, *shape_b))
        acc = sum(np.kron(l.conj().T @ l, m.conj().T @ m) for l, m in zip(ls, ms))
        want = (acc + acc.conj().T) / 2.0
        got = _completeness_matrix(ls, ms)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("ls, ms", [
    ((np.eye(2), np.eye(3)), (np.eye(2), np.eye(2))),
    ((np.eye(2), np.ones((1, 2))), (np.eye(2), np.eye(2))),
    ((np.eye(2), np.eye(2)), (np.eye(2), np.ones((2, 3)))),
    ((np.eye(2), np.eye(2)), (np.eye(2),)),
    ((np.ones(2),), (np.eye(2),)),
    ((), ()),
])
def test_ragged_kraus_shapes_are_invariant_violations(ls, ms):
    with pytest.raises(InvariantViolation):
        ProductKrausInstrument(ls, ms, ())


def test_instrument_stacks_are_read_only_copies():
    ls = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    inst = ProductKrausInstrument(ls, (np.eye(2), np.eye(2)), (0, 1))
    assert inst.ls.shape == (2, 2, 2) and inst.ms.shape == (2, 2, 2)
    assert not inst.ls.flags.writeable and not inst.ms.flags.writeable
    assert ls.flags.writeable


def _one_trial_digests(monkeypatch):
    """SHA-256 digests of apply_instrument results, entropy_monotonicity_check
    results (with the weighted outcome entropy each one compares) and the
    Kraus stacks of the instruments, over every labelled and non-square case."""
    seen = []

    class Recorded(float):
        def __ge__(self, other):
            seen.append(other)
            return float(self) >= other

    entropy = majorization.von_neumann_entropy
    monkeypatch.setattr(majorization, "von_neumann_entropy",
                        lambda spectrum: Recorded(entropy(spectrum)))
    ensembles, checks, instruments = (hashlib.sha256() for _ in range(3))
    for psi, inst in [*_instruments_with_labels(), *_non_square_instruments()]:
        ens = apply_instrument(inst, psi)
        ensembles.update(ens.weights.tobytes())
        for member in ens.members:
            if isinstance(member, PureBipartite):
                ensembles.update(member.amplitudes.tobytes() + member.schmidt.values.tobytes())
            else:
                ensembles.update(member.matrix.tobytes())
        try:
            checks.update(repr(entropy_monotonicity_check(psi, inst)).encode())
            checks.update(seen.pop().hex().encode())
        except InvariantViolation:
            checks.update(b"mixed")
        instruments.update(inst.ls.tobytes() + inst.ms.tobytes()
                           + inst.completeness_defect.hex().encode())
    return ensembles.hexdigest(), checks.hexdigest(), instruments.hexdigest()


def test_one_trial_results_are_pinned_bit_for_bit(monkeypatch):
    # digests taken from the stacked-kernel one-trial path, before the
    # one-trial kernel lost its trial axis
    assert _one_trial_digests(monkeypatch) == (
        "336345a4bf204f72f4eeecf99585433ceeacf1478ae598a33acca271c204140b",
        "ef03c488bf00e11b9805275375bfbc545ef3695841997f5252b2dffcb86e46ee",
        "6cf98c2b71906352de3e9753993c6c8bc316f3a11db5316b5ded1bae0e35a4e0")
