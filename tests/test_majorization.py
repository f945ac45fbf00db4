"""Suffix-sum dominance under product-Kraus instruments."""

import numpy as np
import pytest

from entcost import (
    InvariantViolation,
    ProductKrausInstrument,
    Spectrum,
    apply_instrument,
    completeness_operator,
    entropy_monotonicity_check,
    majorization_condition_check,
    majorization_sweep,
    random_product_instrument,
    random_pure_state,
    schmidt_decompose,
    schur_horn_check,
    spectrum_tail_sums,
    stream,
    tail_dominance_entropy_check,
    tail_sum_operator_inequality,
)


def _ebit():
    return schmidt_decompose(np.eye(2) / np.sqrt(2.0))


def test_instrument_completeness_defect():
    # a projective measurement on A tensored with identity on B is complete
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    eye = np.eye(2)
    inst = ProductKrausInstrument((p0, p1), (eye, eye), (0, 1))
    assert inst.completeness_defect < 1e-14
    assert inst.is_channel()
    norm = completeness_operator(inst).operator_norm
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_incomplete_instrument_detected():
    half = np.eye(2) / 2.0
    inst = ProductKrausInstrument((half,), (np.eye(2),), (0,))
    assert not inst.is_channel()
    with pytest.raises(InvariantViolation):
        apply_instrument(inst, _ebit())


def test_spectrum_tail_sums_padding():
    s = Spectrum(np.array([0.7, 0.3]))
    got = spectrum_tail_sums(s, 4)
    assert np.allclose(got, [1.0, 0.3, 0.0, 0.0, 0.0], atol=1e-15)


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
