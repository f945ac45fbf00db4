"""Formation-cost estimation by annealed decomposition search."""

import numpy as np
import pytest

from entcost import (
    BipartiteState,
    Ensemble,
    InvariantViolation,
    Spectrum,
    dilution_rate_upper_bound,
    ensemble_average,
    eof_estimate,
    eof_pure,
    eof_surrogate_for_copies,
    partial_trace,
    random_density_state,
    random_pure_state,
    regularized_probe,
    schmidt_decompose,
    state_trace_distance,
    stream,
    von_neumann_entropy,
    wootters_eof,
)
from entcost.eof import _DecompositionSearch


def _marginal_entropy(rho, keep):
    eig = np.clip(np.linalg.eigvalsh(partial_trace(rho, keep)), 0.0, None)
    return von_neumann_entropy(Spectrum.from_unsorted(eig))


def test_eof_pure_is_schmidt_entropy():
    rng = stream(31, 0)
    for t in range(20):
        psi = random_pure_state(rng, int(rng.integers(2, 5)),
                                int(rng.integers(2, 5)))
        assert eof_pure(psi) == pytest.approx(
            von_neumann_entropy(psi.schmidt), abs=1e-12)


def test_estimate_on_pure_density_uses_exact_path():
    rng = stream(31, 1)
    for t in range(10):
        psi = random_pure_state(rng, 3, 3)
        est = eof_estimate(psi.to_density(), seed=t)
        assert est.upper_bound_bits == pytest.approx(eof_pure(psi), abs=1e-6)
        assert est.converged


def test_ebit_estimate_is_one():
    bell = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    est = eof_estimate(bell.to_density(), restarts=2, iterations=500, seed=0)
    assert est.upper_bound_bits == pytest.approx(1.0, abs=1e-6)


def test_separable_diagonal_mixture_is_zero():
    # a classically correlated mixture of |00> and |11>: formation cost 0,
    # and the spectral decomposition itself is the certificate
    rho = BipartiteState(2, 2, np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex))
    est = eof_estimate(rho, restarts=2, iterations=500, seed=0)
    assert est.upper_bound_bits <= 1e-6


def test_two_qubit_estimates_track_closed_form():
    rng = stream(31, 2)
    for t in range(5):
        rho = random_density_state(rng, 2, 2)
        want = wootters_eof(rho)
        est = eof_estimate(rho, restarts=4, iterations=1500, seed=t)
        # the search returns an upper bound; on two qubits it should land
        # close to the exact convex roof
        assert est.upper_bound_bits >= want - 1e-9
        assert est.upper_bound_bits <= want + 0.01


def test_decomposition_reconstructs_state():
    rng = stream(31, 3)
    rho = random_density_state(rng, 2, 3)
    est = eof_estimate(rho, restarts=2, iterations=800, seed=1)
    avg = ensemble_average(est.decomposition)
    assert state_trace_distance(avg, rho) < 1e-8


def test_bound_never_exceeds_marginal_entropies():
    rng = stream(31, 4)
    for t in range(6):
        rho = random_density_state(rng, 2, 2)
        est = eof_estimate(rho, restarts=2, iterations=600, seed=t)
        # the A-marginal entropy alone bounds the formation cost
        eig = np.clip(np.linalg.eigvalsh(partial_trace(rho, "A")), 0.0, None)
        sa = float(-np.sum(eig[eig > 0] * np.log2(eig[eig > 0])))
        assert est.upper_bound_bits <= sa + 1e-8


def test_regularized_probe_never_increases():
    rng = stream(31, 5)
    rho = random_density_state(rng, 2, 2)
    bounds = regularized_probe(rho, n_max=2, restarts=2, iterations=500,
                               seed=2)
    assert len(bounds) == 2
    assert bounds[1] <= bounds[0] + 1e-9


def test_surrogate_pure_is_exactly_additive():
    psi = schmidt_decompose(np.diag([np.sqrt(0.7), np.sqrt(0.3)]))
    val, kind = eof_surrogate_for_copies(psi.to_density(), 5)
    assert kind == "pure-exact"
    assert val == pytest.approx(5.0 * eof_pure(psi), abs=1e-9)


def test_surrogate_pure_takes_one_eigendecomposition(monkeypatch):
    rho = schmidt_decompose(np.diag([np.sqrt(0.7), np.sqrt(0.3)])).to_density()
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(m, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    _, kind = eof_surrogate_for_copies(rho, 3)
    assert (kind, calls) == ("pure-exact", ["eigh"])


def test_surrogate_mixed_scales_single_copy():
    rng = stream(31, 6)
    rho = random_density_state(rng, 2, 2)
    one, _ = eof_surrogate_for_copies(rho, 1, restarts=2, iterations=500,
                                      seed=3)
    three, kind = eof_surrogate_for_copies(rho, 3, restarts=2, iterations=500,
                                           seed=3)
    assert kind == "estimate-upper"
    assert three <= 3.0 * one + 1e-9


def test_dilution_rate_upper_bound_mean_entropy():
    m1 = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    m2 = schmidt_decompose(np.diag([1.0, 0.0]))
    ens = Ensemble(np.array([0.25, 0.75]), (m1, m2))
    assert dilution_rate_upper_bound(ens) == pytest.approx(0.25, abs=1e-12)


def _member_entropy(c: np.ndarray) -> float:
    search = _DecompositionSearch(c.shape[0], c.shape[1], 2)
    return search.parts([c.reshape(-1).tolist()])[0] / float(np.sum(np.abs(c) ** 2))


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (2, 5), (3, 3), (4, 4)])
def test_member_entropy_matches_schmidt_oracle(shape):
    # the closed form (a 2-dimensional factor) and the Gram eigenvalues
    # (otherwise) against the SVD entropy of the normalized member
    rng = stream(31, 7)
    da, db = shape
    k = min(da, db)
    cases = []
    for t in range(40):
        cases.append(rng.uniform(0.01, 3.0) * (rng.standard_normal(shape)
                                                + 1j * rng.standard_normal(shape)))
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for eps in (1e-9, 1e-12, 0.0):
        a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        cases.append(np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b)) + eps * noise)
        g = rng.standard_normal((max(da, db),) * 2) + 1j * rng.standard_normal((max(da, db),) * 2)
        rows = np.linalg.qr(g)[0][:k] / np.sqrt(k)  # orthonormal rows: maximally entangled
        cases.append((rows if da <= db else rows.T) + eps * noise)
    for c in cases:
        want = von_neumann_entropy(schmidt_decompose(c / np.linalg.norm(c)).schmidt)
        assert abs(_member_entropy(c) - want) <= 1e-12
    if k == 2:
        # a near-product member with |det| = 1e-9 keeps its tiny positive entropy
        near = np.zeros(shape, dtype=complex)
        near[0, 0], near[1, 1] = 1.0, 1e-9
        assert 0.0 < _member_entropy(near) <= 1e-15


def test_three_by_three_rank_three_estimate():
    rng = stream(31, 8)
    rho = random_density_state(rng, 3, 3, rank=3)
    est = eof_estimate(rho, restarts=2, iterations=800, seed=4)
    assert state_trace_distance(ensemble_average(est.decomposition), rho) < 1e-8
    s_a, s_b = _marginal_entropy(rho, "A"), _marginal_entropy(rho, "B")
    s_ab = von_neumann_entropy(rho.spectrum())
    hashing = max(0.0, s_b - s_ab, s_a - s_ab)
    assert hashing - 1e-9 <= est.upper_bound_bits <= min(s_a, s_b) + 1e-8


def test_wootters_matches_pure_states_and_anchors():
    rng = stream(31, 9)
    for t in range(10):
        psi = random_pure_state(rng, 2, 2)
        assert wootters_eof(psi.to_density()) == pytest.approx(eof_pure(psi), abs=1e-12)
    bell = schmidt_decompose(np.eye(2) / np.sqrt(2.0))
    assert wootters_eof(bell.to_density()) == pytest.approx(1.0, abs=1e-12)
    sep = BipartiteState(2, 2, np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex))
    assert wootters_eof(sep) == 0.0
    with pytest.raises(InvariantViolation):
        wootters_eof(random_density_state(rng, 2, 3))
