"""State containers: ordering, normalization, Schmidt data, partial traces."""

import math

import numpy as np
import pytest

from entcost import (
    BipartiteState,
    Ensemble,
    InvariantViolation,
    PureBipartite,
    Spectrum,
    ensemble_average,
    partial_trace,
    random_density_state,
    random_pure_state,
    schmidt_decompose,
    stream,
    tensor_state,
    trace_distance,
)


def test_spectrum_sorted_and_normalized():
    s = Spectrum(np.array([0.5, 0.3, 0.2]))
    assert np.all(np.diff(s.values) <= 0.0)
    assert s.total_mass == pytest.approx(1.0, abs=1e-15)
    assert len(s) == 3


def test_spectrum_rejects_increasing_order():
    with pytest.raises(InvariantViolation):
        Spectrum(np.array([0.2, 0.8]))


def test_spectrum_rejects_bad_total():
    with pytest.raises(InvariantViolation):
        Spectrum(np.array([0.6, 0.3]))


@pytest.mark.parametrize("values, tail", [([math.nan], 0.0), ([1.0, math.nan], 0.0),
                                          ([math.inf, 0.0], 0.0), ([0.5, 0.5], math.nan),
                                          ([0.5], math.inf)])
def test_spectrum_rejects_non_finite(values, tail):
    with pytest.raises(InvariantViolation):
        Spectrum(np.array(values), tail)


def test_spectrum_from_unsorted_and_stripped():
    s = Spectrum.from_unsorted(np.array([0.2, 0.8, 0.0]))
    assert s.values[0] == pytest.approx(0.8)
    assert len(s.stripped()) == 2


def test_spectrum_tail_mass_counts_toward_total():
    s = Spectrum(np.array([0.6, 0.3]), tail_mass=0.1)
    assert s.total_mass == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvariantViolation):
        Spectrum(np.array([0.6, 0.3]), tail_mass=-0.1)


def test_pure_state_schmidt_matches_svd():
    rng = stream(7, 0)
    psi = random_pure_state(rng, 3, 4)
    sv = np.linalg.svd(psi.amplitudes, compute_uv=False)
    assert np.allclose(psi.schmidt.values, sv**2, atol=1e-12)


def test_pure_state_marginals_share_spectrum():
    rng = stream(7, 1)
    psi = random_pure_state(rng, 3, 5)
    ea = np.sort(np.linalg.eigvalsh(psi.marginal_a()))[::-1]
    eb = np.sort(np.linalg.eigvalsh(psi.marginal_b()))[::-1]
    assert np.allclose(ea[:3], eb[:3], atol=1e-12)
    assert np.allclose(eb[3:], 0.0, atol=1e-12)


def test_pure_to_density_round_trip():
    rng = stream(7, 2)
    psi = random_pure_state(rng, 2, 3)
    rho = psi.to_density()
    assert rho.dim_a == 2 and rho.dim_b == 3
    vec = psi.vector()
    assert np.allclose(rho.matrix, np.outer(vec, vec.conj()), atol=1e-12)


def test_schmidt_decompose_normalizes():
    psi = schmidt_decompose(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(psi.schmidt.values, [0.5, 0.5], atol=1e-12)


def test_partial_trace_consistency():
    rng = stream(7, 3)
    rho = random_density_state(rng, 3, 2)
    ra = partial_trace(rho, "A")
    rb = partial_trace(rho, "B")
    assert np.trace(ra).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rb).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ra, ra.conj().T, atol=1e-12)


def test_density_state_symmetrized_and_unit_trace():
    rng = stream(7, 4)
    rho = random_density_state(rng, 2, 2)
    assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
    eig = np.linalg.eigvalsh(rho.matrix)
    assert eig.min() >= -1e-12
    assert rho.spectrum().total_mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_density_state_rejects_non_finite_entries(bad):
    # an infinite entry reached eigvalsh and warned "invalid value"
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 3] = m[3, 0] = bad
    with pytest.raises(InvariantViolation):
        BipartiteState(2, 2, m)


def test_trace_distance_basic():
    x = np.diag([1.0, 0.0])
    y = np.diag([0.0, 1.0])
    assert trace_distance(x, y) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(x, x) == pytest.approx(0.0, abs=1e-15)


def test_state_trace_distance_symmetry():
    rng = stream(7, 5)
    a = random_density_state(rng, 2, 2)
    b = random_density_state(rng, 2, 2)
    d = trace_distance(a.matrix, b.matrix)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(trace_distance(b.matrix, a.matrix), abs=1e-14)


def test_ensemble_weights_must_normalize():
    rng = stream(7, 6)
    m = random_pure_state(rng, 2, 2)
    with pytest.raises(InvariantViolation):
        Ensemble(np.array([0.5, 0.4]), (m, m))


def test_ensemble_rejects_nan_weight():
    # a NaN weight passed both the sign and the sum check
    m = random_pure_state(stream(7, 6), 2, 2)
    with pytest.raises(InvariantViolation):
        Ensemble(np.array([1.0, math.nan]), (m, m))


def test_ensemble_average_reconstructs_mixture():
    rng = stream(7, 8)
    m1 = random_pure_state(rng, 2, 2)
    m2 = random_pure_state(rng, 2, 2)
    ens = Ensemble(np.array([0.25, 0.75]), (m1, m2))
    avg = ensemble_average(ens)
    direct = (0.25 * m1.to_density().matrix + 0.75 * m2.to_density().matrix)
    assert np.allclose(avg.matrix, direct, atol=1e-12)
    assert ens.all_pure()


def test_tensor_state_spectrum_is_kronecker():
    rng = stream(7, 9)
    rho = random_density_state(rng, 2, 2)
    two = tensor_state(rho, rho)
    assert (two.dim_a, two.dim_b) == (4, 4)
    got = np.sort(two.spectrum().values)[::-1]
    single = rho.spectrum().values
    want = np.sort(np.outer(single, single).reshape(-1))[::-1]
    assert np.allclose(got, want, atol=1e-10)


def test_tensor_power_marginal_factorizes():
    rng = stream(7, 10)
    rho = random_density_state(rng, 2, 2)
    three = tensor_state(tensor_state(rho, rho), rho)
    ra = partial_trace(rho, "A")
    ra3 = partial_trace(three, "A")
    assert np.allclose(ra3, np.kron(np.kron(ra, ra), ra), atol=1e-10)


def test_pure_norm_enforced():
    with pytest.raises(InvariantViolation):
        PureBipartite(np.array([[1.0, 0.0], [0.0, 1.0]]))
    # a NaN norm passed the check and the SVD raised LinAlgError
    with pytest.raises(InvariantViolation):
        PureBipartite(np.full((2, 2), np.nan))


def test_pure_bipartite_copies_its_input():
    amplitudes = np.eye(2, dtype=complex) / np.sqrt(2.0)
    psi = PureBipartite(amplitudes)
    amplitudes[0, 0] = 1.0
    assert psi.amplitudes[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert not psi.amplitudes.flags.writeable


def test_schmidt_decompose_takes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    c = np.array([[3.0, 1.0j, 0.0], [0.5, 2.0, 1.0]])
    psi = schmidt_decompose(c)
    assert calls == [(2, 3)]
    sv = svd(c / np.linalg.norm(c), compute_uv=False)
    assert np.allclose(psi.schmidt.values, sv ** 2, atol=1e-15)
