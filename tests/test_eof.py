"""Formation-cost estimation: Wootters' decomposition on two qubits, annealed search elsewhere."""

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from entcost import (
    BipartiteState,
    InvariantViolation,
    Spectrum,
    ensemble_average,
    eof_estimate,
    eof_pure,
    eof_surrogate_for_copies,
    partial_trace,
    random_density_state,
    random_pure_state,
    regularized_probe,
    schmidt_decompose,
    stream,
    tensor_state,
    trace_distance,
    von_neumann_entropy,
    wootters_eof,
)
from entcost import eof
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


def test_restarts_outside_the_limit_are_rejected_before_any_search(monkeypatch):
    rho = BipartiteState(2, 2, np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex))
    assert eof_estimate(rho, restarts=0, iterations=20).restarts == 0

    def refuse(*args):
        raise AssertionError("the state was decomposed")

    monkeypatch.setattr(eof, "_spectral_frame", refuse)
    for restarts in (-1, eof.MAX_RESTARTS + 1, 2 ** 50):
        with pytest.raises(ValueError, match="restarts"):
            eof_estimate(rho, restarts=restarts)


def test_iterations_and_ensemble_size_outside_the_limits_are_rejected_before_any_draw(
        monkeypatch):
    # iterations = -1 failed in NumPy ("negative dimensions are not
    # allowed"), and a few times 10^7 built a multi-GB move table; the
    # oversized values never reach a draw here, so none of them runs; the
    # state is 2 x 3, since two qubits with 4 or more slots draw nothing
    rho = BipartiteState(2, 3, np.diag([0.6, 0.0, 0.0, 0.0, 0.0, 0.4]).astype(complex))

    def refuse(*args):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(eof, "stream", refuse)
    for key, value in (("iterations", -1), ("iterations", eof.MAX_ITERATIONS + 1),
                       ("iterations", 3 * 10 ** 7), ("iterations", 2 ** 50),
                       ("ensemble_size", eof.MAX_ENSEMBLE_SIZE + 1),
                       ("ensemble_size", 2 ** 50)):
        with pytest.raises(ValueError, match=key):
            eof_estimate(rho, **{key: value})
    # the limits themselves pass the check and reach the first draw
    for key, value in (("iterations", eof.MAX_ITERATIONS),
                       ("ensemble_size", eof.MAX_ENSEMBLE_SIZE)):
        with pytest.raises(AssertionError, match="drawn"):
            eof_estimate(rho, **{key: value})
    assert eof.MAX_ENSEMBLE_SIZE == eof.MAX_RANK ** 2
    with pytest.raises(InvariantViolation, match="below the rank"):
        eof_estimate(rho, ensemble_size=1)


def test_separable_diagonal_mixture_is_zero():
    # a classically correlated mixture of |00> and |11>: formation cost 0,
    # and the spectral decomposition itself is the certificate
    rho = BipartiteState(2, 2, np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex))
    est = eof_estimate(rho, restarts=2, iterations=500, seed=0)
    assert est.upper_bound_bits <= 1e-6


def test_two_qubit_estimates_track_closed_form(anneals):
    # fewer than 4 slots keep the annealer on two qubits: rank-2 states with
    # 2 or 3 members, four restarts and the polish each
    rng = stream(31, 2)
    for t in range(5):
        rho = random_density_state(rng, 2, 2, rank=2)
        want = wootters_eof(rho)
        est = eof_estimate(rho, ensemble_size=2 + t % 2, restarts=4, iterations=1500,
                           seed=t)
        assert anneals[5 * t:] == [2 + t % 2] * 5
        # the search returns an upper bound; on two qubits it should land
        # close to the exact convex roof
        assert est.upper_bound_bits >= want - 1e-9
        assert est.upper_bound_bits <= want + 0.01


def _concurrence(rho):
    """max(0, l1 - l2 - l3 - l4), l the singular values of sqrt(rho) (Y x Y) conj(sqrt(rho))."""
    w, u = np.linalg.eigh(rho.matrix)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    lam = np.linalg.svd(root @ np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])) @ root.conj(),
                        compute_uv=False)
    return max(0.0, lam[0] - np.sum(lam[1:]))


def _two_qubit_cases():
    rng = stream(31, 16)
    for t in range(30):
        yield f"random rank {2 + t % 3}", random_density_state(rng, 2, 2, rank=2 + t % 3)
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
    for p in ([0.4, 0.2, 0.2, 0.2], [0.5, 0.5, 0.0, 0.0], [0.25] * 4, [0.6, 0.2, 0.2, 0.0],
              [0.3, 0.3, 0.2, 0.2], [0.7, 0.1, 0.1, 0.1]):
        g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        local = np.kron(*np.linalg.qr(g)[0])
        yield f"Bell-diagonal {p}", BipartiteState(
            2, 2, local @ (bells.T * p) @ bells @ local.conj().T)
    for t in range(6):
        v = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        prods = np.einsum("ka,kb->kab", v[:, 0], v[:, 1]).reshape(3, 4)
        m = np.einsum("k,ka,kb->ab", rng.dirichlet(np.ones(3)), prods, prods.conj())
        yield "separable rank 3", BipartiteState(2, 2, m)
    for p in (0.9, 0.2):
        yield f"Werner {p}", BipartiteState(2, 2, p * np.outer(bells[0], bells[0])
                                            + (1.0 - p) * np.eye(4) / 4.0)


def test_two_qubit_estimates_are_wootters_decomposition(anneals):
    # rank >= 2 and the default 2r >= 4 slots: every member has concurrence
    # C, so the bound is E(C), the exact convex roof, and nothing anneals
    for label, rho in _two_qubit_cases():
        est = eof_estimate(rho)
        assert abs(est.upper_bound_bits - wootters_eof(rho)) <= 1e-12, label
        assert (est.restarts, est.converged, anneals) == (0, True, []), label
        c = _concurrence(rho)
        for m in est.decomposition.members:
            assert abs(2.0 * abs(np.linalg.det(m.amplitudes)) - c) <= 1e-9, label
        avg = ensemble_average(est.decomposition)
        assert trace_distance(avg.matrix, rho.matrix) < 1e-9
    for t, (label, da, db, rank, bits, _, _) in enumerate(_PINNED[:2]):
        rho = _pinned_state(t, label, da, db, rank)
        assert abs(float.fromhex(bits) - wootters_eof(rho)) <= 1e-12, label


def test_wootters_phase_triangles_keep_their_sides_to_rounding():
    # with C = 0 the member phases close a quadrilateral of sides lam_k from
    # two triangles on one diagonal; flat and needle triangles, such as
    # (lam_3, 0, lam_3) on the separability boundary at rank 3, must keep
    # both sides to rounding, not to its square root
    rng = stream(31, 18)
    for p in rng.uniform(0.01, 1.0, 300):
        q = rng.uniform(0.0, p)
        for sides in ((p, 0.0, p), (p, q, p - q), (p, q, p + q), (p, p, rng.uniform(0.0, 1e-12)),
                      (p, q, rng.uniform(p - q, p + q))):
            a = eof._triangle(*sides)
            assert abs(abs(a) - sides[0]) <= 2e-15 and abs(abs(sides[2] - a) - sides[1]) <= 2e-15
            assert a.imag >= 0.0


def test_two_qubit_states_with_fewer_than_four_slots_anneal(anneals):
    rng = stream(31, 17)
    rank2, rank3 = (random_density_state(rng, 2, 2, rank=r) for r in (2, 3))
    eof_estimate(rank2, ensemble_size=4, restarts=1, iterations=50)
    assert anneals == []
    eof_estimate(rank2, ensemble_size=3, restarts=1, iterations=50)
    eof_estimate(rank3, ensemble_size=3, restarts=1, iterations=50)
    assert anneals == [3, 3, 3, 3]
    assert eof_estimate(rank3, ensemble_size=3, restarts=1, iterations=50).restarts == 1


def test_decomposition_reconstructs_state():
    rng = stream(31, 3)
    rho = random_density_state(rng, 2, 3)
    est = eof_estimate(rho, restarts=2, iterations=800, seed=1)
    avg = ensemble_average(est.decomposition)
    assert trace_distance(avg.matrix, rho.matrix) < 1e-8


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


@pytest.mark.parametrize("n", [2.5, 0, 2.0, 1.5])
def test_surrogate_needs_a_positive_integer_copy_count(n):
    # 2.5 copies returned a surrogate of 2.5 times the estimate, and the
    # probe took 1.5 copies as 2
    rho = random_density_state(stream(0, 0), 2, 2)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        eof_surrogate_for_copies(rho, n)
    with pytest.raises(ValueError, match=r"n_max must be an integer in \[1, 2\]"):
        regularized_probe(rho, n)


@pytest.mark.parametrize("n", [2, 3])
def test_surrogate_mixed_scales_single_copy(monkeypatch, n):
    # n copies take n times the one-copy estimate: no copy is ever tensored,
    # so no n-copy search runs
    rng = stream(31, 6)
    rho = random_density_state(rng, 2, 2)
    one, _ = eof_surrogate_for_copies(rho, 1, restarts=2, iterations=500,
                                      seed=3)

    def tensored(*args):
        raise AssertionError("tensor_state called")
    monkeypatch.setattr(eof, "tensor_state", tensored)
    many, kind = eof_surrogate_for_copies(rho, n, restarts=2, iterations=500,
                                          seed=3)
    assert kind == "estimate-upper"
    assert many == n * one


# (label, d_A, d_B, rank, upper_bound_bits.hex(), converged, digest): the
# two-qubit rows are Wootters' decomposition, within 1e-15 of wootters_eof;
# the next three anneal with the closed-form pair rule (a 2-dimensional
# factor), the last two with the Gram eigenvalues; the 4 x 4 state is the
# two-copy state regularized_probe searches.  A rewrite of the search that
# keeps every floating-point operation in order leaves all of them as they are.
_PINNED = [
    ("2x2-r2", 2, 2, 2, "0x1.83b544ccef1ffp-1", True, "4d1e791b9cd0a75e"),
    ("2x2-r3", 2, 2, 3, "0x1.e4a6cc39e6c80p-5", True, "db485865ee6ff83e"),
    ("2x3", 2, 3, None, "0x1.088fe6954029fp-5", False, "2ca404d6834f14e4"),
    ("3x2", 3, 2, None, "0x1.1e6893de9dc60p-3", True, "b95bed2745e6b6ea"),
    ("2x4", 2, 4, None, "0x1.9214e5f573330p-3", True, "80d4d1cc650676c8"),
    ("3x3-r3", 3, 3, 3, "0x1.3a1dfc2c171f6p-1", False, "d833a23fbafab72f"),
    ("4x4-two-copy", 2, 2, 2, "0x1.5565c3e48ed24p-1", False, "5b49fe0e27d238ae"),
]


def test_estimates_are_pinned_bit_for_bit():
    for t, (label, da, db, rank, bits, converged, digest) in enumerate(_PINNED):
        rho = random_density_state(stream(37, t), da, db, rank=rank)
        if label == "4x4-two-copy":
            rho = tensor_state(rho, rho)
        est = eof_estimate(rho, restarts=2, iterations=800, seed=t)
        h = hashlib.sha256(est.decomposition.weights.tobytes())
        for m in est.decomposition.members:
            h.update(m.amplitudes.tobytes())
        got = (est.upper_bound_bits.hex(), est.converged, h.hexdigest()[:16])
        assert got == (bits, converged, digest), label


def _pinned_state(t, label, da, db, rank):
    rho = random_density_state(stream(37, t), da, db, rank=rank)
    return tensor_state(rho, rho) if label == "4x4-two-copy" else rho


def _pinned_fields(est):
    h = hashlib.sha256(est.decomposition.weights.tobytes())
    for m in est.decomposition.members:
        h.update(m.amplitudes.tobytes())
    return est.upper_bound_bits.hex(), est.converged, h.hexdigest()[:16]


def test_a_repeat_estimate_is_the_pinned_one_and_runs_no_search(anneals):
    # the state keeps each estimate by its options: a repeat call on the
    # same object returns the pinned result without searching again, a
    # freshly built state searches again to the same bits, and other options
    # are their own entry (restarts=1 anneals twice, one restart and the
    # polish, and restarts=2 after it three more times); the two-qubit rows
    # take Wootters' decomposition and never anneal
    for t, (label, da, db, rank, bits, converged, digest) in enumerate(_PINNED):
        k = 0 if label.startswith("2x2") else 1
        rho = _pinned_state(t, label, da, db, rank)
        first = eof_estimate(rho, restarts=2, iterations=800, seed=t)
        assert (_pinned_fields(first), len(anneals)) == ((bits, converged, digest), 3 * k), label
        again = eof_estimate(rho, restarts=2, iterations=800, seed=t)
        assert again is first and len(anneals) == 3 * k, label

        fresh = _pinned_state(t, label, da, db, rank)
        one = eof_estimate(fresh, restarts=1, iterations=800, seed=t)
        assert len(anneals) == 5 * k, label
        two = eof_estimate(fresh, restarts=2, iterations=800, seed=t)
        assert (_pinned_fields(two), len(anneals)) == ((bits, converged, digest), 8 * k), label
        assert eof_estimate(fresh, restarts=1, iterations=800, seed=t) is one
        assert len(anneals) == 8 * k, label
        anneals.clear()


def test_limits_are_checked_on_every_call_after_an_estimate():
    rho = random_density_state(stream(31, 12), 2, 2, rank=2)
    est = eof_estimate(rho, restarts=1, iterations=50, seed=4)
    for key, value in (("restarts", -1), ("iterations", eof.MAX_ITERATIONS + 1),
                       ("ensemble_size", eof.MAX_ENSEMBLE_SIZE + 1)):
        with pytest.raises(ValueError, match=key):
            eof_estimate(rho, seed=4, **{"restarts": 1, "iterations": 50, key: value})
    assert eof_estimate(rho, restarts=1, iterations=50, seed=4) is est


def test_threads_sharing_a_state_all_get_the_kept_estimate():
    # threads racing on a first call may each anneal, but every caller gets
    # the one object the state keeps, equal to a fresh state's estimate
    rho = random_density_state(stream(31, 15), 2, 2, rank=2)
    options = {"restarts": 1, "iterations": 200, "seed": 6}
    want = eof_estimate(BipartiteState(2, 2, rho.matrix), **options)
    barrier, results = threading.Barrier(8), []

    def work():
        barrier.wait(timeout=10)
        results.append(eof_estimate(rho, **options))
    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    kept = eof_estimate(rho, **options)
    assert len(results) == 8 and all(r is kept for r in results)
    assert _pinned_fields(kept) == _pinned_fields(want)


def test_kept_estimates_are_not_part_of_the_state_value():
    rho = random_density_state(stream(31, 13), 2, 2, rank=2)
    before = repr(rho)
    eof_estimate(rho, restarts=1, iterations=50)
    assert repr(rho) == before
    assert [f.name for f in dataclasses.fields(BipartiteState)] == ["dim_a", "dim_b", "matrix"]
    # equality is the dataclass's field comparison, as before: an object
    # equals itself, and two states compare their arrays, whose truth value
    # is ambiguous
    assert rho == rho
    with pytest.raises(ValueError, match="ambiguous"):
        rho == BipartiteState(2, 2, rho.matrix)


def _member_entropy(c: np.ndarray) -> float:
    search = _DecompositionSearch(c.shape[0], c.shape[1], 2)
    return search.parts([c.reshape(-1).tolist()])[0] / float(np.sum(np.abs(c) ** 2))


def _squared_norm_in_order(vec) -> float:
    p = 0.0
    for z in vec:
        p += z.real * z.real + z.imag * z.imag
    return p


def test_pair_rule_is_the_rule_parts_uses():
    # each annealing step hands the pair rule two members and their squared
    # norms added in element order; parts() gives the starting values, and
    # the two must agree bit for bit, on both paths and at the edge cases
    rng = stream(31, 10)
    shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 4), (3, 4)]
    for t in range(200):
        da, db = shapes[t % len(shapes)]
        search = _DecompositionSearch(da, db, 2)
        pair = []
        for kind in (t // len(shapes) % 4, t // len(shapes) % 3):  # 0 and 3: random
            c = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
            if kind == 1:  # near product: |det| of the 2 x 2 minor is about 1e-9
                c = np.zeros((da, db), dtype=complex)
                c[0, 0], c[1, 1] = rng.uniform(0.5, 2.0), 1e-9 * rng.uniform(0.5, 2.0)
            elif kind == 2:  # an all-zero slot: the p <= 1e-14 branch
                c = np.zeros((da, db), dtype=complex)
            pair.append(c.reshape(-1).tolist())
        r1, r2 = pair
        got = search.pair(r1, _squared_norm_in_order(r1), r2, _squared_norm_in_order(r2))
        want = search.parts((r1, r2))
        assert [x.hex() for x in got] == [x.hex() for x in want]
        for r, x in zip(pair, got):
            if not any(r):
                assert x == 0.0
    assert _DecompositionSearch(2, 3, 2).pair.__name__ == "_closed_form_pair"
    assert _DecompositionSearch(3, 3, 2).pair.__name__ == "_gram_pair"


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
    avg = ensemble_average(est.decomposition)
    assert trace_distance(avg.matrix, rho.matrix) < 1e-8
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
