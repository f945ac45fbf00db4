"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each test exercises one numbered criterion and prints a single
``[criterion NN] <label>: PASS|FAIL`` line straight to the terminal
(bypassing pytest's capture) before asserting.  Failure messages carry the
measured values so any gap between implementation and threshold is visible
in the test report, not just the verdict line.
"""

import json
import math
import time

import numpy as np

from entcost import (
    BipartiteState,
    Ensemble,
    SourceDistribution,
    Spectrum,
    binary_mixing_error,
    converse_bound,
    curtailed_binomial_pmf,
    curtailed_binomial_sample,
    entropy_integral_closed_form,
    entropy_integral_quadrature,
    entropy_monotonicity_check,
    eof_estimate,
    eof_pure,
    g_function,
    gibbs_hypothesis_check,
    hamiltonian_for_spectrum,
    harmonic_oscillator,
    majorization_sweep,
    max_entropy_at_energy,
    mixed_dilution_rate,
    one_sided_continuity_bound,
    pure_dilution,
    random_product_instrument,
    random_pure_state,
    regularized_probe,
    schmidt_decompose,
    schur_horn_check,
    stream,
    sublinearity_probe,
    tail_sum_operator_inequality,
    von_neumann_entropy,
)
from entcost.cli import main as cli_main
from entcost.jsonio import ensemble_to_json, hamiltonian_to_json, state_to_json


def _verdict(capsys, num, label, clauses):
    """Print one PASS/FAIL line for the criterion, then assert every clause."""
    bad = [(name, detail) for name, ok, detail in clauses if not ok]
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {label}: {'FAIL' if bad else 'PASS'}",
              flush=True)
    assert not bad, f"failed clauses: {bad}"


def _strictly_decreasing(xs):
    return all(b < a for a, b in zip(xs, xs[1:]))


def _eps_prime(eps):
    """Trace distance eps of the outputs -> distance of the purifications."""
    return math.sqrt(eps * (2.0 - eps))


def _bell_density():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    return BipartiteState(2, 2, m)


def test_criterion_01_integral_representation(capsys):
    # 200 seeded spectra of length 1-64 plus the pure and uniform edges:
    # the closed-form integral matches the direct entropy to 1e-9 relative
    # and the quadrature matches the closed form to 1e-9.
    t0 = time.perf_counter()
    rng = stream(101, 0)
    spectra = [
        Spectrum(np.sort(rng.dirichlet(np.ones(int(rng.integers(1, 65)))))[::-1])
        for _ in range(200)
    ]
    spectra.append(Spectrum(np.array([1.0])))
    spectra.append(Spectrum(np.full(64, 1.0 / 64.0)))
    worst_rel = worst_quad = 0.0
    for spec in spectra:
        direct = von_neumann_entropy(spec)
        closed = entropy_integral_closed_form(spec)
        quad = entropy_integral_quadrature(spec)
        worst_rel = max(worst_rel, abs(closed - direct) / max(1.0, abs(direct)))
        worst_quad = max(worst_quad, abs(quad - closed))
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 1, "entropy integral representation", [
        ("closed form vs direct", worst_rel <= 1e-9, f"worst rel {worst_rel:g}"),
        ("quadrature vs closed form", worst_quad <= 1e-9, f"worst {worst_quad:g}"),
        ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_02_majorization_sweep(capsys):
    # 1000 seeded random product-Kraus instruments on random pure states,
    # dims <= 6: no tail-sum margin may fall below -1e-10.
    t0 = time.perf_counter()
    report = majorization_sweep(1000, 6, seed=2026, threads=4)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 2, "instrument majorization sweep", [
        ("zero failures", report.failures == 0, f"failures {report.failures}"),
        ("min margin >= -1e-10", report.min_margin >= -1e-10,
         f"min margin {report.min_margin:g}"),
        ("runtime < 60 s", elapsed < 60.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_03_diagonal_and_operator_sweeps(capsys):
    # 500 diagonal-sum (Schur-Horn) trials at dims <= 16 and 500 tail-sum
    # operator-inequality trials at dims <= 12, zero violations.
    t0 = time.perf_counter()
    rng = stream(103, 0)
    diag_bad = 0
    for _ in range(500):
        d = int(rng.integers(2, 17))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (g + g.conj().T) / 2.0
        k = int(rng.integers(1, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, k))
                            + 1j * rng.standard_normal((d, k)))
        diag_bad += not schur_horn_check(m, q.T)
    op_bad = 0
    for _ in range(500):
        d = int(rng.integers(2, 13))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k = g @ g.conj().T
        n_top = int(rng.integers(0, d + 1))
        op_bad += not tail_sum_operator_inequality(a, b, k, n_top)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 3, "diagonal-sum and tail-sum operator checks", [
        ("diagonal-sum violations", diag_bad == 0, f"{diag_bad} of 500"),
        ("operator-inequality violations", op_bad == 0, f"{op_bad} of 500"),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_04_entropy_monotonicity(capsys):
    # 1000 random separable instruments: the local entropy never rises,
    # S(input marginal) - sum_x p(x) S(branch marginal) >= -1e-9.
    t0 = time.perf_counter()
    rng = stream(104, 0)
    bad = 0
    for _ in range(1000):
        da = int(rng.integers(2, 6))
        db = int(rng.integers(2, 6))
        psi = random_pure_state(rng, da, db)
        inst = random_product_instrument(rng, da, db)
        bad += not entropy_monotonicity_check(psi, inst)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 4, "entropy monotonicity under separable instruments", [
        ("zero violations", bad == 0, f"{bad} of 1000"),
        ("runtime < 60 s", elapsed < 60.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_05_pure_dilution_convergence(capsys):
    # schmidt (0.8, 0.2), delta = 0.05: exact error sqrt(1 - mass) falls
    # below 0.1 for some n <= 2000, the rate obeys H + delta + 1/n at every
    # n, and the maximally entangled two-level target runs at error 0, rate 1.
    spec = Spectrum(np.array([0.8, 0.2]))
    h = SourceDistribution(np.array([0.8, 0.2])).entropy_bits
    delta = 0.05
    traces = [pure_dilution(spec, delta, n) for n in range(1, 2001)]
    all_exact = all(t.error_kind == "exact" for t in traces)
    hit = [t.n for t in traces if t.error < 0.1]
    rate_bad = [t.n for t in traces
                if t.rate > h + delta + 1.0 / t.n + 1e-12]
    ebit = Spectrum(np.array([0.5, 0.5]))
    ebit_traces = [pure_dilution(ebit, delta, n) for n in range(1, 2001)]
    ebit_ok = all(t.error == 0.0 and t.rate == 1.0 for t in ebit_traces)
    _verdict(capsys, 5, "pure-state dilution convergence", [
        ("exact type-class masses", all_exact, "census fell back to sampling"),
        ("error < 0.1 within n <= 2000", bool(hit),
         f"first success {hit[0] if hit else 'none'}"),
        ("rate <= H + delta + 1/n at every n", not rate_bad,
         f"violations at n = {rate_bad[:5]}"),
        ("two-level uniform target: error 0, rate 1", ebit_ok, "exactness lost"),
    ])


def test_criterion_06_wasteful_term_vanishing(capsys):
    # geometric ensemble p(x) proportional to 2^-x of pure states with local
    # entropy <= 2 bits: the rare-branch term delta_N * S(omega_N) decreases
    # monotonically and drops below 1e-3 within the first 40 cutoffs.
    weights = 2.0 ** -np.arange(48, dtype=float)
    weights /= weights.sum()
    members = []
    for x in range(48):
        ratio = 0.25 + 0.5 * (x % 7) / 6.0
        q = ratio ** np.arange(4, dtype=float)
        members.append(schmidt_decompose(np.diag(np.sqrt(q / q.sum()))))
    ensemble = Ensemble(weights, tuple(members))
    member_entropy_ok = all(
        von_neumann_entropy(m.schmidt) <= 2.0 + 1e-12 for m in members)
    wasteful = [mixed_dilution_rate(ensemble, cut).wasteful_term
                for cut in range(1, 41)]
    _verdict(capsys, 6, "rare-branch wasteful term vanishing", [
        ("member entropies <= 2 bits", member_entropy_ok, "construction broken"),
        ("monotone decrease", _strictly_decreasing(wasteful),
         f"head {wasteful[:4]}"),
        ("below 1e-3 by cutoff 40", wasteful[-1] < 1e-3,
         f"final {wasteful[-1]:g}"),
    ])


def test_criterion_07_curtailed_binomial_mixing(capsys):
    # the exact mixing error 2(1 - mass) for p0 = 0.3, xi = 0.05 drops below
    # 1e-2 within n <= 10^4, and the sampler tracks the exact law to
    # TV <= 0.01 over 10^5 draws.
    grid = sorted({int(n) for n in np.logspace(0, 4, 80)})
    errors = [binary_mixing_error(0.3, 0.05, n) for n in grid]
    hit = [n for n, e in zip(grid, errors) if e < 1e-2]
    values, probs = curtailed_binomial_pmf(0.3, 0.05, 100)
    draws = curtailed_binomial_sample(0.3, 0.05, 100, size=100_000, seed=11)
    empirical = np.array([np.mean(draws == v) for v in values])
    tv = 0.5 * float(np.abs(empirical - probs).sum())
    _verdict(capsys, 7, "curtailed-binomial mixing accuracy", [
        ("error < 1e-2 within n <= 1e4", bool(hit),
         f"first success {hit[0] if hit else 'none'}"),
        ("sampler TV <= 0.01", tv <= 0.01, f"TV {tv:g}"),
    ])


def test_criterion_08_energy_constrained_entropy(capsys):
    # harmonic ladder: the max-entropy curve matches g(E) to 1e-8; F(E)/E is
    # strictly decreasing over the top tested decade; the diagonal operator
    # associated with spectrum (0.8, 0.2) has second level 5.347 +/- 1e-3
    # and passes the thermal-family cross-check.
    # The continuity bound checked is the one-sided formation bound
    # eps' F(E/eps') + g(eps') at E = 1, with eps the trace distance
    # (1/2)||.||_1 and eps' = sqrt(eps(2 - eps)) from the Fuchs-van de Graaf
    # and Uhlmann steps (derivation in gibbs.one_sided_continuity_bound).
    # It strictly decreases in eps and matches its closed form on the ladder
    # (F = g) at eps = 1e-4.  It falls like eps' log2(1/eps'), so 0.02 is
    # first cleared at eps = 1e-7 (0.0112); at 1e-4 it is 0.2149.
    ladder = harmonic_oscillator()
    worst_fg = max(abs(max_entropy_at_energy(ladder, e) - g_function(e))
                   for e in (0.1, 1.0, 10.0, 100.0))
    probe = sublinearity_probe(ladder, np.logspace(-2, 2, 41))
    top_decade = [ratio for energy, ratio in probe if energy >= 10.0 - 1e-9]
    eps_grid = (1e-1, 1e-2, 1e-3, 1e-4, 1e-7)
    bounds = [one_sided_continuity_bound(ladder, 1.0, e) for e in eps_grid]
    at = dict(zip(eps_grid, bounds))
    ep = _eps_prime(1e-4)
    closed_form = ep * g_function(1.0 / ep) + g_function(ep)
    assoc = hamiltonian_for_spectrum(Spectrum(np.array([0.8, 0.2])))
    second_level = float(assoc.energies[1])
    _verdict(capsys, 8, "energy-constrained entropy machinery", [
        ("max-entropy curve matches g to 1e-8", worst_fg <= 1e-8,
         f"worst {worst_fg:g}"),
        ("F(E)/E strictly decreasing on top decade",
         _strictly_decreasing(top_decade), f"head {top_decade[:3]}"),
        ("continuity bound strictly decreasing",
         _strictly_decreasing(bounds), f"bounds {bounds}"),
        ("continuity bound = eps' g(1/eps') + g(eps') at eps = 1e-4 to 1e-8",
         abs(at[1e-4] - closed_form) <= 1e-8,
         f"bound {at[1e-4]:.10f} vs closed form {closed_form:.10f}"),
        ("associated second level 5.347 +/- 1e-3",
         abs(second_level - 5.347) <= 1e-3, f"got {second_level:.6f}"),
        ("thermal-family cross-check", gibbs_hypothesis_check(assoc),
         "grid check failed"),
        ("continuity bound < 0.02 at eps = 1e-7", at[1e-7] < 0.02,
         f"bound {at[1e-7]:.7f}"),
    ])


def test_criterion_09_formation_estimates(capsys):
    # the formation estimator is exact on 50 pure inputs, returns 1 on the
    # two-qubit maximally entangled state, 0 on a classically correlated
    # diagonal mixture, and the two-copy probe never exceeds the one-copy
    # bound by more than 1e-6.
    rng = stream(109, 0)
    worst_pure = 0.0
    for t in range(50):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        psi = random_pure_state(rng, da, db)
        vec = psi.amplitudes.reshape(-1)
        rho = BipartiteState(da, db, np.outer(vec, vec.conj()))
        est = eof_estimate(rho, seed=t)
        worst_pure = max(worst_pure, abs(est.upper_bound_bits - eof_pure(psi)))
    ebit_bits = eof_estimate(_bell_density(), seed=1).upper_bound_bits
    sep = BipartiteState(2, 2, np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex))
    sep_bits = eof_estimate(sep, seed=2).upper_bound_bits
    rng2 = stream(109, 1)
    g = rng2.standard_normal((4, 2)) + 1j * rng2.standard_normal((4, 2))
    mixed = g @ g.conj().T
    mixed = BipartiteState(2, 2, mixed / np.trace(mixed).real)
    one_copy, two_copy = regularized_probe(mixed, n_max=2, restarts=4,
                                           iterations=1500, seed=3)
    _verdict(capsys, 9, "formation-estimate sanity", [
        ("pure inputs exact to 1e-6", worst_pure <= 1e-6,
         f"worst {worst_pure:g}"),
        ("maximally entangled pair -> 1 +/- 1e-6",
         abs(ebit_bits - 1.0) <= 1e-6, f"got {ebit_bits:.8f}"),
        ("classically correlated mixture -> <= 1e-6", sep_bits <= 1e-6,
         f"got {sep_bits:g}"),
        ("two-copy probe <= one-copy + 1e-6",
         two_copy <= one_copy + 1e-6, f"{two_copy:g} vs {one_copy:g}"),
    ])


def test_criterion_10_converse_consistency(capsys):
    # maximally entangled target at unit rate, four copies, against the
    # harmonic ladder (A-marginal energy 1/2): both subtracted terms
    # strictly decrease as epsilon falls through {1e-2, 1e-3, 1e-4, 1e-7}.
    # epsilon is the trace distance (1/2)||.||_1 and the terms use
    # eps' = sqrt(eps(2 - eps)) (derivation in dilution.converse_bound), so
    # the rate lower bound at 1e-4 must equal its closed form
    # 1 - eps' g(0.5/eps') - g(eps')/4 (0.8797).  It clears 0.98 first at
    # epsilon = 1e-7 (0.99342), where the threshold is asked.
    ladder = harmonic_oscillator()
    target = _bell_density()
    eps_grid = (1e-2, 1e-3, 1e-4, 1e-7)
    reports = [converse_bound(target, 1.0, eps, ladder, 4) for eps in eps_grid]
    cont = [r.continuity_term_bits for r in reports]
    gterm = [r.g_term_bits for r in reports]
    lower = {eps: r.rate_lower_bound for eps, r in zip(eps_grid, reports)}
    ep = _eps_prime(1e-4)
    closed_form = 1.0 - ep * g_function(0.5 / ep) - g_function(ep) / 4.0
    _verdict(capsys, 10, "converse rate bound consistency", [
        ("continuity term strictly decreasing", _strictly_decreasing(cont),
         f"{cont}"),
        ("offset term strictly decreasing", _strictly_decreasing(gterm),
         f"{gterm}"),
        ("rate lower bound = 1 - eps' g(0.5/eps') - g(eps')/4 at eps = 1e-4"
         " to 1e-9", abs(lower[1e-4] - closed_form) <= 1e-9,
         f"got {lower[1e-4]:.10f} vs closed form {closed_form:.10f}"),
        ("rate lower bound > 0.98 at eps = 1e-7", lower[1e-7] > 0.98,
         f"got {lower[1e-7]:.6f}"),
    ])


def _cli_artifact(tmp_path, tag, config, threads, fmt="json"):
    cfg_path = tmp_path / f"{tag}.json"
    out_path = tmp_path / f"{tag}-t{threads}.{fmt}"
    cfg_path.write_text(json.dumps(config))
    argv = ["--config", str(cfg_path), "--seed", "2026",
            "--threads", str(threads), "--out", str(out_path)]
    if fmt != "json":
        argv += ["--format", fmt]
    code = cli_main(argv)
    assert code == 0, f"{tag} exited {code}"
    texts = [out_path.read_text()]
    if fmt == "csv":
        texts.append((tmp_path / (out_path.name + ".json")).read_text())
    return "\n".join("\n".join(line for line in text.splitlines()
                               if '"timestamp"' not in line)
                     for text in texts)


def test_criterion_11_cli_reproducibility(capsys, tmp_path):
    # every command reruns to byte-identical artifacts (timestamp excluded)
    # across thread counts 1 and 4.
    ladder_json = hamiltonian_to_json(harmonic_oscillator())
    bell_json = state_to_json(_bell_density())
    members = [schmidt_decompose(np.diag(np.sqrt(q)))
               for q in ([1.0, 0.0], [0.5, 0.5], [0.8, 0.2], [0.65, 0.35])]
    ens_json = ensemble_to_json(Ensemble((0.4, 0.3, 0.2, 0.1), tuple(members)))
    cases = [
        ("entropy", "json",
         {"spectrum": {"values": [0.5, 0.3, 0.2], "tail_mass": 0.0}}),
        ("typicality", "json",
         {"dist": [0.8, 0.2], "n": 300, "delta": 0.05,
          "kind": "weak", "mode": "exact"}),
        ("eof", "json",
         {"state": bell_json, "restarts": 2, "iterations": 500}),
        ("dilute-pure", "json",
         {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [10, 50, 200]}),
        ("dilute-pure", "csv",
         {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [10, 50, 200]}),
        ("dilute-mixed", "json",
         {"ensemble": ens_json, "n_cut_grid": [1, 2, 3, 4]}),
        ("converse-bound", "json",
         {"state": bell_json, "hamiltonian": ladder_json, "r": 1.0, "n": 2,
          "epsilon_grid": [1e-2, 1e-3]}),
        ("majorization-check", "json", {"trials": 64, "max_dim": 4}),
        ("gibbs", "json", {"hamiltonian": ladder_json, "beta": 1.0}),
    ]
    clauses = []
    for idx, (command, fmt, params) in enumerate(cases):
        config = {"command": command, "params": params}
        tag = f"{idx:02d}-{command}-{fmt}"
        arts = {t: _cli_artifact(tmp_path, tag, config, t, fmt=fmt)
                for t in (1, 4)}
        rerun = _cli_artifact(tmp_path, tag, config, 1, fmt=fmt)
        clauses.append((f"{command} ({fmt}) threads 1 vs 4",
                        arts[1] == arts[4], "artifacts differ"))
        clauses.append((f"{command} ({fmt}) rerun identical",
                        arts[1] == rerun, "rerun differs"))
    _verdict(capsys, 11, "command-line reproducibility", clauses)
