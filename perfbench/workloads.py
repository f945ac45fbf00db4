"""The benchmark's four workloads.

Each workload builds the inputs of one pass from the benchmark seed with
its own NumPy generator (never ``entcost.rng``), lists the calls of that
pass in a fixed order, and checks every output.  A run repeats passes in
a closed loop: one caller, each call waiting for the previous one.  Pass k
draws fresh inputs from (seed, workload, k), so a cache cannot carry
results from one pass into the next; the work per pass does not depend on
the seed.  README.md says why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import entcost as ec
import reference as ref
import tracer as trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MASS_ATOL = 1e-12
MC_SIGMAS = 5.0


def threads_cap() -> int:
    """Program threads for the threaded runs: 2, or fewer on a smaller machine."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def generator(seed: int, workload: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, workload, pass_index])


def schmidt_coefficients(rng: np.random.Generator, k: int) -> np.ndarray:
    return np.sort(rng.dirichlet(np.full(k, 2.0)))[::-1]


def mixed_state(rng: np.random.Generator, dim_a: int, dim_b: int, rank: int) -> np.ndarray:
    g = (rng.standard_normal((dim_a * dim_b, rank))
         + 1j * rng.standard_normal((dim_a * dim_b, rank)))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _tol_ulps(got: float, want: float, ulps: int = 4) -> bool:
    return abs(got - want) <= ulps * math.ulp(want)


def _mc_within(estimate: float, exact: float, samples: int) -> bool:
    """|estimate - exact| within MC_SIGMAS standard errors.

    The variance is floored at 4/N: when fewer than a few misses (or hits)
    are expected, their count is Poisson, whose tail the normal
    approximation understates.
    """
    se = math.sqrt(max(exact * (1.0 - exact), 4.0 / samples) / samples)
    return abs(estimate - exact) <= MC_SIGMAS * se


class Workload:
    """One set of inputs and the checks on its outputs."""

    name = ""
    tag = 0
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def make_inputs(self, pass_index: int) -> dict:
        raise NotImplementedError

    def calls(self, inputs: dict, traced: bool) -> list:
        """[(label, thunk)] in call order."""
        raise NotImplementedError

    def check(self, inputs: dict, results: dict) -> dict:
        """{label: [failure messages]} for the calls whose output is wrong."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Checks that span passes, run once after the timed phase."""
        return {}

    def summary(self) -> dict:
        """Extra end-to-end figures that hold for this workload only."""
        return {}


def _failures(checks: dict) -> dict:
    return {label: msgs for label, msgs in checks.items() if msgs}


# ---------------------------------------------------------------------------
# exact-census
# ---------------------------------------------------------------------------

CENSUS_DELTA = 0.05
REFERENCE_FILE = HERE / "census_reference.json"


class ExactCensus(Workload):
    name = "exact-census"
    tag = 1
    BLOCK = 30      # n values per dilution_sweep call
    K3_N = 160      # 13 041 types
    K4_N = 45       # 17 296 types
    STRONG_N = 100  # 5 151 types
    STRONG_DELTAS = (0.03, 0.06, 0.1)
    AEP_DELTAS = (0.03, 0.1)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = json.loads(REFERENCE_FILE.read_text())
        self.binary = {key: ec.Spectrum(np.array(t["probs"]))
                       for key, t in self.reference["targets"].items()}

    def make_inputs(self, pass_index):
        rng = generator(self.seed, self.tag, pass_index)
        k3, k4, strong = (schmidt_coefficients(rng, k) for k in (3, 4, 3))
        return {"k3": k3, "k4": k4, "strong": strong,
                "k3_spec": ec.Spectrum(k3), "k4_spec": ec.Spectrum(k4),
                "strong_dist": ec.SourceDistribution(strong)}

    def calls(self, inp, traced):
        out = []
        for key in ("p80", "p50"):
            spec, ns = self.binary[key], self.reference["targets"][key]["n"]
            out += [(f"{key}/{i}", lambda spec=spec, block=ns[i:i + self.BLOCK]:
                     ec.dilution_sweep(spec, CENSUS_DELTA, block))
                    for i in range(0, len(ns), self.BLOCK)]
        out.append(("k3", lambda: ec.pure_dilution(inp["k3_spec"], CENSUS_DELTA, self.K3_N)))
        out.append(("k4", lambda: ec.pure_dilution(inp["k4_spec"], CENSUS_DELTA, self.K4_N)))
        dist = inp["strong_dist"]
        out += [(f"strong/d={d}", lambda d=d: ec.strong_typical_mass(dist, self.STRONG_N, d))
                for d in self.STRONG_DELTAS]
        out += [(f"aep/d={d}", lambda d=d: ec.aep_bounds_check(dist, self.STRONG_N, d))
                for d in self.AEP_DELTAS]
        return out

    @staticmethod
    def _trace_msgs(t, n, h, mass, ebits) -> list:
        msgs = []
        if t.error_kind != "exact":
            msgs.append(f"n={n}: error kind {t.error_kind!r}")
        got_mass = 1.0 - t.error ** 2
        if abs(got_mass - mass) > MASS_ATOL:
            msgs.append(f"n={n}: mass {got_mass!r} vs reference {mass!r}")
        if t.ebits != ebits:
            msgs.append(f"n={n}: ebits {t.ebits} vs reference {ebits}")
        if t.rate > h + CENSUS_DELTA + 1.0 / n + 1e-12:
            msgs.append(f"n={n}: rate {t.rate!r} above H + delta + 1/n")
        return msgs

    def check(self, inp, results):
        out = {}
        for key, t in self.reference["targets"].items():
            h = ref.entropy_bits(t["probs"])
            for i in range(0, len(t["n"]), self.BLOCK):
                label = f"{key}/{i}"
                traces = results[label]
                msgs = [] if len(traces) == len(t["n"][i:i + self.BLOCK]) else ["sweep length"]
                for tr, n, mass, ebits in zip(traces, t["n"][i:], t["mass"][i:], t["ebits"][i:]):
                    msgs += self._trace_msgs(tr, n, h, mass, ebits)
                    if key == "p50" and (tr.error != 0.0 or tr.rate != 1.0):
                        msgs.append(f"n={n}: uniform target gave error {tr.error!r}, "
                                    f"rate {tr.rate!r}")
                out[label] = msgs
        for key, n in (("k3", self.K3_N), ("k4", self.K4_N)):
            p = inp[key]
            h = ref.entropy_bits(p)
            mass, count = ref.census(p, n, CENSUS_DELTA, "weak", want_count=True)
            cap = math.ceil(n * (h + CENSUS_DELTA))
            ebits = min((count - 1).bit_length(), cap) if count > 0 else 0
            out[key] = self._trace_msgs(results[key], n, h, mass, ebits)
        p = inp["strong"]
        for d in self.STRONG_DELTAS:
            label = f"strong/d={d}"
            r = results[label]
            mass, count = ref.census(p, self.STRONG_N, d, "strong", want_count=True)
            msgs = []
            if abs(r.mass - mass) > MASS_ATOL:
                msgs.append(f"mass {r.mass!r} vs reference {mass!r}")
            want = ref.log2_int(count) if count else -math.inf
            if not (want == r.log2_cardinality_bound
                    or (count and _tol_ulps(r.log2_cardinality_bound, want))):
                msgs.append(f"log2 cardinality {r.log2_cardinality_bound!r} vs {want!r}")
            if r.mode != "exact" or not (r.mass_low == r.mass == r.mass_high):
                msgs.append("exact report carries an interval")
            out[label] = msgs
        for d in self.AEP_DELTAS:
            label = f"aep/d={d}"
            out[label] = [] if results[label] is True else [f"returned {results[label]!r}"]
        return _failures(out)


# ---------------------------------------------------------------------------
# seeded-sampling
# ---------------------------------------------------------------------------

def _local_instrument(rng, dim, branches):
    gs = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
          for _ in range(branches)]
    w, v = np.linalg.eigh(sum(g.conj().T @ g for g in gs))
    corr = (v / np.sqrt(w)) @ v.conj().T
    return [g @ corr for g in gs]


def product_instrument(rng, dim_a, dim_b):
    """Two A-branches, each followed by its own two-branch B instrument."""
    ls, ms = [], []
    for l in _local_instrument(rng, dim_a, 2):
        for m in _local_instrument(rng, dim_b, 2):
            ls.append(l)
            ms.append(m)
    return ec.ProductKrausInstrument(tuple(ls), tuple(ms), tuple(range(len(ls))))


class SeededSampling(Workload):
    name = "seeded-sampling"
    tag = 2
    WEAK = ((0.8, 0.2), 1000, 0.02, 20_000)   # one 2e7-symbol chunk
    K3_WEAK = (300, 0.05, 10_000)
    K3_STRONG = (100, 0.05, 20_000)
    DILUTION = (300, 0.05, 20_000)
    CURTAILED = (0.3, 0.05, 100, 100_000)
    SWEEP = (150, 6)
    # eight calls of 16 trials, one per (d_A, d_B): the median call of a
    # pass falls inside this group, not on its edge
    MONOTONICITY_TRIALS = 128
    MONOTONICITY_BATCH = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.threads = threads_cap()
        self._exact = {}

    def make_inputs(self, pass_index):
        rng = generator(self.seed, self.tag, pass_index)
        p3 = schmidt_coefficients(rng, 3)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]
        trials = []
        for i in range(self.MONOTONICITY_TRIALS):
            # dimensions cycle through 2..5 x 2..5 so the work per pass is fixed
            da, db = 2 + i % 4, 2 + i // 4 % 4
            amp = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
            trials.append((ec.schmidt_decompose(amp), product_instrument(rng, da, db)))
        return {"p3": p3, "dist3": ec.SourceDistribution(p3), "seeds": seeds,
                "binary": ec.SourceDistribution(np.array(self.WEAK[0])),
                "binary_spec": ec.Spectrum(np.array(self.WEAK[0])), "trials": trials}

    def calls(self, inp, traced):
        s = inp["seeds"]
        _, n, d, samples = self.WEAK
        n3, d3, m3 = self.K3_WEAK
        ns, ds, ms = self.K3_STRONG
        nd, dd, md = self.DILUTION
        p0, xi, nc, size = self.CURTAILED
        trials, max_dim = self.SWEEP
        out = [
            ("weak-mc/binary", lambda: ec.weak_typical_mass(
                inp["binary"], n, d, mode="mc", samples=samples, seed=s[0])),
            ("weak-mc/k3", lambda: ec.weak_typical_mass(
                inp["dist3"], n3, d3, mode="mc", samples=m3, seed=s[1])),
            ("strong-mc/k3", lambda: ec.strong_typical_mass(
                inp["dist3"], ns, ds, mode="mc", samples=ms, seed=s[2])),
            ("dilution-mc", lambda: ec.pure_dilution(
                inp["binary_spec"], dd, nd, mode="mc", samples=md, seed=s[3])),
            ("curtailed", lambda: ec.curtailed_binomial_sample(p0, xi, nc, size=size, seed=s[4])),
            ("sweep/t1", lambda: ec.majorization_sweep(trials, max_dim, s[5], threads=1)),
            ("sweep/t2", lambda: ec.majorization_sweep(trials, max_dim, s[5],
                                                       threads=self.threads)),
        ]
        batches = range(0, self.MONOTONICITY_TRIALS, self.MONOTONICITY_BATCH)
        out += [(f"monotonicity/{i}", lambda batch=inp["trials"][i:i + self.MONOTONICITY_BATCH]:
                 [ec.entropy_monotonicity_check(psi, inst) for psi, inst in batch])
                for i in batches]
        return out

    def _exact_mass(self, probs, n, delta, kind):
        key = (tuple(probs), n, delta, kind)
        if key not in self._exact:
            self._exact[key] = ref.census(probs, n, delta, kind)[0]
        return self._exact[key]

    def _mc_msgs(self, r, exact, samples):
        msgs = []
        if r.mode != "mc" or r.samples != samples:
            msgs.append(f"mode {r.mode!r} with {r.samples} samples")
        if not _mc_within(r.mass, exact, samples):
            msgs.append(f"mass {r.mass!r} more than {MC_SIGMAS} s.e. from exact {exact!r}")
        if not (r.mass_low <= r.mass <= r.mass_high):
            msgs.append(f"mass {r.mass!r} outside its interval [{r.mass_low}, {r.mass_high}]")
        return msgs

    def check(self, inp, results):
        out = {}
        probs, n, d, samples = self.WEAK
        out["weak-mc/binary"] = self._mc_msgs(
            results["weak-mc/binary"], self._exact_mass(probs, n, d, "weak"), samples)
        p3 = inp["p3"]
        n3, d3, m3 = self.K3_WEAK
        out["weak-mc/k3"] = self._mc_msgs(
            results["weak-mc/k3"], self._exact_mass(p3, n3, d3, "weak"), m3)
        ns, ds, ms = self.K3_STRONG
        out["strong-mc/k3"] = self._mc_msgs(
            results["strong-mc/k3"], self._exact_mass(p3, ns, ds, "strong"), ms)

        nd, dd, md = self.DILUTION
        t = results["dilution-mc"]
        exact = self._exact_mass(probs, nd, dd, "weak")
        msgs = []
        if t.error_kind != "mc-estimate":
            msgs.append(f"error kind {t.error_kind!r}")
        if t.ebits != math.ceil(nd * (ref.entropy_bits(probs) + dd)):
            msgs.append(f"ebits {t.ebits} differ from ceil(n(H + delta))")
        if not _mc_within(1.0 - t.error ** 2, exact, md):
            msgs.append(f"error {t.error!r} inconsistent with exact mass {exact!r}")
        out["dilution-mc"] = msgs

        p0, xi, nc, size = self.CURTAILED
        draws = np.asarray(results["curtailed"])
        ks = np.arange(nc + 1)
        ks = ks[np.abs(ks / nc - p0) <= xi]
        pmf = np.array([math.comb(nc, k) * p0 ** k * (1 - p0) ** (nc - k) for k in ks])
        pmf /= pmf.sum()
        freq = np.array([np.count_nonzero(draws == k) for k in ks]) / size
        se = np.sqrt(pmf * (1 - pmf) / size)
        msgs = []
        if draws.size != size or np.count_nonzero(np.isin(draws, ks)) != size:
            msgs.append("draws outside the curtailed support")
        if np.any(np.abs(freq - pmf) > MC_SIGMAS * se + 1.0 / size):
            msgs.append("draw frequencies stray from the curtailed law")
        out["curtailed"] = msgs

        trials = self.SWEEP[0]
        for label in ("sweep/t1", "sweep/t2"):
            r = results[label]
            msgs = []
            if r.trials != trials or r.failures != 0 or r.min_margin < -1e-10:
                msgs.append(f"{r.failures} failures of {r.trials}, min margin {r.min_margin!r}")
            out[label] = msgs
        a, b = results["sweep/t1"], results["sweep/t2"]
        if (a.trials, a.failures, a.min_margin, a.max_completeness_defect, a.seed) != \
                (b.trials, b.failures, b.min_margin, b.max_completeness_defect, b.seed):
            out["sweep/t2"].append("report differs between thread counts")
        for i in range(0, self.MONOTONICITY_TRIALS, self.MONOTONICITY_BATCH):
            label = f"monotonicity/{i}"
            bad = [k for k, ok in enumerate(results[label]) if ok is not True]
            out[label] = [f"entropy rose in trials {bad}"] if bad else []
        return _failures(out)


# ---------------------------------------------------------------------------
# formation-converse
# ---------------------------------------------------------------------------

class FormationConverse(Workload):
    name = "formation-converse"
    tag = 3
    EOF_KW = {"restarts": 2, "iterations": 800}
    CONVERSE_KW = {"restarts": 1, "iterations": 300}
    EPSILONS = (1e-2, 1e-3, 1e-4)
    COPIES = (1, 2, 3)
    CONTINUITY_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
    MIXED = {"2x2-r2": (2, 2, 2), "2x2-r3": (2, 2, 3), "2x3-r3": (2, 3, 3)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.gap_bits = None

    def make_inputs(self, pass_index):
        rng = generator(self.seed, self.tag, pass_index)
        states = {key: (da, db, mixed_state(rng, da, db, r))
                  for key, (da, db, r) in self.MIXED.items()}
        amp = (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        amp /= np.linalg.norm(amp)
        states["pure-2x3"] = (2, 3, np.outer(amp, amp.conj()))
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        states["bell"] = (2, 2, bell)
        states["separable"] = (2, 2, np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex))
        return {"states": states,
                "rho": {k: ec.BipartiteState(da, db, m) for k, (da, db, m) in states.items()},
                "energies": np.sort(10.0 ** rng.uniform(-1.0, 1.0, size=6)),
                "ladder": ec.harmonic_oscillator(),
                "seed": int(rng.integers(0, 2**31))}

    def calls(self, inp, traced):
        rho, seed, ladder = inp["rho"], inp["seed"], inp["ladder"]
        out = [(f"eof/{key}", lambda key=key: ec.eof_estimate(rho[key], seed=seed, **self.EOF_KW))
               for key in rho]
        out.append(("probe/2x2-r2", lambda: ec.regularized_probe(
            rho["2x2-r2"], 2, seed=seed, **self.CONVERSE_KW)))
        out += [(f"converse/n={n}/eps={eps}", lambda n=n, eps=eps: ec.converse_bound(
                    rho["2x2-r2"], 1.0, eps, ladder, n, seed=seed, **self.CONVERSE_KW))
                for n in self.COPIES for eps in self.EPSILONS]
        out += [(f"max-entropy/{i}", lambda e=e: ec.max_entropy_at_energy(ladder, float(e)))
                for i, e in enumerate(inp["energies"])]
        energy = float(inp["energies"][2])
        out += [(f"continuity/eps={eps}", lambda eps=eps: ec.one_sided_continuity_bound(
                    ladder, energy, eps)) for eps in self.CONTINUITY_EPSILONS]
        return out

    def check(self, inp, results):
        out = {}
        states = inp["states"]
        brackets = {k: ref.formation_bracket(m, da, db) for k, (da, db, m) in states.items()}
        wootters = {k: ref.wootters_bits(m) for k, (da, db, m) in states.items()
                    if (da, db) == (2, 2)}
        for key in states:
            label = f"eof/{key}"
            bound = results[label].upper_bound_bits
            lower, ceiling = brackets[key]
            lower = max(lower, wootters.get(key, 0.0))
            msgs = []
            if not (lower - 1e-9 <= bound <= ceiling + 1e-8):
                msgs.append(f"bound {bound!r} outside [{lower!r}, {ceiling!r}]")
            if key == "pure-2x3" and abs(bound - ceiling) > 1e-9:
                msgs.append(f"pure input gave {bound!r}, want {ceiling!r}")
            if key == "bell" and abs(bound - 1.0) > 1e-6:
                msgs.append(f"maximally entangled pair gave {bound!r}")
            if key == "separable" and bound > 1e-6:
                msgs.append(f"separable mixture gave {bound!r}")
            out[label] = msgs
        if self.gap_bits is None:
            self.gap_bits = float(np.mean(
                [results[f"eof/{k}"].upper_bound_bits - wootters[k] for k in ("2x2-r2", "2x2-r3")]))

        one, two = results["probe/2x2-r2"]
        lower, ceiling = brackets["2x2-r2"]
        msgs = []
        if two > one + 1e-6:
            msgs.append(f"two-copy bound {two!r} above one-copy {one!r}")
        if not (max(lower, wootters["2x2-r2"]) - 1e-9 <= one <= ceiling + 1e-8):
            msgs.append(f"one-copy bound {one!r} outside its bracket")
        out["probe/2x2-r2"] = msgs

        for n in self.COPIES:
            reports = [results[f"converse/n={n}/eps={eps}"] for eps in self.EPSILONS]
            floor_n = max(lower, wootters["2x2-r2"]) if n == 1 else lower
            for eps, rep in zip(self.EPSILONS, reports):
                msgs = []
                values = (rep.ef_surrogate_bits, rep.continuity_term_bits,
                          rep.g_term_bits, rep.rate_lower_bound, rep.slack_bits)
                if not all(math.isfinite(v) for v in values):
                    msgs.append(f"non-finite terms {values}")
                if rep.lhs_ebits != math.floor(1.0 * n):
                    msgs.append(f"lhs {rep.lhs_ebits} != floor(rn)")
                if not (n * floor_n - 1e-9 <= rep.ef_surrogate_bits <= n * ceiling + 1e-8):
                    msgs.append(f"formation term {rep.ef_surrogate_bits!r} outside "
                                f"[{n * floor_n!r}, {n * ceiling!r}]")
                out[f"converse/n={n}/eps={eps}"] = msgs
            cont = [r.continuity_term_bits for r in reports]
            gterm = [r.g_term_bits for r in reports]
            if not (all(b < a for a, b in zip(cont, cont[1:]))
                    and all(b < a for a, b in zip(gterm, gterm[1:]))):
                out[f"converse/n={n}/eps={self.EPSILONS[-1]}"].append(
                    "correction terms do not fall with epsilon")

        for i, e in enumerate(inp["energies"]):
            label = f"max-entropy/{i}"
            got = results[label]
            out[label] = [] if abs(got - ref.g_bits(float(e))) <= 1e-8 else [
                f"F({e!r}) = {got!r}, closed form {ref.g_bits(float(e))!r}"]
        bounds = [results[f"continuity/eps={eps}"] for eps in self.CONTINUITY_EPSILONS]
        for eps, b in zip(self.CONTINUITY_EPSILONS, bounds):
            out[f"continuity/eps={eps}"] = [] if math.isfinite(b) and b > 0.0 else [f"bound {b!r}"]
        if not all(b < a for a, b in zip(bounds, bounds[1:])):
            out[f"continuity/eps={self.CONTINUITY_EPSILONS[-1]}"].append(
                "continuity bound does not fall with epsilon")
        return _failures(out)

    def summary(self):
        return {"eof_gap_bits": (self.gap_bits, "bits",
                                 "first pass, two-qubit mixed inputs")}


# ---------------------------------------------------------------------------
# cli-cold-start
# ---------------------------------------------------------------------------

def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _without_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def _pairs(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


class CliColdStart(Workload):
    """Each command in a fresh ``python -m entcost.cli`` process."""

    name = "cli-cold-start"
    tag = 4
    in_process = False
    COMMANDS = ("entropy", "typicality", "eof", "dilute-pure", "dilute-mixed",
                "converse-bound", "majorization-check", "gibbs")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.threads = threads_cap()
        self.artifacts = {}

    def make_inputs(self, pass_index):
        rng = generator(self.seed, self.tag, pass_index)
        rho = mixed_state(rng, 2, 2, 2)
        state = {"dim_a": 2, "dim_b": 2, "matrix": _pairs(rho)}
        ladder = {"energies": list(range(64)),
                  "tail_model": {"kind": "affine", "a": 1.0, "b": 0.0}}
        members = []
        for _ in range(4):
            amp = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            members.append({"dim_a": 2, "dim_b": 2, "amplitudes": _pairs(amp)})
        weights = rng.dirichlet(np.ones(4))
        p3 = schmidt_coefficients(rng, 3)
        params = {
            "entropy": {"spectrum": {"values": schmidt_coefficients(rng, 5).tolist()}},
            "typicality": {"dist": p3.tolist(), "n": 40, "delta": 0.05,
                           "kind": "weak", "mode": "exact"},
            "eof": {"state": state, "restarts": 1, "iterations": 200},
            "dilute-pure": {"schmidt": schmidt_coefficients(rng, 2).tolist(),
                            "delta": 0.05, "n_grid": [10, 50, 200]},
            "dilute-mixed": {"ensemble": {"weights": (weights / weights.sum()).tolist(),
                                          "members": members},
                             "n_cut_grid": [1, 2, 3]},
            "converse-bound": {"state": state, "hamiltonian": ladder, "r": 1.0, "n": 1,
                               "epsilon_grid": [1e-2, 1e-3], "restarts": 1,
                               "iterations": 200},
            "majorization-check": {"trials": 64, "max_dim": 4},
            "gibbs": {"hamiltonian": ladder, "beta": float(rng.uniform(0.5, 2.0))},
        }
        configs = {}
        for cmd, p in params.items():
            path = self.workdir / f"config-{cmd}.json"
            path.write_text(json.dumps({"command": cmd, "params": p}))
            configs[cmd] = path
        return {"params": params, "configs": configs,
                "seed": int(rng.integers(0, 2**31)), "rho": rho}

    def argv(self, inp, cmd, out_path, threads):
        return [cmd, "--config", str(inp["configs"][cmd]), "--seed", str(inp["seed"]),
                "--out", str(out_path), "--threads", str(threads)]

    def _threads_for(self, cmd):
        return self.threads if cmd == "majorization-check" else 1

    def _launch(self, inp, cmd, traced):
        out_path = self.workdir / f"artifact-{cmd}.json"
        out_path.unlink(missing_ok=True)
        args = self.argv(inp, cmd, out_path, self._threads_for(cmd))
        if traced:
            spans_path = self.workdir / f"spans-{cmd}.json"
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "entcost.cli", *args]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stderr, out_path

    def calls(self, inp, traced):
        return [(cmd, lambda cmd=cmd: self._launch(inp, cmd, traced)) for cmd in self.COMMANDS]

    def child_spans(self) -> list:
        spans = []
        for cmd in self.COMMANDS:
            path = self.workdir / f"spans-{cmd}.json"
            if path.exists():
                spans += trace.from_records(json.loads(path.read_text()))
                path.unlink()
        return spans

    def _result_msgs(self, cmd, inp, result) -> list:
        p = inp["params"][cmd]
        if cmd == "entropy":
            want = ref.entropy_bits(p["spectrum"]["values"])
            if abs(result["entropy_bits"] - want) > 1e-12:
                return [f"entropy {result['entropy_bits']!r} vs {want!r}"]
        elif cmd == "typicality":
            want = ref.census(p["dist"], p["n"], p["delta"], "weak")[0]
            if abs(result["mass"] - want) > MASS_ATOL:
                return [f"mass {result['mass']!r} vs reference {want!r}"]
        elif cmd == "eof":
            m = inp["rho"]
            lower = max(ref.wootters_bits(m), ref.formation_bracket(m, 2, 2)[0])
            ceiling = ref.formation_bracket(m, 2, 2)[1]
            if not (lower - 1e-9 <= result["upper_bound_bits"] <= ceiling + 1e-8):
                return [f"bound {result['upper_bound_bits']!r} outside [{lower}, {ceiling}]"]
        elif cmd == "majorization-check":
            if result["failures"] != 0:
                return [f"{result['failures']} sweep failures"]
        return []

    def check(self, inp, results):
        out = {}
        for cmd in self.COMMANDS:
            code, stderr, out_path = results[cmd]
            if code != 0:
                out[cmd] = [f"exit code {code}: {stderr.strip()[-300:]}"]
                continue
            try:
                text = out_path.read_text()
                artifact = _strict_json(text)
            except (OSError, ValueError) as exc:
                out[cmd] = [f"artifact is not strict JSON: {exc}"]
                continue
            self.artifacts[cmd] = (inp, text)
            if artifact.get("command") != cmd:
                out[cmd] = [f"artifact names command {artifact.get('command')!r}"]
                continue
            out[cmd] = self._result_msgs(cmd, inp, artifact["result"])
        return _failures(out)

    def finish(self):
        """Rerun each command in-process at --threads 1; artifacts must match."""
        from entcost import cli
        out = {}
        for cmd, (inp, text) in self.artifacts.items():
            ref_path = self.workdir / f"threads1-{cmd}.json"
            code = cli.main(self.argv(inp, cmd, ref_path, 1))
            if code != 0 or _without_timestamp(ref_path.read_text()) != _without_timestamp(text):
                out[cmd] = [f"artifact differs from the --threads 1 rerun (exit {code})"]
        return out


WORKLOADS = {w.name: w for w in (ExactCensus, SeededSampling, FormationConverse, CliColdStart)}
