"""Run one entcost benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports entcost from
``src/`` there and exits with code 2 if it is missing.  It repeats passes
of the workload in a closed loop for about S seconds and checks every
output.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones.  README.md defines every metric.
"""

import os
import sys

# Pinned before NumPy loads; children inherit the same environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# No bytecode is written into the checkout; entcost compiles from source
# on every import, in the timed runs and in set-up alike.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True
os.environ.pop("ENTCOST_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("import.entcost_s", "s"), ("import.scipy_stats_s", "s"), ("import.self_s", "s"),
    ("cli.self_s", "s"), ("cli.subprocess_spawns", "count"), ("cli.subprocess_s", "s"),
    ("jsonio.self_s", "s"),
    ("typicality.self_s", "s"), ("typicality.calls", "count"),
    ("typicality.types", "count"), ("typicality.us_per_type", "us"),
    ("typicality.mc_symbols", "count"), ("typicality.ns_per_mc_symbol", "ns"),
    ("majorization.self_s", "s"), ("majorization.trials", "count"),
    ("majorization.ms_per_trial.t1", "ms"), ("majorization.ms_per_trial.t2", "ms"),
    ("eof.self_s", "s"), ("eof.calls", "count"), ("eof.anneal_steps", "count"),
    ("eof.us_per_step", "us"), ("eof.gap_bits", "bits"),
    ("gibbs.self_s", "s"), ("gibbs.inversions", "count"), ("gibbs.us_per_inversion", "us"),
    ("dilution.self_s", "s"), ("entropy.self_s", "s"), ("spectra.self_s", "s"),
    ("rng.streams", "count"), ("rng.self_s", "s"),
    ("bench.self_s", "s"), ("traced.wall_s", "s"), ("tracing.overhead_frac", "ratio"),
)
COMPUTED = {"typicality.types", "typicality.mc_symbols", "eof.anneal_steps",
            "majorization.trials"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def timed_subprocess(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc


def import_probe() -> dict:
    """Cumulative import times of entcost and of scipy.stats (-X importtime).

    ``from scipy import stats`` goes through scipy's lazy loader, which
    leaves no line for scipy.stats itself; its cost is the sum of the
    outermost scipy.stats.* lines, found by walking the tree bottom-up.
    """
    _, proc = timed_subprocess([sys.executable, "-X", "importtime", "-c", "import entcost"])
    ancestors, entcost_us, stats_us = [], 0, 0
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        if name == "entcost":
            entcost_us = int(cumulative)
        if is_stats and not any(a[1] for a in ancestors):
            stats_us += int(cumulative)
        ancestors.append((depth, is_stats))
    return {"import.entcost_s": entcost_us / 1e6, "import.scipy_stats_s": stats_us / 1e6}


def measure_setup(workload) -> list[float]:
    """Fresh-process import of entcost plus generation of the first pass's inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t_import, _ = timed_subprocess([sys.executable, "-c", "import entcost"])
        t0 = time.perf_counter()
        workload.make_inputs(0)
        samples.append(t_import + time.perf_counter() - t0)
    return samples


class Run:
    """Timed passes of one workload and what they measured."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.walls = {False: [], True: []}
        self.failures = {}
        self.attempted = 0
        self.layers = None

    def run_pass(self, index, inputs, traced):
        import tracer as trace
        tracer = trace.Tracer() if traced else None
        calls = self.workload.calls(inputs, traced)
        results = {}
        if tracer is not None and self.workload.in_process:
            tracer.install()
        t_pass = time.perf_counter()
        try:
            for label, thunk in calls:
                if tracer is not None:
                    tracer.item = label
                t0 = time.perf_counter()
                try:
                    results[label] = thunk()
                except Exception as exc:  # a failed call is counted, not fatal
                    results[label] = exc
                if not traced:
                    self.latencies.append(time.perf_counter() - t0)
        finally:
            wall = time.perf_counter() - t_pass
            if tracer is not None and self.workload.in_process:
                tracer.uninstall()
        self.walls[traced].append(wall)
        self.attempted += len(calls)
        errors = {label: [f"raised {type(r).__name__}: {r}"]
                  for label, r in results.items() if isinstance(r, Exception)}
        ok = {label: r for label, r in results.items() if label not in errors}
        try:
            checked = self.workload.check(inputs, ok) if not errors else {}
        except Exception as exc:  # a malformed output fails its pass
            checked = {"check": [f"check raised {type(exc).__name__}: {exc}"]}
        for label, msgs in {**checked, **errors}.items():
            self.failures[(index, traced, label)] = msgs
        if tracer is not None:
            spans = tracer.spans if self.workload.in_process else self.workload.child_spans()
            if self.layers is None:
                self.layers = trace.PassTotals()
            self.layers.add(spans, wall)
            return [dict(r, passno=index) for r in trace.to_records(spans)]
        return []

    def loop(self, first_inputs, seconds, trace_mode):
        records = []
        t_start = time.perf_counter()
        index = 0
        while True:
            inputs = first_inputs if index == 0 else self.workload.make_inputs(index)
            self.run_pass(index, inputs, traced=False)
            if trace_mode:
                records += self.run_pass(index, inputs, traced=True)
            index += 1
            per_pass = statistics.median(self.walls[False]) + (
                statistics.median(self.walls[True]) if trace_mode else 0.0)
            if time.perf_counter() - t_start + per_pass > seconds:
                return records


def percentile_line(latencies_ms, q):
    ordered = sorted(latencies_ms)
    k = (len(ordered) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)
    return value, sum(1 for x in ordered if x > value)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    args = parse_args()
    if not (SRC / "entcost" / "__init__.py").is_file():
        print(f"error: no entcost package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import numpy
    import scipy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    print(f"env python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} nproc={len(os.sched_getaffinity(0))} "
          f"program_threads<={workloads.threads_cap()} blas_threads=1 "
          f"seed={args.seed} workload={args.workload} trace={args.trace}")
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = measure_setup(workload)
        run = Run(workload)
        records = run.loop(workload.make_inputs(0), args.seconds, bool(args.trace))
        for label, msgs in workload.finish().items():
            run.failures[("finish", False, label)] = msgs
        layer_extra = {}
        if args.trace:
            probes = [import_probe() for _ in range(IMPORT_PROBES)]
            layer_extra = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
            traces = HERE / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{args.workload}.spans.json").write_text(json.dumps(records))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    for (index, traced, label), msgs in sorted(run.failures.items(), key=str)[:20]:
        print(f"FAILED pass={index} traced={int(traced)} {label}: {'; '.join(msgs)}")
    lat_ms = [x * 1e3 for x in run.latencies]
    untraced = run.walls[False]
    print(f"calls attempted={run.attempted} failed={failed}")

    if not args.trace:
        p90, beyond = percentile_line(lat_ms, 90)
        metrics = {
            "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
            "wall_s": (statistics.median(untraced), "s", f"median of {len(untraced)} passes"),
            "call_p50_ms": (statistics.median(lat_ms), "ms", f"{len(lat_ms)} calls"),
        }
        metrics["peak_rss_mb"] = (peak_rss_mb(workload), "MB",
                                  "largest CLI process" if not workload.in_process
                                  else "benchmark process")
        for name, (value, unit, note) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit} ({note})")
        if beyond >= 10:
            print(f"metric call_p90_ms = {p90:.6g} ms ({len(lat_ms)} calls, {beyond} beyond)")
        else:
            print(f"metric call_p90_ms not reported: {beyond} of {len(lat_ms)} calls "
                  "lie beyond it, fewer than 10")
        print(f"metric failed_frac = {failed / run.attempted:.6g} "
              f"({failed} of {run.attempted} calls)")
        for name, (value, unit, note) in workload.summary().items():
            print(f"metric {name} = {value:.6g} {unit} ({note})")
        out = {name: {"value": metrics[name][0], "unit": unit} for name, unit in END_TO_END}
    else:
        values = run.layers.metrics()
        values.update(layer_extra)
        gap = workload.summary().get("eof_gap_bits")
        values["eof.gap_bits"] = gap[0] if gap else 0.0
        values["tracing.overhead_frac"] = (
            statistics.median(run.walls[True]) / statistics.median(untraced) - 1.0)
        for name, unit in PER_LAYER:
            tag = " (computed)" if name in COMPUTED else ""
            print(f"layer {name} = {values[name]:.6g} {unit}{tag}")
        print(f"layer passes traced={len(run.walls[True])} untraced={len(untraced)}; "
              "values are per traced pass")
        out = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
