"""Spans around entcost's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of every loaded
``entcost`` module, in every ``entcost`` namespace that binds it, with a
wrapper that records a span: layer (the defining module), function name,
start, end, parent span and the workload item being run.  Modules import
by name (``entcost.dilution`` binds ``weak_typical_census`` itself), so
wrapping only the defining module would miss those calls.  ``uninstall``
puts every original back.

Self time is a span's duration minus the durations of its children.  Only
spans on the main thread enter self time: work that ``majorization_sweep``
hands to worker threads is charged to the sweep span that waits for it,
so self times plus the benchmark's remainder add up to wall time.  Spans
on worker threads still count as calls.

Some spans also carry work counts computed from the call's arguments
(labelled "computed" in the output): census types, Monte Carlo symbols,
annealing steps, and sweep trials.
"""

from __future__ import annotations

import functools
import inspect
import subprocess
import sys
import threading
import time
from collections import defaultdict

class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "item", "main", "counts")

    def __init__(self, layer, name, parent, item, main):
        self.layer, self.name, self.parent, self.item, self.main = layer, name, parent, item, main
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _census_counts(type_count):
    def count(params, result):
        if params.get("mode", "exact") == "exact":
            return {"types": type_count(params["n"], len(params["dist"]))}
        return {"mc_symbols": params["samples"] * params["n"]}
    return count


def _eof_counts(np):
    def count(params, result):
        rank = int(np.sum(np.linalg.eigvalsh(params["rho"].matrix) > 1e-12))
        steps = 0 if rank == 1 else (params["restarts"] + 1) * params["iterations"]
        return {"anneal_steps": steps}
    return count


def _sweep_counts(params, result):
    trials = params["trials"]
    return {"trials": trials, f"trials.t{params['threads']}": trials}


def _inversion_counts(params, result):
    return {"inversions": 1}


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        span = Span(layer, name, stack[-1] if stack else None, self.item,
                    threading.current_thread() is self._main)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, layer: str, counter):
        tracer = self
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result
        return wrapper

    def install(self, wrap_subprocess: bool = False) -> None:
        import numpy as np
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "entcost" or name.startswith("entcost."))]
        typicality = sys.modules["entcost.typicality"]
        census = _census_counts(vars(typicality)["type_count"])
        counters = {
            ("typicality", "weak_typical_mass"): census,
            ("typicality", "strong_typical_mass"): census,
            ("typicality", "weak_typical_census"): census,
            ("typicality", "aep_bounds_check"): census,
            ("eof", "eof_estimate"): _eof_counts(np),
            ("majorization", "majorization_sweep"): _sweep_counts,
            ("gibbs", "beta_of_energy"): _inversion_counts,
        }
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("entcost.") or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, layer, counters.get((layer, obj.__name__)))
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))
        if wrap_subprocess:
            self._patched.append((subprocess, "run", subprocess.run))
            subprocess.run = self._wrap(subprocess.run, "subprocess", None)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def to_records(spans: list[Span]) -> list[dict]:
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"layer": s.layer, "name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent), -1), "item": s.item,
             "main": s.main, "counts": s.counts} for s in spans]


def from_records(records: list[dict]) -> list[Span]:
    spans = []
    for r in records:
        s = Span(r["layer"], r["name"], None, r["item"], r["main"])
        s.start, s.end, s.counts = r["start"], r["end"], r["counts"]
        spans.append(s)
    for s, r in zip(spans, records):
        if r["parent"] >= 0:
            s.parent = spans[r["parent"]]
    return spans


class PassTotals:
    """Per-layer sums over the traced passes of one run."""

    def __init__(self):
        self.passes = 0
        self.wall = 0.0
        self.root = 0.0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)    # span counts by (layer, name)
        self.work = defaultdict(float)   # computed counts
        self.work_s = defaultdict(float)  # inclusive time of the spans doing that work

    def add(self, spans: list[Span], wall: float) -> None:
        self.passes += 1
        self.wall += wall
        child = defaultdict(float)
        for s in spans:
            if s.main and s.parent is not None:
                child[id(s.parent)] += s.duration
        for s in spans:
            self.count[(s.layer, s.name)] += 1
            if s.parent is None or s.parent.layer != s.layer:
                self.calls[s.layer] += 1
            if s.main:
                self.self_s[s.layer] += s.duration - child[id(s)]
                if s.parent is None:
                    self.root += s.duration
            for key, value in (s.counts or {}).items():
                self.work[key] += value
                if value:
                    self.work_s[key] += s.duration

    def metrics(self) -> dict:
        """Per-pass means (and per-unit ratios) in the benchmark's metric names."""
        n = max(1, self.passes)

        def per(work_key, scale):
            work = self.work[work_key]
            return self.work_s[work_key] / work * scale if work else 0.0

        out = {f"{layer}.self_s": self.self_s[layer] / n
               for layer in ("cli", "jsonio", "typicality", "majorization", "eof",
                             "gibbs", "dilution", "entropy", "spectra", "rng", "import")}
        out.update({
            "cli.subprocess_spawns": self.count[("subprocess", "run")] / n,
            "cli.subprocess_s": self.self_s["subprocess"] / n,
            "typicality.calls": self.calls["typicality"] / n,
            "typicality.types": self.work["types"] / n,
            "typicality.us_per_type": per("types", 1e6),
            "typicality.mc_symbols": self.work["mc_symbols"] / n,
            "typicality.ns_per_mc_symbol": per("mc_symbols", 1e9),
            "majorization.trials": self.work["trials"] / n,
            "eof.calls": self.calls["eof"] / n,
            "eof.anneal_steps": self.work["anneal_steps"] / n,
            "eof.us_per_step": per("anneal_steps", 1e6),
            "gibbs.inversions": self.work["inversions"] / n,
            "gibbs.us_per_inversion": per("inversions", 1e6),
            "majorization.ms_per_trial.t1": per("trials.t1", 1e3),
            "majorization.ms_per_trial.t2": per("trials.t2", 1e3),
            "rng.streams": self.count[("rng", "stream")] / n,
            "bench.self_s": (self.wall - self.root) / n,
            "traced.wall_s": self.wall / n,
        })
        return out
