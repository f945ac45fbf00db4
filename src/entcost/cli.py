"""Command-line front end.

Each subcommand reads a JSON config, runs one computation, and emits a JSON
summary (or CSV rows plus a JSON sidecar with ``--format csv``).  Artifacts
are reproducible: given the same config, seed, and version, reruns are
byte-identical apart from the top-level ``timestamp`` field.  ``--threads``
(or ``ENTCOST_THREADS``) is still accepted and validated (>= 1) but no longer
used: every command runs serially, so no output depends on it.

Exit codes: 0 success, 2 invalid config schema, 3 numeric invariant
violation, 4 I/O failure.  Failures write a machine-readable JSON record to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dilution import _converse, dilution_sweep, mixed_dilution_rate
from .entropy import entropy_integral_closed_form, tail_sums, von_neumann_entropy
from .eof import eof_estimate
from .gibbs import beta_of_energy, gibbs_point, gibbs_state
from .jsonio import (
    SchemaError,
    ensemble_from_json,
    hamiltonian_from_json,
    pure_from_json,
    pure_to_json,
    read,
    read_list,
    spectrum_from_json,
    state_from_json,
)
from .majorization import majorization_sweep
from .spectra import InvariantViolation, Spectrum, _checked_int
from .typicality import (
    SourceDistribution,
    strong_typical_mass,
    weak_typical_mass,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


class CliFailure(Exception):
    """Carries an exit code and a structured failure record."""

    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _jsonable(obj):
    """Reduce numpy scalars/arrays and containers to plain JSON types.

    Infinities are results in their own right (the log2 size of an empty
    typical set is -inf) and travel as the strings "inf" and "-inf".  NaN is
    never a result: it is left in place for the strict writer to reject.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj)) if math.isinf(obj) else float(obj)
    return obj


@functools.cache
def _git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=5, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _version_string() -> str:
    return f"entcost {__version__} ({_git_hash()})"


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as the schema failure record (exit 2),
    not as argparse's usage text."""

    def error(self, message):
        raise CliFailure(EXIT_SCHEMA, "schema", f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (params, seed) and returns
# (result_dict, csv_header_or_None, reports); the CSV rows are the
# header's fields of each report
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _fields(report, drop=()) -> dict:
    """A report dataclass as {field name: value}, less the names in ``drop``."""
    return {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report) if f.name not in drop}


def _run_entropy(params, seed):
    spec = spectrum_from_json(read(params, "spectrum", "entropy", dict))
    bits = von_neumann_entropy(spec)
    result = {
        "entropy_bits": bits,
        "integral_closed_form_bits": entropy_integral_closed_form(spec),
        "tail_sums": list(tail_sums(spec, min(len(spec), 8))),
    }
    return result, None, []


def _run_typicality(params, seed):
    what = "typicality"
    probs = read_list(params, "dist", what, float)
    n = read(params, "n", what, int)
    delta = read(params, "delta", what, float)
    kind = read(params, "kind", what, str, "weak")
    mode = read(params, "mode", what, str, "exact")
    samples = read(params, "samples", what, int, 100_000)
    if kind not in ("weak", "strong"):
        raise SchemaError("typicality: 'kind' must be 'weak' or 'strong'")
    dist = SourceDistribution(probs)
    fn = weak_typical_mass if kind == "weak" else strong_typical_mass
    report = fn(dist, n, delta, mode=mode, samples=samples, seed=seed)
    result = _fields(report, drop=("samples", "mass_low", "mass_high"))
    result["entropy_bits"] = dist.entropy_bits
    if report.mode == "mc":
        result["samples"] = report.samples
        result["mass_ci99"] = [report.mass_low, report.mass_high]
    return result, None, []


def _estimate_kwargs(params, what) -> dict:
    """The ``eof_estimate`` options a config sets, read as ints."""
    return {key: read(params, key, what, int)
            for key in ("ensemble_size", "restarts", "iterations") if key in params}


def _run_eof(params, seed):
    rho = state_from_json(read(params, "state", "eof", dict))
    est = eof_estimate(rho, seed=seed, **_estimate_kwargs(params, "eof"))
    result = _fields(est, drop=("decomposition",))
    result["decomposition"] = {
        "weights": list(est.decomposition.weights),
        "members": [pure_to_json(m) for m in est.decomposition.members],
    }
    return result, None, []


def _run_dilute_pure(params, seed):
    what = "dilute-pure"
    if "schmidt" in params:
        schmidt = Spectrum(read_list(params, "schmidt", what, float))
    elif "amplitudes" in params:
        schmidt = pure_from_json(params).schmidt
    else:
        raise SchemaError(f"{what}: provide 'schmidt' values or an amplitude matrix")
    delta = read(params, "delta", what, float)
    n_grid = read_list(params, "n_grid", what, int)
    mode = read(params, "mode", what, str, "exact")
    samples = read(params, "samples", what, int, 100_000)
    traces = dilution_sweep(schmidt, delta, n_grid, mode=mode, samples=samples,
                            seed=seed)
    result = {"delta": delta, "mode": mode, "points": [_fields(t) for t in traces]}
    return result, ("n", "ebits", "cbits", "error", "rate"), traces


def _run_dilute_mixed(params, seed):
    what = "dilute-mixed"
    ens = ensemble_from_json(read(params, "ensemble", what, dict))
    points = [mixed_dilution_rate(ens, n)
              for n in read_list(params, "n_cut_grid", what, int)]
    result = {"points": [_fields(p) for p in points]}
    return result, ("n_cut", "rate_bound", "wasteful_term", "delta_n"), points


def _run_converse(params, seed):
    what = "converse-bound"
    rho = state_from_json(read(params, "state", what, dict))
    ham = hamiltonian_from_json(read(params, "hamiltonian", what, dict))
    r = read(params, "r", what, float)
    n = read(params, "n", what, int)
    est_kwargs = _estimate_kwargs(params, what)
    reports = _converse(rho, r, read_list(params, "epsilon_grid", what, float), ham, n,
                        seed=seed, **est_kwargs)
    # r and n are the same at every point, so they are reported once
    result = {"r": r, "n": n,
              "points": [_fields(rep, drop=("n", "r", "energy")) for rep in reports]}
    header = ("epsilon", "n", "lhs_ebits", "ef_surrogate_bits", "continuity_term_bits",
              "g_term_bits", "rate_lower_bound", "slack_bits")
    return result, header, reports


def _run_majorization(params, seed):
    what = "majorization-check"
    trials = read(params, "trials", what, int)
    max_dim = read(params, "max_dim", what, int, 4)
    report = majorization_sweep(trials, max_dim=max_dim, seed=seed)
    if report.failures:
        raise CliFailure(EXIT_INVARIANT, "invariant",
                         f"majorization condition violated in "
                         f"{report.failures} of {report.trials} trials "
                         f"(min margin {report.min_margin:.3e})")
    return _fields(report), None, []


def _run_gibbs(params, seed):
    ham = hamiltonian_from_json(read(params, "hamiltonian", "gibbs", dict))
    if ("beta" in params) == ("energy" in params):
        raise SchemaError("gibbs: provide exactly one of 'beta' or 'energy'")
    if "beta" in params:
        point = gibbs_point(ham, read(params, "beta", "gibbs", float))
    else:
        point = beta_of_energy(ham, read(params, "energy", "gibbs", float))
    if not np.isfinite(point.beta):
        raise SchemaError("gibbs: the requested point sits at beta = inf; "
                          "query a positive energy instead")
    head = _checked_int(read(params, "spectrum_head", "gibbs", int, 8), "spectrum_head", 0)
    spec = gibbs_state(ham, point.beta)
    result = _fields(point)
    result["spectrum_head"] = list(spec.values[:head])
    # the tail's own mass plus the stored levels past the head, correctly
    # rounded; 1 minus the head would cancel to 0 when the head holds nearly all
    result["tail_mass_beyond_head"] = math.fsum([spec.tail_mass, *spec.values[head:]])
    return result, None, []


_HANDLERS = {
    "entropy": _run_entropy,
    "typicality": _run_typicality,
    "eof": _run_eof,
    "dilute-pure": _run_dilute_pure,
    "dilute-mixed": _run_dilute_mixed,
    "converse-bound": _run_converse,
    "majorization-check": _run_majorization,
    "gibbs": _run_gibbs,
}
COMMANDS = tuple(sorted(_HANDLERS))


# ---------------------------------------------------------------------------
# config handling and artifact writing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliFailure(EXIT_IO, "io", f"cannot read config: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliFailure(EXIT_SCHEMA, "schema",
                         f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliFailure(EXIT_SCHEMA, "schema", "config must be a JSON object")
    return obj


def _csv_text(header, reports) -> str:
    lines = [",".join(header)]
    for report in reports:
        lines.append(",".join(_fmt(getattr(report, name)) for name in header))
    return "\n".join(lines) + "\n"


def _write_artifact(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliFailure(EXIT_IO, "io", f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    # every path prints the version: --version, the artifact and the error record
    version = _version_string()
    parser = _Parser(
        prog="entcost",
        description="Finite-truncation entanglement cost toolkit.")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="subcommand; may instead come from the config")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (overrides config)")
    parser.add_argument("--out", default=None,
                        help="artifact path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="fmt", help="artifact format")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility and unused; must be"
                             " >= 1 (default: ENTCOST_THREADS or 1)")
    parser.add_argument("--version", action="version", version=version)

    try:
        args = parser.parse_args(argv)
        if args.config is None:
            raise CliFailure(EXIT_SCHEMA, "schema", "--config is required")
        config = _load_config(args.config)

        command = args.command or read(config, "command", "config", str, None)
        if command not in _HANDLERS:
            raise CliFailure(EXIT_SCHEMA, "schema",
                             f"unknown or missing command {command!r}")
        # a config without a "command" key is the params object itself
        params = read(config, "params", "config", dict,
                      config if "command" not in config else {})
        seed = args.seed
        if seed is None:
            seed = read(config, "seed", "config", int, 0)

        threads = args.threads
        if threads is None:
            try:
                threads = int(os.environ.get("ENTCOST_THREADS", "1"))
            except ValueError:
                threads = os.environ["ENTCOST_THREADS"]  # not an integer: reported below
        _checked_int(threads, "--threads and ENTCOST_THREADS", 1)

        out_path = args.out or read(config, "output_path", "config", str, None)
        result, header, reports = _HANDLERS[command](params, seed)

        summary = {
            "command": command,
            "params": _jsonable(params),
            "seed": seed,
            "version": version,
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
                         .isoformat(),
            "result": _jsonable(result),
        }
        try:
            summary_text = json.dumps(summary, sort_keys=True, indent=2,
                                      allow_nan=False) + "\n"
        except ValueError as exc:
            raise CliFailure(EXIT_INVARIANT, "invariant",
                             "the artifact would hold a NaN value") from exc

        if args.fmt == "csv":
            if header is None:
                raise CliFailure(EXIT_SCHEMA, "schema",
                                 f"'{command}' has no tabular output; "
                                 "use --format json")
            csv_text = _csv_text(header, reports)
            if out_path:
                _write_artifact(out_path, csv_text)
                _write_artifact(out_path + ".json", summary_text)
            else:
                sys.stdout.write(csv_text)
        else:
            if out_path:
                _write_artifact(out_path, summary_text)
            else:
                sys.stdout.write(summary_text)
        return EXIT_OK
    except SchemaError as exc:
        fail = CliFailure(EXIT_SCHEMA, "schema", str(exc))
    except InvariantViolation as exc:
        fail = CliFailure(EXIT_INVARIANT, "invariant", str(exc))
    except (TypeError, ValueError, MemoryError) as exc:
        # a size too large to allocate is a value out of range, not a crash
        fail = CliFailure(EXIT_SCHEMA, "schema", f"bad parameter value: {exc}")
    except CliFailure as exc:
        fail = exc
    record = {"error": {"kind": fail.kind, "message": str(fail),
                        "exit_code": fail.code},
              "version": version}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return fail.code


if __name__ == "__main__":
    sys.exit(main())
