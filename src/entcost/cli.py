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
from .dilution import converse_bound, dilution_sweep, mixed_dilution_rate
from .entropy import entropy_integral_closed_form, tail_sums, von_neumann_entropy
from .eof import eof_estimate
from .gibbs import beta_of_energy, gibbs_point, gibbs_state
from .jsonio import (
    SchemaError,
    ensemble_from_json,
    hamiltonian_from_json,
    pure_from_json,
    pure_to_json,
    spectrum_from_json,
    spectrum_to_json,
    state_from_json,
)
from .majorization import majorization_sweep
from .spectra import InvariantViolation, Spectrum
from .typicality import (
    SourceDistribution,
    strong_typical_mass,
    weak_typical_mass,
)

COMMANDS = ("converse-bound", "dilute-mixed", "dilute-pure", "entropy", "eof",
            "gibbs", "majorization-check", "typicality")

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


def _require(params: dict, key: str, types, what: str):
    if key not in params:
        raise SchemaError(f"{what}: missing required key '{key}'")
    value = params[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{what}: key '{key}' has the wrong type")
    return value


def _optional_int(params: dict, key: str, default: int, what: str) -> int:
    return _require(params, key, int, what) if key in params else default


def _int_list(params: dict, key: str, what: str) -> list:
    values = _require(params, key, list, what)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise SchemaError(f"{what}: every entry of '{key}' must be an integer")
    return values


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


class _VersionAction(argparse.Action):
    """``--version``: the git hash is resolved only when it is asked for."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0,
                         help="show the version and exit", **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(_version_string() + "\n")
        parser.exit()


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (params, seed) and returns
# (result_dict, csv_header_or_None, csv_rows)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _run_entropy(params, seed):
    spec = spectrum_from_json(_require(params, "spectrum", dict, "entropy"))
    bits = von_neumann_entropy(spec)
    result = {
        "entropy_bits": bits,
        "integral_closed_form_bits": entropy_integral_closed_form(spec),
        "tail_sums": list(tail_sums(spec, min(len(spec), 8))),
    }
    return result, None, []


def _run_typicality(params, seed):
    probs = _require(params, "dist", list, "typicality")
    n = _require(params, "n", int, "typicality")
    delta = _require(params, "delta", (int, float), "typicality")
    kind = params.get("kind", "weak")
    mode = params.get("mode", "exact")
    samples = _optional_int(params, "samples", 100_000, "typicality")
    if kind not in ("weak", "strong"):
        raise SchemaError("typicality: 'kind' must be 'weak' or 'strong'")
    if mode not in ("exact", "mc"):
        raise SchemaError("typicality: 'mode' must be 'exact' or 'mc'")
    dist = SourceDistribution(np.asarray(probs, dtype=float))
    fn = weak_typical_mass if kind == "weak" else strong_typical_mass
    report = fn(dist, n, float(delta), mode=mode, samples=samples, seed=seed)
    result = {
        "n": report.n, "delta": report.delta, "kind": report.kind,
        "mode": report.mode, "mass": report.mass,
        "log2_cardinality_bound": report.log2_cardinality_bound,
        "entropy_bits": dist.entropy_bits,
    }
    if report.mode == "mc":
        result["samples"] = report.samples
        result["mass_ci99"] = [report.mass_low, report.mass_high]
    return result, None, []


def _run_eof(params, seed):
    rho = state_from_json(_require(params, "state", dict, "eof"))
    kwargs = {"seed": seed}
    for key in ("ensemble_size", "restarts", "iterations"):
        if key in params:
            kwargs[key] = _require(params, key, int, "eof")
    est = eof_estimate(rho, **kwargs)
    result = {
        "upper_bound_bits": est.upper_bound_bits,
        "restarts": est.restarts,
        "converged": est.converged,
        "decomposition": {
            "weights": list(est.decomposition.weights),
            "members": [pure_to_json(m) for m in est.decomposition.members],
        },
    }
    return result, None, []


def _dilution_input(params, what):
    if "schmidt" in params:
        vals = _require(params, "schmidt", list, what)
        return Spectrum(np.asarray(vals, dtype=float))
    if "amplitudes" in params:
        psi = pure_from_json(params)
        return psi.schmidt
    raise SchemaError(f"{what}: provide 'schmidt' values or an amplitude matrix")


def _run_dilute_pure(params, seed):
    schmidt = _dilution_input(params, "dilute-pure")
    delta = float(_require(params, "delta", (int, float), "dilute-pure"))
    n_grid = _int_list(params, "n_grid", "dilute-pure")
    mode = params.get("mode", "exact")
    samples = _optional_int(params, "samples", 100_000, "dilute-pure")
    traces = dilution_sweep(schmidt, delta, n_grid, mode=mode,
                            samples=samples, seed=seed)
    rows = [[t.n, t.ebits, t.cbits, t.error, t.rate] for t in traces]
    result = {
        "delta": delta, "mode": mode,
        "points": [{"n": t.n, "ebits": t.ebits, "cbits": t.cbits,
                    "error": t.error, "rate": t.rate,
                    "error_kind": t.error_kind} for t in traces],
    }
    return result, ["n", "ebits", "cbits", "error", "rate"], rows


def _run_dilute_mixed(params, seed):
    ens = ensemble_from_json(_require(params, "ensemble", dict, "dilute-mixed"))
    grid = _int_list(params, "n_cut_grid", "dilute-mixed")
    points = [mixed_dilution_rate(ens, n) for n in grid]
    rows = [[p.n_cut, p.rate_bound, p.wasteful_term, p.delta_n] for p in points]
    result = {"points": [{"n_cut": p.n_cut, "rate_bound": p.rate_bound,
                          "wasteful_term": p.wasteful_term,
                          "delta_n": p.delta_n} for p in points]}
    return result, ["n_cut", "rate_bound", "wasteful_term", "delta_n"], rows


def _run_converse(params, seed):
    rho = state_from_json(_require(params, "state", dict, "converse-bound"))
    ham = hamiltonian_from_json(_require(params, "hamiltonian", dict,
                                         "converse-bound"))
    r = float(_require(params, "r", (int, float), "converse-bound"))
    n = _require(params, "n", int, "converse-bound")
    eps_grid = _require(params, "epsilon_grid", list, "converse-bound")
    est_kwargs = {"seed": seed}
    for key in ("restarts", "iterations"):
        if key in params:
            est_kwargs[key] = _require(params, key, int, "converse-bound")
    reports = [converse_bound(rho, r, float(eps), ham, int(n), **est_kwargs)
               for eps in eps_grid]
    rows = [[rep.epsilon, rep.n, rep.lhs_ebits, rep.ef_surrogate_bits,
             rep.continuity_term_bits, rep.g_term_bits,
             rep.rate_lower_bound, rep.slack_bits] for rep in reports]
    result = {"r": r, "n": int(n), "points": [{
        "epsilon": rep.epsilon, "lhs_ebits": rep.lhs_ebits,
        "ef_surrogate_bits": rep.ef_surrogate_bits,
        "surrogate_kind": rep.surrogate_kind,
        "continuity_term_bits": rep.continuity_term_bits,
        "g_term_bits": rep.g_term_bits,
        "rate_lower_bound": rep.rate_lower_bound,
        "slack_bits": rep.slack_bits} for rep in reports]}
    header = ["epsilon", "n", "lhs_ebits", "ef_surrogate_bits",
              "continuity_term_bits", "g_term_bits", "rate_lower_bound",
              "slack_bits"]
    return result, header, rows


def _run_majorization(params, seed):
    trials = _require(params, "trials", int, "majorization-check")
    max_dim = _optional_int(params, "max_dim", 4, "majorization-check")
    report = majorization_sweep(trials, max_dim=max_dim, seed=seed)
    result = {"trials": report.trials, "failures": report.failures,
              "min_margin": report.min_margin,
              "max_completeness_defect": report.max_completeness_defect,
              "seed": report.seed}
    if report.failures:
        raise CliFailure(EXIT_INVARIANT, "invariant",
                         f"majorization condition violated in "
                         f"{report.failures} of {report.trials} trials "
                         f"(min margin {report.min_margin:.3e})")
    return result, None, []


def _run_gibbs(params, seed):
    ham = hamiltonian_from_json(_require(params, "hamiltonian", dict, "gibbs"))
    if ("beta" in params) == ("energy" in params):
        raise SchemaError("gibbs: provide exactly one of 'beta' or 'energy'")
    if "beta" in params:
        beta = float(_require(params, "beta", (int, float), "gibbs"))
        point = gibbs_point(ham, beta)
    else:
        energy = float(_require(params, "energy", (int, float), "gibbs"))
        point = beta_of_energy(ham, energy)
    if not np.isfinite(point.beta):
        raise SchemaError("gibbs: the requested point sits at beta = inf; "
                          "query a positive energy instead")
    head = _optional_int(params, "spectrum_head", 8, "gibbs")
    if head < 0:
        raise SchemaError("gibbs: 'spectrum_head' must be >= 0")
    spec = gibbs_state(ham, point.beta)
    result = {"beta": point.beta, "energy": point.energy,
              "entropy_bits": point.entropy_bits,
              "spectrum_head": list(spec.values[:head]),
              "tail_mass_beyond_head": float(1.0 - np.sum(spec.values[:head]))}
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


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _write_artifact(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliFailure(EXIT_IO, "io", f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = _Parser(
        prog="entcost",
        description="Finite-truncation entanglement cost toolkit.")
    parser.add_argument("command", nargs="?", choices=sorted(COMMANDS),
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
    parser.add_argument("--version", action=_VersionAction)

    try:
        args = parser.parse_args(argv)
        if args.config is None:
            raise CliFailure(EXIT_SCHEMA, "schema", "--config is required")
        config = _load_config(args.config)

        command = args.command or config.get("command")
        if command not in _HANDLERS:
            raise CliFailure(EXIT_SCHEMA, "schema",
                             f"unknown or missing command {command!r}")
        params = config.get("params", config if "command" not in config
                            else {})
        if not isinstance(params, dict):
            raise CliFailure(EXIT_SCHEMA, "schema", "'params' must be an object")

        seed = args.seed
        if seed is None:
            seed = config.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise CliFailure(EXIT_SCHEMA, "schema", "'seed' must be an integer")

        threads = args.threads
        if threads is None:
            try:
                threads = int(os.environ.get("ENTCOST_THREADS", "1"))
            except ValueError:
                threads = 0  # reported as out of range below
        if threads < 1:
            raise CliFailure(EXIT_SCHEMA, "schema",
                             "--threads and ENTCOST_THREADS must be integers >= 1")

        out_path = args.out or config.get("output_path")

        try:
            result, header, rows = _HANDLERS[command](params, seed)
        except SchemaError as exc:
            raise CliFailure(EXIT_SCHEMA, "schema", str(exc)) from exc
        except InvariantViolation as exc:
            raise CliFailure(EXIT_INVARIANT, "invariant", str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise CliFailure(EXIT_SCHEMA, "schema",
                             f"bad parameter value: {exc}") from exc

        summary = {
            "command": command,
            "params": _jsonable(params),
            "seed": seed,
            "version": _version_string(),
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
            csv_text = _csv_text(header, rows)
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

    except CliFailure as fail:
        record = {"error": {"kind": fail.kind, "message": str(fail),
                            "exit_code": fail.code},
                  "version": _version_string()}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return fail.code


if __name__ == "__main__":
    sys.exit(main())
