"""Command-line interface: schemas, exit codes, artifact reproducibility."""

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entcost import cli
from entcost.cli import main
from entcost.jsonio import matrix_to_pairs

RUN = [sys.executable, "-m", "entcost.cli"]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _strip_timestamp(text: str) -> list:
    return [line for line in text.splitlines() if '"timestamp"' not in line]


def test_entropy_command_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy",
                  "params": {"spectrum": {"values": [0.5, 0.5]}}})
    assert main(["--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["entropy_bits"] == pytest.approx(1.0, abs=1e-12)
    assert out["command"] == "entropy"


def test_command_from_argument_overrides_params_only_config(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"spectrum": {"values": [0.25, 0.25, 0.25, 0.25]}})
    assert main(["entropy", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["entropy_bits"] == pytest.approx(2.0, abs=1e-12)


def test_missing_config_is_schema_error(capsys):
    assert main(["entropy"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "schema"


def test_unreadable_config_is_io_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 4


def test_malformed_json_is_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2


def test_unknown_command_is_schema_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"command": "frobnicate", "params": {}})
    assert main(["--config", cfg]) == 2


def test_invariant_violation_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy",
                  "params": {"spectrum": {"values": [0.9, 0.3]}}})
    assert main(["--config", cfg]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "invariant"


def test_non_finite_distribution_is_invariant_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "typicality",
                  "params": {"dist": [float("nan"), 0.5], "n": 10, "delta": 0.1}})
    assert main(["--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "invariant"


def test_non_finite_spectrum_is_invariant_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy",
                  "params": {"spectrum": {"values": [float("nan")]}}})
    assert main(["--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "invariant"


def test_spectrum_with_positive_tail_is_invariant_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy",
                  "params": {"spectrum": {"values": [0.6, 0.4], "tail_mass": 1e-13}}})
    assert main(["--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("invariant", 3)


def test_nan_result_never_reaches_the_artifact(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "von_neumann_entropy", lambda spec: np.float64("nan"))
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy", "params": {"spectrum": {"values": [1.0]}}})
    out = tmp_path / "a.json"
    assert main(["--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("invariant", 3)


def test_infinite_result_is_a_string(tmp_path, capsys):
    # the (0.8, 0.2) window at n = 2 is empty, so its log2 size is -inf
    cfg = _write(tmp_path, "c.json",
                 {"command": "typicality",
                  "params": {"dist": [0.8, 0.2], "n": 2, "delta": 0.05}})
    assert main(["--config", cfg]) == 0
    text = capsys.readouterr().out
    out = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    assert out["result"]["log2_cardinality_bound"] == "-inf"
    assert out["result"]["mass"] == 0.0


@pytest.mark.parametrize("samples", [0, -5])
def test_monte_carlo_non_positive_samples_is_schema_error(tmp_path, capsys, samples):
    cfg = _write(tmp_path, "c.json",
                 {"command": "typicality",
                  "params": {"dist": [0.8, 0.2], "n": 10, "delta": 0.1,
                             "mode": "mc", "samples": samples}})
    assert main(["--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("schema", 2)


_EBIT_ENSEMBLE = {"weights": [1.0], "members": [{
    "dim_a": 2, "dim_b": 2,
    "amplitudes": [[0.5 ** 0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5 ** 0.5, 0.0]]}]}


@pytest.mark.parametrize("command, params", [
    ("gibbs", {"hamiltonian": {"energies": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]},
               "beta": 1.0, "spectrum_head": -3}),
    ("gibbs", {"hamiltonian": {"energies": [0.0, 1.0]}, "beta": 1.0,
               "spectrum_head": 2.0}),
    ("gibbs", {"hamiltonian": {"energies": [0.0, 1.0]}, "beta": 1.0,
               "spectrum_head": True}),
    ("typicality", {"dist": [0.8, 0.2], "n": 10, "delta": 0.1, "mode": "mc",
                    "samples": 1.9}),
    ("typicality", {"dist": [0.8, 0.2], "n": 10, "delta": 0.1, "mode": "mc",
                    "samples": "100"}),
    ("dilute-pure", {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [10],
                     "mode": "mc", "samples": 10.5}),
    ("dilute-pure", {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [5, 10.5]}),
    ("dilute-pure", {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [True]}),
    ("dilute-mixed", {"ensemble": _EBIT_ENSEMBLE, "n_cut_grid": [0, 1.5]}),
    ("dilute-mixed", {"ensemble": _EBIT_ENSEMBLE, "n_cut_grid": [False]}),
    ("majorization-check", {"trials": 2, "max_dim": 2.9}),
    ("majorization-check", {"trials": 2, "max_dim": True}),
])
def test_optional_integers_must_be_json_integers(tmp_path, capsys, command, params):
    cfg = _write(tmp_path, "c.json", {"command": command, "params": params})
    assert main(["--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("schema", 2)


def test_csv_requires_tabular_command(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy",
                  "params": {"spectrum": {"values": [1.0]}}})
    assert main(["--config", cfg, "--format", "csv"]) == 2


def test_dilute_pure_csv_artifact(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"command": "dilute-pure",
                  "params": {"schmidt": [0.8, 0.2], "delta": 0.05,
                             "n_grid": [5, 10]}})
    out = tmp_path / "rows.csv"
    assert main(["--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,ebits,cbits,error,rate"
    assert len(lines) == 3
    # the sidecar summary carries the same points
    sidecar = json.loads((tmp_path / "rows.csv.json").read_text())
    assert len(sidecar["result"]["points"]) == 2


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "majorization-check", "seed": 1,
                  "params": {"trials": 4, "max_dim": 3}})
    assert main(["--config", cfg, "--seed", "9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 9
    assert out["result"]["seed"] == 9


def test_gibbs_beta_energy_exclusivity(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "gibbs",
                  "params": {"hamiltonian": {"energies": [0.0, 1.0]},
                             "beta": 1.0, "energy": 0.3}})
    assert main(["--config", cfg]) == 2


def test_gibbs_energy_query(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "gibbs",
                  "params": {"hamiltonian": {"energies": [0.0, 1.0],
                                             "tail_model": {"kind": "none"}},
                             "energy": 0.3333333333333333}})
    assert main(["--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["beta"] == pytest.approx(np.log(2.0), rel=1e-7)


_LADDER = {"energies": [float(n) for n in range(64)],
           "tail_model": {"kind": "affine", "a": 1.0, "b": 0.0}}


@pytest.mark.parametrize("energy", [1e9, 1e16])
def test_gibbs_energy_query_at_high_energy(tmp_path, capsys, energy):
    # the bisection stalled at 1e9 (exit 3) and divided by zero at 1e16
    cfg = _write(tmp_path, "c.json", {"command": "gibbs",
                 "params": {"hamiltonian": _LADDER, "energy": energy}})
    assert main(["--config", cfg]) == 0
    text = capsys.readouterr().out
    out = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    want = math.log1p(1.0 / energy)
    assert abs(out["result"]["beta"] - want) <= 1e-13 * want
    assert abs(out["result"]["energy"] - energy) <= 1e-10 * energy


@pytest.mark.parametrize("command, params", [
    ("gibbs", {"hamiltonian": _LADDER, "energy": math.nan}),
    ("gibbs", {"hamiltonian": {"energies": [0.0, math.nan, 2.0]}, "beta": 1.0}),
    ("gibbs", {"hamiltonian": {"energies": [0.0, 1.0], "tail_model":
               {"kind": "affine", "a": 1.0, "b": math.nan}}, "beta": 1.0}),
])
def test_non_finite_gibbs_input_is_invariant_error(tmp_path, capsys, command, params):
    cfg = _write(tmp_path, "c.json", {"command": command, "params": params})
    assert main(["--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("invariant", 3)


@pytest.mark.parametrize("command, params", [
    ("typicality", {"dist": [0.8, 0.2], "n": 10, "delta": math.nan}),
    ("typicality", {"dist": [0.8, 0.2], "n": 10, "delta": math.nan, "kind": "strong"}),
    ("dilute-pure", {"schmidt": [0.8, 0.2], "delta": math.nan, "n_grid": [10]}),
])
def test_nan_delta_is_schema_error(tmp_path, capsys, command, params):
    cfg = _write(tmp_path, "c.json", {"command": command, "params": params})
    assert main(["--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("schema", 2)


def test_eof_round_trip_through_cli(tmp_path, capsys):
    mat = np.zeros((16, 2))
    for idx in (0, 3, 12, 15):
        mat[idx, 0] = 0.5
    cfg = _write(tmp_path, "c.json",
                 {"command": "eof", "seed": 5,
                  "params": {"state": {"dim_a": 2, "dim_b": 2,
                                       "matrix": mat.tolist()},
                             "restarts": 2, "iterations": 300}})
    assert main(["--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["upper_bound_bits"] == pytest.approx(1.0, abs=1e-6)
    weights = out["result"]["decomposition"]["weights"]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_rerun_byte_identical_across_threads(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"command": "majorization-check", "seed": 3,
                  "params": {"trials": 10, "max_dim": 3}})
    outs = []
    for threads, name in ((1, "a.json"), (4, "b.json"), (1, "c.json")):
        path = tmp_path / name
        assert main(["--config", cfg, "--threads", str(threads),
                     "--out", str(path)]) == 0
        outs.append(_strip_timestamp(path.read_text()))
    assert outs[0] == outs[1] == outs[2]


def test_env_thread_default(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "majorization-check", "seed": 3,
                  "params": {"trials": 4, "max_dim": 3}})
    monkeypatch.setenv("ENTCOST_THREADS", "2")
    assert main(["--config", cfg]) == 0
    monkeypatch.setenv("ENTCOST_THREADS", "0")
    assert main(["--config", cfg]) == 2


def test_non_integer_env_threads_is_schema_error(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "majorization-check", "seed": 3,
                  "params": {"trials": 2, "max_dim": 3}})
    monkeypatch.setenv("ENTCOST_THREADS", "two")
    assert main(["--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "schema"


@pytest.mark.parametrize("argv", [
    ["bogus", "--config", "x.json"],
    ["--config", "x.json", "--threads", "abc"],
    ["--config", "x.json", "--format", "xml"],
    ["--config", "x.json", "--no-such-flag"],
    ["--config"],
])
def test_bad_command_line_is_schema_record(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("schema", 2)


def test_bad_command_line_as_module_prints_only_the_record():
    proc = subprocess.run(RUN + ["bogus", "--config", "x.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["kind"] == "schema"


def test_version_string_is_built_only_when_used(tmp_path, monkeypatch, capsys):
    calls = []
    inner = cli._version_string
    monkeypatch.setattr(cli, "_version_string",
                        lambda: calls.append(1) or inner())
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy",
                  "params": {"spectrum": {"values": [0.5, 0.5]}}})
    assert main(["--config", cfg]) == 0
    assert len(calls) == 1  # the artifact's "version" field
    assert json.loads(capsys.readouterr().out)["version"] == inner()


def test_cli_import_does_not_load_scipy():
    # SciPy is most of the import cost of a CLI launch; only Monte Carlo
    # intervals load it, on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, entcost.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_version_runs_as_module():
    proc = subprocess.run(RUN + ["--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("entcost 0.1.0")


@pytest.mark.skipif(shutil.which("entcost") is None,
                    reason="entcost console script not on PATH")
def test_installed_entry_point_if_present(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy",
                  "params": {"spectrum": {"values": [0.5, 0.5]}}})
    proc = subprocess.run(["entcost", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["entropy_bits"] == pytest.approx(
        1.0, abs=1e-12)


_BELL = np.zeros((4, 4))
_BELL[np.ix_([0, 3], [0, 3])] = 0.5
# half a Bell state, half |01>: rank 2, so the convex-roof search runs
_STATE = {"dim_a": 2, "dim_b": 2,
          "matrix": matrix_to_pairs(0.5 * _BELL + 0.5 * np.diag([0, 1, 0, 0]))}
_SMALL_LADDER = {"energies": [0.0, 1.0], "tail_model": {"kind": "affine", "a": 1.0, "b": 0.0}}
_PRODUCT = {"dim_a": 2, "dim_b": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}

# one small valid config per command, and per gibbs query
_FUZZ_BASES = {name: {"command": name.split(":")[0], "seed": 1, "params": params}
               for name, params in [
    ("entropy", {"spectrum": {"values": [0.5, 0.3, 0.2], "tail_mass": 0.0}}),
    ("typicality", {"dist": [0.8, 0.2], "n": 6, "delta": 0.1, "kind": "strong",
                    "mode": "mc", "samples": 32}),
    ("eof", {"state": _STATE, "ensemble_size": 3, "restarts": 1, "iterations": 3}),
    ("dilute-pure", dict(_PRODUCT, schmidt=[0.8, 0.2], delta=0.1, n_grid=[2, 4],
                         mode="mc", samples=32)),
    ("dilute-mixed", {"ensemble": {"weights": [0.5, 0.5],
                                   "members": [_EBIT_ENSEMBLE["members"][0], _PRODUCT]},
                      "n_cut_grid": [0, 1]}),
    ("converse-bound", {"state": _STATE, "hamiltonian": _SMALL_LADDER, "r": 1.0, "n": 1,
                        "epsilon_grid": [0.01], "restarts": 1, "iterations": 3}),
    ("majorization-check", {"trials": 1, "max_dim": 2}),
    ("gibbs:beta", {"hamiltonian": _SMALL_LADDER, "beta": 1.0, "spectrum_head": 2}),
    ("gibbs:energy", {"hamiltonian": {"energies": [0.0, 1.0, 2.0]}, "energy": 0.5}),
]}
_JUNK = [True, "1", 1.5, -1, 0, math.inf, -math.inf, math.nan, [], {}, None]


def _paths(node, prefix=()):
    """Every (path to a container, key or index in it) below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _with(config: dict, path: tuple, value) -> dict:
    """A copy of ``config`` with the value at ``path`` replaced."""
    config = copy.deepcopy(config)
    node = config
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return config


@st.composite
def _fuzzed_configs(draw):
    """A base config with one key deleted or one value replaced by junk."""
    config = copy.deepcopy(draw(st.sampled_from(list(_FUZZ_BASES.values()))))
    prefix, key = draw(st.sampled_from(list(_paths(config))))
    parent = config
    for step in prefix:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
    return config


def _run_main(config: dict) -> tuple:
    """(exit code, stdout, stderr, warning messages) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["--config", str(path)])
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


_EOF, _CONVERSE = _FUZZ_BASES["eof"], _FUZZ_BASES["converse-bound"]
_OVERFLOWING_GIBBS = {"command": "gibbs", "params": {
    "hamiltonian": {"energies": [0.0, 1.0, 1e10]}, "beta": 1e300}}


@settings(max_examples=400, deadline=None)
@given(config=_fuzzed_configs())
# each of these printed a traceback or a RuntimeWarning
@example(_with(_EOF, ("params", "state", "matrix", 0), {}))
@example(_with(_EOF, ("params", "state", "dim_a"), math.inf))
@example(_with(_CONVERSE, ("params", "r"), math.inf))
@example(_with(_with(_CONVERSE, ("params", "r"), 1e308), ("params", "n"), 10))
@example(_with(_FUZZ_BASES["entropy"], ("command",), []))
@example(_with(_FUZZ_BASES["dilute-pure"], ("params", "delta"), math.inf))
@example(_with(_EOF, ("params", "state", "matrix", 3, 0), math.inf))
@example(_with(_FUZZ_BASES["dilute-mixed"], ("params", "ensemble", "weights", 1), math.nan))
@example(_OVERFLOWING_GIBBS)
def test_fuzzed_config_exits_cleanly(config):
    # exit 0 with strict JSON, or 2/3/4 with one error record; never a
    # traceback, never a warning
    code, out, err, caught = _run_main(config)
    assert caught == []
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=lambda token: pytest.fail(token))
    else:
        assert code in (2, 3, 4)
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["exit_code"] == code


@pytest.mark.parametrize("config", [
    {"command": "dilute-pure", "params": {"dim_a": 1.9, "dim_b": 2, "delta": 0.1,
                                          "amplitudes": [[0.6, 0.0], [0.8, 0.0]],
                                          "n_grid": [2]}},
    _with(_EOF, ("params", "state", "dim_a"), "2"),
    _with(_CONVERSE, ("params", "hamiltonian", "tail_model", "a"), "1"),
    _with(_CONVERSE, ("params", "hamiltonian", "tail_model", "b"), True),
    _with(_CONVERSE, ("params", "epsilon_grid"), ["0.01"]),
    _with(_CONVERSE, ("params", "r"), math.inf),
    _with(_with(_CONVERSE, ("params", "r"), 1e308), ("params", "n"), 10),
    _with(_CONVERSE, ("params", "n"), 10 ** 400),
    _with(_FUZZ_BASES["typicality"], ("params", "n"), 10 ** 400),
    _with(_FUZZ_BASES["dilute-pure"], ("params", "n_grid"), [10 ** 400]),
    _with(_FUZZ_BASES["entropy"], ("params", "spectrum", "values"), ["0.5", "0.3", "0.2"]),
    _with(_FUZZ_BASES["typicality"], ("params", "dist"), ["0.8", "0.2"]),
    _with(_FUZZ_BASES["gibbs:energy"], ("params", "hamiltonian", "energies"), 0),
    _with(_FUZZ_BASES["entropy"], ("output_path",), 1.5),
])
def test_config_value_of_wrong_type_or_range_is_schema_error(config):
    # each of these ran on a coerced value (1.9 as 1, "1" as 1.0, a scalar
    # as a one-level list) or raised a traceback (r n = inf, an integer
    # beyond the float range, a number as output_path)
    code, out, err, _ = _run_main(config)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["kind"] == "schema"

