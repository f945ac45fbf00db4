"""Command-line interface: schemas, exit codes, artifact reproducibility."""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from entcost import cli
from entcost.cli import main

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
