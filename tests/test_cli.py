"""Command-line interface: schemas, exit codes, artifact reproducibility."""

import contextlib
import copy
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entcost import cli, dilution, eof, typicality
from entcost.cli import main
from entcost.jsonio import hamiltonian_from_json, matrix_to_pairs, state_from_json
from entcost.majorization import SweepReport

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


def test_strong_census_above_the_work_limit_is_invariant_error(tmp_path, capsys):
    # 2 377 299 (state, count) terms of the strong program
    cfg = _write(tmp_path, "c.json",
                 {"command": "typicality",
                  "params": {"dist": [0.25] * 4, "n": 1998, "delta": 0.3, "kind": "strong"}})
    assert main(["--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["kind"], err["exit_code"]) == ("invariant", 3)
    assert "use Monte Carlo mode" in err["message"]


def test_a_one_symbol_strong_census_at_the_largest_block_length(tmp_path, capsys):
    # the schema takes n up to 2^63 - 1; the strong program raised a raw
    # OverflowError there, bisecting a range of 2^63 counts
    cfg = _write(tmp_path, "c.json",
                 {"command": "typicality",
                  "params": {"dist": [1.0], "n": 2 ** 63 - 1, "delta": 0.1, "kind": "strong"}})
    assert main(["--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["mass"], result["log2_cardinality_bound"]) == (1.0, 0.0)


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


def _one_record(captured, code: int) -> dict:
    """The failure record: nothing on stdout, and one strict-JSON line on stderr."""
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    record = json.loads(captured.err, parse_constant=lambda token: pytest.fail(token))
    assert record["error"]["exit_code"] == code
    return record["error"]


@pytest.mark.parametrize("config, code", [
    ([{"command": "entropy", "params": {"spectrum": {"values": [1.0]}}}], 2),
    ({"command": "dilute-pure", "params": {"delta": 0.05, "n_grid": [5]}}, 2),
    ({"command": "typicality",
      "params": {"dist": [0.5, 0.5], "n": 5, "delta": 0.1, "kind": "medium"}}, 2),
    # exact mode never reads samples, but checks it as Monte Carlo mode does
    ({"command": "typicality",
      "params": {"dist": [0.5, 0.5], "n": 5, "delta": 0.1, "samples": 0}}, 2),
    ({"command": "dilute-pure",
      "params": {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [5], "samples": 0}}, 2),
])
def test_a_refused_config_writes_one_record(tmp_path, capsys, config, code):
    assert main(["--config", _write(tmp_path, "c.json", config)]) == code
    _one_record(capsys.readouterr(), code)


def test_an_unwritable_artifact_is_an_io_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "entropy", "params": {"spectrum": {"values": [1.0]}}})
    out = tmp_path / "no-such-directory" / "a.json"
    assert main(["--config", cfg, "--out", str(out)]) == 4
    assert _one_record(capsys.readouterr(), 4)["kind"] == "io"
    assert not out.parent.exists()


def test_csv_without_an_out_path_goes_to_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"command": "dilute-pure",
                  "params": {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [5, 10]}})
    assert main(["--config", cfg, "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "n,ebits,cbits,error,rate"
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "10"]
    assert [path.name for path in tmp_path.iterdir()] == ["c.json"]  # no sidecar


def test_a_distribution_summing_past_the_float_range_prints_only_its_record(tmp_path):
    # NumPy's "overflow encountered in reduce" warning reached stderr before
    # the record
    cfg = _write(tmp_path, "c.json", {"command": "typicality",
                                      "params": {"dist": [1e308, 1e308], "n": 5, "delta": 0.1}})
    proc = subprocess.run(RUN + ["--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    err = json.loads(proc.stderr)["error"]
    assert (err["kind"], err["message"]) == ("invariant", "probabilities sum to inf")


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


@pytest.mark.parametrize("mode, samples", [("exact", 0), ("mc", 1000)])
def test_dilute_pure_points_carry_an_error_upper_bound(tmp_path, capsys, mode, samples):
    params = {"schmidt": [0.8, 0.2], "delta": 0.1, "n_grid": [100, 2000], "mode": mode}
    if samples:
        params["samples"] = samples
    cfg = _write(tmp_path, "c.json", {"command": "dilute-pure", "params": params})
    assert main(["--config", cfg]) == 0
    points = json.loads(capsys.readouterr().out)["result"]["points"]
    for point in points:
        assert point["error"] <= point["error_high"] <= 1.0
        if mode == "exact":
            assert point["error_high"] == point["error"]
    if mode == "mc":
        # the point estimate at n = 2000 reads 0.0; the bound does not
        assert points[1]["error"] == 0.0
        assert points[1]["error_high"] == pytest.approx(0.0726932324188, rel=1e-11)


@pytest.mark.parametrize("dist", [[1.0], [1.0, 0.0]])
def test_point_mass_entropy_prints_no_signed_zero(tmp_path, capsys, dist):
    cfg = _write(tmp_path, "c.json",
                 {"command": "typicality",
                  "params": {"dist": dist, "n": 5, "delta": 0.1}})
    assert main(["--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "-0.0" not in text
    bits = json.loads(text)["result"]["entropy_bits"]
    assert bits == 0.0 and math.copysign(1.0, bits) == 1.0


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


def test_gibbs_tail_mass_beyond_head_does_not_cancel(tmp_path, capsys):
    # 1 minus the head read 0.0 here
    cfg = _write(tmp_path, "c.json", {"command": "gibbs", "params": {
        "hamiltonian": {"energies": [float(n) for n in range(8)],
                        "tail_model": {"kind": "affine", "a": 1.0, "b": 0.0}},
        "beta": 10.0, "spectrum_head": 4}})
    assert main(["--config", cfg]) == 0
    got = json.loads(capsys.readouterr().out)["result"]["tail_mass_beyond_head"]
    want = math.exp(-40.0)
    assert abs(got - want) <= 1e-13 * want


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


def test_eof_on_two_qubits_is_wootters_through_cli(tmp_path, capsys):
    # a rank-2 two-qubit state with the default 4 slots takes Wootters'
    # decomposition: the exact value, and no annealing restart
    cfg = _write(tmp_path, "c.json", {"command": "eof", "seed": 5,
                                      "params": {"state": _STATE}})
    assert main(["--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    want = eof.wootters_eof(state_from_json(_STATE))
    assert abs(result["upper_bound_bits"] - want) <= 1e-12
    assert (result["restarts"], result["converged"]) == (0, True)


_LEDGER_CONFIGS = [
    {"schmidt": [0.8, 0.2], "delta": 0.05, "n_grid": [10, 84, 300, 1000]},
    # 1 - mass <= 1e-6 at n = 300: the error sums the cut types directly
    {"schmidt": [0.75, 0.25], "delta": 0.3, "n_grid": [300, 151]},
    {"schmidt": [0.5, 0.3, 0.2], "delta": 0.1, "n_grid": [50, 80], "mode": "mc",
     "samples": 5000},
]


def test_dilute_pure_artifacts_are_pinned(tmp_path):
    # JSON, CSV and sidecar of each config, less the timestamp and the
    # version (which carries the git hash); digests taken while the ledger
    # still had a private driver behind dilution_sweep
    digests = []
    for i, params in enumerate(_LEDGER_CONFIGS):
        cfg = _write(tmp_path, f"c{i}.json", {"command": "dilute-pure", "params": params})
        summary, rows = tmp_path / f"s{i}.json", tmp_path / f"r{i}.csv"
        assert main(["--config", cfg, "--seed", "4", "--out", str(summary)]) == 0
        assert main(["--config", cfg, "--seed", "4", "--format", "csv",
                     "--out", str(rows)]) == 0
        seen = hashlib.sha256()
        for path in (summary, rows, Path(f"{rows}.json")):
            seen.update("\n".join(
                line for line in path.read_text().splitlines()
                if '"timestamp"' not in line and '"version"' not in line).encode())
        digests.append(seen.hexdigest())
    assert digests == [
        "4cc44ca3cd877e869696853a1fc2b27be8495b94bdb579faf3e04a51c557747e",
        "70f021d843124cd0b8896b6810f0c2dbbdfef7a5942ee9dcc578bd3fd6083f85",
        "c8e9262d3e105156735c72ddcc0876c3dc9948dcebb809fb520020091e2774e8"]


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


def test_majorization_violation_exits_3_and_writes_no_artifact(tmp_path, monkeypatch,
                                                              capsys):
    def violated(trials, max_dim, seed):
        return SweepReport(trials, 1, -1e-3, 0, 0.0, seed)

    monkeypatch.setattr(cli, "majorization_sweep", violated)
    cfg = _write(tmp_path, "c.json", {"command": "majorization-check", "seed": 3,
                                      "params": {"trials": 4, "max_dim": 3}})
    out_path = tmp_path / "out.json"
    assert main(["--config", cfg, "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    record = json.loads(err)["error"]
    assert (record["kind"], record["exit_code"]) == ("invariant", 3)
    assert "1 of 4 trials" in record["message"]
    assert not out_path.exists()


def test_the_threads_environment_variable_is_ignored(tmp_path, monkeypatch):
    # ENTCOST_THREADS once set the default of the unused --threads
    cfg = _write(tmp_path, "c.json",
                 {"command": "majorization-check", "seed": 3,
                  "params": {"trials": 4, "max_dim": 3}})
    outs = []
    for value in ("0", "two"):
        monkeypatch.setenv("ENTCOST_THREADS", value)
        path = tmp_path / f"{value}.json"
        assert main(["--config", cfg, "--out", str(path)]) == 0
        outs.append(_strip_timestamp(path.read_text()))
    assert outs[0] == outs[1]


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
    # SciPy would be most of the import cost of a CLI launch, and no
    # command needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, entcost.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_NO_SCIPY = ("import runpy, sys; sys.modules['scipy'] = None; "
             "sys.argv = ['entcost'] + sys.argv[1:]; "
             "runpy.run_module('entcost.cli', run_name='__main__')")


@pytest.mark.parametrize("command, params", [
    ("typicality", {"dist": [0.8, 0.2], "n": 200, "delta": 0.05,
                    "kind": "weak", "mode": "mc", "samples": 5000}),
    ("typicality", {"dist": [0.5, 0.3, 0.2], "n": 60, "delta": 0.1,
                    "kind": "strong", "mode": "mc", "samples": 5000}),
    ("dilute-pure", {"schmidt": [0.8, 0.2], "delta": 0.1, "n_grid": [100, 200],
                     "mode": "mc", "samples": 5000}),
])
def test_monte_carlo_commands_run_without_scipy(tmp_path, command, params):
    # importing scipy fails in the child: no command may need it
    cfg = _write(tmp_path, "c.json", {"command": command, "params": params})
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout, parse_constant=lambda token: pytest.fail(token))
    assert out["command"] == command
    if command == "typicality":
        low, high = out["result"]["mass_ci99"]
        assert low <= out["result"]["mass"] <= high


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


@pytest.mark.parametrize("hamiltonian, beta", [
    ({"energies": [0.0, 1.0], "tail_model": {"kind": "affine", "a": 0.1, "b": 2.0}}, 5e-324),
    ({"energies": [0.0, 1.0, 2.0], "tail_model": {"kind": "affine", "a": 1.0, "b": 0.0}},
     1e-310),
])
def test_gibbs_at_subnormal_beta_exits_cleanly(hamiltonian, beta):
    # a ZeroDivisionError traceback, and exit 3 for a NaN energy and entropy
    code, out, err, caught = _run_main({"command": "gibbs", "params": {
        "hamiltonian": hamiltonian, "beta": beta}})
    assert (code, err, caught) == (0, "", [])
    result = json.loads(out, parse_constant=lambda token: pytest.fail(token))["result"]
    assert math.isfinite(result["entropy_bits"]) and result["entropy_bits"] > 1000.0
    assert result["energy"] == "inf"


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
    _with(_EOF, ("params", "ensemble_size"), 2 ** 50),
    _with(_EOF, ("params", "iterations"), 2 ** 50),
    _with(_CONVERSE, ("params", "iterations"), 2 ** 50),
    _with(_EOF, ("params", "restarts"), 2 ** 50),
    _with(_EOF, ("params", "restarts"), -1),
    _with(_CONVERSE, ("params", "restarts"), 2 ** 50),
    _with(_CONVERSE, ("params", "restarts"), -1),
    _with(_EOF, ("params", "iterations"), -1),
    _with(_CONVERSE, ("params", "iterations"), -1),
    _with(_EOF, ("params", "iterations"), 100_001),
    _with(_EOF, ("params", "ensemble_size"), 257),
    _with(_CONVERSE, ("params", "ensemble_size"), 257),
    {"command": "majorization-check", "params": {"trials": 2 ** 50, "max_dim": 3}},
    {"command": "majorization-check", "params": {"trials": 1, "max_dim": 17}},
])
def test_config_value_of_wrong_type_or_range_is_schema_error(config):
    # each of these ran on a coerced value (1.9 as 1, "1" as 1.0, a scalar
    # as a one-level list) or raised a traceback (r n = inf, an integer
    # beyond the float range, a number as output_path, a size of 2^50
    # elements, which no address space holds, so nothing is allocated),
    # or ran on a restart count outside [0, MAX_RESTARTS] (2^50 restarts
    # allocate nothing and never finish; -1 was printed as given), or on a
    # trial count above majorization.MAX_TRIALS (2^50 trials never finish),
    # or on iterations outside [0, eof.MAX_ITERATIONS] (-1 exited on a NumPy
    # message) or an ensemble_size above eof.MAX_ENSEMBLE_SIZE = 256, or on
    # a max_dim above majorization.MAX_DIM = 16
    code, out, err, _ = _run_main(config)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["kind"] == "schema"



@pytest.mark.parametrize("command", ["typicality", "dilute-pure"])
def test_monte_carlo_samples_above_the_limit_is_a_prompt_schema_error(command):
    # 2^40 samples ran until killed; the limit is checked before any draw
    start = time.perf_counter()
    code, out, err, _ = _run_main(_with(_FUZZ_BASES[command], ("params", "samples"), 2 ** 40))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["kind"] == "schema"
    assert str(typicality.MAX_SAMPLES) in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("config", [_EOF, _CONVERSE])
def test_ensemble_size_below_the_rank_is_invariant_error(config):
    # both estimate commands read ensemble_size; converse-bound ignored it
    code, out, err, _ = _run_main(_with(config, ("params", "ensemble_size"), 1))
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["kind"] == "invariant"


def test_empty_epsilon_grid_still_checks_the_estimate_options():
    # an empty grid returned before the estimate ran, so restarts -1 exited
    # 0 and was printed as given, where a one-point grid exits 2
    empty = _with(_with(_CONVERSE, ("params", "epsilon_grid"), []),
                  ("params", "ensemble_size"), 1)
    for restarts, code, kind in ((-1, 2, "schema"), (1, 3, "invariant")):
        got, out, err, _ = _run_main(_with(empty, ("params", "restarts"), restarts))
        assert (got, out) == (code, "")
        assert json.loads(err)["error"]["kind"] == kind
    code, out, err, _ = _run_main(_with(_CONVERSE, ("params", "epsilon_grid"), []))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["points"] == []


def test_converse_grid_takes_one_estimate(monkeypatch):
    # the formation term does not depend on epsilon: one estimate serves the
    # whole grid, and each point is the single-epsilon converse_bound
    grid = [1e-2, 1e-3, 1e-4]
    config = _with(_with(_CONVERSE, ("params", "epsilon_grid"), grid), ("params", "n"), 2)
    estimate, calls = eof.eof_estimate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)
    monkeypatch.setattr(eof, "eof_estimate", counted)
    code, out, _, _ = _run_main(config)
    monkeypatch.undo()
    assert (code, len(calls)) == (0, 1)
    params = config["params"]
    rho = state_from_json(params["state"])
    ham = hamiltonian_from_json(params["hamiltonian"])
    points = json.loads(out)["result"]["points"]
    assert points == [cli._jsonable(cli._fields(
        dilution.converse_bound(rho, params["r"], eps, ham, params["n"], seed=config["seed"],
                                restarts=params["restarts"], iterations=params["iterations"]),
        drop=("n", "r", "energy"))) for eps in grid]
