"""Command-line surface: outputs, exit codes, reproducibility, schemas."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linecover
from linecover import (
    DensityField,
    NumericError,
    StopRule,
    StreamRng,
    build_chain,
    initial_positions,
    resolve_density,
    run_one,
    stationary,
)
from linecover.cli import entrypoint, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimal_uniform(capsys):
    code, out, _ = run_cli(capsys, ["optimal", "--density", "uniform", "--n", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["phi_star"] == pytest.approx(0.1, abs=1e-15)
    assert payload["positions"] == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9], abs=1e-13)


def test_optimal_quadratic_single(capsys):
    code, out, _ = run_cli(capsys, ["optimal", "--density", "quadratic", "--n", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["positions"][0] == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-12)
    assert payload["phi_star"] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_optimal_zero_agents_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["optimal", "--density", "uniform", "--n", "0"])
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_unknown_preset_is_parse_error(capsys):
    code, _, err = run_cli(capsys, ["optimal", "--density", "mystery", "--n", "3"])
    assert code == 3
    assert json.loads(err)["error"] == "parse"


@pytest.mark.parametrize("spec", [
    {"breakpoints": "abc", "coefficients": [[1.0]]},
    {"breakpoints": [0.0, 1.0], "coefficients": [["x"]]},
    {"breakpoints": [0.0, 1.0], "coefficients": 5},
    {"breakpoints": [0.0, 1.0], "coefficients": [[10**400]]},
])
def test_ill_typed_density_files_are_parse_errors(capsys, tmp_path, spec):
    path = tmp_path / "density.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, ["optimal", "--density", str(path), "--n", "3"])
    assert code == 3
    error = json.loads(err)
    assert error["error"] == "parse"
    assert error["message"].startswith("invalid density spec: ")


@pytest.mark.parametrize("spec,message", [
    ({"breakpoints": [0.0, 1.0], "coefficients": [[1.0]], "extra": 1},
     "density spec has unknown fields: ['extra']"),
    ({"breakpoints": [False, True], "coefficients": [[True]]},
     "invalid density spec: expected float, got False"),
], ids=["unknown-field", "booleans"])
def test_density_files_take_only_typed_known_fields(capsys, tmp_path, spec, message):
    # the scenario files' rule: no unknown fields, and a bool is no number
    path = tmp_path / "density.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, ["optimal", "--density", str(path), "--n", "2"])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "parse", "message": message}


@pytest.mark.parametrize("argv,kind", [
    (["simulate", "--scenario"], "scenario"),
    (["optimal", "--n", "3", "--density"], "density"),
])
@pytest.mark.parametrize("content,message", [
    (None, "cannot read {} file"),                  # a directory
    (b"\xff\xfe{}", "cannot read {} file"),          # not UTF-8 text
    (b"[" * 100_000, "{} file .* nests JSON too deeply"),
], ids=["directory", "not-utf8", "deep"])
def test_unreadable_input_files_are_parse_errors(capsys, tmp_path, argv, kind,
                                                 content, message):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, _, err = run_cli(capsys, argv + [str(path)])   # fails before any output
    assert code == 3
    error = json.loads(err)
    assert error["error"] == "parse"
    assert re.search(message.format(kind), error["message"])


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["optimal", "--wat", "1"])
    assert code == 2


def test_console_entrypoint_exits_with_main_code(capsys, monkeypatch):
    # pyproject.toml installs entrypoint() as the linecover script
    monkeypatch.setattr(sys, "argv", ["linecover", "optimal", "--n", "3"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 0
    assert "phi_star" in json.loads(capsys.readouterr().out)


def test_nonconverging_sweep_is_numeric_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "sweep", "--law", "static", "--density", "uniform", "--n-list", "8,9",
        "--runs", "1", "--init", "all-one", "--seed", "1",
        "--tol", "1e-12", "--max-rounds", "4", "--out-dir", str(tmp_path),
    ])
    assert code == 4
    assert json.loads(err)["error"] == "numeric"


def test_simulate_writes_trace_and_summary(capsys, tmp_path):
    argv = [
        "simulate", "--law", "static", "--density", "uniform", "--n", "15",
        "--init", "all-one", "--tol", "1e-4", "--seed", "3",
        "--out-dir", str(tmp_path), "--prefix", "fig4",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    summary = json.loads(out)
    assert summary["converged"] is True
    assert summary["stop_reason"] == "tol"

    with open(tmp_path / "fig4_trace.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t"] + [f"x_{i}" for i in range(1, 16)] + ["phi", "residual", "zsum"]
    assert len(rows) - 1 == summary["rounds"] + 1
    # static traces leave the mass column empty
    assert rows[1][-1] == ""

    # reruns reproduce the trace byte for byte
    first = (tmp_path / "fig4_trace.csv").read_bytes()
    code, out2, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out2)["rounds"] == summary["rounds"]
    assert (tmp_path / "fig4_trace.csv").read_bytes() == first


def test_simulate_static_many_agents_keeps_order(capsys, tmp_path):
    # used to exit 2 at round 87 with "agent positions must be nondecreasing"
    code, out, err = run_cli(capsys, [
        "simulate", "--law", "static", "--density", "quadratic", "--init", "all-one",
        "--n", "80", "--max-rounds", "100", "--out-dir", str(tmp_path),
    ])
    assert code == 0, err
    summary = json.loads(out)
    assert summary["rounds"] == 100
    assert summary["stop_reason"] == "max_rounds"


@pytest.mark.parametrize("law", ["static", "dynamic"])
def test_ordering_fault_inside_a_run_is_numeric(capsys, tmp_path, monkeypatch, law):
    # a step that swaps two agents is an internal fault; it used to raise
    # DomainError and exit 2 as if the caller's input were wrong
    module = linecover.static_law if law == "static" else linecover.lifted_chain
    name = "static_step" if law == "static" else "movement_step"
    real = getattr(module, name)

    def swapping(*args):
        out = real(*args)
        x = out if law == "static" else out.positions
        x[[0, -1]] = x[[-1, 0]]
        return out

    monkeypatch.setattr(module, name, swapping)
    x0 = initial_positions("random", 6, StreamRng(0, 6, 0), law=law)
    with pytest.raises(NumericError, match="order"):
        run_one(law, resolve_density("uniform"), x0, StopRule(tol=None, max_rounds=5))
    code, _, err = run_cli(capsys, ["simulate", "--law", law, "--n", "6",
                                    "--max-rounds", "5", "--out-dir", str(tmp_path)])
    assert code == 4
    assert json.loads(err)["error"] == "numeric"


def test_drifting_carried_masses_fail_the_final_coverage_check(capsys, tmp_path, monkeypatch):
    # moved agents take masses off by a relative 1e-6: every row stays
    # ordered and conserves z, so only the end-of-run recomputation sees it
    real = DensityField._cdf_scalar
    monkeypatch.setattr(DensityField, "_cdf_scalar",
                        lambda self, x: real(self, x) * (1.0 + 1e-6))
    x0 = initial_positions("random", 6, StreamRng(0, 6, 0), law="dynamic")
    with pytest.raises(NumericError, match="carried masses drifted"):
        run_one("dynamic", resolve_density("uniform"), x0, StopRule(tol=None, max_rounds=30))
    code, _, err = run_cli(capsys, ["simulate", "--law", "dynamic", "--n", "6",
                                    "--max-rounds", "30", "--out-dir", str(tmp_path)])
    assert code == 4
    assert json.loads(err)["error"] == "numeric"


def test_simulate_dynamic_records_mass(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "simulate", "--law", "dynamic", "--density", "quadratic", "--n", "5",
        "--init", "random", "--seed", "11", "--tol", "1e-6",
        "--variant", "uniformized", "--rule", "split",
        "--out-dir", str(tmp_path), "--prefix", "dyn",
    ])
    assert code == 0
    summary = json.loads(out)
    assert summary["converged"] is True
    with open(tmp_path / "dyn_trace.csv") as handle:
        rows = list(csv.reader(handle))
    zsums = [float(row[-1]) for row in rows[1:]]
    total = 1.0 / 3.0
    assert max(abs(z - total) for z in zsums) <= 1e-12 * total


def test_simulate_dynamic_rejects_estimate_below_n(capsys, tmp_path):
    # agents 9 and 10 never get the token; this used to run to max_rounds
    code, _, err = run_cli(capsys, [
        "simulate", "--law", "dynamic", "--density", "quadratic", "--init", "random",
        "--n", "10", "--big-u", "8", "--max-rounds", "2000", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    assert not (tmp_path / "simulate_trace.csv").exists()


@pytest.mark.parametrize("command", [["simulate", "--n", "5"],
                                     ["sweep", "--n-list", "5,10", "--runs", "1"]])
def test_estimate_zero_names_u(capsys, tmp_path, command):
    # the dynamic law's stop persistence is U rounds; a bad U must be
    # reported as U, not as the stop rule it would have built
    code, _, err = run_cli(capsys, command + ["--law", "dynamic", "--big-u", "0",
                                              "--out-dir", str(tmp_path)])
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "U = 0" in error["message"]


@pytest.mark.parametrize("command", [["simulate", "--n", "5"],
                                     ["sweep", "--n-list", "5,10", "--runs", "1"]])
@pytest.mark.parametrize("flags,fields", [
    (["--big-u", "0"], ["U"]), (["--variant", "figure2"], ["variant"]),
    (["--rule", "pair"], ["rule"]),
    (["--big-u", "0", "--variant", "figure2", "--rule", "pair"], ["U", "variant", "rule"]),
])
def test_static_law_rejects_dynamic_fields(capsys, tmp_path, command, flags, fields):
    # the static law has no chain, token or movement rule to use them
    code, _, err = run_cli(capsys, command + ["--law", "static", *flags,
                                              "--max-rounds", "5", "--out-dir", str(tmp_path)])
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "usage"
    assert str(fields) in error["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["simulate", "--n", "5"],
                                     ["sweep", "--n-list", "5,10", "--runs", "1"]])
def test_static_scenario_file_fields(capsys, tmp_path, command):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"law": "static", "max_rounds": 5, "U": 7}))
    argv = command + ["--scenario", str(path), "--out-dir", str(tmp_path)]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "['U']" in json.loads(err)["message"]
    # every dynamic-law field at its default value is no conflict
    path.write_text(json.dumps({"law": "static", "max_rounds": 5000, "U": None,
                                "variant": "uniformized", "rule": "split"}))
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["scenario"]["U"] is None


def test_sweep_ignores_the_simulate_agent_count(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "sweep", "--n", "1", "--n-list", "5,10", "--runs", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 0, err


@pytest.mark.parametrize("argv", [["--n-list", "5"], ["--n-list", "5,5"],
                                  ["--n-list", "5,10", "--positions", "0.1,0.2"]])
def test_sweep_rejects_one_agent_count_and_positions(capsys, tmp_path, argv):
    # one distinct n gives no slope to fit, and sweep never reads positions
    code, _, err = run_cli(capsys, ["sweep", *argv, "--runs", "1",
                                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    assert not (tmp_path / "sweep_sweep.csv").exists()


def test_simulate_explicit_positions(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "simulate", "--law", "static", "--density", "uniform",
        "--positions", "0.2,0.6", "--tol", "1e-8",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert json.loads(out)["final_phi"] == pytest.approx(0.25, abs=1e-3)


@pytest.mark.parametrize("n_flag", [[], ["--n", "3"]])
def test_simulate_echoes_the_positions_count(capsys, tmp_path, n_flag):
    # used to echo the flag's n, or the default 5, while running 3 agents
    code, out, err = run_cli(capsys, ["simulate", "--positions", "0.1,0.5,0.9", *n_flag,
                                      "--max-rounds", "3", "--out-dir", str(tmp_path)])
    assert code == 0, err
    assert json.loads(out)["scenario"]["n"] == 3


@pytest.mark.parametrize("flags,file", [
    (["--n", "7", "--positions", "0.1,0.5,0.9"], None),
    ([], {"n": 7, "positions": [0.1, 0.5, 0.9]}),
], ids=["flags", "file"])
def test_simulate_rejects_n_other_than_the_positions_count(capsys, tmp_path, flags, file):
    if file is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(file))
        flags = [*flags, "--scenario", str(path)]
    code, _, err = run_cli(capsys, ["simulate", *flags, "--out-dir", str(tmp_path)])
    assert code == 2
    assert json.loads(err)["message"] == "n = 7 does not match the 3 positions given"
    assert not (tmp_path / "simulate_summary.json").exists()


def test_scenario_file_round_trip(capsys, tmp_path):
    scenario = {"law": "dynamic", "density": "uniform", "n": 4, "init": "random",
                "seed": 9, "tol": 1e-5, "max_rounds": 5000,
                "U": 4, "variant": "uniformized", "rule": "split"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario, sort_keys=True))
    code, out, _ = run_cli(capsys, [
        "simulate", "--scenario", str(path), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    parsed = json.loads(out)["scenario"]
    merged = dict(scenario)
    merged["positions"] = None
    assert parsed == merged


@pytest.mark.parametrize("flag", ["--tol=0", "--tol=-1e-3", "--max-rounds=0"])
def test_bad_stop_values_are_usage_errors(capsys, tmp_path, flag):
    code, _, err = run_cli(capsys, ["simulate", "--n", "4", flag,
                                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_scenario_parse_errors(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, ["simulate", "--scenario", str(path)])
    assert code == 3
    path.write_text(json.dumps({"law": "static", "frobnicate": 1}))
    code, _, err = run_cli(capsys, ["simulate", "--scenario", str(path)])
    assert code == 3
    assert "frobnicate" in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--positions", "0.1,abc"],
    ["sweep", "--n-list", "5,x"],
    ["simulate", "--positions", "0.1,nan,0.5"],
])
def test_malformed_flags_are_usage_errors(capsys, tmp_path, argv):
    code, _, _ = run_cli(capsys, argv + ["--max-rounds", "10", "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("key,value", [("n", "abc"), ("positions", "abc"), ("tol", "x"),
                                       ("n", 5.5), ("n", True)])
def test_ill_typed_scenario_values_are_parse_errors(capsys, tmp_path, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: value}))
    code, _, err = run_cli(capsys, ["simulate", "--scenario", str(path),
                                    "--out-dir", str(tmp_path)])
    assert code == 3
    error = json.loads(err)
    assert error["error"] == "parse"
    assert repr(key) in error["message"]


@pytest.mark.parametrize("argv,code", [
    (["simulate", "--positions", "0.1,abc"], 2),
    (["simulate", "--scenario", "bad.json"], 3),
    (["sweep", "--law", "static", "--init", "all-one", "--n-list=-1,5", "--runs", "1"], 2),
    (["optimal", "--n", "3", "--density", "density.json"], 3),
    (["optimal", "--n", "3", "--density", "bool_density.json"], 3),
])
def test_malformed_input_exits_without_traceback(tmp_path, argv, code):
    (tmp_path / "bad.json").write_text(json.dumps({"n": "abc"}))
    (tmp_path / "density.json").write_text(json.dumps({"breakpoints": [0.0, 1.0],
                                                       "coefficients": 5}))
    (tmp_path / "bool_density.json").write_text(json.dumps({"breakpoints": [False, True],
                                                            "coefficients": [[True]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(linecover.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "linecover.cli", *argv],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def test_scenario_values_take_their_field_type(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n": 4.0, "tol": 1, "max_rounds": 50.0, "U": None,
                                "positions": None}))
    code, out, _ = run_cli(capsys, ["simulate", "--scenario", str(path),
                                    "--out-dir", str(tmp_path)])
    assert code == 0
    echoed = json.loads(out)["scenario"]
    assert type(echoed["n"]) is int and echoed["n"] == 4
    assert type(echoed["tol"]) is float and echoed["tol"] == 1.0
    assert type(echoed["max_rounds"]) is int


def _crlf_bytes(header, rows) -> bytes:
    """The CSV rule: cells joined by commas, floats as format(v, ".17g"), CRLF."""
    lines = [header] + [[c if isinstance(c, str) else format(c, ".17g") for c in row]
                        for row in rows]
    return b"".join(",".join(cells).encode() + b"\r\n" for cells in lines)


@pytest.mark.parametrize("law,positions", [("static", [0.2, 0.6]),
                                           ("dynamic", [0.1, 0.4, 0.8])])
def test_trace_csv_golden_bytes(capsys, tmp_path, law, positions):
    code, _, _ = run_cli(capsys, [
        "simulate", "--law", law, "--density", "quadratic", "--max-rounds", "3",
        "--positions", ",".join(map(str, positions)), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    n = len(positions)
    trace = run_one(law, resolve_density("quadratic"), np.array(positions),
                    StopRule(tol=1e-4, max_rounds=3))
    header = ["t"] + [f"x_{i}" for i in range(1, n + 1)] + ["phi", "residual", "zsum"]
    rows = [[str(row.t), *row.positions, row.phi, row.residual_sq,
             "" if row.zsum is None else row.zsum] for row in trace.rows]
    assert len(rows) == 4
    assert (tmp_path / "simulate_trace.csv").read_bytes() == _crlf_bytes(header, rows)


def test_chain_csv_golden_bytes(capsys, tmp_path):
    code, _, _ = run_cli(capsys, ["chain", "--n", "3", "--big-u", "3",
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    chain = build_chain(3, 3, "figure2")
    labels = ["z1", "z2", "z3", "z1p", "z2p", "z3p"]
    assert (tmp_path / "chain_K.csv").read_bytes() == _crlf_bytes(
        ["state"] + labels, [[name, *row] for name, row in zip(labels, chain.K)])
    assert (tmp_path / "chain_pi.csv").read_bytes() == _crlf_bytes(
        ["state", "pi"], [[name, v] for name, v in zip(labels, stationary(chain))])


def test_sweep_csv_schema(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "sweep", "--law", "static", "--density", "uniform",
        "--n-list", "4,6,8", "--runs", "2", "--init", "random", "--seed", "2",
        "--out-dir", str(tmp_path), "--prefix", "scal",
    ])
    assert code == 0
    summary = json.loads(out)
    assert {"slope", "intercept", "r_squared"} <= set(summary["fit"])
    with open(tmp_path / "scal_sweep.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n", "mean_rounds", "std_rounds", "runs"]
    assert [row[0] for row in rows[1:]] == ["4", "6", "8"]
    assert all(row[3] == "2" for row in rows[1:])


def test_spectral_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "spectral", "--k-min", "3", "--k-max", "12", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "spectral_spectrum.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["k", "lambda_2", "lambda_k", "bound", "margin"]
    assert len(rows) == 11
    k3 = rows[1]
    assert float(k3[1]) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(k3[2]) == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert all(float(row[4]) > 0.0 for row in rows[1:])


def test_chain_outputs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "chain", "--n", "3", "--big-u", "3", "--variant", "figure2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads(out)
    assert summary["stationarity_residual"] <= 1e-12
    assert summary["t_mix"] >= 1
    with open(tmp_path / "chain_K.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["state", "z1", "z2", "z3", "z1p", "z2p", "z3p"]
    row1 = [float(v) for v in rows[1][1:]]
    assert row1 == pytest.approx([0, 2 / 3, 0, 0, 1 / 3, 0], abs=1e-15)
    with open(tmp_path / "chain_pi.csv") as handle:
        pi_rows = list(csv.reader(handle))
    pis = [float(row[1]) for row in pi_rows[1:]]
    assert pis == pytest.approx([1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4, 1 / 8], abs=1e-12)


def test_chain_takes_no_movement_rule(capsys, tmp_path):
    # the chain diagnostics do not depend on the movement rule
    code, _, _ = run_cli(capsys, ["chain", "--n", "3", "--big-u", "3", "--rule", "pair",
                                  "--out-dir", str(tmp_path)])
    assert code == 2


def test_out_dir_env_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LINECOVER_OUT", str(tmp_path / "envout"))
    code, _, _ = run_cli(capsys, [
        "spectral", "--k-min", "3", "--k-max", "4",
    ])
    assert code == 0
    assert (tmp_path / "envout" / "spectral_spectrum.csv").exists()
