"""Command-line surface: outputs, exit codes, reproducibility, schemas."""

import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from linecover.cli import _SCENARIO_DEFAULTS, entrypoint, main
from linecover.density import MAX_AGENTS
from linecover.lifted_chain import MOVEMENT_RULES, VARIANTS


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


HUGE = "100000000000000000000"   # 1e20 agents: no float64 array holds them


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", HUGE],
    ["simulate", "--n", HUGE, "--init", "all-one"],
    ["simulate", "--law", "dynamic", "--n", HUGE],
    ["simulate", "--law", "dynamic", "--n", HUGE, "--init", "all-one"],
    ["optimal", "--n", HUGE],
    ["chain", "--n", HUGE, "--big-u", "5"],
    ["sweep", "--n-list", f"5,{HUGE}", "--runs", "1"],
    ["sweep", "--law", "dynamic", "--n-list", f"200,{HUGE}", "--runs", "4"],
    ["simulate", "--scenario", "huge.json"],
], ids=["static", "static-all-one", "dynamic", "dynamic-all-one", "optimal", "chain",
        "sweep", "sweep-after-a-valid-count", "scenario"])
def test_agent_counts_beyond_any_array_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    # refused by the count's range check, before anything is allocated or
    # any run starts; a sweep checks every count before its first cell
    (tmp_path / "huge.json").write_text('{"n": 1e300}')
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LINECOVER_OUT", str(tmp_path))
    runs = []
    real = linecover.harness.run_one
    monkeypatch.setattr(linecover.harness, "run_one",
                        lambda *args, **kw: runs.append(1) or real(*args, **kw))
    code, _, err = run_cli(capsys, argv)
    assert (code, runs) == (2, [])
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "agents, got n = " in error["message"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--law", "static", "--n-list", "200,1", "--runs", "2"],
    ["sweep", "--law", "dynamic", "--n-list", "200,2", "--runs", "4"],
], ids=["static", "dynamic"])
def test_sweep_checks_each_law_minimum_before_any_cell(capsys, tmp_path, monkeypatch, argv):
    # 2 agents for the static law and 3 for the dynamic law, checked with the
    # range of every count before the first cell runs
    runs = []
    monkeypatch.setattr(linecover.harness, "run_one", lambda *args, **kw: runs.append(1))
    code, out, err = run_cli(capsys, argv + ["--out-dir", str(tmp_path)])
    assert (code, out, runs) == (2, "", [])
    error = json.loads(err)
    assert error["error"] == "usage"
    assert re.search(r"need [23] to \d+ agents, got n = [12]$", error["message"])


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    def out_of_memory(field, n):
        raise MemoryError(f"Unable to allocate an array for {n} agents")

    monkeypatch.setattr(linecover.cli, "optimal_configuration", out_of_memory)
    code, out, err = run_cli(capsys, ["optimal", "--n", "3"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage",
                               "message": "Unable to allocate an array for 3 agents"}


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


INPUT_FILES = {
    "list.json": [1, 2],
    "one_breakpoint.json": {"breakpoints": [0.0], "coefficients": []},
    "two_lists.json": {"breakpoints": [0.0, 1.0], "coefficients": [[1.0], [1.0]]},
    "no_coefficient.json": {"breakpoints": [0.0, 1.0], "coefficients": [[]]},
    "no_mass.json": {"breakpoints": [0.0, 1.0], "coefficients": [[-1e-13]]},
}


@pytest.mark.parametrize("argv,code,message", [
    (["simulate", "--positions", "0.5,0.2"], 2, "agent positions must be nondecreasing"),
    (["simulate", "--scenario", "list.json"], 3, "scenario file must hold a JSON object"),
    (["optimal", "--n", "3", "--density", "list.json"], 3, "density spec must be a JSON object"),
    (["optimal", "--n", "3", "--density", "one_breakpoint.json"], 3,
     "invalid density spec: breakpoints must be a 1-D list with at least 2 entries"),
    (["optimal", "--n", "3", "--density", "two_lists.json"], 3,
     "invalid density spec: expected 1 coefficient lists, got 2"),
    (["optimal", "--n", "3", "--density", "no_coefficient.json"], 3,
     "invalid density spec: segment 0: need 1..5 ascending-power coefficients"),
    (["optimal", "--n", "3", "--density", "no_mass.json"], 3,
     "invalid density spec: segment 0: segment mass must be positive"),
    (["spectral", "--k-min", "2"], 2, "need 3 <= k-min <= k-max"),
    (["spectral", "--k-min", "9", "--k-max", "8"], 2, "need 3 <= k-min <= k-max"),
    (["chain", "--n", "2", "--big-u", "5"], 2, f"need 3 to {MAX_AGENTS} agents, got n = 2"),
], ids=["positions-decrease", "scenario-not-an-object", "density-not-an-object",
        "one-breakpoint", "coefficient-lists-per-segment", "empty-coefficients", "no-mass",
        "k-min-below-3", "k-max-below-k-min", "chain-of-two-agents"])
def test_refused_inputs_exit_with_their_code(capsys, tmp_path, monkeypatch, argv, code,
                                             message):
    # each refusal prints one error object and writes nothing to stdout
    for name, data in INPUT_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LINECOVER_OUT", str(tmp_path))
    got, out, err = run_cli(capsys, argv)
    assert (got, out) == (code, "")
    assert json.loads(err) == {"error": "usage" if code == 2 else "parse", "message": message}


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
    # argparse's own failures print the JSON error object, not usage text
    for argv in (["optimal", "--wat", "1"], ["optimal", "--n", "3", "--wat", "1"], ["wat"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("argv,valid", [
    (["simulate", "--law", "bogus"], ("static", "dynamic")),
    (["simulate", "--law", "dynamic", "--variant", "bogus"], VARIANTS),
    (["simulate", "--law", "dynamic", "--rule", "bogus"], MOVEMENT_RULES),
    (["chain", "--n", "5", "--big-u", "5", "--variant", "bogus"], VARIANTS),
], ids=["law", "variant", "rule", "chain-variant"])
def test_law_variant_and_rule_are_checked_by_the_library(capsys, tmp_path, argv, valid):
    # the flags take any string; the library's check names the valid values
    code, out, err = run_cli(capsys, argv + ["--out-dir", str(tmp_path)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "usage"
    assert all(repr(value) in error["message"] for value in valid)
    assert not list(tmp_path.iterdir())


def _flag(field: str) -> str:
    return "--big-u" if field == "U" else "--" + field.replace("_", "-")


def test_simulate_help_names_every_run_flag(capsys):
    code, out, err = run_cli(capsys, ["simulate", "--help"])
    assert (code, err) == (0, "")
    for flag in ["--scenario", "--out-dir", "--prefix", *map(_flag, _SCENARIO_DEFAULTS)]:
        assert flag in out.split()


# a value other than the default for each scenario field
FLAG_VALUES = {"law": "dynamic", "density": "quadratic", "n": 4, "init": "all-one",
               "positions": [0.2, 0.5, 0.8], "seed": 7, "tol": 1e-3, "max_rounds": 30,
               "U": 7, "variant": "figure2", "rule": "pair"}


@pytest.mark.parametrize("field", list(_SCENARIO_DEFAULTS))
def test_every_scenario_field_is_a_flag(capsys, tmp_path, field):
    value = FLAG_VALUES[field]
    assert value != _SCENARIO_DEFAULTS[field][0]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    law = [] if field == "law" else ["--law", "dynamic"]   # U, variant and rule need it
    stop = [] if field == "max_rounds" else ["--max-rounds", "40"]
    code, out, err = run_cli(capsys, ["simulate", *law, *stop, _flag(field), text,
                                      "--out-dir", str(tmp_path)])
    assert code == 0, err
    echoed = json.loads(out)["scenario"][field]
    assert echoed == value and type(echoed) is type(value)
    if field == "positions":
        assert all(type(v) is float for v in echoed)


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


def test_sweep_whose_starts_all_meet_tol_is_usage_error(capsys, tmp_path):
    # nothing numeric failed: the caller's tol leaves no rounds to fit
    code, out, err = run_cli(capsys, ["sweep", "--n-list", "5,10", "--runs", "2",
                                      "--tol", "10", "--out-dir", str(tmp_path)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "n=5" in error["message"] and "tol=10.0" in error["message"]


def _uses_openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS, from its build configuration, which
    every numpy version since 1.24 prints with show_config."""
    import contextlib
    import io
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_config()
    return "openblas" in text.getvalue().lower()


@pytest.mark.skipif(not _uses_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_dynamic_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel for the CPU; Prescott runs on every x86-64 host.
    # Runs of the dynamic law and a dynamic sweep table must keep every bit,
    # and so must a sweep's log-log fit (np.polyfit's last digits moved here)
    env = dict(os.environ, PYTHONPATH=str(Path(linecover.__file__).parents[1]))
    env.pop("OPENBLAS_CORETYPE", None)
    outputs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        out = tmp_path / (kernel.get("OPENBLAS_CORETYPE") or "default")
        for argv in (["simulate", "--law", "dynamic", "--density", "quadratic", "--n", "200",
                      "--max-rounds", "3000"],
                     ["sweep", "--law", "dynamic", "--n-list", "10,20", "--runs", "4"],
                     ["sweep", "--law", "static", "--init", "all-one", "--n-list", "5,10,20",
                      "--runs", "2", "--prefix", "static"]):
            proc = subprocess.run([sys.executable, "-m", "linecover.cli", *argv, "--out-dir",
                                   str(out)], capture_output=True, text=True,
                                  env={**env, **kernel}, timeout=120)
            assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("simulate_trace.csv", "sweep_sweep.csv")])
        outputs[-1] += [json.loads((out / f"{prefix}_summary.json").read_text())["fit"]
                        for prefix in ("sweep", "static")]
    assert outputs[0] == outputs[1]


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
        x[..., [0, -1]] = x[..., [-1, 0]]   # in every round of a block of static rounds
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
    # ordered and conserves z, so only the end-of-run recomputation sees it.
    # n exceeds the largest array that cdf maps on the scalar path, so the
    # patched scalar kernel drifts the moves only, not the recomputation.
    n = linecover.density._SCALAR_MAX + 1
    real = DensityField._cdf_scalar
    monkeypatch.setattr(DensityField, "_cdf_scalar",
                        lambda self, x: real(self, x) * (1.0 + 1e-6))
    x0 = initial_positions("random", n, StreamRng(0, n, 0), law="dynamic")
    with pytest.raises(NumericError, match="carried masses drifted"):
        run_one("dynamic", resolve_density("uniform"), x0, StopRule(tol=None, max_rounds=30))
    code, _, err = run_cli(capsys, ["simulate", "--law", "dynamic", "--n", str(n),
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
    ["simulate", "--n", "x"],
    ["sweep", "--runs", "1"],   # --n-list missing
])
def test_malformed_flags_are_usage_errors(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, argv + ["--max-rounds", "10", "--out-dir", str(tmp_path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"


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


def test_cli_import_leaves_out_the_process_pool():
    # only a sweep with workers > 1 imports ProcessPoolExecutor
    env = dict(os.environ, PYTHONPATH=str(Path(linecover.__file__).parents[1]))
    code = "import sys, linecover.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


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


def _trace_bytes(trace) -> bytes:
    """The trace CSV of a run, every cell formatted from its row."""
    n = len(trace.rows[0].positions)
    header = ["t"] + [f"x_{i}" for i in range(1, n + 1)] + ["phi", "residual", "zsum"]
    rows = [[str(row.t), *row.positions, row.phi, row.residual_sq,
             "" if row.zsum is None else row.zsum] for row in trace.rows]
    return _crlf_bytes(header, rows)


@pytest.mark.parametrize("law,positions", [("static", [0.2, 0.6]),
                                           ("dynamic", [0.1, 0.4, 0.8])])
def test_trace_csv_golden_bytes(capsys, tmp_path, law, positions):
    code, _, _ = run_cli(capsys, [
        "simulate", "--law", law, "--density", "quadratic", "--max-rounds", "3",
        "--positions", ",".join(map(str, positions)), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    trace = run_one(law, resolve_density("quadratic"), np.array(positions),
                    StopRule(tol=1e-4, max_rounds=3))
    assert len(trace.rows) == 4
    assert (tmp_path / "simulate_trace.csv").read_bytes() == _trace_bytes(trace)


def test_trace_csv_keeps_the_sign_of_zero(capsys, tmp_path):
    # -0.0 == 0.0, yet they print as -0 and 0: the first agent's text must
    # change between rows 0 and 1 although its value does not
    code, _, _ = run_cli(capsys, [
        "simulate", "--law", "static", "--density", "uniform",
        "--positions=-0.0,0.0,0.5,1.0", "--max-rounds", "3", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    trace = run_one("static", resolve_density("uniform"), np.array([-0.0, 0.0, 0.5, 1.0]),
                    StopRule(tol=1e-4, max_rounds=3))
    written = (tmp_path / "simulate_trace.csv").read_bytes()
    assert written == _trace_bytes(trace)
    assert [line.split(b",")[1] for line in written.splitlines()[1:3]] == [b"-0", b"0"]


@pytest.mark.parametrize("law,init,n,seed,rounds,options", [
    # each dynamic round moves the token holder and the agents it pushes
    ("dynamic", "random", 120, 4, 400, {"variant": "uniformized", "movement_rule": "split"}),
    # with U above n, rounds that only pass the token move no agent
    ("dynamic", "random", 6, 5, 90, {"variant": "figure2", "movement_rule": "pair",
                                     "big_u": 15}),
    # from all-one, early static rounds leave the interior agents at 1.0
    ("static", "all-one", 9, 0, 50, {}),
])
def test_trace_csv_golden_bytes_when_agents_keep_their_text(capsys, tmp_path, law, init, n,
                                                            seed, rounds, options):
    flags = {"big_u": "--big-u", "variant": "--variant", "movement_rule": "--rule"}
    code, _, _ = run_cli(capsys, [
        "simulate", "--law", law, "--density", "quadratic", "--init", init, "--n", str(n),
        "--seed", str(seed), "--max-rounds", str(rounds), "--out-dir", str(tmp_path),
        *(text for key, value in options.items() for text in (flags[key], str(value))),
    ])
    assert code == 0
    x0 = initial_positions(init, n, StreamRng(seed, n, 0), law=law)
    trace = run_one(law, resolve_density("quadratic"), x0,
                    StopRule(tol=1e-4, max_rounds=rounds), **options)
    # agents that changed bits from each row to the next: the run has rows
    # that reuse some cells and format others
    moved = [np.count_nonzero(a.positions.view(np.uint64) != b.positions.view(np.uint64))
             for a, b in zip(trace.rows, trace.rows[1:])]
    assert any(0 < count < n for count in moved)
    if "big_u" in options:
        assert 0 in moved
    assert (tmp_path / "simulate_trace.csv").read_bytes() == _trace_bytes(trace)


@given(law=st.sampled_from(["static", "dynamic"]),
       density=st.sampled_from(["uniform", "quadratic"]), n=st.integers(3, 40),
       seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(VARIANTS),
       rule=st.sampled_from(MOVEMENT_RULES), rounds=st.integers(1, 80), data=st.data())
def test_trace_csv_matches_its_rows(tmp_path_factory, law, density, n, seed, variant, rule,
                                    rounds, data):
    out = tmp_path_factory.mktemp("trace")
    big_u = data.draw(st.integers(n, 2 * n), label="U")
    options = {} if law == "static" else {
        "big_u": big_u, "variant": variant, "movement_rule": rule}
    flags = [] if law == "static" else [
        "--big-u", str(big_u), "--variant", variant, "--rule", rule]
    assert main(["simulate", "--law", law, "--density", density, "--n", str(n),
                 "--seed", str(seed), "--max-rounds", str(rounds),
                 "--out-dir", str(out), *flags]) == 0
    x0 = initial_positions("random", n, StreamRng(seed, n, 0), law=law)
    trace = run_one(law, resolve_density(density), x0,
                    StopRule(tol=1e-4, max_rounds=rounds), **options)
    assert (out / "simulate_trace.csv").read_bytes() == _trace_bytes(trace)


def test_a_failed_simulate_leaves_no_trace_behind(capsys, tmp_path, monkeypatch):
    # the rows stream to a file beside the trace CSV, which replaces it only
    # once the run has returned: a run that fails after some blocks were
    # written leaves no trace CSV, and an older one as it was
    argv = ["simulate", "--law", "dynamic", "--n", "40", "--tol", "1e-300", "--max-rounds", "400",
            "--out-dir", str(tmp_path)]
    assert run_cli(capsys, argv + ["--prefix", "old"])[0] == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real, streamed = linecover.lifted_chain.step_round, []

    def faulty(field, state):
        real(field, state)
        if state.round_index == 300:   # after five blocks of 52 rounds
            streamed.extend(p.stat().st_size for p in tmp_path.glob(".*_trace.csv.*"))
            state.z[3] = np.nan
        return state

    monkeypatch.setattr(linecover.lifted_chain, "step_round", faulty)
    for prefix in ("old", "new"):
        code, out, err = run_cli(capsys, argv + ["--prefix", prefix])
        assert (code, out, json.loads(err)["error"]) == (4, "", "numeric")
        assert "round 300: mass conservation drifted" in err
    # five blocks of 52 rows had been written, 40 cells of 10 bytes or more each
    assert len(streamed) == 2 and min(streamed) > 5 * 52 * 40 * 10
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_streamed_simulate_holds_no_trace_in_memory(tmp_path):
    # a full simulate streams its rows to the CSV as they are recorded: at
    # n = 500 over 4000 rounds the positions kept would take 16 MB, and the
    # traced peak must stay below a quarter of that, with the CSV's bytes
    # those of the run's rows as the API keeps them
    n, rounds = 500, 4000
    argv = ["simulate", "--law", "dynamic", "--density", "quadratic", "--n", str(n),
            "--seed", "3", "--tol", "1e-300", "--max-rounds", str(rounds),
            "--out-dir", str(tmp_path)]
    main(argv + ["--record", "summary"])   # the imports and caches a run first fills
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (rounds + 1) * n * 8 / 4
    x0 = initial_positions("random", n, StreamRng(3, n, 0), law="dynamic")
    trace = run_one("dynamic", resolve_density("quadratic"), x0,
                    StopRule(tol=1e-300, max_rounds=rounds))
    assert len(trace.rows) == rounds + 1
    # the bytes of _trace_bytes, with each distinct position formatted once
    values, at = np.unique(np.array([row.positions for row in trace.rows]).view(np.uint64),
                           return_inverse=True)
    texts = np.array([format(v, ".17g") for v in values.view(float).tolist()], dtype=object)
    lines = [",".join(["t", *(f"x_{i}" for i in range(1, n + 1)), "phi", "residual", "zsum"])]
    lines += [",".join([str(row.t), *cells, *(format(v, ".17g") for v in (
        row.phi, row.residual_sq, row.zsum))]) for row, cells in zip(
        trace.rows, texts[at.reshape(len(trace.rows), n)].tolist())]
    assert (tmp_path / "simulate_trace.csv").read_bytes() == "\r\n".join(lines + [""]).encode()


@pytest.mark.parametrize("law", ["static", "dynamic"])
def test_simulate_record_summary_writes_the_final_row(capsys, tmp_path, law):
    base = ["simulate", "--law", law, "--density", "quadratic", "--n", "6", "--seed", "2",
            "--max-rounds", "40", "--tol", "1e-9"]
    code, out, _ = run_cli(capsys, base + ["--out-dir", str(tmp_path / "full")])
    assert code == 0
    full = json.loads(out)
    assert full["record"] == "full"
    code, out, _ = run_cli(capsys, base + ["--record", "summary",
                                           "--out-dir", str(tmp_path / "summary")])
    assert code == 0
    summary = json.loads(out)
    assert summary["record"] == "summary"
    # the same run: only the trace rows differ, the scenario echo does not
    summary.pop("trace_csv"), full.pop("trace_csv")
    assert {**summary, "record": "full"} == full
    lines = (tmp_path / "full" / "simulate_trace.csv").read_bytes().splitlines(True)
    rounds = [int(line.split(b",")[0]) for line in lines[1:]]
    assert rounds == list(range(41))
    assert (tmp_path / "summary" / "simulate_trace.csv").read_bytes() == b"".join(
        [lines[0], lines[-1]])


# breakpoints 0, 0.99, 1 with rho = 1 + 1e9 (x - 0.995)^4 expanded in x on
# [0.99, 1], where F once lost 7 digits to cancelling terms
NARROW_DENSITY = {"breakpoints": [0.0, 0.99, 1.0], "coefficients": [
    [1.0], [980149501.625, -3940299500.0, 5940150000.0, -3980000000.0, 1000000000.0]]}


@pytest.mark.parametrize("args", [
    ["--law", "static", "--density", "quadratic", "--init", "random", "--n", "40"],
    ["--law", "static", "--density", "narrow", "--init", "all-one", "--n", "40"],
    ["--law", "dynamic", "--density", "quadratic", "--n", "200"],
    ["--law", "dynamic", "--variant", "figure2", "--n", "60", "--tol", "2e-3"],
    ["--law", "dynamic", "--density", "quadratic", "--init", "all-zero-perturbed", "--n", "200"],
    ["--law", "dynamic", "--density", "quadratic", "--rule", "pair", "--n", "60", "--tol", "0.05"],
], ids=["static-quadratic", "static-narrow", "dynamic-quadratic", "dynamic-figure2",
        "dynamic-all-zero", "dynamic-pair"])
def test_full_and_summary_runs_end_on_the_same_row(capsys, tmp_path, args):
    # a static run carries the masses y and maps positions only where they
    # are read, a full one in blocks of rounds (at n = 40, a lone round on
    # the vector path); a summary dynamic round is settled by its residual,
    # computed in the round loop's own expression (figure2 settles near, not
    # at, the optimum: a residual of about 1.3e-3 at n = 60; the all-zero
    # start pushes long runs of agents in its first cycles). Run to tol, both
    # policies must stop at the same round, and the summary trace's one data
    # row must be the full trace's last row byte for byte
    narrow = tmp_path / "narrow_density.json"
    narrow.write_text(json.dumps(NARROW_DENSITY))
    args = [str(narrow) if arg == "narrow" else arg for arg in args]
    runs, lines = {}, {}
    for record in ("full", "summary"):
        code, out, err = run_cli(capsys, [
            "simulate", *args, "--record", record, "--out-dir", str(tmp_path), "--prefix", record])
        assert code == 0, err
        runs[record] = json.loads(out)
        lines[record] = Path(runs[record]["trace_csv"]).read_bytes().splitlines(True)
    assert [(s["stop_reason"], s["rounds"]) for s in runs.values()] == [
        ("tol", runs["full"]["rounds"])] * 2
    assert len(lines["full"]) == runs["full"]["rounds"] + 2
    assert lines["summary"] == [lines["full"][0], lines["full"][-1]]


def test_a_long_full_dynamic_trace_ends_on_the_summary_row(capsys, tmp_path):
    # under full, most cells of a dynamic trace reuse the previous row's
    # text, and the rows leave the loop block by block: 3000 rounds at
    # n = 2000 must write 3001 data rows, the last byte-identical to the one
    # data row the same run writes under summary
    paths = {}
    for record in ("full", "summary"):
        code, out, err = run_cli(capsys, [
            "simulate", "--law", "dynamic", "--density", "quadratic", "--n", "2000",
            "--max-rounds", "3000", "--record", record, "--out-dir", str(tmp_path),
            "--prefix", f"long_{record}"])
        assert code == 0, err
        paths[record] = Path(json.loads(out)["trace_csv"])
    summary = paths["summary"].read_bytes().splitlines(True)
    lines, last = 0, b""
    with open(paths["full"], "rb") as handle:   # about 120 MB: read a line at a time
        for last in handle:
            lines += 1
    paths["full"].unlink()
    assert lines == 3002 and len(summary) == 2 and summary[1] == last


def test_one_process_reuses_its_parser(capsys, tmp_path):
    # the parser is built once per process: a malformed flag and another
    # command in between must leave a repeated simulate byte-identical
    simulate = ["simulate", "--law", "static", "--density", "quadratic", "--n", "6",
                "--out-dir", str(tmp_path / "simulate")]

    def outputs():
        code, out, err = run_cli(capsys, simulate)
        assert (code, err) == (0, "")
        return out, {p.name: p.read_bytes() for p in (tmp_path / "simulate").iterdir()}

    first = outputs()
    code, out, err = run_cli(capsys, ["simulate", "--n", "x"])
    assert (code, out) == (2, "")
    assert [json.loads(line)["error"] for line in err.splitlines()] == ["usage"]
    code, _, err = run_cli(capsys, ["chain", "--n", "5", "--big-u", "5",
                                    "--out-dir", str(tmp_path / "chain")])
    assert (code, err) == (0, "")
    assert linecover.cli.build_parser() is linecover.cli.build_parser()
    assert outputs() == first


@pytest.mark.parametrize("record", ["every:0", "every:x", "bogus"])
def test_simulate_refuses_a_malformed_record_policy(capsys, tmp_path, monkeypatch, record):
    # refused before the start positions are drawn
    drawn = []
    monkeypatch.setattr(linecover.harness, "initial_positions",
                        lambda *args, **kw: drawn.append(1))
    code, out, err = run_cli(capsys, ["simulate", "--record", record,
                                      "--out-dir", str(tmp_path)])
    assert (code, out, drawn) == (2, "", [])
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "record must be one of" in error["message"] and repr(record) in error["message"]
    assert not list(tmp_path.iterdir())


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


def test_chain_command_builds_the_dense_K_once(capsys, tmp_path, monkeypatch):
    # the K CSV, mixing_profile and spreading_min read one dense build
    apply, dense = linecover.lifted_chain.LiftedChain.apply, []

    def counted(chain, z):
        dense.append(z.ndim == 2)
        return apply(chain, z)

    monkeypatch.setattr(linecover.lifted_chain.LiftedChain, "apply", counted)
    code, _, _ = run_cli(capsys, ["chain", "--n", "5", "--big-u", "5",
                                  "--out-dir", str(tmp_path)])
    assert code == 0 and sum(dense) == 1


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


def test_chain_with_u_far_above_n_settles(capsys, tmp_path):
    # t_mix is 10,019 here; the round cap once ignored U and stopped at 4,400
    code, out, _ = run_cli(capsys, ["chain", "--n", "4", "--big-u", "2000",
                                    "--variant", "uniformized", "--out-dir", str(tmp_path)])
    assert code == 0 and json.loads(out)["t_mix"] == 10019


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
