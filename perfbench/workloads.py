"""The benchmark's workloads: operations, their inputs, and output checks.

An operation is one CLI command or one API scenario. Each operation has a
``run`` that calls the program, a ``check`` that judges the output
against the paper's guarantees (closed-form optimum, ordering, mass
conservation, scaling exponents, spectral bound, stationarity), never
against outputs recorded from an earlier version, and a ``fingerprint``
(a hash of everything the operation returned or wrote). Operations are
deterministic for a given seed, so a repetition whose fingerprint matches
the fully checked first run is as correct as that run. A check returns one of

* ``ok``: the operation completed and its output is right;
* ``known_defect``: a probe reproduced its documented defect (see
  README.md); the operation counts as failed;
* ``wrong``: anything else; the operation counts as failed and the run is
  reported as incorrect.

Operations call linecover through module attributes, so the spans that
``spans.Recorder`` installs see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OK, KNOWN_DEFECT, WRONG = "ok", "known_defect", "wrong"

TOL = 1e-4
# F(1) of the presets and their optimal positions x*_j = F^-1(F(1)(2j-1)/(2n)).
TOTAL_MASS = {"uniform": 1.0, "quadratic": 1.0 / 3.0}
OPTIMUM = {
    "uniform": lambda n: (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n),
    "quadratic": lambda n: np.cbrt((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)),
}
ZSUM_GUARD = 1e-9            # relative drift the program's own guard allows
# Log-log slope of mean rounds against n: n^2 for the static law, about n
# for the dynamic law (seed program: 1.99-2.03 and 1.11-1.13).
SLOPE_BAND = {"static": (1.8, 2.2), "dynamic": (0.9, 1.35)}
STATIONARITY_TOL = 1e-12
CHAIN_EPS = 0.01             # the chain command's default eps


@dataclass
class Context:
    linecover: object         # the imported package, with its submodules
    out_dir: Path
    seed: int


@dataclass
class Outcome:
    status: str
    agent_rounds: int = 0     # n x rounds of the completed operation
    note: str = ""


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[Context], object]
    check: Callable[[Context, object], Outcome]
    fingerprint: Callable[[Context, object], str]


# ----------------------------------------------------------------------
# CLI operations
# ----------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    summary: dict | None
    stdout: str
    stderr: str
    prefix: str


def cli_op(name: str, argv: list[str], check) -> Operation:
    """A CLI command; simulate and sweep also get the workload seed."""
    def run(ctx: Context) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        full = argv + ["--seed", str(ctx.seed)] if argv[0] in ("simulate", "sweep") else argv
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.linecover.cli.main(
                full + ["--out-dir", str(ctx.out_dir), "--prefix", name])
        text = out.getvalue().strip()
        return CliResult(code, json.loads(text) if code == 0 and text else None,
                         out.getvalue(), err.getvalue(), name)

    return Operation(name, run, check, cli_fingerprint)


def cli_fingerprint(ctx: Context, r: CliResult) -> str:
    """Exit code, both output streams, and every file the command wrote."""
    digest = hashlib.sha256(f"{r.code}\0{r.stdout}\0{r.stderr}".encode())
    for path in sorted(ctx.out_dir.glob(f"{r.prefix}_*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _wrong(r: CliResult, what: str) -> Outcome:
    return Outcome(WRONG, note=f"{what} (exit {r.code}: {r.stderr.strip()[:200]})")


def _last_row(path: Path) -> list[str]:
    """Last CSV row, read from the end of the file."""
    with open(path, "rb") as handle:
        size = handle.seek(0, 2)
        chunk = 1 << 16
        while True:
            start = max(0, size - chunk)
            handle.seek(start)
            lines = handle.read().rstrip(b"\r\n").split(b"\n")
            if len(lines) > 1 or start == 0:
                return lines[-1].decode().rstrip("\r").split(",")
            chunk *= 4


def _final_state_problems(path: Path, density: str, n: int, dynamic: bool) -> list[str]:
    """Ordering, optimality residual and mass of a trace CSV's last row."""
    row = _last_row(path)
    if len(row) != n + 4:
        return [f"trace row has {len(row)} fields, expected {n + 4}"]
    x = np.array(row[1:n + 1], dtype=float)
    problems = []
    if np.any(np.diff(x) < 0.0) or x[0] < 0.0 or x[-1] > 1.0:
        problems.append("final positions not ordered in [0, 1]")
    residual = float(np.sum((x - OPTIMUM[density](n)) ** 2))
    if not math.isclose(residual, float(row[n + 2]), rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"residual column {row[n + 2]} != recomputed {residual!r}")
    if dynamic:
        total = TOTAL_MASS[density]
        if not abs(float(row[n + 3]) - total) <= ZSUM_GUARD * max(1.0, total):
            problems.append(f"sum z = {row[n + 3]} drifted from F(1)")
    return problems


def check_converged(density: str, n: int, dynamic: bool):
    """A simulate run that must reach tol with a verified final state."""
    def check(ctx: Context, r: CliResult) -> Outcome:
        if r.code != 0:
            return _wrong(r, "simulate failed")
        s = r.summary
        problems = _final_state_problems(ctx.out_dir / f"{r.prefix}_trace.csv",
                                         density, n, dynamic)
        if s["stop_reason"] != "tol" or not s["converged"]:
            problems.append(f"stopped by {s['stop_reason']}, converged={s['converged']}")
        if not s["final_residual_sq"] <= TOL:
            problems.append(f"final residual {s['final_residual_sq']} > {TOL}")
        if problems:
            return Outcome(WRONG, note="; ".join(problems))
        return Outcome(OK, n * s["rounds"])
    return check


def check_max_rounds(density: str, n: int, rounds: int, dynamic: bool):
    """A simulate run cut at --max-rounds, with a verified final state."""
    def check(ctx: Context, r: CliResult) -> Outcome:
        if r.code != 0:
            return _wrong(r, "simulate failed")
        problems = _final_state_problems(ctx.out_dir / f"{r.prefix}_trace.csv",
                                         density, n, dynamic)
        if r.summary["rounds"] != rounds or r.summary["stop_reason"] != "max_rounds":
            problems.append(f"expected {rounds} rounds and max_rounds, got "
                            f"{r.summary['rounds']} and {r.summary['stop_reason']}")
        if problems:
            return Outcome(WRONG, note="; ".join(problems))
        return Outcome(OK, n * rounds)
    return check


def check_static_probe(ctx: Context, r: CliResult) -> Outcome:
    """Static n = 80 quadratic, 100 rounds.

    Seed program: exit 2, "agent positions must be nondecreasing" at round
    87 (ROADMAP item 3). Fixed program: exit 0 after all 100 rounds with
    ordered positions (100 rounds cannot reach tol at n = 80).
    """
    if r.code == 2 and "nondecreasing" in r.stderr:
        return Outcome(KNOWN_DEFECT, note="ordering crash (ROADMAP item 3)")
    return check_max_rounds("quadratic", 80, 100, False)(ctx, r)


def check_dynamic_probe(ctx: Context, r: CliResult) -> Outcome:
    """Dynamic n = 10 with U = 8, 2000 rounds.

    Seed program: exit 0 with "converged": false, because agents j > U never
    get the token (ROADMAP item 5). Fixed program: exit 2 (U < n rejected
    as caller error), or a run that converges to tol.
    """
    if r.code == 2 and '"usage"' in r.stderr:
        return Outcome(OK, note="U < n rejected")
    if r.code != 0:
        return _wrong(r, "probe failed")
    if not r.summary["converged"]:
        return Outcome(KNOWN_DEFECT, note="silent non-convergence (ROADMAP item 5)")
    return check_converged("quadratic", 10, True)(ctx, r)


def check_sweep(law: str, n_list: list[int], runs: int):
    def check(ctx: Context, r: CliResult) -> Outcome:
        if r.code != 0:
            return _wrong(r, "sweep failed")
        with open(ctx.out_dir / f"{r.prefix}_sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        ns = [int(row["n"]) for row in rows]
        means = np.array([float(row["mean_rounds"]) for row in rows])
        if ns != n_list or any(int(row["runs"]) != runs for row in rows):
            return Outcome(WRONG, note=f"sweep table covers {ns}, expected {n_list}")
        slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
        lo, hi = SLOPE_BAND[law]
        if not math.isclose(slope, r.summary["fit"]["slope"], rel_tol=1e-9):
            return Outcome(WRONG, note=f"reported slope != recomputed {slope}")
        if not lo <= slope <= hi:
            return Outcome(WRONG, note=f"{law} slope {slope:.3f} outside [{lo}, {hi}]")
        return Outcome(OK, int(round(float(np.dot(ns, means)) * runs)))
    return check


def check_spectral(k_min: int, k_max: int):
    def check(ctx: Context, r: CliResult) -> Outcome:
        if r.code != 0:
            return _wrong(r, "spectral failed")
        with open(ctx.out_dir / f"{r.prefix}_spectrum.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        ks = np.array([int(row["k"]) for row in rows])
        if ks.tolist() != list(range(k_min, k_max + 1)):
            return Outcome(WRONG, note="spectrum table does not cover every k")
        lam2 = np.array([float(row["lambda_2"]) for row in rows])
        lamk = np.array([float(row["lambda_k"]) for row in rows])
        margin = 1.0 - 1.0 / (3.0 * ks * ks) - np.maximum(np.abs(lam2), np.abs(lamk))
        if not np.all(margin > 0.0):
            bad = ks[margin <= 0.0].tolist()
            return Outcome(WRONG, note=f"moduli exceed 1 - 1/(3k^2) at k = {bad[:5]}")
        return Outcome(OK)
    return check


def _read_matrix(path: Path) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return np.array([row[1:] for row in rows], dtype=float)


def check_chain(n: int):
    def check(ctx: Context, r: CliResult) -> Outcome:
        if r.code != 0:
            return _wrong(r, "chain failed")
        s = r.summary
        K = _read_matrix(ctx.out_dir / f"{r.prefix}_K.csv")
        pi = _read_matrix(ctx.out_dir / f"{r.prefix}_pi.csv")[:, 0]
        curve = _read_matrix(ctx.out_dir / f"{r.prefix}_mixing.csv")[:, 0]
        problems = []
        if K.shape != (2 * n, 2 * n) or pi.shape != (2 * n,):
            return Outcome(WRONG, note=f"chain has shape {K.shape}, expected 2n = {2 * n}")
        if np.max(np.abs(K.sum(axis=1) - 1.0)) > STATIONARITY_TOL:
            problems.append("rows of K do not sum to 1")
        residual = float(np.abs(pi @ K - pi).sum())
        if not (residual <= STATIONARITY_TOL and s["stationarity_residual"] <= STATIONARITY_TOL
                and abs(pi.sum() - 1.0) <= STATIONARITY_TOL):
            problems.append(f"stationarity residual {residual:.2e}")
        t_mix = s["t_mix"]
        if not (isinstance(t_mix, int) and 1 <= t_mix < curve.size
                and np.all(curve[t_mix:] < CHAIN_EPS)):
            problems.append(f"t_mix {t_mix} not found on the mixing curve")
        if not s["spreading_min"] > 0.0:
            problems.append("K^(4n) has a zero entry")
        if problems:
            return Outcome(WRONG, note="; ".join(problems))
        return Outcome(OK, n * (curve.size - 1))
    return check


# ----------------------------------------------------------------------
# API operation: churn
# ----------------------------------------------------------------------

CHURN_N = 100
CHURN_EVENTS = 10


def churn_run(ctx: Context):
    """n = CHURN_N to tol, 10 alternating remove/add events with U rounds
    after each, then to tol again. Events come from the workload seed."""
    lc = ctx.linecover
    field = lc.density.resolve_density("quadratic")
    rng = lc.rng.StreamRng(ctx.seed, CHURN_N, 1)
    x0 = lc.harness.initial_positions("random", CHURN_N, rng, law="dynamic")
    state = lc.lifted_chain.initialize_state(field, x0)
    big_u = state.chain.big_u
    to_tol = lc.trace.StopRule(tol=TOL, max_rounds=200_000, persist=big_u)
    traces = [lc.lifted_chain.simulate_dynamic(field, state, to_tol)]
    for event in range(CHURN_EVENTS):
        if event % 2 == 0:
            lc.lifted_chain.remove_agent(state, rng.randint(1, state.n))
        else:
            lc.lifted_chain.add_agent(state, rng.uniform())
        traces.append(lc.lifted_chain.simulate_dynamic(
            field, state, lc.trace.StopRule(tol=None, max_rounds=big_u)))
    traces.append(lc.lifted_chain.simulate_dynamic(field, state, to_tol))
    return traces


def churn_check(ctx: Context, traces) -> Outcome:
    total = TOTAL_MASS["quadratic"]
    agent_rounds = 0
    for index, trace in enumerate(traces):
        final = index in (0, len(traces) - 1)
        if trace.stop_reason != ("tol" if final else "max_rounds"):
            return Outcome(WRONG, note=f"segment {index} stopped by {trace.stop_reason}")
        for row in trace.rows:
            if np.any(np.diff(row.positions) < 0.0):
                return Outcome(WRONG, note=f"segment {index} round {row.t}: order broken")
            if not abs(row.zsum - total) <= ZSUM_GUARD * max(1.0, total):
                return Outcome(WRONG, note=f"segment {index} round {row.t}: sum z drifted")
        n = trace.rows[-1].positions.size
        residual = float(np.sum((trace.rows[-1].positions - OPTIMUM["quadratic"](n)) ** 2))
        if final and not residual <= TOL:
            return Outcome(WRONG, note=f"segment {index} ends at residual {residual}")
        agent_rounds += n * (len(trace.rows) - 1)
    if traces[-1].rows[-1].positions.size != CHURN_N:
        return Outcome(WRONG, note=f"agent count did not return to {CHURN_N}")
    return Outcome(OK, agent_rounds)


def churn_fingerprint(ctx: Context, traces) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(f"{trace.stop_reason}\0{len(trace.rows)}\0".encode())
        for row in trace.rows:
            digest.update(row.positions.tobytes() + np.float64(row.zsum).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

# Every operation takes well under a second, so that a run repeats each one
# many times and can report its fastest repetition (see README.md).
STATIC_N = 12
DYNAMIC_N, DYNAMIC_ROUNDS = 1000, 200
DYN_SWEEP_N = [10, 20, 40, 80]
# Rounds from random starts vary from run to run. Over ten seeds the
# agent-round total spread by 0.151 with 3 runs per n, 0.074 with 6 and
# 0.045 with 10.
DYN_SWEEP_RUNS = 8
STATIC_SWEEP_N = [5, 10, 20]
STATIC_SWEEP_RUNS = 2
SPECTRAL_K = (3, 40)
CHAIN_N = {"uniformized": 50, "figure2": 40}

WORKLOADS: dict[str, list[Operation]] = {
    "static-quadratic": [
        cli_op(f"static_n{STATIC_N}",
               ["simulate", "--law", "static", "--density", "quadratic",
                "--init", "all-one", "--n", str(STATIC_N), "--tol", str(TOL)],
               check_converged("quadratic", STATIC_N, False)),
        cli_op("static_probe_n80", ["simulate", "--law", "static", "--density", "quadratic",
                                    "--init", "all-one", "--n", "80", "--max-rounds", "100"],
               check_static_probe),
    ],
    "dynamic-large": [
        cli_op(f"dynamic_n{DYNAMIC_N}",
               ["simulate", "--law", "dynamic", "--density", "quadratic", "--init", "random",
                "--n", str(DYNAMIC_N), "--max-rounds", str(DYNAMIC_ROUNDS)],
               check_max_rounds("quadratic", DYNAMIC_N, DYNAMIC_ROUNDS, True)),
        Operation(f"churn_n{CHURN_N}", churn_run, churn_check, churn_fingerprint),
        cli_op("dynamic_probe_u8", ["simulate", "--law", "dynamic", "--density", "quadratic",
                                    "--init", "random", "--n", "10", "--big-u", "8",
                                    "--max-rounds", "2000"],
               check_dynamic_probe),
    ],
    "sweep-ensemble": [
        cli_op("sweep_dynamic", ["sweep", "--law", "dynamic", "--density", "uniform",
                                 "--init", "random",
                                 "--n-list", ",".join(map(str, DYN_SWEEP_N)),
                                 "--runs", str(DYN_SWEEP_RUNS), "--workers", "1"],
               check_sweep("dynamic", DYN_SWEEP_N, DYN_SWEEP_RUNS)),
        # The worst-case all-one start: from random starts at n <= 32 the
        # static slope ranged from 0.7 to 2.3 across seeds.
        cli_op("sweep_static", ["sweep", "--law", "static", "--density", "uniform",
                                "--init", "all-one",
                                "--n-list", ",".join(map(str, STATIC_SWEEP_N)),
                                "--runs", str(STATIC_SWEEP_RUNS), "--workers", "1"],
               check_sweep("static", STATIC_SWEEP_N, STATIC_SWEEP_RUNS)),
    ],
    "analysis": [
        cli_op("spectral", ["spectral", "--k-min", str(SPECTRAL_K[0]),
                            "--k-max", str(SPECTRAL_K[1])],
               check_spectral(*SPECTRAL_K)),
        *(cli_op(f"chain_{variant}", ["chain", "--n", str(n), "--big-u", str(n),
                                      "--variant", variant], check_chain(n))
          for variant, n in CHAIN_N.items()),
    ],
}

# Spans the trace must see on each workload; zero calls means a wrapper
# was not installed (or the program stopped calling the layer there).
ACTIVE = {
    "static-quadratic": [
        "cli.main", "cli.write_trace_csv", "harness.run_one", "harness.convergence_time",
        "density.inverse_cdf", "density.cdf", "density.coverage", "density.check_positions",
        "density.optimal_configuration", "static_law.static_step", "static_law.run_static",
    ],
    "dynamic-large": [
        "cli.main", "cli.write_trace_csv", "harness.run_one", "harness.convergence_time",
        "harness.initial_positions", "density.cdf", "density.coverage",
        "density.check_positions", "density.optimal_configuration",
        "lifted_chain.chain_step", "lifted_chain.movement_step",
        "lifted_chain.simulate_dynamic", "lifted_chain.build_chain", "lifted_chain.init_z",
        "lifted_chain.add_agent", "lifted_chain.remove_agent",
    ],
    "sweep-ensemble": [
        "cli.main", "harness.sweep", "harness.run_one", "harness.convergence_time",
        "harness.initial_positions", "density.cdf", "density.coverage",
        "density.check_positions", "density.optimal_configuration",
        "static_law.static_step", "static_law.run_static", "lifted_chain.chain_step",
        "lifted_chain.movement_step", "lifted_chain.simulate_dynamic",
        "lifted_chain.build_chain", "lifted_chain.init_z",
    ],
    "analysis": [
        "cli.main", "spectral.spectrum", "spectral.build_system", "lifted_chain.build_chain",
        "lifted_chain.stationary", "lifted_chain.mixing_profile", "lifted_chain.spreading_min",
    ],
}
