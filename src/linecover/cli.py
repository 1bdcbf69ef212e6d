"""Command-line entry point: optimal, simulate, sweep, spectral, chain.

Scenario JSON files are the reproducibility unit; flags override individual
fields for exploration. Exit codes: 0 success, 2 usage or precondition
error, 3 parse error, 4 numeric error. Failures print a machine-readable
error object to stderr. CSV output is schema-stable with floats at 17
significant digits; the default output directory comes from the
LINECOVER_OUT environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, lifted_chain, spectral
from .density import optimal_configuration, resolve_density
from .errors import DomainError, NumericError, ParseError
from .trace import ExperimentTrace, StopRule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

_SCENARIO_KEYS = {"law", "density", "n", "init", "positions", "seed",
                  "tol", "max_rounds", "U", "variant", "rule"}
_SCENARIO_DEFAULTS = {
    "law": "static", "density": "uniform", "n": 5, "init": "random",
    "positions": None, "seed": 0, "tol": 1e-4, "max_rounds": 200_000,
    "U": None, "variant": "uniformized", "rule": "split",
}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def canonical_scenario_json(scenario: dict) -> str:
    """Canonical byte-stable serialization (sorted keys, no whitespace)."""
    return json.dumps(scenario, sort_keys=True, separators=(",", ":"))


def load_scenario(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"scenario file {path} is not valid JSON (line {exc.lineno}, col {exc.colno})"
        ) from exc
    if not isinstance(data, dict):
        raise ParseError("scenario file must hold a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ParseError(f"scenario has unknown fields: {sorted(unknown)}")
    return data


def build_scenario(args) -> dict:
    scenario = dict(_SCENARIO_DEFAULTS)
    if getattr(args, "scenario", None):
        scenario.update(load_scenario(args.scenario))
    overrides = {
        "law": args.law, "density": args.density, "n": args.n,
        "init": args.init, "seed": args.seed, "tol": args.tol,
        "max_rounds": args.max_rounds, "U": args.big_u,
        "variant": args.variant, "rule": args.rule,
    }
    if getattr(args, "positions", None):
        overrides["positions"] = [float(v) for v in args.positions.split(",")]
    for key, value in overrides.items():
        if value is not None:
            scenario[key] = value
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(s: dict) -> None:
    if s["law"] not in ("static", "dynamic"):
        raise DomainError("law must be 'static' or 'dynamic'")
    n_min = 2 if s["law"] == "static" else 3
    if s["positions"] is None and int(s["n"]) < n_min:
        raise DomainError(f"the {s['law']} law needs at least {n_min} agents")
    StopRule(tol=float(s["tol"]), max_rounds=int(s["max_rounds"]))  # validates both


def _out_path(args, name: str) -> Path:
    root = Path(args.out_dir or os.environ.get("LINECOVER_OUT", "."))
    root.mkdir(parents=True, exist_ok=True)
    return root / name


def write_csv(path: Path, header: list[str], rows) -> None:
    """One header line, then one line per row of already formatted cells."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(path: Path, trace: ExperimentTrace) -> None:
    n = len(trace.rows[0].positions)
    header = ["t"] + [f"x_{i}" for i in range(1, n + 1)] + ["phi", "residual", "zsum"]
    write_csv(path, header, (
        [str(row.t)] + [_fmt(x) for x in row.positions]
        + [_fmt(row.phi), _fmt(row.residual_sq), "" if row.zsum is None else _fmt(row.zsum)]
        for row in trace.rows))


def write_sweep_csv(path: Path, table: harness.SweepTable) -> None:
    write_csv(path, ["n", "mean_rounds", "std_rounds", "runs"], (
        [str(row.n), _fmt(row.mean_rounds), _fmt(row.std_rounds), str(row.runs)]
        for row in table.rows))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_optimal(args) -> int:
    field = resolve_density(args.density)
    positions, phi_star = optimal_configuration(field, args.n)
    print(json.dumps({
        "density": field.name,
        "n": args.n,
        "positions": [float(x) for x in positions],
        "phi_star": float(phi_star),
    }))
    return EXIT_OK


def _scenario_initial_positions(scenario: dict, field) -> np.ndarray:
    if scenario["positions"] is not None:
        return np.asarray(scenario["positions"], dtype=float)
    rng = harness.StreamRng(int(scenario["seed"]), int(scenario["n"]), 0)
    return harness.initial_positions(scenario["init"], int(scenario["n"]),
                                     rng, law=scenario["law"])


def cmd_simulate(args) -> int:
    scenario = build_scenario(args)
    field = resolve_density(scenario["density"])
    x0 = _scenario_initial_positions(scenario, field)
    law = scenario["law"]
    big_u = None if scenario["U"] is None else int(scenario["U"])
    stop = harness.stop_rule(law, len(x0), float(scenario["tol"]),
                             int(scenario["max_rounds"]), big_u)
    trace = harness.run_one(law, field, x0, stop, big_u=big_u,
                            variant=scenario["variant"],
                            movement_rule=scenario["rule"])
    rounds, converged = harness.convergence_time(trace, float(scenario["tol"]))

    trace_path = _out_path(args, f"{args.prefix}_trace.csv")
    write_trace_csv(trace_path, trace)
    summary = {
        "scenario": json.loads(canonical_scenario_json(scenario)),
        "stop_reason": trace.stop_reason,
        "rounds": trace.final_round,
        "convergence_rounds": rounds,
        "converged": converged,
        "final_phi": float(trace.final_phi),
        "phi_star": float(trace.metadata["phi_star"]),
        "final_residual_sq": float(trace.rows[-1].residual_sq),
        "trace_csv": str(trace_path),
    }
    summary_path = _out_path(args, f"{args.prefix}_summary.json")
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = build_scenario(args)
    field = resolve_density(scenario["density"])
    n_list = [int(v) for v in args.n_list.split(",")]
    big_u = None if scenario["U"] is None else int(scenario["U"])
    table = harness.sweep(scenario["law"], field, n_list, args.runs,
                          scenario["init"], int(scenario["seed"]),
                          tol=float(scenario["tol"]),
                          max_rounds=int(scenario["max_rounds"]),
                          big_u=big_u, variant=scenario["variant"],
                          movement_rule=scenario["rule"], workers=args.workers)
    sweep_path = _out_path(args, f"{args.prefix}_sweep.csv")
    write_sweep_csv(sweep_path, table)
    summary = {
        "scenario": json.loads(canonical_scenario_json(scenario)),
        "n_list": n_list,
        "runs": args.runs,
        "fit": {"slope": float(table.fit.slope),
                "intercept": float(table.fit.intercept),
                "r_squared": float(table.fit.r_squared)},
        "sweep_csv": str(sweep_path),
    }
    summary_path = _out_path(args, f"{args.prefix}_summary.json")
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_spectral(args) -> int:
    k_lo, k_hi = args.k_min, args.k_max
    if k_lo < 3 or k_hi < k_lo:
        raise DomainError("need 3 <= k-min <= k-max")
    rows = []
    for k in range(k_lo, k_hi + 1):
        eigs = spectral.spectrum(spectral.build_system(k))
        lam2, lamk = float(eigs[-2]), float(eigs[0])
        bound = 1.0 - 1.0 / (3.0 * k * k)
        margin = bound - max(abs(lam2), abs(lamk))
        rows.append([str(k), _fmt(lam2), _fmt(lamk), _fmt(bound), _fmt(margin)])
    path = _out_path(args, f"{args.prefix}_spectrum.csv")
    write_csv(path, ["k", "lambda_2", "lambda_k", "bound", "margin"], rows)
    print(json.dumps({"k_min": k_lo, "k_max": k_hi, "spectrum_csv": str(path)}))
    return EXIT_OK


def cmd_chain(args) -> int:
    chain = lifted_chain.build_chain(args.n, args.big_u, args.variant)
    pi = lifted_chain.stationary(chain)
    residual = lifted_chain.stationarity_residual(chain, pi)
    t_mix, vcurve = lifted_chain.mixing_profile(chain, args.eps)
    spread = lifted_chain.spreading_min(chain)

    labels = [f"z{i}" for i in range(1, chain.n + 1)]
    labels += [f"z{i}p" for i in range(1, chain.n + 1)]
    k_path = _out_path(args, f"{args.prefix}_K.csv")
    write_csv(k_path, ["state"] + labels,
              ([name] + [_fmt(v) for v in row] for name, row in zip(labels, chain.K)))
    pi_path = _out_path(args, f"{args.prefix}_pi.csv")
    write_csv(pi_path, ["state", "pi"], ([name, _fmt(v)] for name, v in zip(labels, pi)))
    mix_path = _out_path(args, f"{args.prefix}_mixing.csv")
    write_csv(mix_path, ["t", "v"], ([str(t), _fmt(v)] for t, v in enumerate(vcurve)))

    print(json.dumps({
        "n": args.n, "U": args.big_u, "variant": args.variant,
        "stationarity_residual": float(residual),
        "t_mix": t_mix, "eps": args.eps,
        "spreading_min": float(spread),
        "K_csv": str(k_path), "pi_csv": str(pi_path), "mixing_csv": str(mix_path),
    }))
    return EXIT_OK


# ----------------------------------------------------------------------
# parser and dispatch
# ----------------------------------------------------------------------

def _add_common_run_flags(sub) -> None:
    sub.add_argument("--scenario", help="scenario JSON file (flags override)")
    sub.add_argument("--law", choices=["static", "dynamic"])
    sub.add_argument("--density", help="preset name or density JSON path")
    sub.add_argument("--n", type=int)
    sub.add_argument("--init", help="random | all-one | all-zero-perturbed")
    sub.add_argument("--positions", help="explicit comma-separated start positions")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--max-rounds", type=int, dest="max_rounds")
    sub.add_argument("--big-u", type=int, dest="big_u")
    sub.add_argument("--variant", choices=list(lifted_chain.VARIANTS))
    sub.add_argument("--rule", choices=list(lifted_chain.MOVEMENT_RULES))
    sub.add_argument("--out-dir", dest="out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linecover",
        description="Coverage-control simulation toolkit on a nonuniform 1-D field",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("optimal", help="print the optimal configuration")
    p.add_argument("--density", default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_optimal)

    p = subs.add_parser("simulate", help="run one trace of either law")
    _add_common_run_flags(p)
    p.add_argument("--prefix", default="simulate")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="convergence-time scaling over n")
    _add_common_run_flags(p)
    p.add_argument("--n-list", dest="n_list", required=True,
                   help="comma-separated agent counts")
    p.add_argument("--runs", type=int, default=40)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--prefix", default="sweep")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("spectral", help="gap-update spectra and rate bounds")
    p.add_argument("--k-min", type=int, default=3, dest="k_min")
    p.add_argument("--k-max", type=int, default=50, dest="k_max")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--prefix", default="spectral")
    p.set_defaults(func=cmd_spectral)

    p = subs.add_parser("chain", help="emit a lifted chain and its diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--big-u", type=int, required=True, dest="big_u")
    p.add_argument("--variant", choices=list(lifted_chain.VARIANTS),
                   default="figure2")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--prefix", default="chain")
    p.set_defaults(func=cmd_chain)

    return parser


def _error_json(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        _error_json("parse", exc)
        return EXIT_PARSE
    except DomainError as exc:
        _error_json("usage", exc)
        return EXIT_USAGE
    except NumericError as exc:
        _error_json("numeric", exc)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
