"""Command-line entry point: optimal, simulate, sweep, spectral, chain.

Scenario JSON files are the reproducibility unit; flags override individual
fields for exploration. Exit codes: 0 success, 2 usage or precondition
error, 3 parse error, 4 numeric error. Every failure, a malformed flag
included, prints a machine-readable error object to stderr. CSV output is
schema-stable with floats at 17 significant digits; the default output
directory comes from the LINECOVER_OUT environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, lifted_chain, spectral
from .density import optimal_configuration, read_json, resolve_density, typed
from .errors import DomainError, NumericError, ParseError
from .trace import ExperimentTrace, StopRule, check_record

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

_FLOAT = "%.17g"


# field -> (default, type, help); each field is also a flag (U is --big-u), and a
# field whose default is None also takes null in a scenario file
_SCENARIO_DEFAULTS = {
    "law": ("static", str, None),
    "density": ("uniform", str, "preset name or density JSON path"),
    "n": (5, int, None),
    "init": ("random", str, "random | all-one | all-zero-perturbed"),
    "positions": (None, [float], "explicit comma-separated start positions"),
    "seed": (0, int, None), "tol": (1e-4, float, None), "max_rounds": (200_000, int, None),
    "U": (None, int, None), "variant": ("uniformized", str, None), "rule": ("split", str, None),
}


def load_scenario(path: str) -> dict:
    """The fields of a scenario file, each converted to its type."""
    data = read_json(path, "scenario")
    if not isinstance(data, dict):
        raise ParseError("scenario file must hold a JSON object")
    unknown = set(data) - set(_SCENARIO_DEFAULTS)
    if unknown:
        raise ParseError(f"scenario has unknown fields: {sorted(unknown)}")
    scenario = {}
    for key, value in data.items():
        default, kind, _ = _SCENARIO_DEFAULTS[key]
        try:
            scenario[key] = (None if value is None and default is None
                             else typed(kind, value))
        except (TypeError, OverflowError) as exc:
            raise ParseError(f"scenario field {key!r}: {exc}") from exc
    return scenario


def build_scenario(args) -> dict:
    """Defaults, then the scenario file, then flags; checks law, law fields,
    agent count and stop rule. Explicit positions set n."""
    given = load_scenario(args.scenario) if args.scenario else {}
    flags = vars(args)
    given.update((k, flags[k]) for k in _SCENARIO_DEFAULTS if flags[k] is not None)
    scenario = {key: given.get(key, spec[0]) for key, spec in _SCENARIO_DEFAULTS.items()}
    if scenario["positions"] is not None:
        count = len(scenario["positions"])
        if given.get("n", count) != count:
            raise DomainError(f"n = {given['n']} does not match the {count} positions given")
        scenario["n"] = count
    if scenario["law"] not in ("static", "dynamic"):
        raise DomainError("law must be 'static' or 'dynamic'")
    if scenario["law"] == "static":
        dynamic = [k for k in ("U", "variant", "rule")
                   if scenario[k] != _SCENARIO_DEFAULTS[k][0]]
        if dynamic:
            raise DomainError(f"the static law takes no dynamic-law fields {dynamic}")
    StopRule(tol=scenario["tol"], max_rounds=scenario["max_rounds"])  # validates both
    return scenario


def _law_options(scenario: dict) -> dict:
    """The scenario's U, variant and rule as law keywords; the static law takes none."""
    return {} if scenario["law"] == "static" else dict(
        big_u=scenario["U"], variant=scenario["variant"], movement_rule=scenario["rule"])


def float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _out_path(args, name: str) -> Path:
    root = Path(args.out_dir or os.environ.get("LINECOVER_OUT", "."))
    root.mkdir(parents=True, exist_ok=True)
    return root / name


def write_csv(path: Path, header: list[str], fmt: str, rows) -> None:
    """One header line, then ``fmt % row`` per row; every line ends in CRLF."""
    line = fmt + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(line % tuple(row) for row in rows)


def write_trace_csv(path: Path, run) -> ExperimentTrace:
    """Call ``run(sink)`` and write each row it hands the sink, as the run
    goes: round, positions, phi, residual and zsum, which is empty for the
    static law. Returns the trace that ``run`` returns.

    A position whose float64 bits are unchanged since the previous row reuses
    that row's text; only the agents that moved are formatted again, once
    if they all moved to one value. Bits, not values, decide, because
    -0.0 == 0.0 but they print as -0 and 0. A row's positions stay one
    joined text, split into cells only when a later row moves some agents
    but not all. The writer copies the previous row's bits, as the run
    reuses their buffer. The rows go to a file beside path, which replaces
    it once the run has returned: a failed run leaves no trace CSV, and an
    older one as it was.
    """
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    line = every = previous = None
    text, cells = "", None   # the previous row's positions; cells once split

    def sink(rows):
        nonlocal line, every, previous, text, cells
        if line is None:   # the header, from the first row
            n = len(rows[0].positions)
            handle.write(",".join(["t"] + [f"x_{i}" for i in range(1, n + 1)]
                                  + ["phi", "residual", "zsum"]) + "\r\n")
            zsum = _FLOAT if rows[0].zsum is not None else ""
            line = ",".join(["%d", "%s", _FLOAT, _FLOAT, zsum]) + "\r\n"
            every = ",".join([_FLOAT] * n)
            # differs from the first row in every bit, so that row formats every agent
            previous = ~rows[0].positions.view(np.uint64)
        lines = []
        for row in rows:
            bits = row.positions.view(np.uint64)
            moved = (bits != previous).nonzero()[0]
            if moved.size == bits.size:
                text, cells = every % tuple(row.positions.tolist()), None
            elif moved.size:
                if cells is None:
                    cells = text.split(",")
                values = row.positions[moved].tolist()
                # rows are ordered: equal nonzero end values (±0 print apart) hold every one
                if values[0] == values[-1] != 0.0:
                    texts = [_FLOAT % values[0]] * moved.size
                else:   # one % for all the moved values; "%.17g" text holds no comma
                    texts = (",".join([_FLOAT] * moved.size) % tuple(values)).split(",")
                for i, cell in zip(moved.tolist(), texts):
                    cells[i] = cell
                text = ",".join(cells)
            previous = bits
            lines.append(line % (row.t, text, row.phi, row.residual_sq,
                                 *(() if row.zsum is None else (row.zsum,))))
        handle.writelines(lines)
        previous = previous.copy()

    try:
        with open(part, "w", newline="") as handle:
            trace = run(sink)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)
    return trace


def _write_summary(args, summary: dict) -> int:
    path = _out_path(args, f"{args.prefix}_summary.json")
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


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


def cmd_simulate(args) -> int:
    scenario = build_scenario(args)
    record = check_record(args.record)   # before any set-up
    field = resolve_density(scenario["density"])
    law, n = scenario["law"], scenario["n"]
    if scenario["positions"] is not None:
        x0 = np.asarray(scenario["positions"], dtype=float)
    else:
        rng = harness.StreamRng(scenario["seed"], n, 0)
        x0 = harness.initial_positions(scenario["init"], n, rng, law=law)
    stop = StopRule(scenario["tol"], scenario["max_rounds"])
    trace_path = _out_path(args, f"{args.prefix}_trace.csv")
    trace = write_trace_csv(trace_path, lambda sink: harness.run_one(
        law, field, x0, stop, record=record, sink=sink, **_law_options(scenario)))
    rounds, converged = harness.convergence_time(trace, scenario["tol"])
    return _write_summary(args, {
        "scenario": scenario,
        "record": record,
        "stop_reason": trace.stop_reason,
        "rounds": trace.final_round,
        "convergence_rounds": rounds,
        "converged": converged,
        "final_phi": float(trace.final_phi),
        "phi_star": float(trace.metadata["phi_star"]),
        "final_residual_sq": float(trace.rows[-1].residual_sq),
        "trace_csv": str(trace_path),
    })


def cmd_sweep(args) -> int:
    scenario = build_scenario(args)
    if scenario["positions"] is not None:
        raise DomainError("sweep draws its own start positions and takes no positions")
    field = resolve_density(scenario["density"])
    table = harness.sweep(scenario["law"], field, args.n_list, args.runs,
                          scenario["init"], scenario["seed"],
                          tol=scenario["tol"], max_rounds=scenario["max_rounds"],
                          workers=args.workers, **_law_options(scenario))
    sweep_path = _out_path(args, f"{args.prefix}_sweep.csv")
    write_csv(sweep_path, ["n", "mean_rounds", "std_rounds", "runs"],
              f"%d,{_FLOAT},{_FLOAT},%d",
              ((row.n, row.mean_rounds, row.std_rounds, row.runs) for row in table.rows))
    return _write_summary(args, {
        "scenario": scenario,
        "n_list": args.n_list,
        "runs": args.runs,
        "fit": table.fit._asdict(),
        "sweep_csv": str(sweep_path),
    })


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
        rows.append((k, lam2, lamk, bound, margin))
    path = _out_path(args, f"{args.prefix}_spectrum.csv")
    write_csv(path, ["k", "lambda_2", "lambda_k", "bound", "margin"],
              ",".join(["%d"] + [_FLOAT] * 4), rows)
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
    write_csv(k_path, ["state"] + labels, ",".join(["%s"] + [_FLOAT] * len(labels)),
              ([name, *row] for name, row in zip(labels, chain.K.tolist())))
    pi_path = _out_path(args, f"{args.prefix}_pi.csv")
    write_csv(pi_path, ["state", "pi"], f"%s,{_FLOAT}", zip(labels, pi.tolist()))
    mix_path = _out_path(args, f"{args.prefix}_mixing.csv")
    write_csv(mix_path, ["t", "v"], f"%d,{_FLOAT}", enumerate(vcurve))

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

class _Parser(argparse.ArgumentParser):
    """Raises a malformed, unknown or missing flag as DomainError, which main
    reports as JSON like any other usage error; subcommand parsers share the class."""

    def error(self, message: str):
        raise DomainError(f"{self.prog}: {message}")


def _add_common_run_flags(sub) -> None:
    sub.add_argument("--scenario", help="scenario JSON file (flags override)")
    for field, (_, kind, text) in _SCENARIO_DEFAULTS.items():
        flag = "--big-u" if field == "U" else "--" + field.replace("_", "-")
        sub.add_argument(flag, dest=field, type=float_list if kind == [float] else kind,
                         help=text)
    sub.add_argument("--out-dir", dest="out_dir")


@functools.cache   # built once per process: each add_argument reads the terminal size
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--record", default="full",
                   help="trace rows to write: full | summary (the final row only)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="convergence-time scaling over n")
    _add_common_run_flags(p)
    p.add_argument("--n-list", dest="n_list", type=int_list, required=True,
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
    p.add_argument("--variant", default="figure2")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--prefix", default="chain")
    p.set_defaults(func=cmd_chain)

    return parser


def _error_json(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:   # --help, after printing the help text
        return EXIT_OK
    except ParseError as exc:
        _error_json("parse", exc)
        return EXIT_PARSE
    except (DomainError, MemoryError) as exc:
        # a size the caller asked for, such as an agent count, that cannot be allocated
        _error_json("usage", exc)
        return EXIT_USAGE
    except NumericError as exc:
        _error_json("numeric", exc)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
