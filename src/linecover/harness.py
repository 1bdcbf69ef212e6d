"""Experiment orchestration: residuals, convergence times, seeded sweeps."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import DensityField
from .errors import DomainError, NumericError
from .lifted_chain import run_dynamic
from .rng import StreamRng
from .static_law import gap_vector, run_static
from .trace import ExperimentTrace, StopRule

INIT_MODES = ("random-uniform-order-statistics", "all-one", "all-zero-perturbed")
_INIT_ALIASES = {"random": "random-uniform-order-statistics"}

# Ramp spacing used to make degenerate starts legal for the dynamic law's
# distinct-position cell initialization, invisible at display precision.
_RAMP = 1e-6


def optimality_residual(field: DensityField, positions) -> float:
    """Max deviation of the n+1 boundary-doubled gaps from their mean.

    Zero exactly at the optimal configuration, where the doubled boundary
    gaps and the interior gaps are all equal.
    """
    gaps = gap_vector(field, positions)
    return float(np.max(np.abs(gaps - gaps.mean())))


class ConvergenceTime(NamedTuple):
    rounds: int
    converged: bool


def convergence_time(trace: ExperimentTrace, tol: float) -> ConvergenceTime:
    """First round whose squared position error stays below tol to trace end.

    Returns (last round, converged=False) when the criterion never locks in.
    """
    if not math.isfinite(tol):
        return ConvergenceTime(trace.rows[0].t, True)
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    last_bad = None
    for idx in range(len(trace.rows) - 1, -1, -1):
        if trace.rows[idx].residual_sq > tol:
            last_bad = idx
            break
    if last_bad is None:
        return ConvergenceTime(trace.rows[0].t, True)
    if last_bad == len(trace.rows) - 1:
        return ConvergenceTime(trace.rows[-1].t, False)
    return ConvergenceTime(trace.rows[last_bad + 1].t, True)


def initial_positions(mode: str, n: int, rng: StreamRng | None = None,
                      law: str = "static") -> np.ndarray:
    """Build a start configuration for the named init mode.

    ``random-uniform-order-statistics`` sorts n uniform draws. ``all-one``
    puts every agent at 1; for the dynamic law it is perturbed downward by
    a 1e-6 ramp so the cell initialization sees distinct positions, the
    same device the ``all-zero-perturbed`` mode applies at 0.
    """
    mode = _INIT_ALIASES.get(mode, mode)
    if mode not in INIT_MODES:
        raise DomainError(f"unknown init mode {mode!r}")
    if mode == "random-uniform-order-statistics":
        if rng is None:
            raise DomainError("random init needs a seeded generator")
        return np.sort(np.array(rng.uniforms(n)))
    if mode == "all-one":
        if law == "dynamic":
            return 1.0 - _RAMP * np.arange(n - 1, -1, -1, dtype=float)
        return np.ones(n)
    return _RAMP * np.arange(1, n + 1, dtype=float)


def static_round_budget(n: int, fhat_total: float, inv_eps: float) -> float:
    """Proven round budget 3 (n+1)^2 ln(sqrt(2) n Fhat(1) / eps).

    ``fhat_total`` is the total mass of the density normalized by its lower
    bound (at most rho_max / rho_min); ``inv_eps`` is 1/eps for the chosen
    accuracy in normalized mass coordinates.
    """
    return 3.0 * (n + 1) ** 2 * math.log(math.sqrt(2.0) * n * fhat_total * inv_eps)


# ----------------------------------------------------------------------
# sweeps over agent counts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    mean_rounds: float
    std_rounds: float
    runs: int


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    fit: FitResult


def loglog_fit(ns, values) -> FitResult:
    """Least-squares slope of log(values) against log(ns)."""
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2)


def run_one(law: str, field: DensityField, positions0, stop: StopRule, *,
            big_u: int | None = None, variant: str = "uniformized",
            movement_rule: str = "split") -> ExperimentTrace:
    """Dispatch a single run of either law."""
    if law == "static":
        return run_static(field, positions0, stop)
    if law == "dynamic":
        return run_dynamic(field, positions0, stop, big_u=big_u, variant=variant,
                           movement_rule=movement_rule)
    raise DomainError(f"unknown law {law!r}")


def stop_rule(law: str, n: int, tol: float | None, max_rounds: int,
              big_u: int | None = None) -> StopRule:
    """The stop rule of one run of either law.

    The dynamic law moves one agent per round, so its tolerance must hold
    for a full token cycle of U rounds (U defaults to n); the static law
    moves every agent every round and needs it to hold once.
    """
    persist = (big_u if big_u is not None else n) if law == "dynamic" else 1
    return StopRule(tol=tol, max_rounds=max_rounds, persist=persist)


def _sweep_cell(args) -> tuple[int, int, int]:
    (law, field, n, run, init_mode, seed, tol, max_rounds,
     big_u, variant, movement_rule) = args
    rng = StreamRng(seed, n, run)
    x0 = initial_positions(init_mode, n, rng, law=law)
    stop = stop_rule(law, n, tol, max_rounds, big_u)
    trace = run_one(law, field, x0, stop, big_u=big_u, variant=variant,
                    movement_rule=movement_rule)
    rounds, converged = convergence_time(trace, tol)
    if not converged:
        raise NumericError(
            f"sweep cell (law={law}, n={n}, run={run}) did not converge "
            f"within {max_rounds} rounds"
        )
    return n, run, rounds


def sweep(law: str, field: DensityField, n_list, runs: int, init_mode: str,
          seed: int, *, tol: float = 1e-4, max_rounds: int = 200_000,
          big_u: int | None = None, variant: str = "uniformized",
          movement_rule: str = "split", workers: int = 1) -> SweepTable:
    """Measure convergence rounds over (n, run) cells and fit the scaling.

    Every cell draws from the substream keyed by (seed, n, run), so tables
    are identical for identical arguments regardless of worker count or
    completion order.
    """
    if runs < 1:
        raise DomainError("runs must be at least 1")
    n_list = [int(n) for n in n_list]
    cells = [
        (law, field, n, run, init_mode, seed, tol, max_rounds,
         big_u, variant, movement_rule)
        for n in n_list for run in range(runs)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]

    counts = {(n, run): rounds for n, run, rounds in results}
    rows = []
    for n in n_list:
        vals = np.array([counts[(n, run)] for run in range(runs)], dtype=float)
        mean = float(vals.mean())
        if mean < 1.0:
            raise NumericError(f"degenerate sweep row for n={n}: mean rounds {mean}")
        rows.append(SweepRow(n=n, mean_rounds=mean,
                             std_rounds=float(vals.std(ddof=0)), runs=runs))
    fit = loglog_fit([r.n for r in rows], [r.mean_rounds for r in rows])
    return SweepTable(rows=tuple(rows), fit=fit)
