"""Experiment orchestration: residuals, convergence times, seeded sweeps."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .density import DensityField, gap_vector
from .errors import DomainError, NumericError
from .lifted_chain import run_dynamic
from .rng import StreamRng
from .static_law import run_static
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
    if not tol > 0.0:
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
    if n < 1:
        raise DomainError(f"need at least one agent, got n = {n}")
    if mode == "random-uniform-order-statistics":
        if rng is None:
            raise DomainError("random init needs a seeded generator")
        return np.sort(rng.uniforms(n))
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


def run_one(law: str, field: DensityField, positions0, stop: StopRule,
            **options) -> ExperimentTrace:
    """Dispatch a single run; ``options`` go to the dynamic law's ``initialize_state``."""
    if law == "static" and options:
        raise DomainError(f"the static law takes no dynamic-law options {sorted(options)}")
    if law == "static":
        return run_static(field, positions0, stop)
    if law == "dynamic":
        return run_dynamic(field, positions0, stop, **options)
    raise DomainError(f"unknown law {law!r}")


def _sweep_cell(law: str, field: DensityField, init_mode: str, seed: int, tol: float,
                max_rounds: int, options: dict, n: int, run: int) -> int:
    """Convergence rounds of run ``run`` at n agents, from substream (seed, n, run)."""
    x0 = initial_positions(init_mode, n, StreamRng(seed, n, run), law=law)
    trace = run_one(law, field, x0, StopRule(tol, max_rounds), **options)
    rounds, converged = convergence_time(trace, tol)
    if not converged:
        raise NumericError(
            f"sweep cell (law={law}, n={n}, run={run}) did not converge "
            f"within {max_rounds} rounds"
        )
    return rounds


def sweep(law: str, field: DensityField, n_list, runs: int, init_mode: str,
          seed: int, *, tol: float = 1e-4, max_rounds: int = 200_000,
          workers: int = 1, **options) -> SweepTable:
    """Measure convergence rounds over (n, run) cells and fit the scaling.

    Every cell draws from the substream keyed by (seed, n, run), so tables
    are identical for identical arguments regardless of worker count or
    completion order. Each cell is one :func:`run_one` call with ``options``.
    """
    if runs < 1:
        raise DomainError("runs must be at least 1")
    if workers < 1:
        raise DomainError("workers must be at least 1")
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) < 2:
        raise DomainError("a sweep needs at least two distinct agent counts to fit")
    cell = partial(_sweep_cell, law, field, init_mode, seed, tol, max_rounds, options)
    ns = [n for n in n_list for _ in range(runs)]
    run_ids = list(range(runs)) * len(n_list)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(cell, ns, run_ids))
    else:
        results = list(map(cell, ns, run_ids))

    counts = np.array(results, dtype=float).reshape(len(n_list), runs)
    rows = []
    for n, vals in zip(n_list, counts):
        mean = float(vals.mean())
        if mean < 1.0:
            raise NumericError(f"degenerate sweep row for n={n}: mean rounds {mean}")
        rows.append(SweepRow(n=n, mean_rounds=mean,
                             std_rounds=float(vals.std(ddof=0)), runs=runs))
    fit = loglog_fit([r.n for r in rows], [r.mean_rounds for r in rows])
    return SweepTable(rows=tuple(rows), fit=fit)
