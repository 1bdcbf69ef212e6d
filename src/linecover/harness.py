"""Experiment orchestration: residuals, convergence times, seeded sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import lifted_chain, static_law
from .density import DensityField, check_agent_count, check_integer, gap_vector
from .errors import DomainError, NumericError
from .lifted_chain import run_dynamic
from .rng import StreamRng
from .static_law import run_static
from .trace import ExperimentTrace, StopRule, TraceBatch

INIT_MODES = ("random-uniform-order-statistics", "all-one", "all-zero-perturbed")
_INIT_ALIASES = {"random": "random-uniform-order-statistics"}

# The laws, and the fewest agents each runs with.
_MIN_AGENTS = {"static": static_law.MIN_AGENTS, "dynamic": lifted_chain.MIN_AGENTS}

# Ramp spacing used to make degenerate starts legal for the dynamic law's
# distinct-position cell initialization, invisible at display precision;
# above 10^6 agents the spacing is 1/n, so the ramp stays in [0, 1].
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
    """First round whose squared position error stays at or below tol to
    the trace's end.

    Returns (final round, converged=False) when the criterion never locks
    in. Every round counts, recorded or not: at the tol the run's stop rule
    judged, the answer is the trace's ``settled_round``, under every
    recording policy. A ``full`` trace also answers any other tol from its
    rows; a ``summary`` trace cannot, and raises DomainError.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if tol == trace.stop_tol:
        settled = trace.settled_round
    elif trace.record == "full":
        settled = trace.rows[0].t
        for row in reversed(trace.rows):
            if row.residual_sq > tol:
                settled = row.t + 1
                break
    else:
        raise DomainError(f"a trace recorded as {trace.record!r} holds the convergence "
                          f"round only for its stop tol {trace.stop_tol!r}, not {tol!r}")
    final = trace.final_round
    return ConvergenceTime(final, False) if settled > final else ConvergenceTime(settled, True)


def initial_positions(mode: str, n: int, rng: StreamRng | None = None,
                      law: str = "static") -> np.ndarray:
    """Build a start configuration for the named init mode.

    ``random-uniform-order-statistics`` sorts n uniform draws. ``all-one``
    puts every agent at 1; for the dynamic law it is perturbed downward by
    a ramp of spacing min(1e-6, 1/n) so the cell initialization sees
    distinct positions, the same device the ``all-zero-perturbed`` mode
    applies at 0.
    """
    mode = _INIT_ALIASES.get(mode, mode)
    if mode not in INIT_MODES:
        raise DomainError(f"unknown init mode {mode!r}")
    if law not in _MIN_AGENTS:
        raise DomainError(f"unknown law {law!r}")
    check_agent_count(n)
    if mode == "random-uniform-order-statistics":
        if rng is None:
            raise DomainError("random init needs a seeded generator")
        return np.sort(rng.uniforms(n))
    ramp = min(_RAMP, 1.0 / n)
    if mode == "all-one":
        if law == "dynamic":
            return 1.0 - ramp * np.arange(n - 1, -1, -1, dtype=float)
        return np.ones(n)
    return ramp * np.arange(1, n + 1, dtype=float)


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
    """Least-squares slope of log(values) on log(ns), in closed form: the same bits on any BLAS."""
    lx, ly = [math.log(n) for n in ns], [math.log(v) for v in values]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    dx, dy = [x - mx for x in lx], [y - my for y in ly]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    ss_tot = math.fsum(b * b for b in dy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, my - slope * mx, r2)


def run_one(law: str, field: DensityField, positions0, stop: StopRule, *,
            record: str = "full", sink=None, **options):
    """Dispatch a single run; ``record`` (the recording policy) and ``sink``
    go to :func:`linecover.trace.run_rounds`, and ``options`` to the
    dynamic law's ``initialize_state``.

    An (R, n) stack of starts, allowed under ``summary`` only, runs R runs
    and gives a TraceBatch of their traces, one per row, each with the bits
    its row's own run gives: the dynamic law's round loop steps the rows as
    one batch, and the static law runs them one by one.
    """
    if law == "static" and options:
        raise DomainError(f"the static law takes no dynamic-law options {sorted(options)}")
    batch = np.ndim(positions0) == 2
    if batch and record != "summary":
        raise DomainError(f"a batch of runs records under 'summary' only, not {record!r}")
    if law == "static" and batch:
        return TraceBatch(run_static(field, x, stop, record=record) for x in positions0)
    if law == "static":
        return run_static(field, positions0, stop, record=record, sink=sink)
    if law == "dynamic":
        return run_dynamic(field, positions0, stop, record=record, sink=sink, **options)
    raise DomainError(f"unknown law {law!r}")


def _sweep_row(law: str, field: DensityField, init_mode: str, seed: int, runs: int,
               tol: float, max_rounds: int, options: dict, n: int) -> list[int]:
    """Convergence rounds of runs 0..runs-1 at n agents, each from substream
    (seed, n, run).

    The distinct starts run as one :func:`run_one` call on their (R, n)
    stack; a start bit-identical to an earlier one, as every deterministic
    init mode gives, reuses that run. Each cell reads one integer from its
    run, which the ``summary`` policy keeps without recording a row per round.
    """
    starts = [initial_positions(init_mode, n, StreamRng(seed, n, run), law=law)
              for run in range(runs)]
    keys = [x0.tobytes() for x0 in starts]
    distinct = dict(zip(keys, starts))   # in the order of their first draw
    traces = dict(zip(distinct, run_one(law, field, np.array(list(distinct.values())),
                                        StopRule(tol, max_rounds), record="summary", **options)))
    counts = []
    for run, key in enumerate(keys):
        rounds, converged = convergence_time(traces[key], tol)
        if not converged:
            raise NumericError(
                f"sweep cell (law={law}, n={n}, run={run}) did not converge "
                f"within {max_rounds} rounds"
            )
        counts.append(rounds)
    return counts


def sweep(law: str, field: DensityField, n_list, runs: int, init_mode: str,
          seed: int, *, tol: float = 1e-4, max_rounds: int = 200_000,
          workers: int = 1, **options) -> SweepTable:
    """Measure convergence rounds over (n, run) cells and fit the scaling.

    Every cell draws from the substream keyed by (seed, n, run), so tables
    are identical for identical arguments regardless of worker count or
    completion order. The runs of one n are one :func:`run_one` call with
    ``options``; ``workers`` processes share out the agent counts.
    """
    if check_integer(runs, "runs") < 1:
        raise DomainError("runs must be at least 1")
    if check_integer(workers, "workers") < 1:
        raise DomainError("workers must be at least 1")
    n_min = _MIN_AGENTS.get(law, 1)
    n_list = [check_agent_count(n, n_min) for n in n_list]   # all, before any cell runs
    if len(set(n_list)) < 2:
        raise DomainError("a sweep needs at least two distinct agent counts to fit")
    row = partial(_sweep_row, law, field, init_mode, seed, runs, tol, max_rounds, options)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # only a pooled sweep pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(row, n_list))
    else:
        results = list(map(row, n_list))

    counts = np.array(results, dtype=float)
    rows = []
    for n, vals in zip(n_list, counts):
        mean = float(vals.mean())
        if mean == 0.0:
            raise DomainError(f"every start at n={n} already meets tol={tol!r}: "
                              "there are no rounds to fit; choose a smaller tol")
        rows.append(SweepRow(n=n, mean_rounds=mean,
                             std_rounds=float(vals.std(ddof=0)), runs=runs))
    fit = loglog_fit([r.n for r in rows], [r.mean_rounds for r in rows])
    return SweepTable(rows=tuple(rows), fit=fit)
