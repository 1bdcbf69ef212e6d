"""The local median control law and its mass-gap reformulation.

Every round, each agent simultaneously moves to a weighted median of its
neighbors: the leftmost to the 1/2-median of (0, x_2), interior agents to
the 1-median of their neighbors, the rightmost to the 2-median of
(x_{n-1}, 1). In mass coordinates y = F(x) the update is linear, and the
boundary-doubled gap vector

    d = (2 y_1, y_2 - y_1, ..., y_n - y_{n-1}, 2 (F(1) - y_n))

evolves as d(t+1) = (I + U/6) d(t) with the tridiagonal stencil built in
:mod:`linecover.spectral`. All gaps converge to the common value F(1)/n,
which is exactly the optimality condition of the balanced configuration.
"""

from __future__ import annotations

import numpy as np

from .density import DensityField, check_positions, coverage, optimal_configuration
from .errors import DomainError
from .trace import ExperimentTrace, StopRule, TraceRow


def static_step(field: DensityField, positions) -> np.ndarray:
    """One simultaneous median update, evaluated at the old positions."""
    x = check_positions(positions, n_min=2)
    if x.size < 2:
        raise DomainError("the static law needs at least 2 agents")
    y = field.cdf(x)
    targets = np.empty_like(y)
    targets[0] = y[1] / 3.0
    if y.size > 2:
        targets[1:-1] = 0.5 * (y[:-2] + y[2:])
    targets[-1] = (y[-2] + 2.0 * field.total_mass) / 3.0
    # The targets are ordered in exact arithmetic, but the boundary rows
    # round differently from the interior ones, so neighbours can invert one
    # ulp out of order. The running maximum repairs only such inversions;
    # counting its hits is left to the run telemetry (ROADMAP item 1).
    return np.maximum.accumulate(field.inverse_cdf(targets))


def gap_vector(field: DensityField, positions) -> np.ndarray:
    """Boundary-doubled mass gaps (n+1 entries) of a configuration."""
    x = check_positions(positions, n_min=1)
    y = field.cdf(x)
    d = np.empty(x.size + 1)
    d[0] = 2.0 * y[0]
    d[1:-1] = np.diff(y)
    d[-1] = 2.0 * (field.total_mass - y[-1])
    return d


def run_static(field: DensityField, positions0, stop: StopRule,
               metadata: dict | None = None) -> ExperimentTrace:
    """Iterate the static law until the stop rule fires.

    The stop criterion compares against the known optimal configuration,
    which is also the law's limit, so the squared-error stopping rule is
    computable online.
    """
    x = check_positions(positions0, n_min=2)
    xstar, phi_star = optimal_configuration(field, x.size)
    meta = {"law": "static", "field": field.name, "n": int(x.size),
            "phi_star": phi_star}
    if metadata:
        meta.update(metadata)
    trace = ExperimentTrace(law="static", metadata=meta)

    streak = 0
    for t in range(stop.max_rounds + 1):
        residual = float(np.sum((x - xstar) ** 2))
        trace.rows.append(TraceRow(t, x.copy(), coverage(field, x), residual))
        if stop.tol is not None and residual <= stop.tol:
            streak += 1
            if streak >= stop.persist:
                trace.stop_reason = "tol"
                break
        else:
            streak = 0
        if t == stop.max_rounds:
            trace.stop_reason = "max_rounds"
            break
        x = static_step(field, x)
    return trace
