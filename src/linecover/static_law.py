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

from .density import DensityField, check_positions
from .trace import ExperimentTrace, StopRule, run_rounds

MIN_AGENTS = 2   # the leftmost and rightmost agents each need a neighbour


def static_step(field: DensityField, positions, masses=None) -> np.ndarray:
    """One simultaneous median update, evaluated at the old positions.

    ``masses``, when given, must be ``field.cdf`` of the validated
    positions; the positions are then neither validated nor mapped again.
    """
    y = field.cdf(check_positions(positions, n_min=MIN_AGENTS)) if masses is None else masses
    targets = np.empty_like(y)
    targets[0] = y[1] / 3.0
    targets[1:-1] = 0.5 * (y[:-2] + y[2:])   # empty for two agents
    targets[-1] = (y[-2] + 2.0 * field.total_mass) / 3.0
    # The targets are ordered in exact arithmetic, but the boundary rows
    # round differently from the interior ones, so neighbours can invert one
    # ulp out of order. The running maximum repairs only such inversions;
    # counting its hits is left to the run telemetry (ROADMAP item 3).
    return np.maximum.accumulate(field.inverse_cdf(targets))


def run_static(field: DensityField, positions0, stop: StopRule, *,
               record: str = "full") -> ExperimentTrace:
    """Iterate the static law until the stop rule fires, recording rows by
    the policy ``record`` (see :func:`linecover.trace.run_rounds`)."""
    def step(x, y):
        x = static_step(field, x, y)
        return x, field.cdf(x)

    x = check_positions(positions0, n_min=MIN_AGENTS)
    return run_rounds(field, x, field.cdf(x), step, stop, record=record)
