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

A run carries y alone, advanced once a round by :func:`_advance`; positions
are a view of y, the running maximum of F^-1(y), mapped by :func:`static_step`
alone at the final round and where this lower bound on the residual reaches
tol, and in blocks of rounds for a full trace's other rows; the stop hook
checks y's order and returns this bound. If rho <= P on [a, b], breakpoints
and zeros of rho included, |F(a) - F(b)| <= P |a - b|.
:meth:`DensityField.rho_near` bounds rho by P_i on the knot cells that hold
the mass h_i around y*_i, and rho <= rho_max beyond them, so an agent
d_i = |y_i - y*_i| off its optimal mass lies at least
d_i / rho_max + min(d_i, h_i) (1 / P_i - 1 / rho_max) from x*_i. The float
slack is measured, not proved: 2^-40 rho_max of mass per agent covers two
inverses' mass error (at most 1.3 ulps of rho_max on 52 sampled fields,
5.5e-4 of the slack on narrow segments whose coefficients cancel in x; a
certified Newton stop is proved within 4.5e-16 |x| of the root, up to the
roundoff of F), and 1 - (n + 8) 2^-52 the rounding of the sums.
"""

from __future__ import annotations

import numpy as np

from .density import DensityField, check_positions, optimal_masses
from .errors import NumericError
from .trace import ExperimentTrace, StopRule, run_rounds

MIN_AGENTS = 2   # the leftmost and rightmost agents each need a neighbour


def _advance(y: np.ndarray, total: float) -> np.ndarray:
    """The masses after one round (the targets, capped at F(1))."""
    targets = np.empty_like(y)
    targets[0] = y[1] / 3.0
    targets[1:-1] = 0.5 * (y[:-2] + y[2:])   # empty for two agents
    targets[-1] = min((y[-2] + 2.0 * total) / 3.0, total)
    # the boundary rows round unlike the interior ones, so neighbours can invert
    # by an ulp; the running maximum repairs only that (ROADMAP item 3 counts it)
    return np.maximum.accumulate(targets, out=targets)


def static_step(field: DensityField, positions, masses=None) -> np.ndarray:
    """One simultaneous median update of the agents at ``positions``; or the
    positions of ``masses``, when given: a round's advanced masses, or rows of them."""
    if masses is None:
        x = check_positions(positions, n_min=MIN_AGENTS)
        masses = _advance(field.cdf(x), field.total_mass)
    return np.maximum.accumulate(field.inverse_cdf(masses), axis=-1)


def run_static(field: DensityField, positions0, stop: StopRule, *,
               record: str = "full", sink=None) -> ExperimentTrace:
    """Iterate the static law until the stop rule fires, recording rows by
    the policy ``record`` and handing them to ``sink``, if given (see
    :func:`linecover.trace.run_rounds`)."""
    x = check_positions(positions0, n_min=MIN_AGENTS)
    total, rho_max, n = field.total_mass, field.rho_max, x.size
    ystar = optimal_masses(field, n)
    peak, reach = field.rho_near(ystar)
    slope = 1.0 / np.maximum(peak / rho_max, 2.0 ** -40)   # rho_max / P_i; raising P_i is safe
    reach, rise = reach / rho_max, slope - 1.0
    # slope @ slope and d @ d below are BLAS dot products, whose last bits
    # depend on the CPU's kernel; they only choose which rounds get mapped,
    # under a certified bound, so no output depends on those bits
    cut, shrink = 2.0 ** -40 * float(slope @ slope) ** 0.5, 1.0 - (n + 8) * 2.0 ** -52

    def bound(y, xstar):
        if not (y[0] >= 0.0 and y[-1] <= total and (y[1:] >= y[:-1]).all()):
            raise NumericError("agent masses left order or [0, F(1)]")
        d = np.abs(y - ystar) / rho_max   # in units of rho_max, so that no scale overflows
        d += rise * np.minimum(d, reach)
        return max((d @ d) ** 0.5 - cut, 0.0) ** 2 * shrink

    return run_rounds(field, x, field.cdf(x), lambda x, y: (None, _advance(y, total)), stop,
                      bound=bound, view=lambda ys: static_step(field, None, ys), record=record,
                      sink=sink)
