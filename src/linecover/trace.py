"""Run records and stopping rules shared by both control laws."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .density import DensityField, coverage, mass_gaps, optimal_configuration
from .errors import DomainError, NumericError

_ZSUM_GUARD = 1e-9   # internal relative drift guard on the conserved mass


@dataclass(frozen=True)
class StopRule:
    """When to end a run.

    ``tol`` bounds the squared position error sum(x_i - x_i*)^2 against the
    optimal configuration for the run's agent count; the rule fires once the
    criterion has held for ``persist`` consecutive rounds. Left unset, the
    law sets it: one round, or one token cycle of U rounds for the dynamic
    law. ``max_rounds`` always terminates the run.
    """

    tol: float | None = 1e-4
    max_rounds: int = 100_000
    persist: int | None = None

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0.0:
            raise DomainError("tol must be positive (or None to disable)")
        if self.max_rounds < 1:
            raise DomainError("max_rounds must be at least 1")
        if self.persist is not None and self.persist < 1:
            raise DomainError("persist must be at least 1")


@dataclass
class TraceRow:
    t: int
    positions: np.ndarray
    phi: float
    residual_sq: float
    zsum: float | None = None


@dataclass
class ExperimentTrace:
    """Per-round record of one run: positions, coverage, optimality residual.

    Dynamic runs also record the conserved mass total per round. ``t`` is
    strictly increasing; it starts at 0 for fresh runs and at the resume
    round for continuations after agent churn.
    """

    metadata: dict
    rows: list[TraceRow] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def final_positions(self) -> np.ndarray:
        return self.rows[-1].positions

    @property
    def final_round(self) -> int:
        return self.rows[-1].t

    @property
    def final_phi(self) -> float:
        return self.rows[-1].phi


def run_rounds(field: DensityField, positions: np.ndarray, masses: np.ndarray,
               step: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
               stop: StopRule, *, t: int = 0,
               zsum: Callable[[], float] | None = None) -> ExperimentTrace:
    """Advance a run round by round until the stop rule fires.

    The loop carries the agents' masses y = F(x) next to their positions:
    ``positions`` must already be validated and ``masses`` must be their
    ``field.cdf``, and ``step`` performs one round of the law, mapping
    (x, y) to the new (x, y). One row is recorded per round, including the
    entry state, numbered from ``t``: coverage, half the largest
    boundary-doubled gap of y, and the squared distance to the optimal
    configuration for the run's agent count. That optimum is also the
    limit of both laws, so the stop criterion is computable online.
    ``zsum``, when given, returns the conserved mass total, which is
    recorded and must stay at F(1). ``max_rounds`` counts the rounds
    executed by this call, so churn scenarios can resume a run.

    Each row checks only that the positions are ordered and inside [0, 1];
    at the end the last row's coverage is recomputed from the final
    positions. Either failure is an internal fault and raises NumericError.
    """
    x, y = positions, masses
    xstar, phi_star = optimal_configuration(field, x.size)
    total = field.total_mass
    trace = ExperimentTrace(metadata={"phi_star": phi_star})
    persist = 1 if stop.persist is None else stop.persist
    streak = 0
    for k in range(stop.max_rounds + 1):
        if not (x[0] >= 0.0 and x[-1] <= 1.0 and np.all(x[1:] >= x[:-1])):
            raise NumericError(f"round {t + k}: agent positions left order or [0, 1]")
        mass = None
        if zsum is not None:
            mass = zsum()
            if abs(mass - total) > _ZSUM_GUARD * max(1.0, total):
                raise NumericError(f"mass conservation drifted: sum z = {mass!r}")
        residual = float(np.sum((x - xstar) ** 2))
        phi = float(np.max(mass_gaps(y, total))) / 2.0
        trace.rows.append(TraceRow(t + k, x.copy(), phi, residual, mass))
        streak = streak + 1 if stop.tol is not None and residual <= stop.tol else 0
        if streak >= persist:
            trace.stop_reason = "tol"
            break
        if k == stop.max_rounds:
            trace.stop_reason = "max_rounds"
            break
        x, y = step(x, y)
    if coverage(field, x) != trace.final_phi:
        raise NumericError("carried masses drifted from F(positions)")
    return trace
