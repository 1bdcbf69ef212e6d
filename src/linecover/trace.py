"""Run records and stopping rules shared by both control laws."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .density import DensityField, check_integer, coverage, mass_gaps, optimal_configuration
from .errors import DomainError, NumericError

_ZSUM_GUARD = 1e-9   # internal relative drift guard on the conserved mass
# Under a full trace, the masses whose rounds are recorded as one block: the static F^-1
# and cdf then run once a block (n scalar calls a round at n <= 32), and a dynamic round
# pays no order check or row of its own. perfbench static-quadratic wall_s (seed 3, 2
# shared CPUs, 3 runs): 0.023-0.024 s round by round; 0.0106-0.0108, 0.0096-0.0098,
# 0.0087-0.0092, 0.0094-0.0097 s at 512, 1024, 2048, 4096 masses; 8192 no faster, at
# +5.0 % peak memory (4096 +1.9 %, 2048 +0.5 %). A full dynamic round (best of 15): 19-20,
# 21, 35 us at n = 10, 100, 1000 round by round; 13-14, 15-16, 29-30 (streamed) at 2048
# masses; 1024 costs 17-18 us at n = 100, 4096 and 8192 save 1-3 us at n = 1000.
_BLOCK_MASSES = 2048


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
        if check_integer(self.max_rounds, "max_rounds") < 1:
            raise DomainError("max_rounds must be at least 1")
        if self.persist is not None and check_integer(self.persist, "persist") < 1:
            raise DomainError("persist must be at least 1")


@dataclass
class TraceRow:
    t: int
    positions: np.ndarray
    phi: float
    residual_sq: float
    zsum: float | None = None


RECORD_POLICIES = ("full", "summary")


def check_record(policy: str) -> str:
    """policy, if it is a recording policy; DomainError otherwise.

    ``full`` keeps a row for every round, ``summary`` for the final round
    only.
    """
    if policy not in RECORD_POLICIES:
        raise DomainError(f"record must be one of {RECORD_POLICIES}, got {policy!r}")
    return policy


@dataclass
class ExperimentTrace:
    """Record of one run: positions, coverage, optimality residual per row.

    Dynamic runs also record the conserved mass total per row. ``t`` is
    strictly increasing; it starts at the entry round, 0 for fresh runs and
    the resume round for continuations after agent churn. ``record`` names
    the policy that chose the rows (see :func:`check_record`); the final
    round always has one. A run whose rows went to a sink keeps its final
    row only, as under ``summary``, and names that policy.
    ``settled_round`` is one past the last round whose residual exceeded
    ``stop_tol``, the tol the stop rule judged (the entry round if none
    did); it covers every round whatever the policy, and means nothing when
    ``stop_tol`` is None.
    """

    metadata: dict
    rows: list[TraceRow] = field(default_factory=list)
    stop_reason: str = ""
    record: str = "full"
    stop_tol: float | None = None
    settled_round: int = 0

    @property
    def final_positions(self) -> np.ndarray:
        return self.rows[-1].positions

    @property
    def final_round(self) -> int:
        return self.rows[-1].t

    @property
    def final_phi(self) -> float:
        return self.rows[-1].phi


class TraceBatch(list):
    """The traces of a batch of runs, one per row of its (R, n) start.
    ``rows`` lists the rows they recorded, run by run, so code that counts
    a run's recorded rows counts a batch's alike."""

    @property
    def rows(self) -> list[TraceRow]:
        return [row for trace in self for row in trace.rows]


def run_rounds(field: DensityField, positions: np.ndarray, masses: np.ndarray, step: Callable,
               stop: StopRule, *, bound: Callable | None = None, view: Callable | None = None,
               t: int = 0, zsum: Callable | None = None, keep: Callable | None = None,
               record: str = "full", sink: Callable | None = None) -> ExperimentTrace | TraceBatch:
    """Advance a run round by round until the stop rule fires.

    The loop carries the agents' masses y = F(x) next to their positions:
    ``positions`` must already be validated and ``masses`` must be their
    ``field.cdf``, and ``step`` performs one round of the law, mapping
    (x, y) to the new (x, y). A law whose x is a function of y alone passes
    it as ``view``, on a (B, n) stack of masses, and carries no x (its step
    returns None) or ``zsum``. Rounds are numbered from ``t``, the entry
    state included. ``max_rounds`` counts the rounds executed by this call,
    so churn scenarios can resume a run. A law that carries x may pass an
    (R, n) stack, under ``summary`` only, for a TraceBatch of R runs, one
    per row: each row settles and stops on its own, and is then dropped
    from x and y, and by ``keep(go)``, given the rows that go on, from the
    law's other state.

    The squared distance to the optimal configuration x* for the run's
    agent count drives the stop rule (that optimum is also the limit of
    both laws, so the criterion is computable online) and the trace's
    ``settled_round``. A round mapped alone has its x read, checked to be
    ordered inside [0, 1], and each row's residual judged: the entry and
    final rounds, and each round whose least row residual (for a view,
    ``bound(y, x*)``, a certified lower bound on it which may check the
    unmapped state) is not above tol. Every other round settles unmapped,
    under either policy, so both decide alike, bit for bit. ``zsum``, when
    given, returns the conserved mass total (one per row), which must stay
    at F(1) in every round. ``record`` chooses the rounds that keep a row
    (positions, coverage as half the largest boundary-doubled gap of their
    masses, residual and zsum): every round under ``full``, the final round
    only under ``summary``. Under ``full`` the rounds settled unmapped are
    queued (their y, and a carried x, residual and zsum) and recorded as one
    block, checked for order, once the queue holds ``_BLOCK_MASSES`` masses
    and before each round mapped alone; a view maps the block's y, and the
    block's rows view its x. ``sink``, when given, takes one run's rows in
    round order as they are recorded; the trace then keeps only its final
    row, as under ``summary``, and the loop reuses its buffers, so the sink
    copies what it keeps. A failed check, or a final coverage that differs
    when recomputed, is an internal fault: NumericError.
    """
    every_round = check_record(record) == "full"
    x, y = positions, masses
    batch = x.ndim == 2
    if batch and every_round:
        raise DomainError(f"a batch of runs records under 'summary' only, not {record!r}")
    xstar, phi_star = optimal_configuration(field, x.shape[-1])
    total = field.total_mass
    tol = stop.tol
    # runs: the trace of each row still going
    traces = runs = [ExperimentTrace(metadata={"phi_star": phi_star}, stop_tol=tol,
                                     record=record if sink is None else "summary")
                     for _ in range(len(x) if batch else 1)]
    persist = 1 if stop.persist is None else stop.persist
    settled = [t] * len(runs)   # one past each row's last mapped round above tol
    above = t   # one past the last round settled unmapped, above tol in every row
    # the queue of a full trace: the y of each round settled unmapped since the
    # last flush and, for a law that carries x, its x, residual and mass total
    qy = np.empty((-(-_BLOCK_MASSES // x.shape[-1]), x.shape[-1]))
    qx, qr, qz = np.empty_like(qy), np.empty(len(qy)), np.empty(len(qy))
    queued = 0

    def flush(end):   # record the queued rounds, end - queued .. end - 1, as rows
        nonlocal qx, queued
        rounds, b, queued = range(end - queued, end), queued, 0
        xs = qx[:b] if view is None else view(qy[:b])
        check_order(xs, rounds)
        if view is None:
            record_row(field, runs[0], rounds.start, xs, qy[:b], qr[:b].tolist(), qz[:b].tolist())
            if sink is None:   # the rows view the queued x: the trace keeps that buffer
                qx = np.empty_like(qx)
        else:
            record_row(field, runs[0], rounds.start, xs, field.cdf(xs),
                       np.square(xs - xstar).sum(axis=-1).tolist(), [None] * b)
        emit(runs[0])

    def emit(run):   # the sink takes the rows recorded; the trace keeps its final row
        if sink is not None:
            sink(run.rows)
            run.rows = run.rows[-1:] if run.stop_reason else []

    for k in range(stop.max_rounds + 1):
        mass = None
        if zsum is not None:
            mass = zsum()
            check_mass(mass, total, t + k)
        # a carried x gives each row's exact residual, a view a lower bound on the least
        residual = None if view is not None else np.square(x - xstar).sum(axis=-1)
        if k and k < stop.max_rounds:
            lower = (bound(y, xstar) if view is not None   # even without tol: it may check y
                     else residual.min() if batch else residual)
            if tol is None or lower > tol:
                above = t + k + 1
                if every_round:
                    qy[queued] = y
                    if view is None:
                        qx[queued], qr[queued], qz[queued] = x, residual, mass
                    queued += 1
                    if queued == len(qy):
                        flush(t + k + 1)
                x, y = step(x, y)
                continue
        if queued:
            flush(t + k)
        # fx: the masses of x, unknown for a view (it maps y to other masses' x)
        x, fx = (view(y[None])[0], None) if k and view is not None else (x, y)
        check_order(x, t + k)
        if residual is None:
            residual = np.square(x - xstar).sum(axis=-1)
        # each row's residual and mass total
        residuals, zs = (residual.tolist(), mass.tolist()) if batch else ((float(residual),), (mass,))
        now, last, stopped = t + k + 1, k == stop.max_rounds, []
        for i, ri in enumerate(residuals):
            if tol is None or not ri <= tol:
                settled[i] = now
            elif settled[i] < above:
                settled[i] = above
            # the rounds settled[i]..t + k have all held the criterion
            reason = "tol" if now - settled[i] >= persist else "max_rounds" if last else ""
            if reason or every_round:
                xi, yi = (x[i], fx[i]) if batch else (x, fx)
                record_row(field, runs[i], t + k, xi, field.cdf(xi) if yi is None else yi, ri, zs[i])
                if reason:
                    finish(field, runs[i], xi, reason, settled[i])
                    stopped.append(i)
                emit(runs[i])
        if stopped:
            go = [i for i in range(len(runs)) if i not in stopped]   # the rows that go on
            if not go:
                break
            x, y = x[go], y[go]
            keep(go)
            runs, settled = [runs[i] for i in go], [settled[i] for i in go]
        x, y = step(x, y)
    return TraceBatch(traces) if batch else traces[0]


def check_mass(mass: float | np.ndarray, total: float, t: int) -> None:
    """NumericError unless the conserved mass total of round t, or every
    row's total of a batch, stays at F(1) = ``total`` within the guard; NaN fails."""
    if isinstance(mass, np.ndarray):
        mass = float(mass[np.abs(mass - total).argmax()])   # the worst row
    if not abs(mass - total) <= _ZSUM_GUARD * max(1.0, total):
        raise NumericError(f"round {t}: mass conservation drifted: sum z = {mass!r}")


def check_order(x: np.ndarray, t: int | range) -> None:
    """NumericError, naming the first round at fault, unless the positions x
    of round t, one row or a stack of rows, are ordered inside [0, 1]; given
    a range t, the rows of x are those of its rounds."""
    lo, hi = (x[0], x[-1]) if x.ndim == 1 else (x[:, 0].min(), x[:, -1].max())
    if not (lo >= 0.0 and hi <= 1.0 and (x[..., 1:] >= x[..., :-1]).all()):
        if isinstance(t, range):   # the first round at fault raises
            for row, t in zip(x, t):
                check_order(row, t)
        raise NumericError(f"round {t}: agent positions left order or [0, 1]")


def record_row(field: DensityField, trace: ExperimentTrace, t: int, x: np.ndarray,
               masses: np.ndarray, residual, zsum) -> None:
    """Append the row of round t: a copy of the positions x, their coverage
    as half the largest boundary-doubled gap of their ``masses``, the
    residual and zsum; or, given stacks of them (one residual and zsum per
    row), the rows of rounds t, t + 1, ..., whose positions view the rows of x."""
    gaps = mass_gaps(masses, field.total_mass)
    if x.ndim == 1:   # one round mapped alone: spared the stack's extra calls
        trace.rows.append(TraceRow(t, x.copy(), float(gaps.max()) / 2.0, residual, zsum))
    else:
        trace.rows.extend(map(TraceRow, range(t, t + len(x)), x,
                              (gaps.max(axis=-1) / 2.0).tolist(), residual, zsum))


def finish(field: DensityField, trace: ExperimentTrace, x: np.ndarray, reason: str,
           settled: int) -> ExperimentTrace:
    """The trace, given its stop reason and settled round; NumericError if
    the coverage of its final positions x, recomputed, differs from its final row's."""
    trace.stop_reason, trace.settled_round = reason, settled
    if coverage(field, x) != trace.final_phi:
        raise NumericError("carried masses drifted from F(positions)")
    return trace
