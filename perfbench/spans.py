"""Spans around linecover's public functions, installed from outside.

Every wrapped call is a span. A span's self time is its duration minus the
time covered by the spans it caused. Nothing inside ``src/`` is changed:
a wrapper replaces the function in every linecover module that holds the
same function object, so names imported by name (``coverage``,
``check_positions``, ``optimal_configuration``, ``run_static``,
``run_dynamic``, ...) are caught wherever they are called from, and
``DensityField`` methods are replaced on the class.

An untraced pass wraps only the per-run set-up calls, the churn calls and
the MARKS, so that ``setup_s`` can be measured without tracing every call.
There each wrapped call also appends its start and end time to ``marks``.
The marks cut an operation into short segments (a round, a sweep cell, a
spectrum, a set-up call) that recur in the same order on every repetition
of the operation, which lets the worker take the fastest repetition of
each segment.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("density", "static_law", "lifted_chain", "spectral", "harness", "cli")

# Per-run set-up: summed into setup_s when outermost. The chain rebuild
# inside add_agent/remove_agent is churn work, not set-up.
SETUP = frozenset({
    "density.resolve_density", "density.optimal_configuration",
    "harness.initial_positions", "lifted_chain.initialize_state",
    "lifted_chain.build_chain", "lifted_chain.init_z",
})
CHURN = frozenset({"lifted_chain.add_agent", "lifted_chain.remove_agent"})
# Calls that cut the operations into short segments: the
# round of each law, a sweep cell, a spectrum, the chain diagnostics and
# the trace CSV write. At most about 9 k calls per pass (the sweep), at
# about 1 us each, so marking costs at most about 1 % of a pass.
MARKS = frozenset({
    "static_law.static_step", "lifted_chain.chain_step", "harness.run_one",
    "spectral.spectrum", "lifted_chain.stationary", "lifted_chain.mixing_profile",
    "lifted_chain.spreading_min", "cli.write_trace_csv",
}) | SETUP | CHURN


class Recorder:
    """Span statistics of one pass: name -> [calls, total_s, self_s, units]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.setup_s = 0.0
        self.trace_rows = 0
        self.position_bytes = 0
        self.rounds_to_tol = 0
        # (time, in set-up) at each start and end of a marked call; the flag
        # tells whether the segment that begins there is set-up work
        self.marks: list[tuple[float, bool]] = []
        self._stack: list[float] = []   # child seconds of each open span
        self._guard = 0                 # open set-up or churn spans
        self._in_setup = False          # an outermost set-up span is open

    def wrap(self, name, fn, units=None, on_result=None, mark=False):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        marks = self.marks
        guarded = name in SETUP or name in CHURN
        is_setup = name in SETUP
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if guarded:
                if is_setup and rec._guard == 0:
                    rec._in_setup = True
                rec._guard += 1
            stack.append(0.0)
            t0 = clock()
            if mark:
                marks.append((t0, rec._in_setup))
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
                if guarded:
                    rec._guard -= 1
                    if is_setup and rec._guard == 0:
                        rec.setup_s += duration
                        rec._in_setup = False
                if mark:
                    marks.append((t1, rec._in_setup))
            if units is not None:
                stats[3] += units(args)
            if on_result is not None:
                on_result(result)
            return result

        return span

    # result hooks -----------------------------------------------------

    def _count_trace(self, trace):
        rows = len(trace.rows)
        self.trace_rows += rows
        self.position_bytes += rows * trace.rows[0].positions.size * 8

    def _count_rounds(self, result):
        self.rounds_to_tol += int(result.rounds)

    def install(self, traced: bool) -> None:
        """Wrap the layer functions: all of them, or only the marked ones."""
        hooks = {
            "static_law.run_static": {"on_result": self._count_trace},
            "lifted_chain.simulate_dynamic": {"on_result": self._count_trace},
            "harness.convergence_time": {"on_result": self._count_rounds},
        }
        holders = [m for n, m in sys.modules.items()
                   if n == "linecover" or n.startswith("linecover.")]
        for layer in LAYERS:
            module = sys.modules[f"linecover.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if not traced and name not in MARKS:
                    continue
                wrapped = self.wrap(name, fn, mark=not traced, **hooks.get(name, {}))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
        if traced:
            cls = sys.modules["linecover.density"].DensityField
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                units = (lambda args: int(np.size(args[1]))) if attr == "inverse_cdf" else None
                setattr(cls, attr, self.wrap(f"density.{attr}", fn, units=units))

    # reporting ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every statistic, to start a new pass."""
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0, 0]
        self.setup_s = 0.0
        self.trace_rows = self.position_bytes = self.rounds_to_tol = 0
        self.marks.clear()

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(stats) for name, stats in self.stats.items()},
            "trace_rows": self.trace_rows,
            "position_bytes": self.position_bytes,
            "rounds_to_tol": self.rounds_to_tol,
        }


def segments(t0: float, t1: float, marks: list) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths of one repetition, and which of them are set-up."""
    times = np.array([t0] + [t for t, _ in marks] + [t1])
    in_setup = np.array([False] + [flag for _, flag in marks])
    return np.diff(times), in_setup


class SegmentFloor:
    """Per-segment minimum over the repetitions of one operation."""

    def __init__(self):
        self.fastest = self.in_setup = None

    def add(self, seg: np.ndarray, in_setup: np.ndarray) -> bool:
        """Take one repetition; False if it cut into other segments than the first."""
        if self.fastest is None:
            self.fastest, self.in_setup = seg, in_setup
        elif seg.size != self.fastest.size or not np.array_equal(in_setup, self.in_setup):
            return False
        else:
            np.minimum(self.fastest, seg, out=self.fastest)
        return True

    def summary(self) -> dict:
        return {"segments": int(self.fastest.size), "floor_s": float(self.fastest.sum()),
                "run_floor_s": float(self.fastest[~self.in_setup].sum())}
