"""Median update law: step examples, gap dynamics, convergence, robustness."""

from fractions import Fraction
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecover.trace
from linecover import (
    DensityField,
    DomainError,
    NumericError,
    StopRule,
    StreamRng,
    convergence_time,
    gap_vector,
    initial_positions,
    optimal_configuration,
    quadratic_density,
    resolve_density,
    run_static,
    static_law,
    static_step,
)
from linecover.harness import INIT_MODES
from linecover.spectral import build_system

import exact
from conftest import make_random_field, narrow_segment_fields, random_field_spec


def test_step_two_agents_by_hand(uniform_field):
    # x1 <- F^-1(0.6/3), x2 <- F^-1((0.2 + 2)/3)
    got = static_step(uniform_field, [0.2, 0.6])
    assert got == pytest.approx([0.2, 2.2 / 3.0], abs=1e-14)


def test_step_fixed_point_at_optimum(uniform_field):
    got = static_step(uniform_field, [0.25, 0.75])
    assert got == pytest.approx([0.25, 0.75], abs=1e-14)


def test_step_coincident_agents(uniform_field):
    got = static_step(uniform_field, [0.3, 0.3, 0.3])
    assert got == pytest.approx([0.1, 0.3, 2.3 / 3.0], abs=1e-14)


def test_step_matches_per_agent_medians():
    # the exact step moves agents to the 1/2-median of (0, x_2), the
    # 1-medians of their neighbours and the 2-median of (x_{n-1}, 1)
    field, exact_field = exact.field_pair([0.0, 0.3125, 0.6875, 1.0], [2, 5, 1])
    x = np.sort(np.array(StreamRng(102).uniforms(7)))
    want = exact.static_step(exact_field, [Fraction(v) for v in x])
    assert exact.max_error(static_step(field, x), want) <= 2.0 * 2.0 ** -52


def test_step_rejects_single_agent(uniform_field):
    with pytest.raises(DomainError):
        static_step(uniform_field, [0.5])


def test_ordering_preserved_along_runs(random_field_factory):
    for case in range(5):
        field = random_field_factory(StreamRng(110, case))
        rng = StreamRng(111, case)
        x = np.sort(np.array(rng.uniforms(9)))
        for _ in range(60):
            x = static_step(field, x)
            assert np.all(np.diff(x) >= 0.0)


@pytest.mark.parametrize("n", [80, 100])
def test_ordering_holds_for_many_agents_near_full_mass(n):
    # Neighbours near F(1) used to invert one ulp out of order (round 87 at
    # n = 80, round 107 at n = 100) and the next round rejected the input.
    trace = run_static(quadratic_density(), initial_positions("all-one", n),
                       StopRule(tol=None, max_rounds=300))
    assert trace.final_round == 300
    for row in trace.rows:
        assert np.all(np.diff(row.positions) >= 0.0)


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.sampled_from(INIT_MODES))
def test_ordering_holds_on_random_fields(seed, n, mode):
    field = make_random_field(StreamRng(seed))
    x0 = initial_positions(mode, n, StreamRng(seed, n))
    trace = run_static(field, x0, StopRule(tol=None, max_rounds=30))
    for row in trace.rows:
        assert np.all(np.diff(row.positions) >= 0.0)


def test_gap_vector_by_hand(uniform_field):
    assert gap_vector(uniform_field, [0.2, 0.6]) == pytest.approx([0.4, 0.4, 0.8], abs=1e-15)


def test_gap_vector_at_optimum(uniform_field, quadratic_field):
    x5, _ = optimal_configuration(uniform_field, 5)
    assert gap_vector(uniform_field, x5) == pytest.approx([0.2] * 6, abs=1e-13)
    x2, _ = optimal_configuration(quadratic_field, 2)
    assert gap_vector(quadratic_field, x2) == pytest.approx([1.0 / 6.0] * 3, abs=1e-14)


def test_gap_vector_mass_partition(random_field_factory):
    field = random_field_factory(StreamRng(120))
    rng = StreamRng(121)
    for n in (2, 3, 8):
        x = np.sort(np.array(rng.uniforms(n)))
        d = gap_vector(field, x)
        total = d[0] / 2.0 + d[1:-1].sum() + d[-1] / 2.0
        assert total == pytest.approx(field.total_mass, abs=1e-12 * field.total_mass)


def test_gap_dynamics_match_update_matrix(random_field_factory):
    # the mass-gap vector follows d(t+1) = (I + U/6) d(t) exactly
    for case in range(6):
        field = random_field_factory(StreamRng(130, case))
        n = StreamRng(130, case, 9).randint(3, 12)
        rng = StreamRng(131, case)
        x = np.sort(np.array(rng.uniforms(n)))
        P = build_system(n + 1).P
        for _ in range(25):
            lhs = gap_vector(field, static_step(field, x))
            rhs = P @ gap_vector(field, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * field.total_mass
            x = static_step(field, x)


def test_gaps_converge_to_common_value(random_field_factory):
    field = random_field_factory(StreamRng(140))
    rng = StreamRng(141)
    n = 6
    x = np.sort(np.array(rng.uniforms(n)))
    trace = run_static(field, x, StopRule(tol=1e-14, max_rounds=20000))
    assert trace.stop_reason == "tol"
    d = gap_vector(field, trace.final_positions)
    assert np.max(np.abs(d - field.total_mass / n)) <= 1e-6 * field.total_mass


def test_step_invariant_under_density_scaling():
    breakpoints, coefficients = random_field_spec(StreamRng(150))
    field = DensityField(breakpoints, coefficients)
    scaled = DensityField(breakpoints, [[7.25 * c for c in row] for row in coefficients])
    rng = StreamRng(151)
    x = np.sort(np.array(rng.uniforms(8)))
    for _ in range(10):
        a = static_step(field, x)
        b = static_step(scaled, x)
        assert np.max(np.abs(a - b)) <= 1e-12
        x = a


def test_run_converges_to_optimum(uniform_field):
    trace = run_static(uniform_field, [0.2, 0.6], StopRule(tol=1e-8, max_rounds=10000))
    assert trace.stop_reason == "tol"
    assert trace.final_positions == pytest.approx([0.25, 0.75], abs=1e-3)


def test_run_stops_immediately_at_optimum(uniform_field):
    x, _ = optimal_configuration(uniform_field, 4)
    trace = run_static(uniform_field, x, StopRule(tol=1e-10))
    assert trace.final_round == 0
    assert trace.rows[0].residual_sq == 0.0
    assert trace.stop_reason == "tol"


def test_run_reports_max_rounds(uniform_field):
    trace = run_static(uniform_field, [0.0, 0.0, 0.0], StopRule(tol=1e-12, max_rounds=3))
    assert trace.stop_reason == "max_rounds"
    assert trace.final_round == 3


def test_run_count_matches_mass_space_recursion_oracle(uniform_field):
    # independent oracle: iterate the mass-coordinate updates directly
    # (y_1 <- y_2/3, y_i <- mean of neighbors, y_n <- (2 F(1) + y_{n-1})/3);
    # under the uniform density y and x coincide
    n, tol = 15, 1e-4
    xstar, _ = optimal_configuration(uniform_field, n)
    y = np.ones(n)
    oracle_rounds = None
    for t in range(100000):
        if float(np.sum((y - xstar) ** 2)) <= tol:
            oracle_rounds = t
            break
        nxt = np.empty_like(y)
        nxt[0] = y[1] / 3.0
        nxt[1:-1] = 0.5 * (y[:-2] + y[2:])
        nxt[-1] = (2.0 + y[-2]) / 3.0
        y = nxt
    trace = run_static(uniform_field, np.ones(n), StopRule(tol=tol, max_rounds=100000))
    measured = convergence_time(trace, tol)
    assert measured.converged
    assert measured.rounds == oracle_rounds


def test_midrun_agent_churn_reconverges(random_field_factory):
    # the law has no memory, so editing the configuration mid-run and
    # continuing must reach the optimum for the new agent count
    field = random_field_factory(StreamRng(160))
    rng = StreamRng(161)
    x = np.sort(np.array(rng.uniforms(6)))
    for _ in range(30):
        x = static_step(field, x)

    removed = np.delete(x, 2)
    trace = run_static(field, removed, StopRule(tol=1e-12, max_rounds=20000))
    xstar5, _ = optimal_configuration(field, 5)
    assert np.max(np.abs(trace.final_positions - xstar5)) <= 1e-5

    inserted = np.sort(np.append(x, 0.5))
    trace = run_static(field, inserted, StopRule(tol=1e-12, max_rounds=20000))
    xstar7, _ = optimal_configuration(field, 7)
    assert np.max(np.abs(trace.final_positions - xstar7)) <= 1e-5


@settings(max_examples=20)
@given(st.data())
def test_random_churn_keeps_order_and_reconverges(data):
    # the static half of the churn property: the law has no state beyond the
    # positions, so an agent joins or leaves by editing the configuration
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    field = make_random_field(StreamRng(seed))
    n0 = data.draw(st.integers(2, 6), label="n0")
    mode = data.draw(st.sampled_from(INIT_MODES), label="init")
    x = initial_positions(mode, n0, StreamRng(seed, n0))
    for _ in range(data.draw(st.integers(1, 8), label="events")):
        event = data.draw(st.sampled_from(["rounds", "add", "remove"]))
        if event == "rounds":
            for _ in range(data.draw(st.integers(1, 10))):
                x = static_step(field, x)
                assert np.all(np.diff(x) >= 0.0)
        elif event == "add":
            x_new = data.draw(st.one_of(st.sampled_from([0.0, 1.0, *x.tolist()]),
                                        st.floats(0.0, 1.0)))
            x = np.insert(x, np.searchsorted(x, x_new, side="right"), x_new)
        elif x.size >= 3:
            x = np.delete(x, data.draw(st.integers(0, x.size - 1)))
        assert np.all(np.diff(x) >= 0.0)

    trace = run_static(field, x, StopRule(tol=1e-10, max_rounds=30_000))
    assert trace.stop_reason == "tol"
    phi_star = optimal_configuration(field, x.size)[1]
    assert abs(trace.final_phi - phi_star) <= 1e-3 * phi_star


# ----------------------------------------------------------------------
# runs in mass coordinates: the stop bound and the loop that maps on it
# ----------------------------------------------------------------------

def loop_parts(field, x0):
    """The validated start, its masses, and the step, bound and view that
    ``run_static`` hands the round loop."""
    with mock.patch.object(static_law, "run_rounds", lambda *args, **kw: (args, kw)):
        (_, x, y, step, _), kw = run_static(field, x0, StopRule(tol=1e-4))
    return x, y, step, kw["bound"], kw["view"]


@st.composite
def fields_with_breakpoints_and_zeros(draw):
    """Random piecewise polynomials whose minimum is 0.25 or 0 on each
    segment, piecewise constants that jump at breakpoints, and the presets;
    the drawn fields scaled by 2^-980 or 2^1000 too."""
    kind = draw(st.sampled_from(["random", "zeros", "steps", "quadratic", "uniform"]))
    if kind in ("quadratic", "uniform"):
        return resolve_density(kind)
    seed = draw(st.integers(0, 2**32 - 1), label="field seed")
    scale = draw(st.sampled_from([1.0, 2.0 ** -980, 2.0 ** 1000]), label="scale")
    if kind == "steps":
        breakpoints = [0.0, 0.1875, 0.5, 0.5625, 1.0]
        coefficients = [[1.0 + StreamRng(seed, j).randint(0, 8)] for j in range(4)]
    else:
        breakpoints, coefficients = random_field_spec(StreamRng(seed))
    if kind == "zeros":
        coefficients = [[c[0] - 0.25, *c[1:]] for c in coefficients]
    return DensityField(breakpoints, [[scale * v for v in c] for c in coefficients])


@settings(max_examples=60)
@given(field=st.one_of(fields_with_breakpoints_and_zeros(),
                       narrow_segment_fields().map(lambda spec: DensityField(*spec))),
       n=st.integers(2, 24), start=st.sampled_from(["random", "all-one", "optimum"]),
       seed=st.integers(0, 2**32 - 1))
def test_stop_bound_never_exceeds_the_residual_of_the_view(field, n, start, seed):
    if start == "optimum":
        x0 = optimal_configuration(field, n)[0]
    else:
        x0 = initial_positions(start, n, StreamRng(seed, n))
    xstar = optimal_configuration(field, n)[0]
    x, y, step, bound, view = loop_parts(field, x0)
    for _ in range(80):
        y = step(x, y)[1]
        x = view(y[None])[0]
        lower = bound(y, xstar)
        assert isinstance(lower, float)
        assert lower <= float(np.square(x - xstar).sum())


def reference_run(field, x0, stop, rows=None):
    """The static law with positions mapped every round: stop round, stop
    reason, settled round and final row (positions, phi, residual); the
    list ``rows``, when given, receives every row as (t, positions, phi,
    residual)."""
    total = field.total_mass
    xstar = optimal_configuration(field, x0.size)[0]
    x, y = x0, field.cdf(x0)
    held = settled = 0
    for k in range(stop.max_rounds + 1):
        residual = float(np.square(x - xstar).sum())
        held = held + 1 if residual <= stop.tol else 0
        settled = settled if held else k + 1
        if rows is not None:
            rows.append((k, x, float(gap_vector(field, x).max()) / 2.0, residual))
        if held >= (stop.persist or 1) or k == stop.max_rounds:
            phi = float(gap_vector(field, x).max()) / 2.0
            reason = "tol" if held >= (stop.persist or 1) else "max_rounds"
            return k, reason, settled, (x, phi, residual)
        nxt = np.empty_like(y)
        nxt[0] = y[1] / 3.0
        nxt[1:-1] = 0.5 * (y[:-2] + y[2:])
        nxt[-1] = min((y[-2] + 2.0 * total) / 3.0, total)
        y = np.maximum.accumulate(nxt)
        x = np.maximum.accumulate(field.inverse_cdf(y))


@settings(max_examples=40)
@given(field=fields_with_breakpoints_and_zeros(), n=st.integers(2, 16),
       start=st.sampled_from(["random", "all-one"]), seed=st.integers(0, 2**32 - 1),
       pick=st.integers(0, 400), below=st.sampled_from([0.0, 1e-6]),
       persist=st.sampled_from([None, 1, 3]), record=st.sampled_from(["full", "summary"]))
def test_runs_stop_like_a_loop_that_maps_every_round(field, n, start, seed, pick, below,
                                                      persist, record):
    x0 = initial_positions(start, n, StreamRng(seed, n))
    # a tol one ulp, or a relative 1e-6, under the residual of round pick as
    # mapped every round: the bound then may or may not settle that round
    free = run_static(field, x0, StopRule(tol=None, max_rounds=400))
    residual = free.rows[pick].residual_sq * (1.0 - below)
    tol = float(np.nextafter(residual, 0.0)) if residual > 0.0 else 1e-300
    stop = StopRule(tol=tol, max_rounds=400, persist=persist)
    k, reason, settled, (x, phi, residual) = reference_run(field, x0, stop)
    trace = run_static(field, x0, stop, record=record)
    assert (trace.final_round, trace.stop_reason, trace.settled_round) == (k, reason, settled)
    row = trace.rows[-1]
    assert (row.positions.tobytes(), row.phi, row.residual_sq) == (x.tobytes(), phi, residual)


@settings(max_examples=60)
@given(field=st.one_of(fields_with_breakpoints_and_zeros(),
                       narrow_segment_fields().map(lambda spec: DensityField(*spec))),
       n=st.integers(2, 300), start=st.sampled_from(["random", "all-one"]),
       seed=st.integers(0, 2**32 - 1), persist=st.sampled_from([None, 1, 3]))
def test_every_full_row_equals_the_row_of_a_loop_that_maps_every_round(field, n, start, seed,
                                                                        persist):
    # a full run maps the rounds its bound settles in blocks of at least
    # _BLOCK_MASSES masses, 1 to 1024 rounds here: each row must still be
    # the one its round gives mapped on its own, wherever in a block the
    # run stops. The seed spreads the run's length over up to three blocks
    # and its stop round over the run.
    per_block = -(-linecover.trace._BLOCK_MASSES // n)
    rng = StreamRng(seed, n, 1)
    max_rounds = rng.randint(1, 3 * per_block + 2)
    x0 = initial_positions(start, n, StreamRng(seed, n))
    free = run_static(field, x0, StopRule(tol=None, max_rounds=max_rounds))
    # a tol just under the residual of round pick, as in the test above
    residual = free.rows[rng.randint(0, max_rounds)].residual_sq
    tol = float(np.nextafter(residual, 0.0)) if residual > 0.0 else 1e-300
    stop = StopRule(tol=tol, max_rounds=max_rounds, persist=persist)
    rows = []
    k, reason, settled, _ = reference_run(field, x0, stop, rows)
    trace = run_static(field, x0, stop)
    assert (trace.final_round, trace.stop_reason, trace.settled_round) == (k, reason, settled)
    assert [(r.t, r.positions.tobytes(), r.phi, r.residual_sq) for r in trace.rows] == [
        (t, x.tobytes(), phi, residual) for t, x, phi, residual in rows]


def test_loop_maps_when_the_bound_equals_tol(monkeypatch, quadratic_field):
    # a bound of exactly tol settles nothing, so every round must be mapped
    # and the run must stop where a full run stops
    x0 = initial_positions("all-one", 12)
    stop = StopRule(tol=1e-4)
    full = run_static(quadratic_field, x0, stop)
    real = static_law.run_rounds
    monkeypatch.setattr(static_law, "run_rounds", lambda *args, bound, **kw: real(
        *args, bound=lambda y, xstar: stop.tol, **kw))
    summary = run_static(quadratic_field, x0, stop, record="summary")
    assert (summary.final_round, summary.stop_reason) == (full.final_round, "tol")
    assert summary.rows[0].positions.tobytes() == full.rows[-1].positions.tobytes()


def test_a_full_static_round_runs_the_stencil_once(monkeypatch, quadratic_field):
    # the step advances y once a round; the view maps the rounds the bound
    # settles in blocks of at least _BLOCK_MASSES masses and every other
    # round after the entry round alone: one static_step call for each
    calls = {"_advance": 0, "static_step": 0}

    def counted(name):
        real = getattr(static_law, name)
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

    for name in calls:
        monkeypatch.setattr(static_law, name, counted(name))
    lowers, real = [], static_law.run_rounds
    monkeypatch.setattr(static_law, "run_rounds", lambda *args, bound, **kw: real(
        *args, bound=lambda y, xstar: lowers.append(bound(y, xstar)) or lowers[-1], **kw))
    for n, stop in ((12, StopRule(tol=1e-4)), (80, StopRule(tol=1e-4, max_rounds=100))):
        calls.update(_advance=0, static_step=0)
        lowers.clear()
        trace = run_static(quadratic_field, initial_positions("all-one", n), stop)
        assert trace.final_round > 1
        # the bound is asked from round 1 on, and the final round at max_rounds is not
        settles = [lower > stop.tol for lower in lowers] + [False] * (
            trace.final_round - len(lowers))
        per_block = -(-linecover.trace._BLOCK_MASSES // n)
        blocks = sum(-(-len(list(run)) // per_block) for settled, run in groupby(settles)
                     if settled)
        assert blocks >= 1 and settles.count(False) >= 1
        assert calls == {"_advance": trace.final_round,
                         "static_step": blocks + settles.count(False)}


def test_unmapped_rounds_check_the_order_of_the_masses(monkeypatch, uniform_field):
    # a round that swaps two masses is an internal fault even where no
    # position is mapped
    real = static_law._advance

    def swapping(y, total):
        out = real(y, total)
        out[[0, -1]] = out[[-1, 0]]
        return out

    monkeypatch.setattr(static_law, "_advance", swapping)
    with pytest.raises(NumericError, match="masses left order"):
        run_static(uniform_field, initial_positions("all-one", 6), StopRule(tol=1e-12),
                   record="summary")


@pytest.mark.parametrize("fault", ["nan", "swap"])
@pytest.mark.parametrize("n, call, row", [(12, 0, 0), (12, 0, 37), (80, 1, 25), (80, 2, 3)])
def test_a_fault_inside_a_block_names_its_round(monkeypatch, quadratic_field, fault, n, call,
                                                row):
    # positions that are NaN or out of order in one round of a block are an
    # internal fault, named by that round; blocks of ceil(2048 / n) rounds
    # start at round 1
    real, calls = static_law.static_step, []

    def faulty(*args):
        out = real(*args)
        calls.append(out.shape)
        if len(calls) == call + 1 and fault == "swap":
            out[row, [0, -1]] = out[row, [-1, 0]]
        elif len(calls) == call + 1:
            out[row, n // 2] = np.nan
        return out

    monkeypatch.setattr(static_law, "static_step", faulty)
    per_block = -(-linecover.trace._BLOCK_MASSES // n)
    with pytest.raises(NumericError, match=f"^round {1 + call * per_block + row}: agent "
                                           f"positions left order"):
        run_static(quadratic_field, initial_positions("all-one", n),
                   StopRule(tol=None, max_rounds=100))
    assert len(calls) == call + 1 and calls[-1][0] > 1   # the fault was in a block
