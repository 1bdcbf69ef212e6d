"""Recording policies of the shared round loop: which rows a run keeps, and
that everything read from a run is the same under either policy."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecover.harness
import linecover.lifted_chain
import linecover.trace
from linecover import (
    DomainError,
    NumericError,
    StopRule,
    StreamRng,
    add_agent,
    convergence_time,
    initial_positions,
    initialize_state,
    remove_agent,
    resolve_density,
    run_one,
    simulate_dynamic,
    sweep,
)
from linecover.density import gap_vector, optimal_configuration
from linecover.lifted_chain import MOVEMENT_RULES, VARIANTS, step_round
from linecover.trace import TraceRow, check_order, check_record

from conftest import make_random_field


def scan_convergence(trace, tol):
    """Reference: the convergence round read from a full trace's rows."""
    above = [k for k, row in enumerate(trace.rows) if row.residual_sq > tol]
    if not above:
        return trace.rows[0].t, True
    if above[-1] == len(trace.rows) - 1:
        return trace.rows[-1].t, False
    return trace.rows[above[-1] + 1].t, True


def scan_stop(trace, tol, persist):
    """Reference: the stop round, stop reason and settled round of a run with
    this tol and persist, read offline from a full trace's residuals."""
    below = [tol is not None and row.residual_sq <= tol for row in trace.rows]
    held = [k for k in range(persist - 1, len(below)) if all(below[k - persist + 1:k + 1])]
    last = held[0] if held else len(below) - 1
    above = [k for k in range(last + 1) if not below[k]]
    t0 = trace.rows[0].t
    return t0 + last, "tol" if held else "max_rounds", t0 + (above[-1] + 1 if above else 0)


def stop_of(trace):
    return trace.final_round, trace.stop_reason, trace.settled_round


def same_row(a, b):
    return (a.t == b.t and a.positions.tobytes() == b.positions.tobytes()
            and a.phi == b.phi and a.residual_sq == b.residual_sq and a.zsum == b.zsum)


def check_policies(run, tol):
    """Run ``run(record)`` under both policies; ``summary`` must agree with
    ``full``, which is returned."""
    full = run("full")
    assert convergence_time(full, tol) == scan_convergence(full, tol)
    summary = run("summary")
    assert (summary.stop_reason, summary.final_round) == (full.stop_reason, full.final_round)
    assert convergence_time(summary, tol) == convergence_time(full, tol)
    assert len(summary.rows) == 1 and same_row(summary.rows[0], full.rows[-1])
    # only the stop tol's convergence round was kept
    with pytest.raises(DomainError, match="stop tol"):
        convergence_time(summary, tol * 2.0)
    # the full trace answers any tol from its rows
    assert convergence_time(full, tol * 2.0) == scan_convergence(full, tol * 2.0)
    return full


LAWS = [("static", {})] + [("dynamic", {"variant": v, "movement_rule": r})
                           for v in VARIANTS for r in MOVEMENT_RULES]


@given(law=st.sampled_from(LAWS), density=st.sampled_from(["uniform", "quadratic"]),
       n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1), data=st.data(),
       max_rounds=st.integers(1, 150), pick=st.integers(0, 150),
       persist=st.sampled_from([None, 1, 2, 3, "U"]))
def test_summary_reads_like_full(law, density, n, seed, data, max_rounds, pick, persist):
    name, options = law
    big_u = data.draw(st.integers(n, 2 * n), label="big_u")
    if name == "dynamic":
        options = {**options, "big_u": big_u}
    persist = big_u if persist == "U" else persist
    field = resolve_density(density)
    x0 = initial_positions("random", n, StreamRng(seed, n, 0), law=name)
    # a tol just under round pick's residual, so that round is the last one
    # above it whenever the residual falls afterwards
    free = run_one(name, field, x0, StopRule(tol=None, max_rounds=max_rounds), **options)
    assert stop_of(free) == scan_stop(free, None, 1) == (
        max_rounds, "max_rounds", max_rounds + 1)
    residual = free.rows[min(pick, max_rounds)].residual_sq
    tol = float(np.nextafter(residual, 0.0)) if residual > 0.0 else 1e-300
    stop = StopRule(tol=tol, max_rounds=max_rounds, persist=persist)
    full = check_policies(
        lambda record: run_one(name, field, x0, stop, record=record, **options), tol)
    # an unset persist is one round, or one token cycle for the dynamic law
    persist = persist or (big_u if name == "dynamic" else 1)
    assert stop_of(full) == scan_stop(free, tol, persist)


@given(seed=st.integers(0, 2**32 - 1), warmup=st.integers(1, 40),
       variant=st.sampled_from(VARIANTS))
def test_summary_reads_like_full_after_churn(seed, warmup, variant):
    field = resolve_density("quadratic")
    n, tol = 8, 1e-3

    def run(record):
        rng = StreamRng(seed, n, 1)
        state = initialize_state(field, initial_positions("random", n, rng, law="dynamic"),
                                 variant=variant)
        simulate_dynamic(field, state, StopRule(tol=None, max_rounds=warmup))
        remove_agent(state, rng.randint(1, state.n))
        add_agent(state, rng.uniform())
        add_agent(state, rng.uniform())
        return simulate_dynamic(field, state, StopRule(tol=tol, max_rounds=400),
                                record=record)

    full = check_policies(run, tol)
    assert full.rows[0].t == warmup   # numbered from the resume round


@pytest.mark.parametrize("persist", [0, -1])
def test_stop_rule_refuses_a_persist_below_one(persist):
    with pytest.raises(DomainError, match="persist must be at least 1"):
        StopRule(persist=persist)


@pytest.mark.parametrize("field", ["max_rounds", "persist"])
def test_stop_rule_refuses_a_count_that_is_not_an_integer(field):
    # 2.5 rounds failed mid-run with TypeError, and persist=1.5 acted as 2
    for value in (2.5, 1.5, 3.0, "3"):
        with pytest.raises(DomainError, match=f"{field} must be an integer, got {value!r}"):
            StopRule(**{field: value})
    assert getattr(StopRule(**{field: np.int64(3)}), field) == 3   # numpy integers are counts


@pytest.mark.parametrize("record", ["full", "summary"])
def test_check_record(record):
    assert check_record(record) == record


@pytest.mark.parametrize("record", ["every:0", "every:1", "every:x", "bogus", "Full", "",
                                    "summary:1", None, 5])
def test_check_record_rejects_other_policies(uniform_field, record):
    with pytest.raises(DomainError, match="record must be one of"):
        check_record(record)
    # refused before any round runs, by either law
    for law, x0 in (("static", [0.2, 0.8]), ("dynamic", [0.2, 0.5, 0.8])):
        with pytest.raises(DomainError, match="record must be one of"):
            run_one(law, uniform_field, x0, StopRule(max_rounds=5), record=record)


def test_summary_keeps_the_last_round_above_tol_wherever_it_falls(uniform_field):
    # a static run whose residual falls every round: with tol just under
    # round k's residual, round k is the last one above it, for every k
    x0 = [0.2, 0.6]
    free = run_one("static", uniform_field, x0, StopRule(tol=None, max_rounds=30))
    residuals = [row.residual_sq for row in free.rows]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    for k, residual in enumerate(residuals):
        tol = float(np.nextafter(residual, 0.0))
        trace = run_one("static", uniform_field, x0, StopRule(tol=tol, max_rounds=30),
                        record="summary")
        assert len(trace.rows) == 1
        assert convergence_time(trace, tol) == ((k + 1, True) if k < 30 else (30, False))


def test_sweep_rows_record_one_row_per_run(uniform_field, monkeypatch):
    # one run_one call per agent count, on the (runs, n) stack of starts
    batches = []
    real = linecover.harness.run_one
    monkeypatch.setattr(linecover.harness, "run_one",
                        lambda *args, **kw: batches.append(real(*args, **kw)) or batches[-1])
    table = sweep("dynamic", uniform_field, [4, 6], runs=2, init_mode="random", seed=31)
    assert [len(batch) for batch in batches] == [2, 2]
    traces = [trace for batch in batches for trace in batch]
    assert [len(trace.rows) for trace in traces] == [1] * 4
    assert [trace.record for trace in traces] == ["summary"] * 4
    # each cell's count is its run's convergence round over every round
    full = [real("dynamic", uniform_field,
                 initial_positions("random", n, StreamRng(31, n, run), law="dynamic"),
                 StopRule(1e-4, 200_000)) for n in (4, 6) for run in range(2)]
    counts = [convergence_time(trace, 1e-4).rounds for trace in full]
    assert [row.mean_rounds for row in table.rows] == [
        np.mean(counts[:2]), np.mean(counts[2:])]


@settings(max_examples=40)
@given(kind=st.sampled_from(["uniform", "quadratic", "random"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(3, 60), data=st.data(), variant=st.sampled_from(VARIANTS),
       rule=st.sampled_from(MOVEMENT_RULES), start=st.sampled_from(["random", "all-one"]),
       churn=st.booleans(), pick=st.integers(0, 300), ulps=st.sampled_from([-1, 0, 1]),
       persist=st.sampled_from([None, 1, 2]))
def test_dynamic_summary_stops_where_full_stops(kind, seed, n, data, variant, rule, start,
                                                 churn, pick, ulps, persist):
    # the stop hook returns the residual in the loop's own expression: the
    # run must stop like a full run, whose every round is mapped
    field = make_random_field(StreamRng(seed)) if kind == "random" else resolve_density(kind)
    big_u = data.draw(st.integers(n, 2 * n), label="big_u")
    x0 = initial_positions(start, n, StreamRng(seed, n, 0), law="dynamic")

    def run(stop, record):
        events = StreamRng(seed, n, 1)
        state = initialize_state(field, x0, big_u=big_u, variant=variant, movement_rule=rule)
        if churn:   # resumed after an agent joins and one leaves
            simulate_dynamic(field, state, StopRule(tol=None, max_rounds=1 + n // 2),
                             record="summary")
            add_agent(state, events.uniform())
            remove_agent(state, events.randint(1, state.n))
        return simulate_dynamic(field, state, stop, record=record)

    free = run(StopRule(tol=None, max_rounds=300), "full")
    # a tol at, one ulp under or one ulp over the residual of round pick
    residual = free.rows[pick].residual_sq
    tol = float(np.nextafter(residual, {-1: 0.0, 0: residual, 1: np.inf}[ulps]))
    stop = StopRule(tol=tol if tol > 0.0 else 1e-300, max_rounds=300, persist=persist)
    full, summary = run(stop, "full"), run(stop, "summary")
    assert stop_of(summary) == stop_of(full)
    assert same_row(summary.rows[-1], full.rows[-1])


@settings(max_examples=40)
@given(kind=st.sampled_from(["uniform", "quadratic"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(3, 40), pick=st.integers(0, 200), persist=st.sampled_from([None, 2, 5]))
def test_dynamic_summary_maps_its_entry_its_rounds_below_tol_and_its_final_round(
        kind, seed, n, pick, persist):
    # the hook is the residual itself, so a round at or below tol is mapped
    # and every other round but the entry and final ones settles unmapped
    field = resolve_density(kind)
    x0 = initial_positions("random", n, StreamRng(seed, n, 0), law="dynamic")
    free = run_one("dynamic", field, x0, StopRule(tol=None, max_rounds=200))
    stop = StopRule(tol=max(free.rows[pick].residual_sq, 1e-300), max_rounds=200,
                    persist=persist)
    full = run_one("dynamic", field, x0, stop)
    maps, real = [], linecover.trace.check_order
    with mock.patch.object(linecover.trace, "check_order",
                           lambda x, t: maps.append(t) or real(x, t)):
        summary = run_one("dynamic", field, x0, stop, record="summary")
    assert stop_of(summary) == stop_of(full)
    assert same_row(summary.rows[-1], full.rows[-1])
    below = [row.t for row in full.rows if row.residual_sq <= stop.tol]
    assert maps == sorted({full.rows[0].t, *below, full.final_round})


@pytest.mark.parametrize("record", ["full", "summary"])
def test_mass_guard_refuses_nan(uniform_field, record):
    # min(F(1), left + nan) is F(1): a NaN total would pile agents at 1
    state = initialize_state(uniform_field, np.linspace(0.1, 0.9, 6))
    state.z[3] = np.nan
    with pytest.raises(NumericError, match="round 0: mass conservation drifted"):
        simulate_dynamic(uniform_field, state, StopRule(tol=1e-4, max_rounds=5), record=record)
    if record == "summary":   # a batch checks every row's total, and names the worst
        state = initialize_state(uniform_field, np.array([np.linspace(0.1, 0.9, 6)] * 3))
        state.z[1, 3] = np.nan
        with pytest.raises(NumericError, match="round 0: mass conservation drifted: sum z = nan"):
            simulate_dynamic(uniform_field, state, StopRule(tol=1e-4, max_rounds=5),
                             record=record)


@pytest.mark.parametrize("fault", [[0.2, 0.8, 0.7], [-0.1, 0.5, 0.7], [0.2, 0.5, 1.5],
                                   [0.2, np.nan, 0.7]])
def test_order_check_names_the_round_of_a_stack_of_rows(fault):
    # the rows of one round, as a batch of runs maps them, name that round;
    # a stack of rounds names the first round at fault
    x = np.array([[0.1, 0.5, 0.9], fault, [0.3, 0.4, 0.5]])
    check_order(x[[0, 2]], 7)
    with pytest.raises(NumericError, match="^round 7: agent positions left order"):
        check_order(x, 7)
    with pytest.raises(NumericError, match="^round 8: agent positions left order"):
        check_order(x, range(7, 10))
    with pytest.raises(NumericError, match="^round 7: agent positions left order"):
        check_order(x[1], 7)


def reference_dynamic_rows(field, state, rounds):
    """The dynamic law from ``state`` with every round mapped and recorded:
    the row of each of ``rounds`` + 1 rounds, positions read from the state,
    coverage recomputed from them, the residual and sum z."""
    xstar = optimal_configuration(field, state.n)[0]
    linecover.lifted_chain._carried_masses(field, state)   # as the run maps them on entry
    rows = []
    for k in range(rounds + 1):
        x = state.positions
        rows.append(TraceRow(state.round_index, x.copy(), float(gap_vector(field, x).max()) / 2.0,
                             float(np.square(x - xstar).sum()), float(state.z.sum())))
        if k < rounds:
            step_round(field, state)
    return rows


@settings(max_examples=40)
@given(kind=st.sampled_from(["uniform", "quadratic", "random"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(3, 40), data=st.data(), variant=st.sampled_from(VARIANTS),
       rule=st.sampled_from(MOVEMENT_RULES), churn=st.booleans(),
       persist=st.sampled_from([None, 1, 3]))
def test_every_full_dynamic_row_equals_the_row_of_a_loop_that_maps_every_round(
        kind, seed, n, data, variant, rule, churn, persist):
    # a full dynamic run queues the rounds it settles unmapped and records
    # them in blocks of ceil(2048 / n) rounds: each row must still be the
    # one a loop that maps and records every round gives. The draws spread
    # the run's length over up to three blocks and its stop round over the run
    field = make_random_field(StreamRng(seed)) if kind == "random" else resolve_density(kind)
    big_u = data.draw(st.integers(n, 2 * n), label="big_u")
    x0 = initial_positions("random", n, StreamRng(seed, n, 0), law="dynamic")

    def start():
        events = StreamRng(seed, n, 1)
        state = initialize_state(field, x0, big_u=big_u, variant=variant, movement_rule=rule)
        if churn:   # resumed after an agent joins and one leaves: rounds from t != 0
            simulate_dynamic(field, state, StopRule(tol=None, max_rounds=1 + n // 2),
                             record="summary")
            add_agent(state, events.uniform())
            remove_agent(state, events.randint(1, state.n))
        return state

    per_block = -(-linecover.trace._BLOCK_MASSES // n)
    max_rounds = data.draw(st.integers(1, 3 * per_block + 2), label="max_rounds")
    free = reference_dynamic_rows(field, start(), max_rounds)
    # a tol just under the residual of a drawn round, as in the static test
    residual = free[data.draw(st.integers(0, max_rounds), label="pick")].residual_sq
    tol = float(np.nextafter(residual, 0.0)) if residual > 0.0 else 1e-300
    stop = StopRule(tol=tol, max_rounds=max_rounds, persist=persist)
    trace = simulate_dynamic(field, start(), stop)
    final, reason, settled = scan_stop(linecover.trace.ExperimentTrace({}, free), tol,
                                       persist or big_u)
    assert stop_of(trace) == (final, reason, settled)
    expected = free[:final - free[0].t + 1]
    assert len(trace.rows) == len(expected)
    assert all(same_row(a, b) for a, b in zip(trace.rows, expected))


@pytest.mark.parametrize("fault", ["nan", "swap", "nan z"])
@pytest.mark.parametrize("n, block, row", [(12, 0, 0), (12, 0, 100), (12, 1, 170),
                                           (80, 2, 25), (80, 0, 13)])
def test_a_fault_inside_a_dynamic_block_names_its_round(monkeypatch, quadratic_field, fault, n,
                                                        block, row):
    # positions that are NaN or out of order in one round of a block are an
    # internal fault, named by that round; a run without tol settles every
    # round but its entry and final ones unmapped, in blocks of
    # ceil(2048 / n) rounds from round 1. The fault is undone a round later,
    # so no later move can see it first. A NaN in z fails at its own round
    per_block = -(-linecover.trace._BLOCK_MASSES // n)
    bad = 1 + block * per_block + row
    real, checked, saved = linecover.lifted_chain.step_round, [], []

    def faulty(field, state):
        if saved:   # restore the round before the fault
            state.positions[:], state.masses[:] = saved.pop()
        real(field, state)
        if state.round_index == bad:
            x = state.positions
            saved.append((x.copy(), state.masses.copy()))
            if fault == "swap":
                x[[0, -1]] = x[[-1, 0]]
            elif fault == "nan":
                x[n // 2] = np.nan
            else:
                state.z[n // 2] = np.nan
        return state

    monkeypatch.setattr(linecover.lifted_chain, "step_round", faulty)
    real_check = linecover.trace.check_order
    monkeypatch.setattr(linecover.trace, "check_order",
                        lambda x, t: checked.append(t) or real_check(x, t))
    state = initialize_state(quadratic_field, initial_positions("random", n, StreamRng(4, n, 0),
                                                                law="dynamic"))
    what = "mass conservation drifted" if fault == "nan z" else "agent positions left order"
    with pytest.raises(NumericError, match=f"^round {bad}: {what}"):
        simulate_dynamic(quadratic_field, state, StopRule(tol=None, max_rounds=3 * per_block + 1))
    if fault == "nan z":   # before its block was recorded
        assert checked == [0] + [range(1 + b * per_block, 1 + (b + 1) * per_block)
                                 for b in range(block)]
    else:   # the fault was in a block
        assert [t for t in checked if isinstance(t, range)][-1] == range(
            1 + block * per_block, 1 + (block + 1) * per_block)
