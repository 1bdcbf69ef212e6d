"""Harness: residuals, convergence timing, init modes, seeded sweeps."""

import math
import re

import numpy as np
import pytest

import linecover
from linecover import (
    DomainError,
    NumericError,
    StopRule,
    StreamRng,
    convergence_time,
    gap_vector,
    initial_positions,
    loglog_fit,
    optimal_configuration,
    optimality_residual,
    run_dynamic,
    run_one,
    run_static,
    static_round_budget,
    sweep,
)
from linecover.density import DensityField, check_positions
from linecover.harness import INIT_MODES, SweepRow
from linecover.lifted_chain import init_z
from linecover.spectral import build_system


def test_residual_zero_at_optimum(uniform_field, quadratic_field):
    for field in (uniform_field, quadratic_field):
        for n in (1, 3, 12):
            x, _ = optimal_configuration(field, n)
            assert optimality_residual(field, x) <= 1e-12 * field.total_mass


def test_residual_by_hand(uniform_field):
    # quantities (0.4, 0.4, 0.8), mean 8/15
    got = optimality_residual(uniform_field, [0.2, 0.6])
    assert got == pytest.approx(0.8 - 8.0 / 15.0, abs=1e-15)


def test_residual_scales_with_density(uniform_field):
    scaled = DensityField([0.0, 1.0], [[4.5]], name="scaled")
    base = optimality_residual(uniform_field, [0.2, 0.6])
    assert optimality_residual(scaled, [0.2, 0.6]) == pytest.approx(4.5 * base, rel=1e-13)


def test_default_persistence_is_one_round_or_one_token_cycle(uniform_field):
    # the dynamic case of test_tol_stop_waits_for_persistent_streak, where
    # persist=8 stops at 45: with U unset (U = n = 8) the default waits 8
    # rounds, with U = 12 it waits 12
    x0 = initial_positions("random", 8, StreamRng(0, 8, 0), law="dynamic")
    trace = run_dynamic(uniform_field, x0, StopRule(tol=1e-3, max_rounds=200))
    assert (trace.stop_reason, trace.final_round) == ("tol", 45)

    def stop_round(persist):
        stop = StopRule(tol=1e-3, max_rounds=400, persist=persist)
        return run_dynamic(uniform_field, x0, stop, big_u=12).final_round

    assert stop_round(None) == stop_round(12) == 55
    assert stop_round(8) == 51

    # the static law moves every agent every round: it stops at the first
    # round below tol
    x0 = initial_positions("random", 6, StreamRng(3, 6, 0))
    free = run_static(uniform_field, x0, StopRule(tol=None, max_rounds=300))
    first = [row.residual_sq <= 1e-4 for row in free.rows].index(True)
    trace = run_static(uniform_field, x0, StopRule(tol=1e-4, max_rounds=300))
    assert (trace.stop_reason, trace.final_round) == ("tol", first)


def test_convergence_time_at_optimum(uniform_field):
    x, _ = optimal_configuration(uniform_field, 4)
    trace = run_static(uniform_field, x, StopRule(tol=1e-8))
    assert convergence_time(trace, 1e-8) == (0, True)


def test_convergence_time_infinite_tol(uniform_field):
    trace = run_static(uniform_field, [0.1, 0.9], StopRule(tol=1e-6, max_rounds=50))
    assert convergence_time(trace, math.inf) == (0, True)


@pytest.mark.parametrize("tol", [0.0, -1e-3, -math.inf, math.nan])
def test_convergence_time_rejects_nonpositive_tol(uniform_field, tol):
    trace = run_static(uniform_field, [0.1, 0.9], StopRule(tol=1e-6, max_rounds=5))
    with pytest.raises(DomainError):
        convergence_time(trace, tol)


def test_convergence_time_not_reached(uniform_field):
    trace = run_static(uniform_field, [0.0, 0.0], StopRule(tol=1e-14, max_rounds=3))
    result = convergence_time(trace, 1e-14)
    assert not result.converged
    assert result.rounds == 3


def test_convergence_time_matches_gap_recursion_oracle(uniform_field):
    # independent prediction: iterate the gap vector under P = I + U/6 and
    # rebuild positions from the gaps (uniform density: x_1 = d_0/2,
    # x_2 = d_0/2 + d_1)
    tol = 1e-4
    xstar, _ = optimal_configuration(uniform_field, 2)
    d = gap_vector(uniform_field, [0.2, 0.6])
    P = build_system(3).P
    predicted = None
    for t in range(10000):
        x = np.array([d[0] / 2.0, d[0] / 2.0 + d[1]])
        if float(np.sum((x - xstar) ** 2)) <= tol:
            predicted = t
            break
        d = P @ d
    trace = run_static(uniform_field, [0.2, 0.6], StopRule(tol=tol, max_rounds=10000))
    assert convergence_time(trace, tol) == (predicted, True)


def test_initial_position_modes():
    rng = StreamRng(1, 8, 0)
    x = initial_positions("random-uniform-order-statistics", 8, rng)
    assert np.all(np.diff(x) >= 0.0) and x.size == 8
    assert np.array_equal(initial_positions("random", 8, StreamRng(1, 8, 0)), x)

    assert np.array_equal(initial_positions("all-one", 5), np.ones(5))
    ramp = initial_positions("all-one", 5, law="dynamic")
    assert ramp[-1] == 1.0 and np.all(np.diff(ramp) > 0.0)
    assert np.max(1.0 - ramp) <= 5e-6

    zero = initial_positions("all-zero-perturbed", 4)
    assert np.allclose(zero, [1e-6, 2e-6, 3e-6, 4e-6])

    with pytest.raises(DomainError):
        initial_positions("nonsense", 4)
    with pytest.raises(DomainError, match="unknown law 'bogus'"):
        initial_positions("all-one", 4, law="bogus")   # was the static start
    with pytest.raises(DomainError):
        initial_positions("random", 4)  # needs a generator
    for mode in INIT_MODES:
        with pytest.raises(DomainError):
            initial_positions(mode, -1, StreamRng(1, -1, 0))


def test_ramped_starts_stay_in_range_above_a_million_agents(uniform_field):
    # a 1e-6 spacing carried n > 10^6 agents past 1 (or below 0); the spacing
    # 1/n keeps them distinct in [0, 1], and n <= 10^6 keeps the old bits
    for n in (10**6 + 1, 10**6 + 2):
        for mode in ("all-zero-perturbed", "all-one"):
            x = initial_positions(mode, n, law="dynamic")
            assert x[0] >= 0.0 and x[-1] <= 1.0 and np.all(np.diff(x) > 0.0)
            assert check_positions(x).tobytes() == x.tobytes()
        init_z(uniform_field, initial_positions("all-one", n, law="dynamic"))
    for n in (3, 40, 999_999, 10**6):
        old = {"all-zero-perturbed": 1e-6 * np.arange(1, n + 1, dtype=float),
               "all-one": 1.0 - 1e-6 * np.arange(n - 1, -1, -1, dtype=float)}
        for mode, want in old.items():
            assert initial_positions(mode, n, law="dynamic").tobytes() == want.tobytes()


def test_rng_stream_is_frozen():
    # counter-based splitmix64 stream; values pinned so any refactor that
    # changes the stream is caught
    rng = StreamRng(0)
    assert rng.next_u64() == 5197578548964807871
    rng2 = StreamRng(123, 4, 5)
    first = rng2.uniform()
    assert first == 0.29678437309542693
    assert rng2.counter == 1
    assert StreamRng(123, 4, 5).uniform() == first
    assert 0.0 <= first < 1.0
    assert StreamRng(123, 4, 6).uniform() != first


def test_randint_refuses_an_empty_range():
    rng = StreamRng(0)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(5, 4)
    assert rng.counter == 0 and rng.randint(4, 4) == 4


def test_vector_uniforms_continue_the_scalar_stream():
    # 50 keys, 1000 draws after an offset: bit for bit what uniform() gives,
    # and the counter advances the same, so the two paths interleave
    for key in range(50):
        vector, scalar = StreamRng(key, 7), StreamRng(key, 7)
        offset = key % 13
        assert vector.uniforms(offset).tolist() == [scalar.uniform() for _ in range(offset)]
        assert vector.uniforms(1000).tolist() == [scalar.uniform() for _ in range(1000)]
        assert vector.counter == scalar.counter
        assert vector.next_u64() == scalar.next_u64()


def test_loglog_fit_recovers_powerlaw():
    ns = [5, 10, 20, 40]
    fit = loglog_fit(ns, [3.0 * n**2 for n in ns])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_budget_formula_value():
    want = 3.0 * 36.0 * math.log(math.sqrt(2.0) * 5.0 * 1.0 * 100.0)
    assert static_round_budget(5, 1.0, 100.0) == pytest.approx(want, rel=1e-15)


def test_fspace_rounds_within_budget(uniform_field):
    # count rounds until every F(x_i) sits within eps of its limit; the
    # measured count must respect the proven budget
    n, eps = 8, 1e-3
    rng = StreamRng(9, n, 0)
    x0 = np.sort(np.array(rng.uniforms(n)))
    trace = run_static(uniform_field, x0, StopRule(tol=1e-16, max_rounds=30000))
    xstar, _ = optimal_configuration(uniform_field, n)
    ystar = uniform_field.cdf(xstar)
    rounds = None
    for row in trace.rows:
        if float(np.max(np.abs(uniform_field.cdf(row.positions) - ystar))) <= eps:
            rounds = row.t
            break
    assert rounds is not None
    assert rounds <= static_round_budget(n, 1.0, 1.0 / eps)


def test_phi_never_below_optimum(uniform_field):
    trace = run_static(uniform_field, [0.0, 0.1, 0.2, 0.9],
                       StopRule(tol=1e-10, max_rounds=5000))
    phi_star = trace.metadata["phi_star"]
    for row in trace.rows:
        assert row.phi >= phi_star - 1e-12


def test_run_one_dispatch(uniform_field):
    trace = run_one("static", uniform_field, [0.2, 0.8], StopRule(max_rounds=5))
    assert trace.rows[0].zsum is None
    trace = run_one("dynamic", uniform_field, [0.2, 0.5, 0.8],
                    StopRule(max_rounds=5))
    assert trace.rows[0].zsum is not None
    with pytest.raises(DomainError):
        run_one("quantum", uniform_field, [0.2, 0.8], StopRule())


def test_sweep_deterministic_and_shaped(uniform_field):
    table = sweep("static", uniform_field, [4, 8], runs=3,
                  init_mode="random", seed=77)
    again = sweep("static", uniform_field, [4, 8], runs=3,
                  init_mode="random", seed=77)
    assert table == again
    assert [row.n for row in table.rows] == [4, 8]
    assert all(row.runs == 3 for row in table.rows)
    assert all(row.mean_rounds >= 1.0 for row in table.rows)
    shifted = sweep("static", uniform_field, [4, 8], runs=3,
                    init_mode="random", seed=78)
    assert shifted != table


def cell_by_cell(law, field, n_list, runs, init_mode, seed, **options):
    """The rows of a sweep table from one 1-D run per (n, run) cell."""
    rows = []
    for n in n_list:
        counts = [convergence_time(run_one(
            law, field, initial_positions(init_mode, n, StreamRng(seed, n, run), law=law),
            StopRule(1e-4, 200_000), record="summary", **options), 1e-4).rounds
            for run in range(runs)]
        rows.append(SweepRow(n, float(np.mean(counts)), float(np.std(counts)), runs))
    return tuple(rows)


def test_sweep_parallel_matches_serial(uniform_field):
    serial = sweep("static", uniform_field, [4, 6], runs=2,
                   init_mode="random", seed=5, workers=1)
    parallel = sweep("static", uniform_field, [4, 6], runs=2,
                     init_mode="random", seed=5, workers=2)
    assert serial == parallel
    assert serial.rows == cell_by_cell("static", uniform_field, [4, 6], 2, "random", 5)
    # the dynamic law's options reach every cell through the pool, and the
    # batch of each n gives every cell the count of its own run
    big_u = [sweep("dynamic", uniform_field, [4, 6], runs=3, init_mode="random",
                   seed=5, workers=workers, big_u=8) for workers in (1, 2)]
    assert big_u[0] == big_u[1]
    assert big_u[0].rows == cell_by_cell("dynamic", uniform_field, [4, 6], 3, "random", 5,
                                         big_u=8)
    assert big_u[0] != sweep("dynamic", uniform_field, [4, 6], runs=3,
                             init_mode="random", seed=5)


def test_identical_starts_run_once(uniform_field, monkeypatch):
    # every deterministic init mode gives each run of one n the same start
    batches = []
    real = linecover.harness.run_one
    monkeypatch.setattr(linecover.harness, "run_one",
                        lambda law, field, x0, *a, **kw: batches.append(np.shape(x0))
                        or real(law, field, x0, *a, **kw))
    for law in ("static", "dynamic"):
        for mode in ("all-one", "all-zero-perturbed"):
            batches.clear()
            table = sweep(law, uniform_field, [4, 6], runs=3, init_mode=mode, seed=1)
            assert batches == [(1, 4), (1, 6)]
            assert table.rows == cell_by_cell(law, uniform_field, [4, 6], 3, mode, 1)
            assert all(row.std_rounds == 0.0 for row in table.rows)


def test_nonconverging_batch_names_the_first_cell_that_fails(uniform_field):
    # the cells of n = 6 stop at different rounds: a max_rounds between them
    # fails some, and the error names the first in (n, run) order
    counts = {(n, run): convergence_time(run_one(
        "dynamic", uniform_field, initial_positions("random", n, StreamRng(3, n, run)),
        StopRule(1e-4, 200_000), record="summary"), 1e-4).rounds
        for n in (4, 6) for run in range(4)}
    cap = sorted(counts.values())[3]
    first = min(cell for cell, rounds in counts.items() if rounds > cap)
    with pytest.raises(NumericError, match=re.escape(f"n={first[0]}, run={first[1]})")):
        sweep("dynamic", uniform_field, [4, 6], runs=4, init_mode="random", seed=3,
              max_rounds=cap)


@pytest.mark.parametrize("option", [{"variant": "figure2"}, {"big_u": 3},
                                    {"movement_rule": "pair"}])
def test_static_law_refuses_dynamic_options(uniform_field, option):
    name = re.escape(repr(sorted(option)))
    with pytest.raises(DomainError, match=name):
        run_one("static", uniform_field, [0.2, 0.8], StopRule(max_rounds=5), **option)
    with pytest.raises(DomainError, match=name):
        sweep("static", uniform_field, [4, 6], runs=1, init_mode="random", seed=1,
              **option)


def test_sweep_dynamic_smoke(uniform_field):
    table = sweep("dynamic", uniform_field, [4, 6], runs=2,
                  init_mode="random", seed=31)
    assert all(row.mean_rounds >= 1.0 for row in table.rows)


def test_sweep_rejects_zero_runs(uniform_field):
    with pytest.raises(DomainError):
        sweep("static", uniform_field, [4], runs=0, init_mode="random", seed=1)


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(uniform_field, workers):
    # used to run serially
    with pytest.raises(DomainError, match="workers"):
        sweep("static", uniform_field, [4, 6], runs=1, init_mode="random", seed=1,
              workers=workers)


@pytest.mark.parametrize("call", [
    lambda field, n: initial_positions("random", n, StreamRng(1, 4, 0)),
    lambda field, n: initial_positions("all-one", n),
    lambda field, n: optimal_configuration(field, n),
], ids=["random", "all-one", "optimum"])
def test_agent_counts_must_be_integers(uniform_field, call):
    # a float n used to run (random start, optimum) or fail in numpy (all-one)
    with pytest.raises(DomainError, match="agent count n must be an integer"):
        call(uniform_field, 4.0)
    call(uniform_field, np.int64(4))   # a numpy integer stays accepted


def test_sweep_refuses_a_fractional_agent_count(uniform_field):
    # int(10.7) used to run n = 10
    with pytest.raises(DomainError, match="agent count n must be an integer"):
        sweep("dynamic", uniform_field, [10.7, 20], runs=1, init_mode="random", seed=1)


@pytest.mark.parametrize("option", [{"runs": 2.5}, {"workers": 1.5}])
def test_sweep_refuses_fractional_runs_and_workers(uniform_field, option):
    # used to raise a raw TypeError
    kwargs = {"runs": 1, **option}
    with pytest.raises(DomainError, match=f"{next(iter(option))} must be an integer"):
        sweep("static", uniform_field, [4, 6], init_mode="random", seed=1, **kwargs)
