"""Lifted-chain law: construction, stationarity, movement, churn, mixing."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecover import (
    DomainError,
    DynamicState,
    NumericError,
    StopRule,
    StreamRng,
    add_agent,
    build_chain,
    chain_step,
    coverage,
    init_z,
    initial_positions,
    initialize_state,
    mixing_profile,
    movement_step,
    optimal_configuration,
    remove_agent,
    resolve_density,
    run_dynamic,
    run_one,
    simulate_dynamic,
    spreading_min,
    stationary,
    step_round,
    token_index,
)
from linecover.harness import INIT_MODES
from linecover.lifted_chain import MOVEMENT_RULES, VARIANTS

import exact
from conftest import make_random_field


def exact_stationary(n: int, variant: str) -> np.ndarray:
    """Balance-equation solution: boundary states carry half the interior mass."""
    if variant == "uniformized":
        return np.full(2 * n, 1.0 / (2 * n))
    pi = np.full(2 * n, 1.0 / (2.0 * (n - 1)))
    for idx in (0, n - 1, n, 2 * n - 1):
        pi[idx] = 1.0 / (4.0 * (n - 1))
    return pi


def reference_K(n: int, big_u: int, variant: str) -> np.ndarray:
    """The chain's dense matrix, entry by entry as the edges are described."""
    u = float(big_u)
    cont = 1.0 - 1.0 / u
    switch = 1.0 / u
    up = lambda i: i - 1          # 1-based agent -> unprimed state index
    pr = lambda i: n + i - 1      # 1-based agent -> primed state index

    K = np.zeros((2 * n, 2 * n))
    for i in range(2, n):
        if variant == "figure2":
            K[up(i), up(i)] = 0.5
            K[up(i), up(i + 1)] = 0.5 * cont
            K[up(i), pr(i + 1)] = 0.5 * switch
            K[pr(i), pr(i)] = 0.5
            K[pr(i), pr(i - 1)] = 0.5 * cont
            K[pr(i), up(i - 1)] = 0.5 * switch
        else:
            K[up(i), up(i + 1)] = cont
            K[up(i), pr(i + 1)] = switch
            K[pr(i), pr(i - 1)] = cont
            K[pr(i), up(i - 1)] = switch
    # boundary nodes; the switching edges at 1' and n are self-loops
    K[up(1), up(2)] = cont
    K[up(1), pr(2)] = switch
    K[pr(1), up(1)] = cont
    K[pr(1), pr(1)] = switch
    K[up(n), pr(n)] = cont
    K[up(n), up(n)] = switch
    K[pr(n), pr(n - 1)] = cont
    K[pr(n), up(n - 1)] = switch
    return K


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------

def test_init_z_uniform_by_hand(uniform_field):
    z = init_z(uniform_field, [0.25, 0.5, 0.75])
    assert z == pytest.approx([0.1875, 0.125, 0.1875, 0.1875, 0.125, 0.1875], abs=1e-15)


def test_init_z_at_optimum_is_flat(uniform_field):
    x, _ = optimal_configuration(uniform_field, 6)
    z = init_z(uniform_field, x)
    assert z == pytest.approx(np.full(12, 1.0 / 12.0), abs=1e-13)


def test_init_z_quadratic_weighted_cells(quadratic_field):
    # cell boundary between 0.25 and 0.5 is the mass median c with
    # F(c) = (F(0.25) + F(0.5)) / 2, so z_1 = (F(0.25) + F(0.5)) / 4
    z = init_z(quadratic_field, [0.25, 0.5, 0.75])
    f = quadratic_field.cdf
    assert z[0] == pytest.approx((f(0.25) + f(0.5)) / 4.0, abs=1e-15)
    assert z[0] == pytest.approx(0.01171875, abs=1e-15)
    assert float(z.sum()) == pytest.approx(quadratic_field.total_mass, rel=1e-13)


def test_init_z_sums_to_total_mass(random_field_factory):
    field = random_field_factory(StreamRng(301))
    rng = StreamRng(302)
    x = np.sort(np.array(rng.uniforms(9)))
    z = init_z(field, x)
    assert float(z.sum()) == pytest.approx(field.total_mass, rel=1e-12)
    assert np.all(z >= 0.0)


def test_init_z_cells_end_at_one_medians():
    # agent i's cell runs between the 1-medians of its neighbour pairs, where
    # F is the mean of theirs; z_i = z_i' is half the cell's mass
    field, exact_field = exact.field_pair([0.0, 0.3125, 0.6875, 1.0], [2, 5, 1])
    x = np.sort(np.array(StreamRng(304).uniforms(9)))
    y = [exact_field.cdf(Fraction(v)) for v in x]
    edges = [0, *((a + b) / 2 for a, b in zip(y, y[1:])), exact_field.total]
    cells = [(b - a) / 2 for a, b in zip(edges, edges[1:])]
    want = exact.init_z(exact_field, [Fraction(v) for v in x])
    assert want == cells + cells
    assert exact.max_error(init_z(field, x), want) <= 2.0 ** -52


def test_init_z_rejects_coincident_positions(uniform_field):
    with pytest.raises(DomainError):
        init_z(uniform_field, [0.2, 0.2, 0.8])
    with pytest.raises(DomainError):
        init_z(uniform_field, [0.2, 0.8])


# ----------------------------------------------------------------------
# chain construction
# ----------------------------------------------------------------------

def test_figure2_rows_n3_u3():
    K = build_chain(3, 3, "figure2").K
    assert K[0] == pytest.approx([0, 2 / 3, 0, 0, 1 / 3, 0], abs=1e-15)
    assert K[1] == pytest.approx([0, 1 / 2, 1 / 3, 0, 0, 1 / 6], abs=1e-15)
    assert K[2] == pytest.approx([0, 0, 1 / 3, 0, 0, 2 / 3], abs=1e-15)


def test_uniformized_rows_n3_u3():
    K = build_chain(3, 3, "uniformized").K
    assert K[0] == pytest.approx([0, 2 / 3, 0, 0, 1 / 3, 0], abs=1e-15)
    assert K[1] == pytest.approx([0, 0, 2 / 3, 0, 0, 1 / 3], abs=1e-15)


def test_node_one_update_coefficients_exact():
    # printed update: z_1 <- (1 - 1/U) z_1' + 1/(2U) z_2',
    #                 z_1' <- (1/2)(1 - 1/U) z_2' + (1/U) z_1'
    for n, U in ((3, 3), (5, 7), (10, 10)):
        K = build_chain(n, U, "figure2").K
        assert K[n + 0, 0] == 1.0 - 1.0 / U
        assert K[n + 1, 0] == 1.0 / (2.0 * U)
        assert K[n + 1, n + 0] == 0.5 * (1.0 - 1.0 / U)
        assert K[n + 0, n + 0] == 1.0 / U


def test_rows_stochastic_all_variants():
    for variant in ("figure2", "uniformized"):
        for n, U in ((3, 3), (6, 4), (12, 17)):
            K = build_chain(n, U, variant).K
            assert np.max(np.abs(K.sum(axis=1) - 1.0)) <= 1e-14
            assert np.all(K >= 0.0)


def test_dense_K_matches_entrywise_reference():
    for variant in VARIANTS:
        for n in range(3, 41):
            for U in sorted({3, 7, n, 2 * n, 100}):
                chain = build_chain(n, U, variant)
                K = chain.K
                assert np.array_equal(K, reference_K(n, U, variant))
                assert K.flags.c_contiguous
                for src in chain.sources:
                    assert np.array_equal(np.sort(src), np.arange(2 * n))


def test_dense_K_is_built_once():
    chain = build_chain(5, 5, "figure2")
    assert chain.K is chain.K


def test_K_is_shift_plus_reflection_in_cycle_order():
    for n in range(3, 41):
        # states 1..n are 0..n-1 and states 1'..n' are n..2n-1
        order = np.r_[0:n, 2 * n - 1:n - 1:-1]
        p = np.arange(2 * n)
        succ, mirror = (p + 1) % (2 * n), (2 * n - 2 - p) % (2 * n)
        shift, reflection = np.eye(2 * n)[succ], np.eye(2 * n)[mirror]
        # figure2's share, in cycle order: 1 at the nodes 1, n, n', 1'
        share = np.full(2 * n, 0.5)
        share[[0, n - 1, n, 2 * n - 1]] = 1.0
        for U in sorted({3, n, 2 * n, 100}):
            uniformized = (1.0 - 1.0 / U) * shift + (1.0 / U) * reflection
            lazy = np.diag(1.0 - share) + np.diag(share) @ uniformized
            for variant, form in (("uniformized", uniformized), ("figure2", lazy)):
                chain = build_chain(n, U, variant)
                assert np.array_equal(chain.K[np.ix_(order, order)], form)
            assert np.array_equal(chain.share[order], share)
        # sources[0] and sources[1] are the in-edges of the shift and the reflection
        assert np.array_equal(chain.sources[0][order[succ]], order)
        assert np.array_equal(chain.sources[1][order[mirror]], order)


@given(st.integers(3, 200), st.integers(3, 400), st.sampled_from(VARIANTS),
       st.integers(0, 2**32 - 1))
def test_chain_step_matches_dense_product(n, big_u, variant, seed):
    chain = build_chain(n, big_u, variant)
    z = np.random.default_rng(seed).random(2 * n)
    state = DynamicState(chain=chain, z=z.copy(), positions=np.zeros(n))
    chain_step(state)
    assert np.all(np.abs(state.z - z @ chain.K) <= 4 * np.spacing(z.max()))
    assert abs(state.zsum - float(z.sum())) <= 4 * n * np.finfo(float).eps * float(z.sum())


def test_dynamic_rounds_and_churn_stay_linear_in_memory(quadratic_field):
    # a dense 2n x 2n chain would take 64 MB here
    n = 2000
    x0 = (np.arange(n) + 0.5) / n
    tracemalloc.start()
    try:
        state = initialize_state(quadratic_field, x0)
        for _ in range(2 * n):
            step_round(quadratic_field, state)
        add_agent(state, 0.5)
        remove_agent(state, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.n == n
    assert peak < 2 * 2**20


def test_build_chain_preconditions():
    with pytest.raises(DomainError):
        build_chain(2, 5, "figure2")
    with pytest.raises(DomainError):
        build_chain(5, 2, "figure2")
    with pytest.raises(DomainError):
        build_chain(5, 5, "nope")


def test_chain_counts_must_be_integers(uniform_field):
    # a float U reached the token index and failed the first move with IndexError
    for n, big_u, name in ((5.0, 5, "agent count n"), (5, 5.0, "round-trip estimate U"),
                           (5, 5.5, "round-trip estimate U")):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            build_chain(n, big_u)
    with pytest.raises(DomainError, match="U must be an integer, got 4.0"):
        initialize_state(uniform_field, [0.2, 0.5, 0.8], big_u=4.0)
    chain = build_chain(np.int64(5), np.int64(6))   # numpy integers are counts
    assert (chain.n, chain.big_u) == (5, 6)


def test_stationary_matches_balance_solution():
    for variant in ("figure2", "uniformized"):
        for n, U in ((3, 3), (4, 4), (9, 9), (17, 17), (3, 7), (8, 3), (20, 100)):
            chain = build_chain(n, U, variant)
            pi = stationary(chain)
            exact = exact_stationary(n, variant)
            assert float(np.abs(pi @ chain.K - pi).sum()) <= 1e-13
            assert np.max(np.abs(pi - exact)) <= 1e-13
            assert float(np.abs(exact @ chain.K - exact).sum()) <= 1e-15


def test_stationary_figure2_n3_by_hand():
    pi = stationary(build_chain(3, 3, "figure2"))
    assert pi == pytest.approx([1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4, 1 / 8], abs=1e-13)


def test_stationary_checks_the_balance_equations():
    # a figure2 label on uniformized dynamics: the closed form does not fit
    uniformized = build_chain(5, 5, "uniformized")
    mislabelled = SimpleNamespace(share=build_chain(5, 5, "figure2").share,
                                  apply=uniformized.apply)
    with pytest.raises(NumericError):
        stationary(mislabelled)


# ----------------------------------------------------------------------
# round updates
# ----------------------------------------------------------------------

def test_chain_step_point_mass(uniform_field):
    state = initialize_state(uniform_field, [0.25, 0.5, 0.75],
                             variant="figure2", movement_rule="pair")
    state.z = np.array([1.0, 0, 0, 0, 0, 0])
    chain_step(state)
    assert state.z == pytest.approx([0, 2 / 3, 0, 0, 1 / 3, 0], abs=1e-15)
    assert state.round_index == 1


def test_chain_step_preserves_sum_and_stationary_profile(uniform_field):
    state = initialize_state(uniform_field, [0.2, 0.5, 0.8],
                             variant="figure2", movement_rule="pair")
    pi = exact_stationary(3, "figure2")
    state.z = uniform_field.total_mass * pi
    for _ in range(10):
        chain_step(state)
        assert state.z == pytest.approx(uniform_field.total_mass * pi, abs=1e-15)
    rng = StreamRng(310)
    raw = np.array(rng.uniforms(6))
    state.z = raw
    chain_step(state)
    assert state.zsum == pytest.approx(float(raw.sum()), rel=1e-14)


def test_token_schedule_wraps():
    assert token_index(1, 5) == 1
    assert token_index(5, 5) == 5
    assert token_index(6, 5) == 1
    assert token_index(12, 5) == 2


def test_movement_moves_leftmost_and_pushes(uniform_field):
    state = initialize_state(uniform_field, [0.02, 0.05, 0.9],
                             variant="figure2", movement_rule="pair")
    state.z = np.array([0.05, 0.2, 0.25, 0.05, 0.2, 0.25])
    state.round_index = 1
    movement_step(uniform_field, state)
    # agent 1 moves to F^-1(z_1 + z_1') = 0.1; agent 2 at 0.05 is dragged along
    assert state.positions == pytest.approx([0.1, 0.1, 0.9], abs=1e-14)


def test_movement_token_beyond_n_is_idle(uniform_field):
    state = initialize_state(uniform_field, [0.2, 0.5, 0.8], big_u=5,
                             variant="figure2", movement_rule="pair")
    state.round_index = 4  # token 4 > n = 3
    before = state.positions.copy()
    movement_step(uniform_field, state)
    assert np.array_equal(state.positions, before)


def test_movement_requires_started_round(uniform_field):
    state = initialize_state(uniform_field, [0.2, 0.5, 0.8])
    with pytest.raises(DomainError):
        movement_step(uniform_field, state)


def test_split_rule_sweep_rebuilds_optimum_from_flat_mass(uniform_field):
    # with z at the uniformized fixed point, one token sweep places every
    # agent on the balanced configuration
    n = 5
    state = initialize_state(uniform_field, np.linspace(0.11, 0.9, n),
                             variant="uniformized", movement_rule="split")
    flat = np.full(2 * n, uniform_field.total_mass / (2 * n))
    xstar, _ = optimal_configuration(uniform_field, n)
    for t in range(1, n + 1):
        state.z = flat.copy()
        state.round_index = t
        movement_step(uniform_field, state)
    assert state.positions == pytest.approx(xstar, abs=1e-13)


def test_stationary_start_is_a_fixed_point(uniform_field):
    n = 5
    xstar, _ = optimal_configuration(uniform_field, n)
    state = initialize_state(uniform_field, xstar,
                             variant="uniformized", movement_rule="split")
    state.z = np.full(2 * n, uniform_field.total_mass / (2 * n))
    for _ in range(3 * n):
        step_round(uniform_field, state)
        assert state.positions == pytest.approx(xstar, abs=1e-13)


def test_pair_rule_reconstruction_property(random_field_factory):
    # right after agent j moves, the mass between it and its left neighbor
    # equals its pair sum (the relation deletion recovery relies on)
    field = random_field_factory(StreamRng(320))
    rng = StreamRng(321)
    n = 6
    x0 = np.sort(np.array(rng.uniforms(n)))
    state = initialize_state(field, x0, variant="figure2", movement_rule="pair")
    f1 = field.total_mass
    for _ in range(120):
        chain_step(state)
        j = token_index(state.round_index, state.chain.big_u)
        movement_step(field, state)
        if j > n:
            continue
        pair = float(state.z[j - 1] + state.z[n + j - 1])
        left = field.cdf(state.positions[j - 2]) if j >= 2 else 0.0
        if left + pair <= f1:  # no clamping
            got = field.cdf(state.positions[j - 1]) - left
            assert abs(got - pair) <= 1e-10 * f1


# ----------------------------------------------------------------------
# full runs
# ----------------------------------------------------------------------

def test_uniformized_split_reaches_optimum(uniform_field):
    rng = StreamRng(42, 5, 0)
    x0 = np.sort(np.array(rng.uniforms(5)))
    trace = run_dynamic(uniform_field, x0,
                        StopRule(tol=1e-9, max_rounds=20000, persist=5))
    assert trace.stop_reason == "tol"
    phi_star = trace.metadata["phi_star"]
    assert abs(trace.final_phi - phi_star) <= 1e-3 * phi_star


def test_figure2_pair_limit_profile(uniform_field):
    # documented limit: gaps proportional to (1/2, 1, ..., 1, 1/2)/(n-1)
    # with the last agent driven to 1
    n = 5
    rng = StreamRng(43, n, 0)
    x0 = np.sort(np.array(rng.uniforms(n)))
    state = initialize_state(uniform_field, x0, variant="figure2",
                             movement_rule="pair")
    simulate_dynamic(uniform_field, state, StopRule(tol=None, max_rounds=4000))
    y = uniform_field.cdf(state.positions)
    gaps = np.concatenate([[y[0]], np.diff(y)])
    expected = np.array([0.5, 1, 1, 1, 0.5]) / (n - 1)
    assert np.max(np.abs(gaps - expected)) <= 1e-6
    assert state.positions[-1] >= 1.0 - 1e-6


def test_trace_records_conserved_mass_and_order(quadratic_field):
    rng = StreamRng(44, 6, 0)
    x0 = np.sort(np.array(rng.uniforms(6)))
    trace = run_dynamic(quadratic_field, x0,
                        StopRule(tol=1e-10, max_rounds=20000, persist=6))
    total = quadratic_field.total_mass
    for row in trace.rows:
        assert abs(row.zsum - total) <= 1e-12 * total
        assert np.all(np.diff(row.positions) >= 0.0)


def test_tol_stop_waits_for_persistent_streak(uniform_field):
    # The residual dips below tol once before it stays there, so a rule that
    # did not reset its streak would stop too early.
    n, tol, persist = 8, 1e-3, 8
    x0 = initial_positions("random", n, StreamRng(0, n, 0), law="dynamic")
    free = run_dynamic(uniform_field, x0, StopRule(tol=None, max_rounds=200))
    below = [row.residual_sq <= tol for row in free.rows]
    oracle = next(k for k in range(persist - 1, len(below))
                  if all(below[k - persist + 1:k + 1]))
    first = below.index(True)
    assert first + persist - 1 < oracle   # the case has a dip that does not persist
    assert (first, oracle) == (24, 45)

    trace = run_dynamic(uniform_field, x0, StopRule(tol=tol, max_rounds=200, persist=persist))
    assert trace.stop_reason == "tol"
    assert trace.final_round == oracle
    assert [row.residual_sq for row in trace.rows] == [
        row.residual_sq for row in free.rows[:oracle + 1]]


def test_simulate_dynamic_guards_mass_conservation(uniform_field):
    state = initialize_state(uniform_field, [0.2, 0.5, 0.8])
    state.z[0] += 1e-6
    with pytest.raises(NumericError):
        simulate_dynamic(uniform_field, state, StopRule(tol=None, max_rounds=3))


def test_run_dynamic_rejects_two_agents(uniform_field):
    with pytest.raises(DomainError):
        run_dynamic(uniform_field, [0.2, 0.8], StopRule())


def test_initialize_state_rejects_estimate_below_n(uniform_field):
    # with U < n the token never reaches agents U+1..n
    x0 = np.linspace(0.05, 0.95, 10)
    with pytest.raises(DomainError):
        initialize_state(uniform_field, x0, big_u=8)
    with pytest.raises(DomainError):
        run_dynamic(uniform_field, x0, StopRule(), big_u=9)
    assert initialize_state(uniform_field, x0, big_u=10).chain.big_u == 10


@given(st.integers(0, 2**32 - 1), st.integers(3, 120), st.sampled_from(INIT_MODES),
       st.sampled_from(VARIANTS), st.sampled_from(MOVEMENT_RULES))
def test_dynamic_runs_keep_order_and_mass_on_random_fields(seed, n, init_mode,
                                                           variant, rule):
    field = make_random_field(StreamRng(seed))
    x0 = initial_positions(init_mode, n, StreamRng(seed, n, 0), law="dynamic")
    trace = run_dynamic(field, x0, StopRule(tol=None, max_rounds=3 * n),
                        variant=variant, movement_rule=rule)
    total = field.total_mass
    for row in trace.rows:
        assert np.all(np.diff(row.positions) >= 0.0)
        assert abs(row.zsum - total) <= 1e-12 * max(1.0, total)


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------

def test_add_agent_bookkeeping(uniform_field):
    state = initialize_state(uniform_field, [0.2, 0.5, 0.8])
    before = state.zsum
    add_agent(state, 0.6)
    assert state.n == 4
    assert state.chain.K.shape == (8, 8)
    assert np.array_equal(state.positions, [0.2, 0.5, 0.6, 0.8])
    assert state.z[2] == 0.0 and state.z[4 + 2] == 0.0
    assert state.zsum == before


def test_remove_agent_hands_mass_left(uniform_field):
    state = initialize_state(uniform_field, [0.1, 0.4, 0.6, 0.9])
    before = state.zsum
    pair = float(state.z[2] + state.z[4 + 2])
    left_before = float(state.z[1] + state.z[4 + 1])
    remove_agent(state, 3)
    assert state.n == 3
    assert np.array_equal(state.positions, [0.1, 0.4, 0.9])
    assert state.zsum == pytest.approx(before, rel=1e-15)
    left_after = float(state.z[1] + state.z[3 + 1])
    assert left_after == pytest.approx(left_before + pair, rel=1e-14)


def test_remove_first_agent_hands_mass_right(uniform_field):
    state = initialize_state(uniform_field, [0.1, 0.4, 0.6, 0.9])
    before = state.zsum
    remove_agent(state, 1)
    assert np.array_equal(state.positions, [0.4, 0.6, 0.9])
    assert state.zsum == pytest.approx(before, rel=1e-15)


def test_remove_agent_floor(uniform_field):
    state = initialize_state(uniform_field, [0.2, 0.5, 0.8])
    with pytest.raises(DomainError):
        remove_agent(state, 2)


def test_churn_refuses_a_position_or_index_outside_the_line(uniform_field):
    state = initialize_state(uniform_field, [0.2, 0.4, 0.6, 0.8])
    for x_new in (-0.1, 1.5, float("nan")):
        with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
            add_agent(state, x_new)
    for i in (0, 5):
        with pytest.raises(DomainError, match="agent index must be in 1..4"):
            remove_agent(state, i)
    assert state.n == 4 and state.positions.tolist() == [0.2, 0.4, 0.6, 0.8]


@pytest.mark.parametrize("rows", [1, 2])
def test_churn_refuses_a_batch_state(uniform_field, rows):
    # adding raised numpy's "object too deep"; removing flattened one row
    # into a run of n - 1 agents and failed a reshape on two
    state = initialize_state(uniform_field, np.tile([0.1, 0.4, 0.6, 0.9], (rows, 1)))
    with pytest.raises(DomainError, match=f"not on a batch of {rows} runs"):
        add_agent(state, 0.5)
    with pytest.raises(DomainError, match=f"not on a batch of {rows} runs"):
        remove_agent(state, 2)
    assert state.positions.shape == (rows, 4) and state.z.shape == (rows, 8)


def test_churn_reconverges_to_new_optimum(uniform_field):
    rng = StreamRng(45, 6, 0)
    x0 = np.sort(np.array(rng.uniforms(6)))
    state = initialize_state(uniform_field, x0)
    simulate_dynamic(uniform_field, state, StopRule(tol=1e-8, max_rounds=20000, persist=6))

    remove_agent(state, 3)
    trace = simulate_dynamic(uniform_field, state,
                             StopRule(tol=1e-8, max_rounds=20000, persist=6))
    phi5 = optimal_configuration(uniform_field, 5)[1]
    assert abs(trace.final_phi - phi5) <= 1e-3 * phi5

    add_agent(state, 0.5)
    trace = simulate_dynamic(uniform_field, state,
                             StopRule(tol=1e-8, max_rounds=20000, persist=6))
    phi6 = optimal_configuration(uniform_field, 6)[1]
    assert abs(trace.final_phi - phi6) <= 1e-3 * phi6


def _assert_ordered_and_conserved(field, positions, zsum):
    total = field.total_mass
    assert np.all(np.diff(positions) >= 0.0)
    assert abs(zsum - total) <= 1e-9 * max(1.0, total)   # the run's own guard


@given(st.data())
def test_random_churn_keeps_order_and_mass_and_reconverges(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    field = make_random_field(StreamRng(seed))
    n0 = data.draw(st.integers(3, 8), label="n0")
    big_u = n0 + data.draw(st.integers(0, 3), label="U - n0")
    x0 = initial_positions("random", n0, StreamRng(seed, n0, 0), law="dynamic")
    state = initialize_state(field, x0, big_u=big_u)
    for _ in range(data.draw(st.integers(1, 8), label="events")):
        event = data.draw(st.sampled_from(["rounds", "add", "remove"]))
        if event == "rounds":
            rounds = data.draw(st.integers(1, 2 * big_u))
            trace = simulate_dynamic(field, state, StopRule(tol=None, max_rounds=rounds))
            for row in trace.rows:
                _assert_ordered_and_conserved(field, row.positions, row.zsum)
        elif event == "add":
            add_agent(state, data.draw(st.one_of(
                st.sampled_from([0.0, 1.0, *state.positions.tolist()]),
                st.floats(0.0, 1.0))))
        elif state.n >= 4:
            remove_agent(state, data.draw(st.integers(1, state.n)))
        _assert_ordered_and_conserved(field, state.positions, state.zsum)
        # the carried masses are bitwise F(x), or unset after churn
        assert state.masses is None or np.array_equal(state.masses, field.cdf(state.positions))

    if state.n <= big_u:
        # every agent holds the token once per cycle: back to the optimum
        trace = simulate_dynamic(field, state, StopRule(tol=1e-10, max_rounds=30_000))
        assert trace.stop_reason == "tol"
        phi_star = optimal_configuration(field, state.n)[1]
        assert abs(trace.final_phi - phi_star) <= 1e-3 * phi_star
    else:
        # agents U+1..n never hold the token: they move only when pushed
        # right, so the run keeps order and mass but in general settles away
        # from the optimum, and with a tolerance it runs to max_rounds
        trace = simulate_dynamic(field, state, StopRule(tol=None, max_rounds=4 * big_u))
        beyond = np.array([row.positions[big_u:] for row in trace.rows])
        assert np.all(np.diff(beyond, axis=0) >= 0.0)
        for row in trace.rows:
            _assert_ordered_and_conserved(field, row.positions, row.zsum)


# ----------------------------------------------------------------------
# mixing diagnostics
# ----------------------------------------------------------------------

def test_mixing_curve_starts_at_point_mass_distance():
    chain = build_chain(4, 4, "figure2")
    pi = stationary(chain)
    _, vcurve = mixing_profile(chain, 0.05)
    assert vcurve[0] == pytest.approx(2.0 * (1.0 - float(pi.min())), abs=1e-12)


def test_mixing_time_settles_below_eps():
    chain = build_chain(6, 6, "uniformized")
    t_mix, vcurve = mixing_profile(chain, 0.01)
    assert all(v < 0.01 for v in vcurve[t_mix:t_mix + 2 * 6])
    assert vcurve[t_mix - 1] >= 0.01


@given(n=st.integers(3, 30), data=st.data(), variant=st.sampled_from(VARIANTS),
       eps=st.floats(1e-3, 0.5))
def test_mixing_profile_stops_2n_rounds_after_settling(n, data, variant, eps):
    big_u = data.draw(st.integers(n, 3 * n), label="big_u")
    t_mix, vcurve = mixing_profile(build_chain(n, big_u, variant), eps)
    assert len(vcurve) == t_mix + 2 * n
    assert all(v < eps for v in vcurve[t_mix:])
    assert t_mix == 0 or vcurve[t_mix - 1] >= eps


@given(n=st.integers(3, 60), data=st.data(), variant=st.sampled_from(VARIANTS))
def test_chain_is_mirror_symmetric(n, data, variant):
    # mixing_profile carries rows 0..n-1 of K^t only: the state reversal
    # d -> 2n-1-d must map K and pi to themselves, bit for bit
    chain = build_chain(n, data.draw(st.integers(n, 3 * n), label="big_u"), variant)
    assert np.array_equal(chain.K[::-1, ::-1], chain.K)
    pi = stationary(chain)
    assert np.array_equal(pi[::-1], pi)


def full_mixing_profile(chain, eps):
    """mixing_profile's curve over all 2n rows of K^t, with the dense product."""
    pi, window, K = stationary(chain), chain.size, chain.K
    powers = np.eye(chain.size)
    vcurve, settled = [], 0
    for t in range(2000 + 600 * chain.big_u + 1):
        vcurve.append(float(np.max(np.abs(powers - pi).sum(axis=1))))
        if not vcurve[-1] < eps:
            settled = t + 1
        if t + 1 - settled >= window:
            return settled, vcurve
        powers = powers @ K
    raise AssertionError("the reference curve did not settle")


@given(n=st.integers(3, 30), data=st.data(), variant=st.sampled_from(VARIANTS),
       eps=st.floats(1e-3, 0.5))
def test_mixing_profile_matches_the_curve_over_all_rows(n, data, variant, eps):
    chain = build_chain(n, data.draw(st.integers(n, 3 * n), label="big_u"), variant)
    t_mix, vcurve = mixing_profile(chain, eps)
    ref_t_mix, ref_vcurve = full_mixing_profile(chain, eps)
    assert (t_mix, len(vcurve)) == (ref_t_mix, len(ref_vcurve))
    # to first order in u = 2^-53, a round adds at most 3u to the l1 error of
    # a row of K^t (an entry sums at most three products), and the two curves
    # sum a row's 2n distances in opposite orders: so they part by at most
    # (6t + 4n v + 2) u. The largest shift measured on 1,120 chains (n = 3-30,
    # U = n-3n, eps down to 1e-3) was 0.12 of that
    shift = np.abs(np.subtract(vcurve, ref_vcurve))
    t = np.arange(len(vcurve))
    assert np.all(shift <= (6 * t + 4 * n * np.array(ref_vcurve) + 2) * 2.0 ** -53)


@pytest.mark.parametrize("n, big_u, variant, eps, want", [
    (3, 1000, "uniformized", 0.01, 4890), (54, 3, "figure2", 1e-3, 4064)])
def test_mixing_round_cap_grows_with_n_and_u(n, big_u, variant, eps, want):
    # t_mix grows as about 5U for U >= n, and with n at U < n, which the
    # chain alone takes: a cap of 2000 + 600 n refuses the first chain, and
    # one of 2000 + 600 U the second
    t_mix, vcurve = mixing_profile(build_chain(n, big_u, variant), eps)
    assert t_mix == want and len(vcurve) == t_mix + 2 * n


def test_mixing_profile_eps_domain():
    chain = build_chain(3, 3, "uniformized")
    with pytest.raises(DomainError):
        mixing_profile(chain, 1.5)


def test_spreading_floor_small_range():
    for n in (3, 5, 9, 14):
        chain = build_chain(n, n, "uniformized")
        assert n * spreading_min(chain) >= 0.01


# ----------------------------------------------------------------------
# unmapped summary rounds: the move checks its own window
# ----------------------------------------------------------------------

def test_one_ulp_guard_keeps_order_in_unmapped_rounds(quadratic_field):
    # F^-1(F(x)) < x by an ulp at some x: an agent whose target mass is 0
    # there moves onto its left neighbour, not an ulp below it
    grid = np.linspace(0.01, 0.99, 2001)
    left = next(float(v) for v in grid
                if quadratic_field.inverse_cdf(quadratic_field.cdf(float(v))) < v)
    j = 4   # agent j - 1 sits at left
    x0 = np.r_[np.linspace(0.0, left, j - 1), np.linspace(0.5, 0.9, 7)]
    state = initialize_state(quadratic_field, x0, movement_rule="pair")
    # all mass on agent 7's unprimed state: one round later none reaches agent j
    state.z[:] = 0.0
    state.z[6] = quadratic_field.total_mass
    state.round_index = j - 1
    trace = simulate_dynamic(quadratic_field, state, StopRule(tol=1e-300, max_rounds=2),
                             record="summary")
    assert trace.stop_reason == "max_rounds"
    assert trace.final_positions[j - 1] == left == x0[j - 2]


def test_unmapped_rounds_check_the_moved_window(monkeypatch):
    # a move past 1 (inside cdf's clipping slack) is an internal fault, caught
    # in the round that makes it, not at the next mapped round
    field = resolve_density("uniform")
    real = field.inverse_cdf
    monkeypatch.setattr(field, "inverse_cdf",
                        lambda m: 1.0 + 1e-13 if np.ndim(m) == 0 else real(m))
    state = initialize_state(field, np.linspace(0.1, 0.9, 5))
    with pytest.raises(NumericError, match="round 1: agent positions left order"):
        simulate_dynamic(field, state, StopRule(tol=1e-300, max_rounds=5), record="summary")


# ----------------------------------------------------------------------
# batches: the runs of one n and U stepped as the rows of one state
# ----------------------------------------------------------------------

@given(n=st.integers(3, 40), data=st.data(), variant=st.sampled_from(VARIANTS),
       rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_apply_on_rows_equals_serial_calls(n, data, variant, rows, seed):
    chain = build_chain(n, data.draw(st.integers(n, 3 * n), label="big_u"), variant)
    z = np.random.default_rng(seed).random((rows, 2 * n))
    batch = chain.apply(z)
    assert batch.tobytes() == np.array([chain.apply(row) for row in z]).tobytes()


def final_bits(trace):
    row = trace.rows[-1]
    return (trace.stop_reason, trace.settled_round, row.t, row.positions.tobytes(),
            row.phi, row.residual_sq, row.zsum)


def batch_matching_its_runs(field, starts, stop, **options):
    """The traces of ``starts`` run as one batch, each checked bit for bit
    against its own row's run under ``summary``."""
    batch = run_one("dynamic", field, starts, stop, record="summary", **options)
    assert len(batch) == len(starts)
    for x0, trace in zip(starts, batch):
        alone = run_one("dynamic", field, x0, stop, record="summary", **options)
        assert final_bits(trace) == final_bits(alone)
    return batch


def test_batch_state_zsum_is_each_rows_total(quadratic_field):
    # a batch state's zsum is one total per row, each with its own run's
    # bits, not the sum over the whole batch
    starts = np.array([initial_positions("random", 7, StreamRng(3, 7, run), law="dynamic")
                       for run in range(3)])
    batch = initialize_state(quadratic_field, starts)
    alone = [initialize_state(quadratic_field, x0) for x0 in starts]
    batch.z[1, 2] += 0.25
    alone[1].z[2] += 0.25
    for state in (batch, *alone):
        for _ in range(5):
            step_round(quadratic_field, state)
    assert batch.zsum.tolist() == [state.zsum for state in alone]
    assert batch.zsum[1] == pytest.approx(quadratic_field.total_mass + 0.25, rel=1e-14)


@settings(max_examples=60)
@given(kind=st.sampled_from(["uniform", "quadratic", "random"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(3, 40), rows=st.integers(1, 9), data=st.data(),
       variant=st.sampled_from(VARIANTS), rule=st.sampled_from(MOVEMENT_RULES),
       tol=st.sampled_from([1e-1, 1e-2, 1e-3, None]))
def test_batch_rows_match_their_own_runs(kind, seed, n, rows, data, variant, rule, tol):
    # the optimum as one start stops a token cycle or so before the random
    # ones, and max_rounds of a few cycles cuts the slowest rows
    field = make_random_field(StreamRng(seed)) if kind == "random" else resolve_density(kind)
    big_u = data.draw(st.integers(n, 3 * n), label="big_u")
    starts = np.array([initial_positions("random", n, StreamRng(seed, n, run), law="dynamic")
                       for run in range(rows)])
    starts[0] = optimal_configuration(field, n)[0]
    stop = StopRule(tol, data.draw(st.integers(big_u, 6 * big_u), label="max_rounds"))
    batch_matching_its_runs(field, starts, stop, big_u=big_u, variant=variant,
                            movement_rule=rule)


def test_batch_rows_stop_apart_and_at_max_rounds(quadratic_field):
    n = 12
    starts = np.array([optimal_configuration(quadratic_field, n)[0]]
                      + [initial_positions("random", n, StreamRng(7, n, run), law="dynamic")
                         for run in range(5)])
    batch = batch_matching_its_runs(quadratic_field, starts, StopRule(1e-3, 60))
    reasons = [trace.stop_reason for trace in batch]
    assert reasons.count("max_rounds") == 2
    assert len({trace.final_round for trace in batch if trace.stop_reason == "tol"}) == 4
    assert len(batch.rows) == len(starts)   # one summary row per run


def test_batch_runs_record_under_summary_only(uniform_field):
    starts = np.array([[0.2, 0.5, 0.8], [0.1, 0.4, 0.9]])
    for call in (lambda: run_one("dynamic", uniform_field, starts, StopRule()),
                 lambda: simulate_dynamic(uniform_field, initialize_state(uniform_field, starts),
                                          StopRule())):
        with pytest.raises(DomainError, match="summary"):
            call()


def test_one_ulp_guard_holds_row_by_row(quadratic_field):
    # the state of test_one_ulp_guard_keeps_order_in_unmapped_rounds as one
    # row of a batch, next to a row whose agent j reaches its neighbour exactly
    grid = np.linspace(0.01, 0.99, 2001)
    left = next(float(v) for v in grid
                if quadratic_field.inverse_cdf(quadratic_field.cdf(float(v))) < v)
    j = 4
    x0 = np.r_[np.linspace(0.0, left, j - 1), np.linspace(0.5, 0.9, 7)]
    other = np.linspace(0.05, 0.95, 10)
    assert quadratic_field.inverse_cdf(quadratic_field.cdf(other[j - 2])) == other[j - 2]
    state = initialize_state(quadratic_field, np.array([x0, other]), movement_rule="pair")
    state.z[:] = 0.0
    state.z[:, 6] = quadratic_field.total_mass
    state.round_index = j - 1
    batch = simulate_dynamic(quadratic_field, state, StopRule(tol=1e-300, max_rounds=2),
                             record="summary")
    assert [trace.stop_reason for trace in batch] == ["max_rounds"] * 2
    assert batch[0].final_positions[j - 1] == left == x0[j - 2]
    assert batch[1].final_positions[j - 1] == other[j - 2]


def test_batch_rounds_check_each_moved_window(monkeypatch):
    field = resolve_density("uniform")
    real = field.inverse_cdf
    monkeypatch.setattr(field, "inverse_cdf",
                        lambda m: np.full(np.shape(m), 1.0 + 1e-13) if np.ndim(m) else real(m))
    starts = np.array([np.linspace(0.1, 0.9, 5), np.linspace(0.2, 0.8, 5)])
    state = initialize_state(field, starts)
    with pytest.raises(NumericError, match="round 1: agent positions left order"):
        simulate_dynamic(field, state, StopRule(tol=1e-300, max_rounds=5), record="summary")
