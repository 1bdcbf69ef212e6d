"""The dynamic control law: a lifted, nonreversible chain plus token moves.

Each of the n agents keeps two mass variables, z_i and z_i'. Stacked as a
row vector z = (z_1..z_n, z_1'..z_n'), they evolve by z(t+1) = z(t) K where
K is a 2n-state row-stochastic matrix over a directed 2n-cycle: unprimed
states flow rightward (i -> i+1), primed states leftward (i' -> (i-1)'),
with turnarounds 1' -> 1 and n -> n'. Each node continues along the cycle
with high probability and takes a low-probability (1/U) "switching" edge to
the mirrored track, which jumps the cycle position by an even amount; U is
the agents' estimate of n. The guided motion mixes in O(n) rounds instead
of the O(n^2) of a diffusive walk, which is the whole point of the lift.

Both edge sets are permutations of the 2n states. In cycle order 1, ...,
n, n', ..., 1' (p = 0, ..., 2n - 1) the continuing edges are the cyclic
shift C, p -> p + 1 mod 2n, and the switching edges the reflection R,
p -> 2n - 2 - p mod 2n, whose fixed points n and 1' are self-loops. So
K = (1 - 1/U) C + (1/U) R, the shift-plus-flip lifted walk of Diaconis,
Holmes & Neal (2000), stored as the in-edges of C (``sources[0]``) and R
(``sources[1]``): a round z K is one gather and a two-term weighted sum,
O(n), not a dense 2n x 2n product. C alone is the 2n-cycle, so the support
is irreducible. The state reversal J, d -> 2n-1-d (agent i <-> (n+1-i)'),
is the rotation by n in cycle order and commutes with C, R and ``share``,
so the chain is mirror-symmetric: K = JKJ.

Two variants are provided:

* ``uniformized``: K as above. A mixture of permutations is doubly
  stochastic, so pi is exactly uniform, and the mass pair sums agents read
  off in the limit reproduce the balanced optimal configuration.
* ``figure2``: the same chain made lazy, diag(1 - s) + diag(s) K, where
  s = ``share`` is 1 at the boundary nodes 1, n, n', 1' and 1/2 at the
  2n - 4 interior ones; pi is proportional to 1/s.

Movement is token-passing: at round t agent j = ((t-1) mod U) + 1 (if
j <= n) moves so that the mass between its left neighbor and itself equals
its current mass target, and drags along any agent it overtakes. The
target is z_j + z_j' under the ``pair`` rule and z_{(j-1)'} + z_j under the
``split`` rule; only the latter has the optimal configuration as its fixed
point under the uniformized chain.

A round writes and checks only the moved window (the token holder and the
agents it pushes), and the round loop judges it on its exact residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .density import DensityField, check_agent_count, check_integer, check_positions, mass_gaps
from .errors import DomainError, NumericError
from .trace import ExperimentTrace, StopRule, TraceBatch, run_rounds

MIN_AGENTS = 3
VARIANTS = ("figure2", "uniformized")
MOVEMENT_RULES = ("pair", "split")

_STATIONARY_TOL = 1e-12   # l1 residual allowed for the closed-form pi


@dataclass(frozen=True)
class LiftedChain:
    """Immutable 2n-state chain: parameters and the two in-edge permutations.

    State d receives its continuing edge from ``sources[0, d]`` and its
    switching edge from ``sources[1, d]``; states 0..n-1 are the unprimed
    agents 1..n and states n..2n-1 the primed ones. ``figure2`` uses the
    same edges made lazy by ``share``.
    """

    n: int
    big_u: int
    variant: str
    sources: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.n

    @cached_property
    def rates(self) -> tuple[float, float]:
        """Continuing and switching probabilities, 1 - 1/U and 1/U."""
        switch = 1.0 / self.big_u
        return 1.0 - switch, switch

    @cached_property
    def share(self) -> np.ndarray:
        """Part of each state's mass that leaves along its edges: 1, except
        1/2 at ``figure2``'s interior states (all but 1, n, n', 1')."""
        share = np.ones(self.size)
        if self.variant == "figure2":
            share[1:self.n - 1] = share[self.n + 1:-1] = 0.5
        return share

    def apply(self, z: np.ndarray) -> np.ndarray:
        """z K along the last axis of z, in O(n) per row.

        The two gathered terms are scaled and added elementwise, in one
        fixed order, with no BLAS call: so the bits do not depend on the
        CPU's BLAS kernel, and each row of an N-D z gets its own 1-D bits.
        """
        keep, switch = self.rates
        # figure2: only the moving part m leaves a state, the rest stays
        m = z if self.variant == "uniformized" else z * self.share
        moved = m.take(self.sources[0], axis=-1)
        moved *= keep
        switched = m.take(self.sources[1], axis=-1)
        switched *= switch
        moved += switched
        return moved if m is z else moved + (z - m)

    @cached_property
    def K(self) -> np.ndarray:
        """Dense transition matrix, built once on first read (O(n^2) memory)."""
        return self.apply(np.eye(self.size))


@dataclass
class DynamicState:
    """Mutable per-run state: chain, mass variables, positions, round.

    ``masses`` carries the agents' y = F(positions) from round to round;
    None means not mapped yet. Code that changes ``positions`` outside a
    round, as churn does, resets it to None. A batch state holds R runs of
    one chain as rows: z is (R, 2n), positions and masses are (R, n).
    """

    chain: LiftedChain
    z: np.ndarray
    positions: np.ndarray
    round_index: int = 0
    movement_rule: str = "split"
    masses: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def zsum(self) -> float | np.ndarray:
        """The mass total sum(z); one per row of a batch state."""
        return float(self.z.sum()) if self.z.ndim == 1 else self.z.sum(axis=-1)


# ----------------------------------------------------------------------
# chain construction and diagnostics
# ----------------------------------------------------------------------

def build_chain(n: int, big_u: int, variant: str = "uniformized") -> LiftedChain:
    """Build the 2n-state chain for n agents and round-trip estimate U."""
    check_agent_count(n, MIN_AGENTS)
    if check_integer(big_u, "the round-trip estimate U") < 3:
        raise DomainError("the round-trip estimate U must be at least 3")
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}")
    sources = np.array([
        # continuing: 1' -> 1 -> 2 -> ... -> n -> n' -> (n-1)' -> ... -> 1'
        np.r_[n, 0:n - 1, n + 1:2 * n, n - 1],
        # switching: (i+1)' -> i and (i-1) -> i', self-loops at n and 1'
        np.r_[n + 1:2 * n, n - 1, n, 0:n - 1],
    ])
    return LiftedChain(n=n, big_u=big_u, variant=variant, sources=sources)


def stationarity_residual(chain: LiftedChain, pi: np.ndarray) -> float:
    """The l1 balance residual ||pi K - pi||_1."""
    return float(np.abs(chain.apply(pi) - pi).sum())


def stationary(chain: LiftedChain) -> np.ndarray:
    """Stationary probability vector, in closed form: pi proportional to
    1 / ``chain.share`` (see the module docstring), verified against the
    balance equations pi K = pi.
    """
    weight = 1.0 / chain.share
    pi = weight / weight.sum()
    residual = stationarity_residual(chain, pi)
    if residual > _STATIONARY_TOL:
        raise NumericError(f"stationary vector fails pi K = pi (residual {residual:.2e})")
    return pi


def mixing_profile(chain: LiftedChain, eps: float) -> tuple[int, list[float]]:
    """Worst-row total-variation curve and the settling time below eps.

    Returns (t_mix, vcurve) where vcurve[t] = max_i ||(K^t)_i - pi||_1 and
    t_mix is the first t from which the curve stays below eps for 2n
    consecutive rounds (the monitored window; the curve is not monotone).

    Only rows 0..n-1 of K^t are carried. The state reversal J, d -> 2n-1-d,
    is the rotation by n in cycle order, which commutes with C and R, and
    ``share`` is J-invariant; so K = JKJ, K^t = J K^t J and pi = J pi, and
    row J(i) of K^t is row i reversed, at the same distance from pi. The
    cap of 2000 + 600 max(n, U) rounds allows for t_mix growing as about 5U
    when U >= n; the chain alone also takes U < n, where t_mix grows with n.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    pi = stationary(chain)
    window = chain.size
    cap = 2000 + 600 * max(chain.n, chain.big_u)
    K = chain.K
    powers = np.eye(chain.n, chain.size)
    gap = np.empty_like(powers)
    vcurve, settled = [], 0
    for t in range(cap + 1):
        np.subtract(powers, pi, out=gap)
        v = float(np.abs(gap, out=gap).sum(axis=1).max())
        vcurve.append(v)
        if not v < eps:
            settled = t + 1
        # the rounds settled..t have all stayed below eps
        if t + 1 - settled >= window:
            return settled, vcurve
        powers = powers @ K
    raise NumericError(f"mixing curve did not settle below {eps} within {cap} rounds")


def spreading_min(chain: LiftedChain) -> float:
    """Smallest entry of K^(4n): the worst-case 4n-round transition mass."""
    return float(np.min(np.linalg.matrix_power(chain.K, 4 * chain.n)))


# ----------------------------------------------------------------------
# state initialization and round updates
# ----------------------------------------------------------------------

def init_z(field: DensityField, positions) -> np.ndarray:
    """Initial mass variables: half of each agent's cell mass, mirrored.

    Cell boundaries sit at the 1-medians of adjacent agents, so agent i's
    cell holds half of each boundary-doubled gap beside it: z_i(0) = z_i'(0)
    = (d_{i-1} + d_i)/4 with d from ``mass_gaps``, summing to F(1). Initial
    positions must be distinct for the cells to be well defined; later
    coincidences created by pushing are fine because initialization runs once.
    An (R, n) stack of configurations gives the (R, 2n) variables of its rows.
    """
    x = check_positions(positions, n_min=MIN_AGENTS, rows=True)
    if x.ndim == 2:
        return np.array([init_z(field, row) for row in x])
    if np.any(np.diff(x) <= 0.0):
        raise DomainError("initial positions must be distinct for cell setup")
    total = field.total_mass
    d = mass_gaps(field.cdf(x), total)
    quarter = (d[:-1] + d[1:]) / 4.0
    z = np.concatenate([quarter, quarter])
    if abs(float(z.sum()) - total) > 1e-12 * max(1.0, total):
        raise NumericError("initial mass variables do not sum to F(1)")
    return z


def initialize_state(field: DensityField, positions, *, big_u: int | None = None,
                     variant: str = "uniformized",
                     movement_rule: str = "split") -> DynamicState:
    """Build a fresh run state; U defaults to the true agent count.

    U < n is rejected: the token visits agents 1..U only, so agents beyond
    U would never move on their own and the run could not converge. An
    (R, n) stack of starts gives a batch state of R runs, one per row.
    """
    if movement_rule not in MOVEMENT_RULES:
        raise DomainError(f"movement rule must be one of {MOVEMENT_RULES}")
    x = check_positions(positions, n_min=MIN_AGENTS, rows=True)
    n = x.shape[-1]
    big_u = n if big_u is None else big_u
    if big_u < n:
        raise DomainError(f"the round-trip estimate U = {big_u} is below n = {n}")
    chain = build_chain(n, big_u, variant)
    return DynamicState(chain=chain, z=init_z(field, x), positions=x,
                        movement_rule=movement_rule)


def chain_step(state: DynamicState) -> DynamicState:
    """Advance the mass variables one communication round: z <- z K."""
    state.z = state.chain.apply(state.z)
    state.round_index += 1
    return state


def _carried_masses(field: DensityField, state: DynamicState) -> np.ndarray:
    """The state's masses y = F(positions), mapped from the validated
    positions when they are not carried yet."""
    if state.masses is None:
        state.masses = field.cdf(check_positions(state.positions, rows=True))
    return state.masses


def token_index(t: int, big_u: int) -> int:
    """Index of the agent holding the movement token at round t >= 1."""
    return (t - 1) % big_u + 1


def movement_step(field: DensityField, state: DynamicState) -> DynamicState:
    """Move the token holder (if any) and push overtaken agents along.

    Agent j moves to c with F(c) = min(F(1), F(x_{j-1}) + M_j), where M_j
    is z_j + z_j' (pair rule) or z_{(j-1)'} + z_j (split rule, z_0' = 0).
    F(x_{j-1}) is read from the carried masses, and the moved and pushed
    agents all take y = F(c). Rounds whose token exceeds n are
    communication-only. A batch state moves agent j of every row at once.
    """
    t = state.round_index
    if t < 1:
        raise DomainError("movement starts at round 1; advance the chain first")
    n = state.n
    j = token_index(t, state.chain.big_u)
    if j > n:
        return state
    if state.positions.ndim == 2:
        return _move_rows(field, state, j)
    if state.movement_rule == "pair":
        target_mass = float(state.z[j - 1] + state.z[n + j - 1])
    else:
        left_primed = float(state.z[n + j - 2]) if j >= 2 else 0.0
        target_mass = left_primed + float(state.z[j - 1])
    x, y = state.positions, _carried_masses(field, state)
    lower, left = (float(x[j - 2]), float(y[j - 2])) if j >= 2 else (0.0, 0.0)
    c = field.inverse_cdf(min(field.total_mass, left + target_mass))
    if c < lower:
        # the target mass is >= F(x_{j-1}), so c >= x_{j-1} holds exactly in
        # real arithmetic; guard the one-ulp inversion case
        c, y_c = lower, left
    else:
        y_c = field.cdf(c)
    upper = float(x[j]) if j < n else 1.0
    if c <= upper:   # nobody overtaken: no search, no slice writes
        x[j - 1], y[j - 1] = c, y_c
    else:   # the agents overtaken by c are the ordered tail's prefix below it
        pushed = j + int(x[j:].searchsorted(c))
        x[j - 1:pushed], y[j - 1:pushed] = c, y_c
        upper = float(x[pushed]) if pushed < n else 1.0
    if not lower <= c <= upper:   # the rest of x is unchanged: all of x stays ordered
        raise NumericError(f"round {t}: agent positions left order or [0, 1]")
    return state


def _move_rows(field: DensityField, state: DynamicState, j: int) -> DynamicState:
    """movement_step for agent j of every row of a batch state: the scalar
    move's floating-point operations, row by row, with one inverse_cdf and
    one cdf call on the rows' masses. The token column takes every row's
    new position at once; only a row whose mover overtakes its right
    neighbour pushes, alone, as the scalar move does."""
    n, z = state.n, state.z
    if state.movement_rule == "pair":
        target_mass = z[:, j - 1] + z[:, n + j - 1]
    else:
        target_mass = (z[:, n + j - 2] if j >= 2 else 0.0) + z[:, j - 1]
    x, y = state.positions, _carried_masses(field, state)
    lower, left = (x[:, j - 2], y[:, j - 2]) if j >= 2 else (0.0, 0.0)
    # min(F(1), m), which a NaN m also leaves at F(1)
    c = field.inverse_cdf(np.fmin(left + target_mass, field.total_mass))
    y_c = field.cdf(c)
    if j >= 2:   # the scalar move's one-ulp guard, row by row
        guard = c < lower
        if guard.any():
            c, y_c = np.where(guard, lower, c), np.where(guard, left, y_c)
    # c >= lower by the guard, so a row stays ordered if c <= its right neighbour
    # (or 1), which NaN fails; a row that fails pushes the agents below c
    over = ~(c <= (x[:, j] if j < n else 1.0))
    x[:, j - 1], y[:, j - 1] = c, y_c
    for i in over.nonzero()[0].tolist():
        ci = float(c[i])
        if not ci <= 1.0:
            raise NumericError(f"round {state.round_index}: agent positions left order or [0, 1]")
        pushed = j + int(x[i, j:].searchsorted(ci))
        x[i, j:pushed], y[i, j:pushed] = ci, y_c[i]
    return state


def step_round(field: DensityField, state: DynamicState) -> DynamicState:
    """One full round: communication then movement."""
    chain_step(state)
    return movement_step(field, state)


# ----------------------------------------------------------------------
# agent churn
# ----------------------------------------------------------------------

def add_agent(state: DynamicState, x_new: float) -> DynamicState:
    """Insert an agent at x_new with zeroed variables (mass sum unchanged)."""
    if state.positions.ndim == 2:
        raise DomainError(f"churn acts on one run, not on a batch of {len(state.positions)} runs")
    if not 0.0 <= x_new <= 1.0:
        raise DomainError("new agent position must lie in [0, 1]")
    n = state.n
    idx = int(np.searchsorted(state.positions, x_new, side="right"))
    state.positions = np.insert(state.positions, idx, x_new)
    state.z = np.insert(state.z.reshape(2, n), idx, 0.0, axis=1).ravel()
    state.chain = build_chain(n + 1, state.chain.big_u, state.chain.variant)
    state.masses = None
    return state


def remove_agent(state: DynamicState, i: int) -> DynamicState:
    """Delete agent i (1-based); its pair mass goes to the left neighbor.

    The left neighbor can reconstruct z_i + z_i' from geometry (agent i
    sits exactly that much mass to its right after moving), so handing the
    whole amount to its unprimed variable keeps the total at F(1). Agent 1
    hands its mass to the right neighbor instead.
    """
    if state.positions.ndim == 2:
        raise DomainError(f"churn acts on one run, not on a batch of {len(state.positions)} runs")
    n = state.n
    if n <= MIN_AGENTS:
        raise DomainError(f"removal would drop the agent count below {MIN_AGENTS}")
    if not 1 <= i <= n:
        raise DomainError(f"agent index must be in 1..{n}")
    tracks = state.z.reshape(2, n)
    removed = float(tracks[0, i - 1] + tracks[1, i - 1])
    tracks = np.delete(tracks, i - 1, axis=1)
    tracks[0, i - 2 if i >= 2 else 0] += removed
    state.z = tracks.ravel()
    state.positions = np.delete(state.positions, i - 1)
    state.chain = build_chain(n - 1, state.chain.big_u, state.chain.variant)
    state.masses = None
    return state


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def simulate_dynamic(field: DensityField, state: DynamicState, stop: StopRule, *,
                     record: str = "full", sink=None) -> ExperimentTrace | TraceBatch:
    """Run rounds from the current state until the stop rule fires.

    Rows are numbered by the state's round index, kept by the policy
    ``record`` and handed to ``sink``, if given (see
    :func:`linecover.trace.run_rounds`), and also record the conserved mass
    total. ``max_rounds`` counts rounds executed by this
    call, so churn scenarios can resume a state. An unset ``persist`` is
    one token cycle of U rounds, since one agent moves per round. A batch
    state steps its rows together, under ``summary`` only, and gives a
    TraceBatch, one trace per row, each with the bits of its row's own run;
    a row that stops is dropped from the state. The positions are carried,
    so the loop maps exactly the rounds where some row's residual is at or
    below tol, besides the entry and final rounds.
    """
    if stop.persist is None:
        stop = replace(stop, persist=state.chain.big_u)

    def step(x, y):
        state.positions, state.masses = x, y
        step_round(field, state)
        return state.positions, state.masses

    return run_rounds(field, state.positions, _carried_masses(field, state), step, stop,
                      t=state.round_index, conserved=lambda: state.z,
                      keep=lambda go: setattr(state, "z", state.z[go]), record=record,
                      sink=sink)


def run_dynamic(field: DensityField, positions0, stop: StopRule, *,
                record: str = "full", sink=None, **options) -> ExperimentTrace | TraceBatch:
    """Initialize from positions0 and simulate until the stop rule fires;
    ``options`` (U, variant, movement rule) go to :func:`initialize_state`."""
    return simulate_dynamic(field, initialize_state(field, positions0, **options), stop,
                            record=record, sink=sink)
