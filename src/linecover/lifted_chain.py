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

Both edge sets are permutations of the 2n states: every state has exactly
one continuing and one switching in-edge (the switching edges at 1' and n
are self-loops, where the mirrored jump lands on the node itself). The
chain is therefore stored as those two in-edge permutations, and a round
z K is one gather and a two-term weighted sum, O(n), instead of a dense
2n x 2n product. Rows sum to one and the support is irreducible (the
continuing edges alone form the 2n-cycle) by construction.

Two variants are provided:

* ``uniformized``: every node continues with 1 - 1/U and switches with
  1/U. Its stationary vector is exactly uniform, so the mass pair sums
  agents read off in the limit reproduce the balanced optimal
  configuration.
* ``figure2``: the same chain made lazy by 1/2 at the 2n - 4 interior
  nodes (self-loop 1/2, continuing 1/2 (1 - 1/U), switching 1/(2U));
  the boundary nodes 1, 1', n, n' are as in ``uniformized``. Its
  stationary vector puts half as much mass on the four boundary states as
  on each interior state.

Movement is token-passing: at round t agent j = ((t-1) mod U) + 1 (if
j <= n) moves so that the mass between its left neighbor and itself equals
its current mass target, and drags along any agent it overtakes. The
target is z_j + z_j' under the ``pair`` rule and z_{(j-1)'} + z_j under the
``split`` rule; only the latter has the optimal configuration as its fixed
point under the uniformized chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .density import DensityField, check_positions, gap_vector
from .errors import DomainError, NumericError
from .trace import ExperimentTrace, StopRule, run_rounds

VARIANTS = ("figure2", "uniformized")
MOVEMENT_RULES = ("pair", "split")

_STATIONARY_TOL = 1e-12   # l1 residual allowed for the closed-form pi


@dataclass(frozen=True)
class LiftedChain:
    """Immutable 2n-state chain: parameters and the two in-edge permutations.

    State d receives its continuing edge from ``sources[0, d]`` and its
    switching edge from ``sources[1, d]``; states 0..n-1 are the unprimed
    agents 1..n and states n..2n-1 the primed ones. ``figure2`` uses the
    same edges made lazy at the interior states.
    """

    n: int
    big_u: int
    variant: str
    sources: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.n

    @cached_property
    def rates(self) -> np.ndarray:
        """Continuing and switching probabilities, 1 - 1/U and 1/U."""
        switch = 1.0 / self.big_u
        return np.array([1.0 - switch, switch])

    def apply(self, z: np.ndarray) -> np.ndarray:
        """z K along the last axis of z, in O(n) per row."""
        if self.variant == "uniformized":
            return np.dot(self.rates, z.take(self.sources, axis=-1))
        # figure2: only the moving share m leaves a state; interior states
        # keep half their mass, the four boundary states none
        m = 0.5 * z
        ends = [0, self.n - 1, self.n, 2 * self.n - 1]
        m[..., ends] = z[..., ends]
        return np.dot(self.rates, m.take(self.sources, axis=-1)) + (z - m)

    @property
    def K(self) -> np.ndarray:
        """Dense transition matrix, built on demand (O(n^2) memory)."""
        return self.apply(np.eye(self.size))


@dataclass
class DynamicState:
    """Mutable per-run state: chain, mass variables, positions, round.

    ``masses`` carries the agents' y = F(positions) from round to round;
    None means not mapped yet. Code that changes ``positions`` outside a
    round, as churn does, resets it to None.
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
    def zsum(self) -> float:
        return float(np.sum(self.z))


# ----------------------------------------------------------------------
# chain construction and diagnostics
# ----------------------------------------------------------------------

def build_chain(n: int, big_u: int, variant: str = "uniformized") -> LiftedChain:
    """Build the 2n-state chain for n agents and round-trip estimate U."""
    if n < 3:
        raise DomainError("the dynamic law needs at least 3 agents")
    if big_u < 3:
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
    """Stationary probability vector, in closed form.

    Uniform for ``uniformized``; for ``figure2`` the boundary states 1, n,
    1' and n' carry half the mass of each interior state. The closed form
    is verified against the balance equations pi K = pi.
    """
    n = chain.n
    pi = np.ones(chain.size)
    if chain.variant == "figure2":
        pi[[0, n - 1, n, 2 * n - 1]] = 0.5
    pi /= pi.sum()
    residual = stationarity_residual(chain, pi)
    if residual > _STATIONARY_TOL:
        raise NumericError(f"stationary vector fails pi K = pi (residual {residual:.2e})")
    return pi


def mixing_profile(chain: LiftedChain, eps: float) -> tuple[int, list[float]]:
    """Worst-row total-variation curve and the settling time below eps.

    Returns (t_mix, vcurve) where vcurve[t] = max_i ||(K^t)_i - pi||_1 and
    t_mix is the first t from which the curve stays below eps for 2n
    consecutive rounds (the monitored window; the curve is not monotone).
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    pi = stationary(chain)
    window = chain.size
    cap = 2000 + 600 * chain.n
    K = chain.K
    powers = np.eye(chain.size)
    vcurve = [float(np.max(np.abs(powers - pi).sum(axis=1)))]
    streak_start, streak = 0, (1 if vcurve[0] < eps else 0)
    for t in range(1, cap + 1):
        powers = powers @ K
        v = float(np.max(np.abs(powers - pi).sum(axis=1)))
        vcurve.append(v)
        if v < eps:
            if streak == 0:
                streak_start = t
            streak += 1
            if streak >= window:
                return streak_start, vcurve
        else:
            streak = 0
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
    = (d_{i-1} + d_i)/4 with d from ``gap_vector``, summing to F(1). Initial
    positions must be distinct for the cells to be well defined; later
    coincidences created by pushing are fine because initialization runs once.
    """
    x = check_positions(positions, n_min=3)
    if np.any(np.diff(x) <= 0.0):
        raise DomainError("initial positions must be distinct for cell setup")
    d = gap_vector(field, x)
    quarter = (d[:-1] + d[1:]) / 4.0
    z = np.concatenate([quarter, quarter])
    total = field.total_mass
    if abs(float(z.sum()) - total) > 1e-12 * max(1.0, total):
        raise NumericError("initial mass variables do not sum to F(1)")
    return z


def initialize_state(field: DensityField, positions, *, big_u: int | None = None,
                     variant: str = "uniformized",
                     movement_rule: str = "split") -> DynamicState:
    """Build a fresh run state; U defaults to the true agent count.

    U < n is rejected: the token visits agents 1..U only, so agents beyond
    U would never move on their own and the run could not converge.
    """
    if movement_rule not in MOVEMENT_RULES:
        raise DomainError(f"movement rule must be one of {MOVEMENT_RULES}")
    x = check_positions(positions, n_min=3)
    n = x.size
    big_u = n if big_u is None else big_u
    if big_u < n:
        raise DomainError(f"the round-trip estimate U = {big_u} is below n = {n}")
    chain = build_chain(n, big_u, variant)
    return DynamicState(chain=chain, z=init_z(field, x), positions=x.copy(),
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
        state.masses = field.cdf(check_positions(state.positions))
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
    communication-only.
    """
    t = state.round_index
    if t < 1:
        raise DomainError("movement starts at round 1; advance the chain first")
    n = state.n
    j = token_index(t, state.chain.big_u)
    if j > n:
        return state
    if state.movement_rule == "pair":
        target_mass = float(state.z[j - 1] + state.z[n + j - 1])
    else:
        left_primed = float(state.z[n + j - 2]) if j >= 2 else 0.0
        target_mass = left_primed + float(state.z[j - 1])
    x, y = state.positions, _carried_masses(field, state)
    left = float(y[j - 2]) if j >= 2 else 0.0
    c = field._inverse_scalar(min(field.total_mass, left + target_mass))
    if j >= 2 and c < x[j - 2]:
        # the target mass is >= F(x_{j-1}), so c >= x_{j-1} holds exactly in
        # real arithmetic; guard the one-ulp inversion case
        c, y_c = float(x[j - 2]), left
    else:
        y_c = field._cdf_scalar(c)
    # the agents overtaken by c are the ordered tail's prefix below it
    pushed = j + int(np.searchsorted(x[j:], c))
    x[j - 1:pushed] = c
    y[j - 1:pushed] = y_c
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
    n = state.n
    if n < 4:
        raise DomainError("removal would drop the agent count below 3")
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

def simulate_dynamic(field: DensityField, state: DynamicState,
                     stop: StopRule) -> ExperimentTrace:
    """Run rounds from the current state until the stop rule fires.

    Rows are numbered by the state's round index and also record the
    conserved mass total. ``max_rounds`` counts rounds executed by this
    call, so churn scenarios can resume a state. An unset ``persist`` is
    one token cycle of U rounds, since one agent moves per round.
    """
    if stop.persist is None:
        stop = replace(stop, persist=state.chain.big_u)

    def step(x, y):
        step_round(field, state)
        return state.positions, state.masses

    return run_rounds(field, state.positions, _carried_masses(field, state), step, stop,
                      t=state.round_index, zsum=lambda: state.zsum)


def run_dynamic(field: DensityField, positions0, stop: StopRule,
                **options) -> ExperimentTrace:
    """Initialize from positions0 and simulate until the stop rule fires;
    ``options`` (U, variant, movement rule) go to :func:`initialize_state`."""
    return simulate_dynamic(field, initialize_state(field, positions0, **options), stop)
