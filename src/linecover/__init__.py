"""Coverage-control simulation toolkit for mobile agents on a nonuniform 1-D field."""

from .density import (
    DensityField,
    PRESETS,
    check_positions,
    coverage,
    density_from_dict,
    load_density,
    optimal_configuration,
    quadratic_density,
    resolve_density,
    uniform_density,
)
from .errors import DomainError, LinecoverError, NumericError, ParseError
from .harness import (
    ConvergenceTime,
    SweepRow,
    SweepTable,
    convergence_time,
    initial_positions,
    loglog_fit,
    optimality_residual,
    run_one,
    static_round_budget,
    stop_rule,
    sweep,
)
from .lifted_chain import (
    DynamicState,
    LiftedChain,
    add_agent,
    build_chain,
    chain_step,
    init_z,
    initialize_state,
    mixing_profile,
    movement_step,
    remove_agent,
    run_dynamic,
    simulate_dynamic,
    spreading_min,
    stationarity_residual,
    stationary,
    step_round,
    token_index,
)
from .rng import StreamRng, derive_key
from .spectral import TridiagonalSystem, build_system, predict_limit, spectrum
from .static_law import gap_vector, run_static, static_step
from .trace import ExperimentTrace, StopRule, TraceRow

__version__ = "0.1.0"
