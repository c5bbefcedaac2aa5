"""Performative probabilistic prediction under proper scoring rules.

Tools for studying experts whose published predictions change the
distribution they predict: performative optima and their inaccuracy,
fixed points of the belief-response map, accuracy bounds and scoring-rule
design against them, and the learning dynamics (repeated risk
minimization, frozen-belief gradient ascent, online SGD, no-regret play,
prediction markets) that steer reports back to fixed points.
"""

from .bounds import (
    BoundReport,
    StakeProfile,
    design_exponential_rule,
    fixed_point_distance_bound,
    inaccuracy_bound,
    log_binary_bound,
    stake_profile,
    stake_ratio_lower_bound,
)
from .environment import (
    EnvironmentMap,
    FixedPointConfig,
    FixedPointSet,
    affine_binary,
    bank_run,
    find_fixed_points,
    linear,
    parse_environment,
    ramp_binary,
    random_linear,
    shrink_to,
    tabulated,
)
from .errors import (
    DomainError,
    InvalidArgumentError,
    IterationLimitError,
    PerfscoreError,
    SolveTimeoutError,
)
from .games import (
    MarketEquilibrium,
    MarketGame,
    RegretSeries,
    honest_report_argmax,
    is_oracle_game_equilibrium,
    is_performatively_stable,
    market_equilibrium,
    market_power_bound_check,
    rank_fixed_points,
    regret_series,
)
from .harness import (
    CounterexampleReport,
    ExperimentRecord,
    ExperimentSummary,
    MaxCurveRow,
    RampDemoReport,
    SummaryStats,
    binary_sweep,
    counterexample_demo,
    emit,
    many_outcome_experiment,
    max_curves,
    ramp_distance_demo,
    summarize_records,
)
from .scoring import (
    ProprietyReport,
    ScoringRule,
    check_propriety,
    exponential_binary_rule,
    logarithmic_rule,
    parse_rule,
    quadratic_rule,
)
from .simplex import (
    SimplexPoint,
    TangentVector,
    binary_point,
    l2_distance,
    logit_distance,
    project_to_simplex,
    project_to_shrunk_simplex,
    sample_simplex_points,
    tangent_min_eigenvalue,
    tangent_operator_norm,
    tangent_project,
    uniform_point,
    vertex,
)
from .solvers import (
    OnlineTrace,
    SolveConfig,
    SolveResult,
    constant_policy_trace,
    grid_optimum_binary,
    inverse_schedule,
    online_sgd,
    performative_gradient,
    performative_optimum,
    quadratic_linear_exact_optimum,
    repeated_gradient_ascent,
    repeated_risk_minimization,
    rga_policy_trace,
    stop_gradient,
)

__version__ = "0.1.0"
