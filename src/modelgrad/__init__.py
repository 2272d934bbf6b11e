"""Adaptive gradient-type methods driven by inexact model information.

The package implements three related solvers around a common oracle
contract (a first-order model with known slack levels): an adaptive
method for convex composite problems with an averaged output and an a
posteriori accuracy certificate, a restarted variant for objectives
whose subgradient jumps are bounded, and a gradient-descent variant for
gradient-dominated objectives with noise-aware step sizes.  Problem
families, an experiment harness, and a CLI sit on top.
"""

import types as _types

from .core import (
    CertificateUnavailableError,
    DimensionMismatchError,
    Evaluation,
    FeasibleSet,
    FunctionOracle,
    InconsistentTraceError,
    ModelOracle,
    NonFiniteOracleError,
    NonFiniteTrialPointError,
    NonTerminationError,
    UnsupportedCombinationError,
    as_vector,
    project_ball,
)
from .convex import (
    ConvexConfig,
    ConvexTrace,
    certificate_bound,
    convex_minimize,
    inner_call_budget,
    model_step,
)
from .nonsmooth import (
    STOP_DELTA_TERM,
    STOP_SMOOTH,
    NonsmoothConfig,
    RestartRecord,
    complexity_estimate,
    nonsmooth_minimize,
    p_bound,
)
from .pl import (
    TERM_COMPLETED,
    TERM_FLOOR,
    PLConfig,
    PLDichotomyReport,
    PLTrace,
    SmallGradientError,
    pl_dichotomy_check,
    pl_inexact_floor,
    pl_minimize,
    pl_rate_bound,
    pl_rate_bound_nonadaptive,
    pl_step_size,
)
from .problems import (
    BallSumProblem,
    CompositeOracle,
    L1Penalty,
    MinMaxBallProblem,
    NoisyOracle,
    PLQuadratic,
    composite_oracle,
    generate_task1,
    generate_task2,
    pl_quadratic_make,
)
from .harness import (
    SOLVERS,
    TASKS,
    ConfigError,
    ExperimentSpec,
    ResultTable,
    compare_adaptive_nonadaptive,
    default_solver,
    finite_diff_check,
    parse_config,
    parse_grid,
    run_experiment,
    run_single,
    write_config,
    write_csv,
)

__version__ = "0.1.0"

# every name imported above, and the version
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
] + ["__version__"]
