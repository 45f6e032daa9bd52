"""Monotone finite-difference solvers and policy iteration for optimal control."""

from .benchmarks import BENCHMARK_NAMES, Benchmark, get_benchmark, lq_feedback_policies
from .errors import (
    CFLValidationError,
    ConfigParseError,
    ConfigurationError,
    HJBPIError,
    MonotonicityError,
    NumericalBlowupError,
    TruncatedRolloutError,
    UnsupportedDimensionError,
)
from .grid import Grid
from .pi import (
    GeometricFit,
    PIConfig,
    PIRun,
    build_initial_policies,
    fit_geometric_rate,
    run_policy_iteration,
)
from .problem import (
    ControlProblem,
    ControlSet,
    discrete_sup_norms,
    hamiltonian_field,
    improve_policy,
    rollout_cost,
    validate_f_bound,
)
from .scheme import (
    CFLReport,
    SchemeParams,
    SpaceTimeSolution,
    cfl_report,
    evaluate_policy,
    solve_hjb_direct,
)

__version__ = "0.1.0"
