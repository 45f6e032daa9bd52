"""Policy iteration on the discrete scheme and its convergence diagnostics.

The driver alternates policy evaluation (the frozen-control linear
recursion) with pointwise policy improvement, tracks the distance of every
iterate to the direct nonlinear solve, and enforces the two ordering facts
the monotone scheme guarantees: iterates decrease pointwise, and they stay
above the fixed point.  Violations beyond rounding noise indicate a scheme
bug or a CFL breach and abort the run.

Improvement costs no extra work: each evaluation level already computes
every control's candidate, and their argmin, recorded on the evaluated
solution, is the next policy (Howard's algorithm).  The |f| check and the
sup norms run once, in the direct solve, and are handed to every
evaluation.

The run bookkeeping (distance to the fixed point, monotone-decrease check,
stop rule, iterate thinning) lives in one private tracker shared with the
Legendre-linearized iteration in ``legendre``; each driver adds only its
own diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, MonotonicityError
from .grid import row_blocks
from .problem import _first_argmin, _running_costs
from .scheme import SchemeParams, SpaceTimeSolution, evaluate_policy, solve_hjb_direct

MONOTONE_SLACK = 1e-10   # accepted pointwise increase (rounding noise)
MONOTONE_ABORT = 1e-8    # beyond this the run is broken, not noisy
FIT_MIN_ENTRIES = 4      # post-burn-in errors a geometric rate fit needs

INITIAL_POLICY_RULES = ("first-control", "argmin-of-c")


@dataclass(frozen=True)
class PIConfig:
    """How to start, when to stop, and how much to keep."""

    initial_policy: Union[str, np.ndarray] = "argmin-of-c"
    max_iterations: int = 100
    stop_tolerance: float = 1e-10
    record_every: int = 10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if not self.stop_tolerance > 0.0:
            raise ConfigurationError("stop_tolerance must be positive")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")


@dataclass(frozen=True)
class GeometricFit:
    """Least-squares geometric decay rate of an error sequence."""

    rho: float
    r_squared: float
    floored: bool      # sequence hit the numerical floor; fit used the prefix
    n_used: int


@dataclass(eq=False)
class PIRun:
    """Everything a policy-iteration run produced."""

    config: PIConfig
    params: SchemeParams
    fixed_point: SpaceTimeSolution
    iterates: list                       # (iteration, SpaceTimeSolution), thinned
    errors_to_fixed_point: np.ndarray    # sup over measured region, all levels
    errors_l2: np.ndarray                # unweighted l2 over measured region at t=0
    policy_l2: np.ndarray                # max over levels of l2 control distance
    monotonicity_worst: np.ndarray       # per iteration, vs the previous iterate
    fixed_point_excess: np.ndarray       # worst amount an iterate dips below V
    monotonicity_violation_count: int
    worst_monotonicity: float
    iterations_used: int
    stop_reason: str
    measured_mask: np.ndarray


def build_initial_policies(problem, grid, params, rule):
    """Named starting rules; both ignore the value function entirely.

    A (steps, npoints) array; one row for all levels is a ``broadcast_to`` view.
    """
    shape = (params.steps, grid.npoints)
    dtype = problem.controls.index_dtype
    if rule == "first-control":
        return np.broadcast_to(np.zeros(grid.npoints, dtype=dtype), shape)
    if rule == "argmin-of-c":
        coords = grid.coordinates()
        if problem.time_invariant:
            sel = _first_argmin(_running_costs(problem, params.T, coords))[1]
            return np.broadcast_to(sel.astype(dtype), shape)
        return np.array([_first_argmin(_running_costs(problem, params.time(k), coords))[1]
                         for k in range(1, params.steps + 1)], dtype=dtype)
    raise ConfigurationError(
        f"unknown initial policy rule {rule!r}; known rules: {INITIAL_POLICY_RULES}")


def _policy_l2_distance(problem, policies, fixed_policies, mask):
    """Max over levels of the l2 distance between control vectors."""
    elements = problem.controls.elements
    worst = 0.0
    for pol, ref in zip(policies, fixed_policies):  # row by row: no full-size temporary
        diff = elements[pol[mask]] - elements[ref[mask]]
        worst = max(worst, float(np.sqrt(np.sum(diff * diff))))
    return worst


def _max_difference(a, b):
    """``float(np.max(a - b))`` of two (levels, points) arrays, a block of
    rows at a time (``grid.row_blocks``); a NaN propagates as in the
    whole-array max."""
    return float(np.max([np.max(a[rows] - b[rows]) for rows in row_blocks(len(a), a.shape[1])]))


class _IterationTracker:
    """Bookkeeping of one policy-iteration run, whichever driver produces it.

    ``region`` selects the points the sup distance to the fixed point is
    measured over, ``l2_level`` the level of the l2 distance.  ``record``
    books one iterate (values of shape (levels, points)) and says whether
    the run stops after it.  It folds the sup distance, the rise, the
    violation count and the settle test over blocks of rows
    (``grid.row_blocks``), so no (levels, points) temporary exists.
    """

    def __init__(self, fixed_values, region, l2_level, max_iterations, stop_tolerance,
                 record_every):
        self.fixed_values = fixed_values
        self.region = region
        self.l2_level = l2_level
        self.max_iterations = max_iterations
        self.stop_tolerance = stop_tolerance
        self.record_every = record_every
        self.errors, self.errors_l2, self.mono_worst = [], [], []
        self.iterates = []
        self.violation_count = 0
        self.worst_violation = 0.0
        self.stop_reason = "max_iterations"
        self.prev_values = None

    def record(self, n, values, iterate):
        blocks = row_blocks(len(values), values.shape[1])
        region, fixed = self.region, self.fixed_values
        sup = []
        for rows in blocks:
            diff = values[rows][:, region] - fixed[rows][:, region]
            sup.append(np.max(np.abs(diff, out=diff)))
        # np.max over the block maxima propagates a NaN as a whole-array max does
        self.errors.append(float(np.max(sup)))
        diff = values[self.l2_level][region] - fixed[self.l2_level][region]
        self.errors_l2.append(float(np.sqrt(np.sum(diff ** 2))))

        settled = False
        if self.prev_values is None:
            self.mono_worst.append(0.0)
        else:
            rises, moves = [], []
            for rows in blocks:
                step = values[rows] - self.prev_values[rows]
                rises.append(np.max(step))
                self.violation_count += int(np.count_nonzero(step > MONOTONE_SLACK))
                moves.append(np.max(np.abs(step, out=step)))
            increase = float(np.max(rises))
            self.mono_worst.append(max(0.0, increase))
            self.worst_violation = max(self.worst_violation, self.mono_worst[-1])
            if increase > MONOTONE_ABORT:
                raise MonotonicityError(
                    f"iterate {n} rose {increase:.3e} above its predecessor "
                    f"(tolerance {MONOTONE_ABORT:.0e}); scheme bug or CFL breach")
            settled = float(np.max(moves)) < self.stop_tolerance
        if settled:
            self.stop_reason = "tolerance"
        done = settled or n == self.max_iterations - 1
        if n % self.record_every == 0 or done:
            self.iterates.append((n, iterate))
        self.prev_values = values
        return done

    def fields(self):
        """The run-record fields both PIRun and GeneralizedPIRun carry."""
        return dict(
            iterates=self.iterates,
            errors_to_fixed_point=np.array(self.errors),
            errors_l2=np.array(self.errors_l2),
            monotonicity_worst=np.array(self.mono_worst),
            monotonicity_violation_count=self.violation_count,
            worst_monotonicity=self.worst_violation,
            iterations_used=len(self.errors),
            stop_reason=self.stop_reason,
        )


def run_policy_iteration(problem, grid, params, config=None):
    """Alternate evaluation and improvement until the iterates stop moving.

    Stops on the sup-distance between successive iterates (never on the
    distance to the fixed point, which is recorded for diagnostics only).
    """
    config = config or PIConfig()
    fixed = solve_hjb_direct(problem, grid, params)
    sup_norms = (fixed.q_sup, fixed.c_sup)
    fixed_values = fixed.values
    mask = grid.interior_mask(problem.f_sup_bound * params.T)
    if not np.any(mask):
        raise ConfigurationError("measured region is empty; enlarge the box or shrink T")

    policies = config.initial_policy
    if isinstance(policies, str):
        policies = build_initial_policies(problem, grid, params, policies)

    tracker = _IterationTracker(fixed_values, mask, 0, config.max_iterations,
                                config.stop_tolerance, config.record_every)
    policy_l2, fp_excess = [], []
    for n in range(config.max_iterations):
        sol = evaluate_policy(problem, grid, params, policies, sup_norms=sup_norms)
        policy_l2.append(_policy_l2_distance(problem, policies, fixed.policy_slices[1:], mask))
        fp_excess.append(max(0.0, _max_difference(fixed_values, sol.values)))
        if tracker.record(n, sol.values, sol):
            break
        policies = sol.policy_slices[1:]

    return PIRun(
        config=config,
        params=params,
        fixed_point=fixed,
        policy_l2=np.array(policy_l2),
        fixed_point_excess=np.array(fp_excess),
        measured_mask=mask,
        **tracker.fields(),
    )


def fit_geometric_rate(errors, burn_in=0):
    """Fit log e_n against n; report the per-iteration ratio rho = exp(slope).

    Entries at or below the numerical floor (100 eps times the sequence
    scale) end the usable prefix; the fit then runs on what precedes them
    and is flagged as floored.
    """
    errors = np.asarray(errors, dtype=float)
    if len(errors) - burn_in < FIT_MIN_ENTRIES:
        raise ValueError(f"need at least {FIT_MIN_ENTRIES} post-burn-in entries to fit a rate")
    scale = float(np.max(errors)) if len(errors) else 0.0
    floor = 100.0 * np.finfo(float).eps * scale
    below = np.flatnonzero(errors <= floor)
    cut = int(below[0]) if len(below) else len(errors)
    floored = cut < len(errors)
    tail = errors[burn_in:cut]
    if len(tail) < 2:
        return GeometricFit(rho=math.nan, r_squared=math.nan, floored=True, n_used=len(tail))
    slope, _, r_squared = _linear_fit(np.arange(len(tail), dtype=float), np.log(tail))
    return GeometricFit(rho=float(np.exp(slope)), r_squared=r_squared,
                        floored=floored, n_used=len(tail))


def _linear_fit(x, y):
    """Least-squares line y ~ slope x + intercept: (slope, intercept, R^2).

    R^2 is 1.0 when y is constant and the line fits it exactly.
    """
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return slope, intercept, 1.0 if ss_tot == 0.0 and ss_res < 1e-20 else 1.0 - ss_res / ss_tot
