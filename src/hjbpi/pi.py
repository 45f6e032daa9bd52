"""Policy iteration on the discrete scheme and its convergence diagnostics.

The driver alternates policy evaluation (the frozen-control linear
recursion) with pointwise policy improvement, tracks the distance of every
iterate to the direct nonlinear solve, and enforces the two ordering facts
the monotone scheme guarantees: iterates decrease pointwise, and they stay
above the fixed point.  A rise above the previous iterate, or a dip below
the fixed point at any grid point, by more than ``MONOTONE_ABORT`` means a
scheme bug or a CFL breach and aborts the run with ``MonotonicityError``.

Improvement costs no extra work: each evaluation level already computes
every control's candidate, and their argmin, recorded on the evaluated
solution, is the next policy (Howard's algorithm).  The |f| check and the
sup norms run once, in the direct solve, and are handed to every
evaluation.  Each evaluation after the first is handed the previous one
and steps only the levels below the highest policy row that changed
(``PIRun.levels_swept``); after evaluation n the rows from steps - n up
equal the direct solve, so the run ends in finitely many steps, as
Howard's algorithm does (``notes/decisions.md``).

The run bookkeeping (distance to the fixed point, both ordering checks,
stop rule) lives in one private tracker shared with the Legendre-linearized
iteration in ``legendre``; each driver adds only its own diagnostics.  A
run keeps its per-iteration scalars and its last iterate, not the others.
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
    """How to start and when to stop."""

    initial_policy: Union[str, np.ndarray] = "argmin-of-c"
    max_iterations: int = 100
    stop_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if not self.stop_tolerance > 0.0:
            raise ConfigurationError("stop_tolerance must be positive")


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

    params: SchemeParams
    fixed_point: SpaceTimeSolution
    last_iterate: SpaceTimeSolution      # the final evaluation
    errors_to_fixed_point: np.ndarray    # sup over measured region, all levels
    errors_l2: np.ndarray                # unweighted l2 over measured region at t=0
    policy_l2: np.ndarray                # max over levels of l2 control distance
    levels_swept: np.ndarray             # levels each evaluation stepped
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
    """Max over levels of the l2 distance between control vectors, folded over
    blocks of levels (``grid.row_blocks``).  ``take`` keeps a block C-contiguous,
    as a boolean mask would not, so a level's squares are one row summed bitwise
    as the level alone; the square root, being monotone, commutes with the max."""
    elements = problem.controls.elements
    points = np.flatnonzero(mask)
    width = points.size * elements.shape[1]
    worst = 0.0
    for rows in row_blocks(len(policies), width):
        diff = elements[policies[rows].take(points, axis=1)]
        diff -= elements[fixed_policies[rows].take(points, axis=1)]
        diff *= diff
        squares = np.ascontiguousarray(diff).reshape(len(diff), width)
        worst = max(worst, float(np.sqrt(np.max(squares.sum(axis=1)))))
    return worst


class _IterationTracker:
    """Bookkeeping of one policy-iteration run, whichever driver produces it.

    ``region`` selects the points the sup distance to the fixed point is
    measured over, ``l2_level`` the level of the l2 distance, and the
    ``PIConfig`` ``stop`` the stop rule.  ``record`` books one iterate
    (values of shape (levels, points)) and says whether the run stops
    after it; it holds those values until the next ``record`` and keeps
    only scalars of the iterates before.  It folds the sup distance, the
    fixed-point excess (how far the iterate dips below the fixed point at
    any point), the rise, the violation count and the settle test over
    blocks of rows (``grid.row_blocks``), so no (levels, points) temporary
    exists.  An excess or a rise above ``MONOTONE_ABORT`` raises
    ``MonotonicityError``.
    """

    def __init__(self, fixed_values, region, l2_level, stop):
        self.fixed_values = fixed_values
        self.region = region
        self.l2_level = l2_level
        self.stop = stop
        self.errors, self.errors_l2, self.mono_worst, self.excess = [], [], [], []
        self.violation_count = 0
        self.worst_violation = 0.0
        self.stop_reason = "max_iterations"
        self.prev_values = None

    def record(self, n, values):
        blocks = row_blocks(len(values), values.shape[1])
        region, fixed = self.region, self.fixed_values
        sup, lowest = [], []
        for rows in blocks:
            diff = values[rows] - fixed[rows]
            lowest.append(np.min(diff))
            diff = diff[:, region]
            sup.append(np.max(np.abs(diff, out=diff)))
        # np.max over the block maxima propagates a NaN as a whole-array max does
        self.errors.append(float(np.max(sup)))
        # -min(values - fixed) is max(fixed - values) bitwise: negation is exact
        self.excess.append(max(0.0, -float(np.min(lowest))))
        diff = values[self.l2_level][region] - fixed[self.l2_level][region]
        self.errors_l2.append(float(np.sqrt(np.sum(diff ** 2))))
        if self.excess[-1] > MONOTONE_ABORT:
            raise MonotonicityError(
                f"iterate {n} fell {self.excess[-1]:.3e} below the fixed point "
                f"(tolerance {MONOTONE_ABORT:.0e}); scheme bug or CFL breach")

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
            settled = float(np.max(moves)) < self.stop.stop_tolerance
        if settled:
            self.stop_reason = "tolerance"
        self.prev_values = values
        return settled or n == self.stop.max_iterations - 1

    def fields(self):
        """The run-record fields both PIRun and GeneralizedPIRun carry."""
        return dict(
            errors_to_fixed_point=np.array(self.errors),
            errors_l2=np.array(self.errors_l2),
            monotonicity_worst=np.array(self.mono_worst),
            monotonicity_violation_count=self.violation_count,
            worst_monotonicity=self.worst_violation,
            iterations_used=len(self.errors),
            stop_reason=self.stop_reason,
        )


def measured_region(grid, problem, T):
    """Mask of the points at distance >= f_sup_bound * T from clamped boundaries,
    where PI and the studies measure; a ``ConfigurationError`` when it is empty."""
    mask = grid.interior_mask(problem.f_sup_bound * T)
    if not np.any(mask):
        raise ConfigurationError("measured region is empty; enlarge the box or shrink T")
    return mask


def run_policy_iteration(problem, grid, params, config=None):
    """Alternate evaluation and improvement until the iterates stop moving.

    Stops on the sup-distance between successive iterates (never on the
    distance to the fixed point, which is recorded for diagnostics only).
    """
    config = config or PIConfig()
    fixed = solve_hjb_direct(problem, grid, params)
    sup_norms = (fixed.q_sup, fixed.c_sup)
    mask = measured_region(grid, problem, params.T)

    policies = config.initial_policy
    if isinstance(policies, str):
        policies = build_initial_policies(problem, grid, params, policies)

    tracker = _IterationTracker(fixed.values, mask, 0, config)
    policy_l2, levels_swept, previous = [], [], None
    for n in range(config.max_iterations):
        sol = evaluate_policy(problem, grid, params, policies, sup_norms=sup_norms,
                              previous=previous)
        levels_swept.append(sol.levels_swept)
        policy_l2.append(_policy_l2_distance(problem, policies, fixed.policy_slices[1:], mask))
        if tracker.record(n, sol.values):
            break
        # the tracker holds sol.values until the next record: no extra iterate
        previous = (policies, sol)
        policies = sol.policy_slices[1:]

    return PIRun(
        params=params,
        fixed_point=fixed,
        last_iterate=sol,
        policy_l2=np.array(policy_l2),
        levels_swept=np.array(levels_swept),
        fixed_point_excess=np.array(tracker.excess),
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
