"""Explicit space-time scheme: step operator, CFL validation, and solvers.

One backward step from level t to t - tau reads

    V(t - tau, x) = V(t, x) + tau * H(t, x, grad_h V(t, x))
                  + N * h * tau * lap_h V(t, x)

with the min-over-controls Hamiltonian H and an added grid viscosity of
strength N*h.  The constraint  max{1, |f|_sup / 2} <= N <= h / (2 tau)
makes this update monotone in V, which is what every ordering property in
this package rests on.  In d space dimensions the diagonal stencil weight
additionally needs 2*d*N*tau <= h, so the default step is tau = h/(2 d N);
for d = 1 this is the largest admissible step.

Each backward step is a pure map over grid points reading only the
previous level, so it is safe to parallelize pointwise; time
levels are strictly sequential.

A sweep steps every level with one kernel on buffers it allocates once
(``_step_kernel``); its results are bitwise those of the level-by-level
sweep that ``tests/test_scheme_sweep.py`` keeps as the reference.  An
evaluation handed the previous one steps only the levels below the highest
policy row that changed and copies the rows above, which are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CFLValidationError, ConfigurationError, NumericalBlowupError
from .grid import Grid, RowStencil
from .problem import (
    _candidate_tensors,
    _candidates,
    _checked_policies,
    _first_argmin,
    discrete_sup_norms,
    validate_f_bound,
)

_REL_SLACK = 1.0 + 1e-12  # accept the CFL equality case despite fp rounding


@dataclass(frozen=True)
class SchemeParams:
    """Spacing h, time step tau, viscosity coefficient N, horizon T.

    ``steps * tau == T`` by construction (tau is only ever adjusted
    downward so the horizon splits into a whole number of steps).  ``dim``
    is the space dimension the step bound 2 d N tau <= h is checked for.
    """

    h: float
    tau: float
    N: float
    T: float
    steps: int
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise CFLValidationError(f"need 0 < h < 1, got h={self.h}")
        if not 0.0 < self.tau < 1.0:
            raise CFLValidationError(f"need 0 < tau < 1, got tau={self.tau}")
        # N >= 1 and the step bound; the |f| side is checked by ``create``
        report = cfl_report(self.h, self.tau, self.N, 0.0, self.dim)
        if not report.ok:
            raise CFLValidationError(report.message())
        if self.steps < 1:
            raise CFLValidationError("need at least one time step")
        if abs(self.steps * self.tau - self.T) > 1e-9 * max(1.0, self.T):
            raise CFLValidationError(
                f"steps*tau={self.steps * self.tau} does not reproduce T={self.T}")

    @classmethod
    def create(cls, h, T, f_sup_bound, tau=None, N=None, dim=1):
        """Apply the default rules and hard-check the CFL constraint.

        Defaults: N = max{1, f_sup/2} (smallest admissible viscosity) and
        tau = h/(2 d N) (largest step that keeps the d-dimensional stencil
        monotone), then tau is shrunk so T/tau is a whole number.
        """
        h = float(h)
        T = float(T)
        if N is None:
            N = max(1.0, float(f_sup_bound) / 2.0)
        N = float(N)
        requested = h / (2.0 * N) / dim if tau is None else float(tau)
        report = cfl_report(h, requested, N, f_sup_bound, dim)
        if not report.ok:
            raise CFLValidationError(report.message())
        steps = max(1, int(math.ceil(T / requested - 1e-12)))
        return cls(h=h, tau=T / steps, N=N, T=T, steps=steps, dim=dim)

    def time(self, k):
        """Time of level k; level ``steps`` is exactly T."""
        if k == self.steps:
            return self.T
        return k * self.tau


@dataclass(frozen=True)
class CFLReport:
    """Outcome of checking max{1, f_sup/2} <= N <= h/(2 d tau) in d dimensions."""

    ok: bool
    lower_ok: bool
    upper_ok: bool
    N: float
    lower_bound: float
    upper_bound: float
    admissible_tau_max: float
    dim: int = 1

    def message(self):
        if self.ok:
            return "cfl ok"
        parts = []
        if not self.lower_ok:
            parts.append(f"N={self.N} < max(1, f_sup/2)={self.lower_bound}")
        if not self.upper_ok:
            bound = "h/(2 tau)" if self.dim == 1 else f"h/(2 d tau) with d={self.dim}"
            parts.append(f"N={self.N} > {bound}={self.upper_bound}")
        return "cfl violated: " + "; ".join(parts) + \
            f" (admissible tau range: (0, {self.admissible_tau_max}])"


def cfl_report(h, tau, N, f_sup_bound, dim=1):
    """Report (do not raise) on both sides of the CFL constraint for a raw triple.

    This is the one place the constraint is decided: ``SchemeParams``
    construction and the CLI's config validation both go through it.
    """
    lower = max(1.0, float(f_sup_bound) / 2.0)
    upper = h / (2.0 * dim * tau)
    lower_ok = N * _REL_SLACK >= lower
    upper_ok = N <= upper * _REL_SLACK
    return CFLReport(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        N=N,
        lower_bound=lower,
        upper_bound=upper,
        admissible_tau_max=h / (2.0 * dim * N),
        dim=dim,
    )


@dataclass(eq=False)
class SpaceTimeSolution:
    """Values at every level k*tau, plus the per-level argmin policy.

    ``values`` is one read-only, C-contiguous (steps + 1, npoints) float64
    array; row k is V at time k*tau.  ``policy_slices`` is a read-only array
    of the same shape in ``controls.index_dtype``: row k >= 1 is the first
    argmin at level k (the controls a direct solve used, the improved policy
    after an evaluation), and row 0 is -1, since no step leaves level 0.
    ``levels_swept`` is how many levels the sweep stepped: ``steps``,
    unless an evaluation copied its upper rows from a previous one.
    """

    grid: Grid
    params: SchemeParams
    values: np.ndarray
    policy_slices: np.ndarray
    q_sup: float
    c_sup: float
    levels_swept: int = None

    def values_array(self):
        return self.values

    def bound_excess(self):
        """Worst overshoot of |V(t,.)| beyond |q|_sup + |c|_sup (T - t)."""
        worst = -math.inf
        for k, row in enumerate(self.values):  # row by row: no full-size |V| temporary
            allowed = self.q_sup + self.c_sup * (self.params.T - self.params.time(k))
            worst = max(worst, float(np.max(np.abs(row))) - allowed)
        return worst


def _blowup_threshold(q_sup, c_sup, T):
    return 10.0 * (q_sup + c_sup * T + 1.0)


def _check_values(values, t, threshold):
    # one pass on success: |v| <= threshold is False for NaN and +-inf too
    if (np.abs(values) <= threshold).all():
        return
    bad = ~np.isfinite(values)
    if np.any(bad):
        point = int(np.flatnonzero(bad)[0])
        raise NumericalBlowupError(
            f"non-finite value at t={t:.6g}, linear index {point}",
            time_label=t, point=point, value=float(values[point]))
    point = int(np.flatnonzero(np.abs(values) > threshold)[0])
    raise NumericalBlowupError(
        f"value {values[point]:.6g} at t={t:.6g}, linear index {point} "
        f"exceeds the a-priori threshold {threshold:.6g}",
        time_label=t, point=point, value=float(values[point]))


def _step_kernel(problem, grid, params, tensors=None):
    """The backward step as one level kernel whose buffers are allocated once.

    ``step(t, v, out, frozen=None)`` writes the level below time t of the
    row ``v`` into ``out`` (not overlapping ``v``) and returns the first
    argmin at t, in an intp buffer the next call overwrites; after an
    evaluation it is the improved policy.  ``tensors`` are a time-invariant
    problem's candidate tensors, by default built at each t.  The update
    is ``v + tau*h + (N*h*tau)*lap`` in that order.

    h is the exact minimum over the controls.  With a ``frozen`` row of
    control indices it is the frozen control's candidate, except where
    that control is the first argmin, which may be a near tie within
    ``ARGMIN_TOL``: there h stays the exact minimum, so replaying a direct
    solve's recorded argmins reproduces it bit for bit.
    """
    n, k = grid.npoints, problem.controls.size
    coords = grid.coordinates()
    stencil = RowStencil(grid)
    grads, lap = np.empty((n, grid.dim)), np.empty(n)
    cand = np.empty((n, k))
    work = np.empty((n, k)) if grid.dim > 1 else None
    argmin = (np.empty(n), np.empty(n), np.empty((n, k), dtype=bool),
              np.empty(n, dtype=np.intp))
    base = np.arange(n) * k  # flat index of each point's first candidate
    flat, picked, moved = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=bool)
    tau, viscosity = params.tau, params.N * params.h * params.tau

    def step(t, v, out, frozen=None):
        stencil(v, grads, lap)
        at_t = _candidate_tensors(problem, t, coords) if tensors is None else tensors
        _candidates(at_t, grads, cand, work)
        h, sel = _first_argmin(cand, argmin)
        if frozen is not None:
            # moved = frozen != sel by a subtraction: numpy's integer comparison
            # loops would map 128 KiB more of its library into a run's memory
            np.subtract(frozen, sel, out=flat)
            np.copyto(moved, flat, casting="unsafe")
            np.add(base, frozen, out=flat)
            cand.take(flat, out=picked, mode="clip")  # in range; "raise" would buffer
            np.copyto(h, picked, where=moved)
        np.multiply(h, tau, out=h)
        np.add(v, h, out=out)
        np.multiply(lap, viscosity, out=lap)
        np.add(out, lap, out=out)
        return sel

    return step


def _probe_times(params, count):
    # strictly increasing: the points are at least one step apart
    ks = np.linspace(0, params.steps, min(count, params.steps + 1)).astype(int)
    return [params.time(int(k)) for k in ks]


def _checked_sup_norms(problem, grid, params):
    """Check the declared |f| bound, then return (|q|_sup, |c|_sup) on the lattice."""
    times = _probe_times(params, 1 if problem.time_invariant else 9)
    validate_f_bound(problem, grid, times)
    return discrete_sup_norms(problem, grid, times)


def _sweep(problem, grid, params, sup_norms, frozen=None, tail=None):
    """Backward recursion from the terminal cost, one level kernel call per level.

    ``frozen`` is None for the nonlinear scheme, else a checked policy
    array (row k - 1 drives the step down from level k).  The per-level
    argmins are recorded either way.  ``tail`` is None or ``(top,
    solution)``: rows top..steps of the values and rows above top of the
    argmins are copied from ``solution`` and only levels top..1 are
    stepped.  The kernel is built once per sweep that steps a level, with
    a time-invariant problem's candidate tensors, and writes each new
    level in place into its row.  The terminal cost was checked finite
    with the sup norms; every other row is checked as soon as it is
    written, so the error names the first bad level and point.  The
    arithmetic runs with numpy's overflow and invalid warnings off, so a
    blowup ends in that error alone.
    """
    q_sup, c_sup = sup_norms
    threshold = _blowup_threshold(q_sup, c_sup, params.T)
    values = np.empty((params.steps + 1, grid.npoints))
    argmins = np.empty((params.steps + 1, grid.npoints), dtype=problem.controls.index_dtype)
    argmins[0] = -1
    if tail is None:
        top = params.steps
        values[top] = np.asarray(problem.terminal_cost(grid.coordinates()), dtype=float)
    else:
        top, earlier = tail
        values[top:] = earlier.values[top:]
        argmins[top + 1:] = earlier.policy_slices[top + 1:]
    if top:
        tensors = (_candidate_tensors(problem, params.T, grid.coordinates())
                   if problem.time_invariant else None)
        step = _step_kernel(problem, grid, params, tensors)
        magnitude = np.empty(grid.npoints)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(top, 0, -1):
                argmins[k] = step(params.time(k), values[k], values[k - 1],
                                  None if frozen is None else frozen[k - 1])
                # the max of |v| is NaN if any v is: one comparison covers both checks
                if not np.abs(values[k - 1], out=magnitude).max() <= threshold:
                    _check_values(values[k - 1], params.time(k - 1), threshold)
    values.setflags(write=False)
    argmins.setflags(write=False)
    return SpaceTimeSolution(grid=grid, params=params, values=values, policy_slices=argmins,
                             q_sup=q_sup, c_sup=c_sup, levels_swept=top)


def solve_hjb_direct(problem, grid, params):
    """Backward recursion of the nonlinear scheme; the policy-iteration fixed point.

    Also records the pointwise argmin control at every level it steps from.
    """
    return _sweep(problem, grid, params, _checked_sup_norms(problem, grid, params))


def evaluate_policy(problem, grid, params, policies, *, sup_norms=None, previous=None):
    """Backward recursion with a frozen policy (the linear half of PI).

    ``policies`` is a (steps, npoints) integer array; row k - 1 drives the
    step down from level k.  Where the policy's control is the level's own
    first argmin the step takes the exact minimum over the controls, so
    the policy is evaluated against candidates moved by less than
    ARGMIN_TOL, and a direct solve's ``policy_slices[1:]`` replay it
    bitwise.  The result's ``policy_slices`` are the improved policy.
    ``sup_norms`` is the ``(q_sup, c_sup)`` of an earlier solve of the
    same problem on the same grid and horizon; passing it skips the |f|
    check and the sampling.

    ``previous`` is ``(policies, solution)`` of an earlier evaluation of
    the same problem, grid and params.  A level depends only on t, the
    level above and its frozen row, so if the frozen rows top..steps-1
    equal the earlier ones, rows top..steps are the earlier solution's:
    they are copied, and only levels top..1 are stepped, bitwise as the
    full sweep would.  A ``previous`` of another grid, params or policy
    shape is a ``ConfigurationError``.
    """
    policies = _checked_policies(problem, grid, params.steps, policies)
    if sup_norms is None:
        sup_norms = _checked_sup_norms(problem, grid, params)
    tail = None if previous is None else _unchanged_tail(grid, params, policies, *previous)
    return _sweep(problem, grid, params, sup_norms, frozen=policies, tail=tail)


def _unchanged_tail(grid, params, policies, earlier, solution):
    """``(top, solution)`` for ``_sweep``, with top the lowest such level.

    Rows are compared as bytes from the top down: numpy's integer
    comparison loops would map 128 KiB more of its library into a run.
    """
    if repr(solution.grid) != repr(grid):  # a Grid's repr is its defining fields
        raise ConfigurationError(
            f"previous solution is on another grid: {solution.grid}, not {grid}")
    if solution.params != params:
        raise ConfigurationError(
            f"previous solution has other params: {solution.params}, not {params}")
    earlier = np.asarray(earlier)
    if earlier.shape != policies.shape:
        raise ConfigurationError(
            f"previous policy has shape {earlier.shape}, not {policies.shape}")
    earlier = earlier.astype(policies.dtype, copy=False)
    top = params.steps
    while top and policies[top - 1].tobytes() == earlier[top - 1].tobytes():
        top -= 1
    return top, solution
