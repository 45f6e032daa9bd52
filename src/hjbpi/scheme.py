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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CFLValidationError, ConfigurationError, NumericalBlowupError
from .grid import Field, Grid, gradient_central_values, laplacian_values
from .problem import (
    PolicyField,
    _candidate_tensors,
    _candidates,
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

    def times(self):
        return np.array([self.time(k) for k in range(self.steps + 1)])


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
    """Values at every level k*tau, plus the per-level argmin policies.

    ``values`` is one read-only, C-contiguous (steps + 1, npoints) float64
    array; row k is V at time k*tau.  ``policy_slices[0]`` is always None
    (no step leaves level 0), levels 1..steps hold the control choices used
    when stepping down from that level.  ``argmin_slices`` has the same
    layout and holds the first argmin of the candidates at each level: the
    greedy policy for these values, equal to ``policy_slices`` for a direct
    solve.
    """

    grid: Grid
    params: SchemeParams
    values: np.ndarray
    policy_slices: list
    q_sup: float
    c_sup: float
    argmin_slices: list = None

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
    ok = np.isfinite(values) if threshold is None else np.abs(values) <= threshold
    if ok.all():
        return
    bad = ~np.isfinite(values)
    if np.any(bad):
        point = int(np.flatnonzero(bad)[0])
        raise NumericalBlowupError(
            f"non-finite value at t={t:.6g}, linear index {point}",
            time_label=t, point=point, value=float(values[point]))
    if threshold is not None:
        over = np.abs(values) > threshold
        if np.any(over):
            point = int(np.flatnonzero(over)[0])
            raise NumericalBlowupError(
                f"value {values[point]:.6g} at t={t:.6g}, linear index {point} "
                f"exceeds the a-priori threshold {threshold:.6g}",
                time_label=t, point=point, value=float(values[point]))


def _step(problem, params, grid, t, values, frozen=None, tensors=None):
    """One backward step on raw arrays: (new values, first-argmin indices).

    The Hamiltonian term is the min over controls, or with ``frozen`` the
    candidate of the frozen control index at each point.  The argmin is
    returned either way: after an evaluation it is the improved policy.
    ``tensors`` are the candidate tensors of a time-invariant problem; by
    default they are built at time t.
    """
    grads = gradient_central_values(grid, values)
    lap = laplacian_values(grid, values)
    if tensors is None:
        tensors = _candidate_tensors(problem, t, grid.coordinates())
    cand = _candidates(tensors, grads)
    hmin, sel = _first_argmin(cand)
    if frozen is not None:
        hmin = np.take_along_axis(cand, frozen[:, None], axis=1)[:, 0]
    new = values + params.tau * hmin + params.N * params.h * params.tau * lap
    return new, sel


def apply_step_operator(problem, params, t, U):
    """The monotone explicit step: field at time t -> field at time t - tau."""
    if t < params.tau - 1e-12:
        raise ConfigurationError(f"cannot step below time zero from t={t}")
    new, _ = _step(problem, params, U.grid, t, U.values)
    _check_values(new, t - params.tau, threshold=None)
    return Field(grid=U.grid, values=new, time_label=t - params.tau)


def _probe_times(params, count):
    ks = np.unique(np.linspace(0, params.steps, min(count, params.steps + 1)).astype(int))
    return [params.time(int(k)) for k in ks]


def _checked_sup_norms(problem, grid, params):
    """Check the declared |f| bound, then return (|q|_sup, |c|_sup) on the lattice."""
    times = _probe_times(params, 1 if problem.time_invariant else 9)
    validate_f_bound(problem, grid, times)
    return discrete_sup_norms(problem, grid, times)


def _sweep(problem, grid, params, sup_norms, frozen=None):
    """Backward recursion from the terminal cost, one ``_step`` per level.

    ``frozen`` is None for the nonlinear scheme, else the stored policy list
    (entry k drives the step down from level k).  The per-level argmins are
    recorded either way.  A time-invariant problem's candidate tensors are
    built once, here, and serve every level.  The terminal cost was checked
    finite with the sup norms; every other row is checked before it is
    written.
    """
    q_sup, c_sup = sup_norms
    threshold = _blowup_threshold(q_sup, c_sup, params.T)
    values = np.empty((params.steps + 1, grid.npoints))
    argmins = [None] * (params.steps + 1)
    values[params.steps] = np.asarray(problem.terminal_cost(grid.coordinates()), dtype=float)
    tensors = (_candidate_tensors(problem, params.T, grid.coordinates())
               if problem.time_invariant else None)
    for k in range(params.steps, 0, -1):
        t = params.time(k)
        new, sel = _step(problem, params, grid, t, values[k],
                         None if frozen is None else frozen[k].choices, tensors)
        _check_values(new, params.time(k - 1), threshold)
        argmins[k] = PolicyField(grid=grid, time_label=t, choices=sel,
                                 n_controls=problem.controls.size)
        values[k - 1] = new
    values.setflags(write=False)
    return SpaceTimeSolution(grid=grid, params=params, values=values,
                             policy_slices=argmins if frozen is None else frozen,
                             q_sup=q_sup, c_sup=c_sup, argmin_slices=argmins)


def solve_hjb_direct(problem, grid, params):
    """Backward recursion of the nonlinear scheme; the policy-iteration fixed point.

    Also records the pointwise argmin control at every level it steps from.
    """
    return _sweep(problem, grid, params, _checked_sup_norms(problem, grid, params))


def evaluate_policy(problem, grid, params, policies, *, sup_norms=None):
    """Backward recursion with a frozen policy (the linear half of PI).

    ``policies`` holds one PolicyField per level tau..T in ascending order.
    The candidate costs are evaluated exactly as in the direct solve, so
    feeding the recorded argmin policies back in reproduces it, and the
    solution's ``argmin_slices`` are the improved policy.  ``sup_norms`` is
    the ``(q_sup, c_sup)`` of an earlier solve of the same problem on the
    same grid and horizon; passing it skips the |f| check and the sampling.
    """
    if len(policies) != params.steps:
        raise ConfigurationError(
            f"need one policy per level tau..T ({params.steps}), got {len(policies)}")
    for k, pol in enumerate(policies, start=1):
        if abs(pol.time_label - params.time(k)) > 1e-9:
            raise ConfigurationError(
                f"policy level {k} labeled t={pol.time_label}, expected {params.time(k)}")
    if sup_norms is None:
        sup_norms = _checked_sup_norms(problem, grid, params)
    return _sweep(problem, grid, params, sup_norms, frozen=[None] + list(policies))
