"""Control problems, the pointwise-min Hamiltonian, and policy maps.

Callbacks follow one convention throughout: ``dynamics(t, x, a)`` and
``running_cost(t, x, a)`` receive a scalar time ``t``, an array of states
``x`` with shape ``(..., d)``, and a single control vector ``a`` of shape
``(m,)``.  ``dynamics`` returns an array (or scalar) broadcastable to
``x.shape``, ``running_cost`` one broadcastable to ``x.shape[:-1]``.
``terminal_cost(x)`` takes the same ``x`` convention.

``ControlProblem.time_invariant`` (default False) promises that
``dynamics`` and ``running_cost`` ignore ``t``.  A sweep then builds the
(n, k) running-cost and (n, k, d) drift tensors once and reuses them at
every level, the sup-norm and |f| checks probe one time instead of nine,
and the argmin-of-c start takes one argmin for all levels.  Nothing checks
the promise: a problem flagged True whose callbacks do read ``t`` silently
gets the values at one time everywhere, i.e. wrong answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, TruncatedRolloutError
from .grid import gradient_central_field

ARGMIN_TOL = 1e-12  # tie tolerance: first control within this of the minimum wins


@dataclass(frozen=True, eq=False)
class ControlSet:
    """Finite ordered list of control vectors; order is fixed for a run."""

    elements: np.ndarray

    def __post_init__(self):
        elems = np.atleast_1d(np.array(self.elements, dtype=float))
        if elems.ndim == 1:
            elems = elems[:, None]
        if elems.size == 0:
            raise ConfigurationError("control set must be non-empty")
        if not np.all(np.isfinite(elems)):
            raise ConfigurationError("control set elements must be finite")
        if len(np.unique(elems, axis=0)) != len(elems):
            raise ConfigurationError("control set elements must be distinct")
        elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    @classmethod
    def uniform(cls, lo, hi, count):
        """Uniform sample of the interval [lo, hi] (scalar controls)."""
        if count < 1:
            raise ConfigurationError("control sample count must be >= 1")
        if count == 1:
            return cls(np.array([(lo + hi) / 2.0]))
        return cls(np.linspace(float(lo), float(hi), int(count)))

    @classmethod
    def singleton(cls, value):
        return cls(np.atleast_1d(np.asarray(value, dtype=float))[None, :])

    @property
    def size(self):
        return self.elements.shape[0]

    @property
    def control_dim(self):
        return self.elements.shape[1]

    @property
    def index_dtype(self):
        """Policy-array dtype: the smallest signed integer type holding -size."""
        return np.min_scalar_type(-self.size)


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Dynamics, running and terminal costs, and a finite control set.

    ``f_sup_bound`` is a user-declared bound on |dynamics| (Euclidean norm),
    used for the CFL/monotonicity constraint; it is checked by sampling on a
    refined probe grid before a solve starts.  ``time_invariant`` declares
    that ``dynamics`` and ``running_cost`` do not depend on ``t`` (see the
    module docstring); it is not checked.
    """

    dynamics: Callable
    running_cost: Callable
    terminal_cost: Callable
    controls: ControlSet
    f_sup_bound: float
    time_invariant: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.f_sup_bound) and self.f_sup_bound >= 0.0):
            raise ConfigurationError("f_sup_bound must be a finite non-negative real")
        object.__setattr__(self, "f_sup_bound", float(self.f_sup_bound))


def _shaped(raw, shape):
    """A callback result as a float array that broadcasts against ``shape``.

    Results already of ``shape`` and scalars are returned as they are: the
    arithmetic broadcasts them to the same values.  Anything else goes
    through ``np.broadcast_to``, which rejects results that do not fit.
    """
    arr = np.asarray(raw, dtype=float)
    return arr if arr.shape == shape or arr.ndim == 0 else np.broadcast_to(arr, shape)


def _running_costs(problem, t, points):
    """Running cost of every control at every point, (n, k)."""
    n = points.shape[0]
    costs = np.empty((n, problem.controls.size))
    for j, a in enumerate(problem.controls.elements):
        costs[:, j] = _shaped(problem.running_cost(t, points, a), (n,))
    return costs


def _candidate_tensors(problem, t, points):
    """(costs, drifts): the (n, k) running costs and (n, k, d) drifts at time t.

    For a time-invariant problem one build serves every time level.
    """
    drifts = np.empty((points.shape[0], problem.controls.size, points.shape[1]))
    for j, a in enumerate(problem.controls.elements):
        drifts[:, j] = _shaped(problem.dynamics(t, points, a), points.shape)
    return _running_costs(problem, t, points), drifts


def _candidates(tensors, grads):
    """Cost-plus-advection value of every control at every point, (n, k)."""
    costs, drifts = tensors
    return costs + np.sum(grads[:, None, :] * drifts, axis=-1)


def _first_argmin(cand):
    vmin = cand.min(axis=1)
    sel = (cand <= vmin[:, None] + ARGMIN_TOL).argmax(axis=1)
    return vmin, sel


def hamiltonian_field(problem, t, points, grads):
    """Vectorized min-over-controls Hamiltonian.

    Returns the minimum of c(t,x,a) + p . f(t,x,a) over the control list and
    the first attaining index (within an absolute tie tolerance of 1e-12),
    for each row of ``points``/``grads``.
    """
    return _first_argmin(_candidates(_candidate_tensors(problem, t, points), grads))


def improve_policy(problem, value, t):
    """Pointwise argmin control indices from the central-difference gradient of ``value``."""
    grads = gradient_central_field(value)
    _, sel = hamiltonian_field(problem, t, value.grid.coordinates(), grads)
    return sel.astype(problem.controls.index_dtype)


def _checked_policies(problem, grid, steps, policies):
    """``policies`` as an array; a configuration error unless it is a (steps,
    npoints) integer table of control indices (row k - 1 for level k)."""
    policies = np.asarray(policies)
    if policies.shape != (steps, grid.npoints):
        raise ConfigurationError(
            f"need a ({steps}, {grid.npoints}) policy array, one row per level tau..T, "
            f"got shape {policies.shape}")
    if not np.issubdtype(policies.dtype, np.integer):
        raise ConfigurationError(f"policy entries must be integers, got dtype {policies.dtype}")
    if policies.min() < 0 or policies.max() >= problem.controls.size:
        raise ConfigurationError("policy index out of range of the control set")
    return policies


def rollout_cost(problem, grid, params, policies, start, dt):
    """Forward-Euler cost of following a (steps, npoints) policy array.

    Row k - 1 holds the controls of level k (time t = k*tau), which act on
    [t - tau, t).  Controls are looked up at the nearest grid point; leaving
    the grid on a clamped axis raises TruncatedRolloutError.
    """
    policies = _checked_policies(problem, grid, params.steps, policies)
    tau, horizon = params.tau, params.T
    t0, x0 = start
    t0 = float(t0)
    if dt > tau + 1e-12:
        raise ConfigurationError(f"rollout step dt={dt} exceeds the scheme step tau={tau}")

    def scalar(raw):
        return float(np.broadcast_to(np.asarray(raw, dtype=float), (1,))[0])

    if t0 > horizon - 1e-12:
        x_t = np.asarray(x0, dtype=float).reshape(1, grid.dim)
        return scalar(problem.terminal_cost(x_t))

    x = np.asarray(x0, dtype=float).reshape(grid.dim)
    nsub = int(np.ceil((horizon - t0) / dt - 1e-12))
    step = (horizon - t0) / nsub
    cost = 0.0
    for j in range(nsub):
        s = t0 + j * step
        level = min(len(policies) - 1, int(np.floor(s / tau + 1e-9)))
        point = grid.nearest_index(x, on_exit=None)
        if point is None:
            raise TruncatedRolloutError(
                f"rollout left the clamped grid at t={s:.6g}, x={x}")
        a = problem.controls.elements[policies[level, point]]
        cost += step * scalar(problem.running_cost(s, x[None, :], a))
        drift = np.broadcast_to(
            np.asarray(problem.dynamics(s, x[None, :], a), dtype=float), (1, grid.dim))
        x = x + step * drift[0]
    cost += scalar(problem.terminal_cost(x[None, :]))
    return cost


def probe_grid_coordinates(grid, refine=3):
    """Coordinates of a ``refine``-times finer lattice over the same box."""
    axes = []
    for axis in range(grid.dim):
        n = grid.points_per_axis[axis]
        count = refine * n if grid.periodic[axis] else refine * (n - 1) + 1
        axes.append(grid.origin[axis] + np.arange(count) * (grid.spacing / refine))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _finite_sup(values, callback, where=""):
    """max |values|, raising ``ConfigurationError`` naming ``callback`` on NaN or inf.

    ``np.max`` propagates NaN, so one check of the maximum covers every sample.
    """
    sup = float(np.max(np.abs(values)))
    if not math.isfinite(sup):
        raise ConfigurationError(f"{callback} returned a non-finite value{where}")
    return sup


def validate_f_bound(problem, grid, times, refine=3):
    """Check the declared |f| bound by sampling on a refined probe grid."""
    points = probe_grid_coordinates(grid, refine)
    worst = 0.0
    for t in times:
        for j, a in enumerate(problem.controls.elements):
            f = np.broadcast_to(np.asarray(problem.dynamics(t, points, a), dtype=float),
                                points.shape)
            norms = np.sqrt(np.sum(f * f, axis=-1))
            where = f" for control {j} at t={t:.6g}"
            worst = max(worst, _finite_sup(norms, "dynamics", where))
    if worst > problem.f_sup_bound * (1.0 + 1e-9) + 1e-300:
        raise ConfigurationError(
            f"declared f_sup_bound={problem.f_sup_bound} but sampled |f| reaches {worst}")
    return worst


def discrete_sup_norms(problem, grid, times):
    """Sup of |q| on the lattice and of |c| over (times, lattice, controls).

    A non-finite sample of either is a configuration error, so the sweeps
    that start from these norms never see a non-finite terminal cost.
    """
    points = grid.coordinates()
    q_sup = _finite_sup(np.broadcast_to(
        np.asarray(problem.terminal_cost(points), dtype=float), (points.shape[0],)),
        "terminal_cost")
    c_sup = 0.0
    for t in times:
        for j, a in enumerate(problem.controls.elements):
            c = np.broadcast_to(np.asarray(problem.running_cost(t, points, a), dtype=float),
                                (points.shape[0],))
            where = f" for control {j} at t={t:.6g}"
            c_sup = max(c_sup, _finite_sup(c, "running_cost", where))
    return q_sup, c_sup
