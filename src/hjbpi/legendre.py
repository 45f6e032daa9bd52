"""Generalized policy iteration for convex Hamiltonians via Legendre duality.

Here the Hamiltonian is handed over directly instead of arising from a
control set.  Before iterating, the Hamiltonian is clipped outside the
gradient range the solution can reach: beyond twice the solution's
Lipschitz bound it continues with a fixed slope ``m2``, which caps
|grad_p H| at m2 = 2N and makes the explicit scheme monotone with
viscosity coefficient N = m2/2.  ``legendre_scheme`` probes the clip in
the grid's dimension, at its points and at one time (a time-invariant H)
or nine times over [0, T]; ``generalized_pi`` runs on the pair it returns.

Everything runs forward in time from initial data q.  One forward sweep
v(t + tau) = v + tau * (term + N*h*lap v) serves both the direct run
(term = -H~(grad v)) and each linearized run (term = dual - b . grad v);
the gradients a sweep takes are the next iteration's linearization point.
A linearized run freezes its coefficients for a block of levels per
Hamiltonian call: ``LINEARIZE_BLOCK`` levels for a time-invariant H, one
level otherwise.  The run bookkeeping is the tracker shared with ``pi``.
A time-reversal adapter (`reverse_time_slices`) maps these runs onto the
backward control formulation for cross-checks.

A level is one fused kernel on preallocated rows: one neighbor gather per
axis serves the gradient and the Laplacian (``grid.RowStencil``), and the
update is written in place.  New rows are checked against the a-priori
threshold before any callback could see them: every level in the direct
run, which calls H per level, and once per frozen block in a linearized
run.  The check raises the error a check of every level would, from its
first bad row, and the arithmetic in between runs with numpy's overflow
and invalid warnings off.  Where every |p| of a call lies in the ball
|p| <= 2M, the clipped Hamiltonian returns H and grad_p H without the
three-branch formula, which there gives the same values.  Every result
is bitwise that of a level-by-level sweep with the three-branch formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .grid import RowStencil, _row_dot, gradient_central_values, row_blocks
from .pi import PIConfig, _IterationTracker
from .problem import _finite_sup
from .scheme import SchemeParams, _blowup_threshold, _check_values

GRAD_FD_STEP = 1e-5   # relative central-difference step for grad_p fallback
LEGENDRE_POINTS = 41  # probe points per axis and stage in the numeric transform
LINEARIZE_BLOCK = 16  # levels per Hamiltonian call when H is time-invariant
CONVEXITY_PROBES = 64  # random p pairs per probe point in the convexity spot check
CAP_PROBES = 256      # random p per probe point in the gradient cap check
SPHERE_POINTS = 64    # p per sphere when probing m1 and m2 in 2 or more dimensions
SPHERE_SEED = 0       # seed of those p from 3 dimensions up
P_PROBE_RADIUS = 5.0  # p range of the numeric transform of an unclipped H


@dataclass(frozen=True, eq=False)
class ConvexHamiltonian:
    """A Hamiltonian H(t, x, p), convex in p.

    ``func`` receives ``x`` and ``p`` of shape (..., d), d the dimension of
    the run's grid, and returns shape (...).  Optional analytic helpers avoid
    numeric fallbacks: ``grad_p`` with the same convention returning (..., d),
    and ``legendre_L(t, x, mu)`` for the convex dual.  The iteration passes
    ``p`` and ``mu`` with a leading axis over a block of time levels and
    ``x`` broadcast to their shape.  The clip is probed at the run's grid
    points, ``x`` of shape (points, 1, d) against ``p`` of shape (probes, d),
    and at one time (time-invariant H) or nine times over [0, T].

    ``time_invariant`` (default False) promises that the callbacks ignore
    ``t``, like ``ControlProblem.time_invariant``: the iteration then
    evaluates them for ``LINEARIZE_BLOCK`` levels at a time, at the block's
    first time.  Nothing checks the promise.
    """

    func: Callable
    grad_p: Optional[Callable] = None
    legendre_L: Optional[Callable] = None
    time_invariant: bool = False

    def value(self, t, x, p):
        return np.asarray(self.func(t, x, p), dtype=float)

    def gradient(self, t, x, p):
        if self.grad_p is not None:
            return np.asarray(self.grad_p(t, x, p), dtype=float)
        return _fd_gradient(self.func, t, x, p)

    def spot_check_convexity(self, probes, scale):
        """Midpoint convexity at ``probes`` for random p in [-scale, scale]^d, or raise."""
        rng = np.random.default_rng(0)
        dim = probes[0][1].shape[-1]  # d: the last axis of the probe points
        p1, p2 = rng.uniform(-scale, scale, size=(2, CONVEXITY_PROBES, dim))
        for t, x in probes:
            mid = self.value(t, x, 0.5 * (p1 + p2))
            avg = 0.5 * (self.value(t, x, p1) + self.value(t, x, p2))
            gap = float(np.max(mid - avg))
            if gap > 1e-9:
                raise ConfigurationError(
                    f"Hamiltonian fails midpoint convexity by {gap:.3e} at t={t}")


def _fd_gradient(func, t, x, p):
    p = np.asarray(p, dtype=float)
    out = np.empty(np.broadcast_shapes(np.shape(x)[:-1], p.shape[:-1]) + p.shape[-1:])
    step = GRAD_FD_STEP * (1.0 + np.sqrt(np.sum(p * p, axis=-1, keepdims=True)))
    for i in range(p.shape[-1]):
        dp = np.zeros_like(p)
        dp[..., i] = step[..., 0]
        hi = np.asarray(func(t, x, p + dp), dtype=float)
        lo = np.asarray(func(t, x, p - dp), dtype=float)
        out[..., i] = (hi - lo) / (2.0 * step[..., 0])
    return out


@dataclass(frozen=True, eq=False)
class ModifiedHamiltonian:
    """Three-branch clipping of a convex Hamiltonian outside |p| <= 2M.

    m1 is the probed minimum of H on |p| = 2M; m2 >= 2 the probed growth
    slope on |p| = 3M.  The clipped function keeps H where the solution's
    gradients live and grows linearly with slope m2 far out, so
    |grad_p H~| <= m2 = 2N.
    """

    base: ConvexHamiltonian
    M: float
    m1: float
    m2: float

    @property
    def N(self):
        return self.m2 / 2.0

    def value(self, t, x, p):
        p = np.asarray(p, dtype=float)
        norm = np.sqrt(np.sum(p * p, axis=-1))
        inner = np.asarray(self.base.func(t, x, p), dtype=float)
        if _inside_ball(norm, self.M):
            return _fresh(inner, norm.shape)
        linear = self.m1 + self.m2 * (norm - 2.0 * self.M)
        out = np.where(norm <= 2.0 * self.M, inner,
                       np.where(norm <= 3.0 * self.M, np.maximum(inner, linear), linear))
        return out

    def gradient(self, t, x, p):
        p = np.asarray(p, dtype=float)
        norm = np.sqrt(np.sum(p * p, axis=-1, keepdims=True))
        if _inside_ball(norm, self.M):
            return _fresh(self.base.gradient(t, x, p), p.shape)
        # grad_p H where H~ = H, the radial slope elsewhere; the branch
        # values are dropped at once to keep a block's temporaries few
        inner = (norm <= 2.0 * self.M) | ((norm <= 3.0 * self.M) & (
            np.asarray(self.base.func(t, x, p), dtype=float)[..., None]
            >= self.m1 + self.m2 * (norm - 2.0 * self.M)))
        radial = self.m2 * p / np.where(norm > 0.0, norm, 1.0)
        return np.where(inner, self.base.gradient(t, x, p), radial)


def _inside_ball(norm, M):
    """Whether every |p| is at most 2M, where H~ is H itself; False for a NaN."""
    return norm.max(initial=0.0) <= 2.0 * M


def _fresh(inner, shape):
    """``inner`` broadcast to ``shape`` as a new array, as ``np.where`` would
    return it: never a view of ``p`` or of anything the callback keeps."""
    if inner.shape != shape:
        shape = np.broadcast_shapes(inner.shape, shape)
    out = np.empty(shape)
    out[...] = inner
    return out


def _sphere_points(dim, radius):
    if dim == 1:
        return np.array([[-radius], [radius]])
    if dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, SPHERE_POINTS, endpoint=False)
        return radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    rng = np.random.default_rng(SPHERE_SEED)
    v = rng.normal(size=(SPHERE_POINTS, dim))
    return radius * v / np.linalg.norm(v, axis=-1, keepdims=True)


def _probes(H, grid, T):
    """(t, x) to probe the clip at: t = 0 for a time-invariant H (as in
    ``scheme._checked_sup_norms``), else nine times over [0, T]; x the grid's
    points in (points, 1, d) blocks, so a callback returns about ``BLOCK_ELEMENTS``."""
    times = (0.0,) if H.time_invariant else np.linspace(0.0, T, 9).tolist()
    x = grid.coordinates()[:, None, :]
    return [(t, x[rows]) for t in times
            for rows in row_blocks(grid.npoints, CAP_PROBES * grid.dim)]


def modify_hamiltonian(H, M, grid, T):
    """Probe m1 and m2 and build the clipped Hamiltonian of a run on ``grid`` to ``T``.

    Also spot-checks convexity of the base and the gradient cap
    |grad_p H~| <= m2 on the probe set.
    """
    if not (math.isfinite(M) and M > 0.0):
        raise ConfigurationError(f"Lipschitz bound M must be finite and > 0, got {M!r}")
    probes = _probes(H, grid, T)
    H.spot_check_convexity(probes, max(3.0 * M, 1.0))

    sphere2 = _sphere_points(grid.dim, 2.0 * M)
    sphere3 = _sphere_points(grid.dim, 3.0 * M)
    m1 = float(np.min([np.min(H.value(t, x, sphere2)) for t, x in probes]))
    m2_probe = float(np.max([np.max((H.value(t, x, sphere3) - m1) / M) for t, x in probes]))
    if not (math.isfinite(m1) and math.isfinite(m2_probe)):
        raise ConfigurationError(
            f"probed m1={m1}, m2={m2_probe} are not finite for M={M!r}")
    mod = ModifiedHamiltonian(base=H, M=float(M), m1=m1, m2=max(2.0, m2_probe))

    p = np.random.default_rng(1).uniform(-4.0 * M, 4.0 * M, size=(CAP_PROBES, grid.dim))
    for t, x in probes:
        g = mod.gradient(t, x, p)
        worst = float(np.max(np.sqrt(np.sum(g * g, axis=-1))))
        if worst > mod.m2 * (1.0 + 1e-6):
            raise ConfigurationError(
                f"clipped Hamiltonian gradient reaches {worst:.4g} > m2={mod.m2:.4g}")
    return mod


def legendre_resolution(H):
    """p-resolution of the refined stage of the numeric transform."""
    coarse = 2.0 * _probe_radius(H) / (LEGENDRE_POINTS - 1)
    return 2.0 * coarse / (LEGENDRE_POINTS - 1)


def _probe_radius(H):
    if isinstance(H, ModifiedHamiltonian):
        return 3.0 * H.M + 2.0
    return P_PROBE_RADIUS


def legendre_transform_numeric(H, t, x, mu):
    """sup_p [p . mu - H(t, x, p)] by a coarse-then-refined grid scan.

    For a clipped Hamiltonian the dual is finite only for |mu| <= m2 = 2N;
    values outside that range are a domain error.  For a raw Hamiltonian
    the scan is capped at its probe radius, so slopes beyond it saturate.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = mu.size
    if isinstance(H, ModifiedHamiltonian):
        norm = float(np.sqrt(np.sum(mu * mu)))
        if norm > H.m2 * (1.0 + 1e-9):
            raise ConfigurationError(
                f"|mu|={norm:.4g} outside the admissible range (2N={H.m2:.4g})")
    evaluate = H.value
    radius = _probe_radius(H)

    def scan(center, r):
        axes = [center[i] + np.linspace(-r, r, LEGENDRE_POINTS) for i in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        scores = pts @ mu - evaluate(t, x[None, :], pts)
        k = int(np.argmax(scores))
        return float(scores[k]), pts[k]

    best, arg = scan(np.zeros(dim), radius)
    coarse_step = 2.0 * radius / (LEGENDRE_POINTS - 1)
    refined, _ = scan(arg, coarse_step)
    return max(best, refined)


@dataclass(eq=False)
class GeneralizedPIRun:
    """Mirror of a control-formulation PIRun for the forward convex iteration."""

    params: SchemeParams
    fixed_point: np.ndarray               # (steps + 1, npoints), levels 0..steps forward
    last_iterate: np.ndarray              # the final linearized run, same layout
    errors_to_fixed_point: np.ndarray
    errors_l2: np.ndarray                 # at the far end t = T
    advection_l2: np.ndarray              # l2 distance of grad_p H~ to the fixed point's
    gradient_sup: np.ndarray              # max |grad_h v_n| per iteration
    monotonicity_worst: np.ndarray
    monotonicity_violation_count: int
    worst_monotonicity: float
    iterations_used: int
    stop_reason: str
    # p-step legendre_transform_numeric would scan on this clip, 0.0 with an
    # analytic dual; the run never calls it (the dual is the Fenchel equality)
    legendre_resolution: float


def _check_rows(values, lo, hi, params, threshold):
    """Raise for the first of rows lo..hi-1 that ``_check_values`` rejects.

    The error is the one a check of each level as it is stepped raises:
    the first bad level, and in it the first bad point.
    """
    ok = np.abs(values[lo:hi]) <= threshold  # False for NaN and +-inf too
    if not ok.all():
        first = lo + int(np.argmin(ok.all(axis=1)))
        _check_values(values[first], params.time(first), threshold)


def _forward_sweep(grid, params, q_values, threshold, gradients, term, freeze=None,
                   block=1):
    """Step v(t + tau) = v + tau * (term + N*h*lap v) forward from v(0) = q.

    Returns the read-only (steps + 1, npoints) array of the run; row k is
    level k.  The levels run in blocks of ``block``: ``freeze(lo, hi)``,
    when given, runs first for the block of levels lo..hi-1, then
    ``term(k, grads, out)`` writes the Hamiltonian term of each level k
    into ``out`` given the central gradient of the row being stepped.
    Row k of the (steps, npoints, dim) array ``gradients`` is replaced by
    that gradient once level k is stepped, so ``freeze`` can still read
    the previous run's rows.

    A block's new rows are checked against ``threshold`` once it is
    stepped, before the next ``freeze`` or the caller sees them; the error
    is the one a check after every level would raise.  The arithmetic in
    between, callbacks included, runs with numpy's overflow and invalid
    warnings off, so a blowup ends in that error alone.
    """
    values = np.empty((params.steps + 1, grid.npoints))
    values[0] = q_values
    stencil = RowStencil(grid)
    lap, update = np.empty(grid.npoints), np.empty(grid.npoints)
    viscosity = params.N * params.h
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, params.steps, block):
            hi = min(lo + block, params.steps)
            if freeze is not None:
                freeze(lo, hi)
            for k in range(lo, hi):
                grads = gradients[k]
                stencil(values[k], grads, lap)
                term(k, grads, update)
                np.multiply(lap, viscosity, out=lap)
                np.add(update, lap, out=update)
                np.multiply(update, params.tau, out=update)
                np.add(values[k], update, out=values[k + 1])
            _check_rows(values, lo + 1, hi + 1, params, threshold)
    values.setflags(write=False)
    return values


def reverse_time_slices(solution):
    """A backward solution (or its values array) reindexed as a forward run
    (t -> T - t): the row-reversed view ``values[::-1]``."""
    return getattr(solution, "values", solution)[::-1]


def legendre_scheme(H, M, grid, T, tau=None):
    """The clipped Hamiltonian and the scheme parameters its iteration runs with.

    The viscosity is N = m2/2, which the clipping makes admissible; this is
    the one place that decides it, for the run and for config validation.
    Raises ``CFLValidationError`` when an explicit ``tau`` is too large.
    """
    mod = modify_hamiltonian(H, M, grid, T)
    return mod, SchemeParams.create(grid.spacing, T, f_sup_bound=mod.m2, tau=tau,
                                    N=mod.N, dim=grid.dim)


def generalized_pi(clipped, q, grid, params, v0=None, max_iterations=60,
                   stop_tolerance=1e-10):
    """Iterate the linearized forward equation against frozen coefficients.

    ``clipped, params`` is the pair ``legendre_scheme`` returns for ``grid``:
    the run reads H from ``clipped.base`` and steps with ``params``.  Each
    iterate freezes the advection field grad_p H~ and the dual values at the
    previous iterate's gradients, then solves the resulting linear equation
    forward from v(0) = q.  At the linearization point the dual is
    evaluated through the Fenchel equality p . grad_p H~(p) - H~(p) (or the
    analytic dual when provided), which keeps the monotone-decrease
    property sharp instead of noisy at the numeric-transform resolution.
    The stop rule's two numbers are checked as ``PIConfig`` checks them.
    """
    stop = PIConfig(max_iterations=max_iterations, stop_tolerance=stop_tolerance)
    coords = grid.coordinates()
    q_values = np.broadcast_to(np.asarray(q(coords), dtype=float), (grid.npoints,))
    h0 = float(np.max([np.max(np.abs(clipped.value(t, x, np.zeros_like(x))))
                       for t, x in _probes(clipped.base, grid, params.T)]))
    threshold = _blowup_threshold(_finite_sup(q_values, "terminal cost q"), h0, params.T)

    # gradients[k]: central gradient of the previous iterate at level k,
    # where the next linearization freezes its coefficients
    gradients = np.empty((params.steps, grid.npoints, grid.dim))
    if v0 is None:
        gradients[:] = gradient_central_values(grid, q_values)
    else:
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (params.steps + 1, grid.npoints):
            raise ConfigurationError(
                f"v0 must have shape {(params.steps + 1, grid.npoints)}, got {v0.shape}")
        for k in range(params.steps):
            gradients[k] = gradient_central_values(grid, v0[k])

    block = LINEARIZE_BLOCK if clipped.base.time_invariant else 1

    def direct_term(k, grads, out):
        np.negative(clipped.value(params.time(k), coords, grads), out=out)

    # the direct run's gradients become the fixed point's advection field;
    # it calls H at every level, so every row is checked before H sees it
    fixed_advection = np.empty_like(gradients)
    fixed = _forward_sweep(grid, params, q_values, threshold, fixed_advection, direct_term)
    for k in range(0, params.steps, block):
        p = fixed_advection[k:k + block]
        p[:] = clipped.gradient(params.time(k), np.broadcast_to(coords, p.shape), p)

    analytic_dual = clipped.base.legendre_L is not None
    resolution = 0.0 if analytic_dual else legendre_resolution(clipped)
    level_grad_sup = np.zeros(params.steps)
    level_adv_l2 = np.zeros(params.steps)
    b = dual = None
    work = np.empty(grid.npoints)

    def freeze(lo, hi):
        # a block's coefficients are all frozen before the sweep overwrites
        # its rows of ``gradients``
        nonlocal b, dual
        t = params.time(lo)
        p_prev = gradients[lo:hi]
        x = np.broadcast_to(coords, p_prev.shape)
        level_grad_sup[lo:hi] = np.max(np.abs(p_prev), axis=(1, 2))
        b = clipped.gradient(t, x, p_prev)
        bdiff = b - fixed_advection[lo:hi]
        level_adv_l2[lo:hi] = np.sqrt(np.sum(bdiff * bdiff, axis=(1, 2)))
        if analytic_dual:
            dual = np.asarray(clipped.base.legendre_L(t, x, b), dtype=float)
        else:
            dual = np.sum(p_prev * b, axis=-1) - clipped.value(t, x, p_prev)

    def linear_term(k, grads, out):
        j = k % block
        np.subtract(dual[j], _row_dot(b[j], grads, out, work), out=out)

    tracker = _IterationTracker(fixed, slice(None), -1, stop)
    adv_l2, grad_sup = [], []
    for n in range(stop.max_iterations):
        values = _forward_sweep(grid, params, q_values, threshold, gradients, linear_term,
                                freeze, block)
        adv_l2.append(float(np.max(level_adv_l2)))
        grad_sup.append(float(np.max(level_grad_sup)))
        if tracker.record(n, values):
            break

    return GeneralizedPIRun(
        params=params,
        fixed_point=fixed,
        last_iterate=values,
        advection_l2=np.array(adv_l2),
        gradient_sup=np.array(grad_sup),
        legendre_resolution=resolution,
        **tracker.fields(),
    )
