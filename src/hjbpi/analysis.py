"""Reference solutions and quantitative diagnostics for solved problems.

The Hopf-Lax evaluator here is a deliberately brute-force independent
oracle: it never touches the finite-difference machinery, so rate studies
measure the scheme against something that cannot share its bugs.

In one dimension the oracle samples the reachable interval on a grid that
doubles until the minimum settles.  ``linspace(-r, r, 2S - 1)[::2]`` is
bitwise equal to ``linspace(-r, r, S)`` (the step halves exactly), so each
doubling keeps the samples it has and evaluates the terminal cost only on
the S - 1 new midpoints; minima and minimizers are exactly those of a scan
over the whole refined grid.

Each round is evaluated a block of centers at a time: a block holds
``max(1, BLOCK_ELEMENTS // samples)`` centers (``grid.row_blocks``), so q
sees about ``BLOCK_ELEMENTS`` points per call and the centers x samples
table never exists whole.  A block's argmins and minima go into (n,)
arrays; the stop rule (no minimum over all centers moved by ``tol``), the
first-minimizer tie rule and the finiteness check still apply per round,
to every center at once, so the results are bitwise those of one scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, UnsupportedDimensionError
from .grid import row_blocks
from .pi import _linear_fit
from .scheme import SchemeParams, solve_hjb_direct

ORACLE_TOL = 1e-6       # sampling is doubled until the minimum moves less than this
ORACLE_SAMPLES = 1001   # initial samples per axis
_DEGENERATE = 1e-12     # below this every error is treated as identically zero
KINK_TOL = 1e-9         # policy probes this close to a declared kink are skipped
RATE_STUDY_LEVELS = 4   # spacings an h-refinement rate fit needs
TAU_STUDY_LEVELS = 2    # steps a tau-refinement study needs


def _require_finite(minima):
    """Stop a refinement that could never settle: the terminal cost is not finite.

    ``argmin`` picks the first NaN, so one NaN sample shows in the minima;
    so does a ball where q is -inf, or +inf throughout.
    """
    if not np.all(np.isfinite(minima)):
        raise ConfigurationError("terminal cost is not finite inside the oracle's ball")


def _scan_blocks(q, xs, offs, minima, argmins):
    """Row minima and first argmins of q(xs[i] + offs[j]) over j, into (n,) outputs.

    q sees one block of centers at a time (``row_blocks``), so the
    temporaries hold about ``BLOCK_ELEMENTS`` samples whatever the number
    of centers; each row's minimum is the same as in one whole scan.
    """
    for rows in row_blocks(xs.size, offs.size):
        vals = np.asarray(q((xs[rows, None] + offs[None, :])[..., None]), dtype=float)
        idx = np.argmin(vals, axis=1)
        argmins[rows] = idx
        minima[rows] = np.take_along_axis(vals, idx[:, None], axis=1)[:, 0]


def _ball_min_1d(q, xs, radius, samples, tol):
    """min of q over [x - radius, x + radius] for every center x in ``xs``.

    Samples start at ``samples`` per interval and double (S -> 2S - 1) until
    no minimum moves by ``tol`` or more.  Returns the refined minima and the
    first minimizer of each on the final sample grid.  A doubling evaluates
    q only at the new midpoints: the old samples are the even entries of
    the refined grid, bitwise.
    """
    n = xs.size
    best, idx = np.empty(n), np.empty(n, dtype=np.intp)
    new_best, new_idx = np.empty(n), np.empty(n, dtype=np.intp)
    _scan_blocks(q, xs, np.linspace(-radius, radius, samples), best, idx)
    _require_finite(best)
    while True:
        samples = 2 * samples - 1
        offs = np.linspace(-radius, radius, samples)
        _scan_blocks(q, xs, offs[1::2], new_best, new_idx)
        _require_finite(new_best)
        # old sample j sits at refined index 2j, new sample m at 2m + 1;
        # on a tie the lower refined index is the first minimizer
        take_new = (new_best < best) | ((new_best == best) & (new_idx < idx))
        idx = np.where(take_new, 2 * new_idx + 1, 2 * idx)
        refined = np.minimum(best, new_best)
        if float(np.max(np.abs(refined - best))) < tol:
            return refined, xs + offs[idx]
        best = refined


def _ball_min_2d(q, center, radius, samples):
    """min of q over the samples x samples square's points inside the ball.

    The square is scanned in its raveled order, a block of rows at a time
    (``row_blocks``), so a block's (points, 2) array holds about
    ``BLOCK_ELEMENTS`` values.  A later block replaces the best only when
    strictly lower, so the minimizer is the first of one whole scan.
    """
    offs = np.linspace(-radius, radius, samples)
    ys, zs = center[0] + offs, center[1] + offs
    best, arg = math.inf, None
    for rows in row_blocks(samples, 2 * samples):
        yy, zz = np.meshgrid(ys[rows], zs, indexing="ij")
        pts = np.stack([yy.ravel(), zz.ravel()], axis=-1)
        pts = pts[np.sum((pts - center) ** 2, axis=-1) <= radius * radius * (1 + 1e-12)]
        vals = np.asarray(q(pts), dtype=float)
        k = int(np.argmin(vals))
        if math.isnan(vals[k]):  # then the whole scan's minimum is NaN
            _require_finite(vals[k])
        if arg is None or vals[k] < best:
            best, arg = float(vals[k]), pts[k]
    _require_finite(best)
    return best, arg


def _hopf_lax_scan(q, t, T, x, speed, initial_samples, tol):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size
    if dim > 2:
        raise UnsupportedDimensionError("hopf-lax oracle supports 1 and 2 dimensions only")
    radius = speed * (T - t)
    if radius < 0:
        raise ConfigurationError(f"oracle asked for t={t} beyond the horizon T={T}")
    if radius == 0.0:
        return float(np.asarray(q(x[None, :]))[0]), x
    if dim == 1:
        best, arg = _ball_min_1d(q, x, radius, initial_samples, tol)
        return float(best[0]), arg
    samples = initial_samples
    best, arg = _ball_min_2d(q, x, radius, samples)
    while True:
        samples = 2 * samples - 1
        refined, arg = _ball_min_2d(q, x, radius, samples)
        if abs(refined - best) < tol:
            return refined, np.atleast_1d(arg)
        best = refined


def hopf_lax_oracle(q, c0, t, T, x, speed, initial_samples=ORACLE_SAMPLES, tol=ORACLE_TOL):
    """min of q over the reachable ball |y - x| <= speed (T - t), plus c0 (T - t).

    Exact-solution formula for Hamiltonians of the form c0 - speed |p|.
    """
    best, _ = _hopf_lax_scan(q, t, T, x, speed, initial_samples, tol)
    return best + c0 * (T - t)


def hopf_lax_minimizer(q, t, T, x, speed, initial_samples=ORACLE_SAMPLES, tol=ORACLE_TOL):
    """Location of the (first) minimizer the oracle scan finds."""
    _, arg = _hopf_lax_scan(q, t, T, x, speed, initial_samples, tol)
    return arg


def _hopf_lax_values_1d(q, c0, t, T, X, speed, tol=ORACLE_TOL):
    """Oracle values at many points at once (shared offset grid per level).

    Refinement reuses the even samples of each doubled grid (see
    ``_ball_min_1d``), which is bitwise-safe because ``linspace`` nests.
    """
    radius = speed * (T - t)
    if radius == 0.0:
        return np.asarray(q(X), dtype=float) + 0.0
    best, _ = _ball_min_1d(q, X[:, 0], radius, ORACLE_SAMPLES, tol)
    return best + c0 * (T - t)


def oracle_for(benchmark, T):
    """Reference-solution callback (t, X) -> values for a benchmark, or None."""
    if benchmark.exact is not None:
        exact = benchmark.exact
        return lambda t, X: np.asarray(exact(t, T, X), dtype=float)
    if benchmark.hopf_lax is not None:
        c0, speed = benchmark.hopf_lax
        q = benchmark.problem.terminal_cost
        if len(benchmark.box) != 2:
            raise UnsupportedDimensionError("hopf-lax benchmark oracle is 1D")
        return lambda t, X: _hopf_lax_values_1d(q, c0, t, T, X, speed)
    return None


def check_refinement(values, least, study):
    """Reject a refinement list shorter than ``least`` or not strictly decreasing."""
    if len(values) < least:
        raise ConfigurationError(f"{study} needs at least {least} values, got {len(values)}")
    if np.any(np.diff(values) >= 0):
        raise ConfigurationError(f"{study} values must be strictly decreasing")


def spacing_params(benchmark, h, T, tau=None):
    """Grid and scheme parameters a study or probe run uses at spacing ``h``."""
    grid = benchmark.make_grid(h)
    return grid, SchemeParams.create(grid.spacing, T, benchmark.problem.f_sup_bound,
                                     tau=tau, dim=grid.dim)


@dataclass(frozen=True)
class RateStudy:
    """Sup errors against an oracle across spacings, with a fitted order."""

    h_values: tuple
    tau_values: tuple
    errors: tuple
    l2_errors: tuple
    fitted_order: float
    fitted_constant: float
    r_squared: float
    degenerate: bool


def solution_error_vs_oracle(solution, oracle, mask=None):
    """Sup and t=0 l2 distance to the oracle over the measured region, all levels."""
    grid = solution.grid
    mask = np.ones(grid.npoints, dtype=bool) if mask is None else mask
    coords = grid.coordinates()[mask]
    sup = 0.0
    l2 = 0.0
    for k, row in enumerate(solution.values):
        t = solution.params.time(k)
        diff = row[mask] - oracle(t, coords)
        sup = max(sup, float(np.max(np.abs(diff))))
        if k == 0:
            l2 = float(np.sqrt(np.sum(diff ** 2)))
    return sup, l2


def run_h_rate_study(benchmark, h_values, T, tau_rule=None):
    """Solve at each spacing and fit  error ~ constant * h^order  by log-log
    least squares.  Spacings may be snapped by the benchmark grid; the fit
    uses the spacings actually run.
    """
    check_refinement(h_values, RATE_STUDY_LEVELS, "rate study")
    problem = benchmark.problem
    ref = oracle_for(benchmark, T)
    if ref is None:
        raise ConfigurationError(f"benchmark {benchmark.name} has no oracle")
    actual_h, taus, errors, l2s = [], [], [], []
    for h in h_values:
        tau = None if tau_rule is None else tau_rule(benchmark.make_grid(h).spacing)
        grid, params = spacing_params(benchmark, h, T, tau)
        sol = solve_hjb_direct(problem, grid, params)
        mask = grid.interior_mask(problem.f_sup_bound * T)
        sup, l2 = solution_error_vs_oracle(sol, ref, mask)
        actual_h.append(grid.spacing)
        taus.append(params.tau)
        errors.append(sup)
        l2s.append(l2)

    degenerate = max(errors) < _DEGENERATE
    if degenerate:
        order, constant, r2 = math.nan, math.nan, math.nan
    else:
        slope, intercept, r2 = _linear_fit(np.log(actual_h), np.log(errors))
        order, constant = float(slope), float(np.exp(intercept))
    return RateStudy(h_values=tuple(actual_h), tau_values=tuple(taus),
                     errors=tuple(errors), l2_errors=tuple(l2s),
                     fitted_order=order, fitted_constant=constant,
                     r_squared=r2, degenerate=degenerate)


@dataclass(frozen=True)
class TauRefinementStudy:
    """Successive t=0 distances under time refinement at fixed spacing.

    ``extrapolated`` is the linear-in-tau extrapolation of the two finest
    t=0 slices, standing in for the time-continuous solution on this grid.
    """

    h: float
    tau_values: tuple
    distances: tuple
    extrapolated: np.ndarray
    solutions: tuple


def run_tau_refinement_study(benchmark, h, tau_values, T):
    check_refinement(tau_values, TAU_STUDY_LEVELS, "tau study")
    problem = benchmark.problem
    sols, taus = [], []
    for tau in tau_values:
        grid, params = spacing_params(benchmark, h, T, tau)
        sols.append(solve_hjb_direct(problem, grid, params))
        taus.append(params.tau)
    mask = grid.interior_mask(problem.f_sup_bound * T)
    distances = tuple(
        float(np.max(np.abs(a.values[0][mask] - b.values[0][mask])))
        for a, b in zip(sols, sols[1:]))
    t1, t2 = taus[-2], taus[-1]
    v1 = sols[-2].values[0]
    v2 = sols[-1].values[0]
    extrapolated = (t1 * v2 - t2 * v1) / (t1 - t2)
    return TauRefinementStudy(h=grid.spacing, tau_values=tuple(taus),
                              distances=distances, extrapolated=extrapolated,
                              solutions=tuple(sols))


@dataclass(frozen=True)
class SemiConcavityReport:
    """Worst centered-second-difference ratio over a solution."""

    offsets: tuple          # (axis, steps) pairs actually probed
    worst_ratio: float
    per_offset: tuple       # worst ratio per offset


def _offset_spec(grid, offset):
    """Decode an axis-aligned offset vector into (axis, lattice steps)."""
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    nonzero = np.flatnonzero(np.abs(offset) > 1e-14)
    if len(nonzero) != 1:
        raise ConfigurationError(f"offset {offset} must be axis-aligned and nonzero")
    axis = int(nonzero[0])
    steps = offset[axis] / grid.spacing
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigurationError(
            f"offset {offset} is not a lattice multiple of h={grid.spacing}")
    return axis, int(round(steps))


def semi_concavity_probe(solution, offsets):
    """Max of [V(t,x+y) + V(t,x-y) - 2 V(t,x)] / (|y|^2 + sqrt(h)).

    Offsets must be lattice vectors along grid axes.  Only points whose
    shifted partners stay inside the grid count.
    """
    grid = solution.grid
    h = grid.spacing
    denom_base = math.sqrt(h)

    specs = [_offset_spec(grid, off) for off in offsets]
    per_offset = []
    for axis, steps in specs:
        n = grid.points_per_axis[axis]
        idx = np.arange(grid.npoints)
        multi = np.array(np.unravel_index(idx, grid.shape))
        j = multi[axis]
        if grid.periodic[axis]:
            ok = np.ones(grid.npoints, dtype=bool)
            up = (j + steps) % n
            dn = (j - steps) % n
        else:
            ok = (j + steps <= n - 1) & (j - steps >= 0)
            up = np.clip(j + steps, 0, n - 1)
            dn = np.clip(j - steps, 0, n - 1)
        multi_up = multi.copy(); multi_up[axis] = up
        multi_dn = multi.copy(); multi_dn[axis] = dn
        flat_up = np.ravel_multi_index(tuple(multi_up), grid.shape)
        flat_dn = np.ravel_multi_index(tuple(multi_dn), grid.shape)
        y2 = (steps * h) ** 2
        worst = -math.inf
        for v in solution.values:
            second = v[flat_up][ok] + v[flat_dn][ok] - 2.0 * v[ok]
            if second.size:
                worst = max(worst, float(np.max(second)) / (y2 + denom_base))
        per_offset.append(worst)
    return SemiConcavityReport(offsets=tuple(specs), worst_ratio=max(per_offset),
                               per_offset=tuple(per_offset))


@dataclass(frozen=True)
class PolicyProbeRow:
    h: float
    point: float
    skipped: bool
    control: Optional[tuple]
    oracle_control: Optional[tuple]


@dataclass(frozen=True)
class PolicyProbeTable:
    rows: tuple

    def stabilized(self, point):
        """Controls at the two finest spacings agree (and match the oracle if known)."""
        rows = [r for r in self.rows if r.point == point and not r.skipped]
        if len(rows) < 2:
            return False
        last, prev = rows[-1], rows[-2]
        if last.control != prev.control:
            return False
        if last.oracle_control is not None:
            return last.control == last.oracle_control
        return True


def policy_pointwise_convergence_probe(benchmark, h_values, probe_points, T):
    """Fixed-point control at probe points across spacings, vs the oracle argmin.

    Probes inside the declared non-unique-argmin set are skipped.  For
    hopf-lax benchmarks the expected control is the sign of the step toward
    the brute-force minimizer; elsewhere the probe only reports stability.
    """
    problem = benchmark.problem
    elements = problem.controls.elements
    rows = []
    for h in h_values:
        grid, params = spacing_params(benchmark, h, T)
        sol = solve_hjb_direct(problem, grid, params)
        level = 1  # the level that drives the final step to t=0
        policy = sol.policy_slices[level]
        t = params.time(level)
        for point in probe_points:
            point = float(point)
            if any(abs(point - k) <= KINK_TOL for k in benchmark.kink_points):
                rows.append(PolicyProbeRow(h=grid.spacing, point=point, skipped=True,
                                           control=None, oracle_control=None))
                continue
            gp = grid.nearest_index([point])
            control = tuple(float(v) for v in elements[policy[gp]])
            oracle_control = None
            if benchmark.hopf_lax is not None and problem.controls.control_dim == 1:
                _, speed = benchmark.hopf_lax
                y = hopf_lax_minimizer(problem.terminal_cost, t, T, [point], speed)
                direction = float(np.sign(y[0] - point))
                cand = elements[:, 0]
                oracle_control = (float(cand[np.argmin(np.abs(cand - direction))]),)
            elif problem.controls.size == 1:
                oracle_control = tuple(float(v) for v in elements[0])
            rows.append(PolicyProbeRow(h=grid.spacing, point=point, skipped=False,
                                       control=control, oracle_control=oracle_control))
    return PolicyProbeTable(rows=tuple(rows))
