"""Reference solutions and quantitative diagnostics for solved problems.

The Hopf-Lax evaluator here is a deliberately brute-force independent
oracle: it never touches the finite-difference machinery, so rate studies
measure the scheme against something that cannot share its bugs.

The oracle is one-dimensional.  Every call, a single point or the
(n, 1) points of a whole level, goes through one private entry that
refuses a time past the horizon and a point with more than one
coordinate.  It samples each reachable interval on a grid that
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

An h-study scores every level of each solve against the oracle.  Each
oracle call is a pure function of ``(t, coords)`` whose work is numpy
ufuncs, which release the GIL, so when the process may use more than one
CPU the levels are scored on two threads: the caller takes the even
levels and one helper thread the odd ones, each folding its own running
sup.  ``max`` is exact, so the result is bitwise that of one loop over the
levels, and an error is that of the lowest failing level.  An oracle
callback must therefore be safe to call from two threads at once; the
built-in ones are pure numpy.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, UnsupportedDimensionError
from .grid import row_blocks
from .pi import _linear_fit, measured_region
from .scheme import SchemeParams, solve_hjb_direct

ORACLE_TOL = 1e-6       # sampling is doubled until the minimum moves less than this
ORACLE_SAMPLES = 1001   # initial samples per interval
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


def _within_horizon(t, T):
    """``t``, once an oracle time past the horizon (NaN included) is refused."""
    if not t <= T:
        raise ConfigurationError(f"oracle asked for t={t} beyond the horizon T={T}")
    return t


def _hopf_lax(q, c0, t, T, X, speed):
    """Oracle values and first minimizers at the (n, 1) points ``X``.

    The one entry of every oracle call: it refuses a time past the horizon
    and points with more than one coordinate, then scans each center's
    reachable interval (``_ball_min_1d``) and adds ``c0 (T - t)``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 1:
        raise UnsupportedDimensionError("hopf-lax oracle supports 1 dimension only")
    radius = speed * (T - _within_horizon(t, T))
    if radius == 0.0:
        best, arg = np.asarray(q(X), dtype=float), X[:, 0]
    else:
        best, arg = _ball_min_1d(q, X[:, 0], radius, ORACLE_SAMPLES, ORACLE_TOL)
    return best + c0 * (T - t), arg


def hopf_lax_oracle(q, c0, t, T, x, speed):
    """min of q over the reachable interval |y - x| <= speed (T - t), plus c0 (T - t).

    Exact-solution formula for Hamiltonians of the form c0 - speed |p|.
    """
    values, _ = _hopf_lax(q, c0, t, T, np.atleast_2d(x), speed)
    return float(values[0])


def hopf_lax_minimizer(q, t, T, x, speed):
    """Location of the (first) minimizer the oracle scan finds, as a (1,) array."""
    _, arg = _hopf_lax(q, 0.0, t, T, np.atleast_2d(x), speed)
    return arg


def oracle_for(benchmark, T):
    """Reference-solution callback (t, X) -> values for a benchmark, or None; t > T is refused."""
    if benchmark.exact is not None:
        exact = benchmark.exact
        return lambda t, X: np.asarray(exact(_within_horizon(t, T), T, X), dtype=float)
    if benchmark.hopf_lax is not None:
        c0, speed = benchmark.hopf_lax
        q = benchmark.problem.terminal_cost
        if len(benchmark.box) != 2:
            raise UnsupportedDimensionError("hopf-lax benchmark oracle is 1D")
        return lambda t, X: _hopf_lax(q, c0, t, T, X, speed)[0]
    return None


def check_refinement(values, least, study):
    """Reject a refinement list shorter than ``least`` or not strictly decreasing."""
    if len(values) < least:
        raise ConfigurationError(f"{study} needs at least {least} values, got {len(values)}")
    if np.any(np.diff(values) >= 0):
        raise ConfigurationError(f"{study} values must be strictly decreasing")


def spacing_params(benchmark, h, T, tau=None, N=None):
    """Grid and scheme parameters a run uses at spacing ``h``."""
    grid = benchmark.make_grid(h)
    return grid, SchemeParams.create(grid.spacing, T, benchmark.problem.f_sup_bound,
                                     tau=tau, N=N, dim=grid.dim)


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


def _usable_cpus():
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fold_levels(solution, oracle, mask, coords, levels):
    """Running sup of |row - oracle| over ``levels``, in order, and the t=0 l2.

    Returns ``(sup, l2, None)``, or ``(sup, l2, (k, error))`` at the first
    level k whose scoring raised; an oracle row that is not finite raises,
    since ``max`` would drop a NaN.  l2 stays 0.0 unless level 0 is folded.
    """
    sup, l2 = 0.0, 0.0
    for k in levels:
        t = solution.params.time(k)
        try:
            expected = oracle(t, coords)
            if not np.all(np.isfinite(expected)):
                raise ConfigurationError(f"oracle is not finite at t={t}")
            diff = solution.values[k][mask] - expected
            sup = max(sup, float(np.max(np.abs(diff))))
            if k == 0:
                l2 = float(np.sqrt(np.sum(diff ** 2)))
        except Exception as error:  # handed to the caller, which raises the lowest
            return sup, l2, (k, error)
    return sup, l2, None


def solution_error_vs_oracle(solution, oracle, mask=None):
    """Sup and t=0 l2 distance to the oracle over the measured region, all levels.

    With more than one usable CPU a helper thread scores the odd levels
    while this one scores the even ones (see the module docstring).  On
    one CPU a helper saves no time and its malloc arena raises the peak,
    so this thread scores every level.
    """
    grid = solution.grid
    mask = np.ones(grid.npoints, dtype=bool) if mask is None else mask
    if not np.any(mask):
        raise ConfigurationError("measured region is empty; enlarge the box or shrink T")
    coords = grid.coordinates()[mask]
    levels = range(len(solution.values))
    if _usable_cpus() < 2:
        parts = [_fold_levels(solution, oracle, mask, coords, levels)]
    else:
        odd = []
        helper = threading.Thread(
            target=lambda: odd.append(_fold_levels(solution, oracle, mask, coords,
                                                   levels[1::2])),
            name="hjbpi-oracle-odd-levels")
        helper.start()
        try:
            parts = [_fold_levels(solution, oracle, mask, coords, levels[0::2])]
        finally:
            helper.join()
        if not odd:  # a BaseException ended the helper; threading reported it
            raise RuntimeError("the oracle helper thread ended without a result")
        parts += odd
    failures = [failure for _, _, failure in parts if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return max(sup for sup, _, _ in parts), parts[0][1]


def run_h_rate_study(benchmark, h_values, T):
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
        grid, params = spacing_params(benchmark, h, T)
        mask = measured_region(grid, problem, T)
        sol = solve_hjb_direct(problem, grid, params)
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
    ``distances`` compare successive slices over the measured region; ``errors`` (sup)
    and ``l2_errors`` over every point, and the finest slice with ``extrapolated``.
    """

    h: float
    tau_values: tuple
    distances: tuple
    extrapolated: np.ndarray
    errors: tuple
    l2_errors: tuple


def run_tau_refinement_study(benchmark, h, tau_values, T):
    check_refinement(tau_values, TAU_STUDY_LEVELS, "tau study")
    problem = benchmark.problem
    mask = measured_region(benchmark.make_grid(h), problem, T)
    slices, taus = [], []
    for tau in tau_values:
        grid, params = spacing_params(benchmark, h, T, tau)
        # a copy of the t=0 row, so the rest of the solve is not kept
        slices.append(solve_hjb_direct(problem, grid, params).values[0].copy())
        taus.append(params.tau)
    distances = tuple(float(np.max(np.abs(a[mask] - b[mask])))
                      for a, b in zip(slices, slices[1:]))
    (t1, t2), (v1, v2) = taus[-2:], slices[-2:]
    extrapolated = (t1 * v2 - t2 * v1) / (t1 - t2)
    diffs = [a - b for a, b in zip(slices, slices[1:] + [extrapolated])]
    return TauRefinementStudy(h=grid.spacing, tau_values=tuple(taus),
                              distances=distances, extrapolated=extrapolated,
                              errors=tuple(float(np.max(np.abs(d))) for d in diffs),
                              l2_errors=tuple(float(np.sqrt(np.sum(d ** 2))) for d in diffs))


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
