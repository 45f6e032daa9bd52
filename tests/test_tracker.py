"""The run bookkeeping both policy-iteration drivers share.

Every test runs on the control-formulation driver (`run_policy_iteration`)
and on the Legendre-linearized one (`generalized_pi`).
"""

import dataclasses
import functools
import importlib

import numpy as np
import pytest

import hjbpi
from hjbpi import grid as grid_module
from hjbpi import legendre as legendre_module
from hjbpi import pi as pi_module
from hjbpi.benchmarks import get_benchmark
from hjbpi.cli import EXIT_INVARIANT, ExperimentConfig, run_experiment
from hjbpi.errors import MonotonicityError
from hjbpi.legendre import ConvexHamiltonian, generalized_pi, legendre_scheme
from hjbpi.pi import MONOTONE_ABORT, PIConfig, run_policy_iteration
from hjbpi.scheme import SchemeParams

RISE = 100.0 * MONOTONE_ABORT


def quadratic_h():
    return ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
        grad_p=lambda t, x, p: np.asarray(p, dtype=float),
        legendre_L=lambda t, x, mu: 0.5 * np.sum(np.asarray(mu) ** 2, axis=-1),
    )


def cosine(X):
    return np.cos(X[:, 0])


def run_pi(max_iterations):
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
    return run_policy_iteration(bench.problem, grid, params,
                                PIConfig(max_iterations=max_iterations))


def run_legendre(max_iterations, v0=None):
    grid = get_benchmark("eikonal-cos").make_grid(0.1)
    clipped, params = legendre_scheme(quadratic_h(), 2.0, grid, 1.0)
    return generalized_pi(clipped, cosine, grid, params, v0=v0,
                          max_iterations=max_iterations)


def raise_pi_iterate(monkeypatch, call, shift=RISE):
    """Lift the evaluation returned by call ``call`` by ``shift`` everywhere."""
    original = pi_module.evaluate_policy
    calls = [0]

    @functools.wraps(original)
    def lifted(*args, **kwargs):
        sol = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] != call:
            return sol
        return dataclasses.replace(sol, values=sol.values + shift)

    monkeypatch.setattr(pi_module, "evaluate_policy", lifted)


def raise_legendre_iterate(monkeypatch, call, shift=RISE):
    """Lift the linearized sweep number ``call`` by ``shift`` (the direct run is
    not counted)."""
    original = legendre_module._forward_sweep
    calls = [0]

    def lifted(*args, **kwargs):
        values = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] != call + 1:
            return values
        return values + shift

    monkeypatch.setattr(legendre_module, "_forward_sweep", lifted)


# driver -> (run, lift, the binding that makes each iterate, the CLI mode)
DRIVERS = {
    "run_policy_iteration": (run_pi, raise_pi_iterate, (pi_module, "evaluate_policy"), "pi"),
    "generalized_pi": (run_legendre, raise_legendre_iterate,
                       (legendre_module, "_forward_sweep"), "legendre-pi"),
}


@pytest.fixture(params=sorted(DRIVERS))
def driver(request):
    return DRIVERS[request.param]


@pytest.mark.parametrize("max_iterations", (60, 4, 3, 1))
def test_every_iteration_is_scored_and_the_last_is_kept(driver, spy, max_iterations):
    # a run cut at any count keeps one scalar per iteration and returns the
    # final evaluation; the legendre binding's first call is the direct run
    run_driver, _, binding, _ = driver
    with spy(*binding) as made:
        run = run_driver(max_iterations)
    used = run.iterations_used
    assert 1 <= used <= max_iterations
    if used < max_iterations:
        assert run.stop_reason == "tolerance"
    else:
        assert run.stop_reason in ("tolerance", "max_iterations")
    assert len(run.errors_to_fixed_point) == len(run.monotonicity_worst) == used
    assert len(made) - used == (binding[1] == "_forward_sweep")
    assert made[-1] is run.last_iterate


def test_max_iterations_sets_stop_reason(driver):
    run = driver[0](2)
    assert run.stop_reason == "max_iterations"
    assert run.iterations_used == 2
    # every iteration's scalars are kept
    assert len(run.errors_to_fixed_point) == len(run.monotonicity_worst) == 2


@pytest.mark.parametrize("call", (2, 3))
def test_rise_above_abort_raises(driver, monkeypatch, call):
    run, lift, _, _ = driver
    lift(monkeypatch, call)
    with pytest.raises(MonotonicityError,
                       match=rf"iterate {call - 1} rose 1\.000e-06 above its predecessor"):
        run(60)


@pytest.mark.parametrize("call", (1, 2))
def test_dip_below_the_fixed_point_raises(driver, monkeypatch, call):
    # the terminal level of every iterate equals the fixed point's, so the
    # lowered iterate dips below it by the whole shift
    run, lift, _, _ = driver
    lift(monkeypatch, call, -RISE)
    with pytest.raises(MonotonicityError,
                       match=rf"iterate {call - 1} fell 1\.000e-06 below the fixed point"):
        run(60)


def test_dip_below_the_fixed_point_exits_4(driver, monkeypatch, tmp_path, capsys):
    _, lift, _, mode = driver
    lift(monkeypatch, 2, -RISE)
    config = ExperimentConfig(mode=mode, benchmark="eikonal-cos", h=0.1,
                              output_dir=str(tmp_path / "out"))
    assert run_experiment(config) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: iterate 1 fell ") and "below the fixed point" in err


def count_gradients(monkeypatch):
    """Count calls of gradient_central_values through every module binding."""
    calls = [0]
    original = grid_module.gradient_central_values

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    modules = [hjbpi] + [importlib.import_module(f"hjbpi.{name}")
                         for name in ("grid", "problem", "scheme", "pi", "legendre",
                                      "analysis", "cli")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_generalized_pi_takes_one_gradient_per_slice(monkeypatch):
    # the sweep's fused stencil takes a row's gradient and Laplacian in one
    # evaluation; the start's gradient of q is a gradient_central_values call
    calls = count_gradients(monkeypatch)
    original = grid_module.RowStencil.__call__

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(grid_module.RowStencil, "__call__", counted)
    run = run_legendre(60)
    assert run.iterations_used >= 3
    # one per level of the direct run and of every linearized run, plus the
    # start's gradient of q, shared by every level
    assert calls[0] == run.params.steps * (run.iterations_used + 1) + 1


def test_explicit_constant_start_matches_default_start(spy):
    with spy(legendre_module, "_forward_sweep") as reference_sweeps:
        reference = run_legendre(60)
    q = reference.fixed_point[0]
    v0 = np.stack([q] * (reference.params.steps + 1))
    with spy(legendre_module, "_forward_sweep") as sweeps:
        run = run_legendre(60, v0=v0)
    assert run.iterations_used == reference.iterations_used
    assert np.array_equal(run.errors_to_fixed_point, reference.errors_to_fixed_point)
    assert np.array_equal(run.advection_l2, reference.advection_l2)
    assert np.array_equal(run.gradient_sup, reference.gradient_sup)
    # the direct run, then every iterate
    assert len(sweeps) == len(reference_sweeps) == run.iterations_used + 1
    for values, ref in zip(sweeps, reference_sweeps):
        assert np.array_equal(values, ref)
    assert np.array_equal(run.last_iterate, reference.last_iterate)


def test_solutions_are_one_read_only_contiguous_array(driver, spy):
    # the fixed point is a direct solve (or forward sweep), every control
    # iterate an evaluate_policy solution
    run_driver, _, binding, _ = driver
    with spy(*binding) as made:
        run = run_driver(60)
    assert made[-1] is run.last_iterate
    shape = (run.params.steps + 1, get_benchmark("eikonal-cos").make_grid(0.1).npoints)
    stored = [run.fixed_point, *made]
    for values in (getattr(s, "values", s) for s in stored):
        assert values.shape == shape
        assert values.dtype == np.float64
        assert values.flags.c_contiguous
        assert not values.flags.writeable


class WholeArrayTracker(pi_module._IterationTracker):
    """``record`` with whole-array temporaries: the reference the blocked fold must equal."""

    def record(self, n, values):
        diff = values[:, self.region] - self.fixed_values[:, self.region]
        self.errors.append(float(np.max(np.abs(diff))))
        self.errors_l2.append(float(np.sqrt(np.sum(diff[self.l2_level] ** 2))))
        self.excess.append(max(0.0, float(np.max(self.fixed_values - values))))
        if self.excess[-1] > MONOTONE_ABORT:
            raise MonotonicityError(
                f"iterate {n} fell {self.excess[-1]:.3e} below the fixed point "
                f"(tolerance {MONOTONE_ABORT:.0e}); scheme bug or CFL breach")
        settled = False
        if self.prev_values is None:
            self.mono_worst.append(0.0)
        else:
            step = values - self.prev_values
            increase = float(np.max(step))
            self.mono_worst.append(max(0.0, increase))
            self.worst_violation = max(self.worst_violation, self.mono_worst[-1])
            self.violation_count += int(np.count_nonzero(step > pi_module.MONOTONE_SLACK))
            if increase > MONOTONE_ABORT:
                raise MonotonicityError(
                    f"iterate {n} rose {increase:.3e} above its predecessor "
                    f"(tolerance {MONOTONE_ABORT:.0e}); scheme bug or CFL breach")
            settled = float(np.max(np.abs(step))) < self.stop.stop_tolerance
        if settled:
            self.stop_reason = "tolerance"
        self.prev_values = values
        return settled or n == self.stop.max_iterations - 1


def decreasing_iterates(rows, width, count, seed):
    """Iterates falling toward a fixed point, with rises below MONOTONE_ABORT;
    the last two dip below it by less than MONOTONE_ABORT at a few points."""
    rng = np.random.default_rng(seed)
    fixed = rng.uniform(-1.0, 1.0, (rows, width))
    gap = rng.uniform(0.0, 1.0, (rows, width))
    iterates = [fixed + gap]
    for k in range(1, count):
        values = fixed + gap * 0.5 ** (3 * k)
        rise = rng.uniform(size=values.shape) < 0.01
        values[rise] = iterates[-1][rise] + rng.uniform(0.0, 1e-9, int(np.count_nonzero(rise)))
        iterates.append(values)
    dip = rng.uniform(size=fixed.shape) < 0.01
    below = fixed - np.where(dip, rng.uniform(0.0, 1e-9, fixed.shape), 0.0)
    iterates.append(below)
    iterates.append(below.copy())  # no step at all: the run settles
    return fixed, iterates


def both_trackers(fixed, region, max_iterations):
    """The blocked tracker and the whole-array reference, set up alike."""
    return [cls(fixed, region, 0, PIConfig(max_iterations=max_iterations))
            for cls in (pi_module._IterationTracker, WholeArrayTracker)]


def assert_same_record(blocked, reference):
    got, want = blocked.fields(), reference.fields()
    for key in ("errors_to_fixed_point", "errors_l2", "monotonicity_worst"):
        assert got[key].tobytes() == want[key].tobytes(), key
    assert np.array(blocked.excess).tobytes() == np.array(reference.excess).tobytes()
    for key in ("monotonicity_violation_count", "worst_monotonicity",
                "iterations_used", "stop_reason"):
        assert got[key] == want[key], key


def block_rows(width):
    return max(1, grid_module.BLOCK_ELEMENTS // width)


@pytest.mark.parametrize("rows, width", [
    (501, 628),                                  # the legendre-pi shape, ragged last block
    (3 * block_rows(100) + 7, 100),              # three full blocks and 7 rows
    (2 * block_rows(100), 100),                  # a whole number of blocks
    (5, grid_module.BLOCK_ELEMENTS + 3),         # rows wider than a block: one per block
])
@pytest.mark.parametrize("region_kind", ["slice", "mask"])
def test_blocked_record_equals_whole_array_formulas(rows, width, region_kind):
    assert rows > block_rows(width)  # more than one block
    fixed, iterates = decreasing_iterates(rows, width, 5, seed=rows)
    if region_kind == "slice":
        region = slice(None)
    else:
        region = np.random.default_rng(width).uniform(size=width) < 0.6
    blocked, reference = both_trackers(fixed, region, 100)
    for tracker in (blocked, reference):
        done = [tracker.record(n, values) for n, values in enumerate(iterates)]
        assert done[-1] and not any(done[:-1])  # the last two iterates are equal
    assert_same_record(blocked, reference)
    assert blocked.violation_count > 0
    assert 0.0 < max(blocked.excess) < MONOTONE_ABORT
    assert blocked.stop_reason == "tolerance"


@pytest.mark.parametrize("where", ["error", "step"])
def test_nan_in_a_late_block_is_reported(where):
    # one NaN in the last block: a fold through Python's max would drop it
    rows, width = 3 * block_rows(628) + 11, 628
    fixed, iterates = decreasing_iterates(rows, width, 2, seed=3)
    if where == "error":
        fixed[-1, 5] = np.nan
    else:
        iterates[-1][-1, 5] = np.nan  # the last step is 0 but for this NaN
    trackers = both_trackers(fixed, slice(None), 100)
    for tracker in trackers:
        done = [tracker.record(n, values) for n, values in enumerate(iterates)]
        # the last two iterates are equal, unless a NaN step keeps the run going
        assert done[-1] == (where == "error") and not any(done[:-1])
    assert_same_record(*trackers)
    errors = trackers[0].fields()["errors_to_fixed_point"]
    assert np.isnan(errors[-1])
    assert np.isnan(errors).all() == (where == "error")


def test_rise_in_a_late_block_raises_past_monotone_abort():
    rows, width = 4 * block_rows(628) + 1, 628
    fixed, iterates = decreasing_iterates(rows, width, 3, seed=4)
    iterates[2][-1, -1] = iterates[1][-1, -1] + RISE
    trackers = both_trackers(fixed, slice(None), 10)
    for tracker in trackers:
        tracker.record(0, iterates[0])
        tracker.record(1, iterates[1])
        with pytest.raises(MonotonicityError, match=r"iterate 2 rose 1\.000e-06"):
            tracker.record(2, iterates[2])
    assert_same_record(*trackers)
    assert trackers[0].worst_violation > MONOTONE_ABORT


@pytest.mark.parametrize("tolerance", [1e-10, 0.3])
def test_stop_rule_settles_only_strictly_below_the_tolerance(tolerance):
    # a largest move equal to stop_tolerance goes on; one ulp below stops
    fixed = np.full((3, 4), -1.0)
    for move, settles in ((tolerance, False), (np.nextafter(tolerance, 0.0), True)):
        tracker = pi_module._IterationTracker(fixed, slice(None), 0,
                                              PIConfig(stop_tolerance=tolerance))
        assert not tracker.record(0, np.zeros_like(fixed))
        values = np.zeros_like(fixed)
        values[1, 2] = -move  # one point falls by exactly ``move``
        assert tracker.record(1, values) == settles
        assert tracker.stop_reason == ("tolerance" if settles else "max_iterations")
