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
from hjbpi.errors import MonotonicityError
from hjbpi.grid import Field
from hjbpi.legendre import ConvexHamiltonian, generalized_pi
from hjbpi.pi import MONOTONE_ABORT, PIConfig, run_policy_iteration
from hjbpi.scheme import SchemeParams, solve_hjb_direct

RISE = 100.0 * MONOTONE_ABORT


def quadratic_h():
    return ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
        dim=1,
        grad_p=lambda t, x, p: np.asarray(p, dtype=float),
        legendre_L=lambda t, x, mu: 0.5 * np.sum(np.asarray(mu) ** 2, axis=-1),
    )


def cosine(X):
    return np.cos(X[:, 0])


def run_pi(max_iterations, record_every):
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
    return run_policy_iteration(bench.problem, grid, params,
                                PIConfig(max_iterations=max_iterations,
                                         record_every=record_every))


def run_legendre(max_iterations, record_every, v0=None):
    grid = get_benchmark("eikonal-cos").make_grid(0.1)
    return generalized_pi(quadratic_h(), cosine, grid, 1.0, 2.0, v0=v0,
                          max_iterations=max_iterations, record_every=record_every)


def raise_pi_iterate(monkeypatch, call):
    """Lift the evaluation returned by call ``call`` by RISE everywhere."""
    original = pi_module.evaluate_policy
    calls = [0]

    @functools.wraps(original)
    def lifted(*args, **kwargs):
        sol = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] != call:
            return sol
        return dataclasses.replace(sol, values=sol.values + RISE)

    monkeypatch.setattr(pi_module, "evaluate_policy", lifted)


def raise_legendre_iterate(monkeypatch, call):
    """Lift the linearized sweep number ``call`` (the direct run is not counted)."""
    original = legendre_module._forward_sweep
    calls = [0]

    def lifted(*args, **kwargs):
        values = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] != call + 1:
            return values
        return values + RISE

    monkeypatch.setattr(legendre_module, "_forward_sweep", lifted)


DRIVERS = {
    "run_policy_iteration": (run_pi, raise_pi_iterate),
    "generalized_pi": (run_legendre, raise_legendre_iterate),
}


@pytest.fixture(params=sorted(DRIVERS))
def driver(request):
    return DRIVERS[request.param]


@pytest.mark.parametrize("max_iterations, record_every",
                         ((60, 2), (60, 3), (4, 2), (3, 5), (1, 1)))
def test_thinning_keeps_zero_multiples_and_last(driver, max_iterations, record_every):
    run = driver[0](max_iterations, record_every)
    used = run.iterations_used
    expected = sorted({n for n in range(used) if n % record_every == 0} | {used - 1})
    assert [n for n, _ in run.iterates] == expected
    # the per-iteration scalars are never thinned
    assert len(run.errors_to_fixed_point) == len(run.monotonicity_worst) == used


def test_max_iterations_sets_stop_reason(driver):
    run = driver[0](2, 10)
    assert run.stop_reason == "max_iterations"
    assert run.iterations_used == 2
    assert [n for n, _ in run.iterates] == [0, 1]


@pytest.mark.parametrize("call", (2, 3))
def test_rise_above_abort_raises(driver, monkeypatch, call):
    run, lift = driver
    lift(monkeypatch, call)
    with pytest.raises(MonotonicityError,
                       match=rf"iterate {call - 1} rose 1\.000e-06 above its predecessor"):
        run(60, 10)


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
    calls = count_gradients(monkeypatch)
    run = run_legendre(60, 10)
    assert run.iterations_used >= 3
    # one per level of the direct run and of every linearized run, plus the
    # start's gradient of q, shared by every level
    assert calls[0] == run.params.steps * (run.iterations_used + 1) + 1


def test_explicit_constant_start_matches_default_start():
    reference = run_legendre(60, 1)
    q = reference.fixed_point[0]
    v0 = np.stack([q] * (reference.params.steps + 1))
    run = run_legendre(60, 1, v0=v0)
    assert run.iterations_used == reference.iterations_used
    assert np.array_equal(run.errors_to_fixed_point, reference.errors_to_fixed_point)
    assert np.array_equal(run.advection_l2, reference.advection_l2)
    assert np.array_equal(run.gradient_sup, reference.gradient_sup)
    for (n, slices), (m, ref) in zip(run.iterates, reference.iterates):
        assert n == m
        assert all(np.array_equal(a, b) for a, b in zip(slices, ref))


def test_solutions_are_one_read_only_contiguous_array(driver):
    # the fixed point is a direct solve (or forward sweep), every control
    # iterate an evaluate_policy solution
    run = driver[0](60, 1)
    shape = (run.params.steps + 1, get_benchmark("eikonal-cos").make_grid(0.1).npoints)
    stored = [run.fixed_point] + [iterate for _, iterate in run.iterates]
    for values in (getattr(s, "values", s) for s in stored):
        assert values.shape == shape
        assert values.dtype == np.float64
        assert values.flags.c_contiguous
        assert not values.flags.writeable


def test_no_field_is_built_per_level(monkeypatch):
    calls = [0]
    original = Field.__post_init__

    def counted(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Field, "__post_init__", counted)
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.1)
    solve_hjb_direct(bench.problem, grid,
                     SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound))
    run_legendre(60, 10)
    assert calls[0] == 0
    Field(grid, np.zeros(grid.npoints), 0.0)
    assert calls[0] == 1  # the patch does count
