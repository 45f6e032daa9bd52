import functools
import importlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjbpi
from hjbpi import problem as problem_module
from hjbpi.benchmarks import get_benchmark, lq_feedback_policies
from hjbpi.errors import ConfigurationError
from hjbpi.grid import Grid
from hjbpi.pi import (
    MONOTONE_SLACK,
    PIConfig,
    _policy_l2_distance,
    build_initial_policies,
    fit_geometric_rate,
    run_policy_iteration,
)
from hjbpi.problem import (
    ControlProblem,
    ControlSet,
    improve_policy,
)
from hjbpi.scheme import SchemeParams, evaluate_policy, solve_hjb_direct


def run_benchmark(name, h=0.1, T=1.0, tau=None, config=None):
    bench = get_benchmark(name)
    grid = bench.make_grid(h)
    params = SchemeParams.create(grid.spacing, T, bench.problem.f_sup_bound, tau=tau)
    run = run_policy_iteration(bench.problem, grid, params, config or PIConfig())
    return bench, grid, params, run


class TestFitGeometricRate:
    def test_exact_halving(self):
        fit = fit_geometric_rate([1.0, 0.5, 0.25, 0.125], burn_in=0)
        assert fit.rho == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert not fit.floored

    def test_stalled_sequence(self):
        fit = fit_geometric_rate([3.0, 3.0, 3.0, 3.0], burn_in=0)
        assert fit.rho == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_zeros_floor_the_fit(self):
        fit = fit_geometric_rate([1.0, 0.5, 0.25, 0.125, 0.0, 0.0], burn_in=0)
        assert fit.floored and fit.n_used == 4
        assert fit.rho == pytest.approx(0.5, abs=1e-12)

    def test_requires_enough_entries(self):
        with pytest.raises(ValueError):
            fit_geometric_rate([1.0, 0.5, 0.25], burn_in=0)
        with pytest.raises(ValueError):
            fit_geometric_rate([1.0, 0.5, 0.25, 0.125, 0.06], burn_in=2)

    def test_burn_in_skips_transient(self):
        errors = [9.0, 5.0, 1.0, 0.5, 0.25, 0.125]
        fit = fit_geometric_rate(errors, burn_in=2)
        assert fit.rho == pytest.approx(0.5, abs=1e-12)


class TestInitialPolicies:
    def test_first_control(self):
        bench = get_benchmark("eikonal-cos")
        grid = bench.make_grid(0.2)
        params = SchemeParams.create(grid.spacing, 0.5, 1.0)
        pols = build_initial_policies(bench.problem, grid, params, "first-control")
        assert pols.shape == (params.steps, grid.npoints)
        assert np.all(pols == 0)

    def test_argmin_of_c_breaks_ties_to_first(self):
        bench = get_benchmark("eikonal-cos")  # c constant: everything ties
        grid = bench.make_grid(0.2)
        params = SchemeParams.create(grid.spacing, 0.5, 1.0)
        pols = build_initial_policies(bench.problem, grid, params, "argmin-of-c")
        assert np.all(pols == 0)

    def test_argmin_of_c_finds_cheapest_control(self):
        bench = get_benchmark("quadratic-lq")  # c = a^2/2, cheapest is a = 0
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 0.5, 1.0)
        pols = build_initial_policies(bench.problem, grid, params, "argmin-of-c")
        a = bench.problem.controls.elements[pols[0], 0]
        assert np.all(a == 0.0)

    def test_unknown_rule_rejected(self):
        bench = get_benchmark("zero")
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            build_initial_policies(bench.problem, grid, params, "warm-start")


class TestRunPolicyIteration:
    def test_zero_benchmark_trivial(self):
        _, _, _, run = run_benchmark("zero")
        assert run.stop_reason == "tolerance"
        assert run.iterations_used == 2  # one improvement step suffices
        assert np.all(run.errors_to_fixed_point == 0.0)
        assert run.worst_monotonicity == 0.0

    def test_eikonal_converges_to_direct_solve(self):
        _, _, _, run = run_benchmark("eikonal-cos", config=PIConfig(max_iterations=60))
        assert run.iterations_used <= 60
        assert run.errors_to_fixed_point[-1] <= 1e-8

    def test_eikonal_iterates_monotone_and_sandwiched(self):
        _, _, _, run = run_benchmark("eikonal-cos")
        assert run.worst_monotonicity <= 1e-10
        assert run.monotonicity_violation_count == 0
        assert np.max(run.fixed_point_excess) <= 1e-10
        assert np.all(np.diff(run.errors_to_fixed_point) <= 1e-10)

    def test_rerun_is_bitwise_identical(self):
        _, _, _, run1 = run_benchmark("eikonal-cos")
        _, _, _, run2 = run_benchmark("eikonal-cos")
        assert np.array_equal(run1.errors_to_fixed_point, run2.errors_to_fixed_point)
        assert np.array_equal(run1.errors_l2, run2.errors_l2)
        v1 = run1.last_iterate.values_array()
        v2 = run2.last_iterate.values_array()
        assert np.array_equal(v1, v2)

    def test_explicit_initial_policy_list(self):
        bench = get_benchmark("quadratic-lq")
        grid = bench.make_grid(0.05)
        params = SchemeParams.create(grid.spacing, 1.0, 1.0)
        pols = lq_feedback_policies(bench.problem, grid, params)
        run = run_policy_iteration(bench.problem, grid, params,
                                   PIConfig(initial_policy=pols, max_iterations=40))
        assert run.errors_to_fixed_point[0] > 0.1  # starts genuinely away
        assert run.errors_to_fixed_point[-1] == 0.0
        assert run.worst_monotonicity <= 1e-10

    def test_max_iterations_stop_reason(self):
        _, _, _, run = run_benchmark("eikonal-cos", config=PIConfig(max_iterations=2))
        assert run.stop_reason == "max_iterations"
        assert run.iterations_used == 2


def eikonal_2d_problem(directions=8):
    angles = np.linspace(0, 2 * np.pi, directions, endpoint=False)
    return ControlProblem(
        dynamics=lambda t, x, a: np.broadcast_to(a, x.shape),
        running_cost=lambda t, x, a: 1.0 + 0.5 * np.sin(x[..., 0]) * a[0],
        terminal_cost=lambda x: np.cos(x[..., 0]) + np.cos(x[..., 1]),
        controls=ControlSet(np.stack([np.cos(angles), np.sin(angles)], axis=-1)),
        f_sup_bound=1.0,
    )


def random_policies(problem, grid, params, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, problem.controls.size, (params.steps, grid.npoints))


class TestImprovementFromEvaluation:
    """The argmin an evaluation sweep records is the policy improvement step."""

    @staticmethod
    def assert_greedy_is_improve_policy(problem, grid, params, policies):
        sol = evaluate_policy(problem, grid, params, policies)
        assert np.all(sol.policy_slices[0] == -1)
        for k in range(1, params.steps + 1):
            expected = improve_policy(problem, grid, sol.values[k], params.time(k))
            greedy = sol.policy_slices[k]
            assert greedy.dtype == expected.dtype
            assert np.array_equal(greedy, expected)

    @pytest.mark.parametrize("name", ("eikonal-cos", "quadratic-lq"))
    @pytest.mark.parametrize("start", ("first-control", "random"))
    def test_every_level_matches_improve_policy(self, name, start):
        bench = get_benchmark(name)
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
        if start == "random":
            policies = random_policies(bench.problem, grid, params, seed=5)
        else:
            policies = build_initial_policies(bench.problem, grid, params, start)
        self.assert_greedy_is_improve_policy(bench.problem, grid, params, policies)

    def test_two_dimensional_grid(self):
        prob = eikonal_2d_problem()
        n = 11
        grid = Grid(spacing=2 * np.pi / n, points_per_axis=(n, n))
        params = SchemeParams.create(grid.spacing, 0.5, 1.0, dim=2)
        policies = random_policies(prob, grid, params, seed=11)
        self.assert_greedy_is_improve_policy(prob, grid, params, policies)

    def test_run_checks_bounds_once_and_never_calls_improve_policy(self, monkeypatch):
        calls = {"validate_f_bound": 0, "improve_policy": 0}
        modules = [hjbpi] + [importlib.import_module(f"hjbpi.{name}")
                             for name in ("problem", "scheme", "pi", "legendre", "analysis",
                                          "cli")]
        for name in calls:
            original = getattr(problem_module, name)

            @functools.wraps(original)
            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)

        _, _, _, run = run_benchmark("eikonal-cos")
        assert run.iterations_used >= 3
        assert calls == {"validate_f_bound": 1, "improve_policy": 0}


def reference_policy_l2_distance(problem, policies, fixed_policies, mask):
    """The level-by-level loop the blocked fold must equal bit for bit."""
    elements = problem.controls.elements
    worst = 0.0
    for pol, ref in zip(policies, fixed_policies):
        diff = elements[pol[mask]] - elements[ref[mask]]
        worst = max(worst, float(np.sqrt(np.sum(diff * diff))))
    return worst


class TestPolicyDistance:
    @pytest.mark.parametrize("seed", range(100))
    def test_blocked_fold_matches_the_per_level_loop(self, seed):
        # up to 20,000 points: wide rows make blocks of one level
        rng = np.random.default_rng(seed)
        controls = ControlSet(rng.normal(size=(int(rng.integers(1, 30)),
                                               int(rng.integers(1, 3)))))
        problem = SimpleNamespace(controls=controls)
        shape = (int(rng.integers(1, 60)), int(rng.choice([5, 201, 628, 20000])))
        policies, fixed = (rng.integers(0, controls.size, size=shape).astype(
            controls.index_dtype) for _ in range(2))
        if seed % 3 == 0:  # a broadcast initial policy
            policies = np.broadcast_to(policies[0], shape)
        mask = rng.uniform(size=shape[1]) < 0.8
        assert (_policy_l2_distance(problem, policies, fixed, mask)
                == reference_policy_l2_distance(problem, policies, fixed, mask))

    def test_zero_for_identical_policies(self):
        _, _, _, run = run_benchmark("zero")
        assert run.policy_l2[0] == 0.0

    def test_zero_for_singleton_control_set(self):
        _, _, _, run = run_benchmark("transport-sin")
        assert np.all(run.policy_l2 == 0.0)

    def test_lq_reaches_sampling_floor(self):
        bench = get_benchmark("quadratic-lq")
        grid = bench.make_grid(0.05)
        params = SchemeParams.create(grid.spacing, 1.0, 1.0)
        pols = lq_feedback_policies(bench.problem, grid, params)
        run = run_policy_iteration(bench.problem, grid, params,
                                   PIConfig(initial_policy=pols, max_iterations=40))
        spacing = np.diff(bench.problem.controls.elements[:, 0]).max()
        floor = spacing * np.sqrt(np.count_nonzero(run.measured_mask))
        n = min(20, run.iterations_used - 1)
        assert run.policy_l2[n] <= floor
        tail = run.policy_l2[2:]
        assert np.all(np.diff(tail) <= 1e-12)


def test_pi_config_validation():
    with pytest.raises(ConfigurationError):
        PIConfig(max_iterations=0)
    with pytest.raises(ConfigurationError):
        PIConfig(stop_tolerance=0.0)


@st.composite
def pi_cases(draw, cfl):
    """A random problem, grid and scheme for PI, with tau = cfl * h / (2 d N).

    d = 1 or 2, each axis periodic or clamped; controls of norm up to
    ``amplitude`` drive f = a, so N >= max(1, amplitude / 2) is admissible.
    On clamped grids the horizon is short enough that the measured region
    (points amplitude * T inside the box) is not empty.
    """
    dim = draw(st.sampled_from((1, 2)))
    points = draw(st.integers(min_value=3, max_value=12 if dim == 1 else 6))
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    h = draw(st.floats(min_value=0.05, max_value=0.5))
    amplitude = draw(st.floats(min_value=0.25, max_value=3.0))
    N = max(1.0, amplitude / 2.0) * draw(st.floats(min_value=1.0, max_value=2.0))
    tau = draw(cfl) * h / (2.0 * dim * N)
    max_steps = 12 if all(periodic) else max(1, dim * ((points - 1) // 2))
    steps = draw(st.integers(min_value=1, max_value=max_steps))
    count = draw(st.integers(min_value=2, max_value=7))
    if dim == 1:
        controls = ControlSet(amplitude * np.linspace(-1.0, 1.0, count))
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, count + 1, endpoint=False)
        controls = ControlSet(amplitude * np.stack([np.cos(angles), np.sin(angles)], axis=-1))
    weight = draw(st.floats(min_value=-1.0, max_value=1.0))
    problem = ControlProblem(
        dynamics=lambda t, x, a: np.broadcast_to(a, x.shape),
        running_cost=lambda t, x, a: 0.5 * np.sum(a * a) + weight * np.sin(x[..., 0]) * a[0],
        terminal_cost=lambda x: np.cos(2.0 * x[..., 0]) + np.sin(x[..., -1]),
        controls=controls,
        f_sup_bound=amplitude,
        time_invariant=True,
    )
    grid = Grid(spacing=h, points_per_axis=(points,) * dim, origin=(-0.3,) * dim,
                periodic=periodic)
    params = SchemeParams(h=h, tau=tau, N=N, T=steps * tau, steps=steps, dim=dim)
    start = random_policies(problem, grid, params, seed=draw(st.integers(0, 2**32 - 1)))
    return problem, grid, params, start


def assert_pi_invariants(problem, grid, params, start):
    run = run_policy_iteration(problem, grid, params,
                               PIConfig(initial_policy=start, max_iterations=50))
    # iterates never rise and stay at or above the direct solve
    assert np.max(run.monotonicity_worst) <= MONOTONE_SLACK
    assert run.monotonicity_violation_count == 0
    assert np.max(run.fixed_point_excess) <= MONOTONE_SLACK
    # replaying the direct solve's recorded argmins is bitwise, near ties
    # within ARGMIN_TOL included
    fixed = run.fixed_point
    replay = evaluate_policy(problem, grid, params, fixed.policy_slices[1:])
    assert replay.values.tobytes() == fixed.values.tobytes()


@pytest.mark.parametrize("h", [0.01, 0.025])
def test_eikonal_replay_is_bitwise_through_near_ties(h):
    # the recorded argmins of these solves hold near ties: controls within
    # ARGMIN_TOL of the minimum whose candidate is not the minimum itself
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(h)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
    fixed = solve_hjb_direct(bench.problem, grid, params)
    replay = evaluate_policy(bench.problem, grid, params, fixed.policy_slices[1:])
    assert replay.values.tobytes() == fixed.values.tobytes()
    assert replay.policy_slices.tobytes() == fixed.policy_slices.tobytes()


@settings(max_examples=30, deadline=None)
@given(pi_cases(st.floats(min_value=0.1, max_value=1.0, exclude_max=True)))
def test_pi_invariants_on_random_grids(case):
    assert_pi_invariants(*case)


@settings(max_examples=20, deadline=None)
@given(pi_cases(st.just(1.0)))
def test_pi_invariants_at_cfl_equality(case):
    # 2 d N tau = h: the largest admissible step, where the diagonal weight is 0
    assert_pi_invariants(*case)
