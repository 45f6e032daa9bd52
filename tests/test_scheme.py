from dataclasses import replace

import numpy as np
import pytest

from hjbpi.benchmarks import get_benchmark, lq_feedback_policies
from hjbpi.errors import CFLValidationError, ConfigurationError, NumericalBlowupError
from hjbpi.grid import Field, Grid, gradient_central_values
from hjbpi.pi import PIConfig, build_initial_policies, run_policy_iteration
from hjbpi.problem import (
    ControlProblem,
    ControlSet,
    _candidate_tensors,
    _candidates,
    _shaped,
    rollout_cost,
)
from hjbpi.scheme import (
    SchemeParams,
    _check_values,
    apply_step_operator,
    cfl_report,
    evaluate_policy,
    solve_hjb_direct,
)

BENCH_NAMES = ("quadratic-lq", "eikonal-cos", "transport-sin", "zero")


def bench_setup(name, h=0.1, T=1.0, tau=None):
    bench = get_benchmark(name)
    grid = bench.make_grid(h)
    params = SchemeParams.create(grid.spacing, T, bench.problem.f_sup_bound, tau=tau)
    return bench, grid, params


class TestSchemeParams:
    def test_defaults(self):
        p = SchemeParams.create(0.1, 1.0, f_sup_bound=1.0)
        assert p.N == 1.0 and p.tau == 0.05 and p.steps == 20
        assert p.steps * p.tau == pytest.approx(p.T, abs=1e-15)

    def test_viscosity_default_tracks_f_bound(self):
        p = SchemeParams.create(0.1, 1.0, f_sup_bound=6.0)
        assert p.N == 3.0 and p.tau <= 0.1 / 6.0 + 1e-15

    def test_tau_adjusted_downward_to_divide_horizon(self):
        p = SchemeParams.create(0.1, 1.0, f_sup_bound=1.0, tau=0.03)
        assert p.steps == 34 and p.tau == pytest.approx(1.0 / 34.0)
        assert p.tau <= 0.03

    def test_dimension_aware_default_step(self):
        p = SchemeParams.create(0.1, 1.0, f_sup_bound=1.0, dim=2)
        assert p.tau <= 0.1 / 4.0 + 1e-15

    def test_construction_rejects_bad_triples(self):
        with pytest.raises(CFLValidationError):
            SchemeParams(h=0.1, tau=0.1, N=1.0, T=1.0, steps=10)
        with pytest.raises(CFLValidationError):
            SchemeParams(h=0.1, tau=0.01, N=0.5, T=1.0, steps=100)
        with pytest.raises(CFLValidationError):
            SchemeParams.create(1.5, 1.0, f_sup_bound=1.0)
        with pytest.raises(CFLValidationError):
            SchemeParams.create(0.1, 1.0, f_sup_bound=4.0, N=1.5)

    def test_times_hit_horizon_exactly(self):
        p = SchemeParams.create(0.05, 1.0, f_sup_bound=1.0, tau=1.0 / 3.0 * 0.05)
        assert p.time(p.steps) == p.T
        assert p.time(0) == 0.0


class TestCFLReport:
    def test_boundary_case_accepted(self):
        report = cfl_report(h=0.1, tau=0.05, N=1.0, f_sup_bound=2.0)
        assert report.ok and report.lower_bound == 1.0 and report.upper_bound == 1.0

    def test_upper_violation(self):
        report = cfl_report(h=0.1, tau=0.1, N=1.0, f_sup_bound=1.0)
        assert not report.ok and report.lower_ok and not report.upper_ok
        assert "admissible tau" in report.message()

    def test_lower_violation(self):
        report = cfl_report(h=0.1, tau=0.01, N=1.5, f_sup_bound=4.0)
        assert not report.ok and not report.lower_ok and report.upper_ok

    def test_report_on_constructed_params(self):
        p = SchemeParams.create(0.1, 1.0, f_sup_bound=1.0)
        assert cfl_report(p.h, p.tau, p.N, 1.0, p.dim).ok
        assert not cfl_report(p.h, p.tau, p.N, 5.0, p.dim).ok

    def test_two_dimensional_step_bound(self):
        # the centre weight 1 - 2 d N tau / h must stay >= 0 in d dimensions
        with pytest.raises(CFLValidationError) as err:
            SchemeParams.create(0.1, 1.0, 1.0, tau=0.05, N=1.0, dim=2)
        assert "h/(2 d tau) with d=2" in str(err.value)
        with pytest.raises(CFLValidationError):
            SchemeParams(h=0.1, tau=0.05, N=1.0, T=1.0, steps=20, dim=2)
        p = SchemeParams.create(0.1, 1.0, 1.0, tau=0.025, N=1.0, dim=2)
        assert p.dim == 2 and p.tau == 0.025 and cfl_report(p.h, p.tau, p.N, 1.0, 2).ok
        report = cfl_report(0.1, 0.05, 1.0, 1.0, dim=2)
        assert not report.upper_ok and report.upper_bound == 0.5
        assert report.admissible_tau_max == 0.025

    @pytest.mark.parametrize("h, N, dim", [(0.1, 1.0, 2), (0.3, 1.5, 2),
                                           (2 * np.pi / 31, 1.0, 2), (0.2, 2.5, 3)])
    def test_equality_case_accepted_in_every_dimension(self, h, N, dim):
        tau = h / (2.0 * dim * N)
        assert cfl_report(h, tau, N, 2.0 * N, dim).ok
        p = SchemeParams.create(h, 1.0, 2.0 * N, tau=tau, N=N, dim=dim)
        SchemeParams(h=p.h, tau=p.tau, N=p.N, T=p.T, steps=p.steps, dim=dim)
        with pytest.raises(CFLValidationError):
            SchemeParams.create(h, 1.0, 2.0 * N, tau=tau * 1.001, N=N, dim=dim)

    def test_one_dimensional_message_unchanged(self):
        assert "N=1.0 > h/(2 tau)=0.5" in cfl_report(0.1, 0.1, 1.0, 1.0).message()


def diffusion_only_problem(dim=1):
    return ControlProblem(
        dynamics=lambda t, x, a: np.zeros_like(x),
        running_cost=lambda t, x, a: 0.0,
        terminal_cost=lambda x: np.zeros(x.shape[:-1]),
        controls=ControlSet.singleton([0.0] if dim == 1 else [0.0]),
        f_sup_bound=0.0,
    )


class TestStepOperator:
    def test_pure_diffusion_keeps_constants(self):
        prob = diffusion_only_problem()
        grid = Grid(spacing=0.1, points_per_axis=(16,))
        params = SchemeParams.create(0.1, 1.0, 0.0)
        u = Field(grid, np.full(grid.npoints, 4.2), params.tau)
        out = apply_step_operator(prob, params, params.tau, u)
        assert np.array_equal(out.values, u.values)
        assert out.time_label == 0.0

    def test_constant_field_gains_min_cost(self):
        bench, grid, params = bench_setup("eikonal-cos")
        K = 2.0
        u = Field(grid, np.full(grid.npoints, K), params.tau)
        out = apply_step_operator(bench.problem, params, params.tau, u)
        assert np.allclose(out.values, K + params.tau * 1.0, atol=1e-15)

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_monotone_on_ordered_pairs(self, name):
        bench, grid, params = bench_setup(name)
        rng = np.random.default_rng(17)
        t = params.time(params.steps // 2 + 1)
        for _ in range(20):
            u = rng.uniform(-1.0, 1.0, grid.npoints)
            v = u + rng.uniform(0.0, 1.0, grid.npoints)
            fu = apply_step_operator(bench.problem, params, t, Field(grid, u, t))
            fv = apply_step_operator(bench.problem, params, t, Field(grid, v, t))
            assert np.all(fu.values <= fv.values + 1e-14)

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_commutes_with_constants(self, name):
        bench, grid, params = bench_setup(name)
        rng = np.random.default_rng(23)
        t = params.time(1)
        u = rng.uniform(-1.0, 1.0, grid.npoints)
        K = 3.14
        fu = apply_step_operator(bench.problem, params, t, Field(grid, u, t))
        fuk = apply_step_operator(bench.problem, params, t, Field(grid, u + K, t))
        assert np.allclose(fuk.values, fu.values + K, atol=1e-13)

    def test_step_below_zero_rejected(self):
        bench, grid, params = bench_setup("zero")
        u = Field(grid, np.zeros(grid.npoints), 0.0)
        with pytest.raises(ConfigurationError):
            apply_step_operator(bench.problem, params, params.tau / 4.0, u)


class TestEvaluatePolicy:
    def test_constant_terminal_is_preserved_without_cost(self):
        bench = get_benchmark("zero")
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 1.0, 1.0)
        prob = ControlProblem(
            dynamics=bench.problem.dynamics,
            running_cost=bench.problem.running_cost,
            terminal_cost=lambda x: np.full(x.shape[:-1], 9.5),
            controls=bench.problem.controls,
            f_sup_bound=1.0,
        )
        from hjbpi.pi import build_initial_policies

        policies = build_initial_policies(prob, grid, params, "first-control")
        sol = evaluate_policy(prob, grid, params, policies)
        for s in sol.values:
            assert np.array_equal(s, np.full(grid.npoints, 9.5))

    def test_pure_quadrature_of_unit_cost(self):
        prob = ControlProblem(
            dynamics=lambda t, x, a: np.zeros_like(x),
            running_cost=lambda t, x, a: 1.0,
            terminal_cost=lambda x: np.zeros(x.shape[:-1]),
            controls=ControlSet.singleton([0.0]),
            f_sup_bound=0.0,
        )
        grid = Grid(spacing=0.1, points_per_axis=(8,))
        params = SchemeParams.create(0.1, 1.0, 0.0)
        from hjbpi.pi import build_initial_policies

        policies = build_initial_policies(prob, grid, params, "first-control")
        sol = evaluate_policy(prob, grid, params, policies)
        for k, s in enumerate(sol.values):
            assert np.allclose(s, params.T - params.time(k), atol=1e-12)

    def test_transport_against_exact_solution(self):
        bench, grid, params = bench_setup("transport-sin")
        from hjbpi.pi import build_initial_policies

        policies = build_initial_policies(bench.problem, grid, params, "first-control")
        sol = evaluate_policy(bench.problem, grid, params, policies)
        X = grid.coordinates()[:, 0]
        worst = 0.0
        for k, s in enumerate(sol.values):
            exact = np.sin(X + (params.T - params.time(k)))
            worst = max(worst, float(np.max(np.abs(s - exact))))
        fitted_c = worst / ((grid.spacing + params.N * grid.spacing) * params.T)
        assert fitted_c <= 5.0

    def test_level_count_validated(self):
        bench, grid, params = bench_setup("zero")
        from hjbpi.pi import build_initial_policies

        policies = build_initial_policies(bench.problem, grid, params, "first-control")
        with pytest.raises(ConfigurationError):
            evaluate_policy(bench.problem, grid, params, policies[:-1])

    @pytest.mark.parametrize("change, message", [
        (lambda p: p + 2, "out of range"),
        (lambda p: p - 1, "out of range"),
        (lambda p: p + 0.5, "must be integers"),  # rejected, not truncated
        (lambda p: p[:, :-1], "policy array"),
    ], ids=["index-too-large", "negative-index", "float", "wrong-shape"])
    def test_policy_array_validated(self, change, message):
        bench, grid, params = bench_setup("eikonal-cos")  # two controls
        policies = change(np.zeros((params.steps, grid.npoints), dtype=np.int64))
        with pytest.raises(ConfigurationError, match=message):
            evaluate_policy(bench.problem, grid, params, policies)
        with pytest.raises(ConfigurationError, match=message):
            rollout_cost(bench.problem, grid, params, policies, (0.0, [0.4]), params.tau)


class TestDirectSolve:
    def test_zero_benchmark_is_identically_zero(self):
        bench, grid, params = bench_setup("zero")
        sol = solve_hjb_direct(bench.problem, grid, params)
        assert np.array_equal(sol.values_array(), np.zeros((params.steps + 1, grid.npoints)))

    def test_terminal_slice_is_sampled_terminal_cost_bitwise(self):
        bench, grid, params = bench_setup("eikonal-cos")
        sol = solve_hjb_direct(bench.problem, grid, params)
        assert np.array_equal(sol.values[-1],
                              bench.problem.terminal_cost(grid.coordinates()))

    def test_eikonal_full_period_reaches_flat_value(self):
        # with T = pi the reachable ball covers a period: v = pi - 1 everywhere;
        # the added viscosity keeps the deviation at the sqrt(h) scale
        bench = get_benchmark("eikonal-cos")
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, float(np.pi), 1.0)
        sol = solve_hjb_direct(bench.problem, grid, params)
        dev = np.max(np.abs(sol.values[0] - (np.pi - 1.0)))
        assert dev <= np.sqrt(grid.spacing)

    def test_quadratic_lq_value_vanishes(self):
        bench, grid, params = bench_setup("quadratic-lq", h=0.05)
        sol = solve_hjb_direct(bench.problem, grid, params)
        mask = grid.interior_mask(bench.problem.f_sup_bound * params.T)
        assert np.max(np.abs(sol.values_array()[:, mask])) <= 1e-12

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_apriori_bound(self, name):
        bench, grid, params = bench_setup(name)
        sol = solve_hjb_direct(bench.problem, grid, params)
        assert sol.bound_excess() <= 1e-9

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_policy_replay_reproduces_direct_solve(self, name):
        bench, grid, params = bench_setup(name)
        sol = solve_hjb_direct(bench.problem, grid, params)
        replay = evaluate_policy(bench.problem, grid, params, sol.policy_slices[1:])
        diff = np.abs(replay.values_array() - sol.values_array())
        assert np.max(diff) <= 1e-12

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_discrete_lipschitz_constant_does_not_grow(self, name):
        # all benchmark data are x-independent, so the monotone scheme is
        # nonexpansive under translations: |D_h V(t)| stays below |D_h q|
        bench, grid, params = bench_setup(name)
        sol = solve_hjb_direct(bench.problem, grid, params)
        lip_q = np.max(np.abs(gradient_central_values(grid, sol.values[-1])))
        for s in sol.values:
            lip = np.max(np.abs(gradient_central_values(grid, s)))
            assert lip <= lip_q * (1.0 + 1e-9) + 1e-12

    def test_two_dimensional_eikonal_tracks_oracle(self):
        # 16 unit directions approximate the Euclidean eikonal Hamiltonian;
        # the d-aware default step keeps the 2D stencil monotone
        from hjbpi.analysis import hopf_lax_oracle

        angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        prob = ControlProblem(
            dynamics=lambda t, x, a: np.broadcast_to(a, x.shape),
            running_cost=lambda t, x, a: 1.0,
            terminal_cost=lambda x: np.cos(x[..., 0]) + np.cos(x[..., 1]),
            controls=ControlSet(np.stack([np.cos(angles), np.sin(angles)], axis=-1)),
            f_sup_bound=1.0,
        )
        n = 31
        grid = Grid(spacing=2 * np.pi / n, points_per_axis=(n, n))
        params = SchemeParams.create(grid.spacing, 1.0, 1.0, dim=2)
        sol = solve_hjb_direct(prob, grid, params)
        assert sol.bound_excess() <= 1e-9
        for probe in ([1.0, 2.0], [3.0, 3.0], [5.0, 1.5], [0.7, 4.9]):
            idx = grid.nearest_index(probe)
            exact = hopf_lax_oracle(prob.terminal_cost, 1.0, 0.0, 1.0,
                                    grid.coordinates()[idx], 1.0,
                                    initial_samples=501, tol=1e-5)
            assert abs(sol.values[0][idx] - exact) <= np.sqrt(grid.spacing)

    def test_blowup_detected_beyond_stability_region(self):
        # in 2D the equality case of the 1D step bound over-drives the
        # diagonal stencil weight; a rough field then grows ~3x per step
        # and must trip the a-priori threshold
        prob = ControlProblem(
            dynamics=lambda t, x, a: np.zeros_like(x),
            running_cost=lambda t, x, a: 0.0,
            terminal_cost=lambda x: 0.5 * np.where(
                (np.round(x[..., 0] / 0.1) + np.round(x[..., 1] / 0.1)) % 2 == 0, 1.0, -1.0),
            controls=ControlSet.singleton([0.0]),
            f_sup_bound=0.0,
        )
        grid = Grid(spacing=0.1, points_per_axis=(8, 8))
        params = SchemeParams(h=0.1, tau=0.05, N=1.0, T=1.0, steps=20)
        with pytest.raises(NumericalBlowupError) as err:
            solve_hjb_direct(prob, grid, params)
        assert err.value.point is not None


@pytest.mark.parametrize("values, threshold, point, message", [
    ([0.5, np.nan, 9.0, np.inf], 2.0, 1, "non-finite value at t=0.25, linear index 1"),
    ([0.5, 9.0, -np.inf], 2.0, 2, "non-finite value at t=0.25, linear index 2"),
    ([0.5, -3.0, 9.0], 2.0, 1,
     "value -3 at t=0.25, linear index 1 exceeds the a-priori threshold 2"),
    ([1e300, np.inf], None, 1, "non-finite value at t=0.25, linear index 1"),
])
def test_check_values_reports_first_bad_point(values, threshold, point, message):
    with pytest.raises(NumericalBlowupError) as err:
        _check_values(np.array(values), 0.25, threshold)
    assert str(err.value) == message
    assert err.value.point == point and err.value.time_label == 0.25


def test_check_values_accepts_the_threshold_itself():
    _check_values(np.array([-2.0, 2.0, 0.0]), 0.25, 2.0)
    _check_values(np.array([1e300, -1e300]), 0.25, None)


def reference_candidates(problem, t, points, grads):
    # the per-control loop the candidate tensors replace, kept as the reference
    n = points.shape[0]
    cand = np.empty((n, problem.controls.size))
    for j, a in enumerate(problem.controls.elements):
        fj = _shaped(problem.dynamics(t, points, a), points.shape)
        cj = _shaped(problem.running_cost(t, points, a), (n,))
        cand[:, j] = cj + np.sum(grads * fj, axis=-1)
    return cand


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


ANGLES = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
TENSOR_GRIDS = {
    "1d-periodic": (Grid(spacing=2 * np.pi / 40, points_per_axis=(40,)),
                    ControlSet.uniform(-1.0, 1.0, 7)),
    "2d-clamped": (Grid(spacing=0.2, points_per_axis=(7, 6), origin=(-0.6, -0.5),
                        periodic=(False, False)),
                   ControlSet(np.stack([np.cos(ANGLES), np.sin(ANGLES)], axis=-1))),
    "3d-periodic": (Grid(spacing=0.5, points_per_axis=(4, 3, 3)),
                    ControlSet(np.array([[0.5, -1.0, 0.25], [-0.75, 0.5, 1.0],
                                         [0.0, 0.0, 0.0], [1.0, 1.0, -1.0]]))),
}
CALLBACK_SHAPES = {
    "scalar": (lambda t, x, a: a[0], lambda t, x, a: 0.5 * a[0] * a[0]),
    "full": (lambda t, x, a: np.sin(x + a[0]) * a[-1],
             lambda t, x, a: x[..., 0] * a[0] - np.cos(x[..., -1])),
    "broadcast-row": (lambda t, x, a: np.resize(a, x.shape[-1]),
                      lambda t, x, a: [0.5 * a[-1]]),
    "broadcast-column": (lambda t, x, a: x[..., :1] * a[0],
                         lambda t, x, a: np.float64(a[0])),
    "signed-zeros": (lambda t, x, a: np.where(x > 0.0, a[0], -0.0),
                     lambda t, x, a: np.where(x[..., 0] > 0.0, 0.0, -0.0)),
}


def tensor_problem(grid_name, shape_name, time_invariant=True):
    grid, controls = TENSOR_GRIDS[grid_name]
    dynamics, running_cost = CALLBACK_SHAPES[shape_name]
    return grid, ControlProblem(
        dynamics=dynamics, running_cost=running_cost,
        terminal_cost=lambda x: np.cos(2.0 * x[..., 0]) * np.sign(x[..., -1]),
        controls=controls, f_sup_bound=7.0, time_invariant=time_invariant)


class TestCandidateTensors:
    @pytest.mark.parametrize("shape_name", sorted(CALLBACK_SHAPES))
    @pytest.mark.parametrize("grid_name", sorted(TENSOR_GRIDS))
    def test_tensor_form_matches_per_control_loop_bitwise(self, grid_name, shape_name):
        grid, prob = tensor_problem(grid_name, shape_name)
        rng = np.random.default_rng(3)
        # rounded values leave exact zero (and, negated, -0.0) gradients
        for values in (np.round(rng.normal(size=grid.npoints), 1),
                       -np.round(rng.normal(size=grid.npoints), 1),
                       rng.normal(size=grid.npoints) * 1e3):
            grads = gradient_central_values(grid, values)
            points = grid.coordinates()
            got = _candidates(_candidate_tensors(prob, 0.5, points), grads)
            assert same_bits(got, reference_candidates(prob, 0.5, points, grads))

    @pytest.mark.parametrize("shape_name", sorted(CALLBACK_SHAPES))
    @pytest.mark.parametrize("grid_name", sorted(TENSOR_GRIDS))
    def test_flagged_sweeps_equal_per_level_builds_bitwise(self, grid_name, shape_name):
        grid, flagged = tensor_problem(grid_name, shape_name)
        plain = replace(flagged, time_invariant=False)
        params = SchemeParams.create(grid.spacing, 0.4, flagged.f_sup_bound, dim=grid.dim)
        direct = [solve_hjb_direct(p, grid, params) for p in (flagged, plain)]
        rng = np.random.default_rng(7)
        policies = rng.integers(0, flagged.controls.size, (params.steps, grid.npoints))
        evaluated = [evaluate_policy(p, grid, params, policies) for p in (flagged, plain)]
        for a, b in (direct, evaluated):
            assert (a.q_sup, a.c_sup) == (b.q_sup, b.c_sup)
            assert same_bits(a.values_array(), b.values_array())
            assert same_bits(a.policy_slices, b.policy_slices)

    def test_time_varying_problem_gets_candidates_at_every_level(self):
        seen = set()

        def dynamics(t, x, a):
            seen.add(t)
            return a[0] * (1.0 + t)

        bench = get_benchmark("quadratic-lq")
        prob = ControlProblem(dynamics=dynamics, running_cost=bench.problem.running_cost,
                              terminal_cost=lambda x: np.abs(x[..., 0]),
                              controls=bench.problem.controls, f_sup_bound=2.0)
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 1.0, 2.0)
        sol = solve_hjb_direct(prob, grid, params)
        assert {params.time(k) for k in range(1, params.steps + 1)} <= seen
        # stepping level by level at each level's own time is the reference
        field = Field(grid, sol.values[params.steps], params.T)
        for k in range(params.steps, 0, -1):
            field = apply_step_operator(prob, params, params.time(k), field)
            assert same_bits(field.values, sol.values[k - 1])
        wrong = solve_hjb_direct(replace(prob, time_invariant=True), grid, params)
        assert not np.array_equal(wrong.values[0], sol.values[0])

    @pytest.mark.parametrize("time_invariant", [True, False])
    def test_callback_calls_per_pi_run(self, time_invariant):
        calls = {"dynamics": 0, "running_cost": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        bench = get_benchmark("quadratic-lq")
        prob = replace(bench.problem, time_invariant=time_invariant,
                       dynamics=counted("dynamics", bench.problem.dynamics),
                       running_cost=counted("running_cost", bench.problem.running_cost))
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 1.0, 1.0)
        run = run_policy_iteration(prob, grid, params, PIConfig(
            initial_policy=lq_feedback_policies(prob, grid, params)))
        k, sweeps = prob.controls.size, 1 + run.iterations_used
        assert run.iterations_used > 1
        # 2k callback calls per sweep when flagged, 2k per level otherwise,
        # plus the sup-norm and |f| checks at one probe time or nine
        per_sweep, probes = (1, 1) if time_invariant else (params.steps, 9)
        expected = k * (sweeps * per_sweep + probes)
        assert calls == {"dynamics": expected, "running_cost": expected}

    def test_argmin_of_c_start_takes_one_argmin_when_flagged(self):
        calls = []
        bench = get_benchmark("quadratic-lq")
        costs = bench.problem.running_cost
        shifted = replace(bench.problem,
                          running_cost=lambda t, x, a: calls.append(t) or costs(t, x, a) + x[..., 0] * a[0])
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 1.0, 1.0)
        flagged = build_initial_policies(shifted, grid, params, "argmin-of-c")
        assert len(calls) == shifted.controls.size
        plain = build_initial_policies(replace(shifted, time_invariant=False), grid, params,
                                       "argmin-of-c")
        assert len(calls) == shifted.controls.size * (1 + params.steps)
        assert flagged.shape == (params.steps, grid.npoints)
        assert same_bits(flagged, plain)
        assert len(set(flagged[0].tolist())) > 1
