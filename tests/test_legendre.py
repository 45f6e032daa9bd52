import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbpi import legendre as legendre_module
from hjbpi.benchmarks import get_benchmark
from hjbpi.errors import ConfigurationError
from hjbpi.grid import Grid
from hjbpi.legendre import (
    LINEARIZE_BLOCK,
    ConvexHamiltonian,
    generalized_pi,
    legendre_resolution,
    legendre_scheme,
    legendre_transform_numeric,
    modify_hamiltonian,
    reverse_time_slices,
)
from hjbpi.pi import MONOTONE_SLACK, PIConfig, run_policy_iteration
from hjbpi.problem import ControlProblem, ControlSet
from hjbpi.scheme import SchemeParams, solve_hjb_direct


GRID = get_benchmark("eikonal-cos").make_grid(0.2)


def quadratic_h(analytic=True):
    return ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
        grad_p=(lambda t, x, p: np.asarray(p, dtype=float)) if analytic else None,
        legendre_L=(lambda t, x, mu: 0.5 * np.sum(np.asarray(mu) ** 2, axis=-1))
        if analytic else None,
    )


def run_legendre(H, q, grid, T, M, tau=None, **kwargs):
    """``generalized_pi`` on the clip and parameters ``legendre_scheme`` builds."""
    clipped, params = legendre_scheme(H, M, grid, T, tau)
    return generalized_pi(clipped, q, grid, params, **kwargs)


def abs_h():
    return ConvexHamiltonian(
        func=lambda t, x, p: np.sqrt(np.sum(np.asarray(p) ** 2, axis=-1)))


class TestNumericTransform:
    def test_self_dual_quadratic(self):
        H = quadratic_h(analytic=False)
        assert legendre_transform_numeric(H, 0.0, [0.0], [1.0]) == pytest.approx(
            0.5, abs=1e-3)
        for mu in (-1.7, -0.3, 0.0, 0.9):
            assert legendre_transform_numeric(H, 0.0, [0.0], [mu]) == pytest.approx(
                0.5 * mu * mu, abs=1e-3)

    def test_norm_dual_is_ball_indicator(self):
        H = abs_h()
        assert legendre_transform_numeric(H, 0.0, [0.0], [0.5]) == pytest.approx(
            0.0, abs=1e-3)
        # outside the unit ball the sup is cut off by the probe radius
        assert legendre_transform_numeric(H, 0.0, [0.0], [2.0]) >= 4.0

    def test_fenchel_young_on_probes(self):
        H = quadratic_h(analytic=False)
        rng = np.random.default_rng(12)
        mus = rng.uniform(-2.0, 2.0, size=40)
        ps = rng.uniform(-2.0, 2.0, size=40)
        duals = {mu: legendre_transform_numeric(H, 0.0, [0.0], [mu]) for mu in mus}
        for mu in mus:
            for p in ps:
                assert duals[mu] + 0.5 * p * p >= p * mu - 1e-3

    def test_two_dimensional_quadratic(self):
        H = ConvexHamiltonian(
            func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1))
        got = legendre_transform_numeric(H, 0.0, [0.0, 0.0], [1.0, -0.5])
        assert got == pytest.approx(0.5 * 1.25, abs=1e-3)


class TestModifyHamiltonian:
    def test_probed_constants_for_quadratic(self):
        mod = modify_hamiltonian(quadratic_h(), 1.0, GRID, 1.0)
        assert mod.m1 == pytest.approx(2.0, abs=1e-12)
        assert mod.m2 == pytest.approx(2.5, abs=1e-12)
        assert mod.N == pytest.approx(1.25, abs=1e-12)

    def test_m2_floor_is_two(self):
        flat = ConvexHamiltonian(func=lambda t, x, p: np.zeros(np.asarray(p).shape[:-1]))
        mod = modify_hamiltonian(flat, 1.0, GRID, 1.0)
        assert mod.m2 == 2.0 and mod.N == 1.0

    def test_inner_branch_is_exact(self):
        mod = modify_hamiltonian(quadratic_h(), 1.0, GRID, 1.0)
        p = np.array([[0.3], [-1.9], [2.0]])
        x = np.zeros((3, 1))
        assert np.array_equal(mod.value(0.0, x, p), 0.5 * p[:, 0] ** 2)

    def test_outer_branch_value(self):
        M = 1.0
        mod = modify_hamiltonian(quadratic_h(), M, GRID, 1.0)
        x = np.zeros((1, 1))
        got = mod.value(0.0, x, np.array([[4.0 * M]]))[0]
        assert got == pytest.approx(mod.m1 + 2.0 * M * mod.m2, abs=1e-12)

    def test_continuity_at_branch_boundaries(self):
        mod = modify_hamiltonian(quadratic_h(), 1.0, GRID, 1.0)
        x = np.zeros((1, 1))
        for radius in (2.0, 3.0):
            for sign in (-1.0, 1.0):
                below = mod.value(0.0, x, np.array([[sign * (radius - 1e-10)]]))[0]
                above = mod.value(0.0, x, np.array([[sign * (radius + 1e-10)]]))[0]
                assert abs(above - below) <= 1e-9

    def test_gradient_capped_by_m2(self):
        mod = modify_hamiltonian(quadratic_h(), 1.0, GRID, 1.0)
        rng = np.random.default_rng(4)
        p = rng.uniform(-8, 8, size=(200, 1))
        g = mod.gradient(0.0, np.zeros((200, 1)), p)
        assert np.max(np.abs(g)) <= mod.m2 * (1 + 1e-9)

    def test_non_convex_rejected(self):
        bumpy = ConvexHamiltonian(func=lambda t, x, p: -np.sum(np.asarray(p) ** 2, axis=-1))
        with pytest.raises(ConfigurationError):
            modify_hamiltonian(bumpy, 1.0, GRID, 1.0)

    def test_dual_domain_error(self):
        mod = modify_hamiltonian(quadratic_h(analytic=False), 1.0, GRID, 1.0)
        with pytest.raises(ConfigurationError):
            legendre_transform_numeric(mod, 0.0, [0.0], [mod.m2 * 1.5])

    @pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf, 0.0])
    def test_m_must_be_finite_and_positive(self, M):
        with pytest.raises(ConfigurationError, match="must be finite and > 0"):
            modify_hamiltonian(quadratic_h(), M, GRID, 1.0)

    def test_overflowing_probes_rejected(self):
        # |p|^2/2 on |p| = 2e300 is inf, so m1 and m2 cannot be probed
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigurationError, match="are not finite for M=1e"):
                modify_hamiltonian(quadratic_h(), 1e300, GRID, 1.0)

    def test_fd_gradient_matches_analytic(self):
        with_grad = modify_hamiltonian(quadratic_h(True), 1.0, GRID, 1.0)
        without = modify_hamiltonian(quadratic_h(False), 1.0, GRID, 1.0)
        p = np.linspace(-1.9, 1.9, 11)[:, None]
        x = np.zeros((11, 1))
        ga = with_grad.gradient(0.0, x, p)
        gn = without.gradient(0.0, x, p)
        assert np.allclose(ga, gn, atol=1e-9)


class TestProbesFollowTheRun:
    """The clip is probed at the run's grid points and over its whole horizon."""

    @staticmethod
    def assert_capped(mod, grid, times):
        p = np.random.default_rng(3).uniform(-6.0 * mod.M, 6.0 * mod.M, size=(64, grid.dim))
        x = grid.coordinates()[:, None, :]
        for t in times:
            g = mod.gradient(t, x, p)
            assert np.max(np.sqrt(np.sum(g * g, axis=-1))) <= mod.m2 * (1.0 + 1e-6), t

    def test_time_dependent_h_capped_past_t_one(self):
        H = ConvexHamiltonian(func=lambda t, x, p: 0.5 * (1.0 + t) * np.sum(p * p, axis=-1),
                              grad_p=lambda t, x, p: (1.0 + t) * p)
        mod, params = legendre_scheme(H, 2.0, GRID, 3.0)
        self.assert_capped(mod, GRID, [params.time(k) for k in range(params.steps + 1)])

    @pytest.mark.parametrize("analytic", [True, False])
    def test_x_dependent_h_runs_monotone(self, analytic):
        H = ConvexHamiltonian(
            func=lambda t, x, p: 0.5 * (1.0 + 0.05 * x[..., 0] ** 2) * np.sum(p * p, axis=-1),
            time_invariant=True,
            grad_p=(lambda t, x, p: (1.0 + 0.05 * x[..., :1] ** 2) * p) if analytic else None)
        mod, params = legendre_scheme(H, 2.0, GRID, 1.0)
        run = generalized_pi(mod, lambda X: np.cos(X[:, 0]), GRID, params)
        assert run.stop_reason == "tolerance"
        assert run.monotonicity_violation_count == 0
        assert run.worst_monotonicity <= MONOTONE_SLACK
        self.assert_capped(mod, GRID, [0.0])

    def test_two_dimensional_h_reading_the_second_coordinate(self):
        H = ConvexHamiltonian(
            func=lambda t, x, p: 0.5 * (1.0 + x[..., 1] ** 2) * np.sum(p * p, axis=-1),
            grad_p=lambda t, x, p: (1.0 + x[..., 1:] ** 2) * p, time_invariant=True)
        grid = Grid(spacing=0.25, points_per_axis=(5, 9), origin=(0.0, -1.0))
        mod, _ = legendre_scheme(H, 1.0, grid, 1.0)
        # |x_2| reaches 1, where H on |p| = 3M is 0.5 * 2 * 9; at x = 0 it is half that
        assert mod.m2 == pytest.approx((9.0 - 2.0) / 1.0, rel=1e-12)
        self.assert_capped(mod, grid, [0.0])

    def test_two_dimensional_h_probed_with_two_dimensional_p(self):
        # |p|_1^2 / 2 peaks off the axes, where 1-D p never reach: on |p| = 3M = 6
        # its maximum is (6 sqrt 2)^2 / 2 = 36, on |p| = 2M its minimum 8
        H = ConvexHamiltonian(
            func=lambda t, x, p: 0.5 * np.sum(np.abs(p), axis=-1) ** 2,
            grad_p=lambda t, x, p: np.sum(np.abs(p), axis=-1, keepdims=True) * np.sign(p),
            time_invariant=True)
        grid = Grid(spacing=2 * np.pi / 16, points_per_axis=(16, 16))
        mod, _ = legendre_scheme(H, 2.0, grid, 1.0)
        assert mod.m2 == pytest.approx((36.0 - 8.0) / 2.0, rel=1e-12)
        self.assert_capped(mod, grid, [0.0])


def test_linearization_consistency():
    # at mu = grad H(p) the dual closes the Fenchel gap: b p - L(b) = H(p)
    H = quadratic_h(analytic=False)
    mod = modify_hamiltonian(H, 1.0, GRID, 1.0)
    tol = 1e-3
    for p in np.linspace(-1.5, 1.5, 7):
        b = float(mod.gradient(0.0, np.zeros((1, 1)), np.array([[p]]))[0, 0])
        L = legendre_transform_numeric(mod, 0.0, [0.0], [b])
        assert abs(b * p - L - 0.5 * p * p) <= 2 * tol


class TestGeneralizedPI:
    def test_flat_hamiltonian_keeps_constant_data(self):
        flat = ConvexHamiltonian(func=lambda t, x, p: np.zeros(np.asarray(p).shape[:-1]))
        grid = get_benchmark("zero").make_grid(0.1)
        run = run_legendre(flat, lambda X: np.full(X.shape[0], 2.5), grid, 1.0, 1.0,
                           max_iterations=5)
        for f in run.fixed_point:
            assert np.allclose(f, 2.5, atol=1e-13)
        assert run.errors_to_fixed_point[-1] <= 1e-13

    def test_flat_hamiltonian_iterates_are_the_viscous_evolution(self):
        # with no advection and zero dual every linear solve IS the direct
        # recursion, so the first iterate already matches the fixed point
        flat = ConvexHamiltonian(func=lambda t, x, p: np.zeros(np.asarray(p).shape[:-1]))
        grid = get_benchmark("eikonal-cos").make_grid(0.2)
        run = run_legendre(flat, lambda X: np.cos(X[:, 0]), grid, 0.5, 2.0,
                           max_iterations=5)
        assert run.errors_to_fixed_point[0] <= 1e-13
        assert run.iterations_used == 2  # second pass confirms the stop

    def test_quadratic_converges_monotonically(self):
        grid = get_benchmark("eikonal-cos").make_grid(0.1)
        run = run_legendre(quadratic_h(), lambda X: np.cos(X[:, 0]), grid, 1.0, 2.0,
                           max_iterations=60)
        assert run.stop_reason == "tolerance"
        assert run.errors_to_fixed_point[-1] <= 1e-8
        assert run.worst_monotonicity <= 1e-10
        assert run.legendre_resolution == 0.0  # analytic dual in use

    def test_iterate_gradients_bounded_by_m(self):
        M = 2.0  # 1 + |q'|_inf for cosine data
        grid = get_benchmark("eikonal-cos").make_grid(0.1)
        run = run_legendre(quadratic_h(), lambda X: np.cos(X[:, 0]), grid, 1.0, M,
                           max_iterations=60)
        assert float(np.max(run.gradient_sup)) <= M

    def test_numeric_dual_variant_still_monotone(self):
        grid = get_benchmark("eikonal-cos").make_grid(0.2)
        run = run_legendre(quadratic_h(analytic=False), lambda X: np.cos(X[:, 0]),
                           grid, 0.5, 2.0, max_iterations=30)
        assert run.worst_monotonicity <= 1e-10
        assert run.legendre_resolution > 0.0
        assert run.errors_to_fixed_point[-1] <= 1e-8

    def test_matches_control_formulation_through_time_reversal(self):
        # teach the control solver the same problem: f = a on 21 samples of
        # [-1, 1], c = a^2/2, terminal cosine; run it with the *same* N and
        # tau as the generalized iteration and compare reversed in time
        grid = get_benchmark("eikonal-cos").make_grid(0.1)
        run = run_legendre(quadratic_h(), lambda X: np.cos(X[:, 0]), grid, 1.0, 2.0,
                           max_iterations=60)
        prob = ControlProblem(
            dynamics=lambda t, x, a: np.full_like(x, a[0]),
            running_cost=lambda t, x, a: 0.5 * a[0] * a[0],
            terminal_cost=lambda x: np.cos(x[..., 0]),
            controls=ControlSet.uniform(-1.0, 1.0, 21),
            f_sup_bound=1.0,
        )
        params = SchemeParams.create(grid.spacing, 1.0, 1.0, tau=run.params.tau,
                                     N=run.params.N)
        crun = run_policy_iteration(prob, grid, params, PIConfig(max_iterations=80))
        forward = run.last_iterate
        backward = reverse_time_slices(crun.last_iterate)
        assert np.max(np.abs(forward - backward)) <= 2e-2

    def test_advection_distance_reported(self):
        grid = get_benchmark("eikonal-cos").make_grid(0.2)
        run = run_legendre(quadratic_h(), lambda X: np.cos(X[:, 0]), grid, 0.5, 2.0,
                           max_iterations=30)
        assert len(run.advection_l2) == run.iterations_used
        assert run.advection_l2[-1] <= 1e-8


def test_reverse_time_slices_is_the_row_reversed_view():
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.2)
    params = SchemeParams.create(grid.spacing, 0.5, 1.0)
    sol = solve_hjb_direct(bench.problem, grid, params)
    for source in (sol, sol.values):
        reversed_values = reverse_time_slices(source)
        assert np.array_equal(reversed_values, sol.values[::-1])
        assert np.shares_memory(reversed_values, sol.values)


def test_v0_of_the_wrong_shape_rejected(spy):
    grid = get_benchmark("eikonal-cos").make_grid(0.2)
    with spy(legendre_module, "_forward_sweep") as sweeps:
        with pytest.raises(ConfigurationError, match="v0 must have shape"):
            run_legendre(quadratic_h(), lambda X: np.cos(X[:, 0]), grid, 0.5, 2.0,
                         v0=np.zeros((3, grid.npoints)))
    assert sweeps == []  # refused before the direct run


@pytest.mark.parametrize("stop", [dict(max_iterations=0), dict(max_iterations=-3),
                                  dict(stop_tolerance=0.0), dict(stop_tolerance=math.nan),
                                  dict(stop_tolerance=-1.0)])
def test_stop_rule_rejected_as_pi_config_rejects_it(stop):
    grid = get_benchmark("eikonal-cos").make_grid(0.2)
    with pytest.raises(ConfigurationError) as expected:
        PIConfig(**stop)
    with pytest.raises(ConfigurationError, match=str(expected.value)):
        run_legendre(quadratic_h(), lambda X: np.cos(X[:, 0]), grid, 0.5, 2.0, **stop)


def test_non_finite_terminal_cost_rejected():
    grid = get_benchmark("eikonal-cos").make_grid(0.2)
    with pytest.raises(ConfigurationError, match="terminal cost q returned a non-finite"):
        run_legendre(quadratic_h(), lambda X: np.where(X[:, 0] > 1.0, np.nan, 0.0),
                     grid, 0.5, 2.0)


def test_resolution_scales_with_radius():
    # raw default radius 5.0; clipped radius 3M + 2 = 5.0 for M = 1
    expected = 2.0 * (2.0 * 5.0 / 40.0) / 40.0
    assert legendre_resolution(quadratic_h()) == pytest.approx(expected, abs=1e-15)
    mod = modify_hamiltonian(quadratic_h(), 1.0, GRID, 1.0)
    assert legendre_resolution(mod) == pytest.approx(expected, abs=1e-15)


def test_spot_check_convexity_passes_for_convex():
    probes = legendre_module._probes(quadratic_h(), GRID, 1.0)
    quadratic_h().spot_check_convexity(probes, 5.0)
    abs_h().spot_check_convexity(probes, 5.0)


class TestBlockLinearization:
    """A time-invariant H linearizes LINEARIZE_BLOCK levels per call; every
    result must equal the level-by-level run bit for bit."""

    @staticmethod
    def assert_runs_equal(spy, H, grid, T, M=2.0, q=lambda X: np.cos(X[:, 0])):
        """The flagged run and its sweeps: the direct run, then every iterate."""
        runs = []
        for flag in (True, False):
            with spy(legendre_module, "_forward_sweep") as sweeps:
                run = run_legendre(dataclasses.replace(H, time_invariant=flag), q, grid, T,
                                   M, max_iterations=6, stop_tolerance=math.ulp(0.0))
            runs.append((run, sweeps))
        (flagged, flagged_sweeps), (unflagged, unflagged_sweeps) = runs
        assert np.array_equal(flagged.fixed_point, unflagged.fixed_point)
        # the smallest tolerance stops a run only on an exact repeat, after
        # which every further iterate would repeat too
        assert len(flagged_sweeps) == len(unflagged_sweeps) == flagged.iterations_used + 1
        assert flagged.iterations_used == 6 or flagged.stop_reason == "tolerance"
        for a, b in zip(flagged_sweeps, unflagged_sweeps):
            assert np.array_equal(a, b)
        assert np.array_equal(flagged.advection_l2, unflagged.advection_l2)
        assert np.array_equal(flagged.gradient_sup, unflagged.gradient_sup)
        return flagged, flagged_sweeps

    @pytest.mark.parametrize("T", [1.0, 0.05])
    def test_one_dimensional_periodic(self, T, spy):
        grid = get_benchmark("eikonal-cos").make_grid(0.1)
        run, _ = self.assert_runs_equal(spy, quadratic_h(), grid, T)
        # a ragged last block, and a run shorter than one block
        assert run.params.steps % LINEARIZE_BLOCK != 0
        assert (run.params.steps < LINEARIZE_BLOCK) == (T < 1.0)

    def test_two_dimensional(self, spy):
        H = ConvexHamiltonian(
            func=lambda t, x, p: 0.5 * np.sum(p * p, axis=-1),
            grad_p=lambda t, x, p: p,
            legendre_L=lambda t, x, mu: 0.5 * np.sum(mu * mu, axis=-1))
        grid = Grid(spacing=2 * np.pi / 12, points_per_axis=(12, 12))
        run, _ = self.assert_runs_equal(spy, H, grid, 1.0,
                                        q=lambda X: np.cos(X[:, 0]) * np.sin(X[:, 1]))
        assert run.params.steps > LINEARIZE_BLOCK

    def test_numeric_path(self, spy):
        # no grad_p and no legendre_L: finite differences and the Fenchel dual
        grid = get_benchmark("eikonal-cos").make_grid(0.2)
        self.assert_runs_equal(spy, quadratic_h(analytic=False), grid, 1.0)

    def test_grad_p_returning_its_argument(self, spy):
        # a block of p is a view of the gradient rows the sweep overwrites;
        # a grad_p handing p back must give what a copying one gives
        grid = get_benchmark("eikonal-cos").make_grid(0.1)
        same = quadratic_h()
        copying = dataclasses.replace(same, grad_p=lambda t, x, p: np.array(p))
        p = np.ones((2, 3, 1))
        assert same.gradient(0.0, p, p) is p
        _, sweeps = self.assert_runs_equal(spy, same, grid, 1.0)
        _, reference = self.assert_runs_equal(spy, copying, grid, 1.0)
        assert len(sweeps) == len(reference)
        for a, b in zip(sweeps, reference):
            assert np.array_equal(a, b)

    def test_time_dependent_h_sees_every_level(self):
        seen = []

        def grad_p(t, x, p):
            seen.append(t)
            return (1.0 + t) * p

        H = ConvexHamiltonian(func=lambda t, x, p: 0.5 * (1.0 + t) * np.sum(p * p, axis=-1),
                              grad_p=grad_p)
        grid = get_benchmark("eikonal-cos").make_grid(0.2)
        clipped, params = legendre_scheme(H, 2.0, grid, 1.0)
        seen.clear()
        generalized_pi(clipped, lambda X: np.cos(X[:, 0]), grid, params, max_iterations=2,
                       stop_tolerance=math.ulp(0.0))
        levels = [params.time(k) for k in range(params.steps)]
        # the fixed point's advection field, then two linearized sweeps; the
        # run probes nothing with grad_p, the clip is the caller's
        assert seen == levels * 3

    @pytest.mark.parametrize("flag", [True, False])
    def test_grad_p_calls_per_linearized_sweep(self, flag):
        calls = []
        H = dataclasses.replace(
            quadratic_h(), time_invariant=flag,
            grad_p=lambda t, x, p: calls.append(p.shape) or np.asarray(p, dtype=float))
        grid = get_benchmark("eikonal-cos").make_grid(0.1)
        counts = []
        for iterations in (2, 3):
            calls.clear()
            run = run_legendre(H, lambda X: np.cos(X[:, 0]), grid, 1.0, 2.0,
                               max_iterations=iterations, stop_tolerance=math.ulp(0.0))
            counts.append(len(calls))
        steps = run.params.steps
        block = LINEARIZE_BLOCK if flag else 1
        assert counts[1] - counts[0] == math.ceil(steps / block)
        assert calls[-1] == ((steps - 1) % block + 1, grid.npoints, 1)


@settings(max_examples=20, deadline=None)
@given(points=st.integers(min_value=8, max_value=40),
       M=st.floats(min_value=1.5, max_value=3.0),
       amplitude=st.floats(min_value=0.0, max_value=1.0),
       cfl=st.one_of(st.just(1.0), st.floats(min_value=0.2, max_value=1.0)),
       steps=st.integers(min_value=1, max_value=40))
def test_iterates_decrease_and_repeat_bitwise(spy, points, M, amplitude, cfl, steps):
    # tau = cfl * h / (2N) with N = m2/2 the run's own viscosity; cfl = 1 is
    # the equality case of the step bound; the flag takes the block path
    H = dataclasses.replace(quadratic_h(), time_invariant=True)
    grid = Grid(spacing=2 * np.pi / points, points_per_axis=(points,))
    N = modify_hamiltonian(H, M, grid, 1.0).N  # time-invariant: probed at t = 0 alone
    tau = cfl * grid.spacing / (2.0 * N)
    q = lambda X: amplitude * np.cos(X[:, 0])
    runs, sweeps = [], []
    for _ in range(2):
        with spy(legendre_module, "_forward_sweep") as made:
            runs.append(run_legendre(H, q, grid, steps * tau, M, tau=tau, max_iterations=15))
        sweeps.append(made)
    iterates = sweeps[0][1:]  # the first sweep is the direct run
    assert len(iterates) == runs[0].iterations_used
    for prev, cur in zip(iterates, iterates[1:]):
        assert np.max(cur - prev) <= MONOTONE_SLACK
    assert runs[0].monotonicity_violation_count == 0
    assert np.array_equal(runs[0].fixed_point, runs[1].fixed_point)
    assert len(sweeps[0]) == len(sweeps[1])
    for a, b in zip(*sweeps):
        assert np.array_equal(a, b)
