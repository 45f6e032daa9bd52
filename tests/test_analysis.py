import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbpi.analysis import (
    ORACLE_SAMPLES,
    ORACLE_TOL,
    SemiConcavityReport,
    _hopf_lax_values_1d,
    hopf_lax_minimizer,
    hopf_lax_oracle,
    oracle_for,
    policy_pointwise_convergence_probe,
    run_h_rate_study,
    run_tau_refinement_study,
    semi_concavity_probe,
    solution_error_vs_oracle,
)
from hjbpi.benchmarks import Benchmark, get_benchmark
from hjbpi.errors import CFLValidationError, ConfigurationError, UnsupportedDimensionError
from hjbpi.grid import Grid
from hjbpi.problem import ControlProblem, ControlSet
from hjbpi.scheme import SchemeParams, SpaceTimeSolution, solve_hjb_direct


def cos_q(X):
    return np.cos(X[..., 0])


class TestHopfLaxOracle:
    def test_empty_horizon_returns_terminal(self):
        for x in (0.0, 1.3, -2.0):
            assert hopf_lax_oracle(cos_q, 1.0, 1.0, 1.0, [x], 1.0) == pytest.approx(
                math.cos(x), abs=1e-14)

    def test_full_period_window(self):
        # ball of radius pi covers a period: min cos = -1 everywhere
        value = hopf_lax_oracle(cos_q, 1.0, 0.0, math.pi, [0.3], 1.0)
        assert value == pytest.approx(math.pi - 1.0, abs=2e-6)

    def test_half_window_endpoint_minimum(self):
        # min of cos over [-0.5, 0.5] sits at the endpoints: 0.5 + cos(0.5)
        value = hopf_lax_oracle(cos_q, 1.0, 0.5, 1.0, [0.0], 1.0)
        assert value == pytest.approx(1.3775825618903728, abs=1e-6)

    def test_monotone_in_horizon_without_running_cost(self):
        values = [hopf_lax_oracle(cos_q, 0.0, 1.0 - r, 1.0, [0.7], 1.0)
                  for r in (0.1, 0.4, 0.9, 1.5)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            hopf_lax_oracle(lambda X: np.sum(X, axis=-1), 0.0, 0.0, 1.0,
                            [0.0, 0.0, 0.0], 1.0)

    def test_two_dimensional_ball(self):
        q = lambda X: X[..., 0] + 0.5 * X[..., 1]
        # min of a linear function over a ball of radius r is -r |grad|
        value = hopf_lax_oracle(q, 0.0, 0.0, 1.0, [0.0, 0.0], 1.0)
        assert value == pytest.approx(-math.sqrt(1.25), abs=1e-4)

    def test_minimizer_direction(self):
        y = hopf_lax_minimizer(cos_q, 0.0, 1.0, [math.pi / 2.0], 1.0)
        assert y[0] > math.pi / 2.0  # toward the cosine minimum at pi


def reference_values_1d(q, c0, t, T, X, speed, tol=ORACLE_TOL):
    """Full-grid bulk oracle: every doubling evaluates q on all 2S - 1 samples.

    The nested oracle must match it bitwise.
    """
    radius = speed * (T - t)
    xs = X[:, 0]
    if radius == 0.0:
        return np.asarray(q(X), dtype=float) + 0.0
    samples = ORACLE_SAMPLES
    offs = np.linspace(-radius, radius, samples)
    best = np.min(np.asarray(q((xs[:, None] + offs[None, :])[..., None]), dtype=float), axis=1)
    while True:
        samples = 2 * samples - 1
        offs = np.linspace(-radius, radius, samples)
        refined = np.min(np.asarray(q((xs[:, None] + offs[None, :])[..., None]), dtype=float),
                         axis=1)
        if float(np.max(np.abs(refined - best))) < tol:
            return refined + c0 * (T - t)
        best = refined


def reference_scan_1d(q, x, radius, tol=ORACLE_TOL):
    """Full-grid single-point scan: (min, first minimizer) over the final grid."""
    def scan(samples):
        y = x + np.linspace(-radius, radius, samples)
        vals = np.asarray(q(y[:, None]), dtype=float)
        k = int(np.argmin(vals))
        return float(vals[k]), y[k:k + 1]

    samples = ORACLE_SAMPLES
    best, arg = scan(samples)
    while True:
        samples = 2 * samples - 1
        refined, arg = scan(samples)
        if abs(refined - best) < tol:
            return refined, arg
        best = refined


def narrow_well(X):
    return -np.exp(-((X[..., 0] - 0.3137) / 0.05) ** 2)


class CallCounter:
    def __init__(self, q):
        self.q = q
        self.calls = 0

    def __call__(self, X):
        self.calls += 1
        return self.q(X)


class TestNestedRefinement:
    def test_bulk_oracle_matches_full_grid_on_h_study_levels(self):
        bench = get_benchmark("eikonal-cos")
        c0, speed = bench.hopf_lax
        q = bench.problem.terminal_cost
        oracle = oracle_for(bench, 1.0)
        for h in (0.2, 0.1, 0.05, 0.025):
            grid = bench.make_grid(h)
            params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
            X = grid.coordinates()[grid.interior_mask(bench.problem.f_sup_bound * 1.0)]
            for k in range(params.steps + 1):
                t = params.time(k)
                assert np.array_equal(oracle(t, X),
                                      reference_values_1d(q, c0, t, 1.0, X, speed)), (h, k)

    def test_bulk_oracle_at_radius_zero(self):
        oracle = oracle_for(get_benchmark("eikonal-cos"), 1.0)
        X = np.linspace(-3.0, 3.0, 17)[:, None]
        assert np.array_equal(oracle(1.0, X), reference_values_1d(cos_q, 1.0, 1.0, 1.0, X, 1.0))

    def test_narrow_well_needs_several_doublings(self):
        X = np.linspace(-1.0, 1.0, 9)[:, None]
        counted = CallCounter(narrow_well)
        got = _hopf_lax_values_1d(counted, 0.5, 0.0, 0.9, X, 1.0)
        assert counted.calls >= 4  # the initial grid and three or more doublings
        assert np.array_equal(got, reference_values_1d(narrow_well, 0.5, 0.0, 0.9, X, 1.0))

    @pytest.mark.parametrize("q", [cos_q, narrow_well], ids=["cos", "narrow-well"])
    def test_single_point_scan_matches_full_grid(self, q):
        radius = 0.9
        most_calls = 0
        for x in np.linspace(-1.0, 2.5, 15):
            counted = CallCounter(q)
            value = hopf_lax_oracle(counted, 0.0, 0.1, 1.0, [x], 1.0)
            arg = hopf_lax_minimizer(q, 0.1, 1.0, [x], 1.0)
            ref_value, ref_arg = reference_scan_1d(q, x, radius)
            assert value == ref_value
            assert np.array_equal(arg, ref_arg)
            most_calls = max(most_calls, counted.calls)
        assert q is cos_q or most_calls >= 4

    def test_plateau_ties_keep_the_first_minimizer(self):
        # a flat well: every sample inside it ties, and the first one inside
        # is an old (even) or a new (odd) refined sample depending on x
        def plateau(X):
            return np.where(np.abs(X[..., 0] - 0.2) <= 0.05, -1.0, 0.0)

        for x in np.random.default_rng(5).uniform(-0.3, 0.3, 40):
            arg = hopf_lax_minimizer(plateau, 0.5, 1.0, [x], 1.0)
            assert np.array_equal(arg, reference_scan_1d(plateau, x, 0.5)[1])

    def test_constant_terminal_cost_minimizer_is_left_end(self):
        def flat(X):
            return np.zeros(X.shape[:-1])

        for x in (-0.7, 0.0, 1.3):
            arg = hopf_lax_minimizer(flat, 0.25, 1.0, [x], 1.0)
            assert np.array_equal(arg, reference_scan_1d(flat, x, 0.75)[1])
            assert arg[0] == x - 0.75


class CallCap(CallCounter):
    """Fails the test instead of letting a non-terminating refinement eat memory."""

    def __call__(self, X):
        if self.calls >= 8:
            raise AssertionError("oracle kept refining a non-finite terminal cost")
        return super().__call__(X)


def nan_right(X):
    return np.where(X[..., 0] > 0.5, np.nan, np.cos(X[..., 0]))


class TestNonFiniteTerminalCost:
    @pytest.mark.parametrize("q", [
        nan_right,
        lambda X: np.where(X[..., 0] > 0.5, -np.inf, 0.0),
        lambda X: np.full(X.shape[:-1], np.inf),
    ], ids=["nan", "minus-inf", "plus-inf"])
    def test_one_dimensional_scans_stop(self, q):
        with pytest.raises(ConfigurationError, match="not finite"):
            hopf_lax_oracle(CallCap(q), 1.0, 0.0, 1.0, [0.0], 1.0)
        with pytest.raises(ConfigurationError, match="not finite"):
            _hopf_lax_values_1d(CallCap(q), 1.0, 0.0, 1.0,
                                np.linspace(-1.0, 1.0, 5)[:, None], 1.0)

    def test_nan_only_in_refined_midpoints_stops(self):
        # NaN exactly between the initial samples: only a doubling sees it
        mid = np.linspace(-1.0, 1.0, 2 * ORACLE_SAMPLES - 1)[1201]

        def q(X):
            return np.where(X[..., 0] == mid, np.nan, np.cos(X[..., 0]))

        counted = CallCap(q)
        with pytest.raises(ConfigurationError, match="not finite"):
            hopf_lax_oracle(counted, 1.0, 0.0, 1.0, [0.0], 1.0)
        assert counted.calls == 2

    def test_two_dimensional_scan_stops(self):
        with pytest.raises(ConfigurationError, match="not finite"):
            hopf_lax_oracle(CallCap(nan_right), 1.0, 0.0, 1.0, [0.0, 0.0], 1.0,
                            initial_samples=41)

    def test_finite_costs_with_plus_inf_outside_the_minimum_still_settle(self):
        def q(X):
            return np.where(X[..., 0] > 0.5, np.inf, np.cos(X[..., 0]))

        assert hopf_lax_oracle(q, 0.0, 0.0, 1.0, [0.0], 1.0) == math.cos(-1.0)


@settings(max_examples=200, deadline=None)
@given(radius=st.floats(min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False),
       samples=st.sampled_from([1001, 2001, 4001]))
def test_linspace_nests_bitwise(radius, samples):
    # the nested oracle keeps the even samples of each doubled grid
    coarse = np.linspace(-radius, radius, samples)
    assert np.array_equal(np.linspace(-radius, radius, 2 * samples - 1)[::2], coarse)


class TestHRateStudy:
    def test_transport_first_order(self):
        study = run_h_rate_study(get_benchmark("transport-sin"),
                                 [0.2, 0.1, 0.05, 0.025], 1.0)
        assert study.fitted_order >= 0.9
        assert study.r_squared >= 0.95
        errors = np.array(study.errors)
        assert np.all(errors > 0)
        assert np.all(np.diff(errors) <= 0.05 * errors[:-1])

    def test_zero_benchmark_degenerate(self):
        study = run_h_rate_study(get_benchmark("zero"), [0.2, 0.1, 0.05, 0.025], 1.0)
        assert study.degenerate
        assert math.isnan(study.fitted_order)

    def test_needs_four_decreasing_spacings(self):
        bench = get_benchmark("transport-sin")
        with pytest.raises(ConfigurationError):
            run_h_rate_study(bench, [0.2, 0.1, 0.05], 1.0)
        with pytest.raises(ConfigurationError):
            run_h_rate_study(bench, [0.05, 0.1, 0.2, 0.4], 1.0)

    def test_custom_step_rule_is_applied(self):
        study = run_h_rate_study(get_benchmark("transport-sin"),
                                 [0.4, 0.2, 0.1, 0.05], 1.0,
                                 tau_rule=lambda h: h / 4.0)
        for h, tau in zip(study.h_values, study.tau_values):
            assert tau <= h / 4.0 + 1e-15


class TestTauRefinement:
    def test_eikonal_distances_decrease(self):
        study = run_tau_refinement_study(get_benchmark("eikonal-cos"), 0.1,
                                         [1 / 21, 1 / 42, 1 / 84, 1 / 168], 1.0)
        assert len(study.distances) == 3
        assert all(b < a for a, b in zip(study.distances, study.distances[1:]))

    def test_time_quadrature_is_tau_independent(self):
        prob = ControlProblem(
            dynamics=lambda t, x, a: np.zeros_like(x),
            running_cost=lambda t, x, a: 1.0,
            terminal_cost=lambda x: np.zeros(x.shape[:-1]),
            controls=ControlSet.singleton([0.0]),
            f_sup_bound=0.0,
        )
        bench = Benchmark(name="clock", problem=prob, box=(0.0, 1.0), periodic=True)
        # dyadic steps keep the running sums exact, so slices agree bitwise
        study = run_tau_refinement_study(bench, 0.1, [1 / 32, 1 / 64, 1 / 128], 1.0)
        assert all(d == 0.0 for d in study.distances)
        assert np.array_equal(study.extrapolated, np.ones(study.solutions[0].grid.npoints))

    def test_boundary_step_accepted_and_beyond_rejected(self):
        bench = get_benchmark("eikonal-cos")
        grid = bench.make_grid(0.1)
        boundary = grid.spacing / 2.0
        study = run_tau_refinement_study(bench, 0.1, [boundary, boundary / 2.0], 1.0)
        assert study.tau_values[0] <= boundary + 1e-15
        with pytest.raises(CFLValidationError):
            run_tau_refinement_study(bench, 0.1, [2.0 * boundary, boundary], 1.0)


def manual_solution(grid, values, T=0.0):
    params = SchemeParams(h=grid.spacing, tau=grid.spacing / 2.0, N=1.0,
                          T=grid.spacing / 2.0, steps=1)
    return SpaceTimeSolution(grid=grid, params=params, values=np.stack([values, values]),
                             policy_slices=np.full((2, grid.npoints), -1, dtype=np.int8),
                             q_sup=float(np.max(np.abs(values))),
                             c_sup=0.0)


class TestSemiConcavity:
    def test_linear_field_has_zero_ratio(self):
        grid = Grid(spacing=0.1, points_per_axis=(21,), origin=(-1.0,),
                    periodic=(False,))
        sol = manual_solution(grid, 0.7 * grid.coordinates()[:, 0])
        report = semi_concavity_probe(sol, [[grid.spacing]])
        assert abs(report.worst_ratio) <= 1e-12

    def test_convex_kink_arithmetic(self):
        # V = |x|: centered second difference at 0 is exactly 2h
        grid = Grid(spacing=0.1, points_per_axis=(21,), origin=(-1.0,),
                    periodic=(False,))
        h = grid.spacing
        sol = manual_solution(grid, np.abs(grid.coordinates()[:, 0]))
        report = semi_concavity_probe(sol, [[h]])
        assert report.worst_ratio == pytest.approx(2 * h / (h * h + math.sqrt(h)),
                                                   abs=1e-12)

    def test_offset_must_be_lattice_aligned(self):
        grid = Grid(spacing=0.1, points_per_axis=(8,))
        sol = manual_solution(grid, np.zeros(8))
        with pytest.raises(ConfigurationError):
            semi_concavity_probe(sol, [[0.15]])
        with pytest.raises(ConfigurationError):
            semi_concavity_probe(sol, [[0.0]])

    def test_eikonal_ratio_bounded(self):
        bench = get_benchmark("eikonal-cos")
        grid = bench.make_grid(0.1)
        params = SchemeParams.create(grid.spacing, 1.0, 1.0)
        sol = solve_hjb_direct(bench.problem, grid, params)
        h = grid.spacing
        report = semi_concavity_probe(sol, [[h], [2 * h], [4 * h]])
        assert isinstance(report, SemiConcavityReport)
        assert report.worst_ratio <= 10.0


class TestPolicyProbe:
    def test_eikonal_probe_stabilizes_to_oracle(self):
        bench = get_benchmark("eikonal-cos")
        table = policy_pointwise_convergence_probe(
            bench, [0.1, 0.05], [math.pi / 2.0], 1.0)
        rows = [r for r in table.rows if not r.skipped]
        assert all(r.control == (1.0,) for r in rows)
        assert all(r.oracle_control == (1.0,) for r in rows)
        assert table.stabilized(math.pi / 2.0)

    def test_declared_kink_skipped(self):
        bench = get_benchmark("eikonal-cos")
        table = policy_pointwise_convergence_probe(bench, [0.1], [0.0], 1.0)
        assert all(r.skipped for r in table.rows)
        assert not table.stabilized(0.0)

    def test_singleton_control_trivially_stable(self):
        bench = get_benchmark("transport-sin")
        table = policy_pointwise_convergence_probe(bench, [0.2, 0.1], [1.0], 1.0)
        assert table.stabilized(1.0)


def test_oracle_for_exact_and_hopf_lax():
    transport = get_benchmark("transport-sin")
    ref = oracle_for(transport, 1.0)
    X = transport.make_grid(0.2).coordinates()
    assert np.allclose(ref(0.25, X), np.sin(X[:, 0] + 0.75), atol=1e-14)

    eik = get_benchmark("eikonal-cos")
    ref = oracle_for(eik, 1.0)
    got = ref(0.0, np.array([[0.3]]))[0]
    assert got == pytest.approx(hopf_lax_oracle(cos_q, 1.0, 0.0, 1.0, [0.3], 1.0),
                                abs=1e-9)


def test_solution_error_vs_oracle_zero_for_exact_match():
    bench = get_benchmark("zero")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, 1.0)
    sol = solve_hjb_direct(bench.problem, grid, params)
    sup, l2 = solution_error_vs_oracle(sol, lambda t, X: np.zeros(X.shape[0]))
    assert sup == 0.0 and l2 == 0.0
