import dataclasses
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbpi import analysis
from hjbpi.analysis import (
    ORACLE_SAMPLES,
    ORACLE_TOL,
    SemiConcavityReport,
    _ball_min_1d,
    _hopf_lax,
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
from hjbpi.grid import BLOCK_ELEMENTS, Grid
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

    @pytest.mark.parametrize("entry", ["oracle", "minimizer", "oracle_for"])
    def test_dimension_guard(self, entry):
        # a second coordinate is refused before q is called, not dropped
        counted = CallCounter(lambda X: np.sum(X, axis=-1))
        with pytest.raises(UnsupportedDimensionError, match="1 dimension only"):
            oracle_entry(entry, counted, 0.0, 1.0, [0.0, 0.0])
        assert counted.calls == 0

    @pytest.mark.parametrize("entry", ["oracle", "minimizer", "oracle_for", "exact"])
    @pytest.mark.parametrize("t", [1.5, 1.0 + 1e-12, math.nan])
    def test_time_past_the_horizon_is_refused(self, entry, t):
        # t > T would scan the mirrored interval linspace(-r, r) with r < 0
        counted = CallCounter(cos_q)
        with pytest.raises(ConfigurationError, match="beyond the horizon T=1.0"):
            oracle_entry(entry, counted, t, 1.0, [0.3])
        assert counted.calls == 0

    @pytest.mark.parametrize("entry", ["oracle", "minimizer", "oracle_for", "exact"])
    def test_time_at_the_horizon_is_the_terminal_cost(self, entry):
        got = oracle_entry(entry, cos_q, 1.0, 1.0, [0.3])
        expected = 0.3 if entry == "minimizer" else math.cos(0.3)
        assert np.ravel(got).tolist() == [expected]

    def test_minimizer_direction(self):
        y = hopf_lax_minimizer(cos_q, 0.0, 1.0, [math.pi / 2.0], 1.0)
        assert y[0] > math.pi / 2.0  # toward the cosine minimum at pi


def oracle_entry(entry, q, t, T, x):
    """One call of the oracle through a public entry, for the point ``x``."""
    if entry == "oracle":
        return hopf_lax_oracle(q, 1.0, t, T, x, 1.0)
    if entry == "minimizer":
        return hopf_lax_minimizer(q, t, T, x, 1.0)
    if entry == "exact":  # the exact-solution branch, with q as the solution
        bench = dataclasses.replace(get_benchmark("transport-sin"),
                                    exact=lambda t, T, X: q(X))
        return oracle_for(bench, T)(t, np.array([x], dtype=float))
    bench = get_benchmark("eikonal-cos")  # c0 = speed = 1
    bench = dataclasses.replace(bench, problem=dataclasses.replace(bench.problem,
                                                                   terminal_cost=q))
    return oracle_for(bench, T)(t, np.array([x], dtype=float))


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


def reference_bulk_scan_1d(q, xs, radius, tol=ORACLE_TOL):
    """Full-grid scan of many centers: (minima, first minimizers) over the final grid.

    Like the oracle, it stops when no center's minimum moved by ``tol``.
    """
    def scan(samples):
        offs = np.linspace(-radius, radius, samples)
        vals = np.asarray(q((xs[:, None] + offs[None, :])[..., None]), dtype=float)
        idx = np.argmin(vals, axis=1)
        return np.take_along_axis(vals, idx[:, None], axis=1)[:, 0], xs + offs[idx]

    samples = ORACLE_SAMPLES
    best, arg = scan(samples)
    while True:
        samples = 2 * samples - 1
        refined, arg = scan(samples)
        if float(np.max(np.abs(refined - best))) < tol:
            return refined, arg
        best = refined


def narrow_well(X):
    return -np.exp(-((X[..., 0] - 0.3137) / 0.05) ** 2)


def needle(X):
    # so narrow that the last doublings add more midpoints than one block holds
    return -np.exp(-((X[..., 0] - 0.3137) / 0.02) ** 2)


class CallCounter:
    def __init__(self, q):
        self.q = q
        self.calls = 0
        self.shapes = []

    def __call__(self, X):
        self.calls += 1
        self.shapes.append(X.shape)
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
        got, _ = _hopf_lax(counted, 0.5, 0.0, 0.9, X, 1.0)
        assert counted.calls >= 4  # the initial grid and three or more doublings
        assert np.array_equal(got, reference_values_1d(narrow_well, 0.5, 0.0, 0.9, X, 1.0))

    @pytest.mark.parametrize("q", [cos_q, narrow_well, needle],
                             ids=["cos", "narrow-well", "needle"])
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


PER_BLOCK = BLOCK_ELEMENTS // ORACLE_SAMPLES  # centers per block in the first round


def assert_full_grid_bitwise(q, xs, minima, args):
    """A radius-0.9 scan and the bulk oracle equal their full-grid references."""
    ref_minima, ref_args = reference_bulk_scan_1d(q, xs, 0.9)
    assert minima.tobytes() == ref_minima.tobytes()
    assert args.tobytes() == ref_args.tobytes()
    got, _ = _hopf_lax(q, 0.5, 0.1, 1.0, xs[:, None], 1.0)
    assert got.tobytes() == reference_values_1d(q, 0.5, 0.1, 1.0, xs[:, None], 1.0).tobytes()


class TestBlockedScan:
    """q sees one block of centers at a time; the results are those of one scan."""

    @pytest.mark.parametrize("q", [cos_q, narrow_well], ids=["cos", "narrow-well"])
    def test_centers_span_several_blocks_with_a_ragged_last_block(self, q):
        xs = np.linspace(-1.0, 2.5, 3 * PER_BLOCK + 5)
        counted = CallCounter(q)
        minima, args = _ball_min_1d(counted, xs, 0.9, ORACLE_SAMPLES, ORACLE_TOL)
        assert [shape[0] for shape in counted.shapes[:4]] == [PER_BLOCK] * 3 + [5]
        assert max(shape[0] * shape[1] for shape in counted.shapes) <= BLOCK_ELEMENTS
        assert_full_grid_bitwise(q, xs, minima, args)

    def test_rounds_wider_than_a_block_take_one_center_per_block(self):
        xs = np.array([-0.2, 0.3, 0.31, 0.8])
        counted = CallCounter(needle)
        minima, args = _ball_min_1d(counted, xs, 0.9, ORACLE_SAMPLES, ORACLE_TOL)
        wide = [shape for shape in counted.shapes if shape[1] > BLOCK_ELEMENTS]
        assert wide and all(shape[0] == 1 for shape in wide)
        assert_full_grid_bitwise(needle, xs, minima, args)

    def test_nan_only_in_the_last_block_stops(self):
        xs = np.linspace(-1.0, 1.0, 3 * PER_BLOCK + 5)

        def q(X):
            return np.where(X[..., 0] > 0.995, np.nan, np.cos(X[..., 0]))

        counted = CallCap(q)
        with pytest.raises(ConfigurationError, match="not finite"):
            _ball_min_1d(counted, xs, 0.01, ORACLE_SAMPLES, ORACLE_TOL)
        # only the last center reaches past 0.995; the first round stops
        assert [shape[0] for shape in counted.shapes] == [PER_BLOCK] * 3 + [5]


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
            _hopf_lax(CallCap(q), 1.0, 0.0, 1.0, np.linspace(-1.0, 1.0, 5)[:, None], 1.0)

    def test_nan_only_in_refined_midpoints_stops(self):
        # NaN exactly between the initial samples: only a doubling sees it
        mid = np.linspace(-1.0, 1.0, 2 * ORACLE_SAMPLES - 1)[1201]

        def q(X):
            return np.where(X[..., 0] == mid, np.nan, np.cos(X[..., 0]))

        counted = CallCap(q)
        with pytest.raises(ConfigurationError, match="not finite"):
            hopf_lax_oracle(counted, 1.0, 0.0, 1.0, [0.0], 1.0)
        assert counted.calls == 2

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
        assert np.array_equal(study.extrapolated, np.ones(bench.make_grid(0.1).npoints))

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


class TestScoringThreads:
    """Levels are scored on two threads when more than one CPU is usable.

    ``analysis._usable_cpus`` is forced to 1 (one loop over every level) or
    2 (even levels here, odd levels on a helper), whatever the host has.
    """

    @pytest.fixture
    def zero_solution(self):
        bench = get_benchmark("zero")
        grid = bench.make_grid(0.1)
        return solve_hjb_direct(bench.problem, grid, SchemeParams.create(grid.spacing, 1.0, 1.0))

    @staticmethod
    def failing_oracle(solution, levels, fail):
        """Zero oracle that calls ``fail(k)`` at each level k in ``levels``."""
        times = {solution.params.time(k): k for k in levels}

        def oracle(t, X):
            if t in times:
                return fail(times[t], X)
            return np.zeros(X.shape[0])

        return oracle

    def test_rate_study_is_bitwise_the_same_on_one_and_two_threads(self, monkeypatch):
        # the exact oracle; the Hopf-Lax one is pinned on both paths by the h-study digest
        studies = []
        for cpus in (1, 2):
            monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
            studies.append(run_h_rate_study(get_benchmark("transport-sin"),
                                            [0.2, 0.1, 0.05, 0.025], 1.0))
        one, two = studies
        assert two.errors == one.errors
        assert two.l2_errors == one.l2_errors
        assert two.fitted_order == one.fitted_order
        assert two.r_squared == one.r_squared

    @pytest.mark.parametrize("cpus,helper_calls", [(1, False), (2, True)])
    def test_every_level_is_scored_once_and_only_two_cpus_start_the_helper(
            self, monkeypatch, zero_solution, cpus, helper_calls):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        times, callers = [], set()

        def oracle(t, X):
            times.append(t)
            callers.add(threading.current_thread())
            return np.zeros(X.shape[0])

        before = threading.active_count()
        assert solution_error_vs_oracle(zero_solution, oracle) == (0.0, 0.0)
        params = zero_solution.params
        assert sorted(times) == [params.time(k) for k in range(len(zero_solution.values))]
        assert (callers != {threading.main_thread()}) == helper_calls
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("nan_levels,reported", [((3,), 3), ((4,), 4), ((3, 6), 3),
                                                      ((2, 5), 2)])
    def test_a_nan_oracle_row_names_the_lowest_such_level(self, monkeypatch, zero_solution,
                                                          cpus, nan_levels, reported):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        oracle = self.failing_oracle(zero_solution, nan_levels,
                                     lambda k, X: np.full(X.shape[0], np.nan))
        t = zero_solution.params.time(reported)
        with pytest.raises(ConfigurationError, match=f"not finite at t={re.escape(str(t))}$"):
            solution_error_vs_oracle(zero_solution, oracle)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("raise_levels,reported", [((3,), 3), ((4,), 4), ((3, 6), 3),
                                                        ((2, 5), 2)])
    def test_an_oracle_error_is_that_of_the_lowest_failing_level(
            self, monkeypatch, zero_solution, cpus, raise_levels, reported):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)

        def fail(k, X):
            raise ValueError(f"level {k}")

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^level {reported}$"):
            solution_error_vs_oracle(zero_solution,
                                     self.failing_oracle(zero_solution, raise_levels, fail))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_empty_measured_region_is_a_configuration_error(self, monkeypatch, capfd, cpus):
        # a collar of f_sup_bound * T = 2.5 leaves no point of the box (-2, 2) measured
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        with pytest.raises(ConfigurationError, match="measured region is empty"):
            run_h_rate_study(get_benchmark("quadratic-lq"), [0.2, 0.1, 0.05, 0.025], 2.5)
        assert threading.active_count() == before
        assert capfd.readouterr().err == ""


def test_tau_study_refuses_an_empty_measured_region(capfd):
    # the collar of quadratic-lq at T = 2.5 covers the whole box (-2, 2)
    with pytest.raises(ConfigurationError, match="measured region is empty"):
        run_tau_refinement_study(get_benchmark("quadratic-lq"), 0.1, [0.05, 0.025], 2.5)
    assert capfd.readouterr().err == ""
