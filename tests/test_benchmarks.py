import numpy as np
import pytest

from hjbpi.benchmarks import BENCHMARK_NAMES, get_benchmark, lq_feedback_policies
from hjbpi.errors import ConfigurationError
from hjbpi.scheme import SchemeParams


def test_catalog_names():
    assert BENCHMARK_NAMES == ("eikonal-cos", "quadratic-lq", "transport-sin", "zero")
    for name in BENCHMARK_NAMES:
        bench = get_benchmark(name)
        assert bench.name == name
        assert bench.problem.controls.size >= 1


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        get_benchmark("burgers")


def test_periodic_grid_snaps_spacing_to_box():
    bench = get_benchmark("eikonal-cos")
    for h in (0.2, 0.1, 0.05, 0.025):
        grid = bench.make_grid(h)
        n = grid.points_per_axis[0]
        assert grid.spacing == (bench.box[1] - bench.box[0]) / n
        assert abs(grid.spacing - h) <= 0.05 * h  # snap stays close
        assert grid.periodic == (True,)


def test_clamped_grid_hits_box_corners():
    bench = get_benchmark("quadratic-lq")
    grid = bench.make_grid(0.05)
    xs = grid.coordinates()[:, 0]
    assert xs[0] == -2.0 and xs[-1] == pytest.approx(2.0, abs=1e-12)
    assert grid.periodic == (False,)
    assert grid.spacing == pytest.approx(0.05, abs=1e-15)


def test_eikonal_controls_and_kinks():
    bench = get_benchmark("eikonal-cos")
    assert np.array_equal(bench.problem.controls.elements[:, 0], [-1.0, 1.0])
    assert 0.0 in bench.kink_points and np.pi in bench.kink_points
    assert bench.hopf_lax == (1.0, 1.0)


def test_lq_feedback_matches_bruteforce_nearest():
    bench = get_benchmark("quadratic-lq")
    grid = bench.make_grid(0.05)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
    policies = lq_feedback_policies(bench.problem, grid, params)
    assert policies.shape == (params.steps, grid.npoints)
    samples = bench.problem.controls.elements[:, 0]
    xs = grid.coordinates()[:, 0]
    for point in range(grid.npoints):
        target = float(np.clip(-xs[point], samples[0], samples[-1]))
        dist = np.abs(samples - target)
        best = dist.min()
        expected = int(np.flatnonzero(dist <= best + 1e-12)[0])  # first on ties
        assert policies[0][point] == expected


def test_benchmark_exact_solutions_sane():
    transport = get_benchmark("transport-sin")
    X = np.array([[0.0], [1.0]])
    assert np.allclose(transport.exact(0.25, 1.0, X), np.sin(X[:, 0] + 0.75))
    zero = get_benchmark("zero")
    assert np.array_equal(zero.exact(0.3, 1.0, X), np.zeros(2))
