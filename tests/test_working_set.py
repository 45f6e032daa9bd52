"""Working-set bounds of the blocked reductions.

tracemalloc sees numpy's buffers, so the traced peak of one call is the
largest set of temporaries it held at once.  The Hopf-Lax oracle in one
and two dimensions, the policy-iteration tracker and PI's fixed-point
excess work a block of ``BLOCK_ELEMENTS`` values at a time, so their peaks
stay at a few blocks plus their (n,) outputs however large the whole
problem is.
"""

import tracemalloc

import numpy as np

from hjbpi.analysis import _hopf_lax_values_1d, hopf_lax_oracle
from hjbpi import pi as pi_module
from hjbpi.benchmarks import get_benchmark
from hjbpi.grid import BLOCK_ELEMENTS
from hjbpi.pi import PIConfig, _IterationTracker, _max_difference, run_policy_iteration
from hjbpi.scheme import SchemeParams

BLOCK_BYTES = 8 * BLOCK_ELEMENTS


def bound(npoints):
    """Four blocks of float64 values plus sixteen (n,) float64 arrays."""
    return 4 * BLOCK_BYTES + 16 * 8 * npoints


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_peak_on_the_finest_h_study_grid():
    bench = get_benchmark("eikonal-cos")
    c0, speed = bench.hopf_lax
    grid = bench.make_grid(0.025)
    X = grid.coordinates()[grid.interior_mask(bench.problem.f_sup_bound * 1.0)]
    # one whole centers x samples table alone would exceed the bound
    assert 8 * X.shape[0] * 1001 > bound(X.shape[0])
    for t in (0.0, 0.5):
        peak = traced_peak(lambda: _hopf_lax_values_1d(bench.problem.terminal_cost, c0, t,
                                                       1.0, X, speed))
        assert peak <= bound(X.shape[0]), (t, peak)


def test_tracker_record_peak_on_a_legendre_pi_sized_run():
    rng = np.random.default_rng(0)
    levels, npoints = 501, 628
    fixed = rng.uniform(size=(levels, npoints))
    first, second = fixed + 1.0, fixed + 0.5
    for region in (slice(None), rng.uniform(size=npoints) < 0.5):
        tracker = _IterationTracker(fixed, region, 0, PIConfig(max_iterations=10))
        tracker.record(0, first)
        peak = traced_peak(lambda: tracker.record(1, second))
        assert peak <= bound(npoints), peak


def test_two_dimensional_oracle_peak():
    # the ball call of test_analysis: the whole 1001 x 1001 square of one
    # scan would be 8 MB per float64 array, the doubling's 2001 x 2001 32 MB
    q = lambda X: X[..., 0] + 0.5 * X[..., 1]
    peak = traced_peak(lambda: hopf_lax_oracle(q, 0.0, 0.0, 1.0, [0.0, 0.0], 1.0))
    assert peak <= 8 * BLOCK_BYTES, peak


def test_fixed_point_excess_of_a_run_wider_than_a_block(spy):
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.01)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
    with spy(pi_module, "evaluate_policy") as iterates:
        run = run_policy_iteration(bench.problem, grid, params, PIConfig(max_iterations=2))
    fixed = run.fixed_point.values
    # one whole (steps + 1, n) difference would hold several blocks
    assert fixed.nbytes > 2 * BLOCK_BYTES
    assert len(iterates) == len(run.fixed_point_excess) == 2
    for n, (sol, excess) in enumerate(zip(iterates, run.fixed_point_excess)):
        assert excess == max(0.0, float(np.max(fixed - sol.values))), n
        # one block's difference at a time, and the list of block maxima
        peak = traced_peak(lambda: _max_difference(fixed, sol.values))
        assert peak <= BLOCK_BYTES + 16 * 8 * grid.npoints, peak
    # a NaN propagates as in the whole-array max
    broken = np.array(fixed)
    broken[-1, -1] = np.nan
    assert np.isnan(_max_difference(broken, fixed))
