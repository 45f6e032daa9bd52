"""Working-set bounds of the blocked reductions.

tracemalloc sees numpy's buffers, so the traced peak of one call is the
largest set of temporaries it held at once.  The Hopf-Lax oracle, the
policy-iteration tracker, fixed-point excess included, and the Legendre
clip's probes work a block of ``BLOCK_ELEMENTS`` values at a time, so their
peaks stay at a few blocks plus their (n,) outputs however large the whole
problem is.
"""

import tracemalloc

import numpy as np

from hjbpi.analysis import _hopf_lax
from hjbpi import pi as pi_module
from hjbpi.benchmarks import get_benchmark
from hjbpi.grid import BLOCK_ELEMENTS, Grid
from hjbpi.legendre import CAP_PROBES, ConvexHamiltonian, modify_hamiltonian
from hjbpi.pi import PIConfig, _IterationTracker, run_policy_iteration
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
        peak = traced_peak(lambda: _hopf_lax(bench.problem.terminal_cost, c0, t,
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
        # the tracker folds the excess over one block's difference at a time
        tracker = _IterationTracker(fixed, run.measured_mask, 0, PIConfig())
        peak = traced_peak(lambda: tracker.record(0, sol.values))
        assert peak <= bound(grid.npoints), peak


def test_clip_probe_peak_on_a_large_two_dimensional_grid():
    # H reads x, so every probe's callback result grows with the points it is given
    H = ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * (1.0 + x[..., 1] ** 2) * np.sum(p * p, axis=-1),
        grad_p=lambda t, x, p: (1.0 + x[..., 1:] ** 2) * p, time_invariant=True)
    grid = Grid(spacing=0.01, points_per_axis=(200, 200))
    # the gradient cap check over all points at once would exceed the bound
    assert 8 * grid.npoints * CAP_PROBES * grid.dim > bound(grid.npoints)
    peak = traced_peak(lambda: modify_hamiltonian(H, 1.0, grid, 1.0))
    assert peak <= bound(grid.npoints), peak
