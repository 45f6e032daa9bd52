"""Solve the eikonal-with-cosine benchmark and compare against Hopf-Lax.

The direct solver runs the backward recursion of the monotone scheme; the
Hopf-Lax evaluator brute-forces the exact value over the reachable ball,
completely independent of the grid machinery.
"""

import numpy as np

from hjbpi import SchemeParams, get_benchmark, solve_hjb_direct
from hjbpi.analysis import hopf_lax_oracle

bench = get_benchmark("eikonal-cos")
grid = bench.make_grid(0.05)
params = SchemeParams.create(grid.spacing, T=1.0, f_sup_bound=bench.problem.f_sup_bound)

print(f"grid: {grid.npoints} points, h = {grid.spacing:.5f} (snapped to fit the period)")
print(f"scheme: tau = {params.tau:.5f}, N = {params.N}, {params.steps} backward steps")

solution = solve_hjb_direct(bench.problem, grid, params)
values = solution.values[0]

print("\n  x        solver V(0,x)   Hopf-Lax       error")
xs = grid.coordinates()[:, 0]
worst = 0.0
for idx in range(0, grid.npoints, grid.npoints // 12):
    exact = hopf_lax_oracle(bench.problem.terminal_cost, 1.0, 0.0, params.T,
                            [xs[idx]], 1.0)
    err = abs(values[idx] - exact)
    worst = max(worst, err)
    print(f"  {xs[idx]:7.4f}  {values[idx]:12.6f}  {exact:12.6f}  {err:10.2e}")

print(f"\nworst sampled error {worst:.3e}; the scheme smears the kinks at the")
print(f"O(sqrt(h)) = {np.sqrt(grid.spacing):.3f} scale, as expected for added viscosity")
