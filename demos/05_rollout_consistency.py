"""Close the loop: simulate the computed policy and compare cost with value.

The value function predicts the cost-to-go; integrating the dynamics under
the recorded argmin policy and accumulating the running cost should land
within O(h + tau + dt) of it.  This checks the policy actually achieves
the value the solver claims.
"""

import numpy as np

from hjbpi import SchemeParams, get_benchmark, solve_hjb_direct
from hjbpi.problem import rollout_cost

bench = get_benchmark("eikonal-cos")
grid = bench.make_grid(0.1)
params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
solution = solve_hjb_direct(bench.problem, grid, params)

dt = params.tau / 2.0
print(f"h = {grid.spacing:.4f}, tau = {params.tau:.4f}, rollout dt = {dt:.4f}")
print("\n  start x    rollout J    value V(0,x)   |J - V|")
worst = 0.0
for idx in np.linspace(2, grid.npoints - 3, 10).astype(int):
    x0 = grid.coordinates()[idx]
    cost = rollout_cost(bench.problem, grid, params, solution.policy_slices[1:],
                        (0.0, x0), dt)
    value = solution.values[0, idx]
    gap = abs(cost - value)
    worst = max(worst, gap)
    print(f"  {x0[0]:8.4f}  {cost:11.6f}  {value:12.6f}  {gap:10.2e}")

budget = grid.spacing + params.tau + dt
print(f"\nworst gap {worst:.3e} against budget C (h + tau + dt) = C * {budget:.3f}")
print(f"fitted C = {worst / budget:.2f}")
