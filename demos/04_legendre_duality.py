"""Generalized policy iteration for a Hamiltonian given directly.

No control set here: the quadratic Hamiltonian H(p) = |p|^2/2 is handed to
the solver as a function.  The iteration linearizes through the Legendre
transform, after clipping H outside the gradient range of the solution so
the explicit scheme stays monotone.  The run is then cross-checked against
the equivalent sampled-control problem, reversed in time.
"""

import numpy as np

from hjbpi import ControlProblem, ControlSet, PIConfig, SchemeParams, get_benchmark, \
    run_policy_iteration
from hjbpi.legendre import (
    ConvexHamiltonian,
    generalized_pi,
    legendre_scheme,
    legendre_transform_numeric,
    modify_hamiltonian,
    reverse_time_slices,
)

H = ConvexHamiltonian(
    func=lambda t, x, p: 0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
    grad_p=lambda t, x, p: np.asarray(p, dtype=float),
    legendre_L=lambda t, x, mu: 0.5 * np.sum(np.asarray(mu) ** 2, axis=-1),
)

# the numeric transform agrees with the analytic dual of the quadratic
print("numeric Legendre transform of |p|^2/2 (analytic dual is |mu|^2/2):")
numeric_only = ConvexHamiltonian(func=H.func)
for mu in (-1.5, -0.5, 0.0, 1.0, 2.0):
    got = legendre_transform_numeric(numeric_only, 0.0, [0.0], [mu])
    print(f"  mu = {mu:5.2f}: numeric {got:9.6f}, analytic {0.5 * mu * mu:9.6f}")

grid = get_benchmark("eikonal-cos").make_grid(0.05)
mod = modify_hamiltonian(H, M=1.0, grid=grid, T=1.0)
print(f"\nclipping for M = 1: m1 = {mod.m1}, m2 = {mod.m2}, viscosity N = {mod.N}")
print("  H~ equals H up to |p| = 2M and grows with slope m2 past 3M, so")
print("  |grad H~| stays below 2N and the explicit step is monotone")

# the run takes the clip for M = 2 and the scheme parameters it admits
clipped, scheme = legendre_scheme(H, M=2.0, grid=grid, T=1.0)
run = generalized_pi(clipped, lambda X: np.cos(X[:, 0]), grid, scheme)
print(f"\ngeneralized iteration: {run.iterations_used} linear solves, "
      f"stop = {run.stop_reason}")
print(f"  errors to the direct solve: "
      f"{np.array2string(run.errors_to_fixed_point, precision=3)}")
print(f"  max |grad v_n| = {run.gradient_sup.max():.4f} (bound M = 2)")

# control twin: f = a over 21 samples of [-1, 1], c = |a|^2/2, same data,
# run backward with the same viscosity and step, then reversed in time
problem = ControlProblem(
    dynamics=lambda t, x, a: np.full_like(x, a[0]),
    running_cost=lambda t, x, a: 0.5 * a[0] * a[0],
    terminal_cost=lambda x: np.cos(x[..., 0]),
    controls=ControlSet.uniform(-1.0, 1.0, 21),
    f_sup_bound=1.0,
)
params = SchemeParams.create(grid.spacing, 1.0, 1.0, tau=run.params.tau, N=run.params.N)
control_run = run_policy_iteration(problem, grid, params, PIConfig(max_iterations=80))
forward = run.last_iterate
backward = reverse_time_slices(control_run.last_iterate)
print(f"\nsup distance to the sampled-control formulation: "
      f"{np.max(np.abs(forward - backward)):.3e}")
print("(what remains is the control-sampling error of the 21-point grid)")
