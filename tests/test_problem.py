import dataclasses

import numpy as np
import pytest

from hjbpi.benchmarks import get_benchmark
from hjbpi.errors import ConfigurationError, TruncatedRolloutError
from hjbpi.grid import Grid, gradient_central_values
from hjbpi.problem import (
    ControlProblem,
    ControlSet,
    discrete_sup_norms,
    hamiltonian_field,
    improve_policy,
    rollout_cost,
    validate_f_bound,
)
from hjbpi.scheme import SchemeParams, solve_hjb_direct


def lq_problem(samples=3):
    return ControlProblem(
        dynamics=lambda t, x, a: np.full_like(x, a[0]),
        running_cost=lambda t, x, a: 0.5 * a[0] * a[0],
        terminal_cost=lambda x: np.zeros(x.shape[:-1]),
        controls=ControlSet.uniform(-1.0, 1.0, samples),
        f_sup_bound=1.0,
    )


def eikonal_problem():
    return get_benchmark("eikonal-cos").problem


def test_hamiltonian_field_three_controls():
    prob = lq_problem(3)  # A = {-1, 0, 1}
    values, idx = hamiltonian_field(prob, 0.0, np.zeros((2, 1)), np.array([[-2.0], [0.0]]))
    assert values.tolist() == [-1.5, 0.0]
    assert prob.controls.elements[idx, 0].tolist() == [1.0, 0.0]


def test_hamiltonian_field_eikonal():
    prob = eikonal_problem()
    values, idx = hamiltonian_field(prob, 0.0, np.zeros((1, 1)), np.array([[0.3]]))
    assert values[0] == pytest.approx(0.7, abs=1e-15)
    assert prob.controls.elements[idx[0], 0] == -1.0  # H = 1 - |p|


def test_callback_result_shapes():
    # scalars, full-shape and broadcastable results give the same candidates
    # bitwise; a result that cannot broadcast raises np.broadcast_to's error
    X = np.linspace(-1.0, 1.0, 7)[:, None]
    P = np.linspace(-2.0, 2.0, 7)[:, None]
    controls = ControlSet.uniform(-1.0, 1.0, 5)

    def problem(dynamics, running_cost):
        return ControlProblem(dynamics=dynamics, running_cost=running_cost,
                              terminal_cost=lambda x: np.zeros(x.shape[:-1]),
                              controls=controls, f_sup_bound=1.0)

    full = hamiltonian_field(problem(lambda t, x, a: np.full_like(x, a[0]),
                                     lambda t, x, a: np.full(x.shape[:-1], 0.5 * a[0] ** 2)),
                             0.0, X, P)
    for dynamics, running_cost in (
            (lambda t, x, a: a[0], lambda t, x, a: 0.5 * a[0] ** 2),
            (lambda t, x, a: a, lambda t, x, a: [0.5 * a[0] ** 2]),
            (lambda t, x, a: np.full((1, 1), a[0]), lambda t, x, a: np.float64(0.5 * a[0] ** 2))):
        values, sel = hamiltonian_field(problem(dynamics, running_cost), 0.0, X, P)
        assert np.array_equal(values, full[0]) and np.array_equal(sel, full[1])

    with pytest.raises(ValueError) as expected:
        np.broadcast_to(np.zeros(3), (7,))
    with pytest.raises(ValueError) as got:
        hamiltonian_field(problem(lambda t, x, a: a[0], lambda t, x, a: np.zeros(3)),
                          0.0, X, P)
    assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError):
        hamiltonian_field(problem(lambda t, x, a: np.zeros((7, 2)), lambda t, x, a: 0.0),
                          0.0, X, P)


def test_hamiltonian_field_below_all_candidates():
    prob = lq_problem(21)
    P = np.random.default_rng(5).uniform(-3, 3, size=(10, 1))
    values, _ = hamiltonian_field(prob, 0.0, np.full((10, 1), 0.2), P)
    for a in prob.controls.elements:
        assert np.all(values <= 0.5 * a[0] ** 2 + P[:, 0] * a[0] + 1e-15)


def test_hamiltonian_concave_and_lipschitz_in_p():
    prob = eikonal_problem()
    rng = np.random.default_rng(9)
    for _ in range(50):
        p1, p2 = rng.uniform(-2, 2, size=2)
        lam = rng.uniform()
        P = np.array([[p1], [p2], [lam * p1 + (1 - lam) * p2]])
        (h1, h2, hmid), _ = hamiltonian_field(prob, 0.0, np.ones((3, 1)), P)
        assert hmid >= lam * h1 + (1 - lam) * h2 - 1e-12
        assert abs(h1 - h2) <= prob.f_sup_bound * abs(p1 - p2) + 1e-12


def test_improve_policy_constant_field_picks_argmin_of_cost():
    prob = lq_problem(21)
    grid = Grid(spacing=0.1, points_per_axis=(10,), periodic=(True,))
    policy = improve_policy(prob, grid, np.full(grid.npoints, 2.5), 0.0)
    assert np.all(prob.controls.elements[policy, 0] == 0.0)


def test_improve_policy_matches_bruteforce_on_lq():
    # value x^2/2 on the clamped box: chosen control is the sample nearest -x
    bench = get_benchmark("quadratic-lq")
    grid = bench.make_grid(0.05)
    prob = bench.problem
    value = 0.5 * grid.coordinates()[:, 0] ** 2
    policy = improve_policy(prob, grid, value, 0.0)

    grads = gradient_central_values(grid, value)
    for point in range(grid.npoints):
        p = grads[point, 0]
        cand = [0.5 * a[0] ** 2 + p * a[0] for a in prob.controls.elements]
        best = min(cand)
        expected = next(j for j, c in enumerate(cand) if c <= best + 1e-12)
        assert policy[point] == expected


def test_improve_policy_sign_rule_on_eikonal():
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.1)
    value = np.cos(grid.coordinates()[:, 0])
    policy = improve_policy(bench.problem, grid, value, 0.0)
    grads = gradient_central_values(grid, value)[:, 0]
    controls = bench.problem.controls.elements[policy, 0]
    live = np.abs(grads) > 1e-9
    assert np.all(controls[live] == -np.sign(grads[live]))


def test_improve_policy_invariant_under_constant_shift():
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.2)
    base = np.cos(grid.coordinates()[:, 0])
    p1 = improve_policy(bench.problem, grid, base, 0.0)
    p2 = improve_policy(bench.problem, grid, base + 17.3, 0.0)
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("shape", [(8,), (1, 9), (9, 1)])
def test_improve_policy_rejects_a_level_of_the_wrong_shape(shape):
    grid = Grid(spacing=0.5, points_per_axis=(9,), origin=(-2.0,), periodic=(False,))
    with pytest.raises(ConfigurationError, match="need 9 values"):
        improve_policy(lq_problem(), grid, np.zeros(shape), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_improve_policy_rejects_a_non_finite_level(bad):
    grid = Grid(spacing=0.5, points_per_axis=(9,), origin=(-2.0,), periodic=(False,))
    values = np.zeros(grid.npoints)
    values[3] = bad
    values[5] = bad
    with pytest.raises(ConfigurationError, match="linear index 3"):
        improve_policy(lq_problem(), grid, values, 0.0)


def test_control_set_validation():
    with pytest.raises(ConfigurationError):
        ControlSet(np.array([]))
    with pytest.raises(ConfigurationError):
        ControlSet(np.array([1.0, 1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="elements must be finite"):
            ControlSet(np.array([0.0, bad]))
        with pytest.raises(ConfigurationError, match="elements must be finite"):
            ControlSet.uniform(-1.0, bad, 1)
    cs = ControlSet.uniform(-1.0, 1.0, 21)
    assert cs.size == 21 and cs.elements[10, 0] == 0.0
    assert ControlSet.singleton([2.0]).size == 1


@pytest.mark.parametrize("elements", [
    [[0.5, 1.0], [2.0, -1.0], [0.5, 1.0]],        # equal rows, not neighbours as given
    [[1.0, 0.0], [0.0, 3.0], [1.0, 0.0], [0.0, 2.0]],
    [[-0.0], [0.0]],                              # -0.0 == 0.0
    [[0.0, -0.0], [2.0, 1.0], [-0.0, 0.0]],
], ids=["two-columns", "two-columns-twice", "signed-zero", "signed-zero-rows"])
def test_control_set_rejects_equal_rows(elements):
    with pytest.raises(ConfigurationError, match="control set elements must be distinct"):
        ControlSet(np.array(elements))


def make_policies(grid, params, choices):
    return np.broadcast_to(choices, (params.steps, grid.npoints))


def test_rollout_zero_cost_problem():
    bench = get_benchmark("zero")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, 1.0)
    pols = make_policies(grid, params, np.zeros(grid.npoints, dtype=int))
    assert rollout_cost(bench.problem, grid, params, pols, (0.0, [0.4]), 0.01) == 0.0


def test_rollout_pure_time_quadrature():
    # f = 0, c = 1, q = 0: cost is exactly T - t for binary-friendly steps
    prob = ControlProblem(
        dynamics=lambda t, x, a: np.zeros_like(x),
        running_cost=lambda t, x, a: 1.0,
        terminal_cost=lambda x: np.zeros(x.shape[:-1]),
        controls=ControlSet.singleton([0.0]),
        f_sup_bound=0.0,
    )
    grid = Grid(spacing=0.25, points_per_axis=(8,), periodic=(True,))
    params = SchemeParams(h=0.25, tau=0.125, N=1.0, T=1.0, steps=8)
    pols = make_policies(grid, params, np.zeros(grid.npoints, dtype=int))
    assert rollout_cost(prob, grid, params, pols, (0.0, [0.5]), 0.125) == 1.0
    assert rollout_cost(prob, grid, params, pols, (0.5, [0.5]), 0.125) == 0.5


def test_rollout_leaving_clamped_grid_raises():
    bench = get_benchmark("quadratic-lq")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, 1.0)
    # constant drift +1 from near the right edge exits the box
    last = np.full(grid.npoints, bench.problem.controls.size - 1, dtype=int)
    pols = make_policies(grid, params, last)
    with pytest.raises(TruncatedRolloutError):
        rollout_cost(bench.problem, grid, params, pols, (0.0, [1.9]), 0.01)


def test_rollout_step_must_not_exceed_tau():
    bench = get_benchmark("zero")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, 1.0)
    pols = make_policies(grid, params, np.zeros(grid.npoints, dtype=int))
    with pytest.raises(ConfigurationError):
        rollout_cost(bench.problem, grid, params, pols, (0.0, [0.4]), 10 * params.tau)


def test_rollout_matches_solver_value():
    # forward cost under the recorded optimal policy tracks V(0, x0)
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
    sol = solve_hjb_direct(bench.problem, grid, params)
    dt = params.tau / 2.0
    x0 = grid.coordinates()[20]
    cost = rollout_cost(bench.problem, grid, params, sol.policy_slices[1:], (0.0, x0), dt)
    budget = 10.0 * (grid.spacing + params.tau + dt)
    assert abs(cost - sol.values[0][20]) <= budget


def test_validate_f_bound_catches_lies():
    prob = ControlProblem(
        dynamics=lambda t, x, a: np.full_like(x, 3.0),
        running_cost=lambda t, x, a: 0.0,
        terminal_cost=lambda x: np.zeros(x.shape[:-1]),
        controls=ControlSet.singleton([0.0]),
        f_sup_bound=1.0,  # actual |f| = 3
    )
    grid = Grid(spacing=0.1, points_per_axis=(8,))
    with pytest.raises(ConfigurationError):
        validate_f_bound(prob, grid, [0.0, 0.5, 1.0])


def test_discrete_sup_norms():
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.1)
    q_sup, c_sup = discrete_sup_norms(bench.problem, grid, [0.0, 0.5, 1.0])
    assert q_sup == pytest.approx(1.0, abs=1e-12)
    assert c_sup == 1.0


def nan_beyond_one(callback):
    """A quadratic-lq copy whose ``callback`` is NaN for x > 1."""
    problem = get_benchmark("quadratic-lq").problem
    original = getattr(problem, callback)
    if callback == "terminal_cost":
        def poisoned(x):
            return np.where(x[..., 0] > 1.0, np.nan, original(x))
    elif callback == "dynamics":
        def poisoned(t, x, a):
            return np.where(x > 1.0, np.nan, original(t, x, a))
    else:
        def poisoned(t, x, a):
            return np.where(x[..., 0] > 1.0, np.nan, original(t, x, a))
    return dataclasses.replace(problem, **{callback: poisoned})


def test_discrete_sup_norms_reject_nan_samples():
    grid = get_benchmark("quadratic-lq").make_grid(0.1)
    with pytest.raises(ConfigurationError,
                       match=r"running_cost returned a non-finite value for control 0 at t=0\.5"):
        discrete_sup_norms(nan_beyond_one("running_cost"), grid, [0.5, 1.0])
    with pytest.raises(ConfigurationError, match=r"terminal_cost returned a non-finite value"):
        discrete_sup_norms(nan_beyond_one("terminal_cost"), grid, [0.5, 1.0])


def test_validate_f_bound_rejects_nan_dynamics():
    grid = get_benchmark("quadratic-lq").make_grid(0.1)
    with pytest.raises(ConfigurationError,
                       match=r"dynamics returned a non-finite value for control 0 at t=0\.5"):
        validate_f_bound(nan_beyond_one("dynamics"), grid, [0.5, 1.0])


@pytest.mark.parametrize("callback", ["running_cost", "dynamics", "terminal_cost"])
def test_non_finite_callback_stops_the_solve_as_a_configuration_error(callback):
    # not as a numerical blowup a few levels in
    grid = get_benchmark("quadratic-lq").make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, 1.0)
    with pytest.raises(ConfigurationError, match=rf"^{callback} returned a non-finite value"):
        solve_hjb_direct(nan_beyond_one(callback), grid, params)


def test_hamiltonian_field_matches_pointwise():
    prob = lq_problem(21)
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(17, 1))
    P = rng.uniform(-2, 2, size=(17, 1))
    values, sel = hamiltonian_field(prob, 0.3, X, P)
    for i in range(17):
        v, j = hamiltonian_field(prob, 0.3, X[i:i + 1], P[i:i + 1])
        assert v[0] == values[i] and j[0] == sel[i]
