import csv

import numpy as np
import pytest

from hjbpi.benchmarks import get_benchmark
from hjbpi.grid import Grid
from hjbpi.io import fmt, write_solution_csv
from hjbpi.problem import ControlProblem, ControlSet
from hjbpi.scheme import SchemeParams, SpaceTimeSolution, evaluate_policy, solve_hjb_direct


def reference_solution_csv(solution, path):
    """Row-at-a-time csv.writer output; write_solution_csv must match it byte for byte."""
    grid = solution.grid
    coords = grid.coordinates()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "linear_index"]
                        + [f"x_{i}" for i in range(grid.dim)]
                        + ["value", "control_index"])
        for k, s in enumerate(solution.values):
            t = solution.params.time(k)
            for idx in range(grid.npoints):
                writer.writerow([fmt(t), idx]
                                + [fmt(c) for c in coords[idx]]
                                + [fmt(s[idx]), int(solution.policy_slices[k, idx])])


def assert_same_bytes(solution, tmp_path):
    written = tmp_path / "solution.csv"
    expected = tmp_path / "reference.csv"
    write_solution_csv(solution, written)
    reference_solution_csv(solution, expected)
    assert written.read_bytes() == expected.read_bytes()


def test_periodic_direct_solve(tmp_path):
    bench = get_benchmark("eikonal-cos")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 0.5, bench.problem.f_sup_bound)
    assert_same_bytes(solve_hjb_direct(bench.problem, grid, params), tmp_path)


def test_clamped_two_dimensional_solve(tmp_path):
    angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    prob = ControlProblem(
        dynamics=lambda t, x, a: np.broadcast_to(0.5 * a, x.shape),
        running_cost=lambda t, x, a: x[..., 0] * a[1],
        terminal_cost=lambda x: x[..., 0] ** 2 - x[..., 1],
        controls=ControlSet(np.stack([np.cos(angles), np.sin(angles)], axis=-1)),
        f_sup_bound=0.5,
    )
    grid = Grid(spacing=0.2, points_per_axis=(5, 4), origin=(-0.4, -0.3),
                periodic=(False, False))
    params = SchemeParams.create(grid.spacing, 0.3, prob.f_sup_bound, dim=2)
    sol = solve_hjb_direct(prob, grid, params)
    assert np.all(sol.policy_slices[0] == -1) and np.any(sol.policy_slices > 0)
    assert_same_bytes(sol, tmp_path)


@pytest.mark.parametrize("count, dtype", [(128, np.int8), (129, np.int16)])
def test_policy_dtype_boundary(tmp_path, count, dtype):
    # c = 0 and f = a: each argmin is the first or the last control, so the
    # largest index, count - 1, is stored and written
    prob = ControlProblem(
        dynamics=lambda t, x, a: np.full_like(x, a[0]),
        running_cost=lambda t, x, a: 0.0,
        terminal_cost=lambda x: np.cos(x[..., 0]),
        controls=ControlSet.uniform(-1.0, 1.0, count),
        f_sup_bound=1.0,
        time_invariant=True,
    )
    grid = Grid(spacing=2.0 * np.pi / 16, points_per_axis=(16,))
    params = SchemeParams.create(grid.spacing, 0.5, prob.f_sup_bound)
    sol = solve_hjb_direct(prob, grid, params)
    assert sol.policy_slices.dtype == dtype and not sol.policy_slices.flags.writeable
    assert_same_bytes(sol, tmp_path)
    assert f",{count - 1}\r\n".encode() in (tmp_path / "solution.csv").read_bytes()
    replay = evaluate_policy(prob, grid, params, sol.policy_slices[1:])
    assert replay.values.tobytes() == sol.values.tobytes()


def manual_solution(values, last_policy=None):
    grid = Grid(spacing=0.25, points_per_axis=(len(values),), origin=(-0.5,))
    params = SchemeParams(h=0.25, tau=0.125, N=1.0, T=0.125, steps=1)
    policy = np.full((2, len(values)), -1, dtype=np.int8)
    if last_policy is not None:
        policy[1] = last_policy
    return SpaceTimeSolution(grid=grid, params=params, values=np.stack([values, values[::-1]]),
                             policy_slices=policy, q_sup=0.0, c_sup=0.0)


def test_empty_policy_slices(tmp_path):
    sol = manual_solution(np.array([0.5, -2.0, 3.25]))
    assert_same_bytes(sol, tmp_path)
    assert b",-1\r\n" in (tmp_path / "solution.csv").read_bytes()


@pytest.mark.parametrize("with_policy", (False, True))
def test_extreme_float_values(tmp_path, with_policy):
    values = np.array([-0.0, 1e-300, 1e16, -1e16, 0.1 + 0.2, 5e-324])
    sol = manual_solution(values, [0, 2, 1, 2, 0, 1] if with_policy else None)
    assert_same_bytes(sol, tmp_path)
    text = (tmp_path / "solution.csv").read_text()
    for token in ("-0.0", "1e-300", "1e+16", "0.30000000000000004"):
        assert token in text


@pytest.mark.parametrize("shape", [(9,), (3, 3)], ids=["1d", "2d"])
def test_level_assembly_matches_csv_writer(tmp_path, shape):
    # int16 policies (129 controls) up to the last index, row 0's -1, and
    # values whose repr takes every form: -0.0, exponents, the subnormal
    grid = Grid(spacing=0.25, points_per_axis=shape, origin=(-0.5,) * len(shape),
                periodic=(False,) * len(shape))
    params = SchemeParams(h=0.25, tau=0.0625, N=1.0, T=0.125, steps=2, dim=len(shape))
    specials = np.array([-0.0, 1e-05, 1e16, 5e-324, -2.5, 0.1 + 0.2, -1e-300, 3.0, -1e16])
    values = np.stack([np.roll(specials, k) for k in range(3)])
    policy = np.array([[-1] * 9, [0, 128, 5, 127, 1, 128, 9, 0, 2],
                       [128, 0, 0, 64, 3, 2, 128, 1, 7]], dtype=np.int16)
    sol = SpaceTimeSolution(grid=grid, params=params, values=values, policy_slices=policy,
                            q_sup=0.0, c_sup=0.0)
    assert_same_bytes(sol, tmp_path)
    written = (tmp_path / "solution.csv").read_bytes()
    for token in (b",-0.0,", b",1e-05,", b",1e+16,", b",5e-324,", b",128\r\n", b",-1\r\n"):
        assert token in written
