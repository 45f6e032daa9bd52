"""The scheme's fused level kernel against the level-by-level sweep.

``reference_sweep`` keeps the backward sweep as it was before the level
kernel was fused, with the replay rule added: per level one
``gradient_central_values`` and one ``laplacian_values`` call, fresh
candidates ``c + np.sum(p * f, axis=-1)`` and their ``_first_argmin``, the
frozen control's candidate except where it is the level's own first
argmin, and a check of every new row.  Every value and recorded argmin
must match it bit for bit, and a blowup must raise the same error.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbpi.errors import NumericalBlowupError
from hjbpi.grid import Grid, _row_dot, gradient_central_values, laplacian_values
from hjbpi.problem import (
    ControlProblem,
    ControlSet,
    _candidate_tensors,
    _candidates,
    _first_argmin,
)
from hjbpi.scheme import (
    SchemeParams,
    _blowup_threshold,
    _check_values,
    _step_kernel,
    _sweep,
    evaluate_policy,
    solve_hjb_direct,
)


def reference_candidates(tensors, grads):
    costs, drifts = tensors
    return costs + np.sum(grads[:, None, :] * drifts, axis=-1)


def reference_step(problem, params, grid, t, values, frozen=None, tensors=None):
    grads = gradient_central_values(grid, values)
    lap = laplacian_values(grid, values)
    if tensors is None:
        tensors = _candidate_tensors(problem, t, grid.coordinates())
    cand = reference_candidates(tensors, grads)
    hmin, sel = _first_argmin(cand)
    if frozen is not None:
        picked = np.take_along_axis(cand, frozen[:, None].astype(np.intp), axis=1)[:, 0]
        hmin = np.where(frozen == sel, hmin, picked)
    new = values + params.tau * hmin + params.N * params.h * params.tau * lap
    return new, sel


def reference_sweep(problem, grid, params, sup_norms, frozen=None):
    """(values, argmins) of the level-by-level sweep."""
    threshold = _blowup_threshold(*sup_norms, params.T)
    values = np.empty((params.steps + 1, grid.npoints))
    argmins = np.empty((params.steps + 1, grid.npoints), dtype=problem.controls.index_dtype)
    argmins[0] = -1
    values[params.steps] = np.asarray(problem.terminal_cost(grid.coordinates()), dtype=float)
    tensors = (_candidate_tensors(problem, params.T, grid.coordinates())
               if problem.time_invariant else None)
    for k in range(params.steps, 0, -1):
        new, sel = reference_step(problem, params, grid, params.time(k), values[k],
                                  None if frozen is None else frozen[k - 1], tensors)
        _check_values(new, params.time(k - 1), threshold)
        argmins[k] = sel
        values[k - 1] = new
    return values, argmins


def assert_matches_reference(solution, problem, frozen=None):
    values, argmins = reference_sweep(problem, solution.grid, solution.params,
                                      (solution.q_sup, solution.c_sup), frozen)
    assert solution.values.tobytes() == values.tobytes()
    assert solution.policy_slices.dtype == argmins.dtype
    assert solution.policy_slices.tobytes() == argmins.tobytes()


@st.composite
def sweep_cases(draw):
    """A random problem, grid and scheme, each axis periodic or clamped.

    The drift a * s(t, x) with 0 < s <= 1 keeps |f| <= |a|, so the declared
    bound holds for time-varying problems too.
    """
    dim = draw(st.sampled_from((1, 2)))
    points = tuple(draw(st.integers(min_value=3, max_value=16 if dim == 1 else 7))
                   for _ in range(dim))
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    h = draw(st.floats(min_value=0.05, max_value=0.5))
    amplitude = draw(st.floats(min_value=0.25, max_value=3.0))
    N = max(1.0, amplitude / 2.0) * draw(st.floats(min_value=1.0, max_value=2.0))
    tau = draw(st.floats(min_value=0.1, max_value=1.0)) * h / (2.0 * dim * N)
    steps = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=1, max_value=7))
    if dim == 1:
        controls = ControlSet(amplitude * np.linspace(-1.0, 1.0, count))
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, count + 1, endpoint=False)
        controls = ControlSet(amplitude * np.stack([np.cos(angles), np.sin(angles)], axis=-1))
    time_invariant = draw(st.booleans())
    rate = 0.0 if time_invariant else draw(st.sampled_from([0.0, 0.7]))
    weight = draw(st.floats(min_value=-1.0, max_value=1.0))
    wave = draw(st.integers(min_value=1, max_value=3))
    problem = ControlProblem(
        dynamics=lambda t, x, a: a * ((1.0 + rate * np.sin(t + x[..., :1])) / (1.0 + rate)),
        running_cost=lambda t, x, a: (0.5 * np.sum(a * a)
                                      + weight * np.sin(x[..., 0] + rate * t) * a[0]),
        terminal_cost=lambda x: np.cos(wave * x[..., 0]) + np.sin(x[..., -1]),
        controls=controls,
        f_sup_bound=amplitude,
        time_invariant=time_invariant,
    )
    grid = Grid(spacing=h, points_per_axis=points, origin=(-0.3,) * dim, periodic=periodic)
    params = SchemeParams(h=h, tau=tau, N=N, T=steps * tau, steps=steps, dim=dim)
    frozen = draw(st.sampled_from(["direct", "random", "replay"]))
    return problem, grid, params, frozen, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
def test_fused_sweeps_match_the_level_by_level_reference(case):
    problem, grid, params, frozen, seed = case
    direct = solve_hjb_direct(problem, grid, params)
    assert_matches_reference(direct, problem)
    if frozen != "direct":
        rng = np.random.default_rng(seed)
        policies = (direct.policy_slices[1:] if frozen == "replay" else
                    rng.integers(0, problem.controls.size, (params.steps, grid.npoints)))
        evaluated = evaluate_policy(problem, grid, params, policies)
        assert_matches_reference(evaluated, problem, policies)
        if frozen == "replay":
            assert evaluated.values.tobytes() == direct.values.tobytes()
    # a fresh kernel built for one level steps it the same way
    k = int(np.random.default_rng(seed).integers(1, params.steps + 1))
    t = params.time(k)
    stepped = np.empty(grid.npoints)
    _step_kernel(problem, grid, params)(t, direct.values[k], stepped)
    expected, _ = reference_step(problem, params, grid, t, direct.values[k])
    assert stepped.tobytes() == expected.tobytes()


def test_int16_policies_match_the_reference():
    # 130 controls store the policy in int16; c = 0 and f = a put the
    # argmins at both ends of the control list
    problem = ControlProblem(
        dynamics=lambda t, x, a: np.full_like(x, a[0]),
        running_cost=lambda t, x, a: 0.0,
        terminal_cost=lambda x: np.cos(x[..., 0]),
        controls=ControlSet.uniform(-1.0, 1.0, 130),
        f_sup_bound=1.0,
        time_invariant=True,
    )
    grid = Grid(spacing=2.0 * np.pi / 16, points_per_axis=(16,))
    params = SchemeParams.create(grid.spacing, 0.5, problem.f_sup_bound)
    direct = solve_hjb_direct(problem, grid, params)
    assert direct.policy_slices.dtype == np.int16 and direct.policy_slices.max() == 129
    assert_matches_reference(direct, problem)
    policies = np.random.default_rng(4).integers(0, 130, (params.steps, grid.npoints))
    assert_matches_reference(evaluate_policy(problem, grid, params, policies), problem,
                             policies)


def negative_drift_problem(dim, terminal):
    """Drifts with negative entries and a -0.0 running cost."""
    controls = np.array([[-1.0, -0.5], [-0.25, -1.0], [0.5, -2.0]])[:, :dim]
    return ControlProblem(
        dynamics=lambda t, x, a: np.broadcast_to(a, x.shape),
        running_cost=lambda t, x, a: -0.0,
        terminal_cost=terminal,
        controls=ControlSet(controls),
        f_sup_bound=2.5,
        time_invariant=True,
    )


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_signed_zero_candidates(dim):
    # a zero gradient times a negative drift is -0.0, and -0.0 + -0.0 would
    # stay -0.0; the 0.0 the d-axis sum starts from makes the candidate 0.0
    rng = np.random.default_rng(dim)
    costs = np.full((5, 3), -0.0)
    drifts = -rng.uniform(0.5, 1.0, size=(5, 3, dim))
    grads = np.zeros((5, dim))
    expected = reference_candidates((costs, drifts), grads)
    assert not np.signbit(expected).any()
    assert np.signbit(costs + grads[:, None, 0] * drifts[:, :, 0]).all()
    buffers = (np.empty((5, 3)), np.empty((5, 3)))
    for got in (_candidates((costs, drifts), grads),
                _candidates((costs, drifts), grads, *buffers)):
        assert got.tobytes() == expected.tobytes()
    # the shared d-axis loop broadcasts a point's gradient over its controls
    assert _row_dot(grads[:, None, :], drifts).tobytes() == \
        np.sum(grads[:, None, :] * drifts, axis=-1).tobytes()


@pytest.mark.parametrize("terminal", [lambda x: np.zeros(len(x)),
                                      lambda x: np.full(len(x), -0.0),
                                      lambda x: np.where(x[..., 0] > 0.6, 0.0, -0.0)],
                         ids=["zero", "negative-zero", "mixed-zeros"])
@pytest.mark.parametrize("dim", [1, 2])
def test_signed_zero_sweeps_match_the_reference(dim, terminal):
    problem = negative_drift_problem(dim, terminal)
    grid = Grid(spacing=0.25, points_per_axis=(6,) * dim, periodic=(False,) * dim)
    params = SchemeParams.create(grid.spacing, 0.5, problem.f_sup_bound, dim=dim)
    direct = solve_hjb_direct(problem, grid, params)
    assert_matches_reference(direct, problem)
    policies = np.random.default_rng(dim).integers(0, 3, (params.steps, grid.npoints))
    assert_matches_reference(evaluate_policy(problem, grid, params, policies), problem,
                             policies)


def blowup_case(kind):
    """A problem, its grid, scheme, policy and sup norms that blow up.

    The sup norms are handed in, so nothing checks them against the problem:
    a running cost of 100 against a threshold of 10 crosses it after a few
    levels, and a terminal spike of 1e307 overflows the Laplacian to inf in
    the first step.
    """
    spike = kind == "non-finite"
    problem = ControlProblem(
        dynamics=lambda t, x, a: np.broadcast_to(a, x.shape),
        running_cost=lambda t, x, a: 0.0 if spike else 100.0 + a[0],
        terminal_cost=lambda x: np.where(np.abs(x[..., 0] - 0.6) < 0.1, 1e307, 0.0)
        if spike else np.zeros(len(x)),
        controls=ControlSet(np.array([-1.0, 1.0])),
        f_sup_bound=1.0,
        time_invariant=True,
    )
    grid = Grid(spacing=0.2, points_per_axis=(8,))
    params = SchemeParams.create(grid.spacing, 1.0, problem.f_sup_bound)
    policies = np.zeros((params.steps, grid.npoints), dtype=np.int8)
    return problem, grid, params, policies, (1e307 if spike else 0.0, 0.0)


@pytest.mark.parametrize("frozen", [False, True], ids=["direct", "frozen"])
@pytest.mark.parametrize("kind, message", [
    ("non-finite", "non-finite value at t="),
    ("threshold", "exceeds the a-priori threshold"),
])
def test_blowup_raises_the_reference_error_without_warnings(kind, message, frozen):
    problem, grid, params, policies, sup_norms = blowup_case(kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalBlowupError, match=message) as err:
            _sweep(problem, grid, params, sup_norms, policies if frozen else None)
    assert not caught, [str(w.message) for w in caught]
    with warnings.catch_warnings(record=True) as reference_caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalBlowupError) as ref:
            reference_sweep(problem, grid, params, sup_norms, policies if frozen else None)
    got, want = err.value, ref.value
    assert (str(got), got.time_label, got.point, repr(got.value)) == \
        (str(want), want.time_label, want.point, repr(want.value))
    # the unguarded reference overflows on its way to the same error
    assert bool(reference_caught) == (kind == "non-finite")


def reference_top(policies, earlier):
    """One above the highest policy row that differs from ``earlier`` (0 if none)."""
    changed = [j for j in range(len(policies)) if not np.array_equal(policies[j], earlier[j])]
    return changed[-1] + 1 if changed else 0


@settings(max_examples=40, deadline=None)
@given(case=sweep_cases())
def test_evaluations_from_the_previous_one_are_full_sweeps_that_step_less(case):
    """Howard's iteration from a random start, each evaluation handed the last.

    Three facts, bitwise: an evaluation from the previous one equals the full
    re-sweep in values and improved policy and steps exactly the levels below
    the highest changed policy row; that top never rises; and after
    evaluation n the rows steps - n .. steps are the direct solve's (the
    wavefront), so within steps + 2 evaluations the policy repeats.
    """
    problem, grid, params, _, seed = case
    direct = solve_hjb_direct(problem, grid, params)
    sup_norms = (direct.q_sup, direct.c_sup)
    policies = np.random.default_rng(seed).integers(
        0, problem.controls.size, (params.steps, grid.npoints))
    previous, tops = None, []
    for n in range(params.steps + 3):
        full = evaluate_policy(problem, grid, params, policies, sup_norms=sup_norms)
        sol = evaluate_policy(problem, grid, params, policies, sup_norms=sup_norms,
                              previous=previous)
        assert sol.values.tobytes() == full.values.tobytes()
        assert sol.policy_slices.dtype == full.policy_slices.dtype
        assert sol.policy_slices.tobytes() == full.policy_slices.tobytes()
        assert sol.levels_swept == (params.steps if previous is None else
                                    reference_top(policies, previous[0]))
        tops.append(sol.levels_swept)
        reached = max(0, params.steps - n)
        assert sol.values[reached:].tobytes() == direct.values[reached:].tobytes()
        previous, policies = (policies, sol), sol.policy_slices[1:]
    assert tops == sorted(tops, reverse=True)
    assert tops[-1] == 0
