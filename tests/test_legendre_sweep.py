"""The fused forward sweep of ``generalized_pi`` against the level-by-level one.

``reference_generalized_pi`` keeps ``generalized_pi`` as it was before the level
kernel was fused: one ``gradient_central_values`` and one
``laplacian_values`` call per level, a check of every new row, and the
three-branch clipped Hamiltonian without its inside-the-ball shortcut.
Every run field must match it bit for bit, and a blowup must raise the
same error.
"""

import dataclasses
import math
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hjbpi import legendre as legendre_module
from hjbpi.benchmarks import get_benchmark
from hjbpi.cli import EXIT_BLOWUP
from hjbpi.errors import CFLValidationError, MonotonicityError, NumericalBlowupError
from hjbpi.grid import Grid, _row_dot, gradient_central_values, laplacian_values
from hjbpi.legendre import (
    LINEARIZE_BLOCK,
    ConvexHamiltonian,
    GeneralizedPIRun,
    ModifiedHamiltonian,
    generalized_pi,
    legendre_resolution,
    legendre_scheme,
)
from hjbpi.pi import PIConfig, _IterationTracker
from hjbpi.problem import _finite_sup
from hjbpi.scheme import _check_values
from test_cli import run_python


class ThreeBranchHamiltonian(ModifiedHamiltonian):
    """The clipped Hamiltonian with every point taking the three-branch formula."""

    def value(self, t, x, p):
        p = np.asarray(p, dtype=float)
        norm = np.sqrt(np.sum(p * p, axis=-1))
        inner = np.asarray(self.base.func(t, x, p), dtype=float)
        linear = self.m1 + self.m2 * (norm - 2.0 * self.M)
        return np.where(norm <= 2.0 * self.M, inner,
                        np.where(norm <= 3.0 * self.M, np.maximum(inner, linear), linear))

    def gradient(self, t, x, p):
        p = np.asarray(p, dtype=float)
        norm = np.sqrt(np.sum(p * p, axis=-1, keepdims=True))
        inner = (norm <= 2.0 * self.M) | ((norm <= 3.0 * self.M) & (
            np.asarray(self.base.func(t, x, p), dtype=float)[..., None]
            >= self.m1 + self.m2 * (norm - 2.0 * self.M)))
        radial = self.m2 * p / np.where(norm > 0.0, norm, 1.0)
        return np.where(inner, self.base.gradient(t, x, p), radial)


def reference_forward_sweep(grid, params, q_values, threshold, term, gradients):
    values = np.empty((params.steps + 1, grid.npoints))
    values[0] = q_values
    for k in range(params.steps):
        t = params.time(k)
        v = values[k]
        grads = gradient_central_values(grid, v)
        lap = laplacian_values(grid, v)
        new = v + params.tau * (term(k, t, grads) + params.N * params.h * lap)
        _check_values(new, params.time(k + 1), threshold)
        values[k + 1] = new
        gradients[k] = grads
    values.setflags(write=False)
    return values


def reference_generalized_pi(clipped, q, grid, params, v0=None, max_iterations=60,
                             stop_tolerance=1e-10):
    H, T = clipped.base, params.T
    mod = ThreeBranchHamiltonian(base=H, M=clipped.M, m1=clipped.m1, m2=clipped.m2)
    coords = grid.coordinates()
    q_values = np.broadcast_to(np.asarray(q(coords), dtype=float), (grid.npoints,))

    times = (0.0,) if H.time_invariant else np.linspace(0.0, T, 9)
    h0 = max(float(np.max(np.abs(mod.value(t, coords, np.zeros_like(coords)))))
             for t in times)
    threshold = 10.0 * (_finite_sup(q_values, "terminal cost q") + h0 * T + 1.0)

    block = LINEARIZE_BLOCK if H.time_invariant else 1

    fixed_advection = np.empty((params.steps, grid.npoints, grid.dim))
    fixed = reference_forward_sweep(
        grid, params, q_values, threshold,
        lambda k, t, grads: -mod.value(t, coords, grads), fixed_advection)
    for k in range(0, params.steps, block):
        p = fixed_advection[k:k + block]
        p[:] = mod.gradient(params.time(k), np.broadcast_to(coords, p.shape), p)

    gradients = np.empty_like(fixed_advection)
    if v0 is None:
        gradients[:] = gradient_central_values(grid, q_values)
    else:
        for k in range(params.steps):
            gradients[k] = gradient_central_values(grid, v0[k])
    analytic_dual = H.legendre_L is not None
    resolution = 0.0 if analytic_dual else legendre_resolution(mod)
    level_grad_sup = np.zeros(params.steps)
    level_adv_l2 = np.zeros(params.steps)
    b = dual = None

    def linear_term(k, t, grads):
        nonlocal b, dual
        j = k % block
        if j == 0:
            p_prev = gradients[k:k + block]
            x = np.broadcast_to(coords, p_prev.shape)
            level_grad_sup[k:k + block] = np.max(np.abs(p_prev), axis=(1, 2))
            b = mod.gradient(t, x, p_prev)
            bdiff = b - fixed_advection[k:k + block]
            level_adv_l2[k:k + block] = np.sqrt(np.sum(bdiff * bdiff, axis=(1, 2)))
            if analytic_dual:
                dual = np.asarray(H.legendre_L(t, x, b), dtype=float)
            else:
                dual = np.sum(p_prev * b, axis=-1) - mod.value(t, x, p_prev)
        return dual[j] - np.sum(b[j] * grads, axis=-1)

    tracker = _IterationTracker(fixed, slice(None), -1, PIConfig(
        max_iterations=max_iterations, stop_tolerance=stop_tolerance))
    adv_l2, grad_sup = [], []
    for n in range(max_iterations):
        values = reference_forward_sweep(grid, params, q_values, threshold, linear_term,
                                         gradients)
        adv_l2.append(float(np.max(level_adv_l2)))
        grad_sup.append(float(np.max(level_grad_sup)))
        if tracker.record(n, values):
            break

    return GeneralizedPIRun(
        params=params,
        fixed_point=fixed,
        last_iterate=values,
        advection_l2=np.array(adv_l2),
        gradient_sup=np.array(grad_sup),
        legendre_resolution=resolution,
        **tracker.fields(),
    )


def assert_bitwise(a, b, where="run"):
    """Equal values, shapes and dtypes, with every float compared by its bits."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert (a.shape, a.dtype) == (b.shape, b.dtype), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes(), where
    else:
        assert a == b, where


def assert_runs_bitwise(run, reference):
    for field in dataclasses.fields(GeneralizedPIRun):
        assert_bitwise(getattr(run, field.name), getattr(reference, field.name), field.name)


def half_square(rate=0.0, analytic_grad=True, analytic_dual=True, time_invariant=False):
    """(1 + rate t) |p|^2 / 2, with its gradient and dual when asked for."""
    return ConvexHamiltonian(
        func=lambda t, x, p: 0.5 * (1.0 + rate * t) * np.sum(p * p, axis=-1),
        grad_p=(lambda t, x, p: (1.0 + rate * t) * p) if analytic_grad else None,
        legendre_L=(lambda t, x, mu: 0.5 / (1.0 + rate * t) * np.sum(mu * mu, axis=-1))
        if analytic_dual else None,
        time_invariant=time_invariant,
    )


@st.composite
def configs(draw):
    dim = draw(st.sampled_from([1, 2]))
    points = tuple(draw(st.integers(min_value=3, max_value=12 if dim == 2 else 40))
                   for _ in range(dim))
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    grid = Grid(spacing=draw(st.floats(min_value=0.1, max_value=0.6)),
                points_per_axis=points, periodic=periodic)
    time_invariant = draw(st.booleans())
    H = half_square(rate=0.0 if time_invariant else draw(st.sampled_from([0.0, 0.7])),
                    analytic_grad=draw(st.booleans()), analytic_dual=draw(st.booleans()),
                    time_invariant=time_invariant)
    # gradients up to 3 * amplitude against the clipping radius 2M, so
    # some runs leave the ball and take the three-branch formula
    M = draw(st.floats(min_value=0.5, max_value=3.0))
    amplitude = draw(st.floats(min_value=0.0, max_value=3.0))
    q = lambda X: amplitude * np.cos(X[:, 0]) * (np.sin(3.0 * X[:, 1]) if dim == 2 else 1.0)
    N = legendre_scheme(H, M, grid, 1.0)[0].N
    tau = draw(st.floats(min_value=0.3, max_value=1.0)) * grid.spacing / (2.0 * dim * N)
    steps = draw(st.integers(min_value=1, max_value=40))
    try:
        clipped, params = legendre_scheme(H, M, grid, steps * tau, tau)
    except CFLValidationError:
        # a time-dependent H probed past t = 1 can need more viscosity than
        # the N the step was drawn from; the run refuses such a step
        reject()
    kwargs = dict(max_iterations=draw(st.integers(min_value=1, max_value=8)),
                  stop_tolerance=draw(st.sampled_from([math.ulp(0.0), 1e-10])))
    return clipped, q, grid, params, kwargs


def outcome(solve, *args, **kwargs):
    """The run, or the error it raised: gradients beyond 2M void the
    decrease property, and the tracker may then abort the run."""
    try:
        return solve(*args, **kwargs)
    except MonotonicityError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(config=configs())
def test_fused_sweep_matches_the_level_by_level_reference(spy, config):
    *scheme, kwargs = config
    with spy(legendre_module, "_forward_sweep") as sweeps:
        run = outcome(generalized_pi, *scheme, **kwargs)
    with spy(sys.modules[__name__], "reference_forward_sweep") as reference_sweeps:
        reference = outcome(reference_generalized_pi, *scheme, **kwargs)
    if isinstance(reference, str):
        assert run == reference
    else:
        assert_runs_bitwise(run, reference)
        # the direct run and every iterate, not only the last
        assert_bitwise(sweeps, reference_sweeps, "sweeps")


def assert_sweeps_match_the_reference(spy, H, q, grid, T, M, **kwargs):
    """The run, its direct run and every iterate, bit for bit against the reference."""
    clipped, params = legendre_scheme(H, M, grid, T)
    with spy(legendre_module, "_forward_sweep") as sweeps:
        run = generalized_pi(clipped, q, grid, params, **kwargs)
    with spy(sys.modules[__name__], "reference_forward_sweep") as reference_sweeps:
        reference = reference_generalized_pi(clipped, q, grid, params, **kwargs)
    assert_runs_bitwise(run, reference)
    assert_bitwise(sweeps, reference_sweeps, "sweeps")
    return run


def test_eikonal_run_matches_the_reference(spy):
    # the legendre-pi workload's grid and Hamiltonian: 500 levels, the last
    # block ragged
    grid = get_benchmark("eikonal-cos").make_grid(0.01)
    H = half_square(time_invariant=True)
    q = lambda X: np.cos(X[:, 0])
    run = assert_sweeps_match_the_reference(spy, H, q, grid, 1.0, 2.0)
    assert run.params.steps % LINEARIZE_BLOCK != 0 and run.stop_reason == "tolerance"


def test_explicit_start_matches_the_reference(spy):
    grid = Grid(spacing=0.3, points_per_axis=(9, 7), periodic=(False, True))
    H = half_square(analytic_dual=False, time_invariant=True)
    q = lambda X: np.cos(X[:, 0]) + X[:, 1]
    steps = legendre_scheme(H, 2.0, grid, 1.0)[1].steps
    v0 = np.random.default_rng(3).uniform(-1.0, 1.0, size=(steps + 1, grid.npoints))
    run = assert_sweeps_match_the_reference(spy, H, q, grid, 1.0, 2.0, v0=v0,
                                            max_iterations=4, stop_tolerance=math.ulp(0.0))
    assert run.iterations_used == 4


def broken_dual_h(bad_row, bump):
    """A flagged half-square whose dual is off by ``bump`` at point 3 of
    block row ``bad_row``: a fault that starts inside a linearized block."""
    def legendre_L(t, x, mu):
        dual = 0.5 * np.sum(mu * mu, axis=-1)
        if len(dual) > bad_row:
            dual[bad_row, 3] += bump
        return dual

    return dataclasses.replace(half_square(time_invariant=True), legendre_L=legendre_L)


@pytest.mark.parametrize("bump, message", [
    (math.inf, "non-finite value at t="),
    (2000.0, "exceeds the a-priori threshold"),
], ids=["non-finite", "threshold"])
def test_blowup_inside_a_block_raises_the_reference_error(bump, message):
    grid = get_benchmark("eikonal-cos").make_grid(0.1)
    H = broken_dual_h(5, bump)
    q = lambda X: np.cos(X[:, 0])
    clipped, params = legendre_scheme(H, 2.0, grid, 1.0)
    errors = []
    for solve in (generalized_pi, reference_generalized_pi):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalBlowupError, match=message) as err:
                solve(clipped, q, grid, params)
        errors.append((str(err.value), err.value.time_label, err.value.point, err.value.value))
        if solve is generalized_pi:
            # the sweep went on to the end of the block through inf - inf
            assert not caught, [str(w.message) for w in caught]
    assert errors[0] == errors[1]
    level = round(errors[0][1] / params.tau)
    assert level % LINEARIZE_BLOCK not in (0, 1)  # inside the block, not at its edge
    assert errors[0][2] == 3


def test_blowup_through_the_command_line(tmp_path):
    (tmp_path / "exp.cfg").write_text("benchmark: eikonal-cos\nscheme.h: 0.1\n")
    # the broken_dual_h fault, planted in the CLI's half-square form
    script = textwrap.dedent("""
        import dataclasses, sys
        import numpy as np
        from hjbpi import cli

        def legendre_L(t, x, mu):
            dual = 0.5 * np.sum(mu * mu, axis=-1)
            if len(dual) > 5:
                dual[5, 3] = np.inf
            return dual

        form = cli.LEGENDRE_FORMS["half-square"]
        cli.LEGENDRE_FORMS["half-square"] = dataclasses.replace(form, legendre_L=legendre_L)
        sys.exit(cli.main(["legendre-pi", "--config", "exp.cfg", "--output", "out"]))
    """)
    result = run_python(["-c", script], cwd=tmp_path)
    assert result.returncode == EXIT_BLOWUP, result.stderr
    # the one documented line for exit 3, and no numpy warning before it
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("numerical blowup: non-finite value at t=")


@pytest.mark.parametrize("d", range(1, 10))
def test_row_dot_has_the_bits_of_np_sum(d):
    rng = np.random.default_rng(d)
    specials = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, 3.5, -2.25, math.inf, math.nan])
    a = np.where(rng.uniform(size=(500, d)) < 0.3, rng.choice(specials, size=(500, d)),
                 rng.normal(scale=1e8, size=(500, d)))
    b = np.where(rng.uniform(size=(500, d)) < 0.3, rng.choice(specials, size=(500, d)),
                 rng.normal(size=(500, d)))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.sum(a * b, axis=-1)
        got = _row_dot(a, b, np.empty(500), np.empty(500))
    assert got.tobytes() == expected.tobytes()


class TestInsideTheBall:
    """``ModifiedHamiltonian`` returns H and grad_p H unclipped when every |p|
    is at most 2M; that must be what the three-branch formula gives."""

    M = 1.0

    @staticmethod
    def clipped(base, cls=ModifiedHamiltonian):
        return cls(base=base, M=TestInsideTheBall.M, m1=2.0, m2=2.5)

    @pytest.mark.parametrize("case", ["inside", "shell", "beyond", "nan"])
    @pytest.mark.parametrize("shape", [(7, 2), (3, 5, 2)])
    def test_matches_the_three_branch_formula(self, case, shape):
        rng = np.random.default_rng(5)
        p = rng.uniform(-1.0, 1.0, size=shape) * (2.0 * self.M / math.sqrt(2.0))
        odd = {"inside": None, "shell": 2.5 * self.M, "beyond": 4.0 * self.M,
               "nan": math.nan}[case]
        if odd is not None:
            p.reshape(-1, 2)[3] = (odd, 0.0)
        # grad_p hands p back: the result must not alias it
        base = half_square()
        base = dataclasses.replace(base, grad_p=lambda t, x, p: p)
        self.assert_matches(base, np.zeros(shape), p)

    def test_scalar_base_value(self):
        flat = ConvexHamiltonian(func=lambda t, x, p: 1.5)
        p = np.random.default_rng(6).uniform(-0.5, 0.5, size=(4, 3, 2))
        self.assert_matches(flat, np.zeros_like(p), p)
        assert self.clipped(flat).value(0.0, None, p).shape == (4, 3)

    def assert_matches(self, base, x, p):
        fast, slow = self.clipped(base), self.clipped(base, ThreeBranchHamiltonian)
        for method in ("value", "gradient"):
            got = getattr(fast, method)(0.0, x, p)
            assert_bitwise(got, getattr(slow, method)(0.0, x, p), method)
            kept = got.copy()
            p_before = p.copy()
            p[...] = 99.0
            assert_bitwise(got, kept, f"{method} after p changed")
            p[...] = p_before
