"""The functions the benchmark's tracer wraps exist, and it puts them all back.

``bench/tracing.py`` looks up hjbpi's public functions by name and rebinds
every module attribute that holds one.  Deleting or renaming such a name
would otherwise surface only in a traced benchmark run.  The file is
loaded by its path, since ``bench`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from hjbpi import pi
from hjbpi.benchmarks import Benchmark, get_benchmark, lq_feedback_policies
from hjbpi.legendre import ConvexHamiltonian, generalized_pi, legendre_scheme
from hjbpi.scheme import SchemeParams

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


def bindings():
    """Every attribute of hjbpi and its layer modules, plus ``Benchmark``'s own."""
    owners = [importlib.import_module("hjbpi")] + [
        importlib.import_module(f"hjbpi.{layer}") for layer in TRACING.LAYERS] + [Benchmark]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_install_wraps_the_traced_surface_and_restore_puts_it_back():
    before = bindings()
    try:
        handle = TRACING.install(TRACING.Recorder())
        wrapped = {attr for owner, attrs in before for attr, value in attrs.items()
                   if vars(owner)[attr] is not value}
        for name in ("gradient_central_values", "laplacian_values", "improve_policy",
                     "solve_hjb_direct", "evaluate_policy", "make_grid", "generalized_pi",
                     "modify_hamiltonian"):
            assert name in wrapped
        handle.restore()
        for owner, attrs in before:
            now = vars(owner)
            assert set(now) == set(attrs), owner
            for attr, value in attrs.items():
                assert now[attr] is value, (owner, attr)
    finally:
        # a failed install or restore must not leave wrappers for later tests
        for owner, attrs in before:
            for attr, value in attrs.items():
                if vars(owner).get(attr) is not value:
                    setattr(owner, attr, value)


def test_legendre_work_reads_a_real_run():
    # the tracer's work counts read fields of the run generalized_pi returns
    H = ConvexHamiltonian(func=lambda t, x, p: 0.5 * np.sum(p * p, axis=-1),
                          grad_p=lambda t, x, p: p, time_invariant=True)
    grid = get_benchmark("eikonal-cos").make_grid(0.2)
    clipped, params = legendre_scheme(H, 2.0, grid, 0.5)
    run = generalized_pi(clipped, lambda X: np.cos(X[:, 0]), grid, params, max_iterations=3)
    assert TRACING._legendre_work((clipped, None, grid, params), {}, run) == {
        "iterations": run.iterations_used, "levels": params.steps * (run.iterations_used + 1)}


def test_a_traced_pi_run_records_one_evaluation_span_per_iteration():
    # evaluations that step fewer levels are still evaluate_policy calls, so
    # their time lands in scheme.evaluate_self_s
    bench = get_benchmark("quadratic-lq")
    grid = bench.make_grid(0.1)
    params = SchemeParams.create(grid.spacing, 1.0, bench.problem.f_sup_bound)
    start = lq_feedback_policies(bench.problem, grid, params)
    recorder = TRACING.Recorder()
    handle = TRACING.install(recorder)
    try:
        run = pi.run_policy_iteration(bench.problem, grid, params, pi.PIConfig(start))
    finally:
        handle.restore()
    names = [span[TRACING.NAME] for span in recorder.spans]
    assert run.levels_swept.tolist() == [20, 20, 18, 0]
    assert names.count("scheme.evaluate_policy") == run.iterations_used == 4
    assert names.count("scheme.solve_hjb_direct") == 1
