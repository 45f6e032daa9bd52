"""Every pinned benchmark workload reproduces its recorded artifact digest.

``bench/workloads.py`` pins four CLI runs and the SHA-256 of the artifact
set each one writes.  Running them here turns a drift of a single bit into
a failed test, not only a failed benchmark run.  The file is loaded by its
path, since ``bench`` is not a package.  ``MODE_PINS`` adds the modes no
workload runs (tau-study and probes), with the same digest.  h-study scores
its levels on one thread or two, by the usable CPUs, so it is also pinned
with each count forced.  ``PI_PINS`` pins API-level policy-iteration runs
on the paths the CLI cannot reach: 2-D grids, a problem whose callbacks
read t, and more than 128 controls.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hjbpi import analysis, cli
from hjbpi.grid import Grid
from hjbpi.pi import PIConfig, run_policy_iteration
from hjbpi.problem import ControlProblem, ControlSet
from hjbpi.scheme import SchemeParams

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("pinned_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


PINNED = load_workloads()


# (mode, config, digest); the first probes config has a point on the kink
# (a skipped row), the second one empty oracle_control cells.
MODE_PINS = {
    "tau-study-eikonal": (
        "tau-study",
        "benchmark: eikonal-cos\nscheme.h: 0.1\nstudy.tau_values: 0.04, 0.02, 0.01, 0.005\n",
        "0390e9e0beda3c4fe677cfa9eb2aa4a26a1a4df85b84e1ed0367077ac65d051a"),
    "probes-eikonal": (
        "probes",
        "benchmark: eikonal-cos\nscheme.h: 0.1\nprobes.points: 0, 0.5, 3.14159, 5\n",
        "e6a6d84802c679f9671456a916a5650e1cea7a74bcd04902c8314116daeace69"),
    "probes-lq": (
        "probes",
        "benchmark: quadratic-lq\nscheme.h: 0.1\nprobes.points: -1.5, 0, 0.7\n",
        "05aa3697c71a93436172e7693f906bee583a9d3373ecfba504554ef1914530d6"),
}


def run_digest(tmp_path, mode, text):
    """Run ``mode`` on config ``text`` through ``cli.main``; the artifact digest."""
    config = tmp_path / "config.cfg"
    config.write_text(text)
    outdir = tmp_path / "artifacts"
    assert cli.main([mode, "--config", str(config), "--output", str(outdir)]) == 0
    return PINNED.artifact_digest(outdir)


@pytest.mark.parametrize("name", sorted(PINNED.WORKLOADS))
def test_workload_reproduces_its_digest(tmp_path, name):
    workload = PINNED.WORKLOADS[name]
    assert run_digest(tmp_path, workload.mode, workload.config) == workload.digest


@pytest.mark.parametrize("name", sorted(MODE_PINS))
def test_mode_reproduces_its_digest(tmp_path, name):
    mode, text, digest = MODE_PINS[name]
    assert run_digest(tmp_path, mode, text) == digest


@pytest.mark.parametrize("cpus", [1, 2])
def test_h_study_reproduces_its_digest_on_one_and_two_threads(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
    workload = PINNED.WORKLOADS["h-study"]
    assert run_digest(tmp_path, workload.mode, workload.config) == workload.digest


# API-level policy-iteration runs on the paths no workload reaches: 2-D grids
# (periodic and clamped), a problem whose callbacks read t (unflagged), and a
# control set of more than 128 controls (int16 policies).  Each pins the
# SHA-256 of the last iterate's values and policy bytes and of the error
# history; a pin that moves is a failed run, not a new baseline.
COMPASS = ControlSet(np.stack([np.cos(np.arange(8) * np.pi / 4),
                               np.sin(np.arange(8) * np.pi / 4)], axis=-1))


def _compass_problem():
    return ControlProblem(
        dynamics=lambda t, x, a: np.broadcast_to(a, x.shape),
        running_cost=lambda t, x, a: 0.5 + 0.3 * np.sin(x[:, 0] - 2.0 * x[:, 1]) * a[0] - 0.2 * a[1],
        terminal_cost=lambda x: np.cos(x[:, 0]) * np.sin(x[:, 1]),
        controls=COMPASS, f_sup_bound=1.0, time_invariant=True)


def _drifting_problem():
    # the drift and the cost both read t, so every level rebuilds its candidates
    return ControlProblem(
        dynamics=lambda t, x, a: a * (0.6 + 0.4 * np.cos(3.0 * t + x)),
        running_cost=lambda t, x, a: 0.5 * a[0] ** 2 + np.sin(x[:, 0] + 2.0 * t) * a[0],
        terminal_cost=lambda x: np.abs(x[:, 0]),
        controls=ControlSet.uniform(-1.0, 1.0, 9), f_sup_bound=1.0)


def _many_controls_problem():
    return ControlProblem(
        dynamics=lambda t, x, a: np.broadcast_to(a, x.shape),
        running_cost=lambda t, x, a: 0.5 * a[0] ** 2 + 0.5 * x[:, 0] ** 2,
        terminal_cost=lambda x: x[:, 0] ** 2,
        controls=ControlSet.uniform(-1.0, 1.0, 201), f_sup_bound=1.0, time_invariant=True)


def _striped_start(problem, grid, params):
    # an x-dependent start far from the fixed point's policy
    stripes = np.arange(grid.npoints) * 7 % problem.controls.size
    return np.broadcast_to(stripes.astype(problem.controls.index_dtype),
                           (params.steps, grid.npoints))


PI_PINS = {
    "2d-periodic": (
        _compass_problem,
        lambda: Grid(spacing=2 * np.pi / 12, points_per_axis=(12, 10)), 1.5,
        "2c0f7f447fb19bcf0616f64b15870d6e74371e1811037c5ebede70ad56666a5f"),
    "2d-clamped": (
        _compass_problem,
        lambda: Grid(spacing=0.2, points_per_axis=(17, 15), origin=(-1.6, -1.4),
                     periodic=(False, False)), 0.8,
        "20a969fdd8c6512364b2884c9b0fd84be908118970e93218f373cd735ac6401f"),
    "time-dependent": (
        _drifting_problem,
        lambda: Grid(spacing=2 * np.pi / 40, points_per_axis=(40,)), 1.0,
        "76ad92ea2d5ff0438d270d195e64b0fe1a5630336cc55ff9cf6eba81b7a4d15b"),
    "201-controls": (
        _many_controls_problem,
        lambda: Grid(spacing=0.05, points_per_axis=(61,), origin=(-1.5,), periodic=(False,)),
        0.5,
        "db2c5363449b7b4d2dd9cffca59ec7d0dcb29f99648ec7a8afed5483072386c0"),
}


def pi_digest(problem, grid, T):
    params = SchemeParams.create(grid.spacing, T, problem.f_sup_bound, dim=grid.dim)
    run = run_policy_iteration(problem, grid, params, PIConfig(
        initial_policy=_striped_start(problem, grid, params)))
    digest = hashlib.sha256()
    for array in (run.last_iterate.values, run.last_iterate.policy_slices,
                  run.errors_to_fixed_point):
        digest.update(np.ascontiguousarray(array).tobytes())
    return run, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PI_PINS))
def test_policy_iteration_reproduces_its_digest(name):
    make_problem, make_grid, T, digest = PI_PINS[name]
    run, found = pi_digest(make_problem(), make_grid(), T)
    assert run.iterations_used > 2
    assert found == digest


def test_pi_lq_evaluations_step_only_below_the_highest_changed_row(tmp_path, spy):
    # the policy changes below row 100, then 96, then 44, then nowhere
    workload = PINNED.WORKLOADS["pi-lq"]
    with spy(cli, "run_policy_iteration") as runs:
        assert run_digest(tmp_path, workload.mode, workload.config) == workload.digest
    assert [run.levels_swept.tolist() for run in runs] == [[100, 100, 96, 44, 0]]
