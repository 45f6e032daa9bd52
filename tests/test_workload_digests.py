"""Every pinned benchmark workload reproduces its recorded artifact digest.

``bench/workloads.py`` pins four CLI runs and the SHA-256 of the artifact
set each one writes.  Running them here turns a drift of a single bit into
a failed test, not only a failed benchmark run.  The file is loaded by its
path, since ``bench`` is not a package.  ``MODE_PINS`` adds the modes no
workload runs (tau-study and probes), with the same digest.  h-study scores
its levels on one thread or two, by the usable CPUs, so it is also pinned
with each count forced.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hjbpi import analysis, cli

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
