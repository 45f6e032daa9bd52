"""The benchmark's policy-replay gate passes on the workloads it can check.

``bench/run.py`` feeds the direct solve's argmin policies to
``evaluate_policy`` and compares the values bitwise.  The gate reaches hjbpi
by name (``parse_config``, ``get_benchmark``, ``SchemeParams.create``,
``solve_hjb_direct``, ``evaluate_policy``, ``values_array``), so deleting or
renaming one of them would otherwise surface only in a benchmark run.  The
file is loaded by its path, since ``bench`` is not a package; ``bench`` is
on ``sys.path`` only while the file's own imports run.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("tracing", "calibrate", "workloads")  # what run.py imports from bench


def load_run():
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
    return module


RUN = load_run()


@pytest.mark.parametrize("name", ["pi-lq", "solve-eikonal"])
def test_replay_gate_passes(name):
    # replay_check reads only the workload and the gate; Runner.__init__
    # would rewrite the benchmark's output directory
    gate = RUN.Gate()
    RUN.Runner.replay_check(types.SimpleNamespace(workload=RUN.WORKLOADS[name], gate=gate))
    assert (gate.attempted, gate.failed) == (1, 0)
    assert str(BENCH) not in sys.path
