"""Every pinned benchmark workload reproduces its recorded artifact digest.

``bench/workloads.py`` pins four CLI runs and the SHA-256 of the artifact
set each one writes.  Running them here turns a drift of a single bit into
a failed test, not only a failed benchmark run.  The file is loaded by its
path, since ``bench`` is not a package.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hjbpi import cli

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("pinned_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


PINNED = load_workloads()


@pytest.mark.parametrize("name", sorted(PINNED.WORKLOADS))
def test_workload_reproduces_its_digest(tmp_path, name, capsys):
    workload = PINNED.WORKLOADS[name]
    config = tmp_path / "config.cfg"
    config.write_text(workload.config)
    outdir = tmp_path / "artifacts"
    code = cli.main([workload.mode, "--config", str(config), "--output", str(outdir)])
    capsys.readouterr()
    assert code == 0
    assert PINNED.artifact_digest(outdir) == workload.digest
