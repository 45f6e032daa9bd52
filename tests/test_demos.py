"""Every narrative script under demos/ runs to completion."""

from pathlib import Path

import pytest

from test_cli import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path):
    result = run_python([str(demo)], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
