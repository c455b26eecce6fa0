"""The demo scripts run to completion against this checkout."""

from pathlib import Path

import pytest

from support import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    result = run_python(
        f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')")
    assert result.returncode == 0, result.stdout + result.stderr
