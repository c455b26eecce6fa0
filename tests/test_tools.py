"""The scripts under tools/ run against this checkout."""

from pathlib import Path

from support import run_python

ROOT = Path(__file__).resolve().parents[1]


def test_code_lines_counts_every_module():
    script = ROOT / "tools" / "code_lines.py"
    result = run_python(
        f"import runpy; runpy.run_path({str(script)!r}, run_name='__main__')")
    assert result.returncode == 0, result.stdout + result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert all(len(row) == 2 for row in rows), result.stdout
    counts = {name: int(count) for name, count in rows[:-1]}
    assert len(counts) == len(rows) - 1
    assert set(counts) == {path.stem for path in
                           (ROOT / "src" / "ordersum").glob("*.py")}
    assert rows[-1] == ["total", str(sum(counts.values()))]
