"""The scripts under tools/ run against this checkout, the private names
that the package's modules import from each other are pinned, and so is
the one name the test references import from the package."""

import ast
import runpy
import shutil
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


def test_same_output_compares_two_trees(capsys, tmp_path):
    main = runpy.run_path(str(ROOT / "tools" / "same_output.py"))["main"]
    commands = [["compute", "2^[1,2]*3", "--json"], ["compute", "2^[2,1]"],
                ["sweep", "image", "--to", "50", "--checkpoint", "r.json"]]
    assert main([str(ROOT), str(ROOT)], commands) == 0
    assert capsys.readouterr().out == "3 of 3 identical\n"
    # Plant one difference: usage errors exit 4 in a copy of the package.
    shutil.copytree(ROOT / "src" / "ordersum", tmp_path / "src" / "ordersum",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ordersum" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert "\nEXIT_USAGE = 2\n" in text
    cli.write_text(text.replace("\nEXIT_USAGE = 2\n", "\nEXIT_USAGE = 4\n"),
                   encoding="utf-8")
    assert main([str(ROOT), str(tmp_path)], commands) == 1
    assert capsys.readouterr().out == (
        "differs (exit code): ordersum compute 2^[2,1]\n"
        "2 of 3 identical\n")


def test_package_modules_share_only_the_pinned_private_names():
    # A private name one package module imports from another is a rule
    # kept outside its module's public list; only these two are allowed.
    reached = set()
    for path in (ROOT / "src" / "ordersum").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                reached.update((path.stem, node.module, alias.name)
                               for alias in node.names
                               if alias.name.startswith("_"))
    assert reached == {("psi_core", "partitions", "_walk"),
                       ("polynomial", "psi_core", "_corollary2_forms")}


def test_test_references_import_only_partition_from_the_package():
    # The references in tests/support.py share no code with the package:
    # at module level they reach it for the Partition record alone.  Only
    # the helpers that drive the library import more, inside their bodies.
    tree = ast.parse((ROOT / "tests" / "support.py").read_text(encoding="utf-8"))
    reached, drivers = set(), set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {(alias.name, None) for alias in node.names}
            else:
                continue
            names = {n for n in names if n[0].split(".")[0] == "ordersum"}
            if not isinstance(top, ast.FunctionDef):
                reached.update(names)
            elif names:
                drivers.add(top.name)
    assert reached == {("ordersum.partitions", "Partition")}
    assert drivers == {"type_of_factors", "run_python", "forge_psi"}
