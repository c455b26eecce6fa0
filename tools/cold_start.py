"""Time fresh `python -m ordersum.cli ARGV` calls from two source trees, A/B.

Usage: python3 tools/cold_start.py BEFORE AFTER [--rounds N] [--out FILE]

BEFORE and AFTER are source checkouts, each holding src/ordersum.  The
.py files of each package are copied to a temporary directory, so the
trees themselves are not touched, and every call imports its tree's copy
alone.  Two cases are timed:

  bytecode  the copies are compiled once before timing, as an installed
            package or a second run finds them;
  source    the copies have no __pycache__ and every call runs with
            PYTHONDONTWRITEBYTECODE=1, so each one compiles the package.

In each round every command runs once from each tree, the tree that goes
first alternating from round to round, so a drift in the machine's speed
falls on both.  A command's time is the wall time of the whole process,
interpreter start included, except for "import", which prints the time
`import ordersum.cli` takes inside its own process.  The report gives,
per case and command, the median of each tree, AFTER over BEFORE, and the
rounds in which AFTER was faster; --out writes every time as JSON.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "compute": ["compute", "587^[3,5]*223823^[5]", "--json"],
    "list": ["list", "907314539417097076579092601", "--json"],
    "poly": ["poly", "[45,64]", "--json"],
    "relative": ["relative", "2*13^[2]", "--gen", "0,82", "--json"],
    "sweep": ["sweep", "divisibility", "--from", "11633", "--to", "11832",
              "--json"],
}
IMPORT = ("import time; t = time.perf_counter(); import ordersum.cli; "
          "print((time.perf_counter() - t) * 1000)")


def package_copy(tree: str, dest: Path, compiled: bool) -> Path:
    """Copy tree's src/ordersum sources under dest; compile them if asked."""
    shutil.copytree(Path(tree) / "src" / "ordersum", dest / "ordersum",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if compiled and not compileall.compile_dir(dest, quiet=1):
        raise SystemExit(f"cannot compile the package of {tree}")
    return dest


def call_ms(name: str, env: dict) -> float:
    """Milliseconds of one fresh call of a command (see the module doc)."""
    argv = ["-c", IMPORT] if name == "import" else ["-m", "ordersum.cli",
                                                     *COMMANDS[name]]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    wall = (time.perf_counter() - start) * 1000
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{name} exited with {proc.returncode}: {proc.stderr}")
    return float(proc.stdout) if name == "import" else wall


def time_case(trees: dict, rounds: int, compiled: bool, work: Path) -> dict:
    envs = {}
    for side, tree in trees.items():
        env = dict(os.environ)
        env["PYTHONPATH"] = str(package_copy(tree, work / side, compiled))
        env.pop("PYTHONPYCACHEPREFIX", None)
        if compiled:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        envs[side] = env
    names = [*COMMANDS, "import"]
    times = {name: {side: [] for side in trees} for name in names}
    for name in names:                  # one untimed call fills the OS caches
        for side in trees:
            call_ms(name, envs[side])
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for name in names:
            for side in order:
                times[name][side].append(call_ms(name, envs[side]))
    return {name: summary(times[name]) for name in names}


def summary(t: dict) -> dict:
    before, after = t["before"], t["after"]
    q1, _, q3 = statistics.quantiles(before, n=4)
    return {
        "before_median_ms": round(statistics.median(before), 2),
        "after_median_ms": round(statistics.median(after), 2),
        "ratio": round(statistics.median(after) / statistics.median(before), 3),
        "after_faster_rounds": sum(a < b for a, b in zip(after, before)),
        "before_iqr_ms": round(q3 - q1, 2),
        "before_ms": [round(x, 2) for x in before],
        "after_ms": [round(x, 2) for x in after],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    trees = {"before": args.before, "after": args.after}
    result = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "rounds": args.rounds,
              "commands": COMMANDS, "cases": {}}
    for case, compiled in (("bytecode", True), ("source", False)):
        with tempfile.TemporaryDirectory() as work:
            result["cases"][case] = time_case(trees, args.rounds, compiled,
                                              Path(work))
        for name, s in result["cases"][case].items():
            print(f"{case:8} {name:8} before {s['before_median_ms']:8.2f} ms  "
                  f"after {s['after_median_ms']:8.2f} ms  x{s['ratio']:.3f}  "
                  f"after faster in {s['after_faster_rounds']}/{args.rounds}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
