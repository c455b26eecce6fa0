"""Check that two source trees give the same command-line output, call by call.

Usage: python3 tools/same_output.py BEFORE AFTER

BEFORE and AFTER are source checkouts, each holding src/ordersum.  Every
command of COMMANDS runs as a fresh `python -m ordersum.cli ARGV` call
against each tree, with PYTHONPATH=<tree>/src and
PYTHONDONTWRITEBYTECODE=1, so neither tree gains a __pycache__.  Each tree
runs in its own temporary working directory, kept for the whole list, so
a command can write a checkpoint or report file that a later command
resumes or overwrites.

Two calls agree when their exit codes, stdout, stderr and the bytes of
every file in the working directory after the call are equal, once
timings are scrubbed: `"elapsed_ms": N` and `N ms)` read the same for any
N.  The script prints each command that differs, with what differs, then
`K of M identical`, and exits 1 on any difference.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Every subcommand and every sweep kind: text and --json, a checkpoint run
# and its resume, a resume whose --to is below the watermark, --workers 2
# and 3 (lanes of unequal length, and a 2-worker resume), report files,
# the monotonicity chain from its one-entry end (n = 1) up, usage
# errors, the cap below, at and above a group's order, the oracle's
# divisor count on a cyclic 2-group, a 192-divisor exponent, the trivial
# and proper subgroups of many-prime groups and subgroups walked from two
# and three generators, and orders with prime factors past 10**6 for trial
# division, then sweeps at the benchmark's orders, around its hits at
# 1107795 and 1854699.  A file named here lives in the tree's working
# directory.
COMMANDS = [
    ["compute", "2^[1,2]*3"],
    ["compute", "13^[1,1]*23", "--json"],
    ["compute", "2^[3]*3^[1,1]", "--verify", "--json"],
    ["compute", "1", "--verify"],
    ["compute", "1", "--verify", "--max-enum", "0"],
    ["compute", "2^[2,1]"],
    ["compute", "1000003^[1,2]*1000033"],
    ["compute", "2^[21]", "--verify"],
    ["compute", "2^[20]", "--verify", "--json"],
    ["compute", "2^[3]*3^[2]*5*7*11*13", "--verify"],
    ["list", "3600"],
    ["list", "3600", "--json"],
    ["list", "1000006000009"],
    ["list", "2297770475"],
    ["poly", "[1,2]"],
    ["poly", "[1,2,2,3]", "--json"],
    ["poly", "[2,1]"],
    ["relative", "2^[2]", "--gen", "2"],
    ["relative", "2^[1,2]", "--gen", "1,2", "--json"],
    ["relative", "1"],
    ["relative", "1", "--max-enum", "0"],
    ["relative", "1", "--gen", "0"],
    ["relative", "2^[2]", "--gen", "5"],
    ["relative", "2^[1,2]", "--gen", "1"],
    ["relative", "3^[1,1]", "--gen", "1,1", "--gen", "2"],
    ["relative", "2^[10]", "--gen", "1", "--max-enum", "100"],
    ["relative", "2*3*5*7*11*13", "--json"],
    ["relative", "2^[2]*3^[3]*5^[2]", "--gen", "2,3,5"],
    ["relative", "2^[10]", "--gen", "512", "--max-enum", "100"],
    ["relative", "2^[10]", "--gen", "512", "--max-enum", "1023", "--json"],
    ["relative", "2^[10]", "--gen", "512", "--max-enum", "1024", "--json"],
    ["relative", "2^[2]*3^[3]*5^[2]", "--gen", "2,0,0", "--gen", "0,3,5",
     "--json"],
    ["relative", "2^[21]", "--gen", "1,1"],
    ["relative", "3^[1,2]", "--gen", "1,3", "--gen", "0,1", "--gen", "2,2"],
    ["sweep", "conjecture", "--to", "2000"],
    ["sweep", "conjecture", "--to", "2000", "--workers", "2", "--json"],
    ["sweep", "divisibility", "--to", "4000", "--json"],
    ["sweep", "divisibility", "--to", "3900", "--checkpoint", "progress.json"],
    ["sweep", "divisibility", "--to", "4000", "--checkpoint", "progress.json",
     "--resume"],
    ["sweep", "divisibility", "--to", "4000", "--checkpoint", "progress.json"],
    ["sweep", "divisibility", "--to", "3000", "--checkpoint", "progress.json",
     "--resume"],
    ["sweep", "divisibility", "--to", "6000", "--checkpoint", "progress.json",
     "--resume", "--workers", "2"],
    ["sweep", "divisibility", "--to", "8000", "--workers", "3", "--json"],
    ["sweep", "image", "--to", "3000"],
    ["sweep", "image", "--to", "3000", "--workers", "2", "--json"],
    ["sweep", "image", "--to", "50", "--checkpoint", "image.json"],
    ["sweep", "image", "--to", "4"],
    ["sweep", "image", "--to", "1", "--json"],
    ["sweep", "monotonicity", "--n", "12", "--p", "3"],
    ["sweep", "monotonicity", "--n", "12", "--p", "3", "--json",
     "--checkpoint", "chain.json"],
    ["sweep", "monotonicity", "--n", "12", "--p", "4"],
    ["sweep", "monotonicity", "--n", "30", "--p", "997", "--json"],
    ["sweep", "monotonicity", "--n", "50", "--p", "2", "--json"],
    ["sweep", "monotonicity", "--n", "1", "--p", "2", "--json"],
    ["sweep", "monotonicity", "--n", "2", "--p", "3"],
    ["sweep", "monotonicity", "--n", "20", "--p", "997", "--checkpoint",
     "chain20.json"],
    ["sweep", "image", "--from", "2", "--to", "10"],
    [],
    ["sweep", "divisibility", "--from", "1105000", "--to", "1110000", "--json"],
    ["sweep", "divisibility", "--from", "1105000", "--to", "1110000",
     "--workers", "2", "--json"],
    ["sweep", "divisibility", "--from", "1850000", "--to", "1852499",
     "--checkpoint", "window.json"],
    ["sweep", "divisibility", "--from", "1850000", "--to", "1855000",
     "--checkpoint", "window.json", "--resume"],
]
_TIMINGS = [(re.compile(rb'"elapsed_ms": [0-9.]+'), b'"elapsed_ms": N'),
            (re.compile(rb"\b[0-9.]+ ms\)"), b"N ms)")]


def scrub(data: bytes) -> bytes:
    for pattern, replacement in _TIMINGS:
        data = pattern.sub(replacement, data)
    return data


def call(argv: list[str], tree: str, cwd: Path) -> dict:
    """One fresh CLI call: its exit code, scrubbed output and files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-m", "ordersum.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=300)
    files = {path.name: scrub(path.read_bytes())
             for path in sorted(cwd.iterdir()) if path.is_file()}
    return {"exit code": proc.returncode, "stdout": scrub(proc.stdout),
            "stderr": scrub(proc.stderr), "files": files}


def main(argv=None, commands=COMMANDS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    same = 0
    with tempfile.TemporaryDirectory() as work:
        cwds = {side: Path(work, side) for side in ("before", "after")}
        for cwd in cwds.values():
            cwd.mkdir()
        for command in commands:
            before = call(command, args.before, cwds["before"])
            after = call(command, args.after, cwds["after"])
            differs = [part for part in before if before[part] != after[part]]
            if differs:
                print(f"differs ({', '.join(differs)}): "
                      f"{' '.join(['ordersum', *command])}")
            else:
                same += 1
    print(f"{same} of {len(commands)} identical")
    return 0 if same == len(commands) else 1


if __name__ == "__main__":
    sys.exit(main())
