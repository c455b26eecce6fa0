"""Show that the benchmark's output checks fire.

Runs one real CLI call per kind of operation, confirms its true output
passes, then feeds the checker corrupted copies (an off-by-two psi, a
dropped divisibility hit, a wrong polynomial coefficient, ...) and
confirms each one is counted as failed.  Exits 1 if any corruption slips
through or any true output is rejected.

    python3 bench/selftest.py
"""

import json
import os
import random
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import ordersum.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def edit(stdout: str, change) -> str:
    rec = json.loads(stdout)
    change(rec)
    return json.dumps(rec)


def plus_two(text: str) -> str:
    return str(int(text) + 2)


def cases(workdir: str):
    """(op, [(label, corrupt stdout -> stdout or None for the exit code)])."""
    yield workloads.compute_op([(13, (1, 1)), (23, (1,))]), [
        ("off-by-two psi", lambda r: r.__setitem__("psi", plus_two(r["psi"]))),
        ("wrong order", lambda r: r.__setitem__("order", plus_two(r["order"]))),
        ("non-canonical group", lambda r: r.__setitem__("group", "23*13^[1,1]")),
    ]
    yield workloads.compute_op([(2, (1, 3)), (5, (2,))], verify=True), [
        ("verify mismatch", lambda r: r["verify"].__setitem__("match", False)),
        ("off-by-two verify psi",
         lambda r: r["verify"].__setitem__("psi", plus_two(r["verify"]["psi"]))),
    ]
    yield workloads.list_op(72), [
        ("dropped row", lambda r: r["rows"].pop()),
        ("count off by one", lambda r: r.__setitem__("count", r["count"] + 1)),
        ("off-by-two row psi",
         lambda r: r["rows"][2].__setitem__("psi", plus_two(r["rows"][2]["psi"]))),
    ]
    yield workloads.poly_op((1, 2, 4)), [
        ("wrong coefficient",
         lambda r: r["coefficients"].__setitem__(3, str(int(r["coefficients"][3]) + 1))),
        ("closed form mismatch",
         lambda r: r["closed_forms"][0].__setitem__("match", False)),
        ("dropped closed form", lambda r: r["closed_forms"].pop()),
    ]
    yield workloads.mono_op(7, 3), [
        ("report not ok", lambda r: r.__setitem__("ok", False)),
        ("swapped chain values", lambda r: r["chain"].__setitem__(
            slice(1, 3), [r["chain"][2], r["chain"][1]])),
    ]
    yield workloads.relative_in(random.Random(7), (10_000, 100_000)), [
        ("off-by-two psi_relative",
         lambda r: r.__setitem__("psi_relative", plus_two(r["psi_relative"]))),
        ("wrong subgroup order",
         lambda r: r.__setitem__("subgroup_order", plus_two(r["subgroup_order"]))),
    ]
    # A window holding the hit at order 1107795.
    one, *segments = workloads.window_ops("self", 1_107_000, 2000, 2, workdir)
    yield one, [
        ("dropped divisibility hit", lambda r: r["divisible_hits"].clear()),
        ("off-by-two hit psi", lambda r: r["divisible_hits"][0].__setitem__(
            "psi", plus_two(r["divisible_hits"][0]["psi"]))),
        ("watermark short of the window end",
         lambda r: r.__setitem__("max_done", r["max_done"] - 1)),
        ("exit code 0 despite a hit", None),
    ]
    for op in segments:
        yield op, []


def main() -> int:
    workdir = os.path.join(run.OUT, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    checker = checks.Checker()
    bad = 0
    try:
        for op, corruptions in cases(workdir):
            code, stdout, error, _ = run.run_op(cli.main, op)
            if op.info.get("same_as"):
                op.info["file"] = run.read_file(op.info["path"])
                op.info["same_as_file"] = run.read_file(op.info["same_as"])
            reason = checker.check(op, code, stdout, error)
            print(f"{'ok  ' if reason is None else 'FAIL'} true output of {' '.join(op.argv[:2])}"
                  + (f": {reason}" if reason else ""))
            bad += reason is not None
            for label, change in corruptions:
                if change is None:
                    reason = checker.check(op, 1 - code, stdout, error)
                else:
                    reason = checker.check(op, code, edit(stdout, change), error)
                print(f"{'ok  ' if reason else 'FAIL'} {label}: "
                      f"{reason or 'not detected'}")
                bad += reason is None
            if op.info.get("same_as"):
                op.info["file"] = op.info["file"].replace(b'"max_done"', b'"max_done" ')
                reason = checker.check(op, code, stdout, error)
                print(f"{'ok  ' if reason else 'FAIL'} resumed checkpoint differs "
                      f"from the single pass: {reason or 'not detected'}")
                bad += reason is None

        deep = workloads.compute_op([(1000003, (10, 200, 500))])
        code, stdout, error, _ = run.run_op(cli.main, deep)
        reason = checker.check(deep, code, stdout, error)
        counted = reason is not None and not checks.is_wrong(reason)
        print(f"{'ok  ' if counted else 'FAIL'} order-sum over 4300 digits "
              f"counts as failed: {reason or 'not detected'}")
        bad += not counted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test passed" if not bad else f"self-test: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
