"""The ordersum benchmark: seeded workloads, checked outputs, layer traces.

    python3 bench/run.py --workload sweep|formula|verify|relative|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
src/ and writes only under .bench_out/.  Each run starts SETUPS fresh
processes that go through the same set-up (interpreter, imports, input
generation, warm-up); the last of them then sends the workload's
requests for S seconds, one after another (a closed loop with one
client), each as an in-process ``ordersum.cli.main(argv)`` call with its
stdout captured, and times fresh-process ``python -m ordersum.cli``
calls spread between them.  A fixed piece of work, timed in fresh
processes between requests, tracks the machine's speed, and every time
metric is scaled to a reference speed by it (see PROBE_REF_MS).  Outputs
are checked after the timed phase.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the timed process records spans at
every layer boundary (see tracing.py) and the line carries the per-layer
metrics instead, while the table above it shows the traced end-to-end
numbers, so the tracing overhead is visible.
"""

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice
from time import perf_counter, perf_counter_ns

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUPS = 7          # set-ups per run; setup_s is their median
IMPORT_PAIRS = 9    # bare-interpreter / import pairs for cli.import_ms
RUN_LIMIT_S = 170   # every process of a run is stopped by then
PREGENERATE = {"sweep": 120, "formula": 1200, "verify": 300, "relative": 100}
# The machine's speed drifts by 20-30% over minutes when it is shared.  A
# fresh process doing a fixed piece of work that shares no code with the
# package (PROBE) is timed every PROBE_GAP seconds between requests.  Each
# request's time is scaled by PROBE_REF_MS over the median of the probes
# taken within PROBE_WINDOW seconds of its start, as the speed also moves
# within a run; set-up and fresh-process call times by PROBE_REF_MS over
# the run's median probe.  A time then reads as measured on a machine where
# the probe takes PROBE_REF_MS:
# the machine the first numbers came from (2 cores, Python 3.11.7) at a
# lightly loaded moment.  A fresh process is used because a probe inside
# the timed process would be timed against the program's heap and caches,
# not just the machine.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import refmath; "
         "refmath.partitions(18); refmath.factor_window(1_000_000, 1_004_000); "
         "refmath.psi_pgroup(1_000_003, (5, 40, 120))")
PROBE_GAP = 0.5
PROBE_WINDOW = 1.5
PROBE_REF_MS = 50.0
# Peak RSS is read after this many timed requests.  The psi cache grows
# with every distinct request, so reading it at the end of the timed phase
# would charge a faster program for the extra requests it fits in.
RSS_AFTER = {"sweep": 20, "formula": 300, "verify": 150, "relative": 30}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mib": "MiB",
    "cold_start_ms_p50": "ms",
}
PER_LAYER = {
    "arith.sieve_s": "s",
    "arith.sieve_entries": "count",
    "arith.sieve_entries_per_order": "entries/order",
    "arith.factorize_s": "s",
    "partitions.enumerate_s": "s",
    "partitions.yielded": "count",
    "psi_core.psi_eval_s": "s",
    "psi_core.psi_eval_calls": "count",
    "psi_core.psi_repeat_share": "ratio",
    "psi_core.format_s": "s",
    "psi_core.labels_formatted": "count",
    "psi_core.labels_kept_share": "ratio",
    "psi_core.type_enum_s": "s",
    "psi_core.parse_s": "s",
    "polynomial.symbolic_s": "s",
    "polynomial.closed_form_s": "s",
    "polynomial.coeffs_built": "count",
    "oracle.bruteforce_s": "s",
    "oracle.bruteforce_elements": "count",
    "oracle.closure_s": "s",
    "oracle.subgroup_elements": "count",
    "oracle.relative_s": "s",
    "oracle.relative_additions": "count",
    "analysis.sweep_self_s": "s",
    "analysis.types_scanned": "count",
    "analysis.checkpoint_write_s": "s",
    "analysis.checkpoint_writes": "count",
    "analysis.checkpoint_bytes": "bytes",
    "analysis.checkpoint_load_s": "s",
    "analysis.monotonicity_s": "s",
    "cli.main_self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.import_ms": "ms",
}


class RunError(RuntimeError):
    """The run cannot produce a result; reported without a JSON line."""


# processes

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_call(argv, deadline: float):
    """Run a command in a new process: (exit code, stdout, seconds)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("a fresh-process call ran past the time limit")
    return proc.returncode, proc.stdout, perf_counter() - t0


# timed process

def run_op(main, op, tracer=None, op_id=-1):
    """One in-process CLI call: (exit code, stdout, exception text, ns)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.op = op_id
            span = tracer.begin(tracer.name_id("cli.main"))
        t0 = perf_counter_ns()
        try:
            code = main(op.argv)
        except Exception as exc:  # a failed request; the loop goes on
            error = f"{type(exc).__name__}: {exc}"[:160]
        ns = perf_counter_ns() - t0
        if tracer is not None:
            tracer.finish(span)
    return code, out.getvalue(), error, ns


def in_latency(op) -> bool:
    """Whether an op's latency counts in the percentiles.

    A sweep window's single pass is a request ten times the size of its
    segments; it counts in throughput but would put the 90th percentile on
    the boundary between the two sizes, so sweep latencies are those of
    the resumable segments.
    """
    return op.kind != "sweep" or op.info.get("segment", False)


def op_units(op) -> int:
    """Work in one op: orders scanned for a sweep, else one request."""
    if op.kind == "sweep":
        return op.info["to"] - op.info["from"] + 1
    return 1


def kept_labels(op, stdout: str) -> int:
    """Spec labels of an op that end up in its output records."""
    if op.kind in ("compute", "relative"):
        return 1
    if op.kind not in ("list", "sweep"):
        return 0
    try:
        rec = json.loads(stdout)
    except ValueError:
        return 0
    if op.kind == "list":
        return len(rec["rows"])
    lo, hi = op.info["from"], op.info["to"]
    return (sum(lo <= h["order"] <= hi for h in rec["divisible_hits"])
            + 2 * sum(lo <= c["order"] <= hi for c in rec["collisions"]))


def child(args) -> dict:
    sys.path[:0] = [SRC, BENCH]
    import ordersum.cli as cli

    workdir = os.path.join(OUT, f"tmp-{os.getppid()}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    warmup, ops = workloads.build(args.workload, rng, workdir)
    ops = chain(list(islice(ops, PREGENERATE[args.workload])), ops)
    cold = [] if args.trace else workloads.cold_ops(
        args.workload, random.Random(f"cold:{args.seed}"))
    tracer = uninstall = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    for op in warmup:
        run_op(cli.main, op, tracer)
    if tracer is not None:
        tracer.reset()
    ready = time.monotonic()
    report = {"setup_s": ready - args.spawned}
    if args.setup_only:
        return report

    # Fresh-process calls are spread evenly over the timed phase, between
    # requests, so they sample the machine's speed across the whole run.
    gap = args.seconds / max(1, len(cold))
    next_cold = ready + gap / 2
    probes, next_probe, starts = [], ready, []
    # Outputs go to a spool file until the checks run, so that holding them
    # does not count in the timed process's resident memory.
    spool = Spool(os.path.join(workdir, "outputs"))
    deadline = ready + args.seconds
    done, cold_done = [], []
    while (now := time.monotonic()) < deadline:
        if now >= next_probe:
            probes.append((now, fresh_call([sys.executable, "-c", PROBE, BENCH],
                                           deadline + 60)[2] * 1e9))
            next_probe = time.monotonic() + PROBE_GAP
            continue
        if cold and now >= next_cold:
            op = cold.pop(0)
            code, stdout, secs = fresh_call(
                [sys.executable, "-m", "ordersum.cli", *op.argv], deadline + 60)
            cold_done.append((op, code, spool.put(stdout), None, int(secs * 1e9)))
            next_cold += gap
            continue
        op = next(ops)
        starts.append(time.monotonic())
        code, stdout, error, ns = run_op(cli.main, op, tracer, len(done))
        if "same_as" in op.info:
            op.info["file"] = read_file(op.info["path"])
            op.info["same_as_file"] = read_file(op.info["same_as"])
        done.append((op, code, spool.put(stdout), error, ns))
        del stdout
        if len(done) == RSS_AFTER[args.workload]:
            report["rss_mib"] = peak_rss_mib()
    report.setdefault("rss_mib", peak_rss_mib())
    report["probe_ns"] = [ns for _, ns in probes]
    report["local_slowdown"] = local_slowdowns(probes, starts)

    if tracer is not None:
        uninstall()
        report["layers"] = layer_metrics(tracer, done, spool)
        tracer.write(os.path.join(OUT, f"trace_{args.workload}"))
        del tracer

    import checks
    checker = checks.Checker()
    report["ops"] = [[op.kind, ns, op_units(op), in_latency(op), False,
                      checker.check(op, code, spool.get(out), error)]
                     for op, code, out, error, ns in done]
    report["ops"] += [[op.kind, ns, 1, False, True,
                       checker.check(op, code, spool.get(out), error)]
                      for op, code, out, error, ns in cold_done]
    report["correct"] = not any(checks.is_wrong(op[-1]) for op in report["ops"])
    if args.workload == "formula":
        # Not timed and not counted: see workloads.MAX_ORDER_LOG10.
        op = workloads.compute_op(workloads.KNOWN_DEFECT)
        code, stdout, error, _ = run_op(cli.main, op)
        reason = checker.check(op, code, stdout, error)
        report["known_defect"] = [" ".join(op.argv[:2]), reason]
        report["correct"] = report["correct"] and not checks.is_wrong(reason)
    spool.close()
    return report


def local_slowdowns(probes, starts) -> list[float]:
    """Per request, the median time of the probes taken within PROBE_WINDOW
    seconds of its start, over PROBE_REF_MS; the run's median probe where
    fewer than three probes fall that near."""
    whole = statistics.median(ns for _, ns in probes)
    out = []
    for t in starts:
        near = [ns for tp, ns in probes if abs(tp - t) <= PROBE_WINDOW]
        out.append((statistics.median(near) if len(near) >= 3 else whole)
                   / 1e6 / PROBE_REF_MS)
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Spool:
    """Append-only file of captured outputs, read back by position."""

    def __init__(self, path: str) -> None:
        self._fh = open(path, "w+b")

    def put(self, text: str) -> tuple[int, int]:
        data = text.encode()
        self._fh.seek(0, os.SEEK_END)
        start = self._fh.tell()
        self._fh.write(data)
        return start, len(data)

    def get(self, where: tuple[int, int]) -> str:
        self._fh.seek(where[0])
        return self._fh.read(where[1]).decode()

    def close(self) -> None:
        self._fh.close()


def read_file(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def layer_metrics(tracer, done, spool) -> dict:
    import refmath
    total, own = tracer.layer_times()
    spans = tracer.span_counts()
    counts = tracer.counts

    def secs(*names):
        return sum(total[n] for n in names) / 1e9

    orders = types = 0
    for op, *_ in done:
        if op.kind == "sweep":
            orders += op_units(op)
            types += sum(refmath.types_of_factorization(f) for f in
                         refmath.factor_window(op.info["from"], op.info["to"]))
    formatted = spans["psi_core.format_components"] + spans["psi_core.format_group_spec"]
    kept = sum(kept_labels(op, spool.get(out)) for op, _, out, error, _ in done
               if error is None)
    calls = counts["psi_calls"]
    return {
        "arith.sieve_s": secs("arith.smallest_prime_factors"),
        "arith.sieve_entries": counts["sieve_entries"],
        "arith.sieve_entries_per_order": counts["sieve_entries"] / orders if orders else 0.0,
        "arith.factorize_s": secs("arith.factorize"),
        "partitions.enumerate_s": secs("partitions.partitions_of"),
        "partitions.yielded": counts["partitions_yielded"],
        "psi_core.psi_eval_s": secs("psi_core._psi_prime_power"),
        "psi_core.psi_eval_calls": calls,
        "psi_core.psi_repeat_share": counts["psi_repeats"] / calls if calls else 0.0,
        "psi_core.format_s": secs("psi_core.format_components", "psi_core.format_group_spec"),
        "psi_core.labels_formatted": formatted,
        # With no label formatted, none was wasted.
        "psi_core.labels_kept_share": kept / formatted if formatted else 1.0,
        "psi_core.type_enum_s": secs("psi_core.group_type_of_order"),
        "psi_core.parse_s": secs("psi_core.parse_group_spec"),
        "polynomial.symbolic_s": secs("polynomial.psi_symbolic"),
        "polynomial.closed_form_s": secs("polynomial.verify_closed_form"),
        "polynomial.coeffs_built": counts["coeffs_built"],
        "oracle.bruteforce_s": secs("oracle.psi_bruteforce"),
        "oracle.bruteforce_elements": counts["bruteforce_elements"],
        "oracle.closure_s": secs("oracle.subgroup_closure"),
        "oracle.subgroup_elements": counts["subgroup_elements"],
        "oracle.relative_s": secs("oracle.psi_relative"),
        "oracle.relative_additions": counts["relative_additions"],
        "analysis.sweep_self_s": own["analysis.conjecture_sweep"] / 1e9,
        "analysis.types_scanned": types,
        "analysis.checkpoint_write_s": secs("analysis.save_checkpoint"),
        "analysis.checkpoint_writes": spans["analysis.save_checkpoint"],
        "analysis.checkpoint_bytes": counts["checkpoint_bytes"],
        "analysis.checkpoint_load_s": secs("analysis.load_checkpoint"),
        "analysis.monotonicity_s": secs("analysis.monotonicity_check"),
        "cli.main_self_s": own["cli.main"] / 1e9,
        "cli.output_bytes": sum(size for _, _, (_, size), _, _ in done),
    }


# parent

def spawn(args, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("a benchmark process ran past the time limit")
    if proc.returncode != 0:
        raise RunError(f"benchmark process exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def import_ms(deadline: float) -> float:
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(fresh_call([sys.executable, "-c", "pass"], deadline)[2])
        full.append(fresh_call([sys.executable, "-c", "import ordersum.cli"], deadline)[2])
    return (statistics.median(full) - statistics.median(bare)) * 1000


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slowdown(timed) -> float:
    """The run's median probe time over PROBE_REF_MS."""
    return statistics.median(timed["probe_ns"]) / 1e6 / PROBE_REF_MS


def end_to_end(setups, timed) -> dict:
    """End-to-end metrics, times scaled to the reference speed (see PROBE_REF_MS)."""
    slow = slowdown(timed)
    # In-process requests come first in "ops", in the order of their
    # local slowdowns.
    ops = [op for op in timed["ops"] if not op[4]]
    local = timed["local_slowdown"]
    cold = [op for op in timed["ops"] if op[4]]
    ms = [op[1] / 1e6 / k for op, k in zip(ops, local) if op[3]]
    busy_s = sum(op[1] / k for op, k in zip(ops, local)) / 1e9
    good = sum(units for _, _, units, _, _, reason in ops if reason is None)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups) / slow,
        "throughput_per_s": good / busy_s,
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p90": quantile(ms, 90),
        "peak_rss_mib": timed["rss_mib"],
        "cold_start_ms_p50": (statistics.median(ns / 1e6 for _, ns, *_ in cold) / slow
                              if cold else None),
    }


def time_share(ops) -> dict:
    """Share of the in-process request time taken by each kind of request."""
    busy: dict = {}
    for kind, ns, _, _, cold, _ in ops:
        if not cold:
            busy[kind] = busy.get(kind, 0) + ns
    total = sum(busy.values())
    return {kind: t / total for kind, t in sorted(busy.items())}


def spread(values) -> float | None:
    """Interquartile range over median."""
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run_workload(args, deadline: float) -> dict:
    setups = [] if args.trace else [spawn(args, deadline, setup_only=True)
                                    for _ in range(SETUPS - 1)]
    timed = spawn(args, deadline, setup_only=False)
    setups.append(timed)
    ops = timed["ops"]
    if sum(1 for op in ops if op[3]) < 2:
        raise RunError("too few requests completed to report latencies")
    result = {
        "correct": timed["correct"],
        "attempted": len(ops),
        "failed": sum(r is not None for *_, r in ops),
        "e2e": end_to_end(setups, timed),
        "reasons": sorted({r for *_, r in ops if r is not None}),
        "time_share": time_share(ops),
        "cold_spread": spread([ns for _, ns, _, _, cold, _ in ops if cold]),
        "slowdown": slowdown(timed),
        "probe_spread": spread(timed["probe_ns"]),
        "known_defect": timed.get("known_defect"),
    }
    if args.trace:
        result["layers"] = dict(timed["layers"], **{"cli.import_ms": import_ms(deadline)})
    return result


def print_table(name: str, result: dict, trace: bool) -> None:
    print(f"workload {name}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed "
          f"(failed_share {result['failed'] / result['attempted']:.4f}), "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for reason in result["reasons"][:5]:
        print(f"  failure: {reason}")
    if result["known_defect"]:
        request, reason = result["known_defect"]
        print(f"  known defect (untimed, not in attempted): {request}: "
              f"{reason or 'output correct'}")
    print("  time share: " + ", ".join(f"{kind} {share:.3f}"
                                       for kind, share in result["time_share"].items()))
    # The probes and the fresh-process calls do fixed work spread over the
    # run, so a wide spread of either means the machine's speed drifted.
    print(f"  machine speed: probe median {result['slowdown'] * PROBE_REF_MS:.3f} ms, "
          f"reference {PROBE_REF_MS} ms, factor {result['slowdown']:.4f} "
          f"(requests use the probes within {PROBE_WINDOW} s of them), "
          f"probe spread (IQR/median) {result['probe_spread']:.3f}")
    if result["cold_spread"] is not None:
        print(f"  fresh-process call spread (IQR/median): {result['cold_spread']:.3f}")
    label = "traced end-to-end" if trace else "end-to-end"
    for metric, unit in END_TO_END.items():
        value = result["e2e"][metric]
        if value is not None:
            print(f"  {label:<18} {metric:<32} {value:>14.6g} {unit}")
    for metric, value in result.get("layers", {}).items():
        print(f"  {'layer':<18} {metric:<32} {value:>14.6g} {PER_LAYER[metric]}")


def metrics_line(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + m: {"value": result["layers"][m], "unit": u}
                for m, u in PER_LAYER.items()}
    return {prefix + m: {"value": result["e2e"][m], "unit": u}
            for m, u in END_TO_END.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not os.path.isfile(os.path.join(SRC, "ordersum", "cli.py")):
        print("error: src/ordersum not found; run from the root of an ordersum "
              "checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args, deadline)
            print_table(name, results[name], args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _clean_workdirs()
    metrics = {}
    for name, result in results.items():
        metrics.update(metrics_line(result, args.trace,
                                    f"{name}." if len(results) > 1 else ""))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def _clean_workdirs() -> None:
    """Remove the scratch directories of this run's processes."""
    import shutil
    if os.path.isdir(OUT):
        for entry in os.listdir(OUT):
            if entry.startswith(f"tmp-{os.getpid()}-"):
                shutil.rmtree(os.path.join(OUT, entry), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
