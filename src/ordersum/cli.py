"""Command-line front end.

Subcommands:

  compute SPEC      order-sum of one group, optionally brute-force checked
                    (--verify, --max-enum)
  list N            every abelian group type of order N with its order-sum
  poly SHAPE        the order-sum polynomial of a p-group shape, in x = p
  relative SPEC     order-sum relative to a generated subgroup (--gen,
                    repeatable; --max-enum)
  sweep KIND        range scans, one subcommand per kind:
    conjecture, divisibility
                    --to N (required), --from N (default 2), --workers N,
                    --checkpoint PATH (progress file), --resume
    image           --to N (required), --workers N, --checkpoint PATH
                    (report file)
    monotonicity    --n N (1..60) and --p P (both required), --checkpoint
                    PATH (report file)

Every command takes --json; a sweep's report file holds the same JSON
text.  Each sweep kind accepts only its own flags; argparse rejects any
other, and range checks on flag values (--from >= 2, --workers >= 1,
--p prime, ...) happen while parsing.  Every integer, in an argument, a
--gen residue or a group spec, is written in ASCII decimal digits only
(psi_core.parse_decimal): a sign, whitespace, "_" or a non-ASCII digit
is a usage error.

Exit codes: 0 no anomaly, 1 anomaly found (collision, divisibility hit,
monotonicity violation, verify mismatch), 2 usage or input error (a
damaged checkpoint, a path that cannot be written, a --gen element that
does not fit the group), 3 internal error (a soundness check, exact
division or assertion failed, or a sweep worker died; every sweep kind's
scan raises SoundnessError at an even order-sum or one below
2*order - 1, and sweep image at a value other than 1, 3 and 7 at orders
1..3, so sweep image never exits 1).  A worker that dies stops the sweep
with "internal error: worker died on orders A..B (exit code -N)", -N for
a kill by signal N; the checkpoint holds every block before A, so
--resume continues from there.
Run as a program (entry), it exits 141 without a traceback when the
reader of its standard output closes the pipe early (`| head`).  On
Ctrl-C it prints one line, "interrupted", or for a conjecture or
divisibility sweep whose --checkpoint PATH has been written "interrupted;
--resume continues from PATH", and ends by SIGINT (a shell shows 130); an
in-process main() caller gets the KeyboardInterrupt.
Large group-theoretic values appear in JSON output as exact decimal
strings so nothing is ever rounded.

Every call is a fresh process, so a command imports only the layers it
runs: psi_core and arith for every command, persistence (the JSON text,
the file writer, the checkpoint codec and the sweep errors main() maps to
exit codes), and, inside the handlers that call them, oracle (compute
--verify, relative), polynomial (poly) and analysis (sweep).  The
--max-enum default, DEFAULT_ENUM_CAP, is read from arith, where it is
defined; the oracle exports it.
"""

import argparse
import os
import shutil
import sys
from contextlib import nullcontext
from functools import cache
from time import perf_counter

from .arith import (
    DEFAULT_ENUM_CAP,
    ExactDivisionError,
    exact_div,
    factorize,
    is_prime,
)
from .persistence import (
    CheckpointError,
    SoundnessError,
    WorkerError,
    json_text,
    load_checkpoint,
    write_text_atomic,
)
from .psi_core import (
    GroupSpecError,
    component_moduli,
    format_group_spec,
    parse_decimal,
    parse_group_spec,
    parse_shape,
    psi_abelian,
    psi_chain_texts,
    type_labels,
    type_psis,
)

EXIT_OK = 0
EXIT_ANOMALY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    """Bad flag combination or malformed value, reported as exit code 2."""


def _emit(args, record: dict, human_lines: list[str],
          report: str | None = None) -> None:
    # A report file holds the same JSON text that --json prints, built once.
    text = json_text(record) if args.json or report is not None else None
    if report is not None:
        with write_text_atomic(report) as write:
            write(text)
        human_lines.append(f"report written to {report}")
    # print() writes the final newline on its own.  Under python -u a write
    # cut short by a closed pipe raises nothing, so it is that last write
    # which raises the BrokenPipeError entry() reports.  (sweep
    # monotonicity writes its chain as it is made, so there any write can
    # raise it.)
    print(text.removesuffix("\n") if args.json else "\n".join(human_lines))


def _elapsed_ms(t0: float) -> float:
    return round((perf_counter() - t0) * 1000.0, 3)


def cmd_compute(args) -> int:
    group = parse_group_spec(args.spec)
    t0 = perf_counter()
    value = psi_abelian(group)
    elapsed = _elapsed_ms(t0)
    record = {
        "command": "compute",
        "group": format_group_spec(group),
        "order": str(group.order),
        "psi": str(value),
        "method": "theorem1",
        "elapsed_ms": elapsed,
    }
    lines = [
        f"group: {record['group']}",
        f"order: {group.order}",
        f"psi: {value}",
        f"method: theorem1 ({elapsed} ms)",
    ]
    code = EXIT_OK
    if args.verify:
        from .oracle import psi_bruteforce
        moduli = component_moduli(group)
        t0 = perf_counter()
        try:
            brute = psi_bruteforce(moduli, max_enum=args.max_enum)
        except ValueError as exc:  # the cap (EnumerationCapError)
            raise UsageError(str(exc)) from None
        brute_ms = _elapsed_ms(t0)
        match = brute == value
        record["verify"] = {
            "method": "bruteforce",
            "psi": str(brute),
            "match": match,
            "elapsed_ms": brute_ms,
        }
        lines.append(
            f"verify: bruteforce psi={brute} "
            f"{'match' if match else 'MISMATCH'} ({brute_ms} ms)")
        if not match:
            code = EXIT_ANOMALY
    _emit(args, record, lines)
    return code


def cmd_list(args) -> int:
    t0 = perf_counter()
    factorization = factorize(args.order)
    rows = [{"group": label, "psi": str(value), "method": "theorem1"}
            for label, value in zip(type_labels(factorization),
                                    type_psis(factorization))]
    elapsed = _elapsed_ms(t0)
    record = {
        "command": "list",
        "order": args.order,
        "count": len(rows),
        "rows": rows,
        "elapsed_ms": elapsed,
    }
    lines = [f"order {args.order}: {len(rows)} abelian type(s) ({elapsed} ms)"]
    width = max(len(r["group"]) for r in rows)
    lines += [f"  {r['group']:<{width}}  psi={r['psi']}" for r in rows]
    _emit(args, record, lines)
    return EXIT_OK


def cmd_poly(args) -> int:
    from .polynomial import verify_closed_form
    shape = parse_shape(args.shape)
    t0 = perf_counter()
    report = verify_closed_form(shape)
    poly = report.direct
    closed = [{"family": c.family, "match": c.matches,
               "residual": str(c.residual)} for c in report.checks]
    elapsed = _elapsed_ms(t0)
    record = {
        "command": "poly",
        "shape": list(shape.parts),
        "degree": poly.degree,
        "coefficients": [str(c) for c in poly.coeffs],
        "polynomial": str(poly),
        "closed_forms": closed,
        "method": "symbolic",
        "elapsed_ms": elapsed,
    }
    lines = [
        f"shape: {shape}",
        f"degree: {poly.degree}",
        f"polynomial: {poly}",
    ]
    for c in closed:
        status = "match" if c["match"] else f"MISMATCH residual {c['residual']}"
        lines.append(f"closed form {c['family']}: {status}")
    _emit(args, record, lines)
    return EXIT_OK if report.all_match else EXIT_ANOMALY


def cmd_relative(args) -> int:
    from .oracle import psi_relative, subgroup_closure
    group = parse_group_spec(args.spec)
    moduli = component_moduli(group)
    gens = args.gen or []
    t0 = perf_counter()
    try:
        subgroup = subgroup_closure(moduli, gens, max_enum=args.max_enum)
    except ValueError as exc:  # a generator that does not fit, or the cap
        raise UsageError(str(exc)) from None
    value = psi_relative(moduli, subgroup, max_enum=args.max_enum)
    elapsed = _elapsed_ms(t0)
    sub_order = len(subgroup)
    # psi_rel(G, H) = |H| * psi(G/H), so this division is always exact.
    average = exact_div(value, sub_order)
    record = {
        "command": "relative",
        "group": format_group_spec(group),
        "order": str(group.order),
        "generators": [list(g) for g in gens],
        "subgroup_order": str(sub_order),
        "psi_relative": str(value),
        "per_coset_average": str(average),
        "method": "bruteforce",
        "elapsed_ms": elapsed,
    }
    lines = [
        f"group: {record['group']}",
        f"order: {group.order}",
        f"subgroup: {sub_order} element(s) from {len(gens)} generator(s)",
        f"psi_relative: {value}",
        f"method: bruteforce ({elapsed} ms)",
        f"per-coset average: {average} (division exact)",
    ]
    _emit(args, record, lines)
    return EXIT_OK


def _sweep_counting(args) -> int:
    from .analysis import conjecture_sweep
    kind, start, workers = args.kind, args.from_, args.workers
    if args.to < start:
        raise UsageError(f"need --from <= --to, got [{start}, {args.to}]")
    path = args.checkpoint
    if args.resume and path is None:
        raise UsageError("--resume requires --checkpoint")
    checkpoint = None
    if path is not None:
        if os.path.exists(path):
            if not args.resume:
                raise UsageError(
                    f"checkpoint {path} already exists; pass --resume to "
                    "continue it, or remove the file to start over")
            checkpoint = load_checkpoint(path)
        elif args.resume:
            raise UsageError(f"--resume: checkpoint {path} does not exist")
    t0 = perf_counter()
    checkpoint = conjecture_sweep(start, args.to, checkpoint,
                                  workers=workers, checkpoint_path=path)
    elapsed = _elapsed_ms(t0)
    saved = checkpoint.to_json_obj()
    collisions, hits = saved["collisions"], saved["divisible_hits"]
    anomaly = bool(collisions) or (kind == "divisibility" and bool(hits))
    record = {
        "command": "sweep",
        "kind": kind,
        "from": start,
        "to": args.to,
        "workers": workers,
        "max_done": checkpoint.max_done,
        "collisions": collisions,
        "divisible_hits": hits,
        "anomaly": anomaly,
        "checkpoint": path,
        "elapsed_ms": elapsed,
    }
    lines = [
        f"{kind} sweep of orders {start}..{args.to} "
        f"(watermark {checkpoint.max_done}, {elapsed} ms)",
        f"collisions: {len(collisions)}",
        f"divisibility hits: {len(hits)}",
    ]
    for c in checkpoint.collisions:
        lines.append(f"  order {c.order}: {c.group_a} and {c.group_b} "
                     f"share psi={c.psi}")
    for d in checkpoint.divisible_hits:
        lines.append(f"  order {d.order}: {d.group} psi={d.psi} "
                     f"= {d.order} * {d.quotient}")
    if kind == "divisibility" and hits:
        smallest = min(d.order for d in checkpoint.divisible_hits)
        note = ("empirical result of this scan, not a proven minimum")
        record["smallest_hit_order"] = smallest
        record["smallest_hit_note"] = note
        lines.append(f"smallest hit in range: order {smallest} ({note})")
    if path is not None:
        lines.append(f"checkpoint: {path}")
    _emit(args, record, lines)
    return EXIT_ANOMALY if anomaly else EXIT_OK


def _sweep_image(args) -> int:
    from .analysis import image_probe
    t0 = perf_counter()
    report = image_probe(args.to, workers=args.workers)
    elapsed = _elapsed_ms(t0)
    # A report exists only if the scan passed: image_probe raises
    # SoundnessError at a value that is even, below 2*order-1, or other
    # than 1, 3 and 7 at orders 1..3.  So all_odd, bound_holds, five_orders
    # and anomaly, and the lines that print them, are constants.
    record = {
        "command": "sweep",
        "kind": "image",
        "to": report.max_order,
        "workers": args.workers,
        "types_scanned": report.types_scanned,
        "values_up_to_3": [str(v) for v in report.values_up_to_3],
        "all_odd": True,
        "bound_holds": True,
        "five_orders": [],
        "conclusive": report.conclusive,
        "explanation": report.explanation,
        "anomaly": False,
        "elapsed_ms": elapsed,
    }
    lines = [
        f"image sweep of orders 1..{report.max_order} "
        f"({report.types_scanned} types, {elapsed} ms)",
        f"values at orders <= 3: {sorted(report.values_up_to_3)}",
        "all values odd: yes",
        "all values >= 2*order-1: yes",
        "value 5 attained: NO",
        report.explanation,
    ]
    _emit(args, record, lines, report=args.checkpoint)
    return EXIT_OK


def _written(entries, write):
    """The chain's (text, psi) entries, unchanged, each written first as JSON.

    The text of the record's "chain" list, opening the record: its key
    sorts first, so the record's other keys follow it.
    """
    lead = '{\n  "chain": ['
    for text, value in entries:
        write(f'{lead}\n    {{\n      "psi": "{value}",'
              f'\n      "shape": "{text}"\n    }}')
        lead = ","
        yield text, value


def _sweep_monotonicity(args) -> int:
    # The chain is read as text, each shape's text made along the walk
    # (psi_chain_texts), and its JSON text is written as monotonicity_check
    # folds it: to the report file if there is one (--json then prints that
    # file's bytes), else to stdout under --json.  Only the fold's entry is
    # held, so memory does not grow with the chain.  elapsed_ms, which
    # sorts after "chain", includes that writing.
    from .analysis import monotonicity_check
    path = args.checkpoint
    if path is not None:
        sink = write_text_atomic(path)
    else:
        sink = nullcontext(sys.stdout.write if args.json else None)
    with sink as write:
        t0 = perf_counter()
        entries = psi_chain_texts(args.p, args.n)
        report = monotonicity_check(
            args.n, args.p,
            entries=entries if write is None else _written(entries, write))
        elapsed = _elapsed_ms(t0)
        if write is not None:
            rest = {
                "command": "sweep",
                "kind": "monotonicity",
                "n": report.n,
                "p": report.p,
                "types": report.types,
                "violations": [[str(a), str(b)] for a, b in report.violations],
                "first_matches_flat_formula": report.first_matches_flat_formula,
                "last_matches_cyclic_formula": report.last_matches_cyclic_formula,
                "ok": report.ok,
                "elapsed_ms": elapsed,
            }
            write("\n  ]," + json_text(rest)[1:])
    if args.json and path is not None:
        with open(path, encoding="utf-8") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    elif not args.json:
        lines = [
            f"monotonicity chain for p={report.p}, exponent n={report.n}: "
            f"{report.types} types ({elapsed} ms)",
            f"strictly increasing: {'yes' if report.strictly_increasing else 'NO'}",
            "endpoints match closed forms: "
            f"{'yes' if report.first_matches_flat_formula and report.last_matches_cyclic_formula else 'NO'}",
        ]
        for a, b in report.violations:
            lines.append(f"  violation: psi({a}) >= psi({b})")
        if path is not None:
            lines.append(f"report written to {path}")
        print("\n".join(lines))
    return EXIT_OK if report.ok else EXIT_ANOMALY


def _int_type(ok, what: str):
    # An argparse type= callable: an integer written in ASCII digits for
    # which ok(value) holds.  Its error message becomes argparse's
    # "argument --flag: ..." line.
    def parse(text: str) -> int:
        try:
            value = parse_decimal(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_NATURAL = _int_type(lambda n: n >= 0, "an integer >= 0")
_POSITIVE = _int_type(lambda n: n >= 1, "an integer >= 1")
_ORDER_FROM = _int_type(lambda n: n >= 2, "an integer >= 2")
_PRIME = _int_type(is_prime, "a prime")
# sweep monotonicity streams its chain, so memory stays near 16 MiB at
# any n (ru_maxrss, CPython 3.11 on Linux); time and output grow with the
# p(n) shapes instead, about 1.17-fold per step of n.  At n = 60 (966467
# shapes, p = 997) a fresh run takes about 3 s, and a --json run about 4 s
# for 298 MB of text, on two shared cores.
MAX_CHAIN_EXPONENT = 60
_CHAIN_EXPONENT = _int_type(lambda n: 1 <= n <= MAX_CHAIN_EXPONENT,
                            f"an integer from 1 to {MAX_CHAIN_EXPONENT}")


def _generator(text: str) -> tuple[int, ...]:
    # An argparse type= callable for --gen: comma-separated residues, each
    # checked against its cyclic factor by oracle.subgroup_closure.
    return tuple(map(_NATURAL, text.split(",")))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ordersum argument parser, built once per process.

    Parsing leaves no state in the parser, so every main() call shares
    this one; building it costs more than most commands do.
    """
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="machine-readable output")
    enum_cap = argparse.ArgumentParser(add_help=False)
    enum_cap.add_argument("--max-enum", type=_NATURAL, default=DEFAULT_ENUM_CAP,
                          help="largest group order the oracle accepts "
                               "(default %(default)s)")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=_POSITIVE, default=1, metavar="N",
                         help="worker processes (default 1); the output "
                              "does not depend on it")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--checkpoint", metavar="PATH",
                        help="also write the JSON report to this file")

    parser = argparse.ArgumentParser(
        prog="ordersum",
        description="Exact order-sums of finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    spec_help = "group spec, e.g. 2^[1,2]*3, 5, or 1 for the trivial group"

    c = sub.add_parser("compute", parents=[json_flag, enum_cap],
                       help="order-sum of one group")
    c.add_argument("spec", help=spec_help)
    c.add_argument("--verify", action="store_true",
                   help="cross-check by counting the group's elements by order")
    c.set_defaults(handler=cmd_compute, parser=c)

    l = sub.add_parser("list", parents=[json_flag],
                       help="all abelian types of one order")
    l.add_argument("order", type=_POSITIVE, help="group order")
    l.set_defaults(handler=cmd_list, parser=l)

    y = sub.add_parser("poly", parents=[json_flag],
                       help="order-sum polynomial of a p-group shape")
    y.add_argument("shape", help="ascending exponent list, e.g. [1,2]")
    y.set_defaults(handler=cmd_poly, parser=y)

    r = sub.add_parser("relative", parents=[json_flag, enum_cap],
                       help="order-sum relative to a subgroup")
    r.add_argument("spec", help=spec_help)
    r.add_argument("--gen", action="append", type=_generator,
                   metavar="R1,R2,...",
                   help="subgroup generator, one residue per cyclic factor; "
                        "repeat for several generators")
    r.set_defaults(handler=cmd_relative, parser=r)

    s = sub.add_parser("sweep", help="scan a range of group orders")
    kinds = s.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind, about in (("conjecture", "same-order order-sum collisions"),
                        ("divisibility", "groups whose order divides their "
                                         "order-sum")):
        k = kinds.add_parser(kind, parents=[json_flag, workers],
                             help=f"scan a range of orders for {about}")
        k.add_argument("--from", dest="from_", type=_ORDER_FROM, default=2,
                       metavar="N", help="first order (default 2)")
        k.add_argument("--to", type=_NATURAL, required=True, metavar="N",
                       help="last order")
        k.add_argument("--checkpoint", metavar="PATH",
                       help="progress file, rewritten after every block")
        k.add_argument("--resume", action="store_true",
                       help="continue the existing progress file")
        k.set_defaults(handler=_sweep_counting, parser=k)
    k = kinds.add_parser("image", parents=[json_flag, workers, report],
                         help="small values, parity and lower bound of "
                              "the order-sums of orders 1..N")
    k.add_argument("--to", type=_POSITIVE, required=True, metavar="N",
                   help="last order; the scan starts at order 1")
    k.set_defaults(handler=_sweep_image, parser=k)
    k = kinds.add_parser("monotonicity", parents=[json_flag, report],
                         help="order-sums along the chain of p-groups of "
                              "order p^n")
    k.add_argument("--n", type=_CHAIN_EXPONENT, required=True,
                   help=f"exponent of the chain, from 1 to {MAX_CHAIN_EXPONENT}")
    k.add_argument("--p", type=_PRIME, required=True,
                   help="prime of the chain")
    k.set_defaults(handler=_sweep_monotonicity, parser=k)

    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:
            # argparse hands a subcommand's unknown flags up to the top
            # level; report them under the subcommand's own usage line,
            # which lists the flags it does take.
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    # Order-sums can run to any number of digits, and all of them print
    # as exact decimals; the interpreter's int-to-str limit is lifted for
    # the command only (Python before 3.10.7 has no limit).
    limit = None
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (UsageError, GroupSpecError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SoundnessError, WorkerError, AssertionError,
            ExactDivisionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:  # raised on, with the note entry() prints
        path = args.checkpoint if args.handler is _sweep_counting else None
        raise KeyboardInterrupt(f"--resume continues from {path}"
                                if path and os.path.isfile(path) else None)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Output still buffered would
        # fail again at exit, so it goes to the null device instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except KeyboardInterrupt as exc:
        # Ctrl-C: one line, not a traceback, then the death by SIGINT an
        # uncaught interrupt ends in, which a shell shows as 130.
        import signal
        print("interrupted", *filter(None, exc.args), sep="; ", file=sys.stderr)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
    sys.exit(code)


if __name__ == "__main__":
    entry()
