"""Command-line front end.

Subcommands:

  compute SPEC      order-sum of one group, optionally brute-force checked
  list N            every abelian group type of order N with its order-sum
  poly SHAPE        the order-sum polynomial of a p-group shape, in x = p
  relative SPEC     order-sum relative to a generated subgroup
  sweep KIND        range scans: conjecture | divisibility | image |
                    monotonicity

Exit codes: 0 no anomaly, 1 anomaly found (collision, divisibility hit,
monotonicity violation, verify mismatch), 2 usage or input error, 3
internal error (a soundness check, exact division or assertion failed).
Large group-theoretic values appear in JSON output as exact decimal
strings so nothing is ever rounded.
"""

import argparse
import json
import os
import sys
from time import perf_counter

from .arith import ExactDivisionError, exact_div, is_prime
from .analysis import (
    CheckpointError,
    SoundnessError,
    SweepCheckpoint,
    conjecture_sweep,
    image_probe,
    load_checkpoint,
    monotonicity_check,
    write_json_atomic,
)
from .oracle import (
    DEFAULT_ENUM_CAP,
    EnumerationCapError,
    psi_bruteforce,
    psi_relative,
    subgroup_closure,
)
from .partitions import Partition
from .polynomial import psi_symbolic, verify_closed_form
from .psi_core import (
    GroupSpecError,
    component_moduli,
    format_group_spec,
    group_type_of_order,
    parse_group_spec,
    psi_abelian,
)

EXIT_OK = 0
EXIT_ANOMALY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad flag combination or malformed value, reported as exit code 2."""


def _emit(args, record: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


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
        moduli = component_moduli(group)
        t0 = perf_counter()
        # The trivial group has no cyclic factors to enumerate; its only
        # element is the identity, of order 1.
        brute = psi_bruteforce(moduli, max_enum=args.max_enum) if moduli else 1
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
    if args.order < 1:
        raise UsageError(f"order must be >= 1, got {args.order}")
    t0 = perf_counter()
    types = group_type_of_order(args.order)
    rows = [{"group": format_group_spec(t), "psi": str(psi_abelian(t)),
             "method": "theorem1"} for t in types]
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


def _parse_shape(text: str) -> Partition:
    if not text.startswith("[") or not text.endswith("]"):
        raise UsageError(
            f"invalid shape {text!r}: expected bracketed exponents like [1,2]")
    body = text[1:-1]
    parts = []
    for token in body.split(","):
        if not token.isdigit():
            raise UsageError(
                f"invalid shape {text!r}: {token!r} is not a positive integer")
        parts.append(int(token))
    try:
        return Partition(tuple(parts))
    except ValueError as exc:
        raise UsageError(f"invalid shape {text!r}: {exc}") from exc


def cmd_poly(args) -> int:
    shape = _parse_shape(args.shape)
    t0 = perf_counter()
    poly = psi_symbolic(shape)
    try:
        report = verify_closed_form(shape)
        closed = [{"family": c.family, "match": c.matches,
                   "residual": str(c.residual)} for c in report.checks]
    except ValueError:
        closed = []
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
    if closed and not all(c["match"] for c in closed):
        return EXIT_ANOMALY
    return EXIT_OK


def cmd_relative(args) -> int:
    group = parse_group_spec(args.spec)
    moduli = component_moduli(group)
    if not moduli:
        if args.gen:
            raise UsageError(
                "the trivial group has no cyclic factors, so no generators "
                "can be given")
        record = {
            "command": "relative",
            "group": "1",
            "order": "1",
            "generators": [],
            "subgroup_order": "1",
            "psi_relative": "1",
            "per_coset_average": "1",
            "method": "bruteforce",
            "elapsed_ms": 0.0,
        }
        _emit(args, record, ["group: 1", "order: 1",
                             "subgroup: 1 element(s) from 0 generator(s)",
                             "psi_relative: 1",
                             "per-coset average: 1 (division exact)"])
        return EXIT_OK
    gens = []
    for gi, text in enumerate(args.gen or [], 1):
        residues = []
        for token in text.split(","):
            stripped = token.strip()
            if not (stripped.isdigit()
                    or (stripped.startswith("-") and stripped[1:].isdigit())):
                raise UsageError(
                    f"generator {gi}: {token!r} is not an integer")
            residues.append(int(stripped))
        gens.append(tuple(residues))
    for gi, g in enumerate(gens, 1):
        if len(g) != len(moduli):
            raise UsageError(
                f"generator {gi}: has {len(g)} component(s), "
                f"the group has {len(moduli)} cyclic factor(s)")
        for ci, (r, m) in enumerate(zip(g, moduli)):
            if not 0 <= r < m:
                raise UsageError(
                    f"generator {gi}, component {ci}: residue {r} "
                    f"not in [0, {m})")
    t0 = perf_counter()
    subgroup = subgroup_closure(moduli, gens, max_enum=args.max_enum)
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


def _reject(args, kind: str, **flags) -> None:
    for name, value in flags.items():
        if value:
            raise UsageError(f"--{name} does not apply to the {kind} sweep")


def _sweep_counting(args) -> int:
    kind = args.kind
    _reject(args, kind, n=args.n is not None, p=args.p is not None)
    if args.to is None:
        raise UsageError(f"the {kind} sweep requires --to")
    start = args.from_ if args.from_ is not None else 2
    workers = args.workers if args.workers is not None else 1
    if workers < 1:
        raise UsageError(f"--workers must be >= 1, got {workers}")
    if start < 2:
        raise UsageError(f"--from must be >= 2, got {start}")
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
    collisions = [c.to_json_obj() for c in checkpoint.collisions]
    hits = [d.to_json_obj() for d in checkpoint.divisible_hits]
    if kind == "conjecture":
        anomaly = bool(collisions)
    else:
        anomaly = bool(hits) or bool(collisions)
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
    _reject(args, "image",
            n=args.n is not None, p=args.p is not None, resume=args.resume)
    if args.from_ is not None:
        raise UsageError("the image sweep always starts at order 1; drop --from")
    if args.to is None:
        raise UsageError("the image sweep requires --to")
    if args.to < 1:
        raise UsageError(f"--to must be >= 1, got {args.to}")
    workers = args.workers if args.workers is not None else 1
    if workers < 1:
        raise UsageError(f"--workers must be >= 1, got {workers}")
    t0 = perf_counter()
    report = image_probe(args.to, workers=workers)
    elapsed = _elapsed_ms(t0)
    anomaly = (bool(report.five_orders) or not report.all_odd
               or not report.bound_holds)
    record = {
        "command": "sweep",
        "kind": "image",
        "to": report.max_order,
        "workers": workers,
        "types_scanned": report.types_scanned,
        "values_up_to_3": [str(v) for v in report.values_up_to_3],
        "all_odd": report.all_odd,
        "bound_holds": report.bound_holds,
        "five_orders": list(report.five_orders),
        "conclusive": report.conclusive,
        "explanation": report.explanation,
        "anomaly": anomaly,
        "elapsed_ms": elapsed,
    }
    lines = [
        f"image sweep of orders 1..{report.max_order} "
        f"({report.types_scanned} types, {elapsed} ms)",
        f"values at orders <= 3: {sorted(report.values_up_to_3)}",
        f"all values odd: {'yes' if report.all_odd else 'NO'}",
        f"all values >= 2*order-1: {'yes' if report.bound_holds else 'NO'}",
        f"value 5 attained: {'NO' if not report.five_orders else sorted(set(report.five_orders))}",
        report.explanation,
    ]
    if args.checkpoint is not None:
        write_json_atomic(record, args.checkpoint)
        lines.append(f"report written to {args.checkpoint}")
    _emit(args, record, lines)
    return EXIT_ANOMALY if anomaly else EXIT_OK


def _sweep_monotonicity(args) -> int:
    _reject(args, "monotonicity",
            resume=args.resume, workers=args.workers is not None)
    if args.from_ is not None or args.to is not None:
        raise UsageError(
            "the monotonicity sweep takes --n and --p, not --from/--to")
    if args.n is None or args.p is None:
        raise UsageError("the monotonicity sweep requires --n and --p")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if not is_prime(args.p):
        raise UsageError(f"--p must be prime, got {args.p}")
    t0 = perf_counter()
    report = monotonicity_check(args.n, args.p)
    elapsed = _elapsed_ms(t0)
    record = {
        "command": "sweep",
        "kind": "monotonicity",
        "n": report.n,
        "p": report.p,
        "types": len(report.entries),
        "chain": [{"shape": str(shape), "psi": str(value)}
                  for shape, value in report.entries],
        "violations": [[str(a), str(b)] for a, b in report.violations],
        "first_matches_flat_formula": report.first_matches_flat_formula,
        "last_matches_cyclic_formula": report.last_matches_cyclic_formula,
        "ok": report.ok,
        "elapsed_ms": elapsed,
    }
    lines = [
        f"monotonicity chain for p={report.p}, exponent n={report.n}: "
        f"{len(report.entries)} types ({elapsed} ms)",
        f"strictly increasing: {'yes' if report.strictly_increasing else 'NO'}",
        "endpoints match closed forms: "
        f"{'yes' if report.first_matches_flat_formula and report.last_matches_cyclic_formula else 'NO'}",
    ]
    for a, b in report.violations:
        lines.append(f"  violation: psi({a}) >= psi({b})")
    if args.checkpoint is not None:
        write_json_atomic(record, args.checkpoint)
        lines.append(f"report written to {args.checkpoint}")
    _emit(args, record, lines)
    return EXIT_OK if report.ok else EXIT_ANOMALY


def cmd_sweep(args) -> int:
    if args.kind in ("conjecture", "divisibility"):
        return _sweep_counting(args)
    if args.kind == "image":
        return _sweep_image(args)
    return _sweep_monotonicity(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordersum",
        description="Exact order-sums of finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    spec_help = "group spec, e.g. 2^[1,2]*3, 5, or 1 for the trivial group"

    c = sub.add_parser("compute", help="order-sum of one group")
    c.add_argument("spec", help=spec_help)
    c.add_argument("--verify", action="store_true",
                   help="cross-check by enumerating the whole group")
    c.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_CAP,
                   help="largest group the verifier may enumerate "
                        "(default %(default)s)")
    c.add_argument("--json", action="store_true", help="machine-readable output")
    c.set_defaults(handler=cmd_compute)

    l = sub.add_parser("list", help="all abelian types of one order")
    l.add_argument("order", type=int, help="group order")
    l.add_argument("--json", action="store_true", help="machine-readable output")
    l.set_defaults(handler=cmd_list)

    y = sub.add_parser("poly", help="order-sum polynomial of a p-group shape")
    y.add_argument("shape", help="ascending exponent list, e.g. [1,2]")
    y.add_argument("--json", action="store_true", help="machine-readable output")
    y.set_defaults(handler=cmd_poly)

    r = sub.add_parser("relative", help="order-sum relative to a subgroup")
    r.add_argument("spec", help=spec_help)
    r.add_argument("--gen", action="append", metavar="R1,R2,...",
                   help="subgroup generator, one residue per cyclic factor; "
                        "repeat for several generators")
    r.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_CAP,
                   help="largest group to enumerate (default %(default)s)")
    r.add_argument("--json", action="store_true", help="machine-readable output")
    r.set_defaults(handler=cmd_relative)

    s = sub.add_parser("sweep", help="scan a range of group orders")
    s.add_argument("kind",
                   choices=("conjecture", "divisibility", "image", "monotonicity"),
                   help="what to scan for")
    s.add_argument("--from", dest="from_", type=int, metavar="N",
                   help="first order (conjecture/divisibility, default 2)")
    s.add_argument("--to", type=int, metavar="N",
                   help="last order (conjecture/divisibility/image)")
    s.add_argument("--n", type=int, help="exponent of the monotonicity chain")
    s.add_argument("--p", type=int, help="prime of the monotonicity chain")
    s.add_argument("--workers", type=int, metavar="N",
                   help="worker processes (default 1)")
    s.add_argument("--checkpoint", metavar="PATH",
                   help="progress file for conjecture/divisibility sweeps; "
                        "report file for image/monotonicity sweeps")
    s.add_argument("--resume", action="store_true",
                   help="continue from an existing checkpoint")
    s.add_argument("--json", action="store_true", help="machine-readable output")
    s.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (UsageError, GroupSpecError, CheckpointError,
            EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SoundnessError, AssertionError, ExactDivisionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
