"""Range sweeps over group orders, with checkpoints and worker pools.

The one engine here (scan_orders) walks every abelian group type of every
order in a range, computes the order-sum of each, and records everything
the library's long-running searches care about:

  * same-order collisions: two types of the same order with equal order
    sums (rare but real: order 21069103104 = 2^16 * 3^8 * 7^2 has
    2^[1,1,1,1,1,1,1,2,2,5]*3^[2,2,2,2]*7^[2] and
    2^[1,1,1,1,1,1,1,1,8]*3^[1,1,1,1,1,1,2]*7^[1,1], both of order-sum
    173109506110475, as this scan and the definition-level oracle
    confirm; a prime of exponent 1 in an order adds the same factor to
    every type, so the pair lifts to that order times any squarefree
    number coprime to it),
  * divisibility hits: types whose order-sum is a multiple of the group
    order (rare but real; the smallest has order 3887),
  * violations of the two proved facts that every order-sum is odd and at
    least 2*order - 1 (impossible unless the formulas are broken, so the
    sweep wrappers raise SoundnessError on them).

The scan kernel (_scan_range) never builds a type.  psi is multiplicative
over the primes of the order, so for each p^e exactly dividing n it takes
the list of psi values of the shapes of e (one value, p^2 - p + 1, when
e = 1) and folds the lists together with one multiplication per type, in
the type enumeration order.  A type's spec label is the type at its
index in psi_core.iter_type_components, looked up and formatted only for
the records kept.  Every value comes through _psi_prime_power, whose
cache holds only shapes of order p^2 or more, so it is bounded by the
primes up to the square root of the range.

Long sweeps persist progress in a small JSON checkpoint.  Checkpoints are
written atomically (temp file + rename), carry a format version that is
checked before anything else, and record the largest fully-scanned order,
so a resumed sweep continues exactly where the file says and the final
state is byte-identical to an uninterrupted run.  The range is split into
fixed blocks, and each block factors its own orders with a segmented sieve
over the primes up to the square root of its last order, so memory is per
block and does not grow with the range.  Worker parallelism hands blocks to
forked processes; a task is just the block's two bounds, so workers inherit
no shared state.  Results are merged in block order, so worker count never
changes any output.

One codec reads and writes every object in a checkpoint.  A found record
is written as {field: value} over its __slots__, with its order-sums as
decimal strings (DECIMAL_FIELDS).  _read_json reads the root and each
record by one rule: exactly the annotated fields, each of exactly its
annotated type.  The reader then checks that every record describes an
order the file says was scanned (2..max_done), that a hit's psi is its
order times its quotient, and that a collision names two different
groups.  Any defect raises CheckpointError, which names where in the file
it was found (divisible_hits[0], ...) and shows at most the first 20
characters of a value read from it.
"""

import json
import os
import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, islice
from json.encoder import encode_basestring_ascii as _json_string
from math import isqrt

from ._record import FrozenRecord, MutableRecord
from .arith import smallest_prime_factors
from .partitions import Partition
from .psi_core import (
    _psi_prime_power,
    _shapes_of,
    format_components,
    group_type_of_order,
    iter_type_components,
    parse_decimal,
    psi_abelian,
    psi_chain,
    psi_cyclic,
    psi_elem_abelian,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CollisionRecord",
    "DivisibleRecord",
    "ImageReport",
    "MonotonicityReport",
    "SoundnessError",
    "SweepCheckpoint",
    "SweepOutcome",
    "conjecture_sweep",
    "divisibility_search",
    "image_probe",
    "json_text",
    "load_checkpoint",
    "monotonicity_check",
    "save_checkpoint",
    "scan_orders",
    "write_text_atomic",
]

CHECKPOINT_VERSION = 1
DEFAULT_BLOCK_SIZE = 1000


class CollisionRecord(FrozenRecord):
    """Two distinct types of the same order with the same order-sum."""

    __slots__ = ("order", "group_a", "group_b", "psi")
    order: int
    group_a: str
    group_b: str
    psi: int


class DivisibleRecord(FrozenRecord):
    """A type whose order-sum is an exact multiple of the group order."""

    __slots__ = ("order", "group", "psi", "quotient")
    order: int
    group: str
    psi: int
    quotient: int


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, malformed, or inconsistent with the run."""


class SoundnessError(RuntimeError):
    """A sweep saw an order-sum that a proved fact rules out.

    Every order-sum is odd and at least 2 * order - 1, so a violation means
    the formulas themselves are broken, not that something was discovered.
    """


# The record fields a checkpoint holds as decimal strings: order-sums grow
# without bound, and a JSON reader need not keep a large number exact.
DECIMAL_FIELDS = ("psi", "quotient")

# An error names at most this many unknown fields, then their count.
_FIELDS_SHOWN = 3

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean"}


def _shown(value) -> str:
    """A value read from a checkpoint file, as an error message shows it.

    Its repr, cut to the first 20 characters of a string (or of another
    value's repr) plus the length, so any file gives a short message.
    """
    text = value if type(value) is str else repr(value)
    if len(text) <= 20:
        return repr(value)
    head = repr(text[:20]) if type(value) is str else text[:20]
    return f"{head}... ({len(text)} characters)"


def _record_json(record: FrozenRecord) -> dict:
    """A found record as its checkpoint object: {field: value} over __slots__."""
    return {name: str(value) if name in DECIMAL_FIELDS else value
            for name, value in zip(type(record).__slots__, record._values())}


def _read_json(value, kind, where: str):
    """A value decoded from a checkpoint file as `kind`, else CheckpointError.

    `kind` is a field's annotated type: int, str, list[R], or a record
    class R (the root is SweepCheckpoint), whose value must be an object
    holding exactly R's annotated fields.  Types match exactly, so true is
    not an integer; the DECIMAL_FIELDS are decimal strings, read by
    parse_decimal.  `where` names the value in the file for the error:
    root, max_done, divisible_hits[0].psi, ...
    """
    origin = getattr(kind, "__origin__", kind)
    wanted = origin if origin in (int, str, list) else dict
    if type(value) is not wanted:
        raise CheckpointError(
            f"checkpoint {where} must be {_JSON_KINDS[wanted]}, "
            f"got {_JSON_KINDS.get(type(value), 'null')}")
    if wanted is list:
        return [_read_json(item, kind.__args__[0], f"{where}[{i}]")
                for i, item in enumerate(value)]
    if wanted is not dict:
        return value
    fields = kind.__annotations__
    if value.keys() != fields.keys():
        extra, missing = value.keys() - fields, fields.keys() - value.keys()
        if extra:
            named = [_shown(key) for key in sorted(extra)[:_FIELDS_SHOWN]]
            if len(extra) > _FIELDS_SHOWN:
                named.append(f"... ({len(extra)} in all)")
            raise CheckpointError(
                f"checkpoint {where} has unknown fields [{', '.join(named)}]")
        raise CheckpointError(
            f"checkpoint {where} is missing fields {sorted(missing)}")
    prefix = "" if where == "root" else where + "."
    args = {}
    for name, field_kind in fields.items():
        if name in DECIMAL_FIELDS:
            text = _read_json(value[name], str, prefix + name)
            try:
                args[name] = parse_decimal(text)
            except ValueError:
                # Only the interpreter's int-string limit refuses digits.
                problem = (f"has {len(text)} digits, over this interpreter's "
                           f"limit of {sys.get_int_max_str_digits()}"
                           if text.isascii() and text.isdigit() else
                           f"must be a decimal string, got {_shown(text)}")
                raise CheckpointError(
                    f"checkpoint {prefix}{name} {problem}") from None
        else:
            args[name] = _read_json(value[name], field_kind, prefix + name)
    return kind(**args)


class SweepCheckpoint(MutableRecord):
    """Persistent state of a sweep: progress watermark plus found records.

    max_done is the largest order fully scanned; a sweep resumed from this
    state starts at max_done + 1.  The annotations are the file's fields.
    """

    version: int
    max_done: int
    collisions: list[CollisionRecord]
    divisible_hits: list[DivisibleRecord]

    def __init__(self, max_done: int,
                 collisions: list[CollisionRecord] | None = None,
                 divisible_hits: list[DivisibleRecord] | None = None,
                 version: int = CHECKPOINT_VERSION) -> None:
        self.max_done = max_done
        self.collisions = [] if collisions is None else collisions
        self.divisible_hits = [] if divisible_hits is None else divisible_hits
        self.version = version

    @classmethod
    def fresh(cls, start: int) -> "SweepCheckpoint":
        """Empty checkpoint for a sweep that will begin at `start`."""
        return cls(max_done=start - 1)

    def to_json_obj(self) -> dict:
        return {
            "version": self.version,
            "max_done": self.max_done,
            "collisions": [_record_json(c) for c in self.collisions],
            "divisible_hits": [_record_json(d) for d in self.divisible_hits],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SweepCheckpoint":
        if type(obj) is dict and obj.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {_shown(obj.get('version'))} is not "
                f"supported (this build reads version {CHECKPOINT_VERSION})")
        checkpoint = _read_json(obj, cls, "root")
        # Each record must describe an order the file says was scanned
        # and agree with itself.
        for key in ("collisions", "divisible_hits"):
            for i, r in enumerate(getattr(checkpoint, key)):
                if not 2 <= r.order <= checkpoint.max_done:
                    problem = (f"order {_shown(r.order)} is outside the "
                               f"scanned orders 2..{_shown(checkpoint.max_done)}")
                elif key == "collisions" and r.group_a == r.group_b:
                    problem = "group_a and group_b are the same group"
                elif key == "divisible_hits" and r.psi != r.order * r.quotient:
                    problem = "psi is not order times quotient"
                else:
                    continue
                raise CheckpointError(f"checkpoint {key}[{i}]: {problem}")
        return checkpoint


def json_text(record: dict) -> str:
    """The JSON text of a record: sorted keys, two-space indent, final newline.

    Equal records give equal bytes.  Checkpoints, sweep report files and
    the command line's --json output are all this text.  It is the text
    json.dumps(record, indent=2, sort_keys=True) + "\n" gives, byte for
    byte, for any record whose keys are strings.  json.dumps is not called
    with an indent because the C encoder takes none, and the pure-Python
    one it falls back to was the largest cost of a long --json record
    after the order-sums themselves.  So the record is walked here:
    containers by _json_chunks, strings and keys by the C string encoder,
    other values by json.dumps without an indent.
    """
    out: list[str] = []
    _json_chunks(record, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_chunks(value, newline: str, out: list[str]) -> None:
    # Appends the JSON text of value, whose lines after the first start
    # with `newline` (a newline and the indent of value's own line).
    if isinstance(value, str):
        out.append(_json_string(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _json_chunks(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            out.append(lead + _json_string(key) + ": ")
            _json_chunks(item, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def write_text_atomic(text: str, path: str) -> None:
    """Write text to a file atomically: temp file, then rename.

    The one file writer: checkpoints and the command line's report files
    both go through it.  A failed write raises
    CheckpointError("cannot write PATH: reason") and leaves no temp file
    behind.  The temp file is PATH.PID.tmp, unique to the writing process,
    so nothing left at PATH.tmp is in its way.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise CheckpointError(f"cannot write {path}: {exc.strerror}") from exc


def save_checkpoint(checkpoint: SweepCheckpoint, path: str) -> None:
    """Write a checkpoint's JSON text atomically (write_text_atomic)."""
    write_text_atomic(json_text(checkpoint.to_json_obj()), path)


def load_checkpoint(path: str) -> SweepCheckpoint:
    """Read a checkpoint; any defect raises CheckpointError."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # RecursionError, arrays or objects nested too deep to decode.
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    return SweepCheckpoint.from_json_obj(obj)


class SweepOutcome(MutableRecord):
    """Everything one range scan observed, before any persistence."""

    def __init__(self, types_scanned: int = 0,
                 collisions: list[CollisionRecord] | None = None,
                 divisible_hits: list[DivisibleRecord] | None = None,
                 odd_violations: list[tuple[int, str, int]] | None = None,
                 bound_violations: list[tuple[int, str, int]] | None = None,
                 five_orders: list[int] | None = None) -> None:
        self.types_scanned = types_scanned
        self.collisions = [] if collisions is None else collisions
        self.divisible_hits = [] if divisible_hits is None else divisible_hits
        self.odd_violations = [] if odd_violations is None else odd_violations
        self.bound_violations = ([] if bound_violations is None
                                 else bound_violations)
        self.five_orders = [] if five_orders is None else five_orders

    def merge(self, other: "SweepOutcome") -> None:
        self.types_scanned += other.types_scanned
        self.collisions.extend(other.collisions)
        self.divisible_hits.extend(other.divisible_hits)
        self.odd_violations.extend(other.odd_violations)
        self.bound_violations.extend(other.bound_violations)
        self.five_orders.extend(other.five_orders)


@lru_cache(maxsize=1)
def _sieving_primes(bound: int) -> tuple[int, ...]:
    spf = smallest_prime_factors(bound)
    return tuple(p for p in range(2, len(spf)) if spf[p] == p)


def _primes_up_to(limit: int) -> tuple[int, ...]:
    """The primes up to `limit`, sliced from a sieve shared across blocks.

    The sieve runs up to the power of two above `limit`, so consecutive
    blocks, whose limits isqrt(stop) grow slowly, reuse one sieve until
    the limit passes that power of two.
    """
    primes = _sieving_primes(1 << limit.bit_length())
    return primes[:bisect_right(primes, limit)]


def _factor_block(start: int, stop: int) -> list[list[tuple[int, int]]]:
    """Sorted (prime, exponent) pairs of every n in [start, stop], in order.

    A segmented sieve: each prime up to isqrt(stop) is divided out of the
    block's residues.  A cofactor left above 1 has no prime factor up to
    isqrt(stop), so it is itself prime.
    """
    residues = list(range(start, stop + 1))
    factors: list[list[tuple[int, int]]] = [[] for _ in residues]
    for p in _primes_up_to(isqrt(stop)):
        for i in range(-start % p, len(residues), p):
            e = 0
            while residues[i] % p == 0:
                residues[i] //= p
                e += 1
            factors[i].append((p, e))
    return [pairs + [(r, 1)] if r > 1 else pairs
            for r, pairs in zip(residues, factors)]


def _type_label(factorization: list[tuple[int, int]], index: int) -> str:
    """Spec label of the type at `index` in iter_type_components order."""
    return format_components(
        next(islice(iter_type_components(factorization), index, None)))


def _scan_range(bounds: tuple[int, int]) -> SweepOutcome:
    """Scan every order in [start, stop] with all detectors on.

    A pure function of its bounds, so it is also the pool task.  psi is
    multiplicative, so the values of all types of an order are products
    of one value per prime: a prime of exponent 1 contributes a factor
    common to every type, and a prime of exponent e >= 2 one value per
    shape of e.  Folding the primes in increasing order, the last one
    varying fastest, puts the values in iter_type_components order, so a
    type's spec label is the type at its index in that order; labels are
    looked up and formatted only for the records kept.
    """
    start, stop = bounds
    out = SweepOutcome()
    for n, factorization in enumerate(_factor_block(start, stop), start):
        common = 1
        values = [1]
        for p, e in factorization:
            if e == 1:
                common *= _psi_prime_power(p, (1,))
            else:
                psis = [_psi_prime_power(p, parts) for parts in _shapes_of(e)]
                values = [v * w for v in values for w in psis]
        values = [common * v for v in values]
        out.types_scanned += len(values)
        for i, value in enumerate(values):
            if value % 2 == 0:
                out.odd_violations.append(
                    (n, _type_label(factorization, i), value))
            if value < 2 * n - 1:
                out.bound_violations.append(
                    (n, _type_label(factorization, i), value))
            if value == 5:
                out.five_orders.append(n)
            if n >= 2 and value % n == 0:
                out.divisible_hits.append(DivisibleRecord(
                    n, _type_label(factorization, i), value, value // n))
        if len(set(values)) < len(values):
            by_value: dict[int, list[int]] = {}
            for i, value in enumerate(values):
                by_value.setdefault(value, []).append(i)
            for value, indices in by_value.items():
                for a, b in combinations(indices, 2):
                    out.collisions.append(CollisionRecord(
                        n, _type_label(factorization, a),
                        _type_label(factorization, b), value))
    return out


def _iter_block_outcomes(start: int, stop: int, workers: int, block_size: int):
    """Yield (last_order_of_block, SweepOutcome) in ascending block order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Blocks are made as they are scanned, so memory does not grow with
    # the number of blocks.
    starts = range(start, stop + 1, block_size)

    def blocks():
        return ((a, min(a + block_size - 1, stop)) for a in starts)

    # A worker beyond one per block would have nothing to scan.
    workers = min(workers, len(starts))
    if workers <= 1:
        for b in blocks():
            yield b[1], _scan_range(b)
    else:
        from multiprocessing import get_context
        ctx = get_context("fork")
        with ctx.Pool(workers) as pool:
            for b, outcome in zip(blocks(), pool.imap(_scan_range, blocks())):
                yield b[1], outcome


def scan_orders(start: int, stop: int, *, workers: int = 1,
                block_size: int = DEFAULT_BLOCK_SIZE) -> SweepOutcome:
    """Scan a whole order range and return the merged outcome.

    The result is a pure function of (start, stop): worker count and block
    size only change how the work is split, never what comes back.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    total = SweepOutcome()
    for _, outcome in _iter_block_outcomes(start, stop, workers, block_size):
        total.merge(outcome)
    return total


def _require_sound(outcome: SweepOutcome) -> None:
    # Odd / lower-bound violations cannot occur for correct formulas; any
    # appearance means the computation itself is broken, so fail loudly
    # rather than record them as findings.  A raise, not an assert, so the
    # check also runs under python -O.
    if outcome.odd_violations:
        raise SoundnessError(
            f"even order-sum recorded: {outcome.odd_violations[:3]}")
    if outcome.bound_violations:
        raise SoundnessError(
            f"order-sum below 2n-1 recorded: {outcome.bound_violations[:3]}")


def conjecture_sweep(start: int, stop: int,
                     checkpoint: SweepCheckpoint | None = None, *,
                     workers: int = 1,
                     checkpoint_path: str | None = None,
                     block_size: int = DEFAULT_BLOCK_SIZE) -> SweepCheckpoint:
    """Sweep [start, stop] recording collisions and divisibility hits.

    Continues the given checkpoint (or a fresh one) and returns it with
    max_done advanced to stop.  The requested start must not leave a gap
    above the checkpoint's watermark; orders already covered are skipped,
    never rescanned.  When checkpoint_path is set the file is rewritten
    after every block, so an interrupted sweep loses at most one block;
    when no block is left to scan it is written once, as it stands.
    """
    if start < 2:
        raise ValueError(f"start must be >= 2, got {start}")
    if stop < start:
        raise ValueError(f"need start <= stop, got [{start}, {stop}]")
    if checkpoint is None:
        checkpoint = SweepCheckpoint.fresh(start)
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version!r} is not supported")
    if start > checkpoint.max_done + 1:
        raise CheckpointError(
            f"gap between checkpoint (orders <= {checkpoint.max_done} done) "
            f"and requested start {start}")
    effective = max(start, checkpoint.max_done + 1)
    for block_end, outcome in _iter_block_outcomes(
            effective, stop, workers, block_size):
        _require_sound(outcome)
        checkpoint.collisions.extend(outcome.collisions)
        checkpoint.divisible_hits.extend(outcome.divisible_hits)
        checkpoint.max_done = block_end
        if checkpoint_path is not None:
            save_checkpoint(checkpoint, checkpoint_path)
    if checkpoint_path is not None and effective > stop:
        save_checkpoint(checkpoint, checkpoint_path)
    return checkpoint


def divisibility_search(max_order: int, *, workers: int = 1) -> list[DivisibleRecord]:
    """All types of order 2..max_order whose order-sum the order divides."""
    if max_order < 2:
        raise ValueError(f"max_order must be >= 2, got {max_order}")
    outcome = scan_orders(2, max_order, workers=workers)
    _require_sound(outcome)
    return outcome.divisible_hits


class ImageReport(FrozenRecord):
    """What the order-sum image over all orders <= max_order looks like."""

    __slots__ = ("max_order", "types_scanned", "values_up_to_3", "all_odd",
                 "bound_holds", "five_orders", "conclusive", "explanation")
    max_order: int
    types_scanned: int
    values_up_to_3: tuple[int, ...]
    all_odd: bool
    bound_holds: bool
    five_orders: tuple[int, ...]
    conclusive: bool
    explanation: str


def image_probe(max_order: int, *, workers: int = 1) -> ImageReport:
    """Check which small values the order-sum attains, 5 in particular.

    The verdict on 5 is conclusive once max_order >= 5: orders 1 to 3
    realize exactly the values {1, 3, 7}, and every group of order >= 4
    has order-sum at least 2*4 - 1 = 7, so no group of any order attains
    5 (or any other value missing from the scanned range below 7).
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    outcome = scan_orders(1, max_order, workers=workers)
    small = sorted({psi_abelian(t) for n in range(1, min(3, max_order) + 1)
                    for t in group_type_of_order(n)})
    all_odd = not outcome.odd_violations
    bound_holds = not outcome.bound_violations
    five_orders = tuple(outcome.five_orders)
    conclusive = (max_order >= 5 and all_odd and bound_holds
                  and not five_orders)
    if conclusive:
        explanation = (
            f"conclusive: orders 1..3 realize exactly {small}, every scanned "
            f"value up to order {max_order} is odd and >= 2*order-1, and any "
            "group of order >= 4 has order-sum >= 7, so the value 5 is never "
            "attained by any finite abelian group")
    elif five_orders:
        explanation = (
            f"value 5 attained at orders {sorted(set(five_orders))}; this "
            "contradicts the proved lower bound, so treat it as a defect")
    else:
        explanation = (
            f"inconclusive: scanned only up to order {max_order}; rerun with "
            "a bound of at least 5 for a conclusive verdict on the value 5")
    return ImageReport(
        max_order=max_order,
        types_scanned=outcome.types_scanned,
        values_up_to_3=tuple(small),
        all_odd=all_odd,
        bound_holds=bound_holds,
        five_orders=five_orders,
        conclusive=conclusive,
        explanation=explanation,
    )


class MonotonicityReport(FrozenRecord):
    """Order-sums along the partition chain of p^n, in enumeration order."""

    __slots__ = ("n", "p", "entries", "violations",
                 "first_matches_flat_formula", "last_matches_cyclic_formula")
    n: int
    p: int
    entries: tuple[tuple[Partition, int], ...]
    violations: tuple[tuple[Partition, Partition], ...]
    first_matches_flat_formula: bool
    last_matches_cyclic_formula: bool

    @property
    def strictly_increasing(self) -> bool:
        return not self.violations

    @property
    def ok(self) -> bool:
        return (self.strictly_increasing
                and self.first_matches_flat_formula
                and self.last_matches_cyclic_formula)


def monotonicity_check(n: int, p: int) -> MonotonicityReport:
    """Evaluate the order-sum along all p-group types of order p^n.

    In the partition enumeration order the values are expected to be
    strictly increasing, from the all-ones type (whose value the flat-type
    closed form gives) up to the single-part cyclic type (whose value the
    cyclic closed form gives).  A non-monotonic chain is reported, not
    assumed away; it is the cheapest whole-row cross-check the formulas
    have.  The entries are one psi_core.psi_chain call, which updates
    each value from the one before it along the partition walk and
    leaves the _psi_band_sum cache untouched; the two endpoint checks run
    the Corollary 2 closed forms, a route independent of the band sum.
    n must be an int (not a bool) and p a prime, or ValueError is raised
    before any work.
    """
    entries = tuple(psi_chain(p, n))
    violations = tuple(
        (a, b) for (a, va), (b, vb) in zip(entries, entries[1:]) if va >= vb)
    return MonotonicityReport(
        n=n,
        p=p,
        entries=entries,
        violations=violations,
        first_matches_flat_formula=entries[0][1] == psi_elem_abelian(p, n),
        last_matches_cyclic_formula=entries[-1][1] == psi_cyclic(p, n),
    )
