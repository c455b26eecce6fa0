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
    order (rare but real; the smallest has order 3887).

Every order-sum is odd and at least 2*order - 1, and orders 1..3 give
exactly 1, 3 and 7.  A value that breaks a proved fact means the formulas
are broken, not that something was found, so it raises SoundnessError, in
every sweep and under python -O alike: the scan kernel at the first even
value or value below 2*order - 1, image_probe after its scan at a value
other than 1, 3 and 7 at orders 1..3.

The scan kernel (_scan_range) sieves the order-sums, not the
factorizations.  Dividing each prime p up to the square root out of a
block's orders, it multiplies an order's common factor by psi(Z_p) where p
divides the order once, and adds (p, e) to the order's powerful part where
p^e exactly divides it with e >= 2; a cofactor left above 1 is a prime r
and adds psi(Z_r).  An order with no powerful part (61% of the orders in
1e6..2e6) has one type, and its value is its common factor.  An order with
one has a value per type: the common factor times each value psi_core's
type table (type_psis) gives for the powerful part, folded once per
pattern of the block.  Every per-prime value comes through psi_core, by
prime_psis or type_psis, and type_labels gives the spec texts, built only
for an order that keeps a record.  The per-prime values are cached only
for shapes of order p^2 or more, so the cache is bounded by the primes up
to the square root of the range.

Long sweeps persist progress in a small JSON checkpoint.  Checkpoints are
written atomically (temp file + rename), carry a format version that is
checked before anything else, and record the largest fully-scanned order,
so a resumed sweep continues exactly where the file says and the final
state is byte-identical to an uninterrupted run.  The range is split into
fixed blocks, and each block sieves its own orders over the primes up to
the square root of its last order, so memory is per block and does not
grow with the range.  With k > 1 workers the sweep forks k lanes, each
a process and a pipe that only it writes: lane j scans blocks j, j + k,
j + 2k, ... and sends each outcome, or its exception as a value, and the
parent reads block i from pipe i % k, so results come back in block order
and worker count never changes any output.  No lock, queue or thread is
shared.  A pipe that ends before its block raises WorkerError, naming the
block and the worker's exit code (-N for signal N); the blocks before it
are already in the checkpoint.  One worker scans in process and forks
nothing.

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
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from functools import lru_cache
from itertools import combinations, islice
from json.encoder import encode_basestring_ascii as _json_string
from math import isqrt

from ._record import FrozenRecord, MutableRecord
from .arith import factorize, smallest_prime_factors
from .partitions import Partition
from .psi_core import (
    parse_decimal,
    prime_psis,
    psi_chain,
    psi_cyclic,
    psi_elem_abelian,
    type_labels,
    type_psis,
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
    "WorkerError",
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
# Orders per block: one worker's unit of work, one checkpoint write.
BLOCK_SIZE = 1000


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


class WorkerError(RuntimeError):
    """A sweep worker died before it sent the outcome of its block.

    The message names the block's orders and the worker's exit code, -N
    where signal N killed it (-9: SIGKILL, as the kernel's out-of-memory
    killer sends).  Every block before it has been yielded, so a
    checkpointed sweep resumes from the block the worker died on.
    """


class SoundnessError(RuntimeError):
    """A sweep saw an order-sum that a proved fact rules out.

    Every order-sum is odd and at least 2 * order - 1, and orders 1..3 give
    exactly 1, 3 and 7, so a violation means the formulas themselves are
    broken, not that something was discovered.
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


@contextmanager
def write_text_atomic(path: str):
    """Write a file atomically, chunk by chunk: temp file, then rename.

        with write_text_atomic(path) as write:
            write(chunk)  # once per chunk, in order

    The one file writer: checkpoints and the command line's report files
    both go through it, so a text made in chunks is never held whole.
    The chunks go to PATH.PID.tmp, unique to the writing process, so
    nothing left at PATH.tmp is in its way; that file replaces PATH when
    the block ends.  An OSError in the block, or a failed open or rename,
    raises CheckpointError("cannot write PATH: reason").  Whatever ends
    the block early leaves no temp file behind and PATH as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh.write
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)


def save_checkpoint(checkpoint: SweepCheckpoint, path: str) -> None:
    """Write a checkpoint's JSON text atomically (write_text_atomic)."""
    with write_text_atomic(path) as write:
        write(json_text(checkpoint.to_json_obj()))


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
                 divisible_hits: list[DivisibleRecord] | None = None) -> None:
        self.types_scanned = types_scanned
        self.collisions = [] if collisions is None else collisions
        self.divisible_hits = [] if divisible_hits is None else divisible_hits

    def merge(self, other: "SweepOutcome") -> None:
        self.types_scanned += other.types_scanned
        self.collisions.extend(other.collisions)
        self.divisible_hits.extend(other.divisible_hits)


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


def _scan_range(bounds: tuple[int, int]) -> SweepOutcome:
    """Scan every order in [start, stop] for collisions and divisibility hits.

    A pure function of its bounds, so it is also a worker's task.  The sieve
    the module docstring describes leaves each order's residue, common
    factor and powerful part.  type_psis of a powerful part is taken once
    per pattern of the block, and nothing folded here outlives the call,
    so each call reads the per-prime values as they are when it runs.
    Every per-prime value comes from prime_psis or type_psis, so through
    psi_core._psi_prime_power.

    Labels, from type_labels of the order's factorization in the same
    order, are built only when the order keeps a record or breaks a proved
    fact.  The first value that is even or below 2n - 1, in (order, type
    index) order, raises SoundnessError naming (n, label, value); a raise,
    not an assert, so the check also runs under python -O, and in a worker
    it reaches the parent through the worker's pipe.
    """
    start, stop = bounds
    size = stop - start + 1
    residues = list(range(start, stop + 1))
    common = [1] * size
    powerful: list[tuple[tuple[int, int], ...]] = [()] * size
    primes = _primes_up_to(isqrt(stop))
    for p, psi in zip(primes, prime_psis(primes)):
        for i in range(-start % p, size, p):
            r = residues[i] // p
            if r % p:
                residues[i] = r
                common[i] *= psi
                continue
            e = 2
            r //= p
            while r % p == 0:
                r //= p
                e += 1
            residues[i] = r
            powerful[i] += ((p, e),)
    cofactors = iter(prime_psis([r for r in residues if r > 1]))
    patterns: dict[tuple, tuple[list[int], bool]] = {}
    out = SweepOutcome()
    types = 0
    for n, r, value, pattern in zip(range(start, stop + 1), residues, common,
                                    powerful):
        if r > 1:
            value *= next(cofactors)
        if not pattern:
            types += 1
            if value % 2 and value >= 2 * n - 1 and value % n:
                continue  # nothing to record
            values = [value]
        else:
            folded = patterns.get(pattern)
            if folded is None:
                base = type_psis(pattern)
                folded = patterns[pattern] = (base, len(set(base)) < len(base))
            values = [value * v for v in folded[0]]
            types += len(values)
            if not folded[1] and all(v % 2 and v >= 2 * n - 1 and v % n
                                     for v in values):
                continue
        _keep_records(n, values, out)
    out.types_scanned = types
    return out


def _keep_records(n: int, values: list[int], out: SweepOutcome) -> None:
    # Adds to `out` the records of order n, whose types have `values` in
    # type_labels order, in one pass: the first value that is even or below
    # 2n - 1 raises SoundnessError, a value n > 1 divides is a divisibility
    # hit, and types that share a value are grouped for the collisions.
    by_value: dict[int, list[str]] = {}
    for label, value in zip(type_labels(factorize(n)), values):
        if value % 2 == 0 or value < 2 * n - 1:
            rule = ("even order-sum" if value % 2 == 0
                    else "order-sum below 2n-1")
            raise SoundnessError(f"{rule} recorded: {[(n, label, value)]}")
        if n > 1 and value % n == 0:
            out.divisible_hits.append(
                DivisibleRecord(n, label, value, value // n))
        by_value.setdefault(value, []).append(label)
    for value, group in by_value.items():
        for a, b in combinations(group, 2):
            out.collisions.append(CollisionRecord(n, a, b, value))


def _lane(blocks, readers, writer) -> None:
    # One forked worker: scans its blocks in order and sends each outcome,
    # or the exception that stops it, down the pipe only it writes.  It
    # first closes the read ends it inherited, its own among them, so that
    # once the parent is gone a send fails instead of blocking for good.
    for reader in readers:
        reader.close()
    with suppress(BrokenPipeError):  # the parent is gone: nothing to do
        try:
            for bounds in blocks:
                writer.send(_scan_range(bounds))
        except Exception as exc:
            writer.send(exc)


def _iter_block_outcomes(start: int, stop: int, workers: int):
    """Yield (last_order_of_block, SweepOutcome) in ascending block order.

    With k > 1 workers, lane j (a forked process and the pipe only it
    writes) scans blocks j, j + k, j + 2k, ..., so block i is read from
    pipe i % k.  A block's exception is raised here as the worker sent
    it.  A pipe that ends before its block raises WorkerError, naming
    the block and the worker's exit code, -N for a kill by signal N.
    However the generator ends, every lane is killed, joined and closed.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Blocks are made as they are scanned, so memory does not grow with
    # the number of blocks.
    starts = range(start, stop + 1, BLOCK_SIZE)

    def blocks():
        return ((a, min(a + BLOCK_SIZE - 1, stop)) for a in starts)

    # A worker beyond one per block would have nothing to scan.
    workers = min(workers, len(starts))
    if workers <= 1:
        yield from ((b[1], _scan_range(b)) for b in blocks())
        return
    from multiprocessing import get_context
    ctx = get_context("fork")
    readers, processes = [], []
    try:
        for first in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            process = ctx.Process(target=_lane, daemon=True, args=(
                islice(blocks(), first, None, workers), readers, writer))
            process.start()
            processes.append(process)
            writer.close()
        for i, b in enumerate(blocks()):
            try:
                outcome = readers[i % workers].recv()
            except EOFError:
                died = processes[i % workers]
                died.join()
                raise WorkerError(f"worker died on orders {b[0]}..{b[1]} "
                                  f"(exit code {died.exitcode})") from None
            if isinstance(outcome, Exception):
                raise outcome
            yield b[1], outcome
    finally:
        for process, reader in zip(processes, readers):
            process.kill()
            process.join()
            reader.close()


def scan_orders(start: int, stop: int, *, workers: int = 1) -> SweepOutcome:
    """Scan a whole order range and return the merged outcome.

    The result is a pure function of (start, stop): worker count and block
    size only change how the work is split, never what comes back.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    total = SweepOutcome()
    for _, outcome in _iter_block_outcomes(start, stop, workers):
        total.merge(outcome)
    return total


def conjecture_sweep(start: int, stop: int,
                     checkpoint: SweepCheckpoint | None = None, *,
                     workers: int = 1,
                     checkpoint_path: str | None = None) -> SweepCheckpoint:
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
    effective = checkpoint.max_done + 1
    for block_end, outcome in _iter_block_outcomes(effective, stop, workers):
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
    return scan_orders(2, max_order, workers=workers).divisible_hits


class ImageReport(FrozenRecord):
    """What the order-sum image over all orders <= max_order looks like."""

    __slots__ = ("max_order", "types_scanned", "values_up_to_3", "conclusive",
                 "explanation")
    max_order: int
    types_scanned: int
    values_up_to_3: tuple[int, ...]
    conclusive: bool
    explanation: str


def image_probe(max_order: int, *, workers: int = 1) -> ImageReport:
    """Check which small values the order-sum attains, 5 in particular.

    The verdict on 5 is conclusive once max_order >= 5: orders 1 to 3
    realize exactly the values {1, 3, 7}, and every group of order >= 4
    has order-sum at least 2*4 - 1 = 7, so no group of any order attains
    5 (or any other value missing from the scanned range below 7).

    A report exists only if the scan saw no value that breaks a proved
    fact.  The scan raises SoundnessError at a value that is even or below
    2*order - 1; after it, a value other than 1, 3 and 7 at orders 1..3
    raises SoundnessError in the same form, naming (order, label, value).
    Checked after the scan, it leaves the kernel's messages to the values
    they cover.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    outcome = scan_orders(1, max_order, workers=workers)
    values = []
    for n in range(1, min(3, max_order) + 1):
        factorization = factorize(n)  # squarefree: one type, Z_n
        (value,) = type_psis(factorization)
        if value != n * n - n + 1:
            raise SoundnessError(
                "order-sum other than 1, 3, 7 at orders 1..3 recorded: "
                f"{[(n, *type_labels(factorization), value)]}")
        values.append(value)
    conclusive = max_order >= 5
    if conclusive:
        explanation = (
            f"conclusive: orders 1..3 realize exactly {values}, every scanned "
            f"value up to order {max_order} is odd and >= 2*order-1, and any "
            "group of order >= 4 has order-sum >= 7, so the value 5 is never "
            "attained by any finite abelian group")
    else:
        explanation = (
            f"inconclusive: scanned only up to order {max_order}; rerun with "
            "a bound of at least 5 for a conclusive verdict on the value 5")
    return ImageReport(
        max_order=max_order,
        types_scanned=outcome.types_scanned,
        values_up_to_3=tuple(values),
        conclusive=conclusive,
        explanation=explanation,
    )


class MonotonicityReport(FrozenRecord):
    """Order-sums along the partition chain of p^n, in enumeration order.

    types counts the chain's entries; psi_chain(p, n) gives the entries.
    """

    __slots__ = ("n", "p", "types", "violations",
                 "first_matches_flat_formula", "last_matches_cyclic_formula")
    n: int
    p: int
    types: int
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


def monotonicity_check(n: int, p: int,
                       entries: Iterable[tuple[Partition, int]] | None = None
                       ) -> MonotonicityReport:
    """Fold the order-sums of all p-group types of order p^n into a report.

    In the partition enumeration order the values are expected to be
    strictly increasing, from the all-ones type (whose value the flat-type
    closed form gives) up to the single-part cyclic type (whose value the
    cyclic closed form gives).  A non-monotonic chain is reported, not
    assumed away; it is the cheapest whole-row cross-check the formulas
    have.  entries is the chain, psi_core.psi_chain(p, n) unless a caller
    hands in that chain wrapped (the command line writes each entry's
    JSON text as it passes).  It is read once, one entry at a time: the
    fold keeps the count, the previous entry and the violations, so
    memory does not grow with the chain.  The two endpoint checks run the
    Corollary 2 closed forms, a route independent of the chain's.  n must
    be an int (not a bool) and p a prime, or psi_chain raises ValueError
    before any work.
    """
    if entries is None:
        entries = psi_chain(p, n)
    entries = iter(entries)
    before, first = next(entries)
    last, types, violations = first, 1, []
    for shape, value in entries:
        if last >= value:
            violations.append((before, shape))
        before, last = shape, value
        types += 1
    return MonotonicityReport(
        n=n,
        p=p,
        types=types,
        violations=tuple(violations),
        first_matches_flat_formula=first == psi_elem_abelian(p, n),
        last_matches_cyclic_formula=last == psi_cyclic(p, n),
    )
