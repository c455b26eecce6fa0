"""What a sweep keeps and reports: records, checkpoints, JSON text, errors.

The sweep engine (analysis) and the command line share this module, so
the command line writes its output, reads and writes checkpoints, and
maps every sweep error to its exit code without importing the engine.
It holds the two found records (CollisionRecord, DivisibleRecord), the
checkpoint (SweepCheckpoint) with its codec and its file functions
(save_checkpoint, load_checkpoint), the one JSON text (json_text) and the
one file writer (write_text_atomic), and the three errors a sweep raises
(CheckpointError, SoundnessError, WorkerError).

Checkpoints are written atomically (temp file + rename), carry a format
version that is checked before anything else, and record the largest
fully-scanned order, so a resumed sweep continues exactly where the file
says and the final state is byte-identical to an uninterrupted run.

One codec reads and writes every object in a checkpoint, the root and
each found record, by one rule: an object holds exactly its class's
annotated fields, each of exactly its annotated type, with the order-sums
as decimal strings (DECIMAL_FIELDS).  _write_json writes by that rule and
_read_json reads by it.  The reader then checks that every record
describes an order the file says was scanned (2..max_done), that a hit's
psi is its order times its quotient, and that a collision names two
different groups.  Any defect raises CheckpointError, which names where in the file
it was found (divisible_hits[0], ...) and shows at most the first 20
characters of a value read from it.
"""

import os
import sys
from _json import encode_basestring_ascii as _json_string
from contextlib import contextmanager
from math import isfinite

from ._record import FrozenRecord, MutableRecord
from .psi_core import parse_decimal

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CollisionRecord",
    "DivisibleRecord",
    "SoundnessError",
    "SweepCheckpoint",
    "WorkerError",
    "json_text",
    "load_checkpoint",
    "save_checkpoint",
    "write_text_atomic",
]

CHECKPOINT_VERSION = 1


class CollisionRecord(FrozenRecord):
    """Two distinct types of the same order with the same order-sum."""

    order: int
    group_a: str
    group_b: str
    psi: int


class DivisibleRecord(FrozenRecord):
    """A type whose order-sum is an exact multiple of the group order."""

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

_JSON_WORDS = {None: "null", True: "true", False: "false"}


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


def _write_json(value, kind):
    """`value` of annotated type `kind` as _read_json reads it back.

    int and str are written as they are, list[R] item by item, and a
    record class R as an object of exactly R's annotated fields, with the
    DECIMAL_FIELDS as decimal strings.
    """
    if kind is int or kind is str:
        return value
    if getattr(kind, "__origin__", None) is list:
        return [_write_json(item, kind.__args__[0]) for item in value]
    return {name: str(getattr(value, name)) if name in DECIMAL_FIELDS
            else _write_json(getattr(value, name), field_kind)
            for name, field_kind in kind.__annotations__.items()}


def _read_json(value, kind, where: str):
    """A value decoded from a checkpoint file as `kind`, else CheckpointError.

    The inverse of _write_json.  `kind` is a field's annotated type: int,
    str, list[R], or a class R whose annotations are its fields (a
    FrozenRecord, or SweepCheckpoint at the root).  R's value must be an
    object holding exactly those fields, and R is built from them by
    keyword.  Types match exactly, so true is not an integer; the
    DECIMAL_FIELDS are decimal strings, read by parse_decimal.  `where`
    names the value in the file for the error: root, max_done,
    divisible_hits[0].psi, ...
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
        return _write_json(self, SweepCheckpoint)

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
    containers by _json_chunks, strings and keys by the C string encoder
    that json.encoder uses (_json's), and ints, finite floats, true, false
    and null as json.dumps writes them.  Any other value (a subclass, a
    float that is not finite, a type JSON has no form for) goes to
    json.dumps itself.  So a command imports the json package only to read
    a checkpoint: that import compiles json's regular expressions, about
    2.5 ms of a fresh call.
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
    elif value is None or type(value) is bool:
        out.append(_JSON_WORDS[value])
    elif type(value) is int or type(value) is float and isfinite(value):
        out.append(repr(value))
    else:
        import json
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
    import json
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
