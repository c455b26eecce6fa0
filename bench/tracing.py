"""Span tracing of the ordersum layers, installed from outside the package.

install() rebinds every name that one ordersum module imports from
another (analysis.smallest_prime_factors, cli.psi_relative, ...) to a
wrapper that records a span and calls the original.  Two same-module
names that carry layer work are wrapped too: psi_core._psi_prime_power,
so psi_p and psi_abelian are seen, and analysis.save_checkpoint, which
conjecture_sweep calls per block.  The lru_cache of _psi_prime_power
stays behind the wrapper, so a cache hit is a short span.

A span is (name, start ns, end ns, parent span, op id), kept in int64
arrays and written out once, when the run ends.  Counters that need a
call's arguments or result (sieve entries, psi keys, enumerated
elements) are taken at the same boundary.
"""

import json
import os
from array import array
from collections import Counter
from functools import wraps
from importlib import import_module
from math import prod
from time import perf_counter_ns

MODULES = ("arith", "partitions", "psi_core", "polynomial", "oracle",
           "analysis", "cli")
SAME_MODULE = (("psi_core", "_psi_prime_power"), ("analysis", "save_checkpoint"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.seen_psi: set = set()
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop spans and counters so far (the warm-up); keep seen psi keys."""
        self.start, self.end = array("q"), array("q")
        self.name, self.parent, self.ops = array("q"), array("q"), array("q")
        self.counts.clear()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.ops.append(self.op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        nid = self.name_id(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def layer_times(self) -> tuple[dict, dict]:
        """Total and self nanoseconds per span name."""
        child = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        total: Counter = Counter()
        own: Counter = Counter()
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            total[self.names[nid]] += dur
            own[self.names[nid]] += dur - child[i]
        return total, own

    def span_counts(self) -> Counter:
        return Counter(self.names[nid] for nid in self.name)

    def write(self, stem: str) -> None:
        """Spans as five raw int64 columns, one after another, plus a header."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        with open(stem + ".spans", "wb") as fh:
            for column in (self.name, self.start, self.end, self.parent, self.ops):
                column.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "dtype": "int64", "names": self.names,
                       "spans": len(self.start)}, fh, indent=1)


def _count_sieve(t, args, result):
    t.counts["sieve_entries"] += args[0] + 1


def _count_partitions(t, args, result):
    t.counts["partitions_yielded"] += len(result)


def _count_psi(t, args, result):
    t.counts["psi_calls"] += 1
    if args in t.seen_psi:
        t.counts["psi_repeats"] += 1
    else:
        t.seen_psi.add(args)


def _count_symbolic(t, args, result):
    t.counts["coeffs_built"] += len(result.coeffs)


def _count_closed_form(t, args, result):
    t.counts["coeffs_built"] += len(result.direct.coeffs) + sum(
        len(c.closed.coeffs) + len(c.residual.coeffs) for c in result.checks)


def _count_bruteforce(t, args, result):
    t.counts["bruteforce_elements"] += prod(args[0])


def _count_closure(t, args, result):
    t.counts["subgroup_elements"] += len(result)


def _count_relative(t, args, result):
    t.counts["relative_additions"] += result - prod(args[0])


def _count_checkpoint(t, args, result):
    t.counts["checkpoint_bytes"] += os.path.getsize(args[1])


COUNTERS = {
    "arith.smallest_prime_factors": _count_sieve,
    "partitions.partitions_of": _count_partitions,
    "psi_core._psi_prime_power": _count_psi,
    "polynomial.psi_symbolic": _count_symbolic,
    "polynomial.verify_closed_form": _count_closed_form,
    "oracle.psi_bruteforce": _count_bruteforce,
    "oracle.subgroup_closure": _count_closure,
    "oracle.psi_relative": _count_relative,
    "analysis.save_checkpoint": _count_checkpoint,
}


def install(tracer: Tracer):
    """Rebind cross-module names on every ordersum module to traced wrappers.

    Returns a function that puts the original names back.
    """
    mods = {m: import_module(f"ordersum.{m}") for m in MODULES}
    wrapped: dict[int, object] = {}
    originals: list[tuple[object, str, object]] = []

    def traced(obj, home: str):
        if id(obj) not in wrapped:
            name = f"{home}.{obj.__name__}"
            wrapped[id(obj)] = tracer.wrap(name, obj, COUNTERS.get(name))
        return wrapped[id(obj)]

    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            home = getattr(obj, "__module__", "") or ""
            if (callable(obj) and not isinstance(obj, type)
                    and home.startswith("ordersum.") and home != mod.__name__):
                originals.append((mod, attr, obj))
                setattr(mod, attr, traced(obj, home.split(".", 1)[1]))
    for short, attr in SAME_MODULE:
        obj = getattr(mods[short], attr)
        originals.append((mods[short], attr, obj))
        setattr(mods[short], attr, traced(obj, short))

    def uninstall() -> None:
        for mod, attr, obj in originals:
            setattr(mod, attr, obj)
    return uninstall
