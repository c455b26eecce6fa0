"""Integer partitions in the fixed enumeration order used across the library.

A partition of n is stored canonically as a tuple of parts in ascending
order, e.g. (1, 1, 2) for n = 4.  The enumeration order is defined by
embedding every partition of n as its zero-padded *descending* tuple of
length n and comparing those tuples lexicographically:

    (1,1,1,1) -> (1,1,1,1)
    (1,1,2)   -> (2,1,1,0)
    (2,2)     -> (2,2,0,0)
    (1,3)     -> (3,1,0,0)
    (4,)      -> (4,0,0,0)

so for n = 4 the order runs (1,1,1,1) < (1,1,2) < (2,2) < (1,3) < (4,).
The all-ones partition is always first and the single part (n,) is always
last.  The step-by-step and padded-tuple references of the order, which
the walk is tested against, live beside the tests, in tests/support.py.

There is one walk of that order, the private generator _walk: it takes
each step in place on one mutable descending list (grow the last part
that can grow, refill the tail with ones) and yields the list with the
position it grew, so no padded tuple is built.  It has two consumers.
iter_partitions turns each list into a Partition, without running the
validating constructor on parts the walk made ascending integers.
psi_core._chain_steps reads the grown position to update the order-sum of
each partition from the one before it.  Its readers give each shape as a
Partition (psi_chain) or as its text (psi_chain_texts, the command line's
route), which keeps one text per position and rewrites only the grown
one, so no tuple is reversed and no shape joined.
"""

from collections.abc import Iterator

from ._record import FrozenRecord

__all__ = [
    "Partition",
    "iter_partitions",
    "partitions_of",
]


class Partition(FrozenRecord):
    """An integer partition; parts ascending, every part >= 1."""

    parts: tuple[int, ...]

    def _check(self) -> None:
        parts = self.parts
        if not parts:
            raise ValueError("a partition needs at least one part")
        prev = 1
        for a in parts:
            if isinstance(a, bool) or not isinstance(a, int) or a < prev:
                raise ValueError(
                    f"parts must be ascending integers >= 1, got {parts!r}"
                )
            prev = a

    @property
    def n(self) -> int:
        """The partitioned integer: sum of the parts."""
        return sum(self.parts)

    @property
    def k(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.parts)) + "]"


def _walk(n: int) -> Iterator[tuple[list[int], int | None]]:
    """Yield (desc, j) for every partition of n in the enumeration order.

    desc is the partition's descending parts, one list changed in place
    between steps, so a consumer reads it before asking for the next.  j
    is the position the step grew, None at the all-ones start.  The step:
    grow the last part that is smaller than the part before it (or is the
    first part) and has at least one part after it.  Add one to that part,
    take the unit from the parts after it, and write what is left of them
    as ones.  The walk ends at (n,), where no such part is left.  The step
    keeps the count of the ones it wrote: where there are two or more, the
    part to grow is the first of them, found without a scan; else it scans
    back from the end, over parts of 2 or more.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    desc = [1] * n
    ones = n  # the trailing ones of desc
    yield desc, None
    while True:
        if ones > 1:
            j = len(desc) - ones
            a, suffix = 1, ones
        else:
            suffix = desc[-1]
            for j in range(len(desc) - 2, -1, -1):
                a = desc[j]
                suffix += a
                if j == 0 or desc[j - 1] > a:
                    break
            else:
                return
        desc[j] = a + 1
        ones = suffix - a - 1
        desc[j + 1:] = [1] * ones
        yield desc, j


def iter_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n in the enumeration order, lazily."""
    unchecked = Partition._unchecked
    for desc, _ in _walk(n):
        yield unchecked(tuple(desc[::-1]))


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in the enumeration order."""
    return list(iter_partitions(n))
