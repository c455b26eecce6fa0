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
last.  lex_successor and lex_compare define the order on Partition values,
one step at a time, and stay as the reference.

There is one walk of that order, the private generator _walk: it takes
the lex_successor step in place on one mutable descending list (grow the
last part that can grow, refill the tail with ones) and yields the list
with the position it grew, so no padded tuple is built.  It has two
consumers.  iter_partitions turns each list into a Partition, without
running the validating constructor on parts the walk made ascending
integers.  psi_core.psi_chain reads the grown position to update the
order-sum of each partition from the one before it.
"""

from collections.abc import Iterator

from ._record import FrozenRecord

__all__ = [
    "Partition",
    "from_padded_tuple",
    "iter_partitions",
    "lex_compare",
    "lex_successor",
    "partitions_of",
    "to_padded_tuple",
]


class Partition(FrozenRecord):
    """An integer partition; parts ascending, every part >= 1."""

    __slots__ = ("parts",)
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
        return "[" + ",".join(str(a) for a in self.parts) + "]"


def to_padded_tuple(partition: Partition) -> tuple[int, ...]:
    """Embed a partition of n as its descending tuple zero-padded to length n."""
    desc = tuple(sorted(partition.parts, reverse=True))
    return desc + (0,) * (partition.n - len(desc))


def from_padded_tuple(padded: tuple[int, ...]) -> Partition:
    """Inverse of to_padded_tuple: strip zeros, reverse to ascending parts."""
    parts = [a for a in padded if a != 0]
    if not parts:
        raise ValueError("padded tuple has no nonzero parts")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"padded tuple must be descending, got {padded!r}")
    if sum(parts) != len(padded):
        raise ValueError(
            f"padded tuple {padded!r} has length {len(padded)}, expected {sum(parts)}"
        )
    return Partition(tuple(reversed(parts)))


def lex_compare(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Compare two equal-length padded tuples; returns -1, 0 or 1.

    The first differing position decides.  The comparison is written out
    position by position rather than relying on builtin tuple ordering, so
    the order definition is spelled out in one place.
    """
    if len(a) != len(b):
        raise ValueError(
            f"cannot compare padded tuples of lengths {len(a)} and {len(b)}")
    for x, y in zip(a, b):
        if x < y:
            return -1
        if x > y:
            return 1
    return 0


def lex_successor(partition: Partition) -> Partition | None:
    """Next partition of the same n in the enumeration order, or None at (n,).

    Working on the descending form (a_1 >= a_2 >= ...), find the last
    position j whose entry can grow: a_j + 1 must not exceed the entry
    before it, and the suffix from j must have enough mass left to cover
    the increment.  Increase a_j by one and flatten everything after it
    into ones.  This is the reference definition of the step; _walk takes
    the same step in place.
    """
    desc = [a for a in to_padded_tuple(partition) if a != 0]
    for j in range(len(desc) - 1, -1, -1):
        cap = desc[j - 1] if j > 0 else partition.n
        suffix = sum(desc[j:])
        if desc[j] + 1 <= cap and desc[j] + 1 <= suffix:
            head = desc[:j] + [desc[j] + 1]
            rest = suffix - desc[j] - 1
            return Partition(tuple(sorted(head)) if rest == 0
                             else tuple(sorted(head + [1] * rest)))
    return None


def _walk(n: int) -> Iterator[tuple[list[int], int | None]]:
    """Yield (desc, j) for every partition of n in the enumeration order.

    desc is the partition's descending parts, one list changed in place
    between steps, so a consumer reads it before asking for the next.  j
    is the position the step grew, None at the all-ones start.  The step
    is lex_successor's: scan back from the end for the last part that is
    smaller than the part before it and has at least one part after it,
    add one to it, and refill the tail with ones.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    desc = [1] * n
    yield desc, None
    while True:
        suffix = desc[-1]
        for j in range(len(desc) - 2, -1, -1):
            a = desc[j]
            suffix += a
            if j == 0 or desc[j - 1] > a:
                break
        else:
            return
        desc[j] = a + 1
        desc[j + 1:] = [1] * (suffix - a - 1)
        yield desc, j


def iter_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n in the enumeration order, lazily."""
    unchecked = Partition._unchecked
    for desc, _ in _walk(n):
        yield unchecked(tuple(desc[::-1]))


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in the enumeration order."""
    return list(iter_partitions(n))
