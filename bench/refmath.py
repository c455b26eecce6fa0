"""Reference arithmetic for the benchmark, independent of the ordersum package.

The benchmark checks the program's outputs and counts its work from
outside.  Whatever it compares against must not share code with the
library under test, so the few pieces it needs live here, written from
the definitions: a bytearray prime sieve, partition generation and
counting, factorization of an order window, and the order-sum of a
p-group by counting elements of each exact order.
"""

from functools import lru_cache
from math import isqrt, prod


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


@lru_cache(maxsize=None)
def partition_count(n: int, cap: int | None = None) -> int:
    """p(n), the number of partitions of n, by recursion on the largest part."""
    if cap is None or cap > n:
        cap = n
    if n == 0:
        return 1
    return sum(partition_count(n - first, first) for first in range(1, cap + 1))


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n as ascending part tuples (order unspecified)."""
    if cap is None or cap > n:
        cap = n
    if n == 0:
        return [()]
    out = []
    for first in range(1, cap + 1):
        out.extend(rest + (first,) for rest in partitions(n - first, first))
    return out


def factor_small(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n by trial division, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def factor_window(start: int, stop: int) -> list[list[tuple[int, int]]]:
    """Factorizations of every n in [start, stop], by sieving the window.

    Each prime up to isqrt(stop) is divided out of the multiples it hits
    inside the window; whatever remains above 1 is one more prime.
    """
    rest = list(range(start, stop + 1))
    found: list[list[tuple[int, int]]] = [[] for _ in rest]
    for p in primes_up_to(isqrt(stop)):
        first = -start % p
        for i in range(first, len(rest), p):
            e = 0
            while rest[i] % p == 0:
                rest[i] //= p
                e += 1
            found[i].append((p, e))
    for i, r in enumerate(rest):
        if r > 1:
            found[i].append((r, 1))
    return found


def types_of_factorization(pairs) -> int:
    """Number of abelian group types of an order with these prime exponents."""
    return prod(partition_count(e) for _, e in pairs)


@lru_cache(maxsize=None)
def psi_pgroup(p: int, parts: tuple[int, ...]) -> int:
    """Order-sum of Z_{p^a1} x ... x Z_{p^ak}, from the definition.

    The elements killed by p^alpha number p^{sum_i min(alpha, a_i)}, so
    exactly N(alpha) - N(alpha - 1) elements have order p^alpha.
    """
    total = 0
    below = 0
    for alpha in range(max(parts) + 1):
        killed = p ** sum(min(alpha, a) for a in parts)
        total += p ** alpha * (killed - below)
        below = killed
    return total


def psi_type(components) -> int:
    """Order-sum of a group given as (prime, parts) pairs; 1 for no pairs."""
    return prod(psi_pgroup(p, tuple(parts)) for p, parts in components)


def format_spec(components) -> str:
    """Spec text in the CLI grammar: 2^[1,2]*3, or 1 for the trivial group."""
    terms = []
    for p, parts in components:
        if tuple(parts) == (1,):
            terms.append(str(p))
        else:
            terms.append(f"{p}^[{','.join(str(a) for a in parts)}]")
    return "*".join(terms) if terms else "1"


def parse_decimal(text: str) -> int:
    """A non-negative decimal string of any length as an int.

    int() refuses strings over the interpreter's digit limit, which the
    benchmark must leave at its default; converting in chunks avoids it.
    """
    if not isinstance(text, str) or not text.isdigit() or not text.isascii():
        raise ValueError(f"not a decimal string: {str(text)[:40]!r}")
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value
