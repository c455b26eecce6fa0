"""Order-sums of finite abelian groups, computed exactly from their type.

For a finite abelian group G, psi(G) is the sum over all elements of G of
the order of the element.  Every finite abelian group decomposes as a
direct product of p-groups, one per prime dividing its order, and psi is
multiplicative across coprime factors, so the whole computation reduces to
prime-power types.

A p-group type is a prime p together with a partition (a_1 <= ... <= a_k):
the group Z_{p^{a_1}} x ... x Z_{p^{a_k}}.  For such a group the number of
elements of order dividing p^t is p^{sum_i min(t, a_i)}, and psi is one
large power of p minus a weighted tail:

    psi = p^D - (p - 1) * sum_{alpha=0}^{a_k - 1} p^{2 alpha} f(alpha),

with D = 2 a_k + a_1 + ... + a_{k-1} and f as in f_eval.  On each band
a_j <= alpha < a_{j+1} (a_0 = 0) the tail exponent is linear in alpha,
(k + 1 - j) alpha + a_1 + ... + a_j, so the band contributes one
geometric sum.  band_schedule lists the bands, and every production route
(_psi_prime_power here, psi_symbolic in the polynomial module) is built
from that one list: psi costs O(k) big-int powers whatever the size of
the parts.  psi_p_alt keeps the literal per-alpha sum as an independent
reference.  Only integer arithmetic is used; every division performed by
the closed forms below is provably exact and is checked at runtime.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import prod

from .arith import exact_div, factorize, is_prime
from .partitions import Partition, partitions_of

__all__ = [
    "AbelianGroupType",
    "GroupSpecError",
    "PGroupType",
    "band_schedule",
    "component_moduli",
    "f_eval",
    "format_group_spec",
    "group_type_of_order",
    "iter_type_components",
    "parse_group_spec",
    "psi_abelian",
    "psi_cyclic",
    "psi_elem_abelian",
    "psi_near_elem",
    "psi_p",
    "psi_p_alt",
    "psi_rank2",
    "psi_rank3",
]


@dataclass(frozen=True, slots=True)
class PGroupType:
    """Type of a finite abelian p-group: a prime and a partition.

    shape (a_1 <= ... <= a_k) stands for Z_{p^{a_1}} x ... x Z_{p^{a_k}}.
    """

    p: int
    shape: Partition

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p ** self.shape.n


@dataclass(frozen=True, slots=True)
class AbelianGroupType:
    """Type of a finite abelian group: p-group components, primes increasing.

    The trivial group is the empty product, components == ().
    """

    components: tuple[PGroupType, ...]

    def __post_init__(self) -> None:
        primes = [c.p for c in self.components]
        if any(primes[i] >= primes[i + 1] for i in range(len(primes) - 1)):
            raise ValueError(f"component primes must be strictly increasing: {primes}")

    @property
    def order(self) -> int:
        return prod(c.order for c in self.components)


def f_eval(shape: Partition, p: int, alpha: int) -> int:
    """Solution count of p^alpha * x = 0 in type (p, shape), reduced.

    Componentwise, the cyclic factor Z_{p^{a_i}} contributes
    p^{min(alpha, a_i)} solutions, so the full count is p to the sum of
    those minima.  This function returns that count divided by
    p^{min(alpha, a_k)}, the largest part's contribution; the quotient is
    what the order-sum recurrence consumes, and it is constant once alpha
    reaches the second-largest part.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    parts = shape.parts
    return p ** (sum(min(alpha, a) for a in parts) - min(alpha, parts[-1]))


def band_schedule(
        parts: tuple[int, ...]) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Exponent schedule of the order-sum of the p-group with ascending parts.

    Returns (D, bands).  D = 2 a_k + a_1 + ... + a_{k-1} is the degree of
    the leading power p^D.  Each band (lo, length, slope, offset) covers
    a_j <= alpha < a_{j+1} (a_0 = 0; empty bands of repeated parts are
    left out): lo = a_j, length = a_{j+1} - a_j, slope = k + 1 - j and
    offset = a_1 + ... + a_j, so the tail term p^{2 alpha} f(alpha) is
    p^{slope * alpha + offset} there.  The bands cover 0 <= alpha < a_k
    in order, and the tail exponents rise by at least 2 per step of alpha.
    """
    k = len(parts)
    bands = [(lo, a - lo, k + 1 - j, offset) for j, (lo, a, offset)
             in enumerate(zip((0,) + parts, parts, accumulate(parts, initial=0)))
             if a > lo]
    return parts[-1] + sum(parts), bands


@lru_cache(maxsize=None)
def _psi_prime_power(p: int, parts: tuple[int, ...]) -> int:
    """psi for the p-group with ascending part tuple `parts`.

    The band sum p^D - (p - 1) * sum over bands of
    p^{slope * lo + offset} (p^{slope * length} - 1) / (p^slope - 1),
    with the bands of band_schedule.  Each geometric-sum division is exact
    (x^s - 1 divides x^{s m} - 1) and is checked by exact_div.
    """
    degree, bands = band_schedule(parts)
    tail = sum(p ** (slope * lo + offset)
               * exact_div(p ** (slope * length) - 1, p ** slope - 1)
               for lo, length, slope, offset in bands)
    return p ** degree - (p - 1) * tail


def psi_p(group: PGroupType) -> int:
    """Sum of element orders of a finite abelian p-group."""
    return _psi_prime_power(group.p, group.shape.parts)


def psi_p_alt(group: PGroupType) -> int:
    """Same value as psi_p via the subtraction form.

    Writes psi as p^{2 a_k + a_{k-1} + ... + a_1} minus
    (p - 1) * sum_{alpha=0}^{a_k - 1} p^{2 alpha} f(alpha), term by term.
    Division-free and independent of band_schedule: the per-alpha
    reference the band-sum routes are checked against.
    """
    p = group.p
    parts = group.shape.parts
    a_k = parts[-1]
    degree = 2 * a_k + sum(parts[:-1])
    tail = sum(p ** (2 * alpha) * f_eval(group.shape, p, alpha)
               for alpha in range(a_k))
    return p ** degree - (p - 1) * tail


def psi_cyclic(p: int, n: int) -> int:
    """psi of the cyclic group of order p^n: (p^{2n+1} + 1) / (p + 1).

    Exact: p^{2n+1} == -1 mod p+1 since the exponent is odd.
    """
    _check_prime_exponent(p, n, minimum=1)
    return exact_div(p ** (2 * n + 1) + 1, p + 1)


def psi_elem_abelian(p: int, n: int) -> int:
    """psi of Z_p x ... x Z_p (n factors): p^{n+1} - p + 1."""
    _check_prime_exponent(p, n, minimum=1)
    return p ** (n + 1) - p + 1


def psi_near_elem(p: int, n: int) -> int:
    """psi of Z_{p^2} x Z_p^{n-2} for n >= 2.

    Shape (1, ..., 1, 2) of total n: p^{n+2} - p^{n+1} + p^n - p + 1.
    """
    _check_prime_exponent(p, n, minimum=2)
    return p ** (n + 2) - p ** (n + 1) + p ** n - p + 1


def psi_rank2(p: int, a1: int, a2: int) -> int:
    """psi of Z_{p^{a1}} x Z_{p^{a2}} with 1 <= a1 <= a2.

    Single fraction with denominator (p + 1)(p^2 + p + 1); the numerator
    is divisible because p^3 == 1 mod p^2 + p + 1 and the exponents of the
    four leading terms cover all residues mod the relevant factors.
    """
    _check_prime_exponent(p, a1, minimum=1)
    if a2 < a1:
        raise ValueError(f"need a1 <= a2, got a1={a1}, a2={a2}")
    num = (p ** (2 * a2 + a1 + 3) + p ** (2 * a2 + a1 + 2)
           + p ** (2 * a2 + a1 + 1) + p ** (3 * a1 + 2) + p + 1)
    return exact_div(num, (p + 1) * (p * p + p + 1))


def psi_rank3(p: int, a1: int, a2: int, a3: int) -> int:
    """psi of Z_{p^{a1}} x Z_{p^{a2}} x Z_{p^{a3}} with 1 <= a1 <= a2 <= a3.

    Three exactly-divisible fractions: the first pairs terms of odd
    exponent gap mod p + 1, the second uses p^3 == 1 mod p^2 + p + 1, the
    third is a difference of fourth powers over x^3 + x^2 + x + 1 in p.
    """
    _check_prime_exponent(p, a1, minimum=1)
    if not a1 <= a2 <= a3:
        raise ValueError(f"need a1 <= a2 <= a3, got {a1}, {a2}, {a3}")
    t1 = exact_div(p ** (2 * a3 + a2 + a1 + 1) + p ** (3 * a2 + a1 + 2), p + 1)
    t2 = exact_div(p ** (3 * a2 + a1 + 3) - p ** (4 * a1 + 3),
                   p * p + p + 1)
    t3 = exact_div(p ** (4 * a1 + 4) - 1,
                   p ** 3 + p ** 2 + p + 1)
    return t1 - t2 - t3


def _check_prime_exponent(p: int, n: int, *, minimum: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < minimum:
        raise ValueError(f"exponent must be >= {minimum}, got {n}")


def psi_abelian(group: AbelianGroupType) -> int:
    """Sum of element orders of any finite abelian group, from its type.

    Multiplicative over the coprime components; the trivial group gives 1.
    """
    return prod(_psi_prime_power(c.p, c.shape.parts) for c in group.components)


def component_moduli(group: AbelianGroupType) -> tuple[int, ...]:
    """Cyclic factor moduli of the group, e.g. 2^[1,2] * 3 -> (2, 4, 3)."""
    return tuple(c.p ** a for c in group.components for a in c.shape.parts)


@lru_cache(maxsize=None)
def _shapes_of(e: int) -> tuple[tuple[int, ...], ...]:
    """Part tuples of every partition of e, in enumeration order."""
    return tuple(s.parts for s in partitions_of(e))


def iter_type_components(factorization):
    """Yield every abelian type of one order as ((p, parts), ...) tuples.

    `factorization` is the order's (prime, exponent) pairs, primes
    increasing; the empty factorization yields the trivial type ().  One
    type per choice of partition of each exponent, ordered by the
    partition enumeration order applied to each prime in turn (the last
    prime varies fastest).
    """
    return product(*[[(p, parts) for parts in _shapes_of(e)]
                     for p, e in factorization])


def group_type_of_order(n: int) -> list[AbelianGroupType]:
    """All abelian group types of order n, in iter_type_components order."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    factorization = factorize(n)
    components = {(p, parts): PGroupType(p, Partition(parts))
                  for p, e in factorization for parts in _shapes_of(e)}
    return [AbelianGroupType(tuple(components[c] for c in combo))
            for combo in iter_type_components(factorization)]


# group spec grammar
#
#   GROUP := "1" | TERM ("*" TERM)*
#   TERM  := PRIME | PRIME "^" "[" INT ("," INT)* "]"
#
# No whitespace anywhere.  Primes strictly increasing left to right,
# exponents inside a bracket non-decreasing and >= 1.  A bare PRIME means
# the single cyclic factor p^[1].


class GroupSpecError(ValueError):
    """Rejected group spec text; `offset` is the byte position at fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.reason = message


def _read_int(text: str, pos: int, what: str) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        found = repr(text[start]) if start < len(text) else "end of input"
        raise GroupSpecError(f"expected {what}, found {found}", start)
    if text[start] == "0" and pos - start > 1:
        raise GroupSpecError(f"{what} has a leading zero", start)
    return int(text[start:pos]), pos


def parse_group_spec(text: str) -> AbelianGroupType:
    """Parse a group spec like "2^[1,2]*3" into its type.

    Errors carry the byte offset of the first offending character.
    """
    if text == "1":
        return AbelianGroupType(())
    components: list[PGroupType] = []
    prev_prime = 0
    pos = 0
    while True:
        term_start = pos
        p, pos = _read_int(text, pos, "a prime")
        if not is_prime(p):
            raise GroupSpecError(f"{p} is not prime", term_start)
        if p <= prev_prime:
            raise GroupSpecError(
                f"primes must be strictly increasing, {p} after {prev_prime}",
                term_start)
        prev_prime = p
        if pos < len(text) and text[pos] == "^":
            pos += 1
            if pos >= len(text) or text[pos] != "[":
                raise GroupSpecError("expected '[' after '^'", pos)
            pos += 1
            exps: list[int] = []
            while True:
                e_start = pos
                e, pos = _read_int(text, pos, "an exponent")
                if e < 1:
                    raise GroupSpecError("exponents must be >= 1", e_start)
                if exps and e < exps[-1]:
                    raise GroupSpecError(
                        f"exponents must be non-decreasing, {e} after {exps[-1]}",
                        e_start)
                exps.append(e)
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    continue
                break
            if pos >= len(text) or text[pos] != "]":
                found = repr(text[pos]) if pos < len(text) else "end of input"
                raise GroupSpecError(f"expected ',' or ']', found {found}", pos)
            pos += 1
            shape = Partition(tuple(exps))
        else:
            shape = Partition((1,))
        components.append(PGroupType(p, shape))
        if pos == len(text):
            break
        if text[pos] != "*":
            raise GroupSpecError(f"expected '*', found {text[pos]!r}", pos)
        pos += 1
    return AbelianGroupType(tuple(components))


def _format_component(p: int, parts: tuple[int, ...]) -> str:
    if parts == (1,):
        return str(p)
    return f"{p}^[{','.join(str(a) for a in parts)}]"


def format_components(pairs) -> str:
    """Canonical spec text for (prime, ascending part tuple) pairs."""
    terms = [_format_component(p, parts) for p, parts in pairs]
    return "*".join(terms) if terms else "1"


def format_group_spec(group: AbelianGroupType) -> str:
    """Canonical spec text for a group type; parse_group_spec inverts it."""
    return format_components((c.p, c.shape.parts) for c in group.components)
