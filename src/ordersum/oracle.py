"""Brute-force ground truth: order sums by direct enumeration.

Everything here works on an explicit presentation of a finite abelian
group as Z_{m_1} x ... x Z_{m_r} with r >= 0 (component moduli, each at
least 2, addition mod each modulus; the empty product, r = 0, is the
one-element group, whose only element () has order 1) and computes from
the two facts that define element orders there: the residue r of Z_m has
order m / gcd(m, r), and an element of a direct product has the lcm of
its components' orders.  psi_bruteforce visits every residue of every
factor and counts the group's elements by order; psi_relative visits
every element of the subgroup and counts the group's elements by
relative order.  It is deliberately independent of the formula modules:
no totient, no partitions, no p-group types, no closed forms.  The only
import from the package is arith's integer factorization, which lists
the primes of an element order for relative_order and the divisors of
the exponent for psi_relative.  The formula side is tested against this
module, never the other way round.

Enumerations are guarded by an element-count cap (default 2**20) on the
group order, so a typo in a group spec cannot silently start a week-long
loop.
"""

from collections import Counter
from itertools import repeat
from math import gcd, lcm, prod
from operator import mod

from .arith import factorize

__all__ = [
    "DEFAULT_ENUM_CAP",
    "EnumerationCapError",
    "element_order",
    "group_order",
    "psi_bruteforce",
    "psi_relative",
    "relative_order",
    "subgroup_closure",
]

DEFAULT_ENUM_CAP = 1 << 20


class EnumerationCapError(ValueError):
    """An enumeration would touch more elements than the allowed cap."""

    def __init__(self, size: int, cap: int) -> None:
        super().__init__(
            f"enumeration of {size} elements exceeds the cap of {cap}; "
            "raise the cap explicitly to force it")
        self.size = size
        self.cap = cap


def _check_moduli(moduli) -> tuple[int, ...]:
    ms = tuple(moduli)
    for i, m in enumerate(ms):
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"component {i}: modulus must be >= 2, got {m!r}")
    return ms


def _check_element(moduli, element, what: str) -> tuple[int, ...]:
    # `what` names the element in the error: "element", "generator 1", ...
    e = tuple(element)
    if len(e) != len(moduli):
        raise ValueError(
            f"{what}: has {len(e)} component(s), "
            f"the group has {len(moduli)} cyclic factor(s)")
    for i, (r, m) in enumerate(zip(e, moduli)):
        if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r < m:
            raise ValueError(
                f"{what}, component {i}: residue {r!r} not in [0, {m})")
    return e


def group_order(moduli) -> int:
    """Order of Z_{m_1} x ... x Z_{m_r}: the product of the moduli."""
    return prod(_check_moduli(moduli))


def element_order(moduli, element) -> int:
    """Additive order of an element: lcm of the per-component orders.

    In Z_m the residue r has order m / gcd(m, r), and the order in a
    direct product is the lcm over components.
    """
    ms = _check_moduli(moduli)
    e = _check_element(ms, element, "element")
    return lcm(*(m // gcd(m, r) for m, r in zip(ms, e)))


def psi_bruteforce(moduli, *, max_enum: int = DEFAULT_ENUM_CAP) -> int:
    """Sum of element orders, from the group's count of elements by order.

    The count is built one cyclic factor at a time.  Every residue r of
    Z_m is visited and its order m / gcd(m, r) tallied; an element of
    A x Z_m has order lcm(a, b) for its components' orders a and b, so
    N_{A x Z_m}(d) is the sum of N_A(a) * N_{Z_m}(b) over lcm(a, b) = d.
    The cost is one gcd per residue of each factor plus one lcm per pair
    of distinct orders, not one lcm per element.  The cap still applies
    to the group order, the number of elements counted.
    """
    ms = _check_moduli(moduli)
    size = prod(ms)
    if size > max_enum:
        raise EnumerationCapError(size, max_enum)
    counts = {1: 1}
    for m in ms:
        # residue r lands on gcd(m, r); its order is m // gcd(m, r)
        tally = Counter(map(gcd, repeat(m, m), range(m)))
        counts_next = Counter()
        for a, count_a in counts.items():
            for g, count_b in tally.items():
                counts_next[lcm(a, m // g)] += count_a * count_b
        counts = counts_next
    return sum(d * count for d, count in counts.items())


def subgroup_closure(moduli, generators, *,
                     max_enum: int = DEFAULT_ENUM_CAP) -> frozenset:
    """Subgroup generated by the given elements, as a frozenset of tuples.

    Breadth-first closure under adding each generator; no generators give
    the trivial subgroup.  A generator that does not fit the group raises
    ValueError naming it by its 1-based index ("generator 2: ...").
    Raises EnumerationCapError if the closure would exceed max_enum
    elements.
    """
    ms = _check_moduli(moduli)
    gens = [_check_element(ms, g, f"generator {i}")
            for i, g in enumerate(generators, 1)]
    identity = (0,) * len(ms)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple((x + y) % m for x, y, m in zip(a, g, ms))
                if b not in seen:
                    if len(seen) >= max_enum:
                        raise EnumerationCapError(len(seen) + 1, max_enum)
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


def relative_order(moduli, subgroup, element) -> int:
    """Smallest m >= 1 with m * element inside the subgroup.

    The subgroup must be closed under addition, as subgroup_closure
    returns, not just any set of tuples holding the identity; membership
    is plain set lookup.  For a subgroup H the m with m * element in H are
    exactly the multiples of the relative order, and element_order(element)
    is one of them.  So the search starts at the element order and divides
    out one prime at a time while the multiple stays in H: at most
    Omega(ord) + omega(ord) lookups, the primes of the element order
    counted with and without multiplicity.
    """
    ms = _check_moduli(moduli)
    e = _check_element(ms, element, "element")
    identity = (0,) * len(ms)
    if identity not in subgroup:
        raise ValueError("subgroup does not contain the identity")
    # The m with m * e in H are the multiples of the least one, d, so d | m
    # holds throughout: d still divides m / q exactly when (m / q) * e is in
    # H, and once that fails m and d agree at q, which later primes leave
    # alone.
    m = element_order(ms, e)
    for q, _ in factorize(m):
        while m % q == 0:
            k = m // q
            if tuple([k * x % n for x, n in zip(e, ms)]) not in subgroup:
                break
            m = k
    return m


def psi_relative(moduli, subgroup, *, max_enum: int = DEFAULT_ENUM_CAP) -> int:
    """Sum over the whole group of the order of each element relative to
    the subgroup.

    Counted by relative order, not element by element.  The g with d * g
    in H are the preimage of H under g -> d * g, whose kernel G[d] has
    prod gcd(d, m_i) elements, and h lies in the image dG exactly when
    gcd(d, m_i) divides h_i in every component, so there are
    |G[d]| * |H & dG| of them.  Membership of h in dG depends only on the
    tuple of gcd(h_i, m_i), so H is tallied by that tuple once, and each
    divisor d of the exponent lcm(m_i) costs one pass over the tally.
    Every relative order divides the exponent; taking away the g whose
    relative order is a proper divisor of d leaves those of relative order
    exactly d.  The subgroup must be closed under addition, and the cap
    applies to the group order.  With the trivial subgroup this equals
    psi_bruteforce; with the whole group it equals the group order.
    """
    ms = _check_moduli(moduli)
    size = prod(ms)
    if size > max_enum:
        raise EnumerationCapError(size, max_enum)
    identity = (0,) * len(ms)
    if identity not in subgroup:
        raise ValueError("subgroup does not contain the identity")
    tally = Counter(tuple(map(gcd, h, ms)) for h in subgroup)
    divisors = [1]
    for q, a in factorize(lcm(*ms)):
        divisors = [d * q**i for d in divisors for i in range(a + 1)]
    exact = {}
    for d in sorted(divisors):
        kernel = tuple(map(gcd, repeat(d), ms))
        image = sum(count for key, count in tally.items()
                    if not any(map(mod, key, kernel)))
        exact[d] = prod(kernel) * image - sum(
            count for e, count in exact.items() if d % e == 0)
    return sum(d * count for d, count in exact.items())
