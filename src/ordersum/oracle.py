"""Brute-force ground truth: order sums by direct enumeration.

Everything here works on an explicit presentation of a finite abelian
group as Z_{m_1} x ... x Z_{m_r} (component moduli, addition mod each
modulus) and computes from the two facts that define element orders
there: the residue r of Z_m has order m / gcd(m, r), and an element of a
direct product has the lcm of its components' orders.  psi_bruteforce
visits every residue of every factor and counts the group's elements by
order; the relative-order walker visits every element.  It is
deliberately independent of the formula modules: no totient, no
partitions, no p-group types, no closed forms.  The only import from the
package is arith's integer factorization, which the relative-order walker
uses to list the primes of an element order.
The formula side is tested against this module, never the other way round.

Enumerations are guarded by an element-count cap (default 2**20) so a typo
in a group spec cannot silently start a week-long loop.
"""

from collections import Counter
from itertools import product, repeat, starmap
from math import gcd, lcm, prod

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
    if not ms:
        raise ValueError("need at least one component modulus")
    for i, m in enumerate(ms):
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"component {i}: modulus must be >= 2, got {m!r}")
    return ms


def _check_element(moduli: tuple[int, ...], element) -> tuple[int, ...]:
    e = tuple(element)
    if len(e) != len(moduli):
        raise ValueError(
            f"element has {len(e)} components, group has {len(moduli)}")
    for i, (r, m) in enumerate(zip(e, moduli)):
        if not isinstance(r, int) or not 0 <= r < m:
            raise ValueError(
                f"component {i}: residue {r!r} not in [0, {m})")
    return e


def group_order(moduli) -> int:
    """Order of Z_{m_1} x ... x Z_{m_r}: the product of the moduli."""
    return prod(_check_moduli(moduli))


def _orders(ms: tuple[int, ...], residues):
    # Additive orders of the elements of the product of the residue lists,
    # in itertools.product order.  In Z_m the residue r has order
    # m / gcd(m, r), and the order in a direct product is the lcm over
    # components; each residue's gcd is taken once, so an element costs one
    # lcm.
    tables = [[m // gcd(m, r) for r in rs] for m, rs in zip(ms, residues)]
    return starmap(lcm, product(*tables))


def element_order(moduli, element) -> int:
    """Additive order of an element: lcm of the per-component orders.

    In Z_m the residue r has order m / gcd(m, r), and the order in a
    direct product is the lcm over components.
    """
    ms = _check_moduli(moduli)
    e = _check_element(ms, element)
    return next(_orders(ms, ([r] for r in e)))


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
    the trivial subgroup.  Raises EnumerationCapError if the closure would
    exceed max_enum elements.
    """
    ms = _check_moduli(moduli)
    gens = [_check_element(ms, g) for g in generators]
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


def _descend(ms: tuple[int, ...], subgroup, e: tuple[int, ...], order: int,
             primes) -> int:
    # Least m >= 1 with m * e in the subgroup, given order = ord(e).  The m
    # with m * e in H are the multiples of that least one, d, so d | m holds
    # throughout: d still divides m / q exactly when (m / q) * e is in H,
    # and once that fails m and d agree at q, which later primes leave
    # alone.  A prime not dividing m is passed over, so `primes` may be any
    # superset of the primes of ord(e).
    m = order
    for q in primes:
        while m % q == 0:
            k = m // q
            if tuple([k * x % mod for x, mod in zip(e, ms)]) not in subgroup:
                break
            m = k
    return m


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
    e = _check_element(ms, element)
    identity = (0,) * len(ms)
    if identity not in subgroup:
        raise ValueError("subgroup does not contain the identity")
    order = element_order(ms, e)
    return _descend(ms, subgroup, e, order, [q for q, _ in factorize(order)])


def psi_relative(moduli, subgroup, *, max_enum: int = DEFAULT_ENUM_CAP) -> int:
    """Sum over the whole group of the order of each element relative to
    the subgroup.

    Every element is visited and its relative order found as in
    relative_order, so the subgroup must be closed under addition.  With
    the trivial subgroup this equals psi_bruteforce; with the whole group
    it equals the group order.
    """
    ms = _check_moduli(moduli)
    size = prod(ms)
    if size > max_enum:
        raise EnumerationCapError(size, max_enum)
    identity = (0,) * len(ms)
    if identity not in subgroup:
        raise ValueError("subgroup does not contain the identity")
    primes = [q for q, _ in factorize(lcm(*ms))]
    ranges = [range(m) for m in ms]
    return sum(_descend(ms, subgroup, e, order, primes)
               for e, order in zip(product(*ranges), _orders(ms, ranges)))
