"""Brute-force ground truth: order sums by direct enumeration.

Everything here works on an explicit presentation of a finite abelian
group as Z_{m_1} x ... x Z_{m_r} with r >= 0 (component moduli, each at
least 2, addition mod each modulus; the empty product, r = 0, is the
one-element group, whose only element () has order 1) and computes from
two facts: Z_m[e], the residues r with e * r = 0 mod m, has gcd(e, m)
elements, and e kills an element of a direct product exactly when it
kills every component.  So the residue r of Z_m has order m / gcd(m, r),
an element has the lcm of its components' orders (element_order), and
G[e] has prod gcd(e, m_i) elements.  The order-sums follow one counting
rule, written once in psi_relative: with L the exponent lcm(m_i) and
c(e) the number of g with e * g in the subgroup H,

    psi_rel(G, H) = sum over e | L of e * c(e) * prod over primes
                    q | L/e of (1 - q),

the Moebius inversion of c over the divisors of L (Hardy and Wright,
An Introduction to the Theory of Numbers, 16.4).  psi_bruteforce is that
rule over the trivial subgroup, where c(e) = |G[e]|.  H is still
enumerated, by subgroup_closure and by psi_relative's tally.  The module
is deliberately independent of the formula modules: no totient, no
partitions, no p-group types, no closed forms of psi.  The only import
from the package is arith: its integer factorization, which lists the
primes of an element order for relative_order and the divisors of the
exponent, with their weights, for psi_relative, and DEFAULT_ENUM_CAP,
the default max_enum, which this module exports but arith defines, so
that the command line reads it without importing this module.  The
formula side is tested against this module, never the other way round.

Every entry that walks or counts a group, subgroup_closure and both
order-sums, refuses a group of more than max_enum elements (default
2**20) at entry, so a typo in a group spec cannot silently start a
week-long loop.  The cap is on the group order |G|, the bound on the H
that subgroup_closure walks; the count itself costs one pass over H's
tally per divisor of L, whatever the group order.
"""

from collections import Counter
from itertools import repeat
from math import gcd, lcm, prod
from operator import mod

from .arith import DEFAULT_ENUM_CAP, factorize

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


class EnumerationCapError(ValueError):
    """An enumeration would touch more elements than the allowed cap."""

    def __init__(self, size: int, cap: int) -> None:
        super().__init__(
            f"enumeration of {size} elements exceeds the cap of {cap}; "
            "raise the cap explicitly to force it")
        self.size = size
        self.cap = cap


def _check_moduli(moduli, max_enum: int | None = None) -> tuple[int, ...]:
    # With max_enum set, a group of more than max_enum elements raises
    # EnumerationCapError: the one cap on the group order.
    ms = tuple(moduli)
    for i, m in enumerate(ms):
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"component {i}: modulus must be >= 2, got {m!r}")
    if max_enum is not None and prod(ms) > max_enum:
        raise EnumerationCapError(prod(ms), max_enum)
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
    """Sum of element orders: psi_relative over the trivial subgroup.

    The order of g is its order relative to {0}, and the g with e * g = 0
    are G[e], of prod gcd(e, m_i) elements, so the one rule of
    psi_relative reads psi(G) = sum over e | L of
    e * |G[e]| * prod over primes q | L/e of (1 - q), L the exponent.
    The cost is one pass per divisor of L, not one per element.  The cap
    still bounds the group order, the number of elements counted.
    """
    ms = tuple(moduli)
    return psi_relative(ms, {(0,) * len(ms)}, max_enum=max_enum)


def subgroup_closure(moduli, generators, *,
                     max_enum: int = DEFAULT_ENUM_CAP) -> frozenset:
    """Subgroup generated by the given elements, as a frozenset of tuples.

    Closure under adding each generator, in one list that grows as the
    walk reads it; no generators give the trivial subgroup.  A group of
    more than max_enum elements raises EnumerationCapError naming |G|
    before any generator is checked, as the order-sums do, so the walk,
    which never holds more than |G| elements, needs no cap of its own.
    A generator that does not fit the group raises ValueError naming it
    by its 1-based index ("generator 2: ...").
    """
    ms = _check_moduli(moduli, max_enum)
    gens = [_check_element(ms, g, f"generator {i}")
            for i, g in enumerate(generators, 1)]
    walk = [(0,) * len(ms)]
    seen = set(walk)
    for a in walk:
        for g in gens:
            b = tuple((x + y) % m for x, y, m in zip(a, g, ms))
            if b not in seen:
                seen.add(b)
                walk.append(b)
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

    Counted by divisors of the exponent L = lcm(m_i), not element by
    element.  Let c(e) count the g with e * g in H.  They are the preimage
    of H under g -> e * g, whose kernel G[e] has prod gcd(e, m_i)
    elements (Z_m[e] has gcd(e, m), and e kills g exactly when it kills
    every component), and h lies in the image eG exactly when gcd(e, m_i)
    divides h_i in every component, so c(e) = |G[e]| * |H & eG|.  Every
    relative order divides L, and e * g is in H exactly when the relative
    order of g divides e, so c(e) sums the count N(d) of relative order
    exactly d over d | e.  Moebius inversion gives N(d) as the sum of
    mu(d/e) * c(e) over e | d, and summing d * N(d) over d | L leaves the
    one rule

        psi_rel(G, H) = sum over e | L of e * c(e) * prod over primes
                        q | L/e of (1 - q),

    its weights read off L's factorization as the divisors are built.
    Membership of h in eG depends only on the tuple of gcd(h_i, m_i), so
    H is still enumerated, tallied by that tuple once, and each divisor
    costs one pass over the tally.  The subgroup must be closed under
    addition, and the cap bounds the group order.  With the trivial
    subgroup this is psi_bruteforce; with the whole group, the group order.
    """
    ms = _check_moduli(moduli, max_enum)
    identity = (0,) * len(ms)
    if identity not in subgroup:
        raise ValueError("subgroup does not contain the identity")
    tally = Counter(tuple(map(gcd, h, ms)) for h in subgroup)
    # (e, e * prod (1 - q) over the primes q of L/e) for every e | L
    terms = [(1, 1)]
    for q, a in factorize(lcm(*ms)):
        terms = [(e * q**i, w * q**i * (1 - q if i < a else 1))
                 for e, w in terms for i in range(a + 1)]
    total = 0
    for e, w in terms:
        kernel = tuple(map(gcd, repeat(e), ms))
        image = sum(count for key, count in tally.items()
                    if not any(map(mod, key, kernel)))
        total += w * prod(kernel) * image
    return total
