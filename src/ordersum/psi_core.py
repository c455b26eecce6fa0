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
geometric sum.  band_schedule lists the bands, and every route is built
from that one list: psi costs O(k) big-int powers whatever the size of
the parts.  _psi_band_sum (behind _psi_prime_power, cached) evaluates the
bands of one shape at x = p.  _chain_steps, behind the monotonicity
check, reads the same bands from the largest part down along the
partition walk: a step changes two bands, so each shape costs O(1)
big-int operations.  Two readers give its steps: psi_chain as Partitions,
and psi_chain_texts, the command line's route, as each shape's text,
written along the walk one position at a time, so that route builds no
Partition.  psi_symbolic in the polynomial module reads the same bands
in Z[x].  psi_p_alt keeps the literal per-alpha sum as an independent
reference; it stays, with the f_eval it calls, for bench/checks.py and
the tests.

An order n = p_1^{e_1} ... p_r^{e_r} has one abelian type per choice of a
partition of each e_i, and psi of a type is the product of one p-group
value per prime.  type_psis and type_labels are the one type table of an
order: the psi values and the spec texts of its types, both in
iter_type_components order.  type_psis folds the per-prime value lists
together with one multiplication per type; type_labels formats each
(p, shape) term once and joins the terms of each type.  The `list`
command and the image probe read their types from them.  The range sweep
sieves the value of each prime of exponent 1 through prime_psis, folds
only an order's powerful part (its primes of exponent 2 or more) through
type_psis, and takes type_labels only for an order that keeps a record.

The closed forms of Corollary 2 (cyclic, elementary abelian, near
elementary, rank 2, rank 3) are each written once, as a function over any
ring that takes the powers of the variable and an exact division.  The
psi_cyclic ... psi_rank3 functions evaluate them over Z at x = p, and
polynomial.verify_closed_form evaluates the same functions in Z[x] and
compares them with psi_symbolic, so the identities it proves are the
formulas that run.  Only integer arithmetic is used; every division in
those forms is provably exact and is checked at runtime.
"""

import re
from collections.abc import Iterator
from functools import lru_cache
from itertools import product
from math import prod

from ._record import FrozenRecord
from .arith import exact_div, factorize, is_prime
from .partitions import Partition, _walk, partitions_of

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
    "parse_decimal",
    "parse_group_spec",
    "parse_shape",
    "prime_psis",
    "psi_abelian",
    "psi_chain",
    "psi_chain_texts",
    "psi_cyclic",
    "psi_elem_abelian",
    "psi_near_elem",
    "psi_p",
    "psi_p_alt",
    "psi_rank2",
    "psi_rank3",
    "type_labels",
    "type_psis",
]


class PGroupType(FrozenRecord):
    """Type of a finite abelian p-group: a prime and a partition.

    shape (a_1 <= ... <= a_k) stands for Z_{p^{a_1}} x ... x Z_{p^{a_k}}.
    """

    p: int
    shape: Partition

    def _check(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p ** self.shape.n


class AbelianGroupType(FrozenRecord):
    """Type of a finite abelian group: p-group components, primes increasing.

    The trivial group is the empty product, components == ().
    """

    components: tuple[PGroupType, ...]

    def _check(self) -> None:
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
    slope = len(parts) + 1
    lo = offset = 0
    bands = []
    for a in parts:
        if a > lo:
            bands.append((lo, a - lo, slope, offset))
        slope -= 1
        lo = a
        offset += a
    return lo + offset, bands


def _psi_prime_power(p: int, parts: tuple[int, ...]) -> int:
    """psi for the p-group with ascending part tuple `parts`.

    Every per-prime value of psi_p, psi_abelian, prime_psis and type_psis
    comes through this module-global name.  Z_p is answered directly,
    p^2 - p + 1, so only shapes of order p^2 or more reach the cached band
    sum; a sweep up to `stop` meets those only for p <= isqrt(stop), which
    bounds the cache by the primes up to the square root of the range.
    """
    if parts == (1,):
        return p * p - p + 1
    return _psi_band_sum(p, parts)


@lru_cache(maxsize=None)
def _psi_band_sum(p: int, parts: tuple[int, ...]) -> int:
    """psi for the p-group with ascending parts, from its bands at x = p.

    p^D - (p - 1) * sum over the bands of band_schedule of
    p^{slope * lo + offset} times the geometric sum
    1 + p^slope + ... + p^{slope * (length - 1)}, which is
    (p^{slope * length} - 1) / (p^slope - 1), one exact_div.  Each value
    is computed cold, so nothing is shared between calls but this cache.
    The chain of all shapes of p^n goes through _chain_steps instead,
    which shares its powers and geometric sums and leaves this cache alone.
    """
    degree, bands = band_schedule(parts)
    tail = 0
    for lo, length, slope, offset in bands:
        tail += p ** (slope * lo + offset) * exact_div(
            p ** (slope * length) - 1, p ** slope - 1)
    return p ** degree - (p - 1) * tail


def _shared_powers(p: int, degree: int):
    """The powers p^0 ... p^degree, and a memoised geometric(slope, length).

    geometric(s, L) is (p^{sL} - 1) / (p^s - 1), taken by exact_div the
    first time it is asked for, for s L <= degree.  _chain_steps shares
    both along the chain.
    """
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * p)
    sums = {}

    def geometric(slope, length):
        g = sums.get((slope, length))
        if g is None:
            g = sums[slope, length] = exact_div(
                powers[slope * length] - 1, powers[slope] - 1)
        return g
    return powers, geometric


def psi_chain(p: int, n: int) -> Iterator[tuple[Partition, int]]:
    """(shape, psi) of every p-group type of order p^n, in enumeration order.

    An iterator that holds one entry at a time, so memory does not grow
    with the p(n) shapes of the chain.  p and n are checked when it is
    called, before the iterator exists: a p that is not a prime, or an n
    that is not an int >= 1, raises ValueError at the call.  The values
    come from _chain_steps.
    """
    _check_prime_exponent(p, n, minimum=1)
    return _chain_entries(p, n)


def psi_chain_texts(p: int, n: int) -> Iterator[tuple[str, int]]:
    """(text, psi) of every p-group type of order p^n: psi_chain as text.

    text is str(shape), e.g. "[1,1,2]", for the shape psi_chain gives at
    the same place, and the values are the same, read from the same
    _chain_steps; no Partition is built.  For writers of the chain, such
    as the command line's sweep monotonicity.  p and n are checked at the
    call, as psi_chain checks them.
    """
    _check_prime_exponent(p, n, minimum=1)
    return _chain_texts(p, n)


def _chain_entries(p: int, n: int) -> Iterator[tuple[Partition, int]]:
    unchecked = Partition._unchecked
    for desc, _, value in _chain_steps(p, n):
        yield unchecked(tuple(desc[::-1])), value


def _chain_texts(p: int, n: int) -> Iterator[tuple[str, int]]:
    # A shape's text is "[" and r ones, then its head desc[j] ... desc[0]
    # and "]".  tail[j], the head's text, is written when the step grows
    # desc[j], from tail[j - 1], which is still current, as head[] is in
    # _chain_steps.
    ones = ["[" + "1," * r for r in range(n)]
    tail = [""] * n
    steps = _chain_steps(p, n)
    _, _, value = next(steps)
    yield ones[n - 1] + "1]", value
    for desc, j, value in steps:
        if j:
            text = tail[j] = f"{desc[j]},{tail[j - 1]}"
        else:
            text = tail[0] = f"{desc[0]}]"
        yield ones[len(desc) - j - 1] + text, value


def _chain_steps(p: int, n: int) -> Iterator[tuple[list[int], int | None, int]]:
    """Yield (desc, j, psi) along _walk(n): the walk's state and its value.

    desc and j are as _walk gives them, desc changed in place between
    steps.  The band sum is read from the largest part down.  With
    descending parts b_1 >= ... >= b_k, S_i = b_1 + ... + b_i,
    b_{k+1} = 0 and G(s, L) = (p^{sL} - 1) / (p^s - 1), so that
    G(s, 0) = 0:

        psi = p^{n + b_1} - (p - 1) * (T_1 + ... + T_k),
        T_i = p^{(i + 1) b_{i+1} + n - S_i} * G(i + 1, b_i - b_{i+1}),

    T_i being band_schedule's band of slope i + 1.  The partition walk's
    step grows part J and refills the tail with r ones: T_1 ... T_{J-2}
    keep their values, T_{J-1} and T_J are recomputed, and the ones add
    only the last term, G(k + 1, 1) = 1.  So the chain keeps, per
    position, the sum of the terms before it, and each shape costs two
    terms: O(1) big-int operations whatever its number of parts.  The
    powers and the G(s, L) come from _shared_powers, built once for the
    chain; the _psi_band_sum cache is left alone.
    """
    powers, geometric = _shared_powers(p, 2 * n)
    walk = _walk(n)
    desc, _ = next(walk)
    # The step grows desc[j], part J = j + 1, after r ones refill the tail.
    # head[i] = T_1 + ... + T_i, written when the step grows desc[i]; a
    # step after one at j grows at most j + 1, so it reads only entries
    # still current.  The all-ones start has one term, T_n = 1.
    head = [0] * n
    p1 = p - 1
    yield desc, None, powers[n + 1] - p1
    for desc, j in walk:
        b = desc[j]
        r = len(desc) - j - 1  # n - S_J
        if j:  # T_{J-1}, exponent J b_J + n - S_{J-1}
            done = head[j] = head[j - 1] + powers[(j + 2) * b + r] * geometric(
                j + 1, desc[j - 1] - b)
        else:
            done = 0
        if r:  # T_J with b_{J+1} = 1, then the ones' G(k + 1, 1)
            done += powers[j + 2 + r] * geometric(j + 2, b - 1) + 1
        else:  # T_J is the last term
            done += geometric(j + 2, b)
        yield desc, j, powers[n + desc[0]] - p1 * done


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


# Corollary 2, each form written once over any ring: x(k) is the k-th
# power of the variable and div(a, b) is exact division.


def _cyclic_form(x, div, n):
    """Corollary 2a, the cyclic group of order p^n: (x^{2n+1} + 1) / (x + 1).

    Exact: x^{2n+1} == -1 mod x + 1 since the exponent is odd.
    """
    return div(x(2 * n + 1) + x(0), x(1) + x(0))


def _elem_abelian_form(x, div, n):
    """Corollary 2b, Z_p x ... x Z_p (n factors): x^{n+1} - x + 1."""
    return x(n + 1) - x(1) + x(0)


def _near_elem_form(x, div, n):
    """Corollary 2c, Z_{p^2} x Z_p^{n-2} for n >= 2.

    Shape (1, ..., 1, 2) of total n: x^{n+2} - x^{n+1} + x^n - x + 1.
    """
    return x(n + 2) - x(n + 1) + x(n) - x(1) + x(0)


def _rank2_form(x, div, a1, a2):
    """Corollary 2d, Z_{p^{a1}} x Z_{p^{a2}} with 1 <= a1 <= a2.

    Single fraction with denominator (x + 1)(x^2 + x + 1); the numerator
    is divisible because x^3 == 1 mod x^2 + x + 1 and the exponents of the
    four leading terms cover all residues mod the relevant factors.
    """
    num = (x(2 * a2 + a1 + 3) + x(2 * a2 + a1 + 2) + x(2 * a2 + a1 + 1)
           + x(3 * a1 + 2) + x(1) + x(0))
    return div(num, (x(1) + x(0)) * (x(2) + x(1) + x(0)))


def _rank3_form(x, div, a1, a2, a3):
    """Corollary 2e, Z_{p^{a1}} x Z_{p^{a2}} x Z_{p^{a3}}, 1 <= a1 <= a2 <= a3.

    Three exactly-divisible fractions: the first pairs terms of odd
    exponent gap mod x + 1, the second uses x^3 == 1 mod x^2 + x + 1, the
    third is a difference of fourth powers over x^3 + x^2 + x + 1.
    """
    t1 = div(x(2 * a3 + a2 + a1 + 1) + x(3 * a2 + a1 + 2), x(1) + x(0))
    t2 = div(x(3 * a2 + a1 + 3) - x(4 * a1 + 3), x(2) + x(1) + x(0))
    t3 = div(x(4 * a1 + 4) - x(0), x(3) + x(2) + x(1) + x(0))
    return t1 - t2 - t3


def _corollary2_forms(x, div, parts):
    """(family, value) of every Corollary 2 form that covers the parts.

    Covered ascending part tuples: a single part (n), all parts 1, all
    parts 1 except a final 2, and two or three parts.
    """
    forms = []
    if len(parts) == 1:
        forms.append(("corollary2a", _cyclic_form(x, div, parts[0])))
    if all(a == 1 for a in parts):
        forms.append(("corollary2b", _elem_abelian_form(x, div, len(parts))))
    if len(parts) >= 2 and parts[-1] == 2 and all(a == 1 for a in parts[:-1]):
        forms.append(("corollary2c", _near_elem_form(x, div, sum(parts))))
    if len(parts) == 2:
        forms.append(("corollary2d", _rank2_form(x, div, *parts)))
    if len(parts) == 3:
        forms.append(("corollary2e", _rank3_form(x, div, *parts)))
    return forms


def psi_cyclic(p: int, n: int) -> int:
    """psi of the cyclic group of order p^n: _cyclic_form at x = p."""
    _check_prime_exponent(p, n, minimum=1)
    return _cyclic_form(lambda k: p ** k, exact_div, n)


def psi_elem_abelian(p: int, n: int) -> int:
    """psi of Z_p x ... x Z_p (n factors): _elem_abelian_form at x = p."""
    _check_prime_exponent(p, n, minimum=1)
    return _elem_abelian_form(lambda k: p ** k, exact_div, n)


def psi_near_elem(p: int, n: int) -> int:
    """psi of Z_{p^2} x Z_p^{n-2}, n >= 2: _near_elem_form at x = p."""
    _check_prime_exponent(p, n, minimum=2)
    return _near_elem_form(lambda k: p ** k, exact_div, n)


def psi_rank2(p: int, a1: int, a2: int) -> int:
    """psi of Z_{p^{a1}} x Z_{p^{a2}}, 1 <= a1 <= a2: _rank2_form at x = p."""
    _check_prime_exponent(p, a1, a2, minimum=1)
    if a2 < a1:
        raise ValueError(f"need a1 <= a2, got a1={a1}, a2={a2}")
    return _rank2_form(lambda k: p ** k, exact_div, a1, a2)


def psi_rank3(p: int, a1: int, a2: int, a3: int) -> int:
    """psi of Z_{p^{a1}} x Z_{p^{a2}} x Z_{p^{a3}}: _rank3_form at x = p.

    Needs 1 <= a1 <= a2 <= a3.
    """
    _check_prime_exponent(p, a1, a2, a3, minimum=1)
    if not a1 <= a2 <= a3:
        raise ValueError(f"need a1 <= a2 <= a3, got {a1}, {a2}, {a3}")
    return _rank3_form(lambda k: p ** k, exact_div, a1, a2, a3)


def _check_prime_exponent(p: int, n: int, *rest: int, minimum: int) -> None:
    """Reject a float or bool (any non-int) prime or exponent, a p that is
    not prime, and a first exponent n below minimum.
    """
    for value in (p, n, *rest):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an int, got {value!r}")
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


def prime_psis(primes) -> list[int]:
    """psi(Z_p) of every prime p in `primes`, in order.

    Each value comes through _psi_prime_power, so a range sweep takes its
    exponent-1 values from the same place as every other per-prime value.
    """
    return [_psi_prime_power(p, (1,)) for p in primes]


def type_psis(factorization) -> list[int]:
    """psi of every abelian type of one order, in iter_type_components order.

    `factorization` is the order's (prime, exponent) pairs, primes
    increasing.  A prime of exponent 1 contributes the factor psi(Z_p)
    common to every type, and a prime of exponent e >= 2 one value per
    shape of e; folding the primes in order, the last one varying fastest,
    takes one multiplication per type.  The trivial type gives [1].
    """
    common = 1
    values = [1]
    for p, e in factorization:
        if e == 1:
            common *= _psi_prime_power(p, (1,))
        else:
            psis = [_psi_prime_power(p, parts) for parts in _shapes_of(e)]
            values = [v * w for v in values for w in psis]
    return [common * v for v in values]


def type_labels(factorization) -> list[str]:
    """Spec text of every abelian type of one order, as type_psis orders them.

    Each (p, shape) term is formatted once; the trivial type is "1".
    """
    terms = [[_format_component(p, parts) for parts in _shapes_of(e)]
             for p, e in factorization]
    return [_spec_text(row) for row in product(*terms)]


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
#   TERM  := PRIME | PRIME "^" SHAPE
#   SHAPE := "[" INT ("," INT)* "]"
#
# No whitespace anywhere.  Primes strictly increasing left to right,
# exponents inside a bracket non-decreasing and >= 1.  A bare PRIME means
# the single cyclic factor p^[1].  INT is ASCII digits without a leading
# zero.  parse_shape reads a SHAPE on its own.
#
# The parser checks every rule of the records it returns, with the byte
# offset at fault, so it builds them by FrozenRecord._unchecked.


class GroupSpecError(ValueError):
    """Rejected group spec text; `offset` is the byte position at fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.reason = message


def _found(text: str, pos: int) -> str:
    return repr(text[pos]) if pos < len(text) else "end of input"


# ASCII digits only: str.isdigit() also takes digits such as "²" that
# int() rejects, and int() itself takes "٧٢", "7_2", " 3" and "+3".
_DIGITS = re.compile("[0-9]+")


def parse_decimal(text: str) -> int:
    """The integer spelled by `text`, which must be ASCII digits only.

    The spec grammar's INT rule without its leading-zero check: every
    integer the command line and the checkpoint reader take from text
    comes through here.  Anything else (a sign, whitespace, "_" or a
    non-ASCII digit) raises ValueError.
    """
    if _DIGITS.fullmatch(text) is None:
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def _read_int(text: str, pos: int, what: str) -> tuple[int, int]:
    digits = _DIGITS.match(text, pos)
    if digits is None:
        raise GroupSpecError(f"expected {what}, found {_found(text, pos)}", pos)
    if len(digits[0]) > 1 and digits[0][0] == "0":
        raise GroupSpecError(f"{what} has a leading zero", pos)
    return int(digits[0]), digits.end()


def _read_shape(text: str, pos: int) -> tuple[Partition, int]:
    """Read "[" INT ("," INT)* "]" at pos; return the shape and the end.

    Exponents must be >= 1 and non-decreasing.
    """
    if pos >= len(text) or text[pos] != "[":
        raise GroupSpecError(f"expected '[', found {_found(text, pos)}", pos)
    exps: list[int] = []
    while True:
        e_start = pos + 1
        e, pos = _read_int(text, e_start, "an exponent")
        if e < 1:
            raise GroupSpecError("exponents must be >= 1", e_start)
        if exps and e < exps[-1]:
            raise GroupSpecError(
                f"exponents must be non-decreasing, {e} after {exps[-1]}",
                e_start)
        exps.append(e)
        if pos < len(text) and text[pos] == "]":
            return Partition._unchecked(tuple(exps)), pos + 1
        if pos >= len(text) or text[pos] != ",":
            raise GroupSpecError(
                f"expected ',' or ']', found {_found(text, pos)}", pos)


def parse_shape(text: str) -> Partition:
    """Parse an exponent list like "[1,2]", the bracket of a spec term.

    Errors carry the byte offset of the first offending character.
    """
    shape, pos = _read_shape(text, 0)
    if pos < len(text):
        raise GroupSpecError(f"unexpected {text[pos]!r} after ']'", pos)
    return shape


def parse_group_spec(text: str) -> AbelianGroupType:
    """Parse a group spec like "2^[1,2]*3" into its type.

    Errors carry the byte offset of the first offending character.
    """
    if text == "1":
        return AbelianGroupType._unchecked(())
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
            shape, pos = _read_shape(text, pos + 1)
        else:
            shape = Partition._unchecked((1,))
        components.append(PGroupType._unchecked(p, shape))
        if pos == len(text):
            break
        if text[pos] != "*":
            raise GroupSpecError(f"expected '*', found {text[pos]!r}", pos)
        pos += 1
    return AbelianGroupType._unchecked(tuple(components))


def _format_component(p: int, parts: tuple[int, ...]) -> str:
    if parts == (1,):
        return str(p)
    return f"{p}^[{','.join(str(a) for a in parts)}]"


def _spec_text(terms) -> str:
    """Spec text of a type from its terms' texts; the trivial type is "1"."""
    return "*".join(terms) or "1"


def format_group_spec(group: AbelianGroupType) -> str:
    """Canonical spec text for a group type; parse_group_spec inverts it."""
    return _spec_text([_format_component(c.p, c.shape.parts)
                       for c in group.components])
