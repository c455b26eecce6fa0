"""Tests for the brute-force oracle."""

from itertools import product
from math import gcd, lcm, prod

import pytest

from ordersum.oracle import (
    DEFAULT_ENUM_CAP,
    EnumerationCapError,
    element_order,
    group_order,
    psi_bruteforce,
    psi_relative,
    relative_order,
    subgroup_closure,
)
from ordersum.psi_core import (
    component_moduli,
    format_group_spec,
    group_type_of_order,
    psi_abelian,
    psi_cyclic,
)
from support import (
    GroupTable,
    order_by_repeated_addition,
    psi_by_definition,
    type_of_factors,
)


def test_group_order():
    assert group_order((2, 3)) == 6
    assert group_order((13, 13, 23)) == 3887


def test_moduli_validation():
    assert psi_bruteforce(()) == 1
    with pytest.raises(ValueError):
        psi_bruteforce((2, 1))
    with pytest.raises(ValueError):
        element_order((0,), (0,))


def test_empty_product_is_the_trivial_group():
    # Z_{m_1} x ... x Z_{m_r} with r = 0 has one element, (), of order 1.
    assert group_order(()) == 1
    assert element_order((), ()) == 1
    assert psi_bruteforce(()) == 1
    trivial = subgroup_closure((), [])
    assert trivial == {()}
    assert subgroup_closure((), [(), ()]) == trivial
    assert relative_order((), trivial, ()) == 1
    assert psi_relative((), trivial) == 1
    # The cap counts elements, and this group has one.
    for call in (lambda: psi_bruteforce((), max_enum=0),
                 lambda: psi_relative((), trivial, max_enum=0)):
        with pytest.raises(EnumerationCapError) as info:
            call()
        assert (info.value.size, info.value.cap) == (1, 0)
    with pytest.raises(ValueError):
        element_order((), (0,))


def test_oracle_rejects_bool_residues():
    # True is an int to isinstance, but not a residue; psi_core refuses
    # bools everywhere too.
    with pytest.raises(ValueError, match="residue True"):
        element_order((4,), (True,))
    with pytest.raises(ValueError, match="residue False"):
        subgroup_closure((4,), [(False,)])
    with pytest.raises(ValueError, match="residue True"):
        subgroup_closure((4,), [(True,)])
    with pytest.raises(ValueError, match="residue True"):
        relative_order((2, 4), frozenset({(0, 0)}), (1, True))


def test_element_order_examples():
    assert element_order((4,), (2,)) == 2
    assert element_order((2, 3), (1, 1)) == 6
    assert element_order((2, 3, 5), (0, 0, 0)) == 1
    assert element_order((8, 9), (4, 3)) == 6


def test_element_order_rejects_bad_elements():
    with pytest.raises(ValueError):
        element_order((4,), (4,))
    with pytest.raises(ValueError):
        element_order((4,), (-1,))
    with pytest.raises(ValueError):
        element_order((4, 2), (1,))


def test_element_order_against_repeated_addition():
    # the per-component lcm formula needs its own verifier once: literal
    # repeated addition over every element of every type of order <= 100
    from itertools import product
    for n in range(2, 101):
        for g in group_type_of_order(n):
            moduli = component_moduli(g)
            for elem in product(*(range(m) for m in moduli)):
                assert element_order(moduli, elem) == \
                    order_by_repeated_addition(moduli, elem), (moduli, elem)


def test_psi_bruteforce_examples():
    assert psi_bruteforce((2, 2)) == 7
    assert psi_bruteforce((3,)) == 7
    assert psi_bruteforce((4,)) == 11
    assert psi_bruteforce((13, 13, 23)) == 1107795
    # 192 divisors of the exponent, 96 of them with a negative weight
    assert psi_bruteforce((8, 9, 5, 7, 11, 13)) == psi_abelian(type_of_factors(
        [(2, 3), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]))


def test_psi_bruteforce_against_definition():
    for moduli in ((2, 2), (4,), (2, 4), (3, 9), (2, 3, 4), (60,)):
        assert psi_bruteforce(moduli) == psi_by_definition(moduli)


def test_psi_bruteforce_matches_formula_small():
    for n in range(2, 513):
        for g in group_type_of_order(n):
            moduli = component_moduli(g)
            assert psi_bruteforce(moduli) == psi_abelian(g), \
                format_group_spec(g)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as info:
        psi_bruteforce((4, 4), max_enum=8)
    assert info.value.size == 16
    assert info.value.cap == 8
    assert "16" in str(info.value)
    assert psi_bruteforce((4, 4), max_enum=16) == psi_by_definition((4, 4))
    with pytest.raises(EnumerationCapError):
        psi_bruteforce((2,) * 21)
    assert DEFAULT_ENUM_CAP == 2**20


# Every tuple of one or two moduli from 2..16, and every triple of at most
# 128 elements: moduli that are not prime powers (6, 10, 12, 15), repeated
# moduli and coprime mixes, each in every order.  The literal definition
# costs psi(G) additions, so larger triples (572 million additions over all
# of them) are left to the lcm walk below.
_SMALL_MODULI = [ms for rank in (1, 2, 3)
                 for ms in product(range(2, 17), repeat=rank)
                 if rank < 3 or prod(ms) <= 128]


def test_psi_bruteforce_equals_definition_on_small_moduli():
    assert len(_SMALL_MODULI) == 15 + 15**2 + 415
    for moduli in _SMALL_MODULI:
        assert psi_bruteforce(moduli) == psi_by_definition(moduli), moduli


def _psi_by_lcm_walk(moduli):
    # one lcm of the component orders per element, element by element
    return sum(lcm(*(m // gcd(m, r) for m, r in zip(moduli, e)))
               for e in product(*(range(m) for m in moduli)))


@pytest.mark.parametrize("moduli", [
    (2,) * 16, (2**16,), (4, 8, 16, 32), (6, 10, 15, 7), (256, 256),
    (3,) * 10, (12, 30, 20), (5, 25, 125), (2, 3, 5, 7, 11, 13),
    (255, 257),
])
def test_psi_bruteforce_matches_lcm_walk(moduli):
    assert prod(moduli) <= 2**16
    assert psi_bruteforce(moduli) == _psi_by_lcm_walk(moduli)


def test_enumeration_cap_boundary():
    # the cap counts the group's elements, as the element walk did
    assert psi_bruteforce((3, 5, 7), max_enum=105) == \
        psi_by_definition((3, 5, 7))
    with pytest.raises(EnumerationCapError) as info:
        psi_bruteforce((3, 5, 7), max_enum=104)
    assert (info.value.size, info.value.cap) == (105, 104)
    assert str(info.value) == ("enumeration of 105 elements exceeds the cap "
                               "of 104; raise the cap explicitly to force it")
    assert psi_bruteforce((2,) * 20) == 2**21 - 1
    assert psi_bruteforce((1 << 20,)) == psi_cyclic(2, 20)


def test_subgroup_closure_examples():
    assert subgroup_closure((4,), [(2,)]) == frozenset({(0,), (2,)})
    assert subgroup_closure((2, 2), []) == frozenset({(0, 0)})
    assert len(subgroup_closure((2, 3), [(1, 0)])) == 2
    whole = subgroup_closure((4,), [(1,)])
    assert len(whole) == 4


def test_subgroup_closure_names_the_generator():
    # The 1-based index, as the command line's --gen flags count them.
    with pytest.raises(ValueError) as info:
        subgroup_closure((4, 6), [(1, 2), (1,)])
    assert str(info.value) == (
        "generator 2: has 1 component(s), the group has 2 cyclic factor(s)")
    with pytest.raises(ValueError) as info:
        subgroup_closure((4, 6), [(1, 2), (3, 0), (1, 6)])
    assert str(info.value) == (
        "generator 3, component 1: residue 6 not in [0, 6)")


def test_subgroup_closure_is_closed():
    h = subgroup_closure((4, 6), [(2, 3), (0, 2)])
    assert (0, 0) in h
    for a in h:
        for b in h:
            s = tuple((x + y) % m for x, y, m in zip(a, b, (4, 6)))
            assert s in h
        neg = tuple((-x) % m for x, m in zip(a, (4, 6)))
        assert neg in h
    assert group_order((4, 6)) % len(h) == 0


def test_subgroup_closure_cap():
    with pytest.raises(EnumerationCapError):
        subgroup_closure((64, 64), [(1, 0), (0, 1)], max_enum=100)
    # The cap is on |G|, not on H: a 2-element H of a 1024-element group
    # is refused at entry, naming the group order.
    with pytest.raises(EnumerationCapError) as info:
        subgroup_closure((1024,), [(512,)], max_enum=100)
    assert (info.value.size, info.value.cap) == (1024, 100)


def test_relative_order_examples():
    whole = subgroup_closure((4,), [(1,)])
    assert relative_order((4,), whole, (3,)) == 1
    trivial = frozenset({(0,)})
    assert relative_order((4,), trivial, (1,)) == 4
    half = frozenset({(0,), (2,)})
    assert relative_order((4,), half, (1,)) == 2


def test_relative_order_requires_identity():
    with pytest.raises(ValueError):
        relative_order((4,), frozenset({(2,)}), (1,))
    with pytest.raises(ValueError,
                       match="subgroup does not contain the identity"):
        psi_relative((4,), frozenset({(2,)}))


def test_relative_order_one_iff_member():
    moduli = (2, 4)
    h = subgroup_closure(moduli, [(1, 2)])
    from itertools import product
    for elem in product(range(2), range(4)):
        expected_one = elem in h
        assert (relative_order(moduli, h, elem) == 1) == expected_one


def test_relative_order_reduces_to_element_order_on_trivial():
    moduli = (3, 9)
    trivial = frozenset({(0, 0)})
    from itertools import product
    for elem in product(range(3), range(9)):
        assert relative_order(moduli, trivial, elem) == \
            element_order(moduli, elem)


def test_psi_relative_examples():
    assert psi_relative((2, 2), frozenset({(0, 0)})) == 7
    whole = subgroup_closure((4,), [(1,)])
    assert psi_relative((4,), whole) == 4
    half = frozenset({(0,), (2,)})
    assert psi_relative((4,), half) == 6


def test_psi_relative_extremes():
    for moduli in ((2, 2), (4,), (2, 4), (9,), (3, 3)):
        trivial = frozenset({(0,) * len(moduli)})
        assert psi_relative(moduli, trivial) == psi_by_definition(moduli)
        gens = []
        for i in range(len(moduli)):
            unit = [0] * len(moduli)
            unit[i] = 1
            gens.append(tuple(unit))
        whole = subgroup_closure(moduli, gens)
        assert psi_relative(moduli, whole) == group_order(moduli)


def test_psi_relative_cap():
    with pytest.raises(EnumerationCapError):
        psi_relative((64, 64), frozenset({(0, 0)}), max_enum=100)


def _direct_factor_subsets(k: int):
    # nonempty proper subsets of factor positions, as bitmasks
    for mask in range(1, (1 << k) - 1):
        yield [i for i in range(k) if mask >> i & 1]


def test_direct_factor_identity():
    # when H is a full set of direct factors, the relative order-sum is
    # the subgroup order times the order-sum of the complementary factors;
    # the closed formulas never enter the left-hand side, so this confirms
    # the identity by enumeration before anything else relies on it
    checked = 0
    for n in range(2, 501):
        for g in group_type_of_order(n):
            factors = [(c.p, a) for c in g.components for a in c.shape.parts]
            if len(factors) < 2:
                continue
            moduli = tuple(p**a for p, a in factors)
            for chosen in _direct_factor_subsets(len(factors)):
                gens = []
                for i in chosen:
                    unit = [0] * len(moduli)
                    unit[i] = 1
                    gens.append(tuple(unit))
                h = subgroup_closure(moduli, gens)
                complement = [factors[i] for i in range(len(factors))
                              if i not in chosen]
                comp_psi = psi_abelian(type_of_factors(complement))
                assert psi_relative(moduli, h) == len(h) * comp_psi, \
                    (format_group_spec(g), chosen)
                checked += 1
    assert checked > 10000


def _relative_order_by_walk(moduli, subgroup, elem):
    # m = 1, 2, ... until m * elem lands in the subgroup
    current = elem
    m = 1
    while current not in subgroup:
        current = tuple((x + y) % k for x, y, k in zip(current, elem, moduli))
        m += 1
    return m


@pytest.mark.parametrize("moduli", [(12, 30), (8, 9, 5)])
def test_relative_order_matches_linear_walk(moduli):
    # element orders here have several primes, some squared, so the
    # descent from ord(g) strips more than one prime and more than one
    # power of a prime
    table = GroupTable(moduli)
    subgroups = 0
    for ids, _gens in table.two_generated_subgroups():
        h = frozenset(table.elements[i] for i in ids)
        for elem in table.elements:
            assert relative_order(moduli, h, elem) == \
                _relative_order_by_walk(moduli, h, elem), (moduli, elem)
        subgroups += 1
    assert subgroups > 10


def test_psi_relative_trivial_subgroup_large_group():
    moduli = (4, 27, 25)
    assert psi_relative(moduli, frozenset({(0, 0, 0)})) == \
        _psi_by_lcm_walk(moduli)


def test_psi_relative_direct_factor_large_group():
    # <(2,0,0)> is the order-2 subgroup of Z_4; the quotient is
    # Z_2 x Z_27 x Z_25, whose psi comes from the formula layer
    moduli = (4, 27, 25)
    h = subgroup_closure(moduli, [(2, 0, 0)])
    quotient = psi_abelian(type_of_factors([(2, 1), (3, 3), (5, 2)]))
    assert psi_relative(moduli, h) == 2 * quotient


@pytest.mark.parametrize("moduli", [(12, 30), (8, 9, 5)])
def test_psi_relative_matches_linear_walk(moduli):
    # composite moduli: an element's gcd tuple mixes primes, so the count
    # of H & dG must read divisibility component by component
    table = GroupTable(moduli)
    subgroups = 0
    for ids, _gens in table.two_generated_subgroups():
        h = frozenset(table.elements[i] for i in ids)
        assert psi_relative(moduli, h) == sum(
            _relative_order_by_walk(moduli, h, elem)
            for elem in table.elements), (moduli, sorted(h))
        subgroups += 1
    assert subgroups > 10


def test_psi_relative_large_cyclic_group():
    # 240 divisors of the exponent; the whole group and the trivial subgroup
    # are the two extremes of the count
    moduli = (720720,)
    assert psi_relative(moduli, subgroup_closure(moduli, [(1,)])) == 720720
    assert psi_relative(moduli, frozenset({(0,)})) == psi_abelian(
        type_of_factors([(2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]))


def test_psi_relative_trivial_subgroup_of_elementary_group():
    moduli = (2,) * 20
    assert psi_relative(moduli, {(0,) * 20}) == 2**21 - 1
