"""Tests for the order-sum formulas, group types, and the group-spec grammar."""

import pickle

import pytest

from ordersum.arith import exact_div
from ordersum.oracle import psi_bruteforce
from ordersum.partitions import Partition, lex_successor, partitions_of
from ordersum.polynomial import psi_symbolic
from ordersum import psi_core
from ordersum.psi_core import (
    AbelianGroupType,
    GroupSpecError,
    PGroupType,
    band_schedule,
    component_moduli,
    f_eval,
    format_group_spec,
    group_type_of_order,
    iter_type_components,
    parse_group_spec,
    parse_shape,
    psi_abelian,
    psi_chain,
    psi_cyclic,
    psi_elem_abelian,
    psi_near_elem,
    psi_p,
    psi_p_alt,
    psi_rank2,
    psi_rank3,
    psi_row,
)
from support import f_piecewise, reference_partition_count

PRIMES = (2, 3, 5, 7, 11, 13)


def pg(p, *parts):
    return PGroupType(p, Partition(tuple(parts)))


def test_type_validation():
    with pytest.raises(ValueError):
        PGroupType(4, Partition((1,)))
    with pytest.raises(ValueError):
        AbelianGroupType((pg(3, 1), pg(2, 1)))
    with pytest.raises(ValueError):
        AbelianGroupType((pg(2, 1), pg(2, 2)))
    assert pg(2, 1, 2).order == 8
    assert AbelianGroupType((pg(2, 1, 2), pg(3, 1))).order == 24
    assert AbelianGroupType(()).order == 1


def test_f_eval_examples():
    shape = Partition((1, 1))
    assert [f_eval(shape, 2, a) for a in (0, 1, 2)] == [1, 2, 2]
    for n in range(1, 7):
        cyclic = Partition((n,))
        assert all(f_eval(cyclic, 3, a) == 1 for a in range(n + 3))
    shape = Partition((1, 2))
    assert f_eval(shape, 3, 1) == 3
    assert f_eval(shape, 3, 2) == 3


def test_f_eval_rejects_negative_alpha():
    with pytest.raises(ValueError):
        f_eval(Partition((1,)), 2, -1)


def test_f_eval_matches_piecewise_branches():
    # the closed rewrite must reproduce the literal piecewise definition
    for n in range(1, 10):
        for shape in partitions_of(n):
            for p in PRIMES:
                for alpha in range(0, n + 3):
                    assert f_eval(shape, p, alpha) == f_piecewise(
                        shape.parts, p, alpha), (shape, p, alpha)


def test_f_eval_non_decreasing_in_alpha():
    for n in range(1, 10):
        for shape in partitions_of(n):
            for p in PRIMES:
                values = [f_eval(shape, p, a) for a in range(0, n + 3)]
                assert all(x <= y for x, y in zip(values, values[1:]))


def test_f_eval_constant_beyond_second_largest_part():
    for n in range(1, 10):
        for shape in partitions_of(n):
            if shape.k == 1:
                continue
            p = 3
            pivot = shape.parts[-2]
            plateau = f_eval(shape, p, pivot)
            for alpha in range(pivot, n + 4):
                assert f_eval(shape, p, alpha) == plateau


def test_psi_p_examples():
    assert psi_p(pg(2, 1, 1)) == 7
    assert psi_p(pg(13, 1, 1)) == 2185
    assert psi_p(pg(2, 2)) == 11
    assert psi_p(pg(2, 1, 2)) == 23


def test_psi_p_alt_examples():
    assert psi_p_alt(pg(2, 1, 1)) == 7
    assert psi_p_alt(pg(3, 1)) == 7
    assert psi_p_alt(pg(5, 3)) == exact_div(5**7 + 1, 6) == 13021


def test_psi_p_equals_alt_exhaustive():
    for n in range(1, 10):
        for shape in partitions_of(n):
            for p in PRIMES:
                g = PGroupType(p, shape)
                assert psi_p(g) == psi_p_alt(g), (p, shape)


def test_psi_p_odd_and_bounded():
    for n in range(1, 10):
        for shape in partitions_of(n):
            for p in PRIMES:
                value = psi_p(PGroupType(p, shape))
                assert value % 2 == 1
                assert value >= 2 * p**n - 1


def test_psi_cyclic():
    assert psi_cyclic(23, 1) == 507
    assert psi_cyclic(2, 1) == 3
    assert psi_cyclic(2, 2) == 11
    for p in PRIMES:
        for n in range(1, 7):
            assert psi_cyclic(p, n) == psi_p(pg(p, n))
    with pytest.raises(ValueError):
        psi_cyclic(4, 1)
    with pytest.raises(ValueError):
        psi_cyclic(2, 0)


def test_psi_elem_abelian():
    assert psi_elem_abelian(2, 2) == 7
    assert psi_elem_abelian(13, 2) == 2185
    assert psi_elem_abelian(2, 3) == 15
    for p in PRIMES:
        for n in range(1, 7):
            assert psi_elem_abelian(p, n) == psi_p(pg(p, *([1] * n)))


def test_psi_near_elem():
    assert psi_near_elem(2, 3) == 23
    assert psi_near_elem(2, 2) == 11
    assert psi_near_elem(3, 2) == 61 == exact_div(3**5 + 1, 4)
    for p in PRIMES:
        for n in range(2, 7):
            shape = [1] * (n - 2) + [2]
            assert psi_near_elem(p, n) == psi_p(pg(p, *shape))
    with pytest.raises(ValueError):
        psi_near_elem(2, 1)


def test_psi_rank2():
    assert psi_rank2(2, 1, 1) == 7
    assert psi_rank2(2, 1, 2) == 23
    assert psi_rank2(3, 1, 1) == 25
    for p in PRIMES:
        for a1 in range(1, 7):
            for a2 in range(a1, 7):
                assert psi_rank2(p, a1, a2) == psi_p(pg(p, a1, a2))
    with pytest.raises(ValueError):
        psi_rank2(2, 2, 1)


def test_psi_rank3():
    assert psi_rank3(2, 1, 1, 1) == 15
    assert psi_rank3(2, 1, 1, 2) == 47 == psi_p(pg(2, 1, 1, 2))
    assert psi_rank3(3, 1, 1, 1) == 79
    for p in PRIMES:
        for a1 in range(1, 7):
            for a2 in range(a1, 7):
                for a3 in range(a2, 7):
                    assert psi_rank3(p, a1, a2, a3) == psi_p(pg(p, a1, a2, a3))
    with pytest.raises(ValueError):
        psi_rank3(2, 1, 3, 2)


def test_psi_abelian_examples():
    worked = AbelianGroupType((pg(13, 1, 1), pg(23, 1)))
    assert psi_abelian(worked) == 1107795
    assert psi_abelian(AbelianGroupType(())) == 1
    assert psi_abelian(AbelianGroupType((pg(2, 1), pg(3, 1)))) == 21


def test_psi_abelian_multiplicative():
    for g1 in group_type_of_order(8):
        for g2 in group_type_of_order(27):
            combined = AbelianGroupType(g1.components + g2.components)
            assert psi_abelian(combined) == psi_abelian(g1) * psi_abelian(g2)


def test_lower_bound_equality_characterization():
    # psi = 2*order - 1 exactly for the groups with every element of
    # order <= 2, confirmed against the brute-force oracle
    for n in range(1, 257):
        for g in group_type_of_order(n):
            value = psi_abelian(g)
            assert value >= 2 * n - 1
            is_flat_two = (n == 1 or (
                len(g.components) == 1
                and g.components[0].p == 2
                and all(a == 1 for a in g.components[0].shape.parts)))
            assert (value == 2 * n - 1) == is_flat_two, format_group_spec(g)
            if n <= 64:
                moduli = component_moduli(g)
                if moduli:
                    assert psi_bruteforce(moduli) == value


def test_group_type_of_order():
    assert [format_group_spec(g) for g in group_type_of_order(4)] == [
        "2^[1,1]", "2^[2]"]
    assert [format_group_spec(g) for g in group_type_of_order(1)] == ["1"]
    assert len(group_type_of_order(36)) == 4
    assert len(group_type_of_order(3887)) == 2
    with pytest.raises(ValueError):
        group_type_of_order(0)


def test_group_type_count_formula():
    from ordersum.arith import factorize
    for n in range(1, 2001):
        expected = 1
        for _, e in factorize(n):
            expected *= reference_partition_count(e)
        assert len(group_type_of_order(n)) == expected, n


def test_group_type_order_determinism():
    specs = [format_group_spec(g) for g in group_type_of_order(144)]
    assert specs == [
        "2^[1,1,1,1]*3^[1,1]",
        "2^[1,1,1,1]*3^[2]",
        "2^[1,1,2]*3^[1,1]",
        "2^[1,1,2]*3^[2]",
        "2^[2,2]*3^[1,1]",
        "2^[2,2]*3^[2]",
        "2^[1,3]*3^[1,1]",
        "2^[1,3]*3^[2]",
        "2^[4]*3^[1,1]",
        "2^[4]*3^[2]",
    ]


def test_component_moduli():
    assert component_moduli(parse_group_spec("2^[1,2]*3")) == (2, 4, 3)
    assert component_moduli(parse_group_spec("1")) == ()
    assert component_moduli(parse_group_spec("13^[1,1]*23")) == (13, 13, 23)


def test_parse_examples():
    g = parse_group_spec("13^[1,1]*23")
    assert g.order == 3887
    assert format_group_spec(g) == "13^[1,1]*23"
    assert parse_group_spec("1") == AbelianGroupType(())
    assert parse_group_spec("5") == AbelianGroupType((pg(5, 1),))
    assert parse_group_spec("2^[1]") == parse_group_spec("2")


def test_format_abbreviates_single_exponent():
    assert format_group_spec(parse_group_spec("2^[1]")) == "2"
    assert format_group_spec(parse_group_spec("2^[1,1]")) == "2^[1,1]"


def test_parse_format_roundtrip():
    for n in range(1, 301):
        for g in group_type_of_order(n):
            text = format_group_spec(g)
            assert parse_group_spec(text) == g


def offset_of(text: str) -> int:
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec(text)
    return info.value.offset


def test_parse_errors_with_offsets():
    assert offset_of("") == 0
    assert offset_of("4") == 0
    assert offset_of("10") == 0
    assert offset_of("3*2") == 2
    assert offset_of("2^") == 2
    assert offset_of("2^[") == 3
    assert offset_of("2^[1") == 4
    assert offset_of("2^[2,1]") == 5
    assert offset_of("2^[0]") == 3
    assert offset_of("2^[1]*2") == 6
    assert offset_of("2 * 3") == 1
    assert offset_of("02") == 0
    assert offset_of("2**3") == 2
    assert offset_of("2^1") == 2


def test_parse_shape_reads_the_bracket_of_a_spec_term():
    for shape in partitions_of(6):
        text = "[" + ",".join(map(str, shape.parts)) + "]"
        assert parse_shape(text) == shape
        assert parse_group_spec("2^" + text).components[0].shape == shape
    for bad, offset in (("", 0), ("1,2", 0), ("[]", 1), ("[1", 2),
                        ("[01]", 1), ("[0]", 1), ("[2,1]", 3), ("[1]x", 3),
                        ("[1]*3", 3)):
        with pytest.raises(GroupSpecError) as info:
            parse_shape(bad)
        assert info.value.offset == offset, bad


def test_parse_error_message_carries_offset():
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("3*2")
    assert "offset 2" in str(info.value)
    assert info.value.offset == 2


def test_band_schedule_matches_piecewise_f():
    # Every tail term p^{2 alpha} f(alpha) is p^{slope * alpha + offset}
    # on its band, and the bands cover 0 <= alpha < a_k once, in order.
    p = 3
    for n in range(1, 11):
        for shape in partitions_of(n):
            parts = shape.parts
            degree, bands = band_schedule(parts)
            assert degree == 2 * parts[-1] + sum(parts[:-1])
            alphas = [lo + i for lo, length, _, _ in bands for i in range(length)]
            assert alphas == list(range(parts[-1])), parts
            for lo, length, slope, offset in bands:
                for alpha in range(lo, lo + length):
                    assert (p ** (slope * alpha + offset)
                            == p ** (2 * alpha) * f_piecewise(parts, p, alpha))
    # The empty band between repeated parts is left out.
    assert band_schedule((2, 2, 5)) == (14, [(0, 2, 4, 0), (2, 3, 2, 4)])


@pytest.mark.parametrize("parts", [(10, 200, 500), (3, 50, 300, 700),
                                   (1, 1, 5, 5, 5, 40), (700,)])
def test_band_sum_on_deep_and_repeated_shapes(parts):
    poly = psi_symbolic(Partition(parts))
    for p in (2, 3, 1000003):
        g = pg(p, *parts)
        assert psi_p(g) == psi_p_alt(g) == poly(p)


def test_prime_order_psi_is_the_band_sum():
    # psi(Z_p) is answered without the cached band sum; it must be the
    # value the band sum and the per-alpha reference give.
    from ordersum.psi_core import _psi_band_sum, _psi_prime_power
    for p in (2, 3, 5, 97, 10007, 1000003):
        assert _psi_prime_power(p, (1,)) == _psi_band_sum(p, (1,)) == psi_p_alt(pg(p, 1))


def test_iter_type_components_is_the_group_type_order():
    from ordersum.arith import factorize
    for n in (1, 72, 144, 3887):
        combos = list(iter_type_components(factorize(n)))
        assert [tuple((c.p, c.shape.parts) for c in t.components)
                for t in group_type_of_order(n)] == combos
    # Each p-group component is built once and shared by the types using it.
    types = group_type_of_order(144)
    assert types[0].components[1] is types[2].components[1]


@pytest.mark.parametrize("p", [2, 3, 997])
def test_psi_row_matches_the_per_alpha_reference(p):
    for n in range(1, 13):
        shapes = partitions_of(n)
        assert psi_row(p, shapes) == [psi_p_alt(PGroupType(p, s))
                                      for s in shapes], n


def test_psi_row_matches_the_cached_band_sum():
    shapes = partitions_of(30)
    assert psi_row(991, shapes) == [psi_core._psi_prime_power(991, s.parts)
                                    for s in shapes]
    assert psi_row(5, []) == []


def test_psi_row_leaves_the_band_sum_cache_alone():
    # Neither a hit nor a miss: the row takes each band sum uncached, also
    # for a shape the cache already holds.
    psi_core._psi_band_sum(7919, (1, 2))
    before = psi_core._psi_band_sum.cache_info()
    shapes = partitions_of(3) + partitions_of(9)
    assert psi_row(7919, shapes) == [psi_p_alt(PGroupType(7919, s))
                                     for s in shapes]
    assert psi_core._psi_band_sum.cache_info() == before


@pytest.mark.parametrize("p", [1, 4, 2.0, True])
def test_psi_row_rejects_a_non_prime(p):
    with pytest.raises(ValueError):
        psi_row(p, partitions_of(3))


@pytest.mark.parametrize("p", [2, 3, 997])
def test_psi_chain_matches_the_per_alpha_reference(p):
    for n in range(1, 13):
        assert psi_chain(p, n) == [(s, psi_p_alt(PGroupType(p, s)))
                                   for s in partitions_of(n)], n


@pytest.mark.parametrize("p, n", [(991, 30), (2, 40)])
def test_psi_chain_matches_the_row(p, n):
    shapes = partitions_of(n)
    assert psi_chain(p, n) == list(zip(shapes, psi_row(p, shapes)))


def test_psi_chain_walks_the_successor_order():
    for n in range(1, 16):
        chain = [shape for shape, _ in psi_chain(5, n)]
        assert chain == partitions_of(n)
        assert chain[0] == Partition((1,) * n) and chain[-1] == Partition((n,))
        assert [lex_successor(s) for s in chain] == chain[1:] + [None]


def test_psi_chain_leaves_the_band_sum_cache_alone():
    before = psi_core._psi_band_sum.cache_info().currsize
    psi_chain(7, 18)
    assert psi_core._psi_band_sum.cache_info().currsize == before


def test_the_walk_builds_no_validated_partition(monkeypatch):
    def check(self):
        raise AssertionError("validated a partition the walk made")
    monkeypatch.setattr(Partition, "_check", check)
    with pytest.raises(AssertionError):
        Partition((1, 2))
    assert len(partitions_of(20)) == reference_partition_count(20)
    assert len(psi_chain(5, 20)) == reference_partition_count(20)


def _count_checks(monkeypatch) -> dict:
    """Count psi_core.is_prime calls and the type records' _check calls."""
    counts = {"is_prime": 0, "_check": 0}
    is_prime = psi_core.is_prime

    def counted_is_prime(n):
        counts["is_prime"] += 1
        return is_prime(n)
    monkeypatch.setattr(psi_core, "is_prime", counted_is_prime)
    for cls in (Partition, PGroupType, AbelianGroupType):
        def counted_check(self, check=cls._check):
            counts["_check"] += 1
            check(self)
        monkeypatch.setattr(cls, "_check", counted_check)
    return counts


def test_the_parser_tests_each_prime_once_and_checks_no_record(monkeypatch):
    counts = _count_checks(monkeypatch)
    group = parse_group_spec("2^[1,2]*3*1000003^[1,1]")
    assert counts == {"is_prime": 3, "_check": 0}
    parse_shape("[1,1,4]")
    parse_group_spec("1")
    assert counts == {"is_prime": 3, "_check": 0}
    # The counters do see the validating constructors.
    assert group == AbelianGroupType(
        (pg(2, 1, 2), pg(3, 1), pg(1000003, 1, 1)))
    assert counts == {"is_prime": 6, "_check": 7}


def _assert_same_value(trusted, validated) -> None:
    assert type(trusted) is type(validated)
    assert trusted == validated and validated == trusted
    assert hash(trusted) == hash(validated)
    # Unpickling runs the validating constructor on the trusted values.
    assert pickle.loads(pickle.dumps(trusted)) == validated
    assert pickle.loads(pickle.dumps(validated)) == trusted


def _assert_same_type(trusted, components) -> None:
    validated = AbelianGroupType(tuple(PGroupType(p, Partition(tuple(parts)))
                                       for p, parts in components))
    _assert_same_value(trusted, validated)
    for a, b in zip(trusted.components, validated.components, strict=True):
        _assert_same_value(a, b)
        _assert_same_value(a.shape, b.shape)


@pytest.mark.parametrize("spec, components", [
    ("1", ()),
    ("2", [(2, [1])]),
    ("2^[1]", [(2, [1])]),
    ("997^[1,1,3]", [(997, [1, 1, 3])]),
    ("13^[1,1]*23", [(13, [1, 1]), (23, [1])]),
    ("2^[1,2]*3*1000003^[1,1]", [(2, [1, 2]), (3, [1]), (1000003, [1, 1])]),
])
def test_parsed_types_are_the_validated_types(spec, components):
    _assert_same_type(parse_group_spec(spec), components)
    for _, parts in components:
        shape = parse_shape("[" + ",".join(map(str, parts)) + "]")
        _assert_same_value(shape, Partition(tuple(parts)))


@pytest.mark.parametrize("p, n", [
    (2, True), (2, False), (2, 3.0), (2, 2.5), (2, "3"), (2, 0),
    (4, 3), (1, 3), (2.0, 3), (True, 3)])
def test_psi_chain_refuses_bad_input_before_any_work(p, n, monkeypatch):
    def work(*args):
        raise AssertionError("worked before checking the input")
    monkeypatch.setattr(psi_core, "_shared_powers", work)
    monkeypatch.setattr(psi_core, "_walk", work)
    with pytest.raises(ValueError):
        psi_chain(p, n)


@pytest.mark.parametrize("call", [
    lambda: psi_cyclic(2, 3.0),
    lambda: psi_cyclic(2.0, 3),
    lambda: psi_cyclic(2, True),
    lambda: psi_cyclic(True, 3),
    lambda: psi_elem_abelian(3, 2.0),
    lambda: psi_elem_abelian(3.0, 2),
    lambda: psi_near_elem(2, 3.0),
    lambda: psi_near_elem(2.0, 3),
    lambda: psi_rank2(2, 1.0, 2),
    lambda: psi_rank2(2, 1, 2.0),
    lambda: psi_rank2(2, 1, True),
    lambda: psi_rank2(2.0, 1, 2),
    lambda: psi_rank3(2, 1, 1, 2.0),
    lambda: psi_rank3(2, 1, 1.0, 2),
    lambda: psi_rank3(2, True, 1, 2),
    lambda: psi_rank3(3.0, 1, 1, 2),
])
def test_closed_forms_reject_float_and_bool_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_parse_decimal_takes_ascii_digits_only():
    assert [psi_core.parse_decimal(t) for t in ("0", "7", "072", "3887")] == [
        0, 7, 72, 3887]
    for text in ("", "٧٢", "²", "7_2", " 3", "3 ", "3\n", "+3", "-3", "0x1"):
        with pytest.raises(ValueError):
            psi_core.parse_decimal(text)
