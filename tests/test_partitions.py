"""Tests for partition enumeration and the lexicographic order."""

import pytest

from ordersum.partitions import (
    Partition,
    from_padded_tuple,
    iter_partitions,
    lex_compare,
    lex_successor,
    partitions_of,
    to_padded_tuple,
)
from support import reference_partition_count, reference_partitions


def test_partition_validation():
    assert Partition((1, 1, 2)).n == 4
    assert Partition((1, 1, 2)).k == 3
    assert str(Partition((1, 1, 2))) == "[1,1,2]"
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 1))
    with pytest.raises(ValueError):
        Partition((0, 1))


def test_to_padded_tuple_examples():
    assert to_padded_tuple(Partition((1, 3))) == (3, 1, 0, 0)
    assert to_padded_tuple(Partition((4,))) == (4, 0, 0, 0)
    assert to_padded_tuple(Partition((1, 1, 1, 1))) == (1, 1, 1, 1)


def test_padded_tuple_roundtrip():
    for n in range(1, 31):
        for shape in partitions_of(n):
            padded = to_padded_tuple(shape)
            assert len(padded) == n
            assert sum(padded) == n
            assert all(padded[i] >= padded[i + 1] for i in range(n - 1))
            assert from_padded_tuple(padded) == shape


def test_from_padded_tuple_rejects_bad_input():
    with pytest.raises(ValueError):
        from_padded_tuple((0, 0))
    with pytest.raises(ValueError):
        from_padded_tuple((1, 2, 0))
    with pytest.raises(ValueError):
        from_padded_tuple((2, 1))


def test_lex_compare_examples():
    assert lex_compare((1, 1, 1, 1), (2, 1, 1, 0)) == -1
    assert lex_compare((2, 2, 0, 0), (3, 1, 0, 0)) == -1
    assert lex_compare((4, 0, 0, 0), (4, 0, 0, 0)) == 0
    assert lex_compare((3, 1, 0, 0), (2, 2, 0, 0)) == 1


def test_lex_compare_rejects_unequal_length():
    with pytest.raises(ValueError):
        lex_compare((1, 1), (1, 1, 1))


def test_lex_compare_total_order():
    # trichotomy, antisymmetry and transitivity on all pairs, n <= 12
    for n in range(1, 13):
        padded = [to_padded_tuple(s) for s in partitions_of(n)]
        for i, a in enumerate(padded):
            for j, b in enumerate(padded):
                c = lex_compare(a, b)
                assert c in (-1, 0, 1)
                assert (c == 0) == (i == j)
                assert lex_compare(b, a) == -c
                if c == -1:
                    assert i < j, "enumeration order must agree with compare"
        for a in padded:
            for b in padded:
                for c in padded:
                    if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
                        assert lex_compare(a, c) <= 0


def test_partitions_of_order_n4():
    assert [tuple(s.parts) for s in partitions_of(4)] == [
        (1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)]


def test_partitions_of_small():
    assert [tuple(s.parts) for s in partitions_of(1)] == [(1,)]
    assert len(partitions_of(10)) == 42


def test_partitions_against_reference():
    for n in range(1, 21):
        ours = [tuple(s.parts) for s in partitions_of(n)]
        assert ours == reference_partitions(n)


def test_partition_counts_against_reference():
    for n in range(1, 31):
        assert len(partitions_of(n)) == reference_partition_count(n)


def test_lex_successor_examples():
    assert lex_successor(Partition((1, 1, 1, 1))) == Partition((1, 1, 2))
    assert lex_successor(Partition((2, 2))) == Partition((1, 3))
    assert lex_successor(Partition((4,))) is None


def test_successor_chain_visits_everything_in_order():
    # chaining from the all-ones partition reproduces partitions_of exactly
    for n in range(1, 31):
        chain = []
        current = Partition((1,) * n)
        while current is not None:
            chain.append(current)
            current = lex_successor(current)
        assert chain == partitions_of(n)
        assert chain[0] == Partition((1,) * n)
        assert chain[-1] == Partition((n,))


def test_successor_strictly_increases():
    for n in range(1, 21):
        shapes = partitions_of(n)
        for a, b in zip(shapes, shapes[1:]):
            assert lex_compare(to_padded_tuple(a), to_padded_tuple(b)) == -1


def test_iter_partitions_is_lazy_and_correct():
    it = iter_partitions(40)
    first = next(it)
    assert first == Partition((1,) * 40)
    assert next(it) == Partition((1,) * 38 + (2,))


def test_large_n_endpoints():
    # enumeration must stay correct for large exponents without listing
    # everything: check the first and last few entries at n = 64
    it = iter_partitions(64)
    assert next(it) == Partition((1,) * 64)
    assert next(it) == Partition((1,) * 62 + (2,))
    assert next(it) == Partition((1,) * 60 + (2, 2))
    tail = Partition((64,))
    assert lex_successor(tail) is None
    almost = Partition((1, 63))
    assert lex_successor(almost) == tail


def test_rejects_n_zero():
    with pytest.raises(ValueError):
        partitions_of(0)
    with pytest.raises(ValueError):
        list(iter_partitions(0))


def test_partitions_of_40_is_the_lex_successor_chain():
    chain = [Partition((1,) * 40)]
    while (step := lex_successor(chain[-1])) is not None:
        chain.append(step)
    assert partitions_of(40) == chain
    assert len(chain) == reference_partition_count(40)


@pytest.mark.parametrize("parts", [(True,), (True, 2), (1, 1.0), (2.0,)])
def test_partition_rejects_bool_and_float_parts(parts):
    with pytest.raises(ValueError):
        Partition(parts)


@pytest.mark.parametrize("n", [True, False, 2.5, 3.0, "3", None])
def test_iter_partitions_rejects_non_int_n(n):
    with pytest.raises(ValueError):
        partitions_of(n)
    with pytest.raises(ValueError):
        list(iter_partitions(n))


def test_iter_partitions_gives_the_validated_partitions():
    # The walk builds its Partitions without the validating constructor;
    # each must equal the one that constructor builds from the same parts.
    for n in range(1, 21):
        count = 0
        for shape in iter_partitions(n):
            checked = Partition(shape.parts)
            assert type(shape) is Partition
            assert shape == checked and hash(shape) == hash(checked)
            assert all(type(a) is int for a in shape.parts)
            assert shape.n == n
            count += 1
        assert count == reference_partition_count(n)
