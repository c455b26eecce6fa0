"""Tests for sweeps, checkpoints, and the chain/image reports."""

import json
import os
import sys
import threading
import tracemalloc
from itertools import combinations
from math import isqrt, prod
from pathlib import Path

import pytest

import ordersum.analysis as analysis
from ordersum import psi_core
from ordersum.analysis import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CollisionRecord,
    DivisibleRecord,
    SoundnessError,
    SweepCheckpoint,
    SweepOutcome,
    conjecture_sweep,
    divisibility_search,
    image_probe,
    load_checkpoint,
    monotonicity_check,
    save_checkpoint,
    scan_orders,
)
from ordersum.arith import factorize, smallest_prime_factors
from ordersum.partitions import partitions_of
from ordersum.oracle import psi_bruteforce
from ordersum.psi_core import (component_moduli, format_group_spec,
                               group_type_of_order, parse_group_spec,
                               psi_abelian, psi_chain)
from support import forge_psi, run_python


def test_monotonicity_chain_n4_p2():
    report = monotonicity_check(4, 2)
    chain = list(psi_chain(2, 4))
    assert [tuple(s.parts) for s, _ in chain] == [
        (1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)]
    assert [v for _, v in chain] == [31, 47, 55, 87, 171]
    assert report.types == 5
    assert report.violations == ()
    assert report.strictly_increasing
    assert report.first_matches_flat_formula
    assert report.last_matches_cyclic_formula
    assert report.ok


def test_monotonicity_chain_n3_p2():
    report = monotonicity_check(3, 2)
    assert [v for _, v in psi_chain(2, 3)] == [15, 23, 43]
    assert report.types == 3
    assert report.ok


def test_monotonicity_single_entry():
    for p in (2, 7):
        report = monotonicity_check(1, p)
        assert report.types == 1
        assert report.ok


def test_monotonicity_chain_length_and_ranges():
    for n in range(1, 13):
        for p in (2, 3):
            report = monotonicity_check(n, p)
            assert report.types == len(partitions_of(n))
            assert report.ok, (n, p)


def test_monotonicity_folds_a_handed_in_chain():
    # One pass over the entries: the count, each dip as a violation, and
    # the endpoints against the closed forms.
    chain = list(psi_chain(2, 5))
    chain[2], chain[3] = chain[3], chain[2]
    report = monotonicity_check(5, 2, entries=iter(chain))
    assert report.types == len(chain) == 7
    assert report.violations == ((chain[2][0], chain[3][0]),)
    assert report.first_matches_flat_formula
    assert report.last_matches_cyclic_formula
    assert not report.ok
    chain[-1] = (chain[-1][0], chain[-1][1] - 2)
    report = monotonicity_check(5, 2, entries=chain)
    assert not report.last_matches_cyclic_formula


def test_monotonicity_rejects_bad_input():
    with pytest.raises(ValueError):
        monotonicity_check(0, 2)
    with pytest.raises(ValueError):
        monotonicity_check(3, 4)


def test_scan_orders_counts_types():
    outcome = scan_orders(1, 100)
    expected = sum(len(group_type_of_order(n)) for n in range(1, 101))
    assert outcome.types_scanned == expected
    assert outcome.collisions == []


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_scan_orders_workers_equivalence(monkeypatch, workers):
    # Seven blocks, a count none of the worker counts divides, so the
    # lanes have unequal lengths.
    serial = scan_orders(2, 650)
    monkeypatch.setattr(analysis, "BLOCK_SIZE", 97)
    parallel = scan_orders(2, 650, workers=workers)
    assert serial.types_scanned == parallel.types_scanned
    assert serial.collisions == parallel.collisions
    assert serial.divisible_hits == parallel.divisible_hits


def test_scan_orders_memory_does_not_grow_with_stop():
    # Each block sieves its own orders, so sweep memory is per block and
    # does not grow with stop.
    start, stop = 10 ** 7, 10 ** 7 + 999
    tracemalloc.start()
    try:
        outcome = scan_orders(start, stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert outcome.types_scanned == sum(
        len(group_type_of_order(n)) for n in range(start, stop + 1))


def test_first_block_memory_does_not_grow_with_stop(monkeypatch):
    # Blocks are made as they are scanned, so reaching the first block of
    # a range up to 1e9 costs what one block costs.
    monkeypatch.setattr(analysis, "BLOCK_SIZE", 1000)
    tracemalloc.start()
    try:
        blocks = analysis._iter_block_outcomes(2, 10 ** 9, 1)
        last, outcome = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
        blocks.close()
    finally:
        tracemalloc.stop()
    assert last == 1001
    assert outcome == scan_orders(2, 1001)
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_sieving_primes_are_shared_up_to_a_power_of_two(monkeypatch):
    # Blocks take their sieving primes from one sieve per power of two, so
    # a sweep re-sieves only when isqrt(stop) passes one.
    sieved = []

    def counting_sieve(limit):
        sieved.append(limit)
        return smallest_prime_factors(limit)

    monkeypatch.setattr(analysis, "smallest_prime_factors", counting_sieve)
    analysis._sieving_primes.cache_clear()
    spf = smallest_prime_factors(2100)
    for limit in range(1, 2101):
        assert analysis._primes_up_to(limit) == tuple(
            p for p in range(2, limit + 1) if spf[p] == p), limit
    assert sieved == [2 ** k for k in range(1, 13)]
    # Blocks on both sides of 1024^2 scan correctly with their slices.
    for bounds in ((1024 ** 2 - 1500, 1024 ** 2),
                   (1024 ** 2 + 1, 1024 ** 2 + 1500)):
        assert analysis._scan_range(bounds) == _definition_outcome(*bounds)


def _definition_outcome(start, stop):
    """What a scan of [start, stop] finds, by psi_abelian over every type."""
    out = SweepOutcome()
    for n in range(start, stop + 1):
        types = group_type_of_order(n)
        out.types_scanned += len(types)
        for t in types:
            value = psi_abelian(t)
            if n > 1 and value % n == 0:
                out.divisible_hits.append(
                    DivisibleRecord(n, format_group_spec(t), value, value // n))
    return out


@pytest.mark.parametrize("start, stop", [
    (1, 50),  # n = 1 has the empty factorization: the trivial type
    (2, 4000),  # holds the smallest divisibility hits, 3887 among them
    (1009 ** 2 - 200, 1009 ** 2 + 200),
    (1009 ** 2 - 999, 1009 ** 2),  # stop = 1009^2: the prime isqrt(stop) is sieved
    (1009 ** 2, 1009 ** 2 + 999),
    (10 ** 7 + 1, 10 ** 7 + 300),
    (10 ** 7 + 1, 10 ** 7 + 1000),
    (10 ** 8 - 300, 10 ** 8),
])
def test_scan_kernel_matches_definition_route(start, stop):
    # The kernel sieves each order's value from per-prime values; the
    # definition route factors each order, builds every type and takes
    # psi_abelian of it.  Correct formulas give no collisions and raise
    # no SoundnessError.
    assert analysis._scan_range((start, stop)) == _definition_outcome(start, stop)


def test_collision_labels_follow_type_order(monkeypatch):
    # A forged psi that is odd and at least 2n - 1 (so no soundness check
    # fires) but depends only on the exponent and the parity of the number
    # of parts: orders with a square factor then hold collisions, which
    # the kernel labels from type indices.  Labels and pair order must be
    # those of itertools.combinations over group_type_of_order.
    def forged(p, parts):
        return 2 * p ** sum(parts) + 1 + 2 * (len(parts) % 2)

    monkeypatch.setattr(psi_core, "_psi_prime_power", forged)
    start, stop = 2, 3700  # 3600 = 2^4 * 3^2 * 5^2
    expected = []
    for n in range(start, stop + 1):
        by_value = {}
        for t in group_type_of_order(n):
            value = prod(forged(c.p, c.shape.parts) for c in t.components)
            by_value.setdefault(value, []).append(format_group_spec(t))
        for value, labels in by_value.items():
            expected += [CollisionRecord(n, a, b, value)
                         for a, b in combinations(labels, 2)]
    outcome = scan_orders(start, stop)
    assert len({c.order for c in outcome.collisions}) > 100
    assert outcome.collisions == expected


# A same-order collision of the real order-sum, found by a search over
# powerful orders (the product of the p^e exactly dividing n with e >= 2).
COLLISION = CollisionRecord(
    21069103104, "2^[1,1,1,1,1,1,1,2,2,5]*3^[2,2,2,2]*7^[2]",
    "2^[1,1,1,1,1,1,1,1,8]*3^[1,1,1,1,1,1,2]*7^[1,1]", 173109506110475)


def test_the_scan_finds_the_real_collision():
    order = COLLISION.order
    assert factorize(order) == [(2, 16), (3, 8), (7, 2)]
    outcome = scan_orders(order, order)
    assert outcome.collisions == [COLLISION]


def test_the_real_collision_holds_by_the_oracle():
    for spec in (COLLISION.group_a, COLLISION.group_b):
        group = parse_group_spec(spec)
        assert group.order == COLLISION.order
        assert psi_abelian(group) == COLLISION.psi
        assert psi_bruteforce(component_moduli(group),
                              max_enum=10 ** 11) == COLLISION.psi
        assert prod(psi_core.psi_p_alt(c)
                    for c in group.components) == COLLISION.psi


def test_the_real_collision_lifts_by_a_new_prime():
    # Every type of order 5n has the factor Z_5, worth psi(Z_5) = 21.
    order = 5 * COLLISION.order
    a, b = (label.replace("*7^", "*5*7^")
            for label in (COLLISION.group_a, COLLISION.group_b))
    assert scan_orders(order, order).collisions == [
        CollisionRecord(order, a, b, 21 * COLLISION.psi)]


def test_band_sum_cache_is_bounded_by_square_root_primes():
    # Z_p is answered without the cache, so a sweep up to stop adds band
    # sums only for shapes of order p^e with e >= 2 and p <= isqrt(stop):
    # at most the shapes of exponents 2..log_p(stop) at each of the
    # pi(10**4) = 1229 primes below, however many orders are scanned.
    start, stop = 10 ** 8, 10 ** 8 + 100_000
    root = isqrt(stop)
    spf = smallest_prime_factors(root)
    primes = [p for p in range(2, root + 1) if spf[p] == p]
    assert len(primes) == 1229

    def top_exponent(p):
        e = 1
        while p ** (e + 1) <= stop:
            e += 1
        return e

    bound = sum(len(psi_core._shapes_of(e))
                for p in primes for e in range(2, top_exponent(p) + 1))
    cache = psi_core._psi_band_sum
    before = cache.cache_info().currsize
    tracemalloc.start()
    try:
        outcome = scan_orders(start, stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.cache_info().currsize - before <= bound
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert outcome.types_scanned > stop - start


def test_conjecture_sweep_single_order():
    cp = conjecture_sweep(4, 4)
    assert cp.max_done == 4
    assert cp.collisions == []
    values = sorted(psi_abelian(g) for g in group_type_of_order(4))
    assert values == [7, 11]


def test_conjecture_sweep_prime_order():
    cp = conjecture_sweep(13, 13)
    assert cp.collisions == []
    assert cp.max_done == 13


def test_conjecture_sweep_range():
    cp = conjecture_sweep(2, 2000)
    assert cp.collisions == []
    assert cp.max_done == 2000
    assert [d.order for d in cp.divisible_hits] == []


def test_conjecture_sweep_records_divisible_hits():
    cp = conjecture_sweep(2, 4000)
    assert len(cp.divisible_hits) == 1
    hit = cp.divisible_hits[0]
    assert hit == DivisibleRecord(3887, "13^[1,1]*23", 1107795, 285)


def test_conjecture_sweep_is_idempotent():
    cp = conjecture_sweep(2, 300)
    snapshot = cp.to_json_obj()
    again = conjecture_sweep(2, 300, cp)
    assert again is cp
    assert again.to_json_obj() == snapshot


def test_conjecture_sweep_rejects_gap():
    cp = SweepCheckpoint.fresh(2)
    cp = conjecture_sweep(2, 100, cp)
    with pytest.raises(CheckpointError):
        conjecture_sweep(500, 600, cp)


def test_conjecture_sweep_rejects_bad_bounds():
    with pytest.raises(ValueError):
        conjecture_sweep(1, 10)
    with pytest.raises(ValueError):
        conjecture_sweep(10, 5)


def test_conjecture_sweep_rejects_version_mismatch():
    cp = SweepCheckpoint.fresh(2)
    cp.version = CHECKPOINT_VERSION + 1
    with pytest.raises(CheckpointError):
        conjecture_sweep(2, 10, cp)


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "cp.json")
    cp = SweepCheckpoint.fresh(2)
    cp.collisions.append(CollisionRecord(4, "2^[1,1]", "2^[2]", 7))
    cp.divisible_hits.append(DivisibleRecord(3887, "13^[1,1]*23", 1107795, 285))
    cp.max_done = 4000
    save_checkpoint(cp, path)
    loaded = load_checkpoint(path)
    assert loaded == cp
    assert loaded.version == CHECKPOINT_VERSION


def test_checkpoint_file_shape(tmp_path):
    path = str(tmp_path / "cp.json")
    save_checkpoint(SweepCheckpoint.fresh(2), path)
    with open(path) as fh:
        obj = json.load(fh)
    assert set(obj) == {"version", "max_done", "collisions", "divisible_hits"}
    assert obj["version"] == CHECKPOINT_VERSION
    assert obj["max_done"] == 1


def test_checkpoint_big_values_are_strings(tmp_path):
    path = str(tmp_path / "cp.json")
    cp = SweepCheckpoint.fresh(2)
    cp.divisible_hits.append(DivisibleRecord(3887, "13^[1,1]*23", 1107795, 285))
    save_checkpoint(cp, path)
    with open(path) as fh:
        obj = json.load(fh)
    hit = obj["divisible_hits"][0]
    assert hit["psi"] == "1107795"
    assert hit["quotient"] == "285"
    assert isinstance(hit["order"], int)


JSON_CORPUS = [
    {},
    {"empty dict": {}, "empty list": [], "empty tuple": ()},
    {"b": [1, [2, [3, []]], {"x": {"y": {}}}], "a": ({"k": (4, 5)}, [])},
    {"text": "Z/p × Z/p² — ψ", "astral": "\U0001d53e", "": ""},
    {"quote\"key": "a \"quoted\" \\ back\\slash",
     "control": "\x00\x01\x08\t\n\x0c\r\x1f\x7f", "slash": "a/b"},
    {"flags": [True, False, None], "true": True, "none": None},
    {"big": 10 ** 400, "negative": -(2 ** 200), "zero": 0, "one": [1]},
    {"floats": [-0.0, 0.0, 1e300, -1e-300, 0.1, 2.5, float("inf"),
                float("-inf"), float("nan")], "elapsed_ms": 12.345},
    {"Z": 1, "a": 2, "B": 3, "é": 4, "aa": 5, "a a": 6, "10": 7, "9": 8},
]


@pytest.mark.parametrize("record", JSON_CORPUS)
def test_json_text_is_the_indented_stdlib_text(record):
    expected = json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert analysis.json_text(record) == expected


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "absent.json"))


def test_load_checkpoint_corrupt_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_load_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text(json.dumps({
        "version": 9, "max_done": 10, "collisions": [], "divisible_hits": []}))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(str(path))
    assert "version" in str(info.value)


def test_load_checkpoint_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 10, "collisions": [],
        "divisible_hits": [], "surprise": 1}))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    path.write_text(json.dumps({"version": CHECKPOINT_VERSION, "max_done": 10}))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_load_checkpoint_rejects_bad_types(tmp_path):
    path = tmp_path / "types.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": "10", "collisions": [],
        "divisible_hits": []}))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 10, "collisions": [],
        "divisible_hits": [{"order": 4, "group": "2^[2]", "psi": "eleven",
                            "quotient": "1"}]}))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


# What each value of a checkpoint is replaced with in the mutation test.
REPLACEMENTS = (None, True, 1, 1.5, "x", [], {})


def _single_edits(value):
    """Every copy of a JSON value with one edit, at any depth.

    In an object: a key deleted, an unknown key added, or one value
    replaced by each of REPLACEMENTS or by one of its own single edits.
    In a list: one item replaced the same way.
    """
    if isinstance(value, dict):
        for key in value:
            yield {k: v for k, v in value.items() if k != key}
            for new in REPLACEMENTS + tuple(_single_edits(value[key])):
                yield {**value, key: new}
        yield {**value, "unexpected": 0}
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for new in REPLACEMENTS + tuple(_single_edits(item)):
                yield value[:i] + [new] + value[i + 1:]


def test_load_checkpoint_loads_or_refuses_every_single_edit(tmp_path):
    valid = SweepCheckpoint(
        4000, [CollisionRecord(4, "2^[1,1]", "2^[2]", 7)],
        [DivisibleRecord(3887, "13^[1,1]*23", 1107795, 285)]).to_json_obj()
    path, rewritten = tmp_path / "cp.json", tmp_path / "again.json"
    loaded = refused = 0
    for edited in _single_edits(valid):
        path.write_text(json.dumps(edited))
        try:
            checkpoint = load_checkpoint(str(path))
        except CheckpointError:
            refused += 1
            continue
        # Whatever is accepted is kept whole: the file rewrites to itself.
        assert type(checkpoint) is SweepCheckpoint
        save_checkpoint(checkpoint, str(rewritten))
        assert rewritten.read_text() == analysis.json_text(edited)
        loaded += 1
    # 33 edits in each of the three objects, 7 more for each list item.
    assert loaded + refused == 3 * 33 + 2 * 7
    assert loaded and refused


@pytest.mark.parametrize("edit, where", [
    ({"max_done": 3000}, "divisible_hits[0]"),
    ({"max_done": 3}, "collisions[0]"),
    ({"collisions": [{"order": 4, "group_a": "2^[2]", "group_b": "2^[2]",
                      "psi": "11"}]}, "collisions[0]"),
    ({"divisible_hits": [{"order": 3887, "group": "13^[1,1]*23",
                          "psi": "1107795", "quotient": "286"}]},
     "divisible_hits[0]"),
    ({"divisible_hits": [{"order": 1, "group": "1", "psi": "1",
                          "quotient": "1"}]}, "divisible_hits[0]"),
])
def test_load_checkpoint_refuses_records_that_do_not_fit_the_file(
        tmp_path, edit, where):
    # The made-up collision at order 4 is kept: the reader checks that a
    # record fits the file, not the order-sums themselves.
    path = tmp_path / "cp.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 4000,
        "collisions": [{"order": 4, "group_a": "2^[1,1]", "group_b": "2^[2]",
                        "psi": "7"}],
        "divisible_hits": [{"order": 3887, "group": "13^[1,1]*23",
                            "psi": "1107795", "quotient": "285"}],
        **edit}))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(str(path))
    assert str(info.value).startswith(f"checkpoint {where}: ")


def test_package_exports_every_analysis_class():
    # scan_orders returns a SweepOutcome and the sweeps raise
    # SoundnessError, so a caller of the package needs both names.
    import ordersum

    classes = [name for name in analysis.__all__
               if isinstance(getattr(analysis, name), type)]
    assert {"SweepOutcome", "SoundnessError"} <= set(classes)
    for name in classes:
        assert getattr(ordersum, name) is getattr(analysis, name)
        assert name in ordersum.__all__


# The names the package exported when its list was still kept by hand.
HAND_KEPT_EXPORTS = (
    "AbelianGroupType CheckpointError ClosedFormReport CollisionRecord "
    "DEFAULT_ENUM_CAP DivisibleRecord EnumerationCapError ExactDivisionError "
    "GroupSpecError ImageReport IntPoly MonotonicityReport PGroupType "
    "Partition SoundnessError SweepCheckpoint SweepOutcome component_moduli "
    "conjecture_sweep divisibility_search element_order exact_div f_eval "
    "factorize format_group_spec from_padded_tuple group_type_of_order "
    "image_probe is_prime iter_partitions lex_compare lex_successor "
    "load_checkpoint monotonicity_check parse_group_spec partitions_of "
    "psi_abelian psi_bruteforce psi_cyclic psi_elem_abelian psi_near_elem "
    "psi_p psi_p_alt psi_rank2 psi_rank3 psi_relative psi_symbolic "
    "relative_order save_checkpoint scan_orders subgroup_closure "
    "to_padded_tuple verify_closed_form __version__").split()


def test_package_exports_every_module_name():
    import ordersum
    from ordersum import arith, oracle, partitions, polynomial

    assert len(HAND_KEPT_EXPORTS) == 54
    assert len(set(ordersum.__all__)) == len(ordersum.__all__)
    assert set(HAND_KEPT_EXPORTS) <= set(ordersum.__all__)
    for module in (analysis, arith, oracle, partitions, polynomial, psi_core):
        for name in module.__all__:
            assert name in ordersum.__all__, name
            assert getattr(ordersum, name) is getattr(module, name), name
    # gcd and lcm are math's own functions, not the package's.
    assert not {"gcd", "lcm"} & set(ordersum.__all__)


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("sweep, args", [
    (scan_orders, (2, 10)),
    (conjecture_sweep, (2, 10)),
    (divisibility_search, (10,)),
    (image_probe, (10,)),
])
def test_every_sweep_refuses_fewer_than_one_worker(sweep, args, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sweep(*args, workers=workers)


@pytest.mark.parametrize("edit, problem", [
    ({"psi": "1" * 5000}, "over this interpreter's limit of 4300"),
    ({"psi": "x" * 10**6}, "must be a decimal string, got 'xxxx"),
    ({"k" * 10**6: 1}, "unknown fields ['kkkkkkkkkkkkkkkkkkkk'... (1000000 "),
], ids=["5000 digits", "1 MB non-digit psi", "1 MB unknown key"])
def test_checkpoint_errors_show_a_bounded_value(tmp_path, edit, problem):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 4000, "collisions": [],
        "divisible_hits": [{"order": 3887, "group": "13^[1,1]*23",
                            "psi": "1107795", "quotient": "285", **edit}]}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert problem in str(info.value)
    assert len(str(info.value)) < 200


def test_checkpoint_version_error_shows_a_bounded_value(tmp_path):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps({"version": "v" * 10**5}))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(str(path))
    assert str(info.value).startswith(
        "checkpoint version 'vvvvvvvvvvvvvvvvvvvv'... (100000 characters) ")
    assert len(str(info.value)) < 200


def test_unknown_fields_error_names_a_few_and_counts_all(tmp_path):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 4000, "collisions": [],
        "divisible_hits": [], **{f"k{i}": 0 for i in range(10000)}}))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(str(path))
    assert str(info.value) == (
        "checkpoint root has unknown fields "
        "['k0', 'k1', 'k10', ... (10000 in all)]")


def test_resume_is_byte_identical(tmp_path):
    # split the run just past the first divisibility hit at 3887, so the
    # interrupted file already holds a record that must survive the resume
    single = str(tmp_path / "single.json")
    split = str(tmp_path / "split.json")
    conjecture_sweep(2, 4200, checkpoint_path=single)
    cp = conjecture_sweep(2, 3900, checkpoint_path=split)
    assert len(cp.divisible_hits) == 1
    resumed = load_checkpoint(split)
    assert resumed == cp
    conjecture_sweep(2, 4200, resumed, checkpoint_path=split)
    with open(single, "rb") as fh:
        a = fh.read()
    with open(split, "rb") as fh:
        b = fh.read()
    assert a == b


def test_sweep_saves_during_run(tmp_path, monkeypatch):
    path = str(tmp_path / "progress.json")
    monkeypatch.setattr(analysis, "BLOCK_SIZE", 500)
    conjecture_sweep(2, 2500, checkpoint_path=path)
    cp = load_checkpoint(path)
    assert cp.max_done == 2500


def test_divisibility_search():
    assert divisibility_search(10) == []
    assert divisibility_search(2000) == []
    hits = divisibility_search(4000)
    assert hits == [DivisibleRecord(3887, "13^[1,1]*23", 1107795, 285)]
    with pytest.raises(ValueError):
        divisibility_search(1)


# Every divisibility hit of order up to 2 * 10**6, computed by the
# benchmark's own arithmetic (bench/refmath.py), which shares no code with
# the package.
REFERENCE_HITS = (Path(__file__).resolve().parents[1] / "bench"
                  / "reference_hits.json")


@pytest.mark.parametrize("start, stop", [
    (2, 2 * 10 ** 5),
    # 3000-order windows around three hits of the benchmark's windows
    (1107795 - 1500, 1107795 + 1499),
    (1550913 - 1500, 1550913 + 1499),
    (1854699 - 1500, 1854699 + 1499),
])
def test_divisible_hits_match_the_independent_reference(start, stop):
    reference = json.loads(REFERENCE_HITS.read_text(encoding="utf-8"))
    assert reference["first_order"] <= start and stop <= reference["last_order"]
    expected = [[order, group, quotient]
                for order, group, quotient in reference["hits"]
                if start <= order <= stop]
    assert expected
    assert [[h.order, h.group, str(h.quotient)]
            for h in scan_orders(start, stop).divisible_hits] == expected


def test_divisible_hit_orders_are_odd_at_desk_scale():
    # empirical observation on this range, recorded but not proven:
    # no even order divides its order-sum (order-sums are odd, and an
    # even order cannot divide an odd value, so this one IS forced)
    for hit in divisibility_search(4000):
        assert hit.order % 2 == 1


def test_image_probe_small():
    assert image_probe(1).values_up_to_3 == (1,)
    report = image_probe(3)
    assert report.values_up_to_3 == (1, 3, 7)
    assert not report.conclusive
    assert "inconclusive" in report.explanation


def test_image_probe_conclusive():
    report = image_probe(100)
    assert report.conclusive
    assert "conclusive" in report.explanation
    assert report.values_up_to_3 == (1, 3, 7)


def test_image_probe_rejects_bad_bound():
    with pytest.raises(ValueError):
        image_probe(0)


def test_partition_shapes_cached_correctly():
    # the type table's per-exponent shape cache must agree with partitions_of
    from ordersum.psi_core import _shapes_of
    for e in range(1, 18):
        assert _shapes_of(e) == tuple(
            tuple(s.parts) for s in partitions_of(e))


def test_soundness_check_survives_optimize():
    # Under python -O an assert would be stripped and a forged even
    # order-sum would pass the sweep silently.
    code = (
        "import sys\n"
        "import ordersum.analysis as analysis\n"
        "import ordersum.psi_core as psi_core\n"
        "psi_core._psi_prime_power = lambda p, parts: 2 * p ** (2 * sum(parts))\n"
        "for sweep in (lambda: analysis.conjecture_sweep(2, 10),\n"
        "              lambda: analysis.image_probe(10)):\n"
        "    try:\n"
        "        sweep()\n"
        "    except analysis.SoundnessError as exc:\n"
        "        print(sys.flags.optimize, exc)\n"
    )
    proc = run_python(code, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1 even order-sum recorded: [(2, '2', 8)]"] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_soundness_error_keeps_the_blocks_before_it(tmp_path, monkeypatch,
                                                   workers):
    # The kernel raises at the first even value, in a worker too; every
    # block before the bad one is already in the checkpoint file.
    forge_psi(monkeypatch, 7, (1, 1), 338)
    monkeypatch.setattr(analysis, "BLOCK_SIZE", 10)
    path = str(tmp_path / "progress.json")
    with pytest.raises(SoundnessError) as info:
        conjecture_sweep(2, 100, workers=workers, checkpoint_path=path)
    assert str(info.value) == (
        "even order-sum recorded: [(49, '7^[1,1]', 338)]")
    assert load_checkpoint(path).max_done == 41


def test_pool_size_is_bounded_by_block_count(monkeypatch):
    # A stand-in multiprocessing context counts the workers each sweep
    # starts.  Its Process runs the lane in this process when started and
    # its Pipe is one list, so the test starts no process at all.
    import multiprocessing

    requested = []

    class InlineConnection:
        def __init__(self, sent):
            self.sent = sent

        def send(self, item):
            self.sent.append(item)

        def recv(self):
            if not self.sent:
                raise EOFError
            return self.sent.pop(0)

        def close(self):
            pass  # the lane and this test share one end: nothing to close

    class InlineProcess:
        def __init__(self, target, args, daemon):
            requested[-1] += 1
            self.target, self.args = target, args

        def start(self):
            self.target(*self.args)

        def kill(self):
            pass

        def join(self):
            pass

    class InlineContext:
        Process = InlineProcess

        def __init__(self):
            requested.append(0)

        def Pipe(self, duplex):
            sent = []
            return InlineConnection(sent), InlineConnection(sent)

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: InlineContext())
    expected = scan_orders(2, 5000)
    assert scan_orders(2, 5000, workers=100000) == expected
    assert requested == [5]
    # One block leaves one worker, which scans in process without a pool.
    assert scan_orders(2, 900, workers=8) == scan_orders(2, 900)
    assert image_probe(900, workers=8) == image_probe(900)
    assert requested == [5]
    checkpoint = conjecture_sweep(2, 2500, workers=100000)
    assert checkpoint == conjecture_sweep(2, 2500)
    assert requested == [5, 3]


def test_worker_lanes_start_no_thread_and_one_worker_forks_nothing(
        monkeypatch):
    # The lanes share no queue, lock or helper thread: the sweep only
    # forks and reads pipes.  One worker scans in this process.
    assert threading.active_count() == 1
    outcomes = []
    for outcome in analysis._iter_block_outcomes(2, 3000, 2):
        assert threading.active_count() == 1
        outcomes.append(outcome)
    assert threading.active_count() == 1

    def no_fork():
        raise AssertionError("a one-worker sweep forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert list(analysis._iter_block_outcomes(2, 3000, 1)) == outcomes


def test_monotonicity_rejects_bool_and_float_input():
    for n, p in ((True, 2), (3.0, 2), (2.5, 3), (3, 2.0), (3, 7.0), (3, True)):
        with pytest.raises(ValueError):
            monotonicity_check(n, p)


def test_monotonicity_row_leaves_the_band_sum_cache_alone():
    before = psi_core._psi_band_sum.cache_info().currsize
    report = monotonicity_check(25, 991)
    chain = [v for _, v in psi_chain(991, 25)]
    assert psi_core._psi_band_sum.cache_info().currsize == before
    assert report.ok
    assert report.types == len(chain)
    assert chain == [
        psi_core.psi_p_alt(psi_core.PGroupType(991, shape))
        for shape in partitions_of(25)]


def test_checkpoint_is_written_once_per_block(tmp_path, monkeypatch):
    # Five blocks give five writes; a resume with nothing left to scan
    # writes the file once, unchanged.
    path = str(tmp_path / "cp.json")
    writes = []

    def counted(checkpoint, where):
        writes.append(checkpoint.max_done)
        save_checkpoint(checkpoint, where)

    monkeypatch.setattr(analysis, "save_checkpoint", counted)
    monkeypatch.setattr(analysis, "BLOCK_SIZE", 100)
    conjecture_sweep(2, 501, checkpoint_path=path)
    assert writes == [101, 201, 301, 401, 501]
    with open(path, "rb") as fh:
        first = fh.read()
    writes.clear()
    conjecture_sweep(2, 501, load_checkpoint(path), checkpoint_path=path)
    assert writes == [501]
    with open(path, "rb") as fh:
        assert fh.read() == first
