"""Tests for sweeps, checkpoints, and the chain/image reports."""

import json
import tracemalloc
from itertools import combinations
from math import isqrt, prod

import pytest

import ordersum.analysis as analysis
from ordersum import psi_core
from ordersum.analysis import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CollisionRecord,
    DivisibleRecord,
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
from ordersum.psi_core import format_group_spec, group_type_of_order, psi_abelian
from support import run_python


def test_monotonicity_chain_n4_p2():
    report = monotonicity_check(4, 2)
    assert [tuple(s.parts) for s, _ in report.entries] == [
        (1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)]
    assert [v for _, v in report.entries] == [31, 47, 55, 87, 171]
    assert report.violations == ()
    assert report.strictly_increasing
    assert report.first_matches_flat_formula
    assert report.last_matches_cyclic_formula
    assert report.ok


def test_monotonicity_chain_n3_p2():
    report = monotonicity_check(3, 2)
    assert [v for _, v in report.entries] == [15, 23, 43]
    assert report.ok


def test_monotonicity_single_entry():
    for p in (2, 7):
        report = monotonicity_check(1, p)
        assert len(report.entries) == 1
        assert report.ok


def test_monotonicity_chain_length_and_ranges():
    for n in range(1, 13):
        for p in (2, 3):
            report = monotonicity_check(n, p)
            assert len(report.entries) == len(partitions_of(n))
            assert report.ok, (n, p)


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
    assert outcome.odd_violations == []
    assert outcome.bound_violations == []
    assert outcome.five_orders == []


def test_scan_orders_workers_equivalence():
    serial = scan_orders(2, 500)
    parallel = scan_orders(2, 500, workers=2, block_size=97)
    assert serial.types_scanned == parallel.types_scanned
    assert serial.collisions == parallel.collisions
    assert serial.divisible_hits == parallel.divisible_hits


@pytest.mark.parametrize("start, stop", [
    (1, 50),  # n = 1 has the empty factorization: the trivial type
    (1009 ** 2 - 999, 1009 ** 2),  # stop = 1009^2: the prime isqrt(stop) is sieved
    (1009 ** 2, 1009 ** 2 + 999),
    (10 ** 7 + 1, 10 ** 7 + 1000),
])
def test_factor_block_matches_factorize(start, stop):
    from ordersum.analysis import _factor_block
    expected = [factorize(n) if n > 1 else [] for n in range(start, stop + 1)]
    assert _factor_block(start, stop) == expected


def test_scan_orders_memory_does_not_grow_with_stop():
    # Each block factors its own orders, so sweep memory is per block and
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


def test_first_block_memory_does_not_grow_with_stop():
    # Blocks are made as they are scanned, so reaching the first block of
    # a range up to 1e9 costs what one block costs.
    tracemalloc.start()
    try:
        blocks = analysis._iter_block_outcomes(2, 10 ** 9, 1, 1000)
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
    # Blocks on both sides of 1024^2 factor correctly with their slices.
    expected = [factorize(n) for n in range(1024 ** 2 - 1500, 1024 ** 2 + 1501)]
    assert analysis._factor_block(1024 ** 2 - 1500, 1024 ** 2) \
        + analysis._factor_block(1024 ** 2 + 1, 1024 ** 2 + 1500) == expected


def _definition_outcome(start, stop):
    """What a scan of [start, stop] finds, by psi_abelian over every type."""
    out = SweepOutcome()
    for n in range(start, stop + 1):
        types = group_type_of_order(n)
        out.types_scanned += len(types)
        for t in types:
            value = psi_abelian(t)
            if value == 5:
                out.five_orders.append(n)
            if value % n == 0:
                out.divisible_hits.append(
                    DivisibleRecord(n, format_group_spec(t), value, value // n))
    return out


@pytest.mark.parametrize("start, stop", [
    (2, 4000),  # holds the smallest divisibility hits, 3887 among them
    (1009 ** 2 - 200, 1009 ** 2 + 200),
    (10 ** 7 + 1, 10 ** 7 + 300),
    (10 ** 8 - 300, 10 ** 8),
])
def test_scan_kernel_matches_definition_route(start, stop):
    # The kernel multiplies per-prime value lists; the definition route
    # builds every type and takes psi_abelian of it.  Correct formulas give
    # no collisions and no violations, so those lists stay empty.
    assert analysis._scan_range((start, stop)) == _definition_outcome(start, stop)


def test_collision_labels_follow_type_order(monkeypatch):
    # A forged psi that is odd and at least 2n - 1 (so no soundness check
    # fires) but depends only on the exponent and the parity of the number
    # of parts: orders with a square factor then hold collisions, which
    # the kernel labels from type indices.  Labels and pair order must be
    # those of itertools.combinations over group_type_of_order.
    def forged(p, parts):
        return 2 * p ** sum(parts) + 1 + 2 * (len(parts) % 2)

    monkeypatch.setattr(analysis, "_psi_prime_power", forged)
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
    assert outcome.odd_violations == outcome.bound_violations == []
    assert len({c.order for c in outcome.collisions}) > 100
    assert outcome.collisions == expected


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


def test_sweep_saves_during_run(tmp_path):
    path = str(tmp_path / "progress.json")
    conjecture_sweep(2, 2500, checkpoint_path=path, block_size=500)
    cp = load_checkpoint(path)
    assert cp.max_done == 2500


def test_divisibility_search():
    assert divisibility_search(10) == []
    assert divisibility_search(2000) == []
    hits = divisibility_search(4000)
    assert hits == [DivisibleRecord(3887, "13^[1,1]*23", 1107795, 285)]
    with pytest.raises(ValueError):
        divisibility_search(1)


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
    assert report.all_odd
    assert report.bound_holds
    assert report.five_orders == ()
    assert report.conclusive
    assert "conclusive" in report.explanation
    assert report.values_up_to_3 == (1, 3, 7)


def test_image_probe_rejects_bad_bound():
    with pytest.raises(ValueError):
        image_probe(0)


def test_partition_shapes_cached_correctly():
    # the sweep's per-exponent shape cache must agree with partitions_of
    from ordersum.analysis import _shapes_of
    for e in range(1, 18):
        assert _shapes_of(e) == tuple(
            tuple(s.parts) for s in partitions_of(e))


def test_soundness_check_survives_optimize():
    # Under python -O an assert would be stripped and a forged even
    # order-sum would pass the sweep silently.
    code = (
        "import sys\n"
        "import ordersum.analysis as analysis\n"
        "analysis._psi_prime_power = lambda p, parts: 2 * p ** (2 * sum(parts))\n"
        "try:\n"
        "    analysis.conjecture_sweep(2, 10)\n"
        "except analysis.SoundnessError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    proc = run_python(code, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 even order-sum recorded: [(2, '2', 8)")


def test_pool_size_is_bounded_by_block_count(monkeypatch):
    # A stand-in multiprocessing context records the pool size asked for
    # and maps in this process, so the test starts no process at all.
    import multiprocessing

    requested = []

    class InlinePool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    class InlineContext:
        Pool = InlinePool

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


def test_monotonicity_rejects_bool_and_float_input():
    for n, p in ((True, 2), (3.0, 2), (2.5, 3), (3, 2.0), (3, 7.0), (3, True)):
        with pytest.raises(ValueError):
            monotonicity_check(n, p)


def test_monotonicity_row_leaves_the_band_sum_cache_alone():
    before = psi_core._psi_band_sum.cache_info().currsize
    report = monotonicity_check(25, 991)
    assert psi_core._psi_band_sum.cache_info().currsize == before
    assert report.ok
    assert [v for _, v in report.entries] == [
        psi_core.psi_p_alt(psi_core.PGroupType(991, shape))
        for shape in partitions_of(25)]
