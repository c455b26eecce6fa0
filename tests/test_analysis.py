"""Tests for sweeps, checkpoints, and the chain/image reports."""

import json
import tracemalloc

import pytest

from ordersum.analysis import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CollisionRecord,
    DivisibleRecord,
    SweepCheckpoint,
    conjecture_sweep,
    divisibility_search,
    image_probe,
    load_checkpoint,
    monotonicity_check,
    save_checkpoint,
    scan_orders,
)
from ordersum.arith import factorize
from ordersum.partitions import partitions_of
from ordersum.psi_core import group_type_of_order, psi_abelian
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
