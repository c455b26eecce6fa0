"""End-to-end tests of the command line, driven through main(argv)."""

import errno
import json
import os
import re
import sys
import tracemalloc
from contextlib import redirect_stdout

import pytest

import ordersum.analysis as analysis
import ordersum.cli as cli
import ordersum.oracle as oracle
import ordersum.persistence as persistence
import ordersum.polynomial as polynomial
import ordersum.psi_core as psi_core
from ordersum.arith import ExactDivisionError
from ordersum.analysis import CHECKPOINT_VERSION
from ordersum.partitions import Partition
from ordersum.psi_core import (group_type_of_order, parse_group_spec,
                               psi_abelian, psi_chain, psi_cyclic,
                               psi_elem_abelian, psi_p_alt)
from support import forge_psi, run_python


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_compute_human(capsys):
    code, out, err = run(capsys, "compute", "2^[1,2]*3")
    assert code == 0
    assert "group: 2^[1,2]*3" in out
    assert "order: 24" in out
    assert "psi: 161" in out
    assert "method: theorem1" in out
    assert err == ""


def test_compute_json_roundtrip(capsys):
    code, record, _ = run_json(capsys, "compute", "13^[1,1]*23")
    assert code == 0
    group = parse_group_spec(record["group"])
    assert record["order"] == str(group.order) == "3887"
    assert record["psi"] == str(psi_abelian(group)) == "1107795"
    assert record["method"] == "theorem1"
    assert isinstance(record["elapsed_ms"], float)


def test_compute_trivial_group(capsys):
    code, record, _ = run_json(capsys, "compute", "1", "--verify")
    assert code == 0
    assert record["psi"] == "1"
    assert record["verify"]["match"] is True


def test_compute_parse_error(capsys):
    code, out, err = run(capsys, "compute", "2^[2,1]")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "offset 5" in err


def test_compute_verify_ok(capsys):
    code, record, _ = run_json(capsys, "compute", "2^[1,2]*3", "--verify")
    assert code == 0
    assert record["verify"]["method"] == "bruteforce"
    assert record["verify"]["psi"] == "161"
    assert record["verify"]["match"] is True


def test_compute_verify_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "psi_bruteforce", lambda moduli, max_enum: 999)
    code, record, _ = run_json(capsys, "compute", "5", "--verify")
    assert code == 1
    assert record["verify"]["match"] is False


def test_compute_verify_cap_exceeded(capsys):
    code, out, err = run(capsys, "compute", "2^[30]", "--verify")
    assert code == 2
    assert "error:" in err


def test_compute_verify_cap_boundary(capsys):
    code, out, err = run(capsys, "compute", "13^[1,1]*23", "--verify",
                         "--max-enum", "3886")
    assert (code, out) == (2, "")
    assert err == ("error: enumeration of 3887 elements exceeds the cap of "
                   "3886; raise the cap explicitly to force it\n")
    code, record, _ = run_json(capsys, "compute", "13^[1,1]*23", "--verify",
                               "--max-enum", "3887")
    assert code == 0
    assert record["verify"]["psi"] == "1107795"


def test_compute_internal_error_exit_code(capsys, monkeypatch):
    def boom(group):
        raise AssertionError("deliberate failure for the exit-code test")
    monkeypatch.setattr(cli, "psi_abelian", boom)
    code, out, err = run(capsys, "compute", "5")
    assert code == 3
    assert err.startswith("internal error:")


def test_exact_division_error_is_internal(capsys, monkeypatch):
    def boom(group):
        raise ExactDivisionError("deliberate failure")
    monkeypatch.setattr(cli, "psi_abelian", boom)
    code, _, err = run(capsys, "compute", "5")
    assert code == 3
    assert err.startswith("internal error:")


def test_list_rows(capsys):
    code, record, _ = run_json(capsys, "list", "36")
    assert code == 0
    assert record["count"] == 4
    expected = {cli.format_group_spec(t): str(psi_abelian(t))
                for t in group_type_of_order(36)}
    assert {r["group"]: r["psi"] for r in record["rows"]} == expected


def _definition_rows(n):
    return [{"group": cli.format_group_spec(t), "psi": str(psi_abelian(t)),
             "method": "theorem1"} for t in group_type_of_order(n)]


def test_list_rows_follow_the_definition_route(capsys):
    # Every row, in order, is the type group_type_of_order gives with its
    # spec text and psi_abelian value: n <= 3000 (1, every prime and prime
    # power there included), then orders of 3 and 4 primes.
    orders = [*range(1, 3001), 2 ** 12 * 3 ** 5 * 5 ** 7,
              2 ** 4 * 3 ** 3 * 5 ** 2 * 7 ** 6, 11 ** 8 * 13 ** 6 * 17 ** 5,
              2 ** 3 * 3 ** 11 * 7 ** 4 * 11 ** 2, 1000003]
    for n in orders:
        code, record, _ = run_json(capsys, "list", str(n))
        assert code == 0
        assert record["count"] == len(record["rows"])
        assert record["rows"] == _definition_rows(n), n


def test_list_human_table(capsys):
    code, out, _ = run(capsys, "list", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("order 4: 2 abelian type(s)")
    assert any("2^[1,1]" in line and "psi=7" in line for line in lines[1:])
    assert any("2^[2]" in line and "psi=11" in line for line in lines[1:])


def test_list_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "list", "0")
    assert code == 2
    assert "error:" in err


def test_poly_single_part(capsys):
    code, record, _ = run_json(capsys, "poly", "[1]")
    assert code == 0
    assert record["degree"] == 2
    assert record["polynomial"] == "x^2-x+1"
    assert record["coefficients"] == ["1", "-1", "1"]
    families = {c["family"] for c in record["closed_forms"]}
    assert "corollary2a" in families
    assert all(c["match"] for c in record["closed_forms"])


def test_poly_matches_library(capsys):
    from ordersum.partitions import Partition
    from ordersum.polynomial import psi_symbolic
    for shape in ((1, 2), (2, 2), (1, 1, 3)):
        code, record, _ = run_json(capsys, "poly",
                                   "[" + ",".join(map(str, shape)) + "]")
        assert code == 0
        poly = psi_symbolic(Partition(shape))
        assert record["polynomial"] == str(poly)
        assert record["degree"] == poly.degree
        assert record["coefficients"] == [str(c) for c in poly.coeffs]


def test_poly_families_for_rank2(capsys):
    code, record, _ = run_json(capsys, "poly", "[1,2]")
    assert code == 0
    families = {c["family"] for c in record["closed_forms"]}
    assert families == {"corollary2c", "corollary2d"}
    assert all(c["residual"] == "0" for c in record["closed_forms"])


def test_poly_uncovered_shape_has_no_closed_forms(capsys):
    code, record, _ = run_json(capsys, "poly", "[1,2,2,3]")
    assert code == 0
    assert record["closed_forms"] == []
    assert record["degree"] == 2 * 3 + 1 + 2 + 2


def test_poly_malformed_shape(capsys):
    for bad in ("1,2", "[2,1]", "[a]", "[]", "[0]"):
        code, _, err = run(capsys, "poly", bad)
        assert code == 2, bad
        assert "error:" in err


def test_poly_shape_is_read_by_the_spec_grammar(capsys):
    # A leading zero is refused, as in 2^[01], at the offset of the digit.
    code, _, err = run(capsys, "poly", "[01]")
    assert code == 2
    assert "offset 1: an exponent has a leading zero" in err


def test_compute_rejects_non_ascii_digits(capsys):
    code, _, err = run(capsys, "compute", "\u00b2")
    assert code == 2
    assert "offset 0: expected a prime" in err


def test_poly_rejects_non_ascii_digits(capsys):
    code, _, err = run(capsys, "poly", "[\u00b2]")
    assert code == 2
    assert "offset 1: expected an exponent" in err


def test_relative_rejects_non_ascii_generator(capsys):
    code, _, err = run(capsys, "relative", "2^[2]", "--gen", "\u00b2")
    assert code == 2
    assert "not an integer" in err


def test_relative_examples(capsys):
    code, record, _ = run_json(capsys, "relative", "2^[2]", "--gen", "2")
    assert code == 0
    assert record["subgroup_order"] == "2"
    assert record["psi_relative"] == "6"
    assert record["per_coset_average"] == "3"

    code, record, _ = run_json(capsys, "relative", "2^[2]")
    assert code == 0
    assert record["subgroup_order"] == "1"
    assert record["psi_relative"] == "11"

    code, record, _ = run_json(capsys, "relative", "2^[2]", "--gen", "1")
    assert code == 0
    assert record["subgroup_order"] == "4"
    assert record["psi_relative"] == "4"


def test_relative_two_factor_group(capsys):
    code, out, _ = run(capsys, "relative", "2^[1,2]", "--gen", "1,2")
    assert code == 0
    assert "psi_relative: 22" in out
    assert "per-coset average: 11 (division exact)" in out


def test_relative_trivial_group(capsys):
    code, record, _ = run_json(capsys, "relative", "1")
    assert code == 0
    assert record["psi_relative"] == "1"
    code, _, err = run(capsys, "relative", "1", "--gen", "0")
    assert code == 2
    assert err == ("error: generator 1: has 1 component(s), the group has 0 "
                   "cyclic factor(s)\n")


@pytest.mark.parametrize("argv", [("compute", "1", "--verify"),
                                  ("relative", "1")])
def test_trivial_group_counts_against_the_cap(capsys, argv):
    # The oracle enumerates the one-element group like any other, so the
    # element cap applies to it as well.
    code, out, err = run(capsys, *argv, "--max-enum", "0")
    assert (code, out) == (2, "")
    assert err == ("error: enumeration of 1 elements exceeds the cap of 0; "
                   "raise the cap explicitly to force it\n")
    code, _, _ = run(capsys, *argv, "--max-enum", "1")
    assert code == 0


def test_relative_generator_errors(capsys):
    code, _, err = run(capsys, "relative", "2^[2]", "--gen", "5")
    assert code == 2
    assert "generator 1, component 0: residue 5 not in [0, 4)" in err

    code, _, err = run(capsys, "relative", "2^[2]", "--gen", "1,2")
    assert code == 2
    assert "generator 1: has 2 component(s)" in err

    code, _, err = run(capsys, "relative", "2^[2]", "--gen", "x")
    assert code == 2
    assert "not an integer" in err


def test_sweep_flag_validation(capsys):
    cases = [
        ("sweep", "conjecture"),
        ("sweep", "conjecture", "--to", "100", "--from", "1"),
        ("sweep", "conjecture", "--from", "10", "--to", "5"),
        ("sweep", "conjecture", "--to", "100", "--workers", "0"),
        ("sweep", "conjecture", "--to", "100", "--n", "3"),
        ("sweep", "conjecture", "--to", "100", "--resume"),
        ("sweep", "divisibility"),
        ("sweep", "image"),
        ("sweep", "image", "--to", "0"),
        ("sweep", "image", "--to", "10", "--from", "2"),
        ("sweep", "image", "--to", "10", "--resume"),
        ("sweep", "monotonicity"),
        ("sweep", "monotonicity", "--n", "3"),
        ("sweep", "monotonicity", "--n", "3", "--p", "4"),
        ("sweep", "monotonicity", "--n", "0", "--p", "2"),
        ("sweep", "monotonicity", "--n", "3", "--p", "2", "--to", "9"),
        ("sweep", "monotonicity", "--n", "3", "--p", "2", "--workers", "2"),
        ("sweep", "monotonicity", "--n", "3", "--p", "2", "--resume"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err, argv


def test_monotonicity_exponent_is_bounded(capsys, monkeypatch):
    # The chain's time and text grow with its p(n) shapes; past the bound
    # the parser refuses n before monotonicity_check walks any of them.
    seen = []

    def chain(n, p, entries):
        seen.append(n)
        raise cli.UsageError("stopped before enumerating")
    monkeypatch.setattr(analysis, "monotonicity_check", chain)
    code, out, err = run(capsys, "sweep", "monotonicity", "--n", "61",
                         "--p", "2")
    assert (code, out, seen) == (2, "", [])
    assert err.endswith("error: argument --n: '61' is not an integer "
                        "from 1 to 60\n")
    code, _, err = run(capsys, "sweep", "monotonicity", "--n", "60", "--p", "2")
    assert (code, err, seen) == (2, "error: stopped before enumerating\n", [60])
    code, out, _ = run(capsys, "sweep", "monotonicity", "--help")
    assert code == 0
    assert "from 1 to 60" in out


@pytest.mark.parametrize("usage, argv, unknown", [
    ("ordersum sweep image", ("--to", "10", "--from", "2"), "--from 2"),
    ("ordersum sweep monotonicity", ("--n", "3", "--p", "2", "--resume"),
     "--resume"),
    ("ordersum compute", ("2", "--bogus"), "--bogus"),
])
def test_unknown_flag_is_reported_under_its_subcommand(capsys, usage, argv,
                                                        unknown):
    # The usage line shown is the subcommand's, which lists the flags it
    # does take, not the top-level one.
    code, out, err = run(capsys, *usage.split()[1:], *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {usage} ")
    assert err.endswith(f"{usage}: error: unrecognized arguments: {unknown}\n")


def test_sweep_unknown_kind_is_usage_error(capsys):
    code, _, _ = run(capsys, "sweep", "bogus", "--to", "10")
    assert code == 2


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "compute" in out and "sweep" in out


def test_sweep_conjecture_clean_range(capsys):
    code, record, _ = run_json(capsys, "sweep", "conjecture", "--to", "300")
    assert code == 0
    assert record["anomaly"] is False
    assert record["collisions"] == []
    assert record["max_done"] == 300
    assert record["from"] == 2


def test_sweep_divisibility_hit_and_clean(capsys):
    code, record, _ = run_json(capsys, "sweep", "divisibility", "--to", "4000")
    assert code == 1
    assert record["anomaly"] is True
    assert [h["order"] for h in record["divisible_hits"]] == [3887]
    hit = record["divisible_hits"][0]
    assert hit["group"] == "13^[1,1]*23"
    assert hit["psi"] == "1107795"
    assert hit["quotient"] == "285"
    assert record["smallest_hit_order"] == 3887
    assert "not a proven minimum" in record["smallest_hit_note"]

    code, record, _ = run_json(capsys, "sweep", "divisibility", "--to", "2000")
    assert code == 0
    assert record["divisible_hits"] == []
    assert "smallest_hit_order" not in record


def test_sweep_conjecture_ignores_divisibility_hits(capsys):
    # a divisibility hit is an anomaly for the divisibility sweep only
    code, record, _ = run_json(capsys, "sweep", "conjecture",
                               "--from", "3880", "--to", "3890")
    assert code == 0
    assert record["anomaly"] is False
    assert [h["order"] for h in record["divisible_hits"]] == [3887]


def test_sweep_monotonicity_ok(capsys):
    code, record, _ = run_json(capsys, "sweep", "monotonicity",
                               "--n", "20", "--p", "3")
    assert code == 0
    assert record["ok"] is True
    assert record["types"] == 627
    assert record["violations"] == []


def test_sweep_monotonicity_chain_values(capsys):
    code, record, _ = run_json(capsys, "sweep", "monotonicity",
                               "--n", "4", "--p", "2")
    assert code == 0
    assert [c["psi"] for c in record["chain"]] == [
        "31", "47", "55", "87", "171"]


def test_sweep_image_conclusive(capsys):
    code, record, _ = run_json(capsys, "sweep", "image", "--to", "50")
    assert code == 0
    assert record["anomaly"] is False
    assert record["conclusive"] is True
    assert record["values_up_to_3"] == ["1", "3", "7"]
    assert record["five_orders"] == []
    assert "conclusive" in record["explanation"]


def test_sweep_image_inconclusive_is_not_anomalous(capsys):
    code, record, _ = run_json(capsys, "sweep", "image", "--to", "3")
    assert code == 0
    assert record["conclusive"] is False


def test_sweep_image_report_file(capsys, tmp_path):
    path = tmp_path / "image.json"
    code, record, _ = run_json(capsys, "sweep", "image", "--to", "30",
                               "--checkpoint", str(path))
    assert code == 0
    with open(path) as fh:
        on_disk = json.load(fh)
    assert on_disk == record


def test_sweep_monotonicity_report_file(capsys, tmp_path):
    path = tmp_path / "mono.json"
    code, _, _ = run(capsys, "sweep", "monotonicity", "--n", "5", "--p", "2",
                     "--checkpoint", str(path))
    assert code == 0
    with open(path) as fh:
        on_disk = json.load(fh)
    assert on_disk["ok"] is True
    assert on_disk["kind"] == "monotonicity"


def test_sweep_conjecture_reports_the_real_collision(capsys):
    order = "21069103104"
    code, record, _ = run_json(capsys, "sweep", "conjecture",
                               "--from", order, "--to", order)
    assert code == 1
    assert record["anomaly"] is True
    assert record["collisions"] == [{
        "order": 21069103104,
        "group_a": "2^[1,1,1,1,1,1,1,2,2,5]*3^[2,2,2,2]*7^[2]",
        "group_b": "2^[1,1,1,1,1,1,1,1,8]*3^[1,1,1,1,1,1,2]*7^[1,1]",
        "psi": "173109506110475"}]


def test_sweep_checkpoint_file_flows(capsys, tmp_path):
    path = str(tmp_path / "cp.json")
    code, _, _ = run_json(capsys, "sweep", "conjecture", "--to", "400",
                          "--checkpoint", path)
    assert code == 0

    # same file again without --resume: refused
    code, _, err = run(capsys, "sweep", "conjecture", "--to", "500",
                       "--checkpoint", path)
    assert code == 2
    assert "pass --resume" in err

    # resume forward works and advances the watermark
    code, record, _ = run_json(capsys, "sweep", "conjecture", "--to", "500",
                               "--checkpoint", path, "--resume")
    assert code == 0
    assert record["max_done"] == 500

    # resume pointing at a missing file: refused
    code, _, err = run(capsys, "sweep", "conjecture", "--to", "500",
                       "--checkpoint", str(tmp_path / "nope.json"), "--resume")
    assert code == 2
    assert "does not exist" in err


def test_sweep_checkpoint_rejects_corrupt_and_foreign(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "sweep", "conjecture", "--to", "100",
                       "--checkpoint", str(bad), "--resume")
    assert code == 2
    assert "not valid JSON" in err

    future = tmp_path / "future.json"
    future.write_text(json.dumps({
        "version": CHECKPOINT_VERSION + 1, "max_done": 50,
        "collisions": [], "divisible_hits": []}))
    code, _, err = run(capsys, "sweep", "conjecture", "--to", "100",
                       "--checkpoint", str(future), "--resume")
    assert code == 2
    assert "version" in err

    gapped = tmp_path / "gapped.json"
    gapped.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 10,
        "collisions": [], "divisible_hits": []}))
    code, _, err = run(capsys, "sweep", "conjecture", "--from", "100",
                       "--to", "200", "--checkpoint", str(gapped), "--resume")
    assert code == 2
    assert "gap" in err


def test_sweep_resume_refuses_a_stop_below_the_watermark(capsys, tmp_path):
    path = tmp_path / "cp.json"
    code, _, _ = run(capsys, "sweep", "divisibility", "--to", "4000",
                     "--checkpoint", str(path))
    assert code == 1
    before = path.read_bytes()
    code, out, err = run(capsys, "sweep", "divisibility", "--to", "3000",
                         "--checkpoint", str(path), "--resume")
    assert code == 2
    assert out == ""
    assert err == ("error: checkpoint (orders <= 4000 done) is past the "
                   "requested stop 3000\n")
    assert path.read_bytes() == before


def test_sweep_resume_rejects_non_ascii_digits(capsys, tmp_path):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 10, "collisions": [],
        "divisible_hits": [{"order": 4, "group": "2^[2]", "psi": "\u00b2",
                            "quotient": "1"}]}))
    code, _, err = run(capsys, "sweep", "divisibility", "--to", "100",
                       "--checkpoint", str(path), "--resume")
    assert code == 2
    assert "decimal string" in err


def _checkpoint_bytes(**edit) -> bytes:
    # A valid divisibility checkpoint through order 3900, with one edit.
    return json.dumps({
        "version": CHECKPOINT_VERSION, "max_done": 3900, "collisions": [],
        "divisible_hits": [{"order": 3887, "group": "13^[1,1]*23",
                            "psi": "1107795", "quotient": "285"}],
        **edit}).encode()


DAMAGED_CHECKPOINTS = {
    "non-object entry": (_checkpoint_bytes(collisions=[7]), "collisions[0]"),
    "unknown record key": (_checkpoint_bytes(divisible_hits=[{
        "order": 3887, "group": "13^[1,1]*23", "psi": "1107795",
        "quotient": "285", "note": "x"}]), "divisible_hits[0]"),
    "version true": (_checkpoint_bytes(version=True), "version"),
    "hit above max_done": (_checkpoint_bytes(max_done=10),
                           "divisible_hits[0]"),
    "psi not order times quotient": (_checkpoint_bytes(divisible_hits=[{
        "order": 4, "group": "2^[2]", "psi": "11", "quotient": "1"}]),
        "divisible_hits[0]"),
    "not UTF-8": (b"\xff{}", "PATH"),
    "nested too deep": (b"[" * 100000 + b"]" * 100000, "PATH"),
}


@pytest.mark.parametrize("case", DAMAGED_CHECKPOINTS)
def test_sweep_resume_refuses_damaged_checkpoint(capsys, tmp_path, case):
    content, where = DAMAGED_CHECKPOINTS[case]
    path = tmp_path / "cp.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "sweep", "divisibility", "--to", "4000",
                         "--checkpoint", str(path), "--resume")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: checkpoint ")
    assert where.replace("PATH", str(path)) in err
    assert path.read_bytes() == content


def test_sweep_resume_shows_a_bounded_value(capsys, tmp_path):
    path = tmp_path / "cp.json"
    path.write_bytes(_checkpoint_bytes(divisible_hits=[{
        "order": 3887, "group": "13^[1,1]*23", "psi": "x" * 10**6,
        "quotient": "285"}]))
    code, out, err = run(capsys, "sweep", "divisibility", "--to", "4000",
                         "--checkpoint", str(path), "--resume")
    assert (code, out) == (2, "")
    assert err == ("error: checkpoint divisible_hits[0].psi must be a decimal "
                   "string, got 'xxxxxxxxxxxxxxxxxxxx'... (1000000 characters)\n")
    assert len(err) < 200


@pytest.mark.parametrize("kind, target", [
    ("divisibility", "missing/x.json"),
    ("image", "DIR"),
])
def test_unwritable_checkpoint_path_exits_2(tmp_path, kind, target):
    (tmp_path / "DIR").mkdir()
    path = tmp_path / target
    proc = run_module("sweep", kind, "--to", "100", "--checkpoint", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {path}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.tmp"))


def test_directory_at_the_old_temp_name_does_not_block_a_write(
        capsys, tmp_path):
    (tmp_path / "x.json.tmp").mkdir()
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "sweep", "divisibility", "--to", "100",
                         "--checkpoint", str(path))
    assert (code, err) == (0, "")
    assert analysis.load_checkpoint(str(path)).max_done == 100
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json",
                                                          "x.json.tmp"]


def test_damaged_checkpoint_is_refused_under_optimize(tmp_path):
    path = tmp_path / "cp.json"
    path.write_bytes(DAMAGED_CHECKPOINTS["non-object entry"][0])
    argv = ["sweep", "divisibility", "--to", "4000", "--checkpoint",
            str(path), "--resume"]
    proc = run_python("import sys\n"
                      "from ordersum.cli import entry\n"
                      "print(sys.flags.optimize, flush=True)\n"
                      f"sys.argv[1:] = {argv!r}\n"
                      "entry()\n", "-O")
    assert proc.returncode == 2
    assert proc.stdout == "1\n"
    assert proc.stderr.splitlines() == [
        "error: checkpoint collisions[0] must be an object, got an integer"]


def test_sweep_json_lists_are_the_checkpoint_lists(capsys, tmp_path):
    path = tmp_path / "cp.json"
    code, record, _ = run_json(capsys, "sweep", "divisibility", "--to", "4000",
                               "--checkpoint", str(path))
    assert code == 1
    saved = json.loads(path.read_text())
    assert record["divisible_hits"] == saved["divisible_hits"] != []
    assert record["collisions"] == saved["collisions"]


def test_poly_builds_its_polynomial_once(capsys, monkeypatch):
    # Covered or not, the shape's polynomial comes from the one
    # closed-form report, which builds it once.  The CLI holds no name of
    # its own for psi_symbolic, so patching the module's counts every call.
    assert not hasattr(cli, "psi_symbolic")
    calls = []
    real = polynomial.psi_symbolic
    monkeypatch.setattr(polynomial, "psi_symbolic",
                        lambda shape: calls.append(shape) or real(shape))
    for text, covered in (("[1,2]", True), ("[1,1,2,3]", False)):
        calls.clear()
        code, record, _ = run_json(capsys, "poly", text)
        assert code == 0
        assert bool(record["closed_forms"]) == covered
        assert len(calls) == 1


def test_sweep_resume_bytes_match_single_run(capsys, tmp_path):
    full = str(tmp_path / "full.json")
    split = str(tmp_path / "split.json")
    code, _, _ = run(capsys, "sweep", "divisibility", "--to", "4000",
                     "--checkpoint", full)
    assert code == 1
    code, _, _ = run(capsys, "sweep", "divisibility", "--to", "3900",
                     "--checkpoint", split)
    assert code == 1
    code, _, _ = run(capsys, "sweep", "divisibility", "--to", "4000",
                     "--checkpoint", split, "--resume")
    assert code == 1
    with open(full, "rb") as fh:
        a = fh.read()
    with open(split, "rb") as fh:
        b = fh.read()
    assert a == b


def test_sweep_workers_do_not_change_output(capsys):
    def scrub(record):
        return {k: v for k, v in record.items()
                if k not in ("elapsed_ms", "workers")}

    code1, rec1, _ = run_json(capsys, "sweep", "divisibility", "--to", "3900")
    code3, rec3, _ = run_json(capsys, "sweep", "divisibility", "--to", "3900",
                              "--workers", "3")
    assert code1 == code3 == 1
    assert rec1["divisible_hits"] == rec3["divisible_hits"]
    assert scrub(rec1) == scrub(rec3)

    code1, rec1, _ = run_json(capsys, "sweep", "image", "--to", "800")
    code3, rec3, _ = run_json(capsys, "sweep", "image", "--to", "800",
                              "--workers", "3")
    assert code1 == code3 == 0
    assert scrub(rec1) == scrub(rec3)


def test_compute_prints_order_sums_past_digit_limit(capsys):
    # psi has about 8500 decimal digits, past the interpreter's default
    # int-to-str limit of 4300; main lifts the limit for the command only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    spec = "1000003^[10,200,500]"
    code, record, err = run_json(capsys, "compute", spec)
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    expected = 1
    for c in parse_group_spec(spec).components:
        expected *= psi_p_alt(c)
    text = record["psi"]
    value = 0
    for i in range(0, len(text), 1000):  # int() of chunks under the limit
        value = value * 10 ** len(text[i:i + 1000]) + int(text[i:i + 1000])
    assert value == expected


def test_soundness_error_is_internal(capsys, monkeypatch):
    monkeypatch.setattr(psi_core, "_psi_prime_power", lambda p, parts: 2 * p ** 4)
    code, out, err = run(capsys, "sweep", "conjecture", "--to", "10")
    assert code == 3
    assert err.startswith("internal error: even order-sum recorded")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kind", ["conjecture", "divisibility", "image"])
def test_every_sweep_exits_3_on_an_even_order_sum(capsys, monkeypatch, kind,
                                                  workers):
    # Two blocks of 1000 orders, so two workers both scan.
    forge_psi(monkeypatch, 7, (1, 1), 338)
    code, out, err = run(capsys, "sweep", kind, "--to", "2000",
                         "--workers", workers)
    assert (code, out) == (3, "")
    assert err == ("internal error: even order-sum recorded: "
                   "[(49, '7^[1,1]', 338)]\n")


# Where the sweep kernel takes a value from: a prime of exponent 1 that
# the block sieves (7 <= isqrt of every block's stop), a prime cofactor
# above isqrt(stop) (1009 lies in the second block, whose stop is below
# 1009^2), and a powerful part whose values are folded once for the
# orders of a block that share it (2^3 at 8, 24, 40, ...).
SEAMS = {
    "sieved prime": ((7, (1,), 44), "[(7, '7', 44)]"),
    "cofactor": ((1009, (1,), 1017074), "[(1009, '1009', 1017074)]"),
    "powerful part": ((2, (1, 2), 24), "[(8, '2^[1,2]', 24)]"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kind", ["conjecture", "divisibility", "image"])
@pytest.mark.parametrize("seam", sorted(SEAMS))
def test_a_forged_value_fires_at_every_seam_of_the_kernel(
        capsys, monkeypatch, seam, kind, workers):
    # Three blocks of orders, so two workers both scan.
    forged, shown = SEAMS[seam]
    forge_psi(monkeypatch, *forged)
    code, out, err = run(capsys, "sweep", kind, "--to", "3000",
                         "--workers", workers)
    assert (code, out) == (3, "")
    assert err == f"internal error: even order-sum recorded: {shown}\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_forge_after_a_clean_sweep_still_fires(capsys, monkeypatch, workers):
    # Nothing the kernel folds outlives the sweep that folded it.
    argv = ["sweep", "divisibility", "--to", "3000", "--workers", workers]
    assert run(capsys, *argv)[0] == 0
    for forged, shown in SEAMS.values():
        with monkeypatch.context() as patch:
            forge_psi(patch, *forged)
            assert run(capsys, *argv) == (
                3, "", f"internal error: even order-sum recorded: {shown}\n")
        assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("kind", ["conjecture", "divisibility", "image"])
def test_a_five_above_order_3_exits_3(capsys, monkeypatch, kind):
    forge_psi(monkeypatch, 5, (1,), 5)
    code, out, err = run(capsys, "sweep", kind, "--to", "100")
    assert (code, out) == (3, "")
    assert err == ("internal error: order-sum below 2n-1 recorded: "
                   "[(5, '5', 5)]\n")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("order", [2, 3])
def test_a_five_at_order_2_or_3_exits_3(capsys, monkeypatch, order, workers):
    # A 5 at order 2 or 3 is odd and >= 2n - 1, so the kernel passes it;
    # image_probe's check of orders 1..3 after the scan raises.  Blocks of
    # 50 orders, so two workers both scan.
    forge_psi(monkeypatch, order, (1,), 5)
    monkeypatch.setattr(analysis, "BLOCK_SIZE", 50)
    shown = ("order-sum other than 1, 3, 7 at orders 1..3 recorded: "
             f"[({order}, '{order}', 5)]")
    with pytest.raises(analysis.SoundnessError) as info:
        analysis.image_probe(100, workers=int(workers))
    assert str(info.value) == shown
    assert run(capsys, "sweep", "image", "--to", "100", "--workers",
               workers) == (3, "", f"internal error: {shown}\n")


def test_relative_checks_the_cap_before_the_closure(capsys, monkeypatch):
    # The cap is on |G|; building H first would walk 2^20 elements and
    # then name the closure's size, not the group's.  No generator is
    # checked, so no element is walked, before the cap refuses the group.
    called = []
    real = oracle._check_element

    def check(*args, **kwargs):
        called.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_check_element", check)
    code, out, err = run(capsys, "relative", "2^[21]", "--gen", "1")
    assert (code, out) == (2, "")
    assert err == ("error: enumeration of 2097152 elements exceeds the cap of "
                   "1048576; raise the cap explicitly to force it\n")
    # The cap comes first even when a generator does not fit the group.
    assert run(capsys, "relative", "2^[21]", "--gen", "1,1") == (2, "", err)
    assert called == []


def test_relative_inexact_average_is_internal(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "psi_relative", lambda moduli, sub, max_enum: 7)
    code, out, err = run(capsys, "relative", "2^[2]", "--gen", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


def test_cli_import_leaves_multiprocessing_unloaded():
    proc = run_python("import sys, ordersum.cli\n"
                      "print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, layers", [
    (["compute", "2^[1,2]*3"], set()),
    (["list", "36"], set()),
    (["poly", "[1,2]"], {"polynomial"}),
    (["compute", "2^[1,2]*3", "--verify"], {"oracle"}),
    (["relative", "2^[1,2]", "--gen", "1,2"], {"oracle"}),
    (["sweep", "divisibility", "--to", "100"], {"analysis"}),
    (["sweep", "monotonicity", "--n", "5", "--p", "2"], {"analysis"}),
], ids=" ".join)
def test_each_command_loads_only_its_layers(monkeypatch, argv, layers):
    # A fresh call without bytecode files compiles every module it
    # imports, so a command imports a layer only if its handler runs it,
    # and json, whose import compiles its regular expressions, only to
    # read a checkpoint.  Without the site module (-S), no site hook
    # imports a module first.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    proc = run_python(
        "import runpy, sys\n"
        f"sys.argv = ['ordersum', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('ordersum.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, *sorted(sys.modules))\n", "-S")
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert {"ordersum.psi_core", "ordersum.persistence"} <= set(loaded)
    assert "json" not in loaded
    assert {f"ordersum.{layer}" for layer in layers} == set(loaded) & {
        "ordersum.analysis", "ordersum.oracle", "ordersum.polynomial"}


def test_ctrl_c_reaches_an_in_process_caller_with_the_resume_note(tmp_path):
    # Only entry(), the program, turns Ctrl-C into one line and a death by
    # SIGINT; main() raises it on, and nothing imports signal.  The note
    # names a checkpoint only once the file is there: a fresh sweep stopped
    # before its first block ends has nothing to resume.
    absent = tmp_path / "absent.json"
    present = tmp_path / "present.json"
    proc = run_python(
        "import sys\n"
        "from ordersum import analysis, cli\n"
        "def stop(*args, checkpoint_path=None, **kwargs):\n"
        f"    if checkpoint_path == {str(present)!r}:\n"
        "        open(checkpoint_path, 'w').close()  # its first block ended\n"
        "    raise KeyboardInterrupt\n"
        "analysis.conjecture_sweep = cli.psi_abelian = stop\n"
        "for argv in (['sweep', 'divisibility', '--to', '9',\n"
        f"              '--checkpoint', {str(absent)!r}],\n"
        "             ['sweep', 'conjecture', '--to', '9',\n"
        f"              '--checkpoint', {str(present)!r}],\n"
        "             ['sweep', 'conjecture', '--to', '9'], ['compute', '2']):\n"
        "    try:\n"
        "        cli.main(argv)\n"
        "    except KeyboardInterrupt as exc:\n"
        "        print(exc.args)\n"
        "print('signal' in sys.modules)\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (f"(None,)\n('--resume continues from {present}',)\n"
                           "(None,)\n(None,)\nFalse\n")
    assert not absent.exists()


SWEEP_KIND_FLAGS = {
    "conjecture": {"--from", "--to", "--workers", "--checkpoint", "--resume"},
    "divisibility": {"--from", "--to", "--workers", "--checkpoint",
                     "--resume"},
    "image": {"--to", "--workers", "--checkpoint"},
    "monotonicity": {"--n", "--p", "--checkpoint"},
}


@pytest.mark.parametrize("kind", sorted(SWEEP_KIND_FLAGS))
def test_sweep_kind_help_lists_only_its_flags(capsys, kind):
    code, out, _ = run(capsys, "sweep", kind, "--help")
    assert code == 0
    shown = set(re.findall(r"--[a-z][a-z-]*", out))
    assert shown == SWEEP_KIND_FLAGS[kind] | {"--json", "--help"}


def _scrub(out):
    return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', out)


def test_repeated_main_calls_match_lone_calls(capsys):
    # main() reuses one parser; nothing from an earlier call, a usage
    # error or repeated --gen flags included, may reach a later one.
    calls = [
        ("relative", "2^[1,2]", "--gen", "1,0", "--gen", "0,2", "--json"),
        ("sweep", "image", "--to", "0", "--json"),
        ("relative", "2^[1,2]", "--gen", "1,2", "--json"),
        ("relative", "2^[1,2]", "--json"),
        ("sweep", "conjecture", "--to", "50", "--n", "3"),
        ("compute", "2^[1,2]*3", "--verify", "--max-enum", "30", "--json"),
        ("compute", "2^[1,2]*3", "--json"),
        ("sweep", "divisibility", "--from", "3880", "--to", "3890",
         "--workers", "2", "--json"),
        ("sweep", "conjecture", "--to", "40", "--json"),
        ("sweep", "monotonicity", "--n", "4", "--p", "2", "--json"),
    ]
    lone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        code, out, err = run(capsys, *argv)
        lone.append((code, _scrub(out), err))
    cli.build_parser.cache_clear()
    for argv, expected in zip(calls + calls, lone + lone):
        code, out, err = run(capsys, *argv)
        assert (code, _scrub(out), err) == expected, argv
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in lone] == [0, 2, 0, 0, 2, 0, 0, 1, 0, 0]


def test_parser_is_built_once_per_process():
    proc = run_python(
        "import contextlib, io\n"
        "import ordersum.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(['list', '4']), cli.main(['list', '0']),\n"
        "             cli.main(['compute', '5', '--json'])]\n"
        "print(codes, cli.build_parser.cache_info().misses)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 2, 0] 1"


def run_module(*argv):
    # python -m ordersum.cli ARGV, in a fresh interpreter.
    return run_python(
        "import runpy, sys\n"
        f"sys.argv = ['ordersum', *{list(argv)!r}]\n"
        "runpy.run_module('ordersum.cli', run_name='__main__', "
        "alter_sys=True)\n")


def test_module_entry_point_exit_codes():
    proc = run_module("sweep", "monotonicity", "--n", "3", "--p", "2",
                      "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    proc = run_module("sweep", "image", "--to", "10", "--from", "2")
    assert proc.returncode == 2
    assert "--from" in proc.stderr


INTEGER_ARGUMENTS = {
    "list": ("list", "{}"),
    "--from": ("sweep", "conjecture", "--to", "100", "--from", "{}"),
    "--to": ("sweep", "divisibility", "--to", "{}"),
    "--workers": ("sweep", "image", "--to", "10", "--workers", "{}"),
    "--n": ("sweep", "monotonicity", "--n", "{}", "--p", "2"),
    "--p": ("sweep", "monotonicity", "--n", "3", "--p", "{}"),
    "--max-enum": ("compute", "2", "--verify", "--max-enum", "{}"),
}


@pytest.mark.parametrize("text", ["٧٢", "7_2", " 3", "+3"])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_are_ascii_digits_only(capsys, argument, text):
    # int() takes Arabic-Indic digits, "_" separators, whitespace and a
    # sign; an integer argument takes ASCII digits only.
    argv = [a.format(text) for a in INTEGER_ARGUMENTS[argument]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert "error:" in err, argv


@pytest.mark.parametrize("text", ["٣", " 1", "1_0", "-1", "1,+1"])
def test_relative_generator_residues_are_ascii_digits_only(capsys, text):
    code, out, err = run(capsys, "relative", "2^[3]*3", "--gen", text)
    assert (code, out) == (2, "")
    assert "not an integer" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "image", "--to", "30"),
    ("sweep", "monotonicity", "--n", "5", "--p", "2"),
])
def test_report_file_is_the_json_output(capsys, tmp_path, argv):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--json", "--checkpoint", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("argv", [
    ("sweep", "image", "--to", "30"),
    ("sweep", "monotonicity", "--n", "5", "--p", "2"),
])
def test_report_file_and_json_output_are_one_text(capsys, tmp_path,
                                                   monkeypatch, argv):
    calls = []
    json_text = persistence.json_text

    def counted(record):
        calls.append(record)
        return json_text(record)
    monkeypatch.setattr(persistence, "json_text", counted)
    monkeypatch.setattr(cli, "json_text", counted)
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, *argv, "--json", "--checkpoint", str(path))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("compute", "13^[1,1]*23", "--verify"),
    ("list", "72"),
    ("poly", "[1,2,3]"),
    ("relative", "2^[1,2]", "--gen", "1,2"),
    ("sweep", "conjecture", "--to", "300"),
    ("sweep", "divisibility", "--from", "3880", "--to", "3890"),
    ("sweep", "image", "--to", "30"),
    ("sweep", "monotonicity", "--n", "6", "--p", "991"),
])
def test_json_output_is_the_indented_stdlib_text(capsys, argv):
    _, out, _ = run(capsys, *argv, "--json")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_closed_stdout_pipe_exits_141_without_traceback():
    # The reader takes a few bytes of a 160 kB record, then closes the
    # pipe; the rest cannot be written.
    proc = run_python(
        "import os, subprocess, sys\n"
        "code = 'from ordersum.cli import entry; entry()'\n"
        "child = subprocess.Popen(\n"
        "    [sys.executable, '-c', code, 'sweep', 'monotonicity',\n"
        "     '--n', '25', '--p', '3', '--json'],\n"
        "    stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
        "head = os.read(child.stdout.fileno(), 10)\n"
        "child.stdout.close()\n"
        "err = child.stderr.read()\n"
        "print(child.wait(timeout=60), head[:1], repr(err))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["141", "b'{'", "b''"]


def _chain_record(n, p, chain, elapsed_ms):
    # The sweep monotonicity record, built whole from a listed chain.
    violations = [[str(a), str(b)] for (a, va), (b, vb)
                  in zip(chain, chain[1:]) if va >= vb]
    first = chain[0][1] == psi_elem_abelian(p, n)
    last = chain[-1][1] == psi_cyclic(p, n)
    return {
        "command": "sweep",
        "kind": "monotonicity",
        "n": n,
        "p": p,
        "types": len(chain),
        "chain": [{"shape": str(shape), "psi": str(value)}
                  for shape, value in chain],
        "violations": violations,
        "first_matches_flat_formula": first,
        "last_matches_cyclic_formula": last,
        "ok": not violations and first and last,
        "elapsed_ms": elapsed_ms,
    }


@pytest.mark.parametrize("json_out, report", [(True, False), (False, True),
                                              (True, True)],
                         ids=["json", "report", "json-and-report"])
@pytest.mark.parametrize("p", [2, 3, 997])
def test_streamed_chain_is_the_json_text_of_the_whole_record(
        capsys, tmp_path, p, json_out, report):
    path = tmp_path / "chain.json"
    flags = ["--json"] * json_out + ["--checkpoint", str(path)] * report
    for n in range(1, 21):
        code, out, err = run(capsys, "sweep", "monotonicity", "--n", str(n),
                             "--p", str(p), *flags)
        assert (code, err) == (0, ""), (n, p)
        texts = [out] if json_out else []
        if report:
            texts.append(path.read_text(encoding="utf-8"))
        for text in texts:
            record = _chain_record(n, p, list(psi_chain(p, n)),
                                   json.loads(text)["elapsed_ms"])
            assert text == analysis.json_text(record), (n, p, flags)
        if not json_out:
            assert out.endswith(f"report written to {path}\n")
        assert [f.name for f in tmp_path.iterdir()] == ["chain.json"] * report


def test_streamed_chain_reports_its_violations(capsys, tmp_path, monkeypatch):
    # A chain that dips once and ends off the cyclic form: the violation
    # and both verdicts follow the streamed chain in the same record.
    forged = list(psi_chain(3, 6))
    forged[4], forged[5] = forged[5], forged[4]
    forged[-1] = (forged[-1][0], forged[-1][1] + 2)
    # The command line reads the chain as text (psi_chain_texts).
    monkeypatch.setattr(cli, "psi_chain_texts",
                        lambda p, n: iter([(str(s), v) for s, v in forged]))
    path = tmp_path / "chain.json"
    code, out, _ = run(capsys, "sweep", "monotonicity", "--n", "6",
                       "--p", "3", "--json", "--checkpoint", str(path))
    record = _chain_record(6, 3, forged, json.loads(out)["elapsed_ms"])
    assert code == 1
    assert record["violations"] == [[str(forged[4][0]), str(forged[5][0])]]
    assert record["last_matches_cyclic_formula"] is False
    assert out == path.read_text(encoding="utf-8") == analysis.json_text(record)
    code, out, _ = run(capsys, "sweep", "monotonicity", "--n", "6", "--p", "3")
    assert code == 1
    assert (f"  violation: psi({forged[4][0]}) >= psi({forged[5][0]})"
            in out.splitlines())


@pytest.mark.parametrize("p", [2, 3, 997])
def test_the_command_line_reads_the_chain_as_its_shapes_texts(p):
    # One recurrence, two readers: n = 1 is the all-ones start alone, and
    # n = 2 adds the first step, which grows position 0.
    for n in range(1, 21):
        assert list(cli.psi_chain_texts(p, n)) == [
            (str(shape), value) for shape, value in psi_chain(p, n)], n


def test_the_command_line_chain_builds_a_partition_only_for_a_violation(
        capsys, monkeypatch):
    built = []
    unchecked = Partition._unchecked.__func__

    def counted(cls, *values):
        built.append(values)
        return unchecked(cls, *values)
    monkeypatch.setattr(Partition, "_unchecked", classmethod(counted))
    for flags in ([], ["--json"]):
        code, _, _ = run(capsys, "sweep", "monotonicity", "--n", "12",
                         "--p", "3", *flags)
        assert (code, built) == (0, []), flags
    forged = list(cli.psi_chain_texts(3, 6))
    forged[4], forged[5] = forged[5], forged[4]
    monkeypatch.setattr(cli, "psi_chain_texts", lambda p, n: iter(forged))
    code, _, _ = run(capsys, "sweep", "monotonicity", "--n", "6", "--p", "3")
    assert (code, len(built)) == (1, 2)


def _json_request_peak(n: int) -> int:
    # Peak traced memory of one in-process --json request, its stdout
    # sent to the null device so the text is not kept.
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(["sweep", "monotonicity", "--n", str(n),
                             "--p", "997", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_json_chain_memory_does_not_grow_with_the_chain():
    # n = 40 has 37338 shapes to n = 30's 5604; a chain held whole peaks
    # near 57 MB at n = 40, a streamed one within a few hundred kB.
    _json_request_peak(1)  # the parser, built once per process
    assert _json_request_peak(40) < _json_request_peak(30) + 1024 * 1024


def test_failed_report_write_leaves_no_file(capsys, tmp_path, monkeypatch):
    # The file system fills up partway through the chain: the report is
    # not replaced, no temp file stays, and --json prints nothing.
    real_open = open

    class Full:
        def __init__(self, path, *args, **kwargs):
            self.fh = real_open(path, *args, **kwargs)
            self.room = 4096

        def write(self, text):
            if len(text) > self.room:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.room -= len(text)
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(persistence, "open", Full, raising=False)
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old report\n", encoding="utf-8")
    for path in (fresh, kept):
        code, out, err = run(capsys, "sweep", "monotonicity", "--n", "12",
                             "--p", "3", "--json", "--checkpoint", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot write {path}: "
                       f"{os.strerror(errno.ENOSPC)}\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["kept.json"]
    assert kept.read_text(encoding="utf-8") == "old report\n"
