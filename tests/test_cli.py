"""End-to-end tests of the command line, driven through main(argv)."""

import json
import sys

import pytest

import ordersum.analysis as analysis
import ordersum.cli as cli
from ordersum.arith import ExactDivisionError
from ordersum.analysis import CHECKPOINT_VERSION
from ordersum.psi_core import (group_type_of_order, parse_group_spec,
                               psi_abelian, psi_p_alt)
from support import run_python


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
    monkeypatch.setattr(cli, "psi_bruteforce", lambda moduli, max_enum: 999)
    code, record, _ = run_json(capsys, "compute", "5", "--verify")
    assert code == 1
    assert record["verify"]["match"] is False


def test_compute_verify_cap_exceeded(capsys):
    code, out, err = run(capsys, "compute", "2^[30]", "--verify")
    assert code == 2
    assert "error:" in err


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
    assert "trivial group" in err


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
    monkeypatch.setattr(analysis, "_psi_prime_power", lambda p, parts: 2 * p ** 4)
    code, out, err = run(capsys, "sweep", "conjecture", "--to", "10")
    assert code == 3
    assert err.startswith("internal error: even order-sum recorded")


def test_relative_inexact_average_is_internal(capsys, monkeypatch):
    monkeypatch.setattr(cli, "psi_relative", lambda moduli, sub, max_enum: 7)
    code, out, err = run(capsys, "relative", "2^[2]", "--gen", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


def test_cli_import_leaves_multiprocessing_unloaded():
    proc = run_python("import sys, ordersum.cli\n"
                      "print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
