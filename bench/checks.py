"""Output checks for every operation the benchmark runs.

Each check recomputes the answer by a route other than the one the CLI
took: the subtraction form (psi_p_alt) and the symbolic polynomial for
theorem-1 values, the brute-force oracle for small groups, the quotient
group for relative order-sums, and the definition-level order counts and
precomputed hit list in refmath for sweeps.  A check returns None when
the output is right and a one-line reason otherwise.  Checks run after
the timed phase, never inside it.
"""

import json
import os
from itertools import product
from math import prod

import refmath
from ordersum.oracle import psi_bruteforce
from ordersum.partitions import Partition
from ordersum.polynomial import psi_symbolic
from ordersum.psi_core import (PGroupType, parse_group_spec, psi_abelian,
                               psi_p, psi_p_alt)

ENUM_CAP = 1 << 20
EXIT_OK, EXIT_ANOMALY = 0, 1
NO_OUTPUT = "no output"
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference_hits.json")


def parse_spec(text: str) -> list[tuple[int, tuple[int, ...]]]:
    """(prime, parts) pairs of a spec in the CLI grammar."""
    if text == "1":
        return []
    comps = []
    for term in text.split("*"):
        if "^" in term:
            p, parts = term.split("^")
            comps.append((int(p), tuple(int(a) for a in parts[1:-1].split(","))))
        else:
            comps.append((int(term), (1,)))
    return comps


def spec_order(comps) -> int:
    return prod(p ** sum(parts) for p, parts in comps)


class Checker:
    """Checks outputs; remembers per-component values across checks."""

    def __init__(self) -> None:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        self.ref_last = ref["last_order"]
        self.ref_hits = [tuple(h) for h in ref["hits"]]
        self._alt: dict = {}
        self._sym: dict = {}

    def check(self, op, code, stdout: str, error: str | None) -> str | None:
        if error is not None:
            return f"{NO_OUTPUT}: raised {error}"
        if not stdout.strip():
            return f"{NO_OUTPUT}: exit {code}"
        try:
            record = json.loads(stdout)
        except ValueError:
            return f"exit {code}, output is not JSON: {stdout[:60]!r}"
        try:
            return getattr(self, "_" + op.kind)(op, code, record)
        except (KeyError, TypeError, ValueError) as exc:
            return f"check failed: {type(exc).__name__}: {exc}"

    # theorem-1 values

    def _component(self, p: int, parts: tuple[int, ...]) -> int:
        """psi of one p-group by psi_p_alt, cross-checked symbolically."""
        key = (p, parts)
        if key not in self._alt:
            alt = psi_p_alt(PGroupType(p, Partition(parts)))
            if parts not in self._sym:
                self._sym[parts] = psi_symbolic(Partition(parts))
            if self._sym[parts](p) != alt:
                raise ValueError(f"psi_p_alt and psi_symbolic disagree at {key}")
            self._alt[key] = alt
        return self._alt[key]

    def _expected_psi(self, comps) -> int:
        value = prod(self._component(p, parts) for p, parts in comps)
        order = spec_order(comps)
        if comps and order <= ENUM_CAP:
            moduli = [p ** a for p, parts in comps for a in parts]
            if psi_bruteforce(moduli) != value:
                raise ValueError("brute force disagrees with the formulas")
        return value

    def _compute(self, op, code, rec):
        comps = op.info["components"]
        if rec["group"] != refmath.format_spec(comps):
            return f"group {rec['group']!r} is not the canonical spec"
        if refmath.parse_decimal(rec["order"]) != spec_order(comps):
            return "wrong order"
        psi = refmath.parse_decimal(rec["psi"])
        if psi != self._expected_psi(comps):
            return "wrong psi"
        if op.info["verify"]:
            v = rec["verify"]
            if v["match"] is not True or refmath.parse_decimal(v["psi"]) != psi:
                return "verify block disagrees"
        return None if code == EXIT_OK else f"exit {code}"

    def _list(self, op, code, rec):
        n = op.info["order"]
        pairs = refmath.factor_small(n)
        expected = {refmath.format_spec(c) for c in product(
            *[[(p, parts) for parts in refmath.partitions(e)] for p, e in pairs])}
        rows = rec["rows"]
        if rec["count"] != len(expected) or len(rows) != len(expected):
            return f"count {rec['count']} with {len(rows)} rows, expected {len(expected)}"
        if {r["group"] for r in rows} != expected:
            return "row groups are not the types of the order"
        for r in rows:
            comps = parse_spec(r["group"])
            if refmath.parse_decimal(r["psi"]) != self._expected_psi(comps):
                return f"wrong psi for {r['group']}"
        return None if code == EXIT_OK else f"exit {code}"

    # symbolic values

    def _poly(self, op, code, rec):
        shape = op.info["shape"]
        if tuple(rec["shape"]) != shape:
            return "wrong shape"
        coeffs = [int(c) for c in rec["coefficients"]]
        if rec["degree"] != 2 * shape[-1] + sum(shape[:-1]) or len(coeffs) != rec["degree"] + 1:
            return "wrong degree"
        for p in (2, 3):
            at_p = sum(c * p ** i for i, c in enumerate(coeffs))
            if at_p != refmath.psi_pgroup(p, shape) or at_p != psi_p(PGroupType(p, Partition(shape))):
                return f"polynomial at p={p} is not psi_p"
        families = [c["family"] for c in rec["closed_forms"]]
        if families != closed_form_families(shape):
            return f"closed forms {families}, expected {closed_form_families(shape)}"
        for c in rec["closed_forms"]:
            if c["match"] is not True or c["residual"] != "0":
                return f"closed form {c['family']} does not match"
        return None if code == EXIT_OK else f"exit {code}"

    def _mono(self, op, code, rec):
        n, p = op.info["n"], op.info["p"]
        chain = rec["chain"]
        count = refmath.partition_count(n)
        if rec["types"] != count or len(chain) != count:
            return "chain does not cover every type"
        shapes = {tuple(int(a) for a in c["shape"][1:-1].split(",")) for c in chain}
        if shapes != set(refmath.partitions(n)):
            return "chain shapes are not the partitions of n"
        values = [refmath.parse_decimal(c["psi"]) for c in chain]
        if any(a >= b for a, b in zip(values, values[1:])):
            return "chain is not strictly increasing"
        if (values[0] != refmath.psi_pgroup(p, (1,) * n)
                or values[-1] != refmath.psi_pgroup(p, (n,))):
            return "chain endpoints are wrong"
        if rec["ok"] is not True or rec["violations"]:
            return "report is not ok"
        return None if code == EXIT_OK else f"exit {code}"

    # oracle values

    def _relative(self, op, code, rec):
        info = op.info
        sub = info["subgroup_order"]
        quotient = info["quotient_moduli"]
        psi_quotient = psi_bruteforce(quotient) if quotient else 1
        if rec["group"] != refmath.format_spec(info["components"]):
            return "wrong group"
        if refmath.parse_decimal(rec["subgroup_order"]) != sub:
            return "wrong subgroup order"
        if refmath.parse_decimal(rec["psi_relative"]) != sub * psi_quotient:
            return "psi_relative is not |H| * psi(G/H)"
        if refmath.parse_decimal(rec["per_coset_average"]) != psi_quotient:
            return "wrong per-coset average"
        return None if code == EXIT_OK else f"exit {code}"

    # sweeps

    def _sweep(self, op, code, rec):
        info = op.info
        lo, hi = info["window"], info["to"]
        if hi > self.ref_last:
            return "window outside the reference range"
        if rec["max_done"] != hi:
            return f"watermark {rec['max_done']}, expected {hi}"
        hits = sorted((h["order"], h["group"], h["quotient"])
                      for h in rec["divisible_hits"])
        expected = [h for h in self.ref_hits if lo <= h[0] <= hi]
        if hits != expected:
            return f"hits {hits} differ from the reference {expected}"
        for h in rec["divisible_hits"]:
            comps = parse_spec(h["group"])
            psi = refmath.parse_decimal(h["psi"])
            if (spec_order(comps) != h["order"]
                    or psi != h["order"] * refmath.parse_decimal(h["quotient"])
                    or psi != psi_abelian(parse_group_spec(h["group"]))
                    or psi != refmath.psi_type(comps)):
                return f"hit {h['group']} does not re-derive"
        for c in rec["collisions"]:
            a, b = parse_spec(c["group_a"]), parse_spec(c["group_b"])
            if (a == b or spec_order(a) != c["order"] or spec_order(b) != c["order"]
                    or refmath.psi_type(a) != refmath.psi_type(b)
                    or refmath.psi_type(a) != refmath.parse_decimal(c["psi"])):
                return f"collision {c} does not re-verify"
        anomaly = bool(hits or rec["collisions"])
        if rec["anomaly"] is not anomaly:
            return "anomaly flag is wrong"
        if hits and rec["smallest_hit_order"] != hits[0][0]:
            return "wrong smallest hit"
        if "same_as" in info and info.get("file") != info.get("same_as_file"):
            return "segmented checkpoint differs from the single pass"
        want = EXIT_ANOMALY if anomaly else EXIT_OK
        return None if code == want else f"exit {code}, expected {want}"


def is_wrong(reason: str | None) -> bool:
    """A failure whose output is wrong, as opposed to one with no output."""
    return reason is not None and not reason.startswith(NO_OUTPUT)


def closed_form_families(shape: tuple[int, ...]) -> list[str]:
    """The closed forms the paper gives for this shape, in report order."""
    out = []
    if len(shape) == 1:
        out.append("corollary2a")
    if all(a == 1 for a in shape):
        out.append("corollary2b")
    if len(shape) >= 2 and shape[-1] == 2 and all(a == 1 for a in shape[:-1]):
        out.append("corollary2c")
    if len(shape) == 2:
        out.append("corollary2d")
    if len(shape) == 3:
        out.append("corollary2e")
    return out
