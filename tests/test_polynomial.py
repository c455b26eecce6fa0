"""Tests for integer polynomials and the symbolic order-sum."""

import pytest

from ordersum.arith import ExactDivisionError
from ordersum.partitions import Partition, partitions_of
from ordersum.polynomial import IntPoly, psi_symbolic, verify_closed_form
from ordersum.psi_core import PGroupType, psi_p

PRIMES = (2, 3, 5, 7, 11, 13)


def P(*coeffs):
    return IntPoly(coeffs)


def test_normalization():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P().coeffs == ()
    assert P(0, 0).coeffs == ()
    assert not P(0)
    assert bool(P(1))


def test_coefficients_cannot_be_assigned_or_deleted():
    # Closed-form reports hold IntPolys and hash by them.
    p = P(1, 2)
    before = hash(p)
    with pytest.raises(AttributeError):
        p.coeffs = (5,)
    with pytest.raises(AttributeError):
        del p.coeffs
    assert p.coeffs == (1, 2) and hash(p) == before


def test_degree():
    assert P().degree is None
    assert P(5).degree == 0
    assert P(0, 0, 3).degree == 2


def test_ring_ops():
    x_plus_1 = P(1, 1)
    quad = P(1, 1, 1)
    assert x_plus_1 * quad == P(1, 2, 2, 1)
    assert quad - quad == P()
    assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)
    assert P(1, 2) + P(3, 0, 1) == P(4, 2, 1)
    a = P(3, -2, 1)
    assert a - a == IntPoly()


def test_mul_degree_additive():
    for a in (P(1, 1), P(2, 0, 1), P(-1, 3, 0, 2)):
        for b in (P(5), P(0, 1), P(1, 1, 1, 1)):
            assert (a * b).degree == a.degree + b.degree


def test_mul_by_zero():
    assert (P(1, 2, 3) * P()) == P()


def test_exact_div():
    assert P(-1, 0, 1).exact_div(P(1, 1)) == P(-1, 1)
    assert P(1, 0, 0, 1).exact_div(P(1, 1)) == P(1, -1, 1)
    with pytest.raises(ExactDivisionError):
        P(1, 0, 1).exact_div(P(1, 1))
    with pytest.raises(ExactDivisionError):
        P(1, 1).exact_div(P())
    with pytest.raises(ExactDivisionError):
        P(1, 1).exact_div(P(2, 2, 2))


def test_exact_div_inverts_mul():
    polys = [P(1, 1), P(1, 1, 1), P(1, -1, 2), P(7), P(0, 0, 1)]
    for a in polys:
        for b in polys:
            assert (a * b).exact_div(b) == a


def test_exact_div_zero_dividend():
    assert P().exact_div(P(1, 1)) == P()


def test_evaluation_horner():
    assert P(1, 2, 3)(10) == 321
    assert P()(99) == 0
    assert P(1, -1, 1)(2) == 3


def test_rendering():
    assert str(P()) == "0"
    assert str(P(1)) == "1"
    assert str(P(-1)) == "-1"
    assert str(P(0, 1)) == "x"
    assert str(P(-1, -2)) == "-2x-1"
    assert str(P(1, 0, 3)) == "3x^2+1"
    assert str(P(1, -1, 0, 0, 1, -1, 1)) == "x^6-x^5+x^4-x+1"


def test_monomial():
    assert IntPoly.monomial(0) == P(1)
    assert IntPoly.monomial(3, -2) == P(0, 0, 0, -2)
    with pytest.raises(ValueError):
        IntPoly.monomial(-1)


def test_psi_symbolic_examples():
    assert str(psi_symbolic(Partition((1, 1)))) == "x^3-x+1"
    assert str(psi_symbolic(Partition((2,)))) == "x^4-x^3+x^2-x+1"
    assert str(psi_symbolic(Partition((1, 3)))) == "x^7-x^6+x^5-x^4+x^3-x+1"
    assert str(psi_symbolic(Partition((1, 1, 2)))) == "x^6-x^5+x^4-x+1"
    assert str(psi_symbolic(Partition((1,)))) == "x^2-x+1"


def test_psi_symbolic_matches_numeric():
    for n in range(1, 10):
        for shape in partitions_of(n):
            poly = psi_symbolic(shape)
            for p in PRIMES:
                assert poly(p) == psi_p(PGroupType(p, shape)), (shape, p)


def test_psi_symbolic_degree_monic_constant():
    for n in range(1, 13):
        for shape in partitions_of(n):
            poly = psi_symbolic(shape)
            parts = shape.parts
            assert poly.degree == 2 * parts[-1] + sum(parts[:-1])
            assert poly.coeffs[-1] == 1, "leading coefficient must be 1"
            assert poly.coeffs[0] == 1, "constant term must be 1"


def test_psi_symbolic_coefficients_are_units():
    # observed property of the subtraction form on this range; not part of
    # any closed form, but worth pinning down since the renderer and the
    # frozen example strings rely on it
    for n in range(1, 13):
        for shape in partitions_of(n):
            assert set(psi_symbolic(shape).coeffs) <= {-1, 0, 1}, shape


def test_verify_closed_form_families():
    report = verify_closed_form(Partition((1, 1)))
    families = {c.family for c in report.checks}
    assert "corollary2b" in families and "corollary2d" in families
    assert report.all_match

    report = verify_closed_form(Partition((1, 1, 1)))
    assert any(c.family == "corollary2e" for c in report.checks)
    assert report.all_match
    assert str(report.direct) == "x^4-x+1"

    for n in range(1, 9):
        report = verify_closed_form(Partition((n,)))
        assert any(c.family == "corollary2a" for c in report.checks)
        assert report.all_match

    report = verify_closed_form(Partition((1, 2)))
    assert {c.family for c in report.checks} == {"corollary2c", "corollary2d"}
    assert report.all_match


def test_verify_closed_form_residuals_are_zero():
    for shape in (Partition((1, 1)), Partition((3,)), Partition((1, 1, 2)),
                  Partition((2, 3)), Partition((1, 2, 4))):
        report = verify_closed_form(shape)
        for check in report.checks:
            assert check.matches
            assert not check.residual
            assert str(check.residual) == "0"


def test_verify_closed_form_rejects_uncovered_shape():
    with pytest.raises(ValueError):
        verify_closed_form(Partition((1, 2, 2, 3)))


def test_verify_closed_form_flat_family_large_k():
    # all-ones shapes are covered at any k, as is all-ones plus a final 2
    report = verify_closed_form(Partition((1, 1, 1, 1, 1)))
    assert any(c.family == "corollary2b" for c in report.checks)
    assert report.all_match
    report = verify_closed_form(Partition((1, 1, 1, 2)))
    assert any(c.family == "corollary2c" for c in report.checks)
    assert report.all_match
