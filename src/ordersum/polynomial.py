"""Dense integer polynomials and the symbolic order-sum in Z[x].

For a fixed partition shape, the order-sum of the p-group of that shape is
a polynomial in p with integer coefficients.  This module constructs that
polynomial exactly (psi_symbolic) and checks psi_core's closed forms for
the small families against it (verify_closed_form): it evaluates the very
functions behind psi_cyclic ... psi_rank3 in Z[x], so each formula is
checked once and for all rather than prime by prime.

All arithmetic is over Z.  Division is long division that insists on
exactness at every step and raises ExactDivisionError otherwise.
"""

from ._record import FrozenRecord
from .arith import ExactDivisionError
from .partitions import Partition
from .psi_core import _corollary2_forms, band_schedule

__all__ = [
    "ClosedFormCheck",
    "ClosedFormReport",
    "IntPoly",
    "psi_symbolic",
    "verify_closed_form",
]


class IntPoly(FrozenRecord):
    """Immutable dense polynomial over Z; coefficients ascending by power.

    A FrozenRecord of one field, coeffs, with trailing zeros stripped by
    its own __init__, so equal polynomials compare and hash equal.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPoly":
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient self / divisor in Z[x]; error unless it divides exactly."""
        if not divisor:
            raise ExactDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        dn = len(divisor.coeffs)
        quot = [0] * (len(rem) - dn + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + dn - 1]
            if c % lead != 0:
                raise ExactDivisionError(
                    f"{self} is not divisible by {divisor}")
            q = c // lead
            quot[i] = q
            if q:
                for j, d in enumerate(divisor.coeffs):
                    rem[i + j] -= q * d
        if any(rem):
            raise ExactDivisionError(f"{self} is not divisible by {divisor}")
        return IntPoly(quot)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces: list[str] = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if pieces else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "x" if e == 1 else f"x^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            pieces.append(sign + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"


def psi_symbolic(shape: Partition) -> IntPoly:
    """Order-sum of the p-group of the given shape, as a polynomial in p.

    The band sum of band_schedule read in Z[x]: x^D - (x - 1) T(x), where
    the tail T has a coefficient 1 at each exponent slope * alpha + offset
    of every band.  Those exponents rise by at least 2 per step of alpha,
    so the +1 of T at e and the -1 of -x T at e + 1 never land on the same
    coefficient, and each band is written as two strided slices of one
    coefficient list.  No division is needed.  The result is monic of
    degree D, has constant coefficient 1, and all coefficients in
    {-1, 0, 1}.
    """
    degree, bands = band_schedule(shape.parts)
    coeffs = [0] * (degree + 1)
    coeffs[degree] = 1
    for lo, length, slope, offset in bands:
        first, stop = slope * lo + offset, slope * (lo + length) + offset
        coeffs[first:stop:slope] = [1] * length
        coeffs[first + 1:stop + 1:slope] = [-1] * length
    return IntPoly(coeffs)


class ClosedFormCheck(FrozenRecord):
    """One closed form compared against the direct polynomial."""

    family: str
    closed: IntPoly
    residual: IntPoly

    @property
    def matches(self) -> bool:
        return not self.residual


class ClosedFormReport(FrozenRecord):
    """Every applicable closed form for one shape, with residuals."""

    shape: Partition
    direct: IntPoly
    checks: tuple[ClosedFormCheck, ...]

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.checks)


def verify_closed_form(shape: Partition) -> ClosedFormReport:
    """Check every closed form that covers `shape` against psi_symbolic.

    The forms are psi_core's, the ones psi_cyclic ... psi_rank3 evaluate
    at x = p, here evaluated in Z[x] with exact polynomial division.
    Covered shapes: a single part (n), all parts 1, all parts 1 except a
    final 2, and any shape with at most three parts.  The residual of each
    check is closed form minus direct polynomial, so a match is residual 0.
    A shape no form covers gets a report with empty checks, whose all_match
    is vacuously True; its direct polynomial is still psi_symbolic(shape).
    """
    direct = psi_symbolic(shape)
    builders = _corollary2_forms(IntPoly.monomial, IntPoly.exact_div,
                                 shape.parts)
    checks = tuple(ClosedFormCheck(family, closed, closed - direct)
                   for family, closed in builders)
    return ClosedFormReport(shape, direct, checks)
