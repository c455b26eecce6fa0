"""Exact integer arithmetic: primality, factorization, guarded division.

Everything here works on plain Python ints, so results stay exact at any
size.  No floats anywhere.
"""

# gcd and lcm are math's: importable from here, but not exported.
from math import gcd, isqrt, lcm  # noqa: F401

__all__ = [
    "ExactDivisionError",
    "exact_div",
    "factorize",
    "is_prime",
    "smallest_prime_factors",
]


class ExactDivisionError(ArithmeticError):
    """A division that must be exact left a nonzero remainder."""


def exact_div(a: int, b: int) -> int:
    """Return a // b, raising ExactDivisionError unless b divides a."""
    if b == 0:
        raise ExactDivisionError(f"exact division by zero: {a} / 0")
    q, r = divmod(a, b)
    if r != 0:
        raise ExactDivisionError(f"{a} is not divisible by {b} (remainder {r})")
    return q


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division up to isqrt(n).

    Anything that is not an int, such as 2.0 or True, is not prime.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    limit = isqrt(n)
    while d <= limit:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor a positive integer into sorted (prime, exponent) pairs.

    Trial division: deterministic and exact, fast for the ranges this
    library sweeps (well below 2**40).  factorize(1) == [].
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: expected a positive integer")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return out


def smallest_prime_factors(limit: int) -> list[int]:
    """Sieve of smallest prime factors for 0..limit inclusive.

    spf[n] is the least prime dividing n (spf[0] == spf[1] == 0), so the
    primes up to limit are the n >= 2 with spf[n] == n.  A sweep block
    ending at stop takes its sieving primes, those up to isqrt(stop), from
    here.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    spf = list(range(limit + 1))
    spf[0] = 0
    if limit >= 1:
        spf[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf
