"""Exact integer arithmetic: primality, factorization, guarded division.

Everything here works on plain Python ints, so results stay exact at any
size.  No floats anywhere.  Primality and factorization share one
trial-division loop, _least_factor; ROADMAP item 3 replaces that loop.
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


def _least_factor(n: int, start: int) -> int:
    # The one trial-division loop: the least prime factor of n > 1, given
    # that n has no prime factor below `start`.  Past 3 it walks the
    # 6k +- 1 candidates up to isqrt(n); n itself when none divides it.
    if n % 2 == 0 or n % 3 == 0:
        return 2 if n % 2 == 0 else 3
    # A start of 6k + 1 resumes at 6k - 1, which cannot divide n either.
    first = 5 if start <= 5 else start - (start + 1) % 6
    for d in range(first, isqrt(n) + 1, 6):
        if n % d == 0 or n % (d + 2) == 0:
            return d if n % d == 0 else d + 2
    return n


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division up to isqrt(n).

    Stops at the least prime factor, so a composite costs no more than its
    least factor's share of the walk.  Anything that is not an int, such
    as 2.0 or True, is not prime.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        return False
    return _least_factor(n, 2) == n


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor a positive integer into sorted (prime, exponent) pairs.

    Trial division: deterministic and exact, fast for the ranges this
    library sweeps (well below 2**40).  Each least factor is divided out,
    and the walk for the next one resumes from it, so the cofactor is
    walked once overall.  factorize(1) == [].
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: expected a positive integer")
    out: list[tuple[int, int]] = []
    p = 2
    while n > 1:
        p = _least_factor(n, p)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
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
    spf[0] = spf[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf
