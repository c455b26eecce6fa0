"""Tests for exact integer arithmetic."""

import pytest

from ordersum.arith import (
    ExactDivisionError,
    exact_div,
    factorize,
    gcd,
    is_prime,
    lcm,
    smallest_prime_factors,
)


def naive_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def test_exact_div_basic():
    assert exact_div(12, 3) == 4
    assert exact_div(0, 5) == 0
    assert exact_div(-12, 3) == -4
    assert exact_div(2**100, 2**40) == 2**60


def test_exact_div_rejects_remainder():
    with pytest.raises(ExactDivisionError):
        exact_div(13, 3)
    with pytest.raises(ExactDivisionError):
        exact_div(1, 2)


def test_exact_div_rejects_zero_divisor():
    with pytest.raises(ExactDivisionError):
        exact_div(5, 0)


def test_gcd_lcm_contracts():
    assert gcd(4, 6) == 2
    assert lcm(4, 6) == 12
    assert gcd(17, 0) == 17
    for a in range(1, 40):
        for b in range(1, 40):
            assert lcm(a, b) * gcd(a, b) == a * b


def test_is_prime_exhaustive_small():
    for n in range(0, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(13) and is_prime(23)
    assert is_prime(99991)
    assert not is_prime(1)
    assert not is_prime(3887)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(3887) == [(13, 2), (23, 1)]
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(2) == [(2, 1)]
    assert factorize(100000) == [(2, 5), (5, 5)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_factorize_roundtrip_and_primality():
    for n in range(1, 20001):
        factors = factorize(n)
        product = 1
        prev = 1
        for p, e in factors:
            assert p > prev, f"primes not increasing for {n}"
            assert e >= 1
            assert is_prime(p), f"non-prime factor {p} for {n}"
            product *= p**e
            prev = p
        assert product == n


def test_factorize_large_roundtrip_sampled():
    for n in range(10**6 - 200, 10**6 + 1):
        factors = factorize(n)
        assert prod_of(factors) == n
        for p, _ in factors:
            assert naive_is_prime(p) if p < 10000 else is_prime(p)


def prod_of(factors):
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def test_smallest_prime_factors():
    spf = smallest_prime_factors(1000)
    assert spf[0] == 0 and spf[1] == 0
    for n in range(2, 1001):
        p = spf[n]
        assert is_prime(p)
        assert n % p == 0
        assert all(n % q for q in range(2, p))


def test_smallest_prime_factors_rejects_bad_limit():
    with pytest.raises(ValueError):
        smallest_prime_factors(0)


@pytest.mark.parametrize("n", [2.0, 3.0, 7.0, 7.5, True, False, "7", None])
def test_is_prime_is_false_off_the_ints(n):
    assert is_prime(n) is False


def test_is_prime_matches_the_sieve_up_to_1e5():
    spf = smallest_prime_factors(10**5)
    assert not is_prime(0) and not is_prime(1)
    for n in range(2, 10**5 + 1):
        assert is_prime(n) == (spf[n] == n), n


# 1000039 is 1 and 1000037 is 5 modulo 6, so the walk resumes from each
# side of a 6k +- 1 pair; 1000033 lies five pairs past 1000003.
@pytest.mark.parametrize("factors", [
    [(1000039, 2)],
    [(1000039, 3)],
    [(1000037, 2)],
    [(1000037, 3)],
    [(1000037, 1), (1000039, 1)],
    [(1000003, 1), (1000033, 1)],
    [(2, 5), (3, 4), (1000037, 2)],
    [(2, 1), (3, 1), (1000039, 1)],
])
def test_factorize_resumes_the_walk_past_each_factor(factors):
    assert factorize(prod_of(factors)) == factors
