import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionfree.numutil import factorize, is_prime, next_prime, strip_primes


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if _trial_division(n)]


def test_strong_pseudoprimes_to_the_first_primes_are_composite():
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)


def test_large_primes():
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_uncertified_prime_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot certify primality of a 31-digit number"):
        is_prime(10**30 + 57)
    assert time.perf_counter() - start < 1


def test_composite_past_the_proven_range_has_a_witness():
    n = (2**61 - 1) * 1000000000000000003
    assert n > 3_317_044_064_679_887_385_961_981
    assert not is_prime(n)


def _trial_factorize(n):
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12 - 1))
def test_factorize_agrees_with_trial_division(n):
    assert factorize(n) == _trial_factorize(n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 101, 103, 997)), max_size=8),
    st.integers(10**11, 10**20 - 10**3),
)
def test_factorize_small_primes_times_a_large_prime(small, start):
    q = next_prime(start)
    m = 1
    for p in small:
        m *= p
    assert factorize(m * q) == {**_trial_factorize(m), q: 1}


def test_factorize_two_six_digit_primes():
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    assert factorize(1009**3 * 1013) == {1009: 3, 1013: 1}


def test_factorize_refuses_an_uncertified_prime_cofactor_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot certify primality of a 31-digit number"):
        factorize(6 * (10**30 + 57))
    assert time.perf_counter() - start < 1


def test_strip_primes_divides_out_only_the_given_primes():
    assert strip_primes(2**5 * 3 * 7**2, (2, 7)) == 3
    assert strip_primes(-12, (2,)) == -3
    assert strip_primes(35, ()) == 35
    with pytest.raises(ValueError):
        strip_primes(0, (2,))
