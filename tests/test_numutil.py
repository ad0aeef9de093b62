import time

import pytest

from torsionfree.numutil import is_prime, strip_primes


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


def test_strip_primes_divides_out_only_the_given_primes():
    assert strip_primes(2**5 * 3 * 7**2, (2, 7)) == 3
    assert strip_primes(-12, (2,)) == -3
    assert strip_primes(35, ()) == 35
    with pytest.raises(ValueError):
        strip_primes(0, (2,))
