"""Small integer/rational helpers shared across the package."""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_TOKEN = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """The rational written as [+-]digits[/digits]; ValueError otherwise.

    Fraction() alone also takes decimals, exponents and underscores, so a
    six-character token such as 1e9999 would become a 10,000-digit integer.
    """
    if not _RATIONAL_TOKEN.fullmatch(text):
        raise ValueError(f"not a rational token: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


# factorize trial-divides alone up to this divisor before it asks is_prime
_TRIAL_ONLY = 100


def factorize(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division; returns {prime: exponent}.

    Once the trial divisor passes _TRIAL_ONLY, the cofactor left is tested
    with is_prime, again only after a division has changed it, and a prime
    cofactor ends the division.  So a large prime factor costs one test, not
    trial division up to its square root.  Past _MR_LIMIT is_prime may raise
    ValueError (cannot certify primality).  A composite cofactor without a
    small factor is still trial-divided.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer, got %r" % (n,))
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    tested = 0  # the last cofactor is_prime found composite
    while f * f <= n:
        if f > _TRIAL_ONLY and n != tested:
            if is_prime(n):
                break
            tested = n
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_dividing(n: int) -> tuple[int, ...]:
    """Sorted primes dividing |n| (empty for n in {-1, 0, 1})."""
    n = abs(n)
    if n <= 1:
        return ()
    return tuple(sorted(factorize(n)))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, sorted ascending."""
    out = [1]
    for p, mult in factorize(n).items():
        out = [d * p**i for d in out for i in range(mult + 1)]
    return tuple(sorted(out))


# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality by Miller-Rabin with the bases _MR_BASES.

    A witness proves n composite at any size, and below _MR_LIMIT the lack
    of one proves n prime.  At or above the limit no proof is at hand, so a
    number without a witness raises ValueError rather than being guessed.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot certify primality of a {len(str(n))}-digit number")
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


def strip_primes(n: int, primes) -> int:
    """The nonzero integer n with every prime of the finite collection divided out."""
    if not n:
        raise ValueError("cannot divide primes out of zero")
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def mod_p(q: Fraction | int, p: int) -> int:
    """Reduce a p-integral rational modulo p."""
    q = Fraction(q)
    if q.denominator % p == 0:
        raise ValueError("%s is not p-integral at p=%d" % (q, p))
    return q.numerator * pow(q.denominator, -1, p) % p
