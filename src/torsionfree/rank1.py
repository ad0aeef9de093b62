"""Arithmetic of rank-1 divisibility types: subgroups (1/m)*Z[S^-1] of Q.

A type is described by a positive multiplier m and a set of inverted primes
S, which is either finite or the marker ALL (giving Q).  Canonical form: no
prime factor of m lies in S, and m == 1 when S is ALL.  The lattice
operations (meet = intersection, join = sum inside Q) stay in this class.

Text syntax: ``Z`` for (1, {}), ``Q`` for (1, ALL), ``Z[2,3]`` for inverted
primes, ``1/m Z[...]`` for a nontrivial multiplier.  Parse/print round-trips
bit-exactly on canonical forms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .numutil import is_prime, strip_primes


@dataclass(frozen=True, order=True)
class PrimeSet:
    """A finite set of primes or the ALL marker (every prime inverted)."""

    primes: tuple[int, ...]
    is_all: bool = False

    def __post_init__(self):
        if self.is_all and self.primes:
            raise ValueError("ALL marker carries no explicit primes")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be sorted and distinct")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError("%d is not prime" % p)

    def __contains__(self, p: int) -> bool:
        return True if self.is_all else p in self.primes

    def __iter__(self):
        if self.is_all:
            raise ValueError("cannot iterate the ALL prime set")
        return iter(self.primes)

    def is_subset(self, other: "PrimeSet") -> bool:
        if other.is_all:
            return True
        if self.is_all:
            return False
        return set(self.primes) <= set(other.primes)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        if self.is_all or other.is_all:
            return ALL
        return prime_set(self.primes + other.primes)

    def intersect(self, other: "PrimeSet") -> "PrimeSet":
        if self.is_all:
            return other
        if other.is_all:
            return self
        return prime_set(set(self.primes) & set(other.primes))

    def __repr__(self) -> str:
        return "ALL" if self.is_all else "{%s}" % ",".join(str(p) for p in self.primes)


ALL = PrimeSet((), is_all=True)
NO_PRIMES = PrimeSet(())


def prime_set(primes) -> PrimeSet:
    if isinstance(primes, PrimeSet):
        return primes
    if primes == "ALL":
        return ALL
    return PrimeSet(tuple(sorted(set(int(p) for p in primes))))


@dataclass(frozen=True)
class DivisibilityType:
    """The subgroup (1/multiplier) * Z[inverted^-1] of Q, in canonical form."""

    multiplier: int
    inverted: PrimeSet

    def __post_init__(self):
        if self.multiplier < 1:
            raise ValueError("multiplier must be positive")
        if self.inverted.is_all and self.multiplier != 1:
            raise ValueError("canonical form of Q has multiplier 1")
        for p in self.inverted.primes:
            if self.multiplier % p == 0:
                raise ValueError("multiplier prime %d is absorbed by the inverted set" % p)

    def contains(self, q: Fraction | int) -> bool:
        """Whether the rational q lies in this subgroup of Q."""
        q = Fraction(q)
        if q == 0:
            return True
        if self.inverted.is_all:
            return True
        return strip_primes((self.multiplier * q).denominator, self.inverted) == 1


TYPE_Z = DivisibilityType(1, NO_PRIMES)
TYPE_Q = DivisibilityType(1, ALL)


def div_type(multiplier: int, inverted) -> DivisibilityType:
    """Build a type in canonical form, absorbing inverted primes of m."""
    s = prime_set(inverted)
    m = int(multiplier)
    if m < 1:
        raise ValueError("multiplier must be positive")
    if s.is_all:
        return DivisibilityType(1, ALL)
    return DivisibilityType(strip_primes(m, s), s)


def type_leq(a: DivisibilityType, b: DivisibilityType) -> bool:
    """Containment a <= b of subgroups of Q."""
    if b.inverted.is_all:
        return True
    if a.inverted.is_all:
        return False
    if not a.inverted.is_subset(b.inverted):
        return False
    # 1/a.m must lie in b: the part of a.m outside b's inverted set divides b.m
    return b.multiplier % strip_primes(a.multiplier, b.inverted) == 0


def type_eq(a: DivisibilityType, b: DivisibilityType) -> bool:
    return a == b


def type_meet(a: DivisibilityType, b: DivisibilityType) -> DivisibilityType:
    """Intersection of the two subgroups of Q.

    With S and T the inverted sets of a and b: outside S ∪ T a prime keeps
    the lesser of its two exponents (the gcd), a prime of S but not T keeps
    its exponent in b.m, and one of T but not S its exponent in a.m.  No
    multiplier is factored.
    """
    if a.inverted.is_all:
        return b
    if b.inverted.is_all:
        return a
    ma, mb = a.multiplier, b.multiplier
    m = math.gcd(ma, mb) * (mb // strip_primes(mb, a.inverted)) * (ma // strip_primes(ma, b.inverted))
    return div_type(m, a.inverted.intersect(b.inverted))


def type_join(a: DivisibilityType, b: DivisibilityType) -> DivisibilityType:
    """Sum a + b inside Q (the join in the lattice of these subgroups).

    A prime outside both inverted sets keeps the greater of its two
    exponents (the lcm), and ``div_type`` divides out the inverted primes.
    """
    if a.inverted.is_all or b.inverted.is_all:
        return TYPE_Q
    return div_type(math.lcm(a.multiplier, b.multiplier), a.inverted.union(b.inverted))


def scale_type(t: DivisibilityType, r: Fraction | int) -> DivisibilityType:
    """The subgroup r*t of Q (the type of a/r when t is the type of a).

    Raises ValueError when r*t is not of the form (1/m)*Z[S^-1], which
    happens exactly when the S-free part of r's numerator does not divide
    m times the S-free part of r's denominator.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("cannot scale a type by zero")
    if t.inverted.is_all:
        return TYPE_Q
    num, den = strip_primes(abs(r.numerator), t.inverted), strip_primes(r.denominator, t.inverted)
    new_m_num = t.multiplier * den
    if new_m_num % num != 0:
        raise ValueError("%s * %s is not a unit-form divisibility type" % (r, format_type(t)))
    return div_type(new_m_num // num, t.inverted)


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

_TYPE_RE = re.compile(
    r"^\s*(?:1/(?P<m>\d+)\s+)?(?:(?P<q>Q)|Z(?:\[(?P<s>[0-9,\s]*|ALL)\])?)\s*$"
)


def format_type(t: DivisibilityType) -> str:
    if t.inverted.is_all:
        return "Q"
    body = "Z" if not t.inverted.primes else "Z[%s]" % ",".join(str(p) for p in t.inverted)
    if t.multiplier == 1:
        return body
    return "1/%d %s" % (t.multiplier, body)


def parse_type(text: str) -> DivisibilityType:
    m = _TYPE_RE.match(text)
    if not m:
        raise ValueError("cannot parse type %r" % text)
    if m.group("q"):
        if m.group("m"):
            raise ValueError("Q admits no multiplier in %r" % text)
        return TYPE_Q
    mult = int(m.group("m")) if m.group("m") else 1
    s_text = m.group("s")
    if s_text is None or not s_text.strip():
        s = NO_PRIMES
    elif s_text.strip() == "ALL":
        s = ALL
    else:
        entries = [int(tok) for tok in s_text.split(",")]
        s = prime_set(entries)
        if len(entries) != len(s.primes) or entries != sorted(entries):
            raise ValueError("prime list not canonical in %r" % text)
    t = div_type(mult, s)
    if t.multiplier != mult and not s.is_all:
        raise ValueError("non-canonical multiplier %d over %r" % (mult, str(s)))
    return t
