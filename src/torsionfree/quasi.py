"""Quasi-equality and quasi-splitting.

Two groups with the same rational span are commensurable when each scales
into the other by a positive integer.  The least such pair (a, b), with
a*H <= G and b*G <= H, is read one generator at a time: a*H <= G exactly
when a*Z[S^-1]*v <= G for every generator (v, S) of H, which needs v in
W_p(G) for every p in S (``_divisible_along``) and then a*v in G.  So a is
the lcm over H's generators of the least multiplier ``order_mod(g, v)``,
and there is none when some generator is not divisible along G's W_p.  b
is the same with the roles swapped.  No sum group is built and nothing is
factored.  The groups are strictly quasi-equal when a single rational r
makes r*H literally equal to G.  Neither answer is a bounded search, so a
None answer is a definite "no", not a scope limit.

The strict witness is pinned down prime by prime: if r*H = G then, locally
at p, the coordinate matrix of G's reduced lattice in H's (read off H's
coordinate map at p) must have all its elementary divisors at the same
p-valuation, and that common valuation is v_p(r).  Scanning the prime keys
(every tagged prime, and None for the untagged primes, which share one
lattice) either forces a unique candidate or proves none exists.  The
candidate is then re-verified, so the answer never rests on the derivation
alone: r*H <= G and (1/r)*G <= H are each tested piece by piece in the
other group's maps, which builds no group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bases import BasisRecord, require_basis
from .decomp import DecompositionRecord, PartitionRecord, apply_span_matrix, automorphism_check, decomposition_record
from .groups import (
    GroupRep,
    QuotientDescription,
    SplitKind,
    _coordinate_smith,
    _divisible_along,
    _pieces_contained,
    index_and_quotient,
    order_mod,
    pure_sum,
    pure_sum_kind,
    trivial_quotient,
)
from .linalg import Mat, integer_form, mat, mat_inverse
from .numutil import strip_primes, valuation


@dataclass(frozen=True)
class QuasiWitness:
    """Witness of quasi-equality.

    For the strict form, ``ratio`` is the positive rational with
    ratio * H = G.  For plain commensurability, ``pair`` holds the minimal
    positive integers (a, b) with a*H <= G and b*G <= H.
    """

    ratio: Fraction | None = None
    pair: tuple[int, int] | None = None


def quasi_equal_strict(h: GroupRep, g: GroupRep) -> QuasiWitness | None:
    """The unique positive rational r with r*H = G, if one exists."""
    if h.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if h.span != g.span:
        return None
    tagged = sorted(set(h.tagged_primes) | set(g.tagged_primes))
    keys = (*tagged, None)
    if any(h.divisible_directions(p) != g.divisible_directions(p) for p in keys):
        return None
    if h.rank == 0:
        return QuasiWitness(ratio=Fraction(1))

    r = Fraction(1)
    for p in keys:
        # G's lattice at p in H's basis: both are taken modulo the shared W_p
        sigma, factors, _v = _coordinate_smith(h.local(p).map, g.local(p).lattice)
        if not factors:
            continue
        if p is None:
            # the untagged primes see the shared generic lattice; the
            # constraint there covers every prime outside the tagged set
            parts = {strip_primes(d, tagged) for d in factors}
            if len(parts) != 1:
                return None
            r *= Fraction(parts.pop(), strip_primes(sigma, tagged))
        else:
            vals = {valuation(Fraction(d, sigma), p) for d in factors}
            if len(vals) != 1:
                return None
            r *= Fraction(p) ** vals.pop()

    if r > 0 and _scaled_into(g, h, r) and _scaled_into(h, g, 1 / r):
        return QuasiWitness(ratio=r)
    return None


def _scaled_into(g: GroupRep, h: GroupRep, r: Fraction) -> bool:
    """Whether r*H <= G, for r > 0: each piece of r*H tested in G's maps.

    ``maps_into`` with a scalar matrix gives the same answer, but goes
    through G's hull coordinates, which a scalar does not need.
    """
    a, b = r.numerator, r.denominator
    forms = ((integer_form(v), s) for v, s in h.generators)
    return _pieces_contained(g, ((([a * e for e in y], b * d), s) for (y, d), s in forms))


def commensurable(h: GroupRep, g: GroupRep) -> QuasiWitness | None:
    """Minimal (a, b) with a*H <= G and b*G <= H, or None.

    Present exactly when the two groups share a span and each scales into
    the other; each side is read per generator (see the module docstring).
    """
    if h.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if h.span != g.span:
        return None
    a = _least_multiplier(h, g)
    if a is None:
        return None
    b = _least_multiplier(g, h)
    if b is None:
        return None
    return QuasiWitness(pair=(a, b))


def _least_multiplier(h: GroupRep, g: GroupRep) -> int | None:
    """Least a >= 1 with a*H <= G, for H inside [G], or None when there is none."""
    a = 1
    for v, s in h.generators:
        y, d = integer_form(v)
        if not _divisible_along(g, y, s):
            return None
        a = lcm(a, order_mod(g, y, d))
    return a


def quasi_automorphism_check(g: GroupRep, m: Mat) -> tuple[Fraction, Mat] | None:
    """Decide whether m is r times an automorphism of g.

    Returns (r, alpha) with m = r * alpha and alpha a verified automorphism,
    or None.  Raises on a singular matrix.
    """
    m = mat(m)
    mat_inverse(m)
    image = apply_span_matrix(g, m)
    witness = quasi_equal_strict(image, g)
    if witness is None:
        return None
    r = 1 / witness.ratio
    alpha = mat([[e / r for e in row] for row in m])
    if not automorphism_check(g, alpha):
        return None
    return r, alpha


@dataclass(frozen=True)
class SplitReport:
    """Outcome of testing a basis partition for (quasi-)splitting."""

    kind: SplitKind
    summands: tuple[GroupRep, ...]
    decomposition: DecompositionRecord | None
    quotient: QuotientDescription


def quasi_split_check(g: GroupRep, basis: BasisRecord, partition: PartitionRecord) -> SplitReport:
    """Classify the partitioned basis: exact split, finite defect, or neither.

    The candidate summands are the pure hulls of the block spans.  Their sum
    either is g (exact), has finite index in g (quasi), or misses a whole
    divisibility direction (no split, with the infinite-torsion witness on
    the report's quotient).
    """
    if partition.basis != basis:
        raise ValueError("partition was built over a different basis")
    require_basis(g, basis)
    summands, total = pure_sum(g, partition.spans)
    if pure_sum_kind(g, partition.spans) is SplitKind.EXACT:
        quotient = trivial_quotient(g, total)
    else:
        quotient = index_and_quotient(g, total)
    if not quotient.is_finite:
        return SplitReport(SplitKind.NONE, summands, None, quotient)
    record = decomposition_record(total, summands)
    if quotient.quotient.order == 1:
        return SplitReport(SplitKind.EXACT, summands, record, quotient)
    return SplitReport(SplitKind.QUASI, summands, record, quotient)
