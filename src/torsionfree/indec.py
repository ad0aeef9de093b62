"""Strong indecomposability: Property SI checks and certificates.

Strong indecomposability is semi-decided here, and every result says which
side of the fence it is on.  A witness (a basis partition whose purified
blocks reach the group, exactly or up to finite index) proves the group IS
quasi-decomposable.  The rank-2 typeset obstruction proves it is NOT: a
quasi-decomposition into two rank-1 groups confines the possible inverted
prime sets of elements to {S_A, S_B, S_A intersect S_B}, and no three
pairwise-incomparable sets fit in such a family.  Certificates and witnesses
can therefore never coexist.  A search that ends empty-handed proves
nothing beyond its own scope.

Split and quasi-split verdicts depend only on the spans of the blocks, so
the witness search checks each set of block spans once.  The hulls of the
block spans sum to a subgroup of finite index exactly when a multiple of
each projection onto a block span along the others maps G into G, that is,
when each projection carries every generator (v, S) into W_p for p in S.
The search reads that verdict off the generators and builds the hulls and
the quotient report only for the first span set that passes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .bases import BasisRecord, pure_hull_sum, require_basis
from .decomp import (
    DecompositionRecord,
    PartitionRecord,
    SpanTable,
    _RANK_LIMIT,
    _generated_bases,
    candidate_vectors,
)
from .groups import (
    GroupError,
    GroupRep,
    QuotientDescription,
    SplitKind,
    element_type,
    index_and_quotient,
    pure_sum_kind,
)
from .linalg import Vec
from .quasi import SplitReport, quasi_split_check
from .rank1 import DivisibilityType, PrimeSet


class SIVerdict(enum.Enum):
    HOLDS = "SI-holds-for-this-basis"
    FAILS = "SI-fails"


@dataclass(frozen=True)
class SIReport:
    """Outcome of a Property SI check for one basis."""

    basis: BasisRecord
    hull: DecompositionRecord
    quotient: QuotientDescription
    split_attempts: tuple[tuple[PartitionRecord, bool], ...]
    verdict: SIVerdict
    witness: PartitionRecord | QuotientDescription | None


def _two_block_blockings(t: int) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of range(t) into two blocks, by the even bitmasks 2..2^t - 2 of the second."""
    return [
        tuple(tuple(i for i in range(t) if (mask >> i & 1) == side) for side in (0, 1))
        for mask in range(2, 1 << t, 2)
    ]


def property_si_check(g: GroupRep, basis: BasisRecord) -> SIReport:
    """Property SI for (hull of basis, g): infinite quotient, no lifting split.

    The verdict is about this basis only; SI can hold for one basis of g and
    fail for another.
    """
    require_basis(g, basis)
    if g.rank > _RANK_LIMIT:
        raise GroupError("rank exceeds the partition search limit")
    hull = pure_hull_sum(g, basis)
    quotient = index_and_quotient(g, hull.group)
    attempts = []
    witness: PartitionRecord | QuotientDescription | None = None
    for blocks in _two_block_blockings(len(basis.elements)):
        partition = PartitionRecord(basis, blocks)
        ok = pure_sum_kind(g, partition.spans) is SplitKind.EXACT
        attempts.append((partition, ok))
        if ok and witness is None:
            witness = partition
    if witness is None and quotient.is_finite:
        witness = quotient
    verdict = SIVerdict.HOLDS if witness is None else SIVerdict.FAILS
    return SIReport(basis, hull, quotient, tuple(attempts), verdict, witness)


@dataclass(frozen=True)
class WitnessSearchResult:
    """A quasi-decomposition witness, or the scope that was searched."""

    found: bool
    kind: SplitKind | None
    basis: BasisRecord | None
    partition: PartitionRecord | None
    report: SplitReport | None
    height_bound: int
    bases_searched: int


def strong_decomposability_witness_search(g: GroupRep, height_bound: int) -> WitnessSearchResult:
    """Look for a basis partition proving g quasi-decomposable.

    A found witness is definitive.  An empty result only says no witness
    exists among bases of coefficient height <= height_bound.
    """
    if g.rank > _RANK_LIMIT:
        raise GroupError("rank exceeds the partition search limit")
    searched = 0
    seen_spans = set()
    two_block = _two_block_blockings(g.rank)
    table = SpanTable(g.ambient_dim)
    for ids, basis in _generated_bases(g, height_bound, table):
        searched += 1
        for blocks in two_block:
            spans = table.block_spans(ids, blocks)
            key = frozenset(spans)
            if key in seen_spans:
                continue
            seen_spans.add(key)
            if pure_sum_kind(g, spans) is not SplitKind.NONE:
                partition = PartitionRecord(basis, blocks)
                report = quasi_split_check(g, basis, partition)
                return WitnessSearchResult(
                    True, report.kind, basis, partition, report, height_bound, searched
                )
    return WitnessSearchResult(False, None, None, None, None, height_bound, searched)


@dataclass(frozen=True)
class SICertificate:
    """Three elements whose inverted prime sets rule out quasi-decomposition."""

    group: GroupRep
    vectors: tuple[Vec, Vec, Vec]
    types: tuple[DivisibilityType, DivisibilityType, DivisibilityType]


def typeset_obstruction_certificate(g: GroupRep) -> SICertificate | None:
    """Sound rank-2 strong-indecomposability certificate, or None.

    Were g quasi-equal to a sum of rank-1 groups of types S_A and S_B, every
    element's inverted prime set would be S_A, S_B, or their intersection
    (multipliers shift under finite index, the inverted sets do not).  Any
    antichain of three inverted sets among sampled elements contradicts
    that, since in the forced family the meet is comparable to both tops.

    The sampler can only succeed on three distinct lines W_p.  With W_ALL = 0
    an element off every line has the generic set {p : W_p = [G]}, and one on
    a line L that set plus {p : W_p = L}; all contain the generic set, so an
    antichain needs elements on three distinct lines W_p.  With W_ALL != 0
    every W_p contains W_ALL, which leaves at most one such line.  So the
    answer is None at once in either case.
    """
    if g.rank != 2 or not g.divisible_directions().is_zero():
        return None
    lines = {g.divisible_directions(p) for p in g.tagged_primes}
    if sum(1 for w in lines if w.dim == 1) < 3:
        return None
    found: dict[PrimeSet, tuple[Vec, DivisibilityType]] = {}
    for v in candidate_vectors(g, 2):
        t = element_type(g, v)
        if t.inverted not in found:
            found[t.inverted] = (v, t)
    for trio in itertools.combinations(found, 3):
        if any(a.is_subset(b) or b.is_subset(a) for a, b in itertools.combinations(trio, 2)):
            continue
        vecs = tuple(found[s][0] for s in trio)
        types = tuple(found[s][1] for s in trio)
        return SICertificate(g, vecs, types)
    return None
