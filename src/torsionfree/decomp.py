"""Splitting partitions, complete decompositions, and decomposition isomorphy.

A partition of a basis splits the group when the purified block spans sum
back to the whole group; a complete decomposition is a maximal such
refinement.  The verdict depends only on the spans of the blocks: the block
hulls sum to G exactly when each projection of [G] onto a block span along
the others maps G into G, so it is read off G's generators without building
any hull.  Searches are bounded and deterministic: set partitions are
walked in restricted-growth-string order and candidate bases in
lexicographic coefficient order.  An empty search result is never a proof
of indecomposability.

Each basis has one finest exact grouping, since the projections onto block
spans commute and add; ``finest_grouping`` finds it from the two-block
verdicts, and every exact grouping is one of its coarsenings.

A search reads its spans from one ``SpanTable``, made for the call and
dropped with it.  Over the candidate vectors it is the line table: each
vector's line is computed once and numbered, and the span of a set of line
numbers is built once, under the frozenset of numbers.  The basis walk
keeps a combination only while each new line leaves the span of the lines
before it, so a pair needs no elimination once its two lines differ; every
block span of every basis and partition is a table lookup; and since equal
span sets give the same pure hulls and different ones different hulls, the
decomposition search drops a repeated span set before it builds any hull.
Most verdicts are "infinite index", and ``pure_sum_kind`` reaches those by
counting the dimensions of the block spans' meets with each W_q, cached on
the group, without building a projection.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .bases import BasisRecord, require_basis
from .groups import (
    Compare,
    GroupError,
    GroupRep,
    SplitKind,
    compare,
    element_type,
    group_rep,
    maps_into,
    pure_sum_kind,
    purify,
    span_transport,
)
from .linalg import (
    Mat,
    Subspace,
    Vec,
    integer_form,
    mat,
    mat_inverse,
    mat_mul,
    vscale,
)

_RANK_LIMIT = 10


class SummandFlag(enum.Enum):
    RANK1 = "Rank1"
    CERTIFIED = "Indecomposable-Certified"
    UNKNOWN = "Indecomposable-Unknown"


class IsoVerdict(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class PartitionRecord:
    basis: BasisRecord
    blocks: tuple[tuple[int, ...], ...]

    @cached_property
    def spans(self) -> tuple[Subspace, ...]:
        """The span of each block's basis elements, in block order."""
        dim = self.basis.group.ambient_dim
        return tuple(Subspace.span([self.basis.elements[i] for i in block], dim) for block in self.blocks)


@dataclass(frozen=True)
class DecompositionRecord:
    group: GroupRep
    summands: tuple[GroupRep, ...]
    flags: tuple[SummandFlag, ...]


@dataclass(frozen=True)
class IsomorphismAnswer:
    """Outcome of comparing two decompositions of the same group.

    pairing maps summand i of the first record to summand pairing[i] of the
    second; pair_maps holds, per summand, (x, image) vector pairs spanning
    the summand, enough to assemble the block automorphism.
    """

    verdict: IsoVerdict
    pairing: tuple[int, ...] | None = None
    pair_maps: tuple[tuple[tuple[Vec, Vec], ...], ...] | None = None
    reason: str | None = None


def partition_record(basis: BasisRecord, blocks) -> PartitionRecord:
    """Validate disjoint nonempty index blocks covering the basis."""
    norm = tuple(tuple(sorted(int(i) for i in block)) for block in blocks)
    seen: set[int] = set()
    for block in norm:
        if not block:
            raise ValueError("empty partition block")
        for i in block:
            if i < 0 or i >= len(basis.elements) or i in seen:
                raise ValueError("partition indices must cover the basis exactly once")
            seen.add(i)
    if len(seen) != len(basis.elements):
        raise ValueError("partition does not cover the basis")
    return PartitionRecord(basis, norm)


def decomposition_record(
    group: GroupRep, summands, flags=None
) -> DecompositionRecord:
    summands = tuple(summands)
    total = 0
    for s in summands:
        total += s.rank
    if total != group.rank:
        raise ValueError("summand ranks do not add up to the group rank")
    joined = Subspace.from_integer_rows(
        [row for s in summands for row in s.span.basis], group.ambient_dim
    )
    if joined.dim != total:
        raise ValueError("summand spans are not independent")
    if flags is None:
        flags = tuple(
            SummandFlag.RANK1 if s.rank == 1 else SummandFlag.UNKNOWN
            for s in summands
        )
    else:
        flags = tuple(flags)
        if len(flags) != len(summands):
            raise ValueError("one flag per summand")
    return DecompositionRecord(group, summands, flags)


def check_splitting_partition(g: GroupRep, partition: PartitionRecord):
    """Whether the purified block spans reconstitute g; the decomposition if so.

    The verdict comes from the block projections (``groups.pure_sum_kind``),
    so the block hulls are purified only for a partition that splits.
    """
    require_basis(g, partition.basis)
    if pure_sum_kind(g, partition.spans) is not SplitKind.EXACT:
        return False, None
    return True, _split_record(g, partition.spans)


def _split_record(g: GroupRep, spans) -> DecompositionRecord:
    """The decomposition of g into the hulls of block spans known to split it."""
    return decomposition_record(g, tuple(purify(g, space) for space in spans))


def set_partitions(t: int, max_blocks: int | None = None):
    """Every partition of range(t) into at most max_blocks blocks (default t).

    Partitions come in lexicographic order of their restricted growth
    strings (labels a with a[0] = 0 and a[i] <= 1 + max(a[:i])); block b
    holds the indices labelled b, so blocks are ordered by least element.
    Capping every label at max_blocks - 1 walks exactly the partitions with
    at most max_blocks blocks, in the same order as the full walk.
    """
    top = t - 1 if max_blocks is None else max_blocks - 1
    if t == 0:
        yield ()
        return
    if top < 0:
        return
    a = [0] * t
    while True:
        blocks: list[list[int]] = [[] for _ in range(max(a) + 1)]
        for i, label in enumerate(a):
            blocks[label].append(i)
        yield tuple(tuple(b) for b in blocks)
        i = t - 1
        while i > 0 and (a[i] > max(a[:i]) or a[i] == top):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, t):
            a[j] = 0


class SpanTable:
    """Numbered pieces (lines, or subspaces) and the span of any set of them.

    A piece gets the next number the first time it is seen.  The span of a
    set of numbers is built on first use and kept under its frozenset, so
    every basis and partition that meets the same set reads one
    ``Subspace``.  A table serves one search call and is dropped with it.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.pieces: list[Subspace] = []
        self._numbers: dict[Subspace, int] = {}
        self._spans: dict[frozenset[int], Subspace] = {}

    def piece(self, space: Subspace) -> int:
        """The number of a subspace."""
        i = self._numbers.get(space)
        if i is None:
            i = self._numbers[space] = len(self.pieces)
            self.pieces.append(space)
            self._spans[frozenset((i,))] = space
        return i

    def lines(self, vectors) -> tuple[int, ...]:
        """The number of each nonzero vector's line."""
        return self.integer_lines(integer_form(v)[0] for v in vectors)

    def integer_lines(self, rows) -> tuple[int, ...]:
        """The number of each nonzero integer row's line."""
        return tuple(self.piece(Subspace.from_integer_rows([y], self.ambient_dim)) for y in rows)

    def span(self, ids: frozenset[int]) -> Subspace:
        """The span of the numbered pieces."""
        space = self._spans.get(ids)
        if space is None:
            rows = [row for i in ids for row in self.pieces[i].basis]
            space = self._spans[ids] = Subspace.from_integer_rows(rows, self.ambient_dim)
        return space

    def block_spans(self, ids, blocks) -> tuple[Subspace, ...]:
        """The span of each block of positions, in block order; position i holds piece ids[i]."""
        return tuple(self.span(frozenset([ids[i] for i in block])) for block in blocks)

    def independent_lines(self, ids, r: int):
        """Positions i_1 < ... < i_r whose lines ids[i] are independent, in
        ``itertools.combinations`` order.

        A prefix whose lines are dependent has no independent extension, so
        the walk drops it whole.  A line extends an independent prefix when
        it lies outside the prefix's span; for a one-line prefix that is
        just a different line number.
        """
        chosen: list[int] = []

        def extend(start: int):
            if len(chosen) == r:
                yield tuple(chosen)
                return
            prefix = frozenset([ids[i] for i in chosen])
            space = self.span(prefix) if len(prefix) > 1 else None
            for i in range(start, len(ids) - r + len(chosen) + 1):
                line = ids[i]
                if line in prefix:
                    continue
                if space is not None and space.contains_vector(self.pieces[line].basis[0]):
                    continue
                chosen.append(i)
                yield from extend(i + 1)
                chosen.pop()

        return extend(0)


def finest_grouping(g: GroupRep, table: SpanTable, ids) -> tuple[tuple[int, ...], ...]:
    """The classes of positions that no exact two-block grouping separates,
    ordered by least position: the finest grouping whose hulls sum to g.

    Position i holds the table's piece ids[i], and the pieces span [g].  The
    projections pi_S onto the span of the pieces in S commute and add, and a
    grouping is exact iff pi_B maps g into g for each block B, so exact
    groupings are closed under common refinement and under merging blocks:
    they are the coarsenings of this one.  Only the two-block groupings are
    asked, in ``set_partitions`` order.
    """
    t = len(ids)
    # bit j of sides[i]: the j-th two-block grouping is exact and puts i in its second block
    sides = [0] * t
    for j, blocks in enumerate(set_partitions(t, 2)):
        if len(blocks) == 2 and pure_sum_kind(g, table.block_spans(ids, blocks)) is SplitKind.EXACT:
            for i in blocks[1]:
                sides[i] |= 1 << j
    return tuple(tuple(i for i in range(t) if sides[i] == side) for side in dict.fromkeys(sides))


def _coarsenings(finest, max_blocks: int):
    """The groupings of 2..max_blocks blocks that merge the blocks of finest,
    as blocks of positions.  The blocks of finest are ordered by least
    position, so merging them in ``set_partitions`` order keeps that order
    over positions."""
    for merged in set_partitions(len(finest), max_blocks):
        if len(merged) >= 2:
            yield tuple(tuple(sorted(i for b in group for i in finest[b])) for group in merged)


def exact_groupings(g: GroupRep, table: SpanTable, ids, max_blocks: int):
    """Groupings of independent pieces into 2..max_blocks blocks whose pure
    hulls sum to g exactly, as (blocks, block spans) in ``set_partitions`` order.

    They are the coarsenings of ``finest_grouping``, so no further verdict is
    asked, and no hull is built.
    """
    for blocks in _coarsenings(finest_grouping(g, table, ids), max_blocks):
        yield blocks, table.block_spans(ids, blocks)


def _check_rank(rank: int) -> None:
    if rank > _RANK_LIMIT:
        raise GroupError("rank %d exceeds the partition-enumeration limit" % rank)


def enumerate_splitting_partitions(
    g: GroupRep, basis: BasisRecord, max_blocks: int
):
    """All proper partitions of the basis into <= max_blocks blocks that split."""
    _check_rank(len(basis.elements))
    require_basis(g, basis)
    table = SpanTable(g.ambient_dim)
    return [
        (PartitionRecord(basis, blocks), _split_record(g, spans))
        for blocks, spans in exact_groupings(g, table, table.lines(basis.elements), max_blocks)
    ]


def candidate_vectors(g: GroupRep, height_bound: int) -> tuple[Vec, ...]:
    """Nonzero integer combinations of the generators, coefficients bounded
    by height_bound, deduplicated up to sign, in lexicographic order: the
    ``candidate_sums`` over their denominator."""
    return _vectors(*candidate_sums(g, height_bound))


def _vectors(sums, d: int) -> tuple[Vec, ...]:
    return tuple(tuple(Fraction(e, d) for e in y) for y in sums)


def candidate_sums(g: GroupRep, height_bound: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(sums, d): the candidate vectors are the integer rows sums over d.

    The generators are scaled to integer rows over one common denominator
    d, so the walk, the sign (first nonzero entry positive) and the dedupe
    run on integer tuples.  The sums come in ``itertools.product`` order of
    the coefficient tuples: each generator's multiples are added to every
    sum of the generators before it.
    """
    n = g.ambient_dim
    flat, d = integer_form([e for v, _s in g.generators for e in v])
    coeffs = range(-height_bound, height_bound + 1)
    sums = [(0,) * n]
    for i in range(len(g.generators)):
        row = flat[i * n : (i + 1) * n]
        multiples = [tuple(c * e for e in row) for c in coeffs]
        sums = [tuple(map(add, s, m)) for s in sums for m in multiples]
    seen: dict[tuple[int, ...], None] = {}
    for y in sums:
        lead = next((e for e in y if e), 0)
        if lead:
            seen[y if lead > 0 else tuple(-e for e in y)] = None
    return tuple(seen), d


def _generated_bases(g: GroupRep, height_bound: int, table: SpanTable):
    """Each basis of g among the candidate vectors, with its line numbers in
    the table, as (ids, basis) in ``itertools.combinations`` order.  The
    lines are numbered from the integer sums."""
    sums, d = candidate_sums(g, height_bound)
    ids = table.integer_lines(sums)
    pool = _vectors(sums, d)
    for positions in table.independent_lines(ids, g.rank):
        # combinations of generators lie in the group by construction
        yield tuple(ids[i] for i in positions), BasisRecord(g, tuple(pool[i] for i in positions))


def complete_decomposition_search(
    g: GroupRep, given_bases=(), height_bound: int = 1, max_blocks: int | None = None
) -> tuple[DecompositionRecord, ...]:
    """Maximal splitting refinements over the searched bases, deduplicated.

    The scope is the supplied bases plus every basis assembled from integer
    combinations of the generators with coefficients up to height_bound.  An
    empty result means nothing was found within that scope, not that g is
    indecomposable.
    """
    _check_rank(g.rank)
    if max_blocks is None:
        max_blocks = max(g.rank, 2)
    given_bases = tuple(given_bases)
    for basis in given_bases:
        require_basis(g, basis)
    table = SpanTable(g.ambient_dim)
    given = ((table.lines(b.elements), b) for b in given_bases)
    results: list[DecompositionRecord] = []
    seen = set()
    for ids, _basis in itertools.chain(given, _generated_bases(g, height_bound, table)):
        finest = finest_grouping(g, table, ids)
        # the maximal exact groupings of at most max_blocks blocks: the finest
        # one, or its coarsenings into max_blocks blocks when it has more
        if len(finest) > max_blocks:
            maximal = [b for b in _coarsenings(finest, max_blocks) if len(b) == max_blocks]
        else:
            maximal = [finest] if len(finest) > 1 else []
        for blocks in maximal:
            spans = table.block_spans(ids, blocks)
            key = frozenset(spans)
            if key not in seen:
                seen.add(key)
                results.append(_certify_summands(_split_record(g, spans)))
    return tuple(results)


def _certify_summands(record: DecompositionRecord) -> DecompositionRecord:
    if not any(f is SummandFlag.UNKNOWN and s.rank == 2 for s, f in zip(record.summands, record.flags)):
        return record
    from .indec import typeset_obstruction_certificate

    flags = []
    for s, flag in zip(record.summands, record.flags):
        if flag is SummandFlag.UNKNOWN and s.rank == 2:
            if typeset_obstruction_certificate(s) is not None:
                flag = SummandFlag.CERTIFIED
        flags.append(flag)
    return DecompositionRecord(record.group, record.summands, tuple(flags))


# -- isomorphy of decompositions and block automorphisms ----------------------


def _rank1_type_key(s: GroupRep):
    for v, _ps in s.generators:
        return element_type(s, v).inverted
    raise GroupError("rank-1 summand without generators")


def decompositions_isomorphic(
    d1: DecompositionRecord, d2: DecompositionRecord
) -> IsomorphismAnswer:
    """Pair the summands up to isomorphism, or distinguish, or give up.

    Rank-1 summands are isomorphic exactly when their types have the same
    inverted prime set; higher-rank summands are paired only when equal as
    subgroups, anything else is Unknown rather than a guess.
    """
    if compare(d1.group, d2.group) is not Compare.EQUAL:
        raise GroupError("decompositions of different groups")
    ranks1 = sorted(s.rank for s in d1.summands)
    ranks2 = sorted(s.rank for s in d2.summands)
    if ranks1 != ranks2:
        return IsomorphismAnswer(IsoVerdict.NO, reason="rank multisets differ")
    key1 = sorted(
        str(_rank1_type_key(s)) for s in d1.summands if s.rank == 1
    )
    key2 = sorted(
        str(_rank1_type_key(s)) for s in d2.summands if s.rank == 1
    )
    if key1 != key2:
        return IsomorphismAnswer(IsoVerdict.NO, reason="rank-1 typeset multisets differ")

    pairing: list[int | None] = [None] * len(d1.summands)
    used: set[int] = set()
    maps: list[tuple[tuple[Vec, Vec], ...]] = []
    for i, s in enumerate(d1.summands):
        match = None
        for j, t in enumerate(d2.summands):
            if j in used or t.rank != s.rank:
                continue
            witness = _summand_iso(s, t)
            if witness is not None:
                match = (j, witness)
                break
        if match is None:
            return IsomorphismAnswer(
                IsoVerdict.UNKNOWN,
                reason="no certified isomorphism for summand %d" % i,
            )
        pairing[i] = match[0]
        used.add(match[0])
        maps.append(match[1])
    return IsomorphismAnswer(
        IsoVerdict.YES, tuple(pairing), tuple(maps)
    )


def _summand_iso(s: GroupRep, t: GroupRep):
    """(x, image) pairs witnessing s ~ t, or None when not certified."""
    if s.rank == 1:
        b = next(v for v, _ps in s.generators)
        c = next(v for v, _ps in t.generators)
        tb = element_type(s, b)
        tc = element_type(t, c)
        if tb.inverted != tc.inverted:
            return None
        # q*b in s iff q in (1/mb) Z[inv]; map b -> (mb/mc) c matches them
        rho = Fraction(tb.multiplier, tc.multiplier)
        return ((b, vscale(rho, c)),)
    if compare(s, t) is Compare.EQUAL:
        return tuple((row, row) for row in s.span.rows)
    return None


def _transported(image, v: Vec) -> Vec:
    z, e = image(*integer_form(v))
    return tuple(Fraction(c, e) for c in z)


def span_matrix_image(g: GroupRep, m: Mat, v: Vec) -> Vec:
    """Image of v under the rank x rank matrix m acting on g's lattice-hull coordinates."""
    return _transported(span_transport(g, mat(m)), v)


def apply_span_matrix(g: GroupRep, m: Mat, group: GroupRep | None = None) -> GroupRep:
    """Transport group (default g) by m acting on g's lattice-hull coordinates."""
    image = span_transport(g, mat(m))
    if group is None:
        group = g
    return group_rep(g.ambient_dim, [(_transported(image, v), s) for v, s in group.generators])


def automorphism_check(g: GroupRep, m: Mat) -> bool:
    """Whether the span matrix maps g onto g: m and its inverse both map g
    into g, tested in g's own maps (``groups.maps_into``)."""
    m = mat(m)
    minv = mat_inverse(m)
    return maps_into(g, m) and maps_into(g, minv)


def automorphism_from_summand_isos(
    d1: DecompositionRecord,
    d2: DecompositionRecord,
    answer: IsomorphismAnswer,
) -> Mat:
    """Assemble the block map sending each summand onto its partner.

    Returns the rank x rank matrix in lattice-hull coordinates of the group,
    verified by automorphism_check.
    """
    if answer.verdict is not IsoVerdict.YES or answer.pair_maps is None:
        raise GroupError("only a Yes answer assembles to an automorphism")
    g = d1.group
    xs: list[Vec] = []
    ys: list[Vec] = []
    for pairs in answer.pair_maps:
        for x, y in pairs:
            xs.append(g.lattice_hull.coordinates(x))
            ys.append(g.lattice_hull.coordinates(y))
    m = mat_mul(mat_inverse(mat(xs)), mat(ys))
    if not automorphism_check(g, m):
        raise GroupError("assembled block map failed the automorphism check")
    return m
