"""Jonsson bases: strong decompositions of finite index with pure summands.

A Jonsson basis of G is a direct sum A = A_1 + ... + A_t of pure summands
with finite index in G.  The quotient G/A is the associated finite invariant
("the Jonsson quotient"), and much of the structure theory happens there:
decompositions of the quotient sometimes lift to genuine decompositions of
G, block by block, and the ones that do are found by regrouping summands.

Candidate summands are always replaced by the purification of their span,
so every basis built here satisfies the purity requirement by construction.
Searches over candidate families carry explicit bounds and are exhaustive
within them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import prod

from .decomp import (
    SpanTable,
    apply_span_matrix,
    automorphism_check,
    candidate_sums,
    exact_groupings,
    finest_grouping,
    set_partitions,
    span_matrix_image,
)
from .groups import (
    FiniteQuotient,
    GroupError,
    GroupRep,
    SplitKind,
    compare,
    Compare,
    element_type,
    index_and_quotient,
    maps_into,
    pure_sum,
    pure_sum_kind,
    purify,
    trivial_quotient,
)
from .linalg import Mat, Subspace, Vec, hermite_eliminate, mat
from .indec import typeset_obstruction_certificate


class JonssonFlag(enum.Enum):
    RANK1 = "Rank1"
    SI_CERTIFIED = "SI-Certified"
    ASSERTED = "Asserted"


class InfiniteIndexError(GroupError):
    """The candidate sum has infinite index; carries the witness direction."""

    def __init__(self, prime: int, direction: Vec):
        super().__init__(f"infinite {prime}-torsion along {direction}")
        self.prime = prime
        self.direction = direction


class NoJonssonBasisFound(GroupError):
    """No candidate summand family within the height bound is a Jonsson basis.

    A scope-limited answer: a larger height bound may still find one.
    """


@dataclass(frozen=True)
class JonssonBasis:
    group: GroupRep
    summands: tuple[tuple[GroupRep, JonssonFlag], ...]
    quotient: FiniteQuotient

    @property
    def summand_groups(self) -> tuple[GroupRep, ...]:
        return tuple(s for s, _f in self.summands)

    @property
    def index(self) -> int:
        return self.quotient.order


def _certification(summand: GroupRep) -> JonssonFlag:
    if summand.rank == 1:
        return JonssonFlag.RANK1
    if summand.rank == 2 and typeset_obstruction_certificate(summand) is not None:
        return JonssonFlag.SI_CERTIFIED
    return JonssonFlag.ASSERTED


def jonsson_basis_from_summands(g: GroupRep, candidates) -> JonssonBasis:
    """Build a Jonsson basis from candidate summands (purifying their spans).

    Raises on overlapping or deficient spans, and InfiniteIndexError (with
    the witness prime and direction) when the purified sum has infinite
    index in g.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("no candidate summands")
    total_dim = 0
    joined: list[tuple[int, ...]] = []
    for c in candidates:
        if c.ambient_dim != g.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        total_dim += c.rank
        joined.extend(c.span.basis)
    span = Subspace.from_integer_rows(joined, g.ambient_dim)
    if span.dim != total_dim:
        raise GroupError("candidate spans overlap")
    if span.dim != g.rank:
        raise GroupError("candidate spans do not cover the group")
    summands, total = pure_sum(g, (c.span for c in candidates))
    description = index_and_quotient(g, total)
    if not description.is_finite:
        raise InfiniteIndexError(description.prime, description.direction)
    flagged = tuple((s, _certification(s)) for s in summands)
    return JonssonBasis(g, flagged, description.quotient)


def _summand_pieces(a: JonssonBasis) -> tuple[SpanTable, tuple[int, ...]]:
    """A table of the summand spans, the pieces that groupings regroup, and their numbers."""
    table = SpanTable(a.group.ambient_dim)
    return table, tuple(table.piece(s.span) for s in a.summand_groups)


def splitting_decompositions_of(a: JonssonBasis, max_blocks: int):
    """Proper summand groupings whose purified block sums rebuild G exactly,
    fewest blocks first."""
    found = sorted(exact_groupings(a.group, *_summand_pieces(a), max_blocks), key=lambda f: len(f[0]))
    return [(blocks, tuple(purify(a.group, span) for span in spans)) for blocks, spans in found]


def _quotient_subgroup(q: FiniteQuotient, generators) -> tuple[tuple[int, ...], ...]:
    """The subgroup the image tuples generate, as the Hermite basis of its
    preimage in Z^k (the tuples and the rows d_i*e_i): unique, so equal
    subgroups give equal bases, and of full rank, with pivots on the diagonal.
    """
    factors = q.invariant_factors
    k = len(factors)
    work = [list(t) for t in generators] + [[d * (i == j) for j in range(k)] for i, d in enumerate(factors)]
    rank = hermite_eliminate(work, k)
    return tuple(tuple(row) for row in work[:rank])


def _subgroup_order(q: FiniteQuotient, basis) -> int:
    return q.order // prod(row[i] for i, row in enumerate(basis))


@dataclass(frozen=True)
class LiftReport:
    """A quotient decomposition together with its lift to G, if one exists."""

    found: bool
    blocks: tuple[tuple[int, ...], ...] | None
    lifted: tuple[GroupRep, ...] | None
    images: tuple[tuple[tuple[int, ...], ...], ...] | None
    groupings_searched: int = 0


def lift_quotient_decomposition(g: GroupRep, a: JonssonBasis, u_generators, w_generators) -> LiftReport:
    """Try to lift the quotient decomposition U + W to a decomposition of G.

    U and W are given by generator images in invariant-factor coordinates.
    A lift is a regrouping of a's summands into B | C with B* + C* = G,
    image(B*) = U and image(C*) = W.  Refusal after the full grouping scan
    proves the decomposition does not lift.
    """
    if a.group != g and compare(a.group, g) is not Compare.EQUAL:
        raise ValueError("basis belongs to a different group")
    q = a.quotient
    k = len(q.invariant_factors)
    u_gens = [tuple(int(x) % d for x, d in zip(t, q.invariant_factors)) for t in u_generators]
    w_gens = [tuple(int(x) % d for x, d in zip(t, q.invariant_factors)) for t in w_generators]
    if any(len(t) != k for t in itertools.chain(u_gens, w_gens)):
        raise ValueError("image tuples must match the invariant factors")
    u = _quotient_subgroup(q, u_gens)
    w = _quotient_subgroup(q, w_gens)
    # U + W = G/A is direct iff |U| * |W| = |U + W|
    both = _quotient_subgroup(q, u_gens + w_gens)
    if _subgroup_order(q, u) * _subgroup_order(q, w) != q.order or _subgroup_order(q, both) != q.order:
        raise ValueError("the given images are not a direct decomposition of the quotient")

    searched = 0
    table, ids = _summand_pieces(a)
    for blocks in set_partitions(len(ids), 2):
        if len(blocks) < 2:
            continue
        searched += 1
        spans = table.block_spans(ids, blocks)
        if pure_sum_kind(a.group, spans) is not SplitKind.EXACT:
            continue
        b_hull, c_hull = (purify(a.group, span) for span in spans)
        images = tuple(tuple(q.image(v) for v, _s in hull.generators) for hull in (b_hull, c_hull))
        if [_quotient_subgroup(q, im) for im in images] == [u, w]:
            return LiftReport(True, blocks, (b_hull, c_hull), images, searched)
    return LiftReport(False, None, None, None, searched)


def regulating_search(g: GroupRep, height_bound: int = 2):
    """Minimal-index Jonsson basis over all rank-1 summand families.

    The candidate summands are the pure hulls of every line spanned by an
    integer combination of generators with coefficients up to height_bound;
    the family is exhaustive for that scope by construction.  Returns
    (best basis, index).  The zero group's one family is the empty one, a
    Jonsson basis of index 1.
    """
    # each line lies in [G]; its pure hull is built only once a combination
    # of finite index needs it
    table = SpanTable(g.ambient_dim)
    table.integer_lines(candidate_sums(g, height_bound)[0])
    best: JonssonBasis | None = None
    for positions in table.independent_lines(range(len(table.pieces)), g.rank):
        combo = tuple(table.pieces[i] for i in positions)
        kind = pure_sum_kind(g, combo)
        if kind is SplitKind.NONE:
            continue
        hulls, total = pure_sum(g, combo)
        if kind is SplitKind.EXACT:
            quotient = trivial_quotient(g, total).quotient
        else:
            quotient = index_and_quotient(g, total).quotient
        if best is None or quotient.order < best.index:
            flagged = tuple((hull, JonssonFlag.RANK1) for hull in hulls)
            best = JonssonBasis(g, flagged, quotient)
            if best.index == 1:
                break
    if best is None:
        raise NoJonssonBasisFound("no Jonsson basis found within the height bound")
    return best, best.index


@dataclass(frozen=True)
class QuotientMap:
    """The induced isomorphism G/A -> G/(A alpha) on section generators.

    ``source_images[i]`` and ``target_images[i]`` are the coordinates of the
    i-th section generator and of its transport, each in its own quotient's
    invariant-factor presentation.  ``identity`` is decided in the source
    coordinates and only when the two subgroups literally coincide.
    """

    source: FiniteQuotient
    target: FiniteQuotient
    source_images: tuple[tuple[int, ...], ...]
    target_images: tuple[tuple[int, ...], ...]
    identity: bool

    @property
    def is_identity(self) -> bool:
        return self.identity


def induced_quotient_map(g: GroupRep, a: JonssonBasis, alpha: Mat):
    """Transport a by a verified automorphism; the induced map on quotients.

    Returns (a transported, QuotientMap).  The map sends each invariant-
    factor generator of G/A to its coset image in G/(A alpha).
    """
    alpha = mat(alpha)
    if not automorphism_check(g, alpha):
        raise GroupError("not an automorphism of the group")
    transported = jonsson_basis_from_summands(
        g, [apply_span_matrix(g, alpha, s) for s in a.summand_groups]
    )
    source = a.quotient
    target = transported.quotient
    sections = source.section_vectors()
    moved = tuple(span_matrix_image(g, alpha, s) for s in sections)
    source_images = tuple(source.image(s) for s in sections)
    target_images = tuple(target.image(v) for v in moved)
    identity = compare(source.subgroup, target.subgroup) is Compare.EQUAL and all(
        source.image(v) == img for v, img in zip(moved, source_images)
    )
    return transported, QuotientMap(source, target, source_images, target_images, identity)


def kernel_check(g: GroupRep, a: JonssonBasis, alpha: Mat) -> bool:
    """Whether (alpha - identity)/exp(G/A) carries g into itself.

    True exactly when the induced automorphism of G/A is the identity.
    """
    alpha = mat(alpha)
    n = a.quotient.exponent
    rank = g.rank
    beta = tuple(
        tuple((alpha[i][j] - (1 if i == j else 0)) / n for j in range(rank))
        for i in range(rank)
    )
    return maps_into(g, beta)


def unrefinable_quotient_decompositions(g: GroupRep, a: JonssonBasis):
    """The one unrefinable liftable decomposition of the quotient, as a
    one-report list: the finest exact grouping of the summands, where exact
    block refinement from the one block always ends (``decomp.finest_grouping``).
    """
    if a.quotient.order == 1:
        raise ValueError("the quotient is trivial")
    table, ids = _summand_pieces(a)
    blocks = finest_grouping(a.group, table, ids)
    hulls = tuple(purify(a.group, span) for span in table.block_spans(ids, blocks))
    images = tuple(tuple(a.quotient.image(v) for v, _s in hull.generators) for hull in hulls)
    return [LiftReport(True, blocks, hulls, images)]


def summand_invariants(a: JonssonBasis):
    """Multiset of (rank, sampled inverted prime sets) across summands."""
    out = []
    for s in a.summand_groups:
        inverted = sorted({str(element_type(s, v).inverted) for v, _ in s.generators})
        out.append((s.rank, tuple(inverted)))
    return tuple(sorted(out))
