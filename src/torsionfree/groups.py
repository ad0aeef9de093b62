"""Finite-rank torsion-free abelian groups as finite sums of rank-1 modules.

A group is G = sum_i Z[S_i^-1] * v_i inside Q^n, given by pairs (v_i, S_i)
of a rational vector and a set of inverted primes (finite or ALL).  The class
of such groups is closed under the constructions implemented here:
purification, finite-index subgroups and extensions, direct sums, scaling,
and images under rational maps.

Membership is decided p-locally.  For every prime p the localization of G at
p is W_p + Z_(p)*L_p, where W_p is the span of the generators whose prime set
contains p and L_p is the lattice of the other generators taken modulo W_p.
A vector lies in G iff it lies in the span and in every localization.  Every
prime outside the finite prime sets (an untagged prime) sees the same data,
W_ALL and the lattice hull modulo W_ALL, so the per-prime data is keyed by
the prime key: p itself when p is tagged, and None for ALL and every
untagged prime.  ``GroupRep.divisible_directions(p)`` (W_p) and
``GroupRep.local(p)`` (W_p, L_p and their coordinate map) are the one home
of that data, cached per prime key.  Both start from the generators'
integer forms: W_p is their echelon span, and L_p their residues modulo
W_p in one Hermite form over a common denominator, with no Fraction built.
The coordinate map (``linalg.CoordinateMap``) is an integer matrix N with
one scale s sending x = y/d to coordinate numerators y*N over d*s.  So x
lies in G iff the untagged map's residual vanishes (x is in the span), no
coordinate
denominator of the map at a tagged prime p is divisible by p, and the
untagged map's coordinate denominators are products of tagged primes.
Deciding this takes one lcm, integer dot products and gcds, with no
rational arithmetic and no factoring.

Finite quotients read the same maps as membership: the p-part of G/A is the
Smith form of the coordinates of A's hull rows in G's map at p, and the
image of an element is its coordinates in that map.  Quasi-equality
(``quasi``) and minimal multipliers (``order_mod``) read the maps too.

So does purification.  The pure subgroup H = U ∩ G of a subspace U starts
from the lattice hull inside U, the lifts into U of L ∩ π(U) (π reducing
modulo W_ALL, L the reduced hull) and the pieces U ∩ W_p (``GroupRep.meet``,
which the split verdict ``pure_sum_kind`` also counts).  That seed holds
U ∩ (W_ALL + L), which is H at every untagged prime, so it is saturated at
the tagged primes only and nothing is factored.  G's map at p is one-to-one
on U modulo U ∩ W_p, so it sees the p-local part of every group between the
seed and H exactly.  At p, the vectors (sum c_i h_i)/p that lie in G come
from the kernel of the current generators' coordinates mod p, and those
already in the current group from the coordinates' integer relations.
Pruning (``simplify_presentation``) drops a generator when the others still
give H's W_p and lattice at every prime key, read in the same maps.
``purify`` builds one group: its result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .linalg import (
    CoordinateMap,
    Mat,
    RationalLattice,
    Subspace,
    Vec,
    apply_matrix,
    direct_sum_projections,
    hermite_basis,
    hermite_eliminate,
    integer_form,
    integer_kernel,
    is_zero_vec,
    mat,
    mat_inverse,
    smith_normal_form,
    solve_in_rows,
    vec,
    vscale,
)
from .numutil import next_prime, primes_dividing, strip_primes, valuation
from .rank1 import ALL, NO_PRIMES, DivisibilityType, PrimeSet, div_type, prime_set

Generator = tuple[Vec, PrimeSet]


class GroupError(ValueError):
    """Base class for contract violations on group operations."""


class SpanMismatch(GroupError):
    pass


class NotASubgroup(GroupError):
    pass


class SplitKind(enum.Enum):
    EXACT = "ExactSplit"
    QUASI = "QuasiSplit"
    NONE = "NoSplit"


class Compare(enum.Enum):
    EQUAL = "Equal"
    LEFT_IN_RIGHT = "LeftInRight"
    RIGHT_IN_LEFT = "RightInLeft"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class LocalData:
    """G at one prime key: W_p and the other generators' lattice modulo W_p."""

    space: Subspace
    lattice: RationalLattice

    @cached_property
    def map(self) -> CoordinateMap:
        """The integer coordinate map of the test at this prime key."""
        return CoordinateMap.build(self.space, self.lattice)


@dataclass(frozen=True)
class GroupRep:
    """Immutable group representation; derived data is cached on the instance."""

    ambient_dim: int
    generators: tuple[Generator, ...]

    def __post_init__(self):
        object.__setattr__(self, "_w_cache", {})
        object.__setattr__(self, "_local_cache", {})
        object.__setattr__(self, "_meet_cache", {})
        object.__setattr__(self, "_purify_cache", {})
        object.__setattr__(self, "_kind_cache", {})

    # -- structural data, derived on first use --------------------------------

    @property
    def rank(self) -> int:
        return self.span.dim

    @cached_property
    def span(self) -> Subspace:
        return Subspace.from_integer_rows([y for y, _d in self._integer_generators], self.ambient_dim)

    @cached_property
    def lattice_hull(self) -> RationalLattice:
        """The Z-span of the generator vectors."""
        return RationalLattice.from_integer_forms(self._integer_generators, self.ambient_dim)

    @cached_property
    def _integer_generators(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """``integer_form`` of each generator vector, in generator order."""
        return tuple(integer_form(v) for v, _s in self.generators)

    @cached_property
    def tagged_primes(self) -> tuple[int, ...]:
        """The primes named in the finite prime sets of the generators."""
        tagged: set[int] = set()
        for _v, s in self.generators:
            if not s.is_all:
                tagged.update(s.primes)
        return tuple(sorted(tagged))

    @cached_property
    def active_primes(self) -> tuple[int, ...]:
        """Tagged primes plus the primes in the lattice-hull entries."""
        primes = set(self.tagged_primes)
        for row in self.lattice_hull.rows:
            for e in row:
                if e:
                    primes.update(primes_dividing(e.numerator))
                    primes.update(primes_dividing(e.denominator))
        return tuple(sorted(primes))

    def prime_key(self, p: int | None) -> int | None:
        """p when p is tagged, else None: every untagged prime sees ALL's data."""
        return p if p in self.tagged_primes else None

    def divisible_directions(self, p: int | None = None) -> Subspace:
        """W_p, the span of the generators whose prime set contains p.

        None, like any untagged prime, gives W_ALL, the span of the
        generators inverted at every prime.
        """
        cached = self._w_cache.get(p)
        if cached is None:
            key = self.prime_key(p)
            if key != p:
                return self.divisible_directions(key)
            gens = zip(self._integer_generators, self.generators)
            cached = self._w_cache[key] = Subspace.from_integer_rows(
                [y for (y, _d), (_v, s) in gens if _inverted_at(s, key)], self.ambient_dim
            )
        return cached

    def meet(self, space: Subspace, p: int | None = None) -> Subspace:
        """U ∩ W_p for a subspace U, cached per (U, prime key).

        A line lies in W_p or meets it in zero, so it takes one membership
        test; a larger space takes one intersection.
        """
        cached = self._meet_cache.get((space, p))
        if cached is None:
            key = self.prime_key(p)
            if key != p:
                return self.meet(space, key)
            w = self.divisible_directions(key)
            if space.dim == 1:
                inside = w.contains_vector(space.basis[0])
                cached = space if inside else Subspace(space.ambient_dim, (), ())
            else:
                cached = space.intersect(w)
            self._meet_cache[(space, key)] = cached
        return cached

    def local(self, p: int | None = None) -> LocalData:
        """G at p: W_p and the lattice of the generators not inverted at p,
        taken modulo W_p.  None, like any untagged prime, gives W_ALL and the
        lattice hull modulo W_ALL (the reduced hull).
        """
        cached = self._local_cache.get(p)
        if cached is None:
            key = self.prime_key(p)
            if key != p:
                return self.local(key)
            w = self.divisible_directions(key)
            rest = []
            for (y, d), (_v, s) in zip(self._integer_generators, self.generators):
                if not _inverted_at(s, key):
                    r, b = w._residual(y)
                    rest.append((r, b * d))
            cached = self._local_cache[key] = LocalData(
                w, RationalLattice.from_integer_forms(rest, self.ambient_dim)
            )
        return cached

    def key(self):
        """Canonical hashable key of the presentation (for memo tables)."""
        return (
            self.ambient_dim,
            tuple(sorted((v, repr(s)) for v, s in self.generators)),
        )


def _inverted_at(s: PrimeSet, key: int | None) -> bool:
    """Whether the prime set S inverts the primes of a prime key."""
    return s.is_all if key is None else key in s


def group_rep(ambient_dim: int, generators) -> GroupRep:
    """Build a GroupRep from (vector, prime-set) pairs, dropping zero vectors."""
    gens: list[Generator] = []
    seen = set()
    for v, s in generators:
        v = vec(v)
        if len(v) != ambient_dim:
            raise ValueError(
                "generator has length %d, ambient is %d" % (len(v), ambient_dim)
            )
        if is_zero_vec(v):
            continue
        if not isinstance(s, PrimeSet):
            s = prime_set(s)
        if (v, s) in seen:
            continue
        seen.add((v, s))
        gens.append((v, s))
    return GroupRep(ambient_dim, tuple(gens))


def zero_group(ambient_dim: int) -> GroupRep:
    return GroupRep(ambient_dim, ())


def scale_group(g: GroupRep, r) -> GroupRep:
    r = Fraction(r)
    if r == 0:
        raise ValueError("cannot scale a group by zero")
    return group_rep(g.ambient_dim, [(vscale(r, v), s) for v, s in g.generators])


def map_group(g: GroupRep, m: Mat) -> GroupRep:
    """Image of g under the linear map with matrix m (vectors act on rows)."""
    target_dim = len(m[0]) if m else g.ambient_dim
    return group_rep(target_dim, [(apply_matrix(v, m), s) for v, s in g.generators])


def sum_groups(*groups: GroupRep) -> GroupRep:
    if not groups:
        raise ValueError("sum of no groups")
    ambient = groups[0].ambient_dim
    gens = []
    for g in groups:
        if g.ambient_dim != ambient:
            raise ValueError("ambient dimension mismatch in sum")
        gens.extend(g.generators)
    return group_rep(ambient, gens)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def member(g: GroupRep, x) -> bool:
    """Exact membership x in G, read off the group's integer coordinate maps."""
    y, d = integer_form(x)
    if len(y) != g.ambient_dim:
        raise ValueError("vector length mismatch")
    return _member_scaled(g, y, d)


def _member_scaled(g: GroupRep, y: tuple[int, ...], d: int) -> bool:
    """Whether y/d lies in G (y an integer vector, d a positive integer)."""
    if not any(y):
        return True
    untagged = g.local().map
    if not untagged.in_span(y):
        return False
    # lcm of the coordinate denominators; only tagged primes may divide it
    u = d * untagged.scale
    if strip_primes(u // gcd(u, *untagged.numerators(y)), g.tagged_primes) != 1:
        return False
    for p in g.tagged_primes:
        local = g.local(p).map
        u = d * local.scale
        if u % p == 0 and (u // gcd(u, *local.numerators(y))) % p == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _divisible_along(g: GroupRep, y: tuple[int, ...], s: PrimeSet) -> bool:
    """Whether the integer vector y, lying in [G], lies in W_p for every p in S
    (in W_ALL for S = ALL), read as: its coordinates in the p-local map vanish."""
    keys = (None,) if s.is_all else s
    return all(not any(g.local(p).map.numerators(y)) for p in keys)


def _piece_contained(g: GroupRep, v: Vec, s: PrimeSet) -> bool:
    """Whether the rank-1 module Z[S^-1]*v is contained in G: v lies in G and,
    for each p in S, in W_p, the directions of infinite p-height."""
    y, d = integer_form(v)
    return _member_scaled(g, y, d) and _divisible_along(g, y, s)


def subgroup_leq(h: GroupRep, g: GroupRep) -> bool:
    """Whether H <= G."""
    if h.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return all(_piece_contained(g, v, s) for v, s in h.generators)


def compare(g: GroupRep, h: GroupRep) -> Compare:
    le = subgroup_leq(g, h)
    ge = subgroup_leq(h, g)
    if le and ge:
        return Compare.EQUAL
    if le:
        return Compare.LEFT_IN_RIGHT
    if ge:
        return Compare.RIGHT_IN_LEFT
    return Compare.INCOMPARABLE


# ---------------------------------------------------------------------------
# Purification: the pure subgroup U ∩ G of a subspace U
# ---------------------------------------------------------------------------


def _fp_left_kernel(rows: list[list[int]], p: int, nrows: int) -> list[list[int]]:
    """Basis of {c in F_p^nrows : c * rows = 0}, by Gaussian elimination mod p."""
    ncols = max((len(r) for r in rows), default=0)
    work = [[(r[j] if j < len(r) else 0) % p for j in range(ncols)] for r in rows]
    ident = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        ident[rank], ident[piv] = ident[piv], ident[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [e * inv % p for e in work[rank]]
        ident[rank] = [e * inv % p for e in ident[rank]]
        for r in range(nrows):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(e - f * w) % p for e, w in zip(work[r], work[rank])]
                ident[r] = [(e - f * w) % p for e, w in zip(ident[r], ident[rank])]
        rank += 1
    return [ident[r] for r in range(rank, nrows)]


def _fp_extend(basis: list[tuple[int, list[int]]], c, p: int) -> bool:
    """Add c to an echelon basis over F_p, unless c lies in its span already.

    Each basis row is monic at its pivot and zero at the pivots of the rows
    before it, so reducing c by the rows in order leaves zero exactly when c
    lies in their span.
    """
    c = [e % p for e in c]
    for piv, row in basis:
        f = c[piv]
        if f:
            c = [(a - f * b) % p for a, b in zip(c, row)]
    piv = next((j for j, e in enumerate(c) if e), None)
    if piv is None:
        return False
    inv = pow(c[piv], -1, p)
    basis.append((piv, [e * inv % p for e in c]))
    return True


def _saturation(g: GroupRep, forms, p: int) -> list[tuple[list[int], int]]:
    """The vectors z = (sum c_i g_i)/p that saturating C at p adjoins, as
    (integer row, denominator) pairs.

    C is the current group: the g_i = y_i/d_i of ``forms``, its generators
    not inverted at p, plus pieces inverted at p that span U ∩ W_p.  The c
    run in order over the kernel of the g_i's coordinates mod p in G's map
    at p, so every z lies in G.  Away from p, 1/p is a unit and z lies in
    C.  At p, G's map is one-to-one on U modulo U ∩ W_p, so z lies in C iff
    c is, mod p, an integer relation among the coordinates plus a
    combination of the c already taken.  Such c are skipped; the others are
    taken.
    """
    local = g.local(p).map
    coords = []
    for y, d in forms:
        if not local.in_span(y):
            raise RuntimeError("generator escapes the group span")
        coords.append((local.numerators(y), d * local.scale))
    den = lcm(*[u for _n, u in coords])
    rows = [[n * (den // u) for n in nums] for nums, u in coords]
    # the coordinates n/den are p-integral: p's part of den divides every n
    pe = p ** valuation(den, p)
    unit = pow(den // pe, -1, p)
    kernel = _fp_left_kernel([[n // pe * unit % p for n in r] for r in rows], p, len(forms))
    if not kernel:
        return []
    taken: list[tuple[int, list[int]]] = []
    for relation in integer_kernel(rows):
        _fp_extend(taken, relation, p)
    common = lcm(*[d for _y, d in forms])
    out = []
    for c in kernel:
        if _fp_extend(taken, c, p):
            terms = [(ci * (common // d), y) for ci, (y, d) in zip(c, forms) if ci]
            out.append(([sum(k * y[j] for k, y in terms) for j in range(g.ambient_dim)], common * p))
    return out


def _index_primes(outer: RationalLattice, inner: RationalLattice) -> set[int]:
    """The primes in [outer : inner] for lattices of one span: Hermite bases of
    one span share pivot columns, so the index is the ratio of the pivot products."""
    if outer.pivots != inner.pivots:
        raise ValueError("the lattices do not span the same subspace")
    index = Fraction(
        prod(r[j] for r, j in zip(inner.numerators, inner.pivots)) * outer.denominator**outer.rank,
        prod(r[j] for r, j in zip(outer.numerators, outer.pivots)) * inner.denominator**inner.rank,
    )
    return set(primes_dividing(index.numerator)) | set(primes_dividing(index.denominator))


def purify(g: GroupRep, subspace: Subspace) -> GroupRep:
    """The pure subgroup U ∩ G determined by a subspace U.

    Seeds with U' ∩ (W_ALL + L), for U' = U ∩ span(G) and L the reduced
    hull, plus the divisible directions inside U'.  The seed is the pure
    subgroup at every untagged prime, so it saturates at the tagged primes
    only and factors nothing; each adjunction strictly decreases a finite
    index, so the loop terminates with the full pure subgroup.  Results are
    memoised on g, so a repeated subspace returns the same object for as
    long as g lives.
    """
    if subspace.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    hull = g._purify_cache.get(subspace)
    if hull is None:
        hull = _purify(g, subspace)
        g._purify_cache[subspace] = hull
    return hull


def pure_sum(g: GroupRep, spaces) -> tuple[tuple[GroupRep, ...], GroupRep]:
    """The pure hulls of the subspaces in g and their sum (zero for none)."""
    hulls = tuple(purify(g, space) for space in spaces)
    total = sum_groups(*hulls) if hulls else zero_group(g.ambient_dim)
    return hulls, total


def pure_sum_kind(g: GroupRep, spaces) -> SplitKind:
    """How the pure hulls of independent subspaces U_1..U_k spanning [G] sum.

    With pi_i the projection onto U_i along the others, the hulls U_i ∩ G
    sum to G exactly when every pi_i maps G into G, and to a subgroup of
    finite index exactly when some multiple of every pi_i does.  A multiple
    of pi_i(v) always lies in G, so the index is finite iff pi_i(W_q) ⊆ W_q
    for every i and every q in the tagged primes and ALL: W_q is spanned by
    the generators (v, S) with q in S, and Z[S^-1]*pi_i(v) needs pi_i(v) in
    W_q.  That holds iff the sum of dim(U_i ∩ W_q) over i is dim W_q, and
    this count decides NONE:
      - if every pi_i keeps W_q, each w in W_q is the sum of its parts
        pi_i(w) in U_i ∩ W_q, so W_q is the direct sum of the U_i ∩ W_q;
      - if W_q is that direct sum, pi_i maps it onto U_i ∩ W_q.
    The meets come from ``GroupRep.meet``, and a NONE verdict builds no
    projection.  Otherwise the projections come from one elimination of the
    spaces' integer rows, and the hulls sum to G iff every pi_i(v) of a
    generator lies in G, read off g's own coordinate maps; the last
    projection is the identity minus the others, so it needs no test.  No
    hull and no sum group is built.  Raises ValueError when the spaces are
    not independent and SpanMismatch when they do not span [G].  Verdicts
    are memoised on g by the tuple of spaces; errors are not.
    """
    spaces = tuple(spaces)
    kind = g._kind_cache.get(spaces)
    if kind is None:
        kind = g._kind_cache[spaces] = _pure_sum_kind(g, spaces)
    return kind


def _pure_sum_kind(g: GroupRep, spaces: tuple[Subspace, ...]) -> SplitKind:
    short = any(
        sum(g.meet(u, key).dim for u in spaces) < g.divisible_directions(key).dim
        for key in (*g.tagged_primes, None)
    )
    if short:
        # the count assumes the spaces independent: check that, and only here,
        # since direct_sum_projections checks it on the other path
        total = Subspace.from_integer_rows([row for u in spaces for row in u.basis], g.ambient_dim)
        if total.dim != sum(u.dim for u in spaces):
            raise ValueError("the subspaces are not independent")
    else:
        total, images, d = direct_sum_projections(spaces, g.ambient_dim)
    if total != g.span:
        raise SpanMismatch("the subspaces do not span the group")
    if short:
        return SplitKind.NONE
    for y, e in g._integer_generators:
        head = [y[p] for p in total.pivots]
        for image in images[:-1]:
            z = [0] * g.ambient_dim
            for c, row in zip(head, image):
                if c:
                    z = [a + c * b for a, b in zip(z, row)]
            if not _member_scaled(g, z, e * d):
                return SplitKind.QUASI
    return SplitKind.EXACT


def _purify(g: GroupRep, subspace: Subspace) -> GroupRep:
    u = subspace.intersect(g.span)
    if u.dim == 0:
        return zero_group(g.ambient_dim)

    # the untagged lattice grows by saturation; the divisible pieces stay fixed
    seed = g.lattice_hull.intersect_subspace(u)
    pieces: list[tuple[RationalLattice, PrimeSet]] = []
    for p in (*g.tagged_primes, None):
        vp = g.meet(u, p)
        if vp.dim:
            inner = seed if vp == u else g.lattice_hull.intersect_subspace(vp)
            pieces.append((inner, ALL if p is None else prime_set([p])))

    # with π reducing mod W_ALL and L the reduced hull, the seed plus the lifts
    # into U of L ∩ π(U) and the piece U ∩ W_ALL give U ∩ (W_ALL + L), which
    # is U ∩ G at every untagged prime (the seed alone is when W_ALL = 0)
    lattice = seed
    w = g.divisible_directions()
    if w.dim:
        reduced = [w.reduce(r) for r in u.rows]
        pi_u = Subspace.span(reduced, g.ambient_dim)
        lifts = [
            apply_matrix(solve_in_rows(reduced, x), u.rows)
            for x in g.local().lattice.intersect_subspace(pi_u).rows
        ]
        lattice = RationalLattice.from_integer_forms(
            [*seed.forms, *map(integer_form, lifts)], g.ambient_dim
        )

    for _round in range(256):
        changed = False
        for p in g.tagged_primes:
            fixed = [form for inner, s in pieces if p not in s for form in inner.forms]
            added = _saturation(g, [*lattice.forms, *fixed], p)
            if added:
                lattice = RationalLattice.from_integer_forms([*lattice.forms, *added], g.ambient_dim)
                changed = True
        if not changed:
            gens = [(row, NO_PRIMES) for row in lattice.rows]
            gens += [(row, s) for inner, s in pieces for row in inner.rows]
            return simplify_presentation(g, gens)
    raise RuntimeError("purification failed to stabilize (internal error)")


def simplify_presentation(g: GroupRep, gens=None) -> GroupRep:
    """Drop generators whose whole rank-1 piece lies in the sum of the rest.

    ``gens`` present a pure subgroup H of g, g itself by default, and the
    result presents H.  Each drop leaves H alone, so ``_drop_test`` decides
    it from g's own per-prime maps.  One pass suffices: a generator kept once
    stays needed, since later drops only shrink the sum of the others.
    """
    gens = list(g.generators if gens is None else gens)
    can_drop = _drop_test(g, gens)
    kept: list[int] = []
    for i in range(len(gens)):
        rest = kept + list(range(i + 1, len(gens)))
        if not (rest and can_drop(i, rest)):
            kept.append(i)
    return GroupRep(g.ambient_dim, tuple(gens[i] for i in kept))


def _hermite_pivots(rows) -> list[int]:
    """The pivot entries of the Hermite form of integer rows."""
    work = [list(r) for r in rows]
    rank = hermite_eliminate(work, len(work[0]) if work else 0)
    return [next(e for e in r if e) for r in work[:rank]]


def _drop_test(g: GroupRep, gens: list[Generator]):
    """A test of whether gens[i] can be dropped when it and the gens at ``rest``
    sum to H.

    H, the sum of all the gens, must be pure in G, so that at each prime
    key its divisible directions are [H] ∩ W_p and G's map at the key is
    one-to-one on H modulo them.  At a prime l a sum of pieces localizes to
    W + Z_(l)*L, W spanned by the pieces inverted at l and L by the others;
    it is H_(l) iff W is H's W_l and L has index prime to l in H's lattice
    at l.  In G's map at l's prime key, that index is the ratio of the
    Hermite pivot products of L's coordinates and of all the gens'
    coordinates.  Dropping gens[i] changes W at the keys that invert it and
    L at the others, so each key needs one of the two checks.  The integer
    forms and the coordinates, over one denominator, are read once per call.
    """
    forms = [integer_form(v) for v, _s in gens]
    common = lcm(*[d for _y, d in forms])
    per_key = []
    for key in (*g.tagged_primes, None):
        local = g.local(key).map
        rows = [
            None if _inverted_at(s, key) else [n * (common // d) for n in local.numerators(y)]
            for (_v, s), (y, d) in zip(gens, forms)
        ]
        divisible = [y for r, (y, _d) in zip(rows, forms) if r is None]
        pivots = _hermite_pivots([r for r in rows if r is not None])
        per_key.append(
            (key, rows, Subspace.from_integer_rows(divisible, g.ambient_dim).dim, len(pivots), prod(pivots))
        )

    def can_drop(i: int, rest: list[int]) -> bool:
        for key, rows, dim, rank, full in per_key:
            if rows[i] is None:
                divisible = [forms[j][0] for j in rest if rows[j] is None]
                if Subspace.from_integer_rows(divisible, g.ambient_dim).dim < dim:
                    return False
                continue
            pivots = _hermite_pivots([rows[j] for j in rest if rows[j] is not None])
            if len(pivots) < rank:
                return False
            index = prod(pivots) // full
            # untagged primes share the None key: only tagged primes may divide it
            if index % key == 0 if key else strip_primes(index, g.tagged_primes) > 1:
                return False
        return True

    return can_drop


# ---------------------------------------------------------------------------
# Divisible part and element types
# ---------------------------------------------------------------------------


def divisible_part(g: GroupRep, p) -> GroupRep:
    """Largest p-divisible subgroup (pass "ALL" for the divisible subgroup).

    Equals the pure subgroup of the corresponding divisible directions.
    """
    if p == "ALL":
        result = purify(g, g.divisible_directions())
        for v, _s in result.generators:
            if not g.divisible_directions().contains_vector(v):
                raise RuntimeError("divisible part escapes its directions")
        return result
    p = int(p)
    result = purify(g, g.divisible_directions(p))
    if compare(result, scale_group(result, p)) != Compare.EQUAL:
        raise RuntimeError("divisible part is not p-divisible (internal error)")
    return result


def element_type(g: GroupRep, a) -> DivisibilityType:
    """The type of a in G: describes {r in Q : r*a in G} as (1/m) Z[S].

    Heights are read off the coordinate maps.  The p-height of a is the least
    p-valuation of its nonzero coordinates in the map at p, which for a in G
    is v_p(gcd of the numerators) - v_p(common denominator); a lies in W_p,
    and has infinite p-height, iff those coordinates all vanish.  Untagged
    primes share the untagged map, so their heights together are the gcd of
    its coordinates with the tagged primes divided out.
    """
    y, d = integer_form(a)
    if len(y) != g.ambient_dim:
        raise ValueError("vector length mismatch")
    # member's test, read off the same contents as the heights
    untagged = g.local().map
    m, den = _content(untagged, y, d)
    local = {p: _content(g.local(p).map, y, d) for p in g.tagged_primes}
    if (
        not untagged.in_span(y)
        or strip_primes(den, g.tagged_primes) != 1
        or any(u % p == 0 for p, (_c, u) in local.items())
    ):
        raise GroupError("element does not lie in the group")
    if not m:
        return div_type(1, ALL)
    m = strip_primes(m, g.tagged_primes)
    for p, (num, _u) in local.items():
        if num:
            m *= p ** valuation(num, p)
    return div_type(m, prime_set(p for p, (num, _u) in local.items() if not num))


def _content(local: CoordinateMap, y: tuple[int, ...], d: int) -> tuple[int, int]:
    """(c, u) in lowest terms for x = y/d: c/u is the gcd of x's coordinates in
    the map, u their least common denominator (c = 0, u = 1 when all vanish)."""
    c, u = gcd(*local.numerators(y)), d * local.scale
    common = gcd(c, u)
    return c // common, u // common


def order_mod(g: GroupRep, y: tuple[int, ...], d: int) -> int:
    """Least m >= 1 with m*x in G, for x = y/d in [G], read off g's coordinate maps.

    Let D be the least common denominator of x's coordinates in the untagged
    map, and D_p the one in the map at each tagged prime p.  m*x lies in G
    exactly when D/gcd(D, m) is a product of tagged primes and p^v_p(D_p)
    divides m at each tagged p (the test ``member`` applies to m*x).  So m is
    D with the tagged primes divided out, times p^v_p(D_p) for each tagged p.
    """
    untagged = g.local().map
    if not untagged.in_span(y):
        raise SpanMismatch("vector outside the span of the group")
    _c, m = _content(untagged, y, d)
    m = strip_primes(m, g.tagged_primes)
    for p in g.tagged_primes:
        _c, den = _content(g.local(p).map, y, d)
        if den % p == 0:
            m *= p ** valuation(den, p)
    return m


# ---------------------------------------------------------------------------
# Finite quotients G/A
# ---------------------------------------------------------------------------


class FiniteQuotient:
    """A finite quotient G/A with invariant factors and a computable image map.

    Attributes:
        invariant_factors: ascending (d_1 | d_2 | ... | d_k), each >= 2.
        exponent: d_k, or 1 for the trivial quotient.
        order: product of the invariant factors.
        generator_images: images of G's generators modulo the factors.
    """

    def __init__(self, g: GroupRep, a: GroupRep, parts):
        self.group = g
        self.subgroup = a
        # parts: list of (p, [(exp, basis_index)...], V, sections) with
        # exponents sorted descending within each prime; see _quotient_parts_at.
        self._parts = parts
        depth = max((len(exps) for _p, exps, *_rest in parts), default=0)
        descending = [
            prod(p ** exps[j][0] for p, exps, *_rest in parts if j < len(exps)) for j in range(depth)
        ]
        self.invariant_factors = tuple(reversed(descending))
        self.exponent = self.invariant_factors[-1] if self.invariant_factors else 1
        self.order = prod(self.invariant_factors)
        self.generator_images = tuple(self.image(v) for v, _s in g.generators)

    def image(self, x) -> tuple[int, ...]:
        """Image of x (an element of G) as a tuple modulo the invariant factors."""
        y, d = integer_form(x)
        if len(y) != self.group.ambient_dim:
            raise ValueError("vector length mismatch")
        k = len(self.invariant_factors)
        per_prime: dict[int, list[int]] = {}
        for p, exps, v, _sections in self._parts:
            local = self.group.local(p).map
            if not local.in_span(y):
                raise GroupError("vector outside the group span")
            # x's coordinates c in G's map at p; c * V is x in the Smith basis
            nums = local.numerators(y)
            vals = []
            for exp, idx in exps:
                q = Fraction(sum(n * row[idx] for n, row in zip(nums, v)), d * local.scale)
                if q.denominator % p == 0:
                    raise GroupError("vector is not in the group (p-local escape)")
                pe = p**exp
                vals.append(q.numerator * pow(q.denominator, -1, pe) % pe)
            per_prime[p] = vals
        out = []
        for j in range(k):
            desc = k - 1 - j
            residue, modulus = 0, 1
            for p, exps, *_rest in self._parts:
                if desc < len(exps):
                    pe = p ** exps[desc][0]
                    r = per_prime[p][desc]
                    inverse = pow(modulus, -1, pe)
                    residue = (residue + modulus * inverse * (r - residue)) % (modulus * pe)
                    modulus *= pe
            out.append(residue % self.invariant_factors[j])
        return tuple(out)

    def section_vectors(self) -> tuple[Vec, ...]:
        """Elements of G whose images generate the quotient."""
        return tuple(s for *_rest, sections in self._parts for s in sections)


@dataclass(frozen=True)
class QuotientDescription:
    """Outcome of index_and_quotient: finite with data, or infinite torsion."""

    kind: str  # "finite" | "infinite"
    quotient: FiniteQuotient | None = None
    prime: int | None = None
    direction: Vec | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def index_and_quotient(g: GroupRep, a: GroupRep) -> QuotientDescription:
    """Describe G/A for a subgroup A <= G with the same rational span.

    Returns a finite description with invariant factors, generator images
    and exponent, or an infinite-torsion witness: a prime p and a direction
    divisible at p in G but of bounded p-height in A, whose classes have
    unbounded order.
    """
    if not subgroup_leq(a, g):
        raise NotASubgroup("A is not a subgroup of G")
    if a.span != g.span:
        raise SpanMismatch("A does not span all of G; the quotient is not torsion")

    tagged = sorted(set(g.tagged_primes) | set(a.tagged_primes))
    for p in (*tagged, None):
        wg, wa = g.divisible_directions(p), a.divisible_directions(p)
        if wg == wa:
            continue
        if p is None:
            # the least prime tagged in neither group and dividing no
            # lattice-hull entry (the least one outside both groups' active
            # primes), found without factoring the entries
            entries = [e for h in (g, a) for row in h.lattice_hull.rows for e in row if e]
            p = 2
            while p in tagged or any(e.numerator % p == 0 or e.denominator % p == 0 for e in entries):
                p = next_prime(p)
        return QuotientDescription(
            "infinite", prime=p, direction=_direction_witness(g, wg, wa)
        )

    return QuotientDescription(
        "finite", quotient=FiniteQuotient(g, a, _finite_quotient_parts(g, a))
    )


def _direction_witness(g: GroupRep, wg: Subspace, wa: Subspace) -> Vec:
    inner = g.lattice_hull.intersect_subspace(wg)
    for row in inner.rows:
        if not wa.contains_vector(row):
            return row
    raise RuntimeError("no witness direction found (internal error)")


def _finite_quotient_parts(g: GroupRep, a: GroupRep):
    # at a prime q tagged in neither group, G/A has a q-part only if q
    # divides the index of the reduced hulls
    relevant = set(g.tagged_primes) | set(a.tagged_primes)
    # index_and_quotient has checked that A and G share W_ALL, so A's reduced
    # hull is taken modulo the same directions as G's.
    l_g, l_a = g.local().lattice, a.local().lattice
    if l_g.rank != l_a.rank:
        raise RuntimeError("rank mismatch after divisible reduction")
    if l_g.rank:
        relevant |= _index_primes(l_g, l_a)
    # the primes of one prime key of G share its map, and so one Smith form
    by_key: dict[int | None, list[int]] = {}
    for p in sorted(relevant):
        by_key.setdefault(g.prime_key(p), []).append(p)
    parts = [part for key, primes in by_key.items() for part in _quotient_parts_at(g, a, key, primes)]
    return sorted(parts, key=lambda part: part[0])


def _coordinate_smith(local: CoordinateMap, lattice: RationalLattice):
    """(s, d, V) for a lattice spanning the lattice of a coordinate map modulo its W.

    s is the least common denominator of the coordinates of the lattice's
    rows, and d and V are the invariant factors and the column transform of
    the Smith form of s times the coordinate matrix.
    """
    scaled = []
    for y, den in lattice.forms:
        if not local.in_span(y):
            raise RuntimeError("a row escapes the span of the coordinate map")
        scaled.append((local.numerators(y), den * local.scale))
    s = lcm(*(u // gcd(u, *nums) for nums, u in scaled))
    d, _u, v = smith_normal_form([[e * s // u for e in nums] for nums, u in scaled])
    if len(d) != len(local.columns):
        raise RuntimeError("the rows do not span the lattice of the coordinate map")
    return s, d, v


def _quotient_parts_at(g: GroupRep, a: GroupRep, key: int | None, primes):
    """The p-primary parts of G/A, for the primes p of one prime key of G:
    exponents, a solving basis, and sections (parts with no exponent are left out).

    Works modulo W_p, in the basis B of G's lattice at p (``GroupRep.local``),
    where G's coordinate map at p reads off the coordinates of A's hull rows.
    That transition matrix is p-integral, and its Smith form U * M * V
    diagonalizes the quotient's p-part in the basis V^-1 * B.  Coordinates c
    in B become c * V in that basis.  The sections are elements of G's
    lattice hull realizing the cyclic summands.
    """
    local = g.local(key).map
    if not local.columns:
        return []
    denom, d, v = _coordinate_smith(local, a.lattice_hull)
    transform = None
    parts = []
    for p in primes:
        if denom % p == 0:
            raise RuntimeError("p-local transition has p in a denominator")
        exps = [(valuation(di, p), i) for i, di in enumerate(d) if di % p == 0]
        if not exps:
            continue
        exps.sort(key=lambda t: -t[0])
        if transform is None:
            # B is the Hermite basis T * (hull mod W_p), so the section of
            # basis row i of V^-1 * B is row i of V^-1 * T * hull
            w, hull = g.divisible_directions(key), g.lattice_hull.rows
            _basis, transform = hermite_basis([w.reduce(r) for r in hull])
            v_inv = mat_inverse(mat(v))
        sections = tuple(
            apply_matrix(apply_matrix(v_inv[i], transform), hull) for _e, i in exps
        )
        parts.append((p, exps, v, sections))
    return parts
