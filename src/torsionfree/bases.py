"""Bases of a group: minimal multipliers, B-representations, pure hulls.

A basis of G is a maximal independent subset of G, equivalently a
vector-space basis of [G] all of whose members lie in G.  Bases are
positional throughout the package: partitions and coefficient vectors refer
to basis elements by index, and nothing reorders them behind the caller's
back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .groups import (
    Compare,
    GroupError,
    GroupRep,
    NotASubgroup,
    SpanMismatch,
    compare,
    member,
    order_mod,
    pure_sum,
)
from .linalg import Subspace, Vec, integer_form, solve_in_rows, unit_vec, vec, vscale


@dataclass(frozen=True)
class BasisRecord:
    group: GroupRep
    elements: tuple[Vec, ...]


@dataclass(frozen=True)
class BRepresentation:
    """a = (1/k) * sum n_i b_i with gcd(k, n_1, ..., n_t) = 1."""

    k: int
    coefficients: tuple[int, ...]

    def vector(self, basis: BasisRecord) -> Vec:
        dim = basis.group.ambient_dim
        total = [Fraction(0)] * dim
        for n, b in zip(self.coefficients, basis.elements):
            for j in range(dim):
                total[j] += n * b[j]
        return vec(tuple(e / self.k for e in total))


def is_basis(g: GroupRep, elements) -> bool:
    """Whether elements form a maximal independent subset of g."""
    try:
        elems = [vec(b) for b in elements]
    except (TypeError, ValueError):
        return False
    if len(elems) != g.rank:
        return False
    if any(len(b) != g.ambient_dim for b in elems):
        return False
    if Subspace.span(elems, g.ambient_dim).dim != len(elems):
        return False
    return all(member(g, b) for b in elems)


def basis_record(g: GroupRep, elements) -> BasisRecord:
    elems = tuple(vec(b) for b in elements)
    if not is_basis(g, elems):
        raise ValueError("the elements are not a basis of the group")
    return BasisRecord(g, elems)


def require_basis(g: GroupRep, basis: BasisRecord) -> None:
    """Raise ValueError unless the record is a basis of g.

    basis_record and the searches only make records valid for their own
    group, so only a record made for another group object is checked again.
    """
    if basis.group is not g and not is_basis(g, basis.elements):
        raise ValueError("the elements are not a basis of the group")


def minimal_multiplier(g: GroupRep, elements) -> int:
    """Least m such that m*b lies in g for every b (a vector-space basis of [G])."""
    elems = [vec(b) for b in elements]
    bspan = Subspace.span(elems, g.ambient_dim)
    if bspan.dim != len(elems):
        raise ValueError("the elements are dependent")
    if not (bspan.contains_subspace(g.span) and g.span.contains_subspace(bspan)):
        raise SpanMismatch("the elements do not span [G]")
    return lcm(*(order_mod(g, *integer_form(b)) for b in elems))


def b_representation(g: GroupRep, basis: BasisRecord, a) -> BRepresentation:
    """The unique a = (1/k) sum n_i b_i with integer n_i and gcd(k, n_*) = 1."""
    a = vec(a)
    if not member(g, a):
        raise GroupError("the vector is not an element of the group")
    q = solve_in_rows(basis.elements, a) if basis.elements else ()
    if q is None:
        raise SpanMismatch("the basis does not span the vector")
    k = lcm(*(c.denominator for c in q)) if q else 1
    return BRepresentation(k, tuple(int(c * k) for c in q))


def extend_basis(g: GroupRep, h: GroupRep, c: BasisRecord) -> BasisRecord:
    """Extend a basis of the subgroup h to a basis of g.

    Completion candidates are the standard coordinate vectors in index
    order (those lying in [G]), then the lattice-hull rows; the new part is
    scaled by one common minimal multiplier into g.
    """
    rel = compare(h, g)
    if rel not in (Compare.EQUAL, Compare.LEFT_IN_RIGHT):
        raise NotASubgroup("the basis group is not a subgroup")
    require_basis(h, c)
    space = Subspace.span(list(c.elements), g.ambient_dim)
    new: list[Vec] = []
    candidates = [unit_vec(g.ambient_dim, i) for i in range(g.ambient_dim)]
    candidates += [vec(row) for row in g.lattice_hull.rows]
    for cand in candidates:
        if space.dim + len(new) == g.rank:
            break
        if not g.span.contains_vector(cand):
            continue
        enlarged = Subspace.span(list(c.elements) + new + [cand], g.ambient_dim)
        if enlarged.dim == space.dim + len(new) + 1:
            new.append(cand)
    m = lcm(*(order_mod(g, *integer_form(b)) for b in new))
    return basis_record(g, c.elements + tuple(vscale(m, b) for b in new))


def pure_hull_sum(g: GroupRep, basis: BasisRecord):
    """The internal direct sum of the purified lines through the basis.

    Directness is automatic from independence; the sum need not be all of
    g — its index in g is what the splitting calculus measures.
    """
    from .decomp import decomposition_record

    summands, total = pure_sum(
        g, (Subspace.span([b], g.ambient_dim) for b in basis.elements)
    )
    return decomposition_record(total, summands)
