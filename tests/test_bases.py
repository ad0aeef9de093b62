from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import nonzero_group_reps, small_fractions
from torsionfree import bases, decomp, indec, quasi
from torsionfree.bases import (
    b_representation,
    basis_record,
    extend_basis,
    is_basis,
    minimal_multiplier,
    pure_hull_sum,
)
from torsionfree.decomp import complete_decomposition_search
from torsionfree.groups import (
    GroupError,
    NotASubgroup,
    SpanMismatch,
    compare,
    group_rep,
    index_and_quotient,
    member,
    order_mod,
    subgroup_leq,
)
from torsionfree.indec import property_si_check, strong_decomposability_witness_search
from torsionfree.linalg import integer_form, solve_in_rows, vadd, vec, vscale
from torsionfree.numutil import divisors


def G1():
    return group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])


def G2():
    return group_rep(2, [((1, 0), (2,)), ((0, 1), (3,)), ((1, 1), (5,))])


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def Z2():
    return group_rep(2, [((1, 0), ()), ((0, 1), ())])


class TestIsBasis:
    def test_axes_of_g3(self):
        assert is_basis(G3(), [(1, 0), (0, 1)])

    def test_non_splitting_basis_is_still_a_basis(self):
        assert is_basis(G1(), [(1, 0), (1, 1)])

    def test_dependent_elements(self):
        assert not is_basis(G3(), [(1, 0), (2, 0)])

    def test_wrong_cardinality(self):
        assert not is_basis(G3(), [(1, 0)])

    def test_non_member(self):
        assert not is_basis(Z2(), [(F(1, 2), 0), (0, 1)])

    def test_record_rejects_non_basis(self):
        with pytest.raises(ValueError):
            basis_record(Z2(), [(1, 0), (2, 0)])

    def test_searches_do_not_revalidate_per_partition(self, monkeypatch):
        calls = []

        def counting(g, elements):
            calls.append(tuple(elements))
            return is_basis(g, elements)

        for module in (bases, decomp, quasi, indec):
            monkeypatch.setattr(module, "is_basis", counting, raising=False)
        g = G2()
        record = basis_record(g, [(1, 0), (0, 1)])
        assert len(calls) == 1
        assert not strong_decomposability_witness_search(g, 1).found
        complete_decomposition_search(g, height_bound=1)
        property_si_check(g, record)
        assert len(calls) == 1


class TestMinimalMultiplier:
    def test_axes_already_inside(self):
        assert minimal_multiplier(G3(), [(1, 0), (0, 1)]) == 1

    def test_halved_axis(self):
        assert minimal_multiplier(Z2(), [(F(1, 2), 0), (0, 1)]) == 2

    def test_lcm_over_elements(self):
        assert minimal_multiplier(Z2(), [(F(1, 2), 0), (0, F(1, 3))]) == 6

    def test_dependent_elements_rejected(self):
        with pytest.raises(ValueError):
            minimal_multiplier(Z2(), [(1, 0), (2, 0)])

    def test_span_mismatch(self):
        g = group_rep(2, [((1, 0), ())])
        with pytest.raises(SpanMismatch):
            minimal_multiplier(g, [(0, 1)])

    def test_minimality(self):
        # no proper divisor of the answer pushes every element into the group
        g = G3()
        elems = [(F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))]
        m = minimal_multiplier(g, elems)
        for d in range(1, m):
            if m % d:
                continue
            assert not all(member(g, vscale(d, vec(b))) for b in elems)


def divisor_search_order(g, b):
    """The least m >= 1 with m*b in g, among the divisors of b's hull-coordinate clearing factor."""
    clear = lcm(*(c.denominator for c in g.lattice_hull.coordinates(b)))
    return next(d for d in divisors(clear) if member(g, vscale(d, b)))


@settings(max_examples=80, deadline=None)
@given(nonzero_group_reps(), st.lists(small_fractions(), min_size=3, max_size=3))
def test_order_matches_the_divisor_search(g, coeffs):
    # a rational combination of the generators lies in [G]
    b = vec((0, 0))
    for c, (v, _s) in zip(coeffs, g.generators):
        b = vadd(b, vscale(c, v))
    if any(b):
        assert order_mod(g, *integer_form(b)) == divisor_search_order(g, b)


class TestBRepresentation:
    def test_half_diagonal_in_g3(self):
        g = G3()
        basis = basis_record(g, [(1, 0), (0, 1)])
        rep = b_representation(g, basis, (F(1, 2), F(1, 2)))
        assert rep.k == 2
        assert rep.coefficients == (1, 1)

    def test_reconstruction(self):
        g = G3()
        basis = basis_record(g, [(1, 0), (0, 1)])
        a = (F(5, 2), F(1, 2))
        rep = b_representation(g, basis, a)
        assert rep.vector(basis) == vec(a)

    def test_gcd_normalisation(self):
        g = Z2()
        basis = basis_record(g, [(1, 0), (0, 1)])
        rep = b_representation(g, basis, (2, 4))
        assert rep.k == 1
        assert rep.coefficients == (2, 4)

    def test_non_member_rejected(self):
        g = Z2()
        basis = basis_record(g, [(1, 0), (0, 1)])
        with pytest.raises(GroupError):
            b_representation(g, basis, (F(1, 2), 0))


class TestExtendBasis:
    def test_extends_axis_to_full_rank(self):
        g = Z2()
        h = group_rep(2, [((1, 0), ())])
        record = extend_basis(g, h, basis_record(h, [(1, 0)]))
        assert record.group is g
        assert is_basis(g, record.elements)
        assert record.elements[0] == vec((1, 0))

    def test_scales_new_part_into_the_group(self):
        g = group_rep(2, [((F(1, 2), 0), ()), ((0, F(1, 3)), ())])
        h = group_rep(2, [((F(1, 2), 0), ())])
        record = extend_basis(g, h, basis_record(h, [(F(1, 2), 0)]))
        assert is_basis(g, record.elements)

    def test_rejects_non_subgroup(self):
        g = Z2()
        h = group_rep(2, [((F(1, 2), 0), ())])
        with pytest.raises(NotASubgroup):
            extend_basis(g, h, basis_record(h, [(F(1, 2), 0)]))


class TestPureHullSum:
    def test_g3_axes_hull_has_index_two(self):
        g = G3()
        record = pure_hull_sum(g, basis_record(g, [(1, 0), (0, 1)]))
        a3 = group_rep(2, [((1, 0), (3,)), ((0, 1), (5,))])
        assert compare(record.group, a3).name == "EQUAL"
        d = index_and_quotient(g, record.group)
        assert d.is_finite and d.quotient.order == 2

    def test_g2_axes_hull_has_infinite_index(self):
        g = G2()
        record = pure_hull_sum(g, basis_record(g, [(1, 0), (0, 1)]))
        d = index_and_quotient(g, record.group)
        assert not d.is_finite
        assert d.prime == 5


@settings(max_examples=60, deadline=None)
@given(nonzero_group_reps())
def test_lattice_hull_rows_form_a_basis(g):
    assert is_basis(g, g.lattice_hull.rows)


@settings(max_examples=60, deadline=None)
@given(nonzero_group_reps())
def test_brep_reconstructs_and_is_reduced(g):
    from math import gcd

    basis = basis_record(g, g.lattice_hull.rows)
    for target, _s in g.generators:
        if not g.span.contains_vector(vec(target)):
            continue
        rep = b_representation(g, basis, target)
        assert rep.vector(basis) == vec(target)
        assert rep.k >= 1
        assert gcd(rep.k, *rep.coefficients) == 1 if rep.coefficients else rep.k == 1


@settings(max_examples=40, deadline=None)
@given(nonzero_group_reps())
def test_hull_quotient_is_torsion(g):
    # every member has a finite order modulo the Z-span of a basis
    basis = g.lattice_hull.rows
    for x, _s in g.generators:
        coords = solve_in_rows(basis, vec(x))
        assert coords is not None


@settings(max_examples=40, deadline=None)
@given(nonzero_group_reps())
def test_pure_hull_sum_is_a_subgroup(g):
    basis = basis_record(g, g.lattice_hull.rows)
    record = pure_hull_sum(g, basis)
    assert subgroup_leq(record.group, g)
    assert record.group.span == g.span
