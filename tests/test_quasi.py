from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import nonzero_group_reps, small_fractions
from torsionfree.bases import basis_record
from torsionfree.decomp import partition_record
from torsionfree.groups import (
    Compare,
    compare,
    group_rep,
    index_and_quotient,
    purify,
    scale_group,
    subgroup_leq,
    sum_groups,
)
from torsionfree.linalg import Subspace, identity_matrix, vec, vscale
from torsionfree.numutil import divisors
from torsionfree.quasi import (
    SplitKind,
    commensurable,
    quasi_automorphism_check,
    quasi_equal_strict,
    quasi_split_check,
)


def G1():
    return group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def Z2():
    return group_rep(2, [((1, 0), ()), ((0, 1), ())])


def half_pair():
    """The known divergence pair: commensurable but not strictly quasi-equal."""
    zz = Z2()
    h = group_rep(2, [((1, 0), ()), ((0, F(1, 2)), ())])
    return zz, h


class TestStrict:
    def test_reflexive(self):
        w = quasi_equal_strict(G3(), G3())
        assert w is not None and w.ratio == 1

    def test_scaling_recovers_the_ratio(self):
        g = G3()
        w = quasi_equal_strict(scale_group(g, F(1, 2)), g)
        assert w is not None and w.ratio == 2

    def test_divergence_pair_has_no_witness(self):
        zz, h = half_pair()
        assert quasi_equal_strict(zz, h) is None
        assert quasi_equal_strict(h, zz) is None

    def test_span_mismatch_is_none(self):
        g = group_rep(2, [((1, 0), ())])
        h = group_rep(2, [((0, 1), ())])
        assert quasi_equal_strict(g, h) is None

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            quasi_equal_strict(Z2(), group_rep(3, [((1, 0, 0), ())]))

    def test_divisible_direction_absorbs_the_ratio(self):
        g = G1()
        w = quasi_equal_strict(scale_group(g, 3), g)
        assert w is not None and w.ratio == F(1, 3)


class TestCommensurable:
    def test_divergence_pair(self):
        zz, h = half_pair()
        assert commensurable(zz, h).pair == (1, 2)
        assert commensurable(h, zz).pair == (2, 1)

    def test_minimality_of_the_pair(self):
        zz, h = half_pair()
        a, b = commensurable(zz, h).pair
        assert subgroup_leq(scale_group(zz, a), h)
        assert subgroup_leq(scale_group(h, b), zz)
        assert not any(
            subgroup_leq(scale_group(h, d), zz) for d in range(1, b) if b % d == 0
        )

    def test_span_mismatch_is_none(self):
        g = group_rep(2, [((1, 0), ())])
        h = group_rep(2, [((0, 1), ())])
        assert commensurable(g, h) is None

    def test_infinite_index_is_none(self):
        assert commensurable(G1(), Z2()) is None


def least_scaling_into(h, g, bound):
    return next(d for d in divisors(bound) if subgroup_leq(scale_group(h, d), g))


@settings(max_examples=60, deadline=None)
@given(nonzero_group_reps(), st.lists(small_fractions(), min_size=3, max_size=3))
def test_commensurable_pair_is_the_least_scaling(g, coeffs):
    # rescaling each generator keeps the span; the pair is then checked
    # against a search over the divisors of the quotient exponents
    h = group_rep(2, [(vscale(c or 1, v), s) for c, (v, s) in zip(coeffs, g.generators)])
    w = commensurable(h, g)
    if w is not None:
        total = sum_groups(h, g)
        a = least_scaling_into(h, g, index_and_quotient(total, g).quotient.exponent)
        b = least_scaling_into(g, h, index_and_quotient(total, h).quotient.exponent)
        assert w.pair == (a, b)


class TestPurityRigidity:
    def test_pure_subgroups_quasi_equal_implies_equal(self):
        # two pure subgroups on the same line always coincide
        g = G3()
        a = purify(g, Subspace.span([vec((1, 1))], 2))
        b = purify(g, Subspace.span([vec((3, 3))], 2))
        w = quasi_equal_strict(a, b)
        assert w is not None and w.ratio == 1
        assert compare(a, b) is Compare.EQUAL

    def test_purity_hypothesis_is_needed(self):
        # 2A is quasi-equal to A but not equal; it is not pure in G
        g = Z2()
        a = purify(g, Subspace.span([vec((1, 0))], 2))
        doubled = scale_group(a, 2)
        w = quasi_equal_strict(doubled, a)
        assert w is not None and w.ratio == F(1, 2)
        assert compare(doubled, a) is Compare.LEFT_IN_RIGHT


class TestQuasiAutomorphism:
    def test_three_times_identity(self):
        got = quasi_automorphism_check(Z2(), ((3, 0), (0, 3)))
        assert got is not None
        r, alpha = got
        assert r == 3
        assert alpha == identity_matrix(2)

    def test_strictly_quasi_but_not_exact(self):
        # doubling one coordinate of Z^2 is no automorphism and no rescaling
        # of it is either
        assert quasi_automorphism_check(Z2(), ((2, 0), (0, 1))) is None

    def test_divisible_part_absorbs(self):
        got = quasi_automorphism_check(G1(), ((1, 0), (0, 2)))
        assert got is not None
        assert got[0] == 1


class TestQuasiSplit:
    def test_exact_split(self):
        g = G1()
        basis = basis_record(g, [(1, 0), (0, 1)])
        report = quasi_split_check(g, basis, partition_record(basis, [(0,), (1,)]))
        assert report.kind is SplitKind.EXACT
        assert report.quotient.quotient.order == 1

    def test_no_split_with_infinite_defect(self):
        g = G1()
        basis = basis_record(g, [(1, 0), (1, 1)])
        report = quasi_split_check(g, basis, partition_record(basis, [(0,), (1,)]))
        assert report.kind is SplitKind.NONE
        assert report.decomposition is None
        assert not report.quotient.is_finite
        assert report.quotient.direction == vec((0, 1))

    def test_quasi_split_of_g3(self):
        g = G3()
        basis = basis_record(g, [(1, 0), (0, 1)])
        report = quasi_split_check(g, basis, partition_record(basis, [(0,), (1,)]))
        assert report.kind is SplitKind.QUASI
        assert report.quotient.quotient.invariant_factors == (2,)
        a3 = group_rep(2, [((1, 0), (3,)), ((0, 1), (5,))])
        assert compare(report.decomposition.group, a3) is Compare.EQUAL

    def test_partition_of_foreign_basis_rejected(self):
        g = G3()
        basis = basis_record(g, [(1, 0), (0, 1)])
        other = basis_record(Z2(), [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            quasi_split_check(g, basis, partition_record(other, [(0,), (1,)]))


_RATIOS = st.sampled_from((F(2), F(3), F(1, 2), F(1, 3), F(5, 6), F(4)))


@settings(max_examples=60, deadline=None)
@given(nonzero_group_reps(), _RATIOS)
def test_strict_witness_inverts_the_scaling(g, r):
    w = quasi_equal_strict(scale_group(g, r), g)
    assert w is not None
    assert compare(scale_group(scale_group(g, r), w.ratio), g) is Compare.EQUAL


@settings(max_examples=40, deadline=None)
@given(nonzero_group_reps(), _RATIOS)
def test_strict_implies_commensurable(g, r):
    h = scale_group(g, r)
    assert quasi_equal_strict(h, g) is not None
    pair = commensurable(h, g)
    assert pair is not None
    a, b = pair.pair
    assert subgroup_leq(scale_group(h, a), g)
    assert subgroup_leq(scale_group(g, b), h)


@settings(max_examples=40, deadline=None)
@given(nonzero_group_reps())
def test_strict_symmetry(g):
    h = scale_group(g, F(3, 2))
    w = quasi_equal_strict(h, g)
    back = quasi_equal_strict(g, h)
    assert w is not None and back is not None
    assert compare(scale_group(h, w.ratio), g) is Compare.EQUAL
    assert compare(scale_group(g, back.ratio), h) is Compare.EQUAL
