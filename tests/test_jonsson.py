from fractions import Fraction as F
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionfree.corpus import PROFILES, generate
from torsionfree.decomp import set_partitions
from torsionfree.groups import (
    Compare,
    GroupError,
    SplitKind,
    compare,
    group_rep,
    pure_sum_kind,
    purify,
    sum_groups,
)
from torsionfree.jonsson import (
    InfiniteIndexError,
    _quotient_subgroup,
    _subgroup_order,
    JonssonFlag,
    induced_quotient_map,
    jonsson_basis_from_summands,
    kernel_check,
    lift_quotient_decomposition,
    regulating_search,
    splitting_decompositions_of,
    summand_invariants,
    unrefinable_quotient_decompositions,
)
from torsionfree.linalg import Subspace, identity_matrix


def G1():
    return group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])


def G2():
    return group_rep(2, [((1, 0), (2,)), ((0, 1), (3,)), ((1, 1), (5,))])


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def Z2():
    return group_rep(2, [((1, 0), ()), ((0, 1), ())])


def axis_lines(g):
    n = g.ambient_dim
    return [
        group_rep(n, [(tuple(int(i == j) for j in range(n)), ())])
        for i in range(n)
    ]


def double_g3():
    """Two copies of the half-diagonal example on disjoint coordinates."""
    return group_rep(
        4,
        [
            ((1, 0, 0, 0), (3,)),
            ((0, 1, 0, 0), (5,)),
            ((F(1, 2), F(1, 2), 0, 0), ()),
            ((0, 0, 1, 0), (3,)),
            ((0, 0, 0, 1), (5,)),
            ((0, 0, F(1, 2), F(1, 2)), ()),
        ],
    )


def mixed_g3():
    """A half-diagonal block next to a third-diagonal block; quotient Z/6."""
    return group_rep(
        4,
        [
            ((1, 0, 0, 0), (3,)),
            ((0, 1, 0, 0), (5,)),
            ((F(1, 2), F(1, 2), 0, 0), ()),
            ((0, 0, 1, 0), (5,)),
            ((0, 0, 0, 1), (7,)),
            ((0, 0, F(1, 3), F(1, 3)), ()),
        ],
    )


class TestFromSummands:
    def test_g3_axes(self):
        g = G3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        assert basis.index == 2
        assert basis.quotient.invariant_factors == (2,)
        assert basis.quotient.generator_images == ((0,), (0,), (1,))
        assert all(flag is JonssonFlag.RANK1 for _s, flag in basis.summands)

    def test_candidates_get_purified(self):
        g = Z2()
        doubled = group_rep(2, [((2, 0), ())])
        tripled = group_rep(2, [((0, 3), ())])
        basis = jonsson_basis_from_summands(g, [doubled, tripled])
        assert basis.index == 1
        assert compare(basis.summand_groups[0], group_rep(2, [((1, 0), ())])) is Compare.EQUAL

    def test_infinite_index_is_reported_with_direction(self):
        g = G2()
        with pytest.raises(InfiniteIndexError) as e:
            jonsson_basis_from_summands(g, axis_lines(g))
        assert e.value.prime == 5
        assert e.value.direction == (1, 1)

    def test_overlapping_spans_rejected(self):
        g = Z2()
        diag = group_rep(2, [((1, 1), ())])
        with pytest.raises(GroupError):
            jonsson_basis_from_summands(g, axis_lines(g) + [diag])

    def test_deficient_spans_rejected(self):
        g = Z2()
        with pytest.raises(GroupError):
            jonsson_basis_from_summands(g, axis_lines(g)[:1])

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            jonsson_basis_from_summands(Z2(), [])


class TestSplittingDecompositions:
    def test_a3_admits_none_inside_g3(self):
        g = G3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        assert splitting_decompositions_of(basis, max_blocks=2) == []

    def test_g1_splits_once(self):
        g = G1()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        assert len(splitting_decompositions_of(basis, max_blocks=2)) == 1

    def test_free_rank_three_has_four_groupings(self):
        g = group_rep(3, [((1, 0, 0), ()), ((0, 1, 0), ()), ((0, 0, 1), ())])
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        assert len(splitting_decompositions_of(basis, max_blocks=3)) == 4

    def test_max_blocks_limits_groupings(self):
        g = group_rep(3, [((1, 0, 0), ()), ((0, 1, 0), ()), ((0, 0, 1), ())])
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        assert len(splitting_decompositions_of(basis, max_blocks=2)) == 3


class TestLift:
    def test_mixed_quotient_splits_along_the_blocks(self):
        g = mixed_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        assert basis.quotient.invariant_factors == (6,)
        # Z/6 = <3> + <2> is the only direct decomposition
        report = lift_quotient_decomposition(g, basis, ((3,),), ((2,),))
        assert report.found
        assert set(report.blocks) == {(0, 1), (2, 3)}
        assert compare(sum_groups(*report.lifted), g) is Compare.EQUAL

    def test_images_are_compared_as_subgroups(self):
        g = mixed_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        # <4> = <2> in Z/6, and the swapped parts match no grouping
        assert lift_quotient_decomposition(g, basis, ((3,),), ((4,),)).blocks == ((0, 1), (2, 3))
        swapped = lift_quotient_decomposition(g, basis, ((2,),), ((3,),))
        assert not swapped.found and swapped.groupings_searched == 7

    def test_refusal_when_no_grouping_matches(self):
        g = G3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        report = lift_quotient_decomposition(g, basis, ((1,),), ())
        assert not report.found
        assert report.groupings_searched == 1

    def test_rejects_non_complementary_parts(self):
        g = mixed_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        with pytest.raises(ValueError):
            lift_quotient_decomposition(g, basis, ((3,),), ((3,),))
        # <1> + <2> fills Z/6 but the parts meet in <2>
        with pytest.raises(ValueError):
            lift_quotient_decomposition(g, basis, ((1,),), ((2,),))

    def test_rejects_parts_that_do_not_fill_the_quotient(self):
        g = mixed_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        with pytest.raises(ValueError):
            lift_quotient_decomposition(g, basis, ((3,),), ())


def closure(factors, generators):
    """Reference: the subgroup of Z/d_1 + ... + Z/d_k the tuples generate, element by element."""
    zero = (0,) * len(factors)
    frontier, seen = [zero], {zero}
    while frontier:
        x = frontier.pop()
        for gen in generators:
            y = tuple((a + b) % d for a, b, d in zip(x, gen, factors))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(), (6,), (2, 4), (3, 9), (2, 2, 6)]), st.data())
def test_quotient_subgroups_match_their_element_closure(factors, data):
    q = SimpleNamespace(invariant_factors=factors, order=prod(factors))
    tuples = st.tuples(*(st.integers(-20, 20) for _ in factors))
    gens = [data.draw(st.lists(tuples, max_size=3)) for _ in range(2)]
    reduced = [[tuple(x % d for x, d in zip(t, factors)) for t in gen] for gen in gens]
    u, w = (_quotient_subgroup(q, gen) for gen in gens)
    su, sw = (closure(factors, gen) for gen in reduced)
    assert _subgroup_order(q, u) == len(su) and _subgroup_order(q, w) == len(sw)
    assert (u == w) == (su == sw)


class TestRegulating:
    def test_g3_regulating_index_two(self):
        g = G3()
        best, index = regulating_search(g, 2)
        assert index == 2
        a3 = group_rep(2, [((1, 0), (3,)), ((0, 1), (5,))])
        assert compare(best.quotient.subgroup, a3) is Compare.EQUAL

    def test_free_group_regulates_itself(self):
        _best, index = regulating_search(Z2(), 1)
        assert index == 1

    def test_g2_has_no_jonsson_basis_in_reach(self):
        with pytest.raises(GroupError):
            regulating_search(G2(), 1)

    def test_zero_rank_gives_the_empty_basis(self):
        best, index = regulating_search(group_rep(2, []), 1)
        assert index == 1 and best.summands == ()


class TestInducedMap:
    def test_identity_induces_the_identity(self):
        g = double_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        _moved, qmap = induced_quotient_map(g, basis, identity_matrix(4))
        assert qmap.is_identity
        assert kernel_check(g, basis, identity_matrix(4))

    def test_copy_swap_moves_the_quotient(self):
        g = double_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        swap = (
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
        )
        _moved, qmap = induced_quotient_map(g, basis, swap)
        assert not qmap.is_identity
        assert not kernel_check(g, basis, swap)

    def test_non_automorphism_rejected(self):
        g = double_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        with pytest.raises(GroupError):
            induced_quotient_map(g, basis, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_kernel_check_tracks_identity(self):
        # the two agree on both a trivial and a non-trivial induced map
        g = double_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        for alpha in (identity_matrix(4),):
            assert kernel_check(g, basis, alpha) == induced_quotient_map(g, basis, alpha)[1].is_identity


class TestUnrefinable:
    def test_g3_quotient_is_already_unrefinable(self):
        g = G3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        reports = unrefinable_quotient_decompositions(g, basis)
        assert len(reports) == 1
        assert reports[0].blocks == ((0, 1),)

    def test_free_summand_peels_off(self):
        g = group_rep(
            3,
            [
                ((1, 0, 0), (3,)),
                ((0, 1, 0), (5,)),
                ((F(1, 2), F(1, 2), 0), ()),
                ((0, 0, 1), (7,)),
            ],
        )
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        reports = unrefinable_quotient_decompositions(g, basis)
        assert [r.blocks for r in reports] == [((0, 1), (2,))]

    def test_three_block_maximal_grouping(self):
        # the two diagonal lines of Z^2 sum to index 2 and stay together;
        # the other two axes split off on their own
        g = group_rep(4, [(tuple(int(i == j) for j in range(4)), ()) for i in range(4)])
        lines = [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        basis = jonsson_basis_from_summands(g, [group_rep(4, [(v, ())]) for v in lines])
        assert basis.index == 2
        reports = unrefinable_quotient_decompositions(g, basis)
        assert [r.blocks for r in reports] == [((0, 1), (2,), (3,))]
        assert [r.blocks for r in reports] == [b for b, _h in refinement_dfs(basis)]

    def test_trivial_quotient_rejected(self):
        g = Z2()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        with pytest.raises(ValueError):
            unrefinable_quotient_decompositions(g, basis)


def refinement_dfs(a):
    """The terminal states of recursive exact block refinement, sorted.

    From the one-block grouping, a block is replaced by two sub-blocks
    whenever its hull is the direct sum of theirs; a state no such step
    changes is terminal.
    """

    def span(block):
        rows = [row for i in block for row in a.summand_groups[i].span.rows]
        return Subspace.span(rows, a.group.ambient_dim)

    start = (tuple(range(len(a.summands))),)
    stack, visited, terminal = [start], {start}, set()
    while stack:
        state = stack.pop()
        refined = False
        for which, block in enumerate(state):
            if len(block) < 2:
                continue
            hull = purify(a.group, span(block))
            for halves in set_partitions(len(block), 2):
                if len(halves) < 2:
                    continue
                left, right = (tuple(block[i] for i in half) for half in halves)
                if pure_sum_kind(hull, (span(left), span(right))) is not SplitKind.EXACT:
                    continue
                refined = True
                nxt = tuple(sorted((*state[:which], *state[which + 1 :], left, right)))
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append(nxt)
        if not refined:
            terminal.add(state)
    return [(blocks, tuple(purify(a.group, span(b)) for b in blocks)) for blocks in sorted(terminal)]


def corpus_jonsson_bases(seeds, max_rank):
    """Jonsson bases of corpus groups on the lines of their base generators."""
    for profile in PROFILES:
        for seed in seeds:
            sample = generate(profile, seed, max_rank=max_rank)
            g = sample.group
            lines = [group_rep(g.ambient_dim, [(v, ())]) for v, _s in sample.base.generators]
            try:
                a = jonsson_basis_from_summands(g, lines)
            except GroupError:
                continue
            if a.quotient.order > 1:
                yield a


def test_unrefinable_groupings_are_the_refinement_dfs_terminals():
    checked = split = 0
    for a in corpus_jonsson_bases(range(40), max_rank=4):
        reports = unrefinable_quotient_decompositions(a.group, a)
        expected = refinement_dfs(a)
        assert [r.blocks for r in reports] == [blocks for blocks, _h in expected]
        for r, (_blocks, hulls) in zip(reports, expected):
            assert [h.key() for h in r.lifted] == [h.key() for h in hulls]
            images = tuple(tuple(a.quotient.image(v) for v, _s in h.generators) for h in hulls)
            assert r.images == images
        checked += 1
        split += sum(len(r.blocks) > 1 for r in reports)
    assert checked >= 40 and split >= 15


class TestUniqueness:
    def test_invariants_agree_across_heights(self):
        g = G3()
        a, _i = regulating_search(g, 2)
        b, _i2 = regulating_search(g, 3)
        assert summand_invariants(a) == summand_invariants(b)

    def test_direct_sums_of_jonsson_bases(self):
        # a Jonsson basis of each block assembles to one of the direct sum
        g = double_g3()
        basis = jonsson_basis_from_summands(g, axis_lines(g))
        assert basis.index == 4
        assert basis.quotient.invariant_factors == (2, 2)
        assert len(basis.summands) == 4


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_cd_corpus_groups_are_their_own_jonsson_basis(seed):
    g = generate("cd", seed, max_rank=2).group
    lines = [group_rep(g.ambient_dim, [gen]) for gen in g.generators]
    try:
        basis = jonsson_basis_from_summands(g, lines)
    except GroupError:
        return  # dependent generator lines; nothing to assert
    assert basis.index == 1
