"""The split verdict read off the block projections.

``groups.pure_sum_kind`` must agree with the definitions it replaces: the
hulls of the spans sum to G (EXACT) iff G lies in their sum, and they sum
to a subgroup of infinite index (NONE) iff the quotient is infinite.  The
searches must take their verdicts from it and build hulls, sums and
quotients only where a verdict asks for them.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategies import group_reps, vectors
from torsionfree import decomp, groups, indec, jonsson, linalg
from torsionfree.corpus import PROFILES, generate
from torsionfree.decomp import (
    PartitionRecord,
    SpanTable,
    _generated_bases,
    candidate_vectors,
    check_splitting_partition,
    complete_decomposition_search,
    set_partitions,
)
from torsionfree.groups import (
    GroupRep,
    SpanMismatch,
    SplitKind,
    group_rep,
    index_and_quotient,
    pure_sum,
    pure_sum_kind,
    subgroup_leq,
)
from torsionfree.indec import strong_decomposability_witness_search
from torsionfree.jonsson import regulating_search
from torsionfree.linalg import Subspace, direct_sum_projections, vec
from torsionfree.quasi import quasi_split_check


def G2():
    return group_rep(2, [((1, 0), (2,)), ((0, 1), (3,)), ((1, 1), (5,))])


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def reference_kind(g, spaces) -> SplitKind:
    """The verdict from the hulls themselves: the definitions it replaces."""
    _hulls, total = pure_sum(g, spaces)
    if subgroup_leq(g, total):
        return SplitKind.EXACT
    if index_and_quotient(g, total).is_finite:
        return SplitKind.QUASI
    return SplitKind.NONE


def partition_spans(g, max_blocks=3):
    """The block spans of every 2- and 3-block partition of the height-1 bases."""
    for _ids, basis in _generated_bases(g, 1, SpanTable(g.ambient_dim)):
        for blocks in set_partitions(g.rank, max_blocks):
            if len(blocks) >= 2:
                yield PartitionRecord(basis, blocks).spans


def regulating_combinations(g, height):
    """The independent line combinations regulating_search visits."""
    lines = list(dict.fromkeys(Subspace.span([v], g.ambient_dim) for v in candidate_vectors(g, height)))
    for combo in itertools.combinations(lines, g.rank):
        if Subspace.span([r for line in combo for r in line.basis], g.ambient_dim).dim == g.rank:
            yield combo


def G4():
    """Z[1/2]e1 + Z[1/2]e2 + Q e3 + Z[1/3]e4 + Z(1/2,1/2,0,0) + Z[1/6](0,0,1,1)
    + Z[1/3](1,1,0,1): rank 4, with W_2 = Q^4, dim W_3 = 3 and W_ALL = Q e3."""
    h = F(1, 2)
    return group_rep(4, [
        ((1, 0, 0, 0), (2,)), ((0, 1, 0, 0), (2,)), ((0, 0, 1, 0), "ALL"), ((0, 0, 0, 1), (3,)),
        ((h, h, 0, 0), ()), ((0, 0, 1, 1), (2, 3)), ((1, 1, 0, 1), (3,)),
    ])


def random_bases(g, count, seed):
    """count distinct bases of g drawn from the height-1 candidate vectors."""
    pool = candidate_vectors(g, 1)
    rng = random.Random(seed)
    bases = {}
    while len(bases) < count:
        basis = tuple(rng.sample(pool, g.rank))
        if Subspace.span(basis, g.ambient_dim).dim == g.rank:
            bases.setdefault(frozenset(basis), basis)
    return list(bases.values())


def corpus_groups():
    # every rank <= 3 group of seeds 0-5 that has at most three generators
    for profile in PROFILES:
        for seed in range(6):
            g = generate(profile, seed, max_rank=3).group
            if 1 <= g.rank and len(g.generators) <= 3:
                yield f"{profile}:{seed}", g


class TestAgreement:
    def test_corpus_partitions_and_line_combinations(self):
        checked = {kind: 0 for kind in SplitKind}
        for name, g in [("g2", G2()), ("g3", G3())] + list(corpus_groups()):
            for spaces in itertools.chain(partition_spans(g), regulating_combinations(g, 1)):
                kind = pure_sum_kind(g, spaces)
                assert kind is reference_kind(g, spaces), (name, spaces)
                checked[kind] += 1
        # every verdict occurs, so no branch agrees vacuously
        assert all(checked.values()), checked

    def test_rank_four_partitions(self):
        # the corpus stops at rank 3; here blocks have dimension 1 to 3, and a
        # plane meets W_3 in a line or in itself
        g = G4()
        checked = {kind: 0 for kind in SplitKind}
        for basis in random_bases(g, 60, seed=4):
            for blocks in set_partitions(4):
                if len(blocks) >= 2:
                    spaces = tuple(Subspace.span([basis[i] for i in block], 4) for block in blocks)
                    kind = pure_sum_kind(g, spaces)
                    assert kind is reference_kind(g, spaces), (basis, blocks)
                    checked[kind] += 1
        assert all(checked.values()), checked

    @settings(max_examples=60, deadline=None)
    @given(group_reps(max_gens=3), st.data())
    def test_random_groups_and_bases(self, g, data):
        assume(g.rank == 2)
        pool = candidate_vectors(g, 1)
        a, b = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        spaces = (Subspace.span([a], 2), Subspace.span([b], 2))
        assume(spaces[0] != spaces[1])
        assert pure_sum_kind(g, spaces) is reference_kind(g, spaces)

    @settings(max_examples=40, deadline=None)
    @given(group_reps(ambient=3, max_gens=4), st.data())
    def test_random_rank_three_partitions(self, g, data):
        assume(g.rank == 3)
        _ids, basis = next(_generated_bases(g, 1, SpanTable(3)))
        blocks = data.draw(st.sampled_from([b for b in set_partitions(3) if len(b) >= 2]))
        spaces = PartitionRecord(basis, blocks).spans
        assert pure_sum_kind(g, spaces) is reference_kind(g, spaces)

    def test_examples(self):
        axes = (Subspace.span([(1, 0)], 2), Subspace.span([(0, 1)], 2))
        assert pure_sum_kind(G3(), axes) is SplitKind.QUASI
        assert pure_sum_kind(G2(), axes) is SplitKind.NONE
        assert pure_sum_kind(group_rep(2, [((1, 0), ()), ((0, 1), ())]), axes) is SplitKind.EXACT
        # one block and no block: the hull of [G] is G itself
        assert pure_sum_kind(G2(), (Subspace.full(2),)) is SplitKind.EXACT
        assert pure_sum_kind(group_rep(2, []), ()) is SplitKind.EXACT

    def test_spaces_must_be_independent_and_span_the_group(self):
        line = Subspace.span([(1, 1)], 2)
        with pytest.raises(ValueError):
            pure_sum_kind(G2(), (line, line))
        with pytest.raises(SpanMismatch):
            pure_sum_kind(G2(), (line,))

    def test_no_split_builds_no_projection(self, monkeypatch):
        # the dimension count decides NONE, and the errors of the spaces are
        # still raised on that path
        monkeypatch.setattr(groups, "direct_sum_projections", refuse)
        monkeypatch.setattr(GroupRep, "local", refuse)
        axes = (Subspace.span([(1, 0)], 2), Subspace.span([(0, 1)], 2))
        assert pure_sum_kind(G2(), axes) is SplitKind.NONE
        line = Subspace.span([(1, 1)], 2)
        with pytest.raises(ValueError) as raised:
            pure_sum_kind(G2(), (line, line))
        assert not isinstance(raised.value, SpanMismatch)
        with pytest.raises(SpanMismatch):
            pure_sum_kind(G2(), (line,))

    def test_a_repeat_call_does_no_elimination(self, monkeypatch):
        g = G3()
        axes = (Subspace.span([(1, 0)], 2), Subspace.span([(0, 1)], 2))
        calls = []
        eliminate = linalg._eliminate

        def counting(work, ncols):
            calls.append(ncols)
            return eliminate(work, ncols)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        assert pure_sum_kind(g, axes) is SplitKind.QUASI
        assert calls
        # a list of equal spaces built afresh finds the same verdict
        again = [Subspace.span([(2, 0)], 2), Subspace.span([(0, 3)], 2)]
        calls.clear()
        assert pure_sum_kind(g, again) is SplitKind.QUASI
        assert calls == []

    def test_errors_are_not_memoised(self):
        g = G2()
        line = Subspace.span([(1, 1)], 2)
        for _attempt in range(2):
            with pytest.raises(SpanMismatch):
                pure_sum_kind(g, (line,))
        assert pure_sum_kind(g, (Subspace.full(2),)) is SplitKind.EXACT
        assert list(g._kind_cache) == [(Subspace.full(2),)]


class TestProjections:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(vectors(3), min_size=1, max_size=3), st.data())
    def test_projections_split_the_sum(self, rows, data):
        rows = [vec(r) for r in rows]
        assume(Subspace.span(rows, 3).dim == len(rows))
        cut = data.draw(st.integers(min_value=1, max_value=len(rows)))
        spaces = (Subspace.span(rows[:cut], 3), Subspace.span(rows[cut:], 3))
        total, images, d = direct_sum_projections(spaces, 3)
        assert d > 0 and total == Subspace.span(rows, 3)
        for j, echelon_row in enumerate(total.rows):
            parts = [tuple(F(e, d) for e in image[j]) for image in images]
            assert tuple(sum(col) for col in zip(*parts)) == echelon_row
            for space, part in zip(spaces, parts):
                assert space.contains_vector(part)

    def test_dependent_spaces_raise(self):
        line = Subspace.span([(1, 2, 0)], 3)
        with pytest.raises(ValueError):
            direct_sum_projections((line, Subspace.span([(1, 2, 0), (0, 0, 1)], 3)), 3)


def refuse(*_args, **_kwargs):
    raise AssertionError("called")


class TestSearchesUseTheVerdict:
    def test_splitting_check_never_compares_groups(self, monkeypatch):
        monkeypatch.setattr(groups, "subgroup_leq", refuse)
        monkeypatch.setattr(decomp, "subgroup_leq", refuse)
        g = generate("cd", 1, max_rank=3).group
        assert complete_decomposition_search(g, height_bound=1)
        _ids, basis = next(_generated_bases(G3(), 1, SpanTable(2)))
        assert check_splitting_partition(G3(), PartitionRecord(basis, ((0,), (1,)))) == (False, None)

    @pytest.mark.parametrize("g", [G2(), G3(), generate("acd", 1, max_rank=2).group])
    def test_witness_search_builds_at_most_one_report(self, monkeypatch, g):
        reports = []

        def spy(*args):
            reports.append(quasi_split_check(*args))
            return reports[-1]

        monkeypatch.setattr(indec, "quasi_split_check", spy)
        result = strong_decomposability_witness_search(g, 1)
        assert len(reports) == int(result.found)
        if result.found:
            assert reports[0].kind is result.kind is not SplitKind.NONE

    @pytest.mark.parametrize("g", [G3(), generate("acd", 3, max_rank=2).group, generate("mixed", 4, max_rank=2).group])
    def test_regulating_takes_quotients_of_finite_index_only(self, monkeypatch, g):
        described = []

        def spy(h, a):
            described.append(index_and_quotient(h, a))
            return described[-1]

        monkeypatch.setattr(jonsson, "index_and_quotient", spy)
        regulating_search(g, 2)
        assert described and all(d.is_finite for d in described)
