import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import group_reps, nonzero_group_reps
from torsionfree.bases import basis_record
from torsionfree.decomp import (
    IsoVerdict,
    PartitionRecord,
    SpanTable,
    SummandFlag,
    _certify_summands,
    _generated_bases,
    _split_record,
    apply_span_matrix,
    automorphism_check,
    automorphism_from_summand_isos,
    candidate_vectors,
    check_splitting_partition,
    complete_decomposition_search,
    decomposition_record,
    decompositions_isomorphic,
    enumerate_splitting_partitions,
    finest_groupings,
    partition_record,
    set_partitions,
)
from torsionfree.corpus import PROFILES, generate
from torsionfree.groups import (
    Compare,
    GroupError,
    SplitKind,
    compare,
    group_rep,
    member,
    pure_sum_kind,
    purify,
    sum_groups,
)
from torsionfree.indec import property_si_check
from torsionfree.jonsson import jonsson_basis_from_summands, splitting_decompositions_of
from torsionfree.linalg import Subspace, identity_matrix, vec


def G1():
    return group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])


def G2():
    return group_rep(2, [((1, 0), (2,)), ((0, 1), (3,)), ((1, 1), (5,))])


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def Z2():
    return group_rep(2, [((1, 0), ()), ((0, 1), ())])


def Z(n):
    return group_rep(n, [(tuple(int(i == j) for j in range(n)), ()) for i in range(n)])


def axes_partition(g, blocks):
    basis = basis_record(g, g.lattice_hull.rows)
    return partition_record(basis, blocks)


class TestPartitionRecord:
    def test_blocks_are_sorted(self):
        basis = basis_record(Z2(), [(1, 0), (0, 1)])
        p = partition_record(basis, [(1, 0)])
        assert p.blocks == ((0, 1),)

    def test_rejects_gaps(self):
        basis = basis_record(Z2(), [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            partition_record(basis, [(0,)])

    def test_rejects_repeats(self):
        basis = basis_record(Z2(), [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            partition_record(basis, [(0,), (0, 1)])

    def test_rejects_empty_block(self):
        basis = basis_record(Z2(), [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            partition_record(basis, [(), (0, 1)])


class TestSplittingPartition:
    def test_g1_splitting_basis(self):
        g = G1()
        basis = basis_record(g, [(1, 0), (0, 1)])
        ok, record = check_splitting_partition(g, partition_record(basis, [(0,), (1,)]))
        assert ok
        assert compare(sum_groups(*record.summands), g) is Compare.EQUAL

    def test_g1_non_splitting_basis(self):
        g = G1()
        basis = basis_record(g, [(1, 0), (1, 1)])
        ok, record = check_splitting_partition(g, partition_record(basis, [(0,), (1,)]))
        assert not ok
        assert record is None

    def test_enumerate_on_non_splitting_basis_is_empty(self):
        g = G1()
        basis = basis_record(g, [(1, 0), (1, 1)])
        assert enumerate_splitting_partitions(g, basis, max_blocks=2) == []

    def test_enumerate_all_proper_partitions_of_z3(self):
        g = Z(3)
        basis = basis_record(g, g.lattice_hull.rows)
        found = enumerate_splitting_partitions(g, basis, max_blocks=3)
        assert len(found) == 4  # three 2-block partitions and one 3-block

    def test_max_blocks_cuts_the_enumeration(self):
        g = Z(3)
        basis = basis_record(g, g.lattice_hull.rows)
        found = enumerate_splitting_partitions(g, basis, max_blocks=2)
        assert len(found) == 3


# Every partition of range(t) in restricted-growth-string order; the first
# (one block) is never a proper partition.
RGS_ORDER = {
    3: [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
        ((0,), (1,), (2,)),
    ],
    4: [
        ((0, 1, 2, 3),),
        ((0, 1, 2), (3,)),
        ((0, 1, 3), (2,)),
        ((0, 1), (2, 3)),
        ((0, 1), (2,), (3,)),
        ((0, 2, 3), (1,)),
        ((0, 2), (1, 3)),
        ((0, 2), (1,), (3,)),
        ((0, 3), (1, 2)),
        ((0,), (1, 2, 3)),
        ((0,), (1, 2), (3,)),
        ((0, 3), (1,), (2,)),
        ((0,), (1, 3), (2,)),
        ((0,), (1,), (2, 3)),
        ((0,), (1,), (2,), (3,)),
    ],
}

# Two-block partitions ordered by the bitmask of the second block.
TWO_BLOCK_ORDER = {
    3: [((0, 2), (1,)), ((0, 1), (2,)), ((0,), (1, 2))],
    4: [
        ((0, 2, 3), (1,)),
        ((0, 1, 3), (2,)),
        ((0, 3), (1, 2)),
        ((0, 1, 2), (3,)),
        ((0, 2), (1, 3)),
        ((0, 1), (2, 3)),
        ((0,), (1, 2, 3)),
    ],
}


@pytest.mark.parametrize("t", [3, 4])
def test_partition_walk_order_of_each_caller(t):
    # every partition of a free group's axis basis splits, so each walk
    # reports all the partitions it visits, in the order it visits them
    g = Z(t)
    basis = basis_record(g, g.lattice_hull.rows)
    proper = RGS_ORDER[t][1:]

    assert list(set_partitions(t)) == RGS_ORDER[t]
    found = enumerate_splitting_partitions(g, basis, max_blocks=t)
    assert [p.blocks for p, _r in found] == proper

    axes = [group_rep(t, [(row, ())]) for row in basis.elements]
    a = jonsson_basis_from_summands(g, axes)
    fewest_blocks_first = sorted(proper, key=len)
    assert [b for b, _h in splitting_decompositions_of(a, t)] == fewest_blocks_first
    two_blocks = [b for b in proper if len(b) == 2]
    assert [b for b, _h in splitting_decompositions_of(a, 2)] == two_blocks

    attempts = property_si_check(g, basis).split_attempts
    assert [p.blocks for p, _ok in attempts] == TWO_BLOCK_ORDER[t]


@pytest.mark.parametrize("t", range(8))
def test_bounded_partition_walk_is_the_filtered_full_walk(t):
    full = list(set_partitions(t))
    for max_blocks in range(t + 2):
        bounded = list(set_partitions(t, max_blocks))
        assert bounded == [b for b in full if len(b) <= max_blocks]


class TestCompleteDecompositionSearch:
    def test_g1_decomposes(self):
        found = complete_decomposition_search(G1())
        assert found
        for record in found:
            assert sorted(s.rank for s in record.summands) == [1, 1]
            assert all(f is SummandFlag.RANK1 for f in record.flags)
            assert compare(sum_groups(*record.summands), G1()) is Compare.EQUAL

    def test_g2_yields_nothing_at_height_one(self):
        assert complete_decomposition_search(G2()) == ()

    def test_g3_yields_nothing_exactly(self):
        # G3 only quasi-splits; no basis partition splits it on the nose
        assert complete_decomposition_search(G3(), height_bound=2) == ()

    def test_results_are_deduplicated(self):
        found = complete_decomposition_search(Z2(), height_bound=1)
        keys = [tuple(sorted(s.key() for s in r.summands)) for r in found]
        assert len(keys) == len(set(keys))

    def test_only_returned_summands_are_purified(self, monkeypatch):
        # splitting partitions that refine another one are dropped unpurified
        g = Z(3)
        purified = []

        def spy(group, space):
            if group is g:
                purified.append(space)
            return purify(group, space)

        monkeypatch.setattr("torsionfree.groups.purify", spy)
        monkeypatch.setattr("torsionfree.decomp.purify", spy)
        found = complete_decomposition_search(g, height_bound=1)
        spans = {s.span for record in found for s in record.summands}
        assert purified and set(purified) <= spans


def small_corpus_groups():
    # every rank <= 3 group of seeds 0-5 with at most three generators
    groups = [("g1", G1()), ("g2", G2()), ("g3", G3()), ("z2", Z2()), ("z3", Z(3))]
    for profile in PROFILES:
        for seed in range(6):
            g = generate(profile, seed, max_rank=3).group
            if 1 <= g.rank and len(g.generators) <= 3:
                groups.append((f"{profile}:{seed}", g))
    return groups


class TestSpanTable:
    @pytest.mark.parametrize("height", [1, 2])
    def test_walk_and_block_spans_match_the_definitions(self, height):
        checked = 0
        for name, g in small_corpus_groups():
            pool = candidate_vectors(g, height)
            table = SpanTable(g.ambient_dim)
            found = list(_generated_bases(g, height, table))
            # rank 3 at height 2 has 62 candidates and 34,328 bases: there the
            # walk is left to the smaller pools, and a spread sample of the
            # bases is checked
            large = len(pool) > 40
            if not large:
                # the walk keeps exactly the independent combinations, in order
                independent = [
                    combo
                    for combo in itertools.combinations(pool, g.rank)
                    if Subspace.span(list(combo), g.ambient_dim).dim == g.rank
                ]
                assert [basis.elements for _ids, basis in found] == independent, name
            stride = 41 if large else 1
            for ids, basis in found[::stride]:
                assert ids == table.lines(basis.elements)
                for blocks in set_partitions(g.rank):
                    assert table.block_spans(ids, blocks) == PartitionRecord(basis, blocks).spans, name
                    checked += 1
        assert checked > 1000

    def test_numbers_lines_in_order_of_first_sight(self):
        table = SpanTable(2)
        assert table.lines([(1, 0), (0, 1), (2, 0), (1, 1)]) == (0, 1, 0, 2)
        assert table.pieces == [Subspace.span([v], 2) for v in [(1, 0), (0, 1), (1, 1)]]
        assert table.span(frozenset((0, 2))) == Subspace.full(2)
        assert list(table.independent_lines((0, 1, 0, 2), 2)) == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]


def summand_key_search(g, height_bound):
    """Reference: complete_decomposition_search deduplicating on the sorted keys
    of the purified summands, with the block spans read off PartitionRecord."""
    results, seen = [], set()
    for _ids, basis in _generated_bases(g, height_bound, SpanTable(g.ambient_dim)):
        exact = []
        for blocks in set_partitions(g.rank, max(g.rank, 2)):
            spans = PartitionRecord(basis, blocks).spans
            if len(blocks) >= 2 and pure_sum_kind(g, spans) is SplitKind.EXACT:
                exact.append((blocks, spans))
        for _blocks, spans in finest_groupings(exact):
            record = _split_record(g, spans)
            key = tuple(sorted(s.key() for s in record.summands))
            if key not in seen:
                seen.add(key)
                results.append(_certify_summands(record))
    return tuple(results)


@pytest.mark.parametrize("profile, seed", [("cd", 7), ("cd", 11), ("acd", 5), ("butler", 5), ("mixed", 4)])
def test_span_set_dedupe_keeps_the_summand_key_results(profile, seed):
    g = generate(profile, seed, max_rank=3).group
    found = complete_decomposition_search(g, height_bound=1)
    assert found == summand_key_search(g, 1)


def test_span_set_dedupe_on_split_groups():
    for g in (G1(), Z2(), Z(3)):
        found = complete_decomposition_search(g, height_bound=1)
        assert found and found == summand_key_search(g, 1)


class TestCandidateVectors:
    def test_members_and_canonical_sign(self):
        g = G3()
        pool = candidate_vectors(g, 1)
        assert pool
        for v in pool:
            assert member(g, v)
            first = next(e for e in v if e)
            assert first > 0

    def test_deterministic(self):
        assert candidate_vectors(G2(), 2) == candidate_vectors(G2(), 2)

    @settings(max_examples=80, deadline=None)
    @given(group_reps(ambient=3, max_gens=4), st.integers(min_value=0, max_value=2))
    def test_matches_the_fraction_walk(self, g, height):
        assert candidate_vectors(g, height) == fraction_candidates(g, height)


def fraction_candidates(g, height_bound):
    """Reference: the coefficient walk over Fraction vectors, sign and dedupe."""
    out = []
    for coeffs in itertools.product(range(-height_bound, height_bound + 1), repeat=len(g.generators)):
        v = tuple(sum((c * w[j] for c, (w, _s) in zip(coeffs, g.generators)), F(0)) for j in range(g.ambient_dim))
        lead = next((e for e in v if e), 0)
        if lead < 0:
            v = tuple(-e for e in v)
        if lead and v not in out:
            out.append(v)
    return tuple(out)


class TestIsomorphy:
    def test_same_types_different_blocks(self):
        g = Z2()
        d1 = decomposition_record(
            g, (purify(g, Subspace.span([vec((1, 0))], 2)), purify(g, Subspace.span([vec((0, 1))], 2)))
        )
        d2 = decomposition_record(
            g, (purify(g, Subspace.span([vec((1, 1))], 2)), purify(g, Subspace.span([vec((1, 0))], 2)))
        )
        answer = decompositions_isomorphic(d1, d2)
        assert answer.verdict is IsoVerdict.YES
        m = automorphism_from_summand_isos(d1, d2, answer)
        assert automorphism_check(g, m)

    def test_rank_multisets_differ(self):
        g = Z(4)
        halves = (
            purify(g, Subspace.span([vec((1, 0, 0, 0)), vec((0, 1, 0, 0))], 4)),
            purify(g, Subspace.span([vec((0, 0, 1, 0)), vec((0, 0, 0, 1))], 4)),
        )
        lines = tuple(
            purify(g, Subspace.span([vec(tuple(int(i == j) for j in range(4)))], 4))
            for i in range(4)
        )
        answer = decompositions_isomorphic(
            decomposition_record(g, halves), decomposition_record(g, lines)
        )
        assert answer.verdict is IsoVerdict.NO
        assert "rank" in answer.reason

    def test_unequal_rank2_summands_stay_unknown(self):
        g = Z(4)
        d1 = decomposition_record(
            g,
            (
                purify(g, Subspace.span([vec((1, 0, 0, 0)), vec((0, 1, 0, 0))], 4)),
                purify(g, Subspace.span([vec((0, 0, 1, 0)), vec((0, 0, 0, 1))], 4)),
            ),
        )
        d2 = decomposition_record(
            g,
            (
                purify(g, Subspace.span([vec((1, 0, 0, 0)), vec((0, 0, 1, 0))], 4)),
                purify(g, Subspace.span([vec((0, 1, 0, 0)), vec((0, 0, 0, 1))], 4)),
            ),
        )
        answer = decompositions_isomorphic(d1, d2)
        assert answer.verdict is IsoVerdict.UNKNOWN

    def test_only_yes_assembles(self):
        g = Z(4)
        halves = (
            purify(g, Subspace.span([vec((1, 0, 0, 0)), vec((0, 1, 0, 0))], 4)),
            purify(g, Subspace.span([vec((0, 0, 1, 0)), vec((0, 0, 0, 1))], 4)),
        )
        lines = tuple(
            purify(g, Subspace.span([vec(tuple(int(i == j) for j in range(4)))], 4))
            for i in range(4)
        )
        d1 = decomposition_record(g, halves)
        d2 = decomposition_record(g, lines)
        answer = decompositions_isomorphic(d1, d2)
        with pytest.raises(GroupError):
            automorphism_from_summand_isos(d1, d2, answer)

    def test_different_groups_rejected(self):
        d1 = decomposition_record(G1(), (G1(),), (SummandFlag.UNKNOWN,))
        d2 = decomposition_record(Z2(), (Z2(),), (SummandFlag.UNKNOWN,))
        with pytest.raises(GroupError):
            decompositions_isomorphic(d1, d2)


class TestAutomorphisms:
    def test_swap_fixes_z2(self):
        assert automorphism_check(Z2(), ((0, 1), (1, 0)))

    def test_swap_moves_g1(self):
        # e1 and e2 have different types in Z + Q, so the swap is not an
        # automorphism even though it is unimodular
        assert not automorphism_check(G1(), ((0, 1), (1, 0)))

    def test_divisible_direction_absorbs_scaling(self):
        assert automorphism_check(G1(), ((1, 0), (0, 2)))

    def test_transport_by_identity(self):
        g = G3()
        assert compare(apply_span_matrix(g, identity_matrix(2)), g) is Compare.EQUAL

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_span_matrix(G3(), ((1,),))


@settings(max_examples=50, deadline=None)
@given(nonzero_group_reps())
def test_identity_is_always_an_automorphism(g):
    assert automorphism_check(g, identity_matrix(g.rank))


@settings(max_examples=50, deadline=None)
@given(nonzero_group_reps())
def test_negation_is_always_an_automorphism(g):
    m = tuple(tuple(-e for e in row) for row in identity_matrix(g.rank))
    assert automorphism_check(g, m)


@settings(max_examples=30, deadline=None)
@given(nonzero_group_reps(max_gens=2))
def test_found_decompositions_reassemble(g):
    for record in complete_decomposition_search(g):
        assert compare(sum_groups(*record.summands), g) is Compare.EQUAL
