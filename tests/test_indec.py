import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from strategies import group_reps
from torsionfree import indec
from torsionfree.bases import basis_record
from torsionfree.corpus import PROFILES, generate
from torsionfree.decomp import SpanTable, _generated_bases, candidate_vectors, set_partitions
from torsionfree.groups import GroupError, element_type, group_rep, pure_sum_kind
from torsionfree.indec import (
    SICertificate,
    SIVerdict,
    property_si_check,
    strong_decomposability_witness_search,
    typeset_obstruction_certificate,
)
from torsionfree.quasi import SplitKind


def G1():
    return group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])


def G2():
    return group_rep(2, [((1, 0), (2,)), ((0, 1), (3,)), ((1, 1), (5,))])


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def Z2():
    return group_rep(2, [((1, 0), ()), ((0, 1), ())])


class TestCertificate:
    def test_g2_is_certified(self):
        cert = typeset_obstruction_certificate(G2())
        assert cert is not None
        inverted = {s.primes for s in (t.inverted for t in cert.types)}
        assert inverted == {(2,), (3,), (5,)}

    def test_g3_is_not(self):
        assert typeset_obstruction_certificate(G3()) is None

    def test_free_group_is_not(self):
        assert typeset_obstruction_certificate(Z2()) is None

    def test_only_rank_two(self):
        g = group_rep(3, [((1, 0, 0), (2,)), ((0, 1, 0), (3,)), ((0, 0, 1), (5,))])
        assert typeset_obstruction_certificate(g) is None

    def test_deterministic(self):
        a = typeset_obstruction_certificate(G2())
        b = typeset_obstruction_certificate(G2())
        assert a == b

    @pytest.mark.parametrize("profile", PROFILES)
    def test_early_exit_keeps_the_sampled_answer(self, profile):
        # the certificate returns None at once without three lines W_p or
        # with W_ALL != 0; the full sampler must agree on every corpus group
        for seed in range(40):
            g = generate(profile, seed, max_rank=2).group
            if g.rank == 2:
                assert typeset_obstruction_certificate(g) == sampled_certificate(g), seed

    @settings(max_examples=40, deadline=None)
    @given(group_reps(max_gens=4))
    def test_early_exit_keeps_the_sampled_answer_on_random_groups(self, g):
        if g.rank == 2:
            assert typeset_obstruction_certificate(g) == sampled_certificate(g)


def sampled_certificate(g):
    """The certificate as sampled before the early exit (a reference copy)."""
    found = {}
    for v in candidate_vectors(g, 2):
        t = element_type(g, v)
        if t.inverted not in found:
            found[t.inverted] = (v, t)
    for trio in itertools.combinations(found, 3):
        if any(a.is_subset(b) or b.is_subset(a) for a, b in itertools.combinations(trio, 2)):
            continue
        return SICertificate(g, tuple(found[s][0] for s in trio), tuple(found[s][1] for s in trio))
    return None


class TestPropertySI:
    def test_holds_for_g2_axes(self):
        g = G2()
        report = property_si_check(g, basis_record(g, [(1, 0), (0, 1)]))
        assert report.verdict is SIVerdict.HOLDS
        assert report.witness is None
        assert not report.quotient.is_finite

    def test_holds_for_every_low_basis_of_g2(self):
        g = G2()
        for _ids, basis in _generated_bases(g, 1, SpanTable(g.ambient_dim)):
            assert property_si_check(g, basis).verdict is SIVerdict.HOLDS

    def test_fails_for_g3_with_finite_defect(self):
        g = G3()
        report = property_si_check(g, basis_record(g, [(1, 0), (0, 1)]))
        assert report.verdict is SIVerdict.FAILS
        # nothing splits on the nose, but the finite hull quotient is the
        # witness that a quasi-decomposition exists
        assert report.witness is report.quotient
        assert report.quotient.quotient.order == 2

    def test_fails_for_free_group_with_splitting_partition(self):
        g = Z2()
        report = property_si_check(g, basis_record(g, [(1, 0), (0, 1)]))
        assert report.verdict is SIVerdict.FAILS
        assert report.split_attempts[0][1]

    def test_zero_group_has_no_partitions_and_a_finite_quotient(self):
        g = group_rep(2, [])
        report = property_si_check(g, basis_record(g, []))
        assert report.split_attempts == ()
        assert report.verdict is SIVerdict.FAILS

    def test_rejects_non_basis(self):
        h = group_rep(2, [((F(1, 2), 0), ()), ((0, 1), ())])
        record = basis_record(h, [(F(1, 2), 0), (0, 1)])
        with pytest.raises(ValueError):
            property_si_check(Z2(), record)


class TestWitnessSearch:
    def test_g2_yields_nothing_at_height_two(self):
        result = strong_decomposability_witness_search(G2(), 2)
        assert not result.found
        assert result.bases_searched > 0

    def test_g3_quasi_splits(self):
        result = strong_decomposability_witness_search(G3(), 2)
        assert result.found
        assert result.kind is SplitKind.QUASI
        assert result.report.quotient.quotient.order == 2

    def test_g1_splits_exactly(self):
        result = strong_decomposability_witness_search(G1(), 1)
        assert result.found
        assert result.kind is SplitKind.EXACT

    def test_free_group_splits(self):
        result = strong_decomposability_witness_search(Z2(), 1)
        assert result.found
        assert result.kind is SplitKind.EXACT

    def test_each_set_of_block_spans_is_checked_once(self, monkeypatch):
        # at height 1, G2 has bases {(1,0), (1,1)} and {(1,0), (2,2)}: the same
        # block spans from different vectors, so the same verdict
        checked = []

        def spy(g, spans):
            checked.append(frozenset(spans))
            return pure_sum_kind(g, spans)

        monkeypatch.setattr(indec, "pure_sum_kind", spy)
        result = strong_decomposability_witness_search(G2(), 1)
        assert not result.found
        assert result.bases_searched == 33
        assert len(checked) == len(set(checked)) == 15


class TestMutualExclusion:
    def test_certificate_and_witness_never_coexist(self):
        for seed in range(8):
            g = generate("cd", seed, max_rank=2).group
            cert = typeset_obstruction_certificate(g)
            witness = strong_decomposability_witness_search(g, 1)
            assert not (cert is not None and witness.found)


@settings(max_examples=25, deadline=None)
@given(group_reps(max_gens=3))
def test_certified_groups_yield_no_witness(g):
    if g.rank != 2:
        return
    if typeset_obstruction_certificate(g) is not None:
        assert not strong_decomposability_witness_search(g, 1).found


@pytest.mark.parametrize("t", range(9))
def test_two_block_blockings_keep_the_sorted_partition_order(t):
    # the witness search's attempt order, and so the printed witness, rests on it
    two_block = [b for b in set_partitions(t, 2) if len(b) == 2]
    two_block.sort(key=lambda blocks: sum(1 << i for i in blocks[1]))
    assert indec._two_block_blockings(t) == two_block
