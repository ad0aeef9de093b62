from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import SMALL_PRIMES, group_reps, nonzero_group_reps, vectors
from torsionfree.corpus import generate
from torsionfree import groups
from torsionfree.groups import (
    Compare,
    GroupError,
    GroupRep,
    NotASubgroup,
    SpanMismatch,
    compare,
    divisible_part,
    element_type,
    group_rep,
    index_and_quotient,
    member,
    order_mod,
    purify,
    scale_group,
    simplify_presentation,
    subgroup_leq,
    sum_groups,
    zero_group,
)
from torsionfree import numutil
from torsionfree.linalg import (
    CoordinateMap,
    RationalLattice,
    Subspace,
    integer_form,
    solve_in_rows,
    vadd,
    vec,
    vscale,
)
from torsionfree.numutil import primes_dividing, valuation
from torsionfree.rank1 import ALL, NO_PRIMES, format_type, parse_type, prime_set
from test_linalg import fraction_coordinate_map, fraction_hermite_rows


def G1():
    """Z e1 + Q e2."""
    return group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])


def G2():
    """Z[1/2] e1 + Z[1/3] e2 + Z[1/5] (e1+e2)."""
    return group_rep(2, [((1, 0), (2,)), ((0, 1), (3,)), ((1, 1), (5,))])


def G3():
    """Z[1/3] e1 + Z[1/5] e2 + Z (1/2)(e1+e2)."""
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def Z2():
    return group_rep(2, [((1, 0), ()), ((0, 1), ())])


def line(ambient, direction):
    return Subspace.span([vec(direction)], ambient)


class TestMember:
    def test_divisible_coordinate(self):
        assert member(G1(), (0, F(355, 113)))

    def test_half_e1_not_in_g1(self):
        assert not member(G1(), (F(1, 2), 0))

    def test_g3_mixed(self):
        # derived by exhaustive enumeration over denominators with
        # support {2,3,5} and exponent <= 6
        assert member(G3(), (F(1, 2), F(1, 2)))
        assert not member(G3(), (F(1, 2), 0))
        assert member(G3(), (F(1, 6), F(1, 2)))

    def test_zero_always_member(self):
        assert member(zero_group(3), (0, 0, 0))
        assert not member(zero_group(3), (1, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            member(G1(), (1, 0, 0))

    def test_zero_group_holds_only_zero(self):
        g = zero_group(2)
        assert member(g, (0, 0))
        assert not member(g, (F(1, 7), 0))

    def test_all_only_group_is_its_line(self):
        g = group_rep(3, [((1, 2, 0), "ALL")])
        assert member(g, (F(3, 7), F(6, 7), 0))
        assert not member(g, (1, 0, 0))

    def test_divisible_directions_spanning_the_group(self):
        # W_2 is the whole span, so only 2-power denominators are allowed
        g = group_rep(3, [((1, 0, 0), (2,)), ((0, 1, 1), (2, 3)), ((1, 1, 1), ())])
        assert member(g, (F(1, 1024), F(3, 8), F(3, 8)))
        assert member(g, (0, F(1, 3), F(1, 3)))
        assert not member(g, (F(1, 3), 0, 0))
        assert not member(g, (0, 1, 0))

    def test_denominators_above_ten_to_the_eighteen(self):
        big = 3**40 * 5**30
        assert big > 10**18
        assert member(G3(), (F(1, 2) + F(1, 3**40), F(1, 2) + F(7, 5**30)))
        assert not member(G3(), (F(1, big), F(1, big)))
        assert not member(G3(), (F(1, 3**40 * 7), 0))
        assert member(G3(), (F(2, 3**40), F(1, 5**30)))

    def test_fresh_groups_never_factor(self, monkeypatch):
        samples = [generate(p, s) for p in ("cd", "mixed", "acd", "butler") for s in range(5)]

        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr("torsionfree.numutil.factorize", refuse)
        for sample in samples:
            for h in (sample.group, sample.base):
                g = group_rep(h.ambient_dim, h.generators)
                for v, _s in g.generators:
                    for p in (1, 2, 3, 7):
                        member(g, vscale(F(1, p), v))

    @given(group_reps())
    @settings(max_examples=80)
    def test_generators_are_members(self, g):
        for v, _s in g.generators:
            assert member(g, v)

    @given(group_reps(), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=80)
    def test_integer_multiples_of_generators(self, g, n):
        for v, _s in g.generators:
            assert member(g, vscale(n, v))

    @given(group_reps())
    @settings(max_examples=60)
    def test_inverted_primes_divide(self, g):
        for v, s in g.generators:
            if not s.is_all:
                for p in s:
                    assert member(g, vscale(F(1, p * p), v))


class TestPerPrimeView:
    @pytest.mark.parametrize("profile", ["cd", "mixed", "acd", "butler"])
    def test_untagged_primes_share_one_view(self, profile):
        for seed in range(5):
            g = generate(profile, seed).group
            untagged = [q for q in (2, 3, 5, 7, 11, 13, 10**9 + 7) if q not in g.tagged_primes]
            assert untagged
            for q in untagged:
                assert g.local(q) is g.local()
                assert g.divisible_directions(q) is g.divisible_directions()
            for p in g.tagged_primes:
                assert g.local(p) is g.local(p)
                assert g.local(p).space is g.divisible_directions(p)
            # one entry per prime key, however many primes were asked about
            assert len(g._local_cache) == len(g.tagged_primes) + 1
            assert len(g._w_cache) == len(g.tagged_primes) + 1

    def test_none_is_the_all_data(self):
        g = G1()
        assert g.divisible_directions() == line(2, (0, 1))
        assert g.local().lattice.rows == ((1, 0),)
        assert g.local(2).map == g.local().map

    @given(
        group_reps(ambient=3, max_gens=3),
        st.one_of(st.none(), vectors(3)),
        st.lists(vectors(3), min_size=1, max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_meet_is_the_intersection(self, g, divisible, rows):
        # an added ALL generator makes W_ALL nonzero; a group of rank < 3
        # leaves room for spaces outside [G]
        if divisible is not None:
            g = group_rep(3, [*g.generators, (divisible, ALL)])
        u = Subspace.span([vec(r) for r in rows], 3)
        for key in (*g.tagged_primes, None):
            meet = g.meet(u, key)
            assert meet == u.intersect(g.divisible_directions(key))
            assert g.meet(u, key) is meet
        # every untagged prime shares the None entry
        assert g.meet(u, 7) is g.meet(u, None)

    def test_meet_examples(self):
        # Z e1 + Q e2 inside Q^3: W_ALL is the e2 line
        g = group_rep(3, [((1, 0, 0), ()), ((0, 1, 0), "ALL")])
        plane = Subspace.span([(0, 1, 0), (0, 0, 1)], 3)
        assert g.meet(plane, None) == line(3, (0, 1, 0))
        assert g.meet(line(3, (0, 2, 0)), 2) == line(3, (0, 1, 0))
        assert g.meet(line(3, (0, 1, 1)), None).is_zero()
        assert g.meet(line(3, (0, 0, 1)), 5).is_zero()
        # cached under the prime key, however many untagged primes were asked about
        spaces = [plane, line(3, (0, 1, 0)), line(3, (0, 1, 1)), line(3, (0, 0, 1))]
        assert list(g._meet_cache) == [(u, None) for u in spaces]

    @given(group_reps(), st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_member_agrees_with_order_mod(self, g, coeffs):
        # x is an integer combination of the generators, so x lies in G, and
        # x/p and x/p^2 probe the p-local test at tagged and untagged p
        x = vec((0, 0))
        for c, (v, _s) in zip(coeffs, g.generators):
            x = vadd(x, vscale(c, v))
        for q in (1, *SMALL_PRIMES, 7, 4, 9, 25, 49):
            z = vscale(F(1, q), x)
            assert member(g, z) == (order_mod(g, *integer_form(z)) == 1)


def fraction_local(g, key):
    """Reference: W_p from the Fraction generators, and the Fraction HNF of the
    other generators reduced modulo W_p by ``Subspace.reduce``."""
    inverted = [(v, s.is_all if key is None else key in s) for v, s in g.generators]
    w = Subspace.span([v for v, inv in inverted if inv], g.ambient_dim)
    return w, fraction_hermite_rows([w.reduce(v) for v, inv in inverted if not inv], g.ambient_dim)


def corpus_groups():
    samples = [generate(p, s) for p in ("cd", "mixed", "acd", "butler") for s in range(6)]
    return [group_rep(h.ambient_dim, h.generators) for x in samples for h in (x.group, x.base)]


class TestIntegerBuild:
    """The per-prime data is built from the integer generators; it must equal
    the Fraction route it replaced."""

    @staticmethod
    def check(g):
        assert g.span == Subspace.span([v for v, _s in g.generators], g.ambient_dim)
        assert g.lattice_hull.rows == fraction_hermite_rows([v for v, _s in g.generators], g.ambient_dim)
        for key in (*g.tagged_primes, None):
            w, rows = fraction_local(g, key)
            local = g.local(key)
            assert local.space == w
            assert local.lattice.rows == rows
            assert local.map == fraction_coordinate_map(w, local.lattice)

    def test_corpus_groups_match_the_fraction_route(self):
        for g in corpus_groups():
            self.check(g)

    @given(group_reps(ambient=3, max_gens=4), vectors(3))
    @settings(max_examples=120)
    def test_groups_with_divisible_directions_match_the_fraction_route(self, g, v):
        self.check(group_rep(3, [*g.generators, (v, ALL)]))

    def test_fresh_groups_build_no_lattice_from_fractions(self, monkeypatch):
        fresh = corpus_groups()

        def refuse(vectors, ambient_dim):
            raise AssertionError("RationalLattice.from_generators called")

        monkeypatch.setattr(RationalLattice, "from_generators", staticmethod(refuse))
        for g in fresh:
            assert g.lattice_hull.rank == g.rank
            for key in (*g.tagged_primes, None):
                g.local(key).map


class TestCompare:
    def test_scaled_lattice(self):
        assert compare(Z2(), scale_group(Z2(), 2)) is Compare.RIGHT_IN_LEFT

    def test_hull_inside_group(self):
        g = G3()
        hull = group_rep(2, [(r, ()) for r in g.lattice_hull.rows])
        assert compare(g, hull) is Compare.RIGHT_IN_LEFT

    def test_incomparable_rank_one(self):
        a = group_rep(1, [((1,), (2,))])
        b = group_rep(1, [((1,), (3,))])
        assert compare(a, b) is Compare.INCOMPARABLE

    def test_presentation_invariance(self):
        a = group_rep(2, [((1, 0), ()), ((0, 1), ())])
        b = group_rep(2, [((1, 1), ()), ((0, 1), ()), ((1, 0), ())])
        assert compare(a, b) is Compare.EQUAL

    @given(group_reps())
    @settings(max_examples=60)
    def test_reflexive(self, g):
        assert compare(g, g) is Compare.EQUAL

    @given(group_reps(), st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=60)
    def test_scaling_shrinks(self, g, p):
        scaled = scale_group(g, p)
        assert subgroup_leq(scaled, g)


class TestPurify:
    def test_index_two_saturation(self):
        r = purify(Z2(), line(2, (2, 0)))
        assert compare(r, group_rep(2, [((1, 0), ())])) is Compare.EQUAL

    def test_non_splitting_basis_direction(self):
        r = purify(G1(), line(2, (1, 1)))
        assert compare(r, group_rep(2, [((1, 1), ())])) is Compare.EQUAL

    def test_tagged_direction(self):
        r = purify(G3(), line(2, (1, 0)))
        assert compare(r, group_rep(2, [((1, 0), (3,))])) is Compare.EQUAL

    def test_diagonal_of_g3(self):
        # the diagonal line meets G3 exactly in multiples of (1/2, 1/2)
        r = purify(G3(), line(2, (1, 1)))
        assert compare(r, group_rep(2, [((F(1, 2), F(1, 2)), ())])) is Compare.EQUAL

    def test_full_space_returns_group(self):
        g = G2()
        assert compare(purify(g, Subspace.full(2)), g) is Compare.EQUAL

    def test_inactive_prime_saturation(self):
        # G = Q e1 + Z e2 presented with a skew lattice: the pure subgroup of
        # the line through (1, 2) needs saturation at 2, which divides no
        # active data of the presentation
        g = group_rep(2, [((1, 0), "ALL"), ((0, 1), ())])
        r = purify(g, line(2, (1, 2)))
        assert member(r, (F(1, 2), 1))
        assert compare(r, group_rep(2, [((F(1, 2), 1), ())])) is Compare.EQUAL

    def test_large_hull_entries_are_never_factored(self, monkeypatch):
        # purify factors nothing, and the quotient looks at the tagged primes
        # and the primes of the index, so the 31-digit denominator of the
        # lattice hull is never factored
        real = numutil.factorize

        def small_only(n):
            if n > 10**6:
                raise AssertionError(f"factored {n}")
            return real(n)

        monkeypatch.setattr(numutil, "factorize", small_only)
        big = 10**30 + 57
        g = group_rep(2, [((F(1, big), 0), ()), ((0, 1), (2,))])
        r = purify(g, line(2, (1, 1)))
        assert compare(r, group_rep(2, [((1, 1), ())])) is Compare.EQUAL
        a = group_rep(2, [((F(3, big), 0), ()), ((0, 1), (2,))])
        assert index_and_quotient(g, a).quotient.invariant_factors == (3,)

    def test_purify_factors_nothing(self, monkeypatch):
        # G = Q e1 + Z e2 on the line through (1, 6) is Z (1/6, 1): the seed
        # is exact at every untagged prime, so no index is factored for 2 or 3
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(numutil, "factorize", refuse)
        g = group_rep(2, [((1, 0), "ALL"), ((0, 1), ())])
        assert purify(g, line(2, (1, 6))).generators == (((F(1, 6), 1), NO_PRIMES),)

    @given(
        group_reps(ambient=3, max_gens=4),
        vectors(3),
        st.lists(vectors(3), min_size=1, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_purify_factors_nothing_with_divisible_directions(self, g, v, directions):
        g = group_rep(3, [*g.generators, (v, ALL)])
        u = Subspace.span([vec(d) for d in directions], 3)

        def refuse(n):
            raise AssertionError(f"factored {n}")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numutil, "factorize", refuse)
            hull = purify(g, u)
        assert compare(hull, member_loop_purify(g, u, gap_route=True)) is Compare.EQUAL

    def test_repeated_subspace_returns_the_memoised_group(self):
        g = G3()
        s = line(2, (1, 1))
        assert purify(g, s) is purify(g, s)
        # an equal subspace built afresh finds the same entry
        assert purify(g, line(2, (2, 2))) is purify(g, s)

    @given(group_reps(), vectors(2))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, g, direction):
        u = Subspace.span([vec(direction)], 2)
        r = purify(g, u)
        again = purify(g, r.span)
        assert compare(r, again) is Compare.EQUAL

    @given(group_reps(), vectors(2), st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=40, deadline=None)
    def test_pure_subgroup_law(self, g, direction, k):
        u = Subspace.span([vec(direction)], 2)
        r = purify(g, u)
        for v, _s in r.generators:
            candidate = vscale(F(1, k), v)
            if member(g, candidate):
                assert member(r, candidate)

    @given(group_reps())
    @settings(max_examples=40, deadline=None)
    def test_purify_span_recovers_group(self, g):
        assert compare(purify(g, g.span), g) is Compare.EQUAL


class TestDivisiblePart:
    def test_g1_divisible_summand(self):
        d = divisible_part(G1(), "ALL")
        assert compare(d, group_rep(2, [((0, 1), "ALL")])) is Compare.EQUAL

    def test_reduced_group_trivial(self):
        assert divisible_part(Z2(), 2).rank == 0

    def test_five_divisible_part_of_g2(self):
        d = divisible_part(G2(), 5)
        assert compare(d, group_rep(2, [((1, 1), (5,))])) is Compare.EQUAL


class TestElementType:
    def test_q_direction(self):
        assert format_type(element_type(G1(), (0, 1))) == "Q"

    def test_diagonal_in_g1(self):
        assert format_type(element_type(G1(), (1, 1))) == "Z"

    def test_diagonal_in_g2(self):
        assert format_type(element_type(G2(), (1, 1))) == "Z[5]"

    def test_half_diagonal_in_g3(self):
        assert format_type(element_type(G3(), (F(1, 2), F(1, 2)))) == "Z"

    def test_multiplier(self):
        assert element_type(G3(), (1, 1)) == parse_type("1/2 Z")

    def test_outside_raises(self):
        with pytest.raises(GroupError):
            element_type(G1(), (F(1, 2), 0))

    def test_hidden_divisibility_via_all_summand(self):
        # 3 e1 + e2 picks up an extra factor 3 against Z e1 + Q e2
        g = group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])
        assert element_type(g, (3, 1)) == parse_type("1/3 Z")

    @given(nonzero_group_reps())
    @settings(max_examples=50, deadline=None)
    def test_type_of_generator_contains_its_prime_set(self, g):
        v, s = g.generators[0]
        t = element_type(g, v)
        if s.is_all:
            assert t.inverted.is_all
        else:
            assert all(p in t.inverted for p in s)

    @given(nonzero_group_reps(), st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=50, deadline=None)
    def test_type_membership_matches_member(self, g, p):
        v, _ = g.generators[0]
        t = element_type(g, v)
        assert t.contains(F(1, p)) == member(g, vscale(F(1, p), v))


    @given(group_reps(), vectors(2))
    @settings(max_examples=80, deadline=None)
    def test_raises_exactly_off_the_group(self, g, x):
        if member(g, x):
            element_type(g, x)
        else:
            with pytest.raises(GroupError):
                element_type(g, x)

    def test_reads_each_prime_key_once(self, monkeypatch):
        g = G2()
        keys = (*g.tagged_primes, None)
        for key in keys:
            g.local(key).map
        calls = []
        numerators = CoordinateMap.numerators

        def counting(self, y):
            calls.append(y)
            return numerators(self, y)

        monkeypatch.setattr(CoordinateMap, "numerators", counting)
        assert element_type(g, (1, 1)) == parse_type("Z[5]")
        assert len(calls) == len(keys)

    @given(
        nonzero_group_reps(ambient=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.sampled_from([1, 7, 49]),
    )
    @settings(max_examples=60, deadline=None)
    def test_heights_match_probing(self, g, coeffs, scale):
        a = vec((0, 0, 0))
        for c, (v, _s) in zip(coeffs, g.generators):
            a = tuple(x + scale * c * y for x, y in zip(a, v))
        t = element_type(g, a)
        for p in (2, 3, 5, 7):
            for k in range(1, 9):
                probe = vscale(F(1, p**k), a)
                assert t.contains(F(1, p**k)) == member(g, probe)


class TestIndexAndQuotient:
    def test_index_two_sublattice(self):
        q = index_and_quotient(Z2(), group_rep(2, [((2, 0), ()), ((0, 1), ())]))
        assert q.is_finite
        assert q.quotient.invariant_factors == (2,)

    def test_jonsson_quotient_of_g3(self):
        q = index_and_quotient(G3(), group_rep(2, [((1, 0), (3,)), ((0, 1), (5,))]))
        assert q.is_finite
        assert q.quotient.invariant_factors == (2,)
        assert q.quotient.exponent == 2
        assert q.quotient.order == 2
        # only the glue generator (1/2)(e1+e2) maps onto the quotient
        assert q.quotient.generator_images == ((0,), (0,), (1,))

    def test_infinite_torsion(self):
        q = index_and_quotient(G1(), Z2())
        assert not q.is_finite
        assert q.direction is not None
        # the witness direction carries unbounded divisibility in G1
        assert member(G1(), vscale(F(1, q.prime**6), q.direction))

    def test_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            index_and_quotient(Z2(), group_rep(2, [((F(1, 2), 0), ())]))

    def test_span_mismatch(self):
        with pytest.raises(SpanMismatch):
            index_and_quotient(Z2(), group_rep(2, [((1, 0), ())]))

    def test_diagonal_glue_quotient(self):
        # Z^2 + Z (1/2)(e1+e2) over Z^2: one factor of 2
        g = group_rep(2, [((1, 0), ()), ((0, 1), ()), ((F(1, 2), F(1, 2)), ())])
        q = index_and_quotient(g, Z2())
        assert q.quotient.invariant_factors == (2,)
        assert q.quotient.image((F(1, 2), F(1, 2))) == (1,)
        assert q.quotient.image((1, 1)) == (0,)

    def test_two_factor_quotient(self):
        a = group_rep(2, [((2, 0), ()), ((0, 4), ())])
        q = index_and_quotient(Z2(), a)
        assert q.quotient.invariant_factors == (2, 4)
        assert q.quotient.order == 8

    def test_crt_mixed_quotient(self):
        a = group_rep(2, [((2, 0), ()), ((0, 3), ())])
        q = index_and_quotient(Z2(), a)
        assert q.quotient.invariant_factors == (6,)
        img = q.quotient.image((1, 1))
        assert img[0] % 2 == 1 and img[0] % 3 == 1

    @given(group_reps(max_gens=2), st.sampled_from((2, 3, 4, 6)))
    @settings(max_examples=40, deadline=None)
    def test_scaled_subgroup_quotient_exponent_divides(self, g, n):
        if g.rank == 0:
            return
        q = index_and_quotient(g, scale_group(g, n))
        assert q.is_finite
        assert n % q.quotient.exponent == 0
        for v, _s in g.generators:
            assert q.quotient.image(vscale(n, v)) == tuple(
                0 for _ in q.quotient.invariant_factors
            )

    @given(group_reps(max_gens=2))
    @settings(max_examples=40, deadline=None)
    def test_image_is_additive(self, g):
        if g.rank == 0:
            return
        q = index_and_quotient(g, scale_group(g, 6))
        quo = q.quotient
        v = g.generators[0][0]
        w = g.generators[-1][0]
        left = quo.image(tuple(a + b for a, b in zip(v, w)))
        right = tuple(
            (a + b) % d
            for a, b, d in zip(quo.image(v), quo.image(w), quo.invariant_factors)
        )
        assert left == right


def quotient_pairs():
    """(G, A) pairs with finite G/A: G3/A3, corpus extensions, scaled groups."""
    yield G3(), group_rep(2, [((1, 0), (3,)), ((0, 1), (5,))])
    for seed in range(4):
        sample = generate("acd", seed)
        yield sample.group, sample.base
    for seed in range(3):
        g = generate("cd", seed).group
        yield g, scale_group(g, 12)


@pytest.mark.parametrize("g,a", list(quotient_pairs()))
def test_sections_map_to_units_and_the_subgroup_to_zero(g, a):
    q = index_and_quotient(g, a).quotient
    k = len(q.invariant_factors)
    for v, _s in a.generators:
        assert q.image(v) == (0,) * k
    # one section per prime and nonzero p-part, taken from the largest
    # factor down; its image has p-part 1 at its factor and 0 elsewhere
    sections = iter(q.section_vectors())
    for p in primes_dividing(q.order):
        pe = [p ** valuation(d, p) for d in q.invariant_factors]
        for j in reversed(range(k)):
            if pe[j] == 1:
                break
            s = next(sections)
            assert member(g, s)
            image = q.image(s)
            assert [image[i] % pe[i] for i in range(k)] == [
                1 if i == j else 0 for i in range(k)
            ]
    assert next(sections, None) is None


class TestPresentation:
    def test_simplify_drops_redundant_generator(self):
        g = group_rep(2, [((1, 0), ()), ((2, 0), ()), ((0, 1), ())])
        s = simplify_presentation(g)
        assert len(s.generators) == 2
        assert compare(s, g) is Compare.EQUAL

    def test_sum_groups(self):
        g = sum_groups(group_rep(2, [((1, 0), ())]), group_rep(2, [((0, 1), "ALL")]))
        assert compare(g, G1()) is Compare.EQUAL

    @given(group_reps())
    @settings(max_examples=40, deadline=None)
    def test_simplify_preserves_group(self, g):
        assert compare(simplify_presentation(g), g) is Compare.EQUAL


def restart_simplify(g):
    """The reference pruning: drop the first generator whose piece lies in a
    group built from the rest, then start again from the front."""
    gens = list(g.generators)
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for i in range(len(gens)):
            rest = GroupRep(g.ambient_dim, tuple(gens[:i] + gens[i + 1 :]))
            if subgroup_leq(GroupRep(g.ambient_dim, (gens[i],)), rest):
                gens = list(rest.generators)
                changed = True
                break
    return GroupRep(g.ambient_dim, tuple(gens))


def presentations_before_pruning():
    """The saturated presentations that purify hands to simplify_presentation
    on corpus groups, collected by wrapping it: (group, hull generators)."""
    seen = []
    original = groups.simplify_presentation

    def recording(g, gens=None):
        seen.append((g, gens))
        return original(g, gens)

    groups.simplify_presentation = recording
    try:
        for profile in ("cd", "acd", "butler", "mixed"):
            for seed in range(10):
                g = generate(profile, seed).group
                for v, _s in g.generators:
                    purify(g, line(g.ambient_dim, v))
                purify(g, g.divisible_directions())
                for p in g.tagged_primes:
                    purify(g, g.divisible_directions(p))
    finally:
        groups.simplify_presentation = original
    return seen


class TestPruning:
    @given(group_reps(ambient=3, max_gens=5))
    @settings(max_examples=150, deadline=None)
    def test_one_pass_matches_the_restart_loop(self, g):
        assert simplify_presentation(g).generators == restart_simplify(g).generators

    def test_one_pass_matches_the_restart_loop_inside_purify(self):
        inputs = presentations_before_pruning()
        assert len(inputs) > 100
        for g, gens in inputs:
            hull = GroupRep(g.ambient_dim, tuple(gens))
            expected = restart_simplify(hull).generators
            # pruned against g's maps and against the hull's own maps
            assert simplify_presentation(g, gens).generators == expected
            assert simplify_presentation(hull).generators == expected

    def test_builds_only_its_result(self, monkeypatch):
        g = group_rep(2, [((1, 0), (2,)), ((F(1, 2), 0), ()), ((2, 0), ()), ((0, 1), (3,)), ((0, 1), ())])
        built = []
        post_init = GroupRep.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GroupRep, "__post_init__", counting)
        s = simplify_presentation(g)
        assert built == [s]
        assert s.generators == (((1, 0), prime_set([2])), ((0, 1), prime_set([3])))

    def test_keeps_the_all_piece_that_w_all_needs(self):
        g = group_rep(2, [((0, 1), ()), ((0, 1), "ALL"), ((1, 0), ())])
        gens = list(g.generators)
        can_drop = groups._drop_test(g, gens)
        assert not can_drop(1, [0, 2])
        assert can_drop(0, [1, 2])
        assert simplify_presentation(g).generators == tuple(gens[1:])

    def test_drops_the_lattice_copy_of_a_local_piece(self):
        # Z[1/2]*e1 given as (e1, {2}) and (e1/2, {}): the second is redundant
        g = group_rep(2, [((1, 0), (2,)), ((F(1, 2), 0), ()), ((0, 1), ())])
        gens = list(g.generators)
        can_drop = groups._drop_test(g, gens)
        assert not can_drop(0, [1, 2])
        assert can_drop(1, [0, 2])
        assert simplify_presentation(g).generators == (gens[0], gens[2])

    def test_dropping_the_only_tagged_piece_untags_its_prime(self):
        g = group_rep(2, [((2, 0), (3,)), ((1, 0), "ALL"), ((0, 1), ())])
        s = simplify_presentation(g)
        assert s.generators == (((1, 0), ALL), ((0, 1), NO_PRIMES))
        assert g.tagged_primes == (3,) and s.tagged_primes == ()
        assert compare(s, g) is Compare.EQUAL


def gap_primes(g, u, seed):
    """The untagged primes at which the hull seed can fall short of U ∩ G.

    At a prime q with no divisibility in G the localization is
    W_ALL + Z_(q)*L, so the pure subgroup exceeds the seed at q only when q
    divides the index [span(U) ∩ L : U ∩ L] taken modulo the fully divisible
    directions.  Without fully divisible directions the two lattices agree
    and no extra primes arise.  This factors the index.
    """
    w = g.divisible_directions()
    if w.dim == 0:
        return set()
    pi_u = Subspace.span([w.reduce(r) for r in u.rows], g.ambient_dim)
    lam = g.local().lattice.intersect_subspace(pi_u)
    if lam.rank == 0:
        return set()
    pi_m = RationalLattice.from_generators([w.reduce(r) for r in seed.rows], g.ambient_dim)
    assert pi_m.rank == lam.rank
    return groups._index_primes(lam, pi_m)


def member_loop_purify(g, subspace, gap_route=False):
    """The reference purification: the old loop, which tests every candidate
    z = (sum c_i g_i)/p with ``member`` against a group rebuilt after each
    adjunction, then prunes with the restart loop.

    By default it seeds as ``purify`` does, with the lifts into U of
    L ∩ π(U) (π reducing mod W_ALL, L the reduced hull) beside the hull
    lattice in U, and saturates at the tagged primes.  With ``gap_route`` it
    takes the older route instead: the hull lattice in U alone, saturated at
    the tagged primes and at the gap primes, found by factoring an index.
    """
    u = subspace.intersect(g.span)
    if u.dim == 0:
        return zero_group(g.ambient_dim)
    seed = lattice = g.lattice_hull.intersect_subspace(u)
    pieces = []
    for p in (*g.tagged_primes, None):
        vp = u.intersect(g.divisible_directions(p))
        if vp.dim:
            s = ALL if p is None else prime_set([p])
            pieces.extend((row, s) for row in g.lattice_hull.intersect_subspace(vp).rows)
    if gap_route:
        primes = sorted(set(g.tagged_primes) | gap_primes(g, u, seed))
    else:
        primes = g.tagged_primes
        w = g.divisible_directions()
        reduced = [w.reduce(r) for r in u.rows]
        pi_u = Subspace.span(reduced, g.ambient_dim)
        for x in g.local().lattice.intersect_subspace(pi_u).rows:
            c = solve_in_rows(reduced, x)
            lift = vec((0,) * g.ambient_dim)
            for ci, r in zip(c, u.rows):
                lift = vadd(lift, vscale(ci, r))
            assert w.reduce(lift) == x
            lattice = RationalLattice.from_generators((*lattice.rows, lift), g.ambient_dim)

    def presentation():
        return group_rep(g.ambient_dim, [(row, NO_PRIMES) for row in lattice.rows] + pieces)

    def candidates(current, p):
        idx = [i for i, (_v, s) in enumerate(current.generators) if p not in s]
        local = g.local(p).map
        rows = []
        for i in idx:
            y, d = integer_form(current.generators[i][0])
            rows.append([numutil.mod_p(F(t, d * local.scale), p) for t in local.numerators(y)])
        out = []
        for coeffs in groups._fp_left_kernel(rows, p, len(idx)):
            z = vec((0,) * g.ambient_dim)
            for c, i in zip(coeffs, idx):
                z = vadd(z, vscale(c, current.generators[i][0]))
            if any(z):
                out.append(vscale(F(1, p), z))
        return out

    current = presentation()
    while True:
        changed = False
        for p in primes:
            for z in candidates(current, p):
                if not member(current, z):
                    lattice = RationalLattice.from_generators((*lattice.rows, z), g.ambient_dim)
                    current = presentation()
                    changed = True
        if not changed:
            return restart_simplify(current)


class TestSaturation:
    @given(group_reps(ambient=3, max_gens=4), st.lists(vectors(3), min_size=1, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_member_loop(self, g, directions):
        u = Subspace.span([vec(v) for v in directions], 3)
        assert purify(g, u).generators == member_loop_purify(g, u).generators

    @given(group_reps(ambient=3, max_gens=4), st.lists(vectors(3), min_size=1, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_gap_prime_route(self, g, directions):
        # the seed may present U ∩ G by other generators than the gap-prime
        # route did, but never a different group
        u = Subspace.span([vec(v) for v in directions], 3)
        assert compare(purify(g, u), member_loop_purify(g, u, gap_route=True)) is Compare.EQUAL

    def test_a_plane_moves_its_presentation_not_its_group(self):
        # L ∩ π(U) is Z(0, 0, 1/2), and its lift into U is (-1/4, 0, 0), which
        # is (0, 0, 1/2) modulo U ∩ W_ALL = Q(1, 0, 2); the gap-prime route
        # saturated the hull seed at the gap prime 2 and kept (0, 0, 1/2)
        g = group_rep(3, [((0, 1, 0), ()), ((0, 2, 1), "ALL"), ((1, 0, 2), "ALL")])
        u = Subspace.span([(0, 0, 1), (1, 0, 0)], 3)
        hull = purify(g, u)
        assert hull.generators == (((F(1, 4), 0, 0), NO_PRIMES), ((1, 0, 2), ALL))
        old = member_loop_purify(g, u, gap_route=True)
        assert old.generators == (((0, 0, F(1, 2)), NO_PRIMES), ((1, 0, 2), ALL))
        assert compare(hull, old) is Compare.EQUAL

    def test_a_key_without_lattice_columns_adds_nothing(self):
        # W_2 is all of [G], so the map at 2 has no lattice columns and every
        # candidate g_i/2 already lies in the 2-divisible hull
        g = group_rep(2, [((1, 0), (2,)), ((0, 1), (2,)), ((F(1, 3), F(1, 3)), ())])
        assert g.local(2).map.columns == ()
        diagonal = vec((F(1, 3), F(1, 3)))
        assert groups._saturation(g, [integer_form(diagonal)], 2) == []
        assert purify(g, line(2, (1, 1))).generators == ((diagonal, prime_set([2])),)

    def test_builds_only_its_result(self, monkeypatch):
        built = []
        post_init = GroupRep.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        inputs = [
            (group_rep(2, [((1, 0), "ALL"), ((0, 1), ())]), line(2, (1, 2))),
            (G3(), line(2, (1, 1))),
            (G2(), Subspace.full(2)),
        ]
        monkeypatch.setattr(GroupRep, "__post_init__", counting)
        for g, u in inputs:
            built.clear()
            hull = purify(g, u)
            assert built == [hull]
