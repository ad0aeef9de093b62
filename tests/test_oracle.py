import itertools
from fractions import Fraction as F
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import SMALL_PRIMES, group_reps, prime_sets, vectors
from torsionfree.groups import compare, group_rep, member, purify, Compare
from torsionfree.linalg import Subspace, solve_in_rows, vec, vscale
from torsionfree.oracle import (
    _greedy_basis,
    _Levels,
    _solvable_mod_prime_power,
    brute_force_member,
    brute_force_purify,
    sufficient_exponent,
)


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def Z2():
    return group_rep(2, [((1, 0), ()), ((0, 1), ())])


class TestBruteForceMember:
    def test_generator_itself(self):
        assert brute_force_member(G3(), (F(1, 2), F(1, 2)), 2)

    def test_exhaustive_negative(self):
        assert not brute_force_member(G3(), (F(1, 2), 0), 6)

    def test_lattice_negative(self):
        assert not brute_force_member(Z2(), (F(1, 2), 0), 4)

    def test_divisible_direction(self):
        g = group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])
        assert brute_force_member(g, (3, F(22, 7)), 1)

    def test_bound_monotone(self):
        g = group_rep(1, [((1,), (2,))])
        x = (F(1, 8),)
        assert not brute_force_member(g, x, 2)
        assert brute_force_member(g, x, 3)


# The primary anti-regression gate: the main p-local decision procedure and
# the enumerative one agree on random small instances.


@st.composite
def bounded_queries(draw):
    num = draw(st.integers(min_value=-6, max_value=6))
    den = draw(
        st.sampled_from(
            [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 25, 27, 45, 48, 80]
        )
    )
    return F(num, den)


@st.composite
def rank_two_in_three(draw):
    """Groups in Q^3 whose generators lie in the plane of two random vectors."""
    a = draw(vectors(3))
    b = draw(vectors(3))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        c, d = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        v = tuple(c * x + d * y for x, y in zip(a, b))
        gens.append((v, draw(prime_sets())))
    return group_rep(3, gens)


class TestAgreement:
    @given(
        group_reps(ambient=2, max_gens=3),
        st.tuples(bounded_queries(), bounded_queries()),
    )
    @settings(max_examples=150, deadline=None)
    def test_member_agreement(self, g, x):
        assert member(g, x) == brute_force_member(g, x, sufficient_exponent(g, x))

    @given(rank_two_in_three(), st.lists(st.integers(-2, 2), min_size=3, max_size=3),
           st.sampled_from([1, 2, 3, 4, 5, 7, 9]), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_member_agreement_in_a_plane_of_three_space(self, g, coeffs, den, off):
        x = [F(0)] * 3
        for c, (v, _s) in zip(coeffs, g.generators):
            x = [a + F(c, den) * b for a, b in zip(x, v)]
        if off:
            # leave the plane: the residual of the coordinate map is nonzero
            x[coeffs[0] % 3] += F(1, den)
        x = tuple(x)
        assert member(g, x) == brute_force_member(g, x, sufficient_exponent(g, x))

    @given(
        group_reps(ambient=2, max_gens=3),
        st.tuples(bounded_queries(), bounded_queries()),
    )
    @settings(max_examples=80, deadline=None)
    def test_oracle_answer_is_stable_past_the_bound(self, g, x):
        bound = sufficient_exponent(g, x)
        assert brute_force_member(g, x, bound) == brute_force_member(g, x, bound + 8)

    def test_bound_covers_the_all_reduction_determinant(self):
        # W_ALL = Q*(1, -1) reduces (1/3, -3) to (0, -8/3), so x = (0, 1/16)
        # needs the coefficient -3/128 of that row: exponent 7 at the prime 2
        g = group_rep(2, [((F(1, 3), F(-1, 3)), "ALL"), ((F(1, 3), -3), (2,))])
        x = (0, F(1, 16))
        assert member(g, x)
        assert not brute_force_member(g, x, 6)
        assert brute_force_member(g, x, sufficient_exponent(g, x))

    @given(group_reps(ambient=3, max_gens=3), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_member_agreement_on_halved_generators(self, g, i):
        if not g.generators:
            return
        v = g.generators[i % len(g.generators)][0]
        for p in SMALL_PRIMES:
            x = vscale(F(1, p), v)
            assert member(g, x) == brute_force_member(
                g, x, sufficient_exponent(g, x)
            )

    @given(group_reps(ambient=2, max_gens=3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_purify_agreement_on_lines(self, g, coeffs):
        # the direction is an integer combination of the generators, ALL ones
        # included, so the line reaches the seed's lifts modulo W_ALL
        direction = [F(0)] * 2
        for c, (v, _s) in zip(coeffs, g.generators):
            direction = [a + c * b for a, b in zip(direction, v)]
        if not any(direction):
            return
        direction = tuple(direction)
        u = Subspace.span([vec(direction)], 2)
        r = purify(g, u)
        oracle_gens = brute_force_purify(g, direction, 4)
        # the oracle result is the level-4 truncation: it generates a
        # subgroup of the pure hull, and its generator reaches every height
        # the pure hull admits at level 4
        assert oracle_gens
        z = oracle_gens[0]
        assert member(r, z)
        for p in SMALL_PRIMES:
            deeper = vscale(F(1, p), z)
            assert member(r, deeper) == brute_force_member(
                g, deeper, sufficient_exponent(g, deeper)
            )


def _solvable_by_enumeration(rows, target, p, k):
    mod = p**k
    for coeffs in itertools.product(range(mod), repeat=len(rows)):
        if all(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % mod == t % mod
            for j, t in enumerate(target)
        ):
            return True
    return False


class TestPrimePowerSolver:
    # the classic trap: (0, 2) = 2 * (2, 1) mod 4, but no pivot has a unit entry
    def test_scaled_pivot_row_reachable(self):
        assert _solvable_mod_prime_power([[2, 1]], [0, 2], 2, 2)

    def test_odd_component_unreachable(self):
        assert not _solvable_mod_prime_power([[2, 1]], [0, 1], 2, 2)

    def test_diagonal_gap(self):
        assert not _solvable_mod_prime_power([[2, 0], [0, 2]], [1, 1], 2, 2)

    @given(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_enumeration(self, pk, data):
        p, k = pk
        mod = p**k
        nrows = data.draw(st.integers(1, 3), label="rows")
        ncols = data.draw(st.integers(1, 3), label="cols")
        entry = st.integers(0, mod - 1)
        rows = [
            data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)
        ]
        target = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
        assert _solvable_mod_prime_power(rows, target, p, k) == (
            _solvable_by_enumeration(rows, target, p, k)
        )


class TestBruteForcePurify:
    def test_plain_lattice_line(self):
        gens = brute_force_purify(Z2(), (2, 2), 4)
        assert gens == ((1, 1),) or gens == (vec((1, 1)),)

    def test_g3_diagonal(self):
        gens = brute_force_purify(G3(), (1, 1), 4)
        assert gens == (vec((F(1, 2), F(1, 2))),)

    def test_g3_axis_caps_at_bound(self):
        # the e1 axis meets G3 in Z[1/3] e1; at level 4 the generator is e1/81
        gens = brute_force_purify(G3(), (1, 0), 4)
        assert gens == (vec((F(1, 81), 0)),)

    def test_line_outside_span(self):
        g = group_rep(2, [((1, 0), ())])
        assert brute_force_purify(g, (0, 1), 4) == ()

    def test_matches_purify_up_to_inversion_caps(self):
        g = group_rep(2, [((1, 0), (2,)), ((0, 1), ())])
        r = purify(g, Subspace.span([vec((1, 0))], 2))
        gens = brute_force_purify(g, (1, 0), 3)
        assert gens == (vec((F(1, 8), 0)),)
        assert compare(
            r, group_rep(2, [((1, 0), (2,))])
        ) is Compare.EQUAL


class TestLevelData:
    @given(
        st.lists(st.tuples(vectors(3), st.sampled_from([(), (2,), (3, 5)])), min_size=1, max_size=5),
        vectors(3),
        st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_rescaled_coordinates_match_solve_in_rows_at_the_level(self, gens, x, bound):
        g = group_rep(3, gens)
        rows = [
            vscale(F(1, prod(p**bound for p in s)), v) for v, s in g.generators
        ]
        rows = [r for r in rows if any(r)]
        basis = []
        for r in rows:
            if not basis or solve_in_rows(tuple(basis), r) is None:
                basis.append(r)
        assert [rows[i] for i in _greedy_basis(rows)] == basis
        levels = _Levels(g)
        assert [rows[i] for i in levels.basis] == basis
        expected = solve_in_rows(tuple(basis), vec(x)) if basis else (None if any(x) else ())
        assert levels.coordinates(vec(x), bound) == expected
        assert levels.row_coordinates(bound) == [solve_in_rows(tuple(basis), r) for r in rows]
