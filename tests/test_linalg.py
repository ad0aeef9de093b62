import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import integer_matrices, small_fractions, vectors
from torsionfree.linalg import (
    CoordinateMap,
    RationalLattice,
    Subspace,
    det,
    hermite_basis,
    hermite_eliminate,
    hermite_normal_form,
    identity_matrix,
    integer_form,
    integer_kernel,
    mat,
    mat_inverse,
    mat_mul,
    rref,
    smith_normal_form,
    solve_in_rows,
    vec,
)


def is_integral(coords):
    """Whether lattice coordinates exist and are integers (x lies in the lattice)."""
    return coords is not None and all(c.denominator == 1 for c in coords)


def imat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def idet(a):
    return det(mat(a))


def rational_matrices(max_rows: int = 4, max_cols: int = 4):
    """Rational matrices of every shape up to the bounds, often rank-deficient."""
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.lists(
            st.lists(small_fractions(2, 3), min_size=cols, max_size=cols),
            min_size=1,
            max_size=max_rows,
        )
    )


def reference_rref(rows):
    """Gauss-Jordan over Fraction on [rows | I]: (R, T, pivots), as rref returns."""
    m = len(rows)
    ncols = len(rows[0])
    work = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(m)] for i, r in enumerate(rows)]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, m) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        work[rank] = [e / work[rank][col] for e in work[rank]]
        for r in range(m):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [e - f * g for e, g in zip(work[r], work[rank])]
        pivots.append(col)
    top = work[: len(pivots)]
    return tuple(tuple(r[:ncols]) for r in top), tuple(tuple(r[ncols:]) for r in top), tuple(pivots)


def leibniz_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod((a[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


@st.composite
def deficient_matrices(draw, max_rows: int = 4, max_cols: int = 4):
    """Rational matrices with zero rows and combinations of other rows mixed in."""
    rows = draw(rational_matrices(max_rows, max_cols))
    cols = len(rows[0])
    extra = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)), max_size=2))
    rows = rows + [[sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)] for coeffs in extra]
    rows = rows + [[Fraction(0)] * cols] * draw(st.integers(0, 1))
    return draw(st.permutations(rows))


class TestEliminationKernel:
    @given(deficient_matrices())
    @settings(max_examples=150)
    def test_rref_matches_fraction_reference(self, entries):
        rows = mat(entries)
        assert rref(rows) == reference_rref(rows)

    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.lists(st.lists(small_fractions(3, 4), min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    @settings(max_examples=150)
    def test_det_matches_leibniz(self, entries):
        assert det(mat(entries)) == leibniz_det(entries)

    def test_det_rejects_non_square(self):
        with pytest.raises(ValueError):
            det(mat([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(ValueError):
            det(mat([[1], [2]]))


class TestRref:
    def test_known_reduction(self):
        r, t, pivots = rref(mat([[2, 4], [1, 3]]))
        assert r == mat([[1, 0], [0, 1]])
        assert pivots == (0, 1)

    def test_transform_reassembles(self):
        rows = mat([[2, 4, 6], [1, 2, 3], [0, 1, 1]])
        r, t, _ = rref(rows)
        assert mat_mul(t, rows) == r

    @given(integer_matrices(3, 3))
    def test_rref_idempotent(self, entries):
        rows = mat(entries)
        r, _, p = rref(rows)
        r2, _, p2 = rref(r)
        assert r == r2 and p == p2


class TestSolve:
    def test_dependent_rows(self):
        rows = mat([[1, 1], [2, 2], [0, 1]])
        c = solve_in_rows(rows, vec([3, 4]))
        assert c is not None
        combo = tuple(
            sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(2)
        )
        assert combo == vec([3, 4])

    def test_unsolvable(self):
        assert solve_in_rows(mat([[1, 0]]), vec([0, 1])) is None

    @given(integer_matrices(2, 3), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    def test_solution_verifies(self, entries, coeffs):
        rows = mat(entries)
        target = vec(
            [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(3)]
        )
        c = solve_in_rows(rows, target)
        assert c is not None
        assert (
            vec([sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(3)])
            == target
        )


class TestHermite:
    def test_known_form(self):
        h, u = hermite_normal_form([[2, 0], [0, 2], [1, 1]])
        nonzero = [r for r in h if any(r)]
        assert nonzero == [(1, 1), (0, 2)]

    @given(integer_matrices(3, 3))
    def test_reassembly_and_unimodularity(self, entries):
        h, u = hermite_normal_form(entries)
        assert imat_mul(u, tuple(tuple(r) for r in entries)) == tuple(
            tuple(r) for r in h
        )
        assert abs(idet(u)) == 1

    @given(st.integers(0, 6), st.integers(1, 6), st.data())
    def test_elimination_without_the_transform(self, m, n, data):
        entries = data.draw(integer_matrices(m, n, bound=30))
        h, u = hermite_normal_form(entries)
        work = [list(r) for r in entries]
        rank = hermite_eliminate(work, n)
        assert tuple(map(tuple, work)) == h
        assert rank == sum(1 for r in h if any(r))
        if m:
            assert imat_mul(u, tuple(map(tuple, entries))) == h

    @given(integer_matrices(4, 3))
    def test_echelon_shape(self, entries):
        h, _ = hermite_normal_form(entries)
        nonzero = [r for r in h if any(r)]
        last = -1
        for r in nonzero:
            lead = next(j for j, e in enumerate(r) if e)
            assert lead > last
            assert r[lead] > 0
            last = lead
        # entries above a pivot are reduced
        for i, r in enumerate(nonzero):
            lead = next(j for j, e in enumerate(r) if e)
            for k in range(i):
                assert 0 <= nonzero[k][lead] < r[lead]


class TestSmith:
    def test_known_form(self):
        d, _, _ = smith_normal_form([[2, 0], [0, 3]])
        assert d == (1, 6)

    @given(integer_matrices(3, 3))
    @settings(max_examples=60)
    def test_diagonalization(self, entries):
        d, u, v = smith_normal_form(entries)
        prod = imat_mul(imat_mul(u, tuple(tuple(r) for r in entries)), v)
        for i, row in enumerate(prod):
            for j, e in enumerate(row):
                if i == j and i < len(d):
                    assert e == d[i]
                else:
                    assert e == 0
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        assert abs(idet(u)) == 1 and abs(idet(v)) == 1


class TestIntegerKernel:
    def test_saturated(self):
        # kernel vectors of [[2,4]] over Z: the relation is primitive
        k = integer_kernel([[2, 4], [1, 2]])
        assert len(k) == 1
        assert abs(k[0][0]) == 1 or abs(k[0][1]) == 1

    @given(integer_matrices(3, 2))
    def test_annihilates(self, entries):
        for k in integer_kernel(entries):
            assert all(
                sum(ki * row[j] for ki, row in zip(k, entries)) == 0
                for j in range(2)
            )


class TestSubspace:
    @given(deficient_matrices())
    @settings(max_examples=100)
    def test_span_matches_rref(self, entries):
        rows = mat(entries)
        r, _t, pivots = rref(rows)
        space = Subspace.span(rows, len(rows[0]))
        assert space.rows == r and space.pivots == pivots
        for row, p in zip(space.basis, pivots):
            assert all(isinstance(e, int) for e in row)
            assert row[p] > 0 and math.gcd(*row) == 1

    def test_dimension_formula(self):
        a = Subspace.span([vec([1, 0, 0]), vec([0, 1, 0])], 3)
        b = Subspace.span([vec([0, 1, 0]), vec([0, 0, 1])], 3)
        assert a.sum(b).dim == 3
        assert a.intersect(b).dim == 1
        assert a.intersect(b).contains_vector(vec([0, 1, 0]))

    @given(
        st.lists(vectors(3), min_size=1, max_size=2),
        st.lists(vectors(3), min_size=1, max_size=2),
    )
    @settings(max_examples=60)
    def test_dimension_formula_random(self, va, vb):
        a = Subspace.span([vec(v) for v in va], 3)
        b = Subspace.span([vec(v) for v in vb], 3)
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim

    @given(
        st.lists(vectors(3), min_size=1, max_size=3),
        st.lists(vectors(3), min_size=1, max_size=3),
    )
    @settings(max_examples=60)
    def test_intersection_is_canonical_and_common(self, va, vb):
        a = Subspace.span([vec(v) for v in va], 3)
        b = Subspace.span([vec(v) for v in vb], 3)
        inter = a.intersect(b)
        assert inter == Subspace.span(inter.rows, 3)
        assert a.contains_subspace(inter) and b.contains_subspace(inter)

    def test_reduce_is_canonical_coset_map(self):
        s = Subspace.span([vec([1, 2])], 2)
        x = vec([3, 1])
        r = s.reduce(x)
        # residue differs from x by a subspace element, and is fixed by reduce
        assert s.contains_vector(tuple(a - b for a, b in zip(x, r)))
        assert s.reduce(r) == r

    @given(
        st.lists(vectors(3), min_size=1, max_size=3),
        st.permutations(range(3)),
        st.lists(small_fractions().filter(bool), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_equality_ignores_order_and_scale(self, vs, order, scales):
        a = Subspace.span([vec(v) for v in vs], 3)
        moved = [vs[i] for i in order if i < len(vs)]
        b = Subspace.span([tuple(c * e for e in v) for c, v in zip(scales, moved)], 3)
        assert a == b and hash(a) == hash(b)

    def test_mismatched_ambient_raises(self):
        a = Subspace.span([vec([1, 0])], 2)
        b = Subspace.span([vec([1, 0, 0]), vec([0, 1, 0])], 3)
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                left.intersect(right)
            with pytest.raises(ValueError):
                left.sum(right)

    def test_contains_subspace(self):
        big = Subspace.full(2)
        small = Subspace.span([vec([1, 1])], 2)
        assert big.contains_subspace(small)
        assert not small.contains_subspace(big)


class TestRationalLattice:
    def test_canonical_rows_independent_of_presentation(self):
        l1 = RationalLattice.from_generators([vec([1, 0]), vec([0, 1])], 2)
        l2 = RationalLattice.from_generators(
            [vec([1, 1]), vec([0, 1]), vec([1, 0])], 2
        )
        assert l1.rows == l2.rows

    def test_fractional_lattice(self):
        lat = RationalLattice.from_generators([vec([Fraction(1, 2), 0])], 2)
        assert is_integral(lat.coordinates(vec([Fraction(3, 2), 0])))
        assert not is_integral(lat.coordinates(vec([Fraction(1, 4), 0])))
        assert lat.coordinates(vec([1, 0])) == (2,)

    def test_intersect_subspace(self):
        lat = RationalLattice.from_generators([vec([1, 0]), vec([0, 1])], 2)
        line = Subspace.span([vec([2, 3])], 2)
        inner = lat.intersect_subspace(line)
        assert inner.rank == 1
        # the intersection with the line through (2,3) is generated primitively
        assert inner.rows[0] in (vec([2, 3]), vec([-2, -3]))

    @given(
        st.lists(vectors(3), min_size=1, max_size=4),
        st.lists(small_fractions(), min_size=4, max_size=4),
        vectors(3),
    )
    @settings(max_examples=100)
    def test_coordinates_match_solve_in_rows(self, gens, coeffs, outside):
        lat = RationalLattice.from_generators([vec(v) for v in gens], 3)
        inside = vec(
            [sum(c * v[j] for c, v in zip(coeffs, gens)) for j in range(3)]
        )
        for x in (inside, vec(outside)):
            assert lat.coordinates(x) == solve_in_rows(lat.rows, x)
        assert lat.coordinates(inside) is not None

    @given(st.lists(vectors(3, max_num=2, max_den=4), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_hermite_basis_transform(self, vs):
        # zero rows are kept in the input, so T indexes every given row
        rows = [vec(v) for v in vs] + [vec([0, 0, 0])]
        basis, t = hermite_basis(rows)
        assert basis == RationalLattice.from_generators(rows, 3).rows
        assert mat_mul(mat(t), tuple(rows)) == basis

    @given(
        st.lists(vectors(3, max_num=2, max_den=4), min_size=1, max_size=4),
        st.lists(vectors(3, max_num=2, max_den=4), min_size=1, max_size=2),
    )
    @settings(max_examples=80)
    def test_intersect_subspace_matches_fraction_constraints(self, gens, span):
        lat = RationalLattice.from_generators([vec(v) for v in gens], 3)
        space = Subspace.span([vec(v) for v in span], 3)
        assert lat.intersect_subspace(space) == fraction_intersect(lat, space)

    def test_coordinates_reject_wrong_length(self):
        lat = RationalLattice.from_generators([vec([1, 2])], 2)
        with pytest.raises(ValueError):
            lat.coordinates(vec([1, 2, 0]))
        with pytest.raises(ValueError):
            RationalLattice.from_generators([], 2).coordinates(vec([0]))

    @given(st.lists(vectors(3), min_size=1, max_size=4), st.data())
    @settings(max_examples=150)
    def test_canonical_under_changes_of_generators(self, gens, data):
        gens = [vec(v) for v in gens]
        k = len(gens)
        # shuffle, negate, mix by elementary row operations, add redundant sums
        other = list(data.draw(st.permutations(gens)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
        other = [tuple(c * e for e in v) for c, v in zip(signs, other)]
        steps = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(-3, 3))
        for i, j, c in data.draw(st.lists(steps, max_size=6)):
            if i != j:
                other[i] = tuple(a + c * b for a, b in zip(other[i], other[j]))
        for coeffs in data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), max_size=2)):
            other.append(tuple(sum(c * v[j] for c, v in zip(coeffs, gens)) for j in range(3)))
        lattice = RationalLattice.from_generators(gens, 3)
        mixed = RationalLattice.from_generators(other, 3)
        assert mixed == lattice and hash(mixed) == hash(lattice)
        # integer forms over any common scale give the same lattice
        m = data.draw(st.integers(1, 12))
        scaled = [(tuple(e * m for e in y), d * m) for y, d in map(integer_form, other)]
        assert RationalLattice.from_integer_forms(scaled, 3) == lattice
        assert math.gcd(lattice.denominator, *(e for r in lattice.numerators for e in r)) == 1
        assert lattice.rows == fraction_hermite_rows(gens, 3)

    def test_zero_lattice(self):
        zero = RationalLattice.from_generators([vec([0, 0])], 2)
        assert zero == RationalLattice.from_integer_forms((), 2)
        assert (zero.numerators, zero.denominator, zero.rows) == ((), 1, ())

    @given(st.lists(vectors(2, max_num=2, max_den=4), min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_generators_are_members(self, vs):
        lat = RationalLattice.from_generators([vec(v) for v in vs], 2)
        for v in vs:
            assert is_integral(lat.coordinates(vec(v)))


class TestMatrixBasics:
    def test_inverse(self):
        m = mat([[1, 2], [3, 5]])
        assert mat_mul(m, mat_inverse(m)) == identity_matrix(2)

    @given(integer_matrices(3, 3))
    def test_inverse_of_random_matrices(self, entries):
        m = mat(entries)
        if det(m) == 0:
            with pytest.raises(ValueError):
                mat_inverse(m)
        else:
            assert mat_mul(m, mat_inverse(m)) == identity_matrix(3)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            mat_inverse(mat([[1, 2], [2, 4]]))

    def test_det(self):
        assert det(mat([[2, 1], [1, 1]])) == 1
        assert det(mat([[1, 2], [2, 4]])) == 0


class TestCoordinateMap:
    @given(
        st.lists(vectors(3), max_size=2),
        st.lists(vectors(3), max_size=3),
        vectors(3),
        st.lists(small_fractions(), min_size=5, max_size=5),
    )
    @settings(max_examples=100)
    def test_matches_reduce_then_coordinates(self, ws, gens, outside, coeffs):
        space = Subspace.span([vec(v) for v in ws], 3)
        lattice = RationalLattice.from_generators(
            [space.reduce(vec(v)) for v in gens], 3
        )
        cmap = CoordinateMap.build(space, lattice)
        inside = vec(
            [sum(c * v[j] for c, v in zip(coeffs, ws + gens)) for j in range(3)]
        )
        for x in (inside, vec(outside)):
            y, d = integer_form(x)
            assert vec(Fraction(e, d) for e in y) == x
            coords = lattice.coordinates(space.reduce(x))
            assert cmap.in_span(y) == (coords is not None)
            if coords is not None:
                u = d * cmap.scale
                assert tuple(Fraction(t, u) for t in cmap.numerators(y)) == coords
        assert cmap.in_span(integer_form(inside)[0])

    @given(
        st.lists(vectors(3), max_size=3),
        st.lists(vectors(3), max_size=3),
    )
    @example([], [(1, 2, 0), (0, Fraction(1, 3), 5)])  # W = 0
    @example([(1, 1, 0)], [])  # a rank-0 lattice
    @example([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [])  # W = Q^3
    @settings(max_examples=150)
    def test_matches_fraction_build(self, ws, gens):
        space = Subspace.span([vec(v) for v in ws], 3)
        lattice = RationalLattice.from_generators(
            [space.reduce(vec(v)) for v in gens], 3
        )
        assert CoordinateMap.build(space, lattice) == fraction_coordinate_map(space, lattice)

    def test_rejects_a_lattice_not_reduced_modulo_the_subspace(self):
        # (1,1) is in span(e1) + Z(1,1); a map that ignored the overlap would say not
        space = Subspace.span([vec([1, 0])], 2)
        lattice = RationalLattice.from_generators([vec([1, 1])], 2)
        with pytest.raises(ValueError):
            CoordinateMap.build(space, lattice)

    def test_integer_form_of_mixed_entries(self):
        assert integer_form((Fraction(1, 6), 2, "3/4")) == ((2, 24, 9), 12)
        assert integer_form((0, 0)) == ((0, 0), 1)


def fraction_hermite_rows(vectors, n):
    """Reference: the Hermite basis of s * L over the lcm s of the generators'
    denominators, each entry divided back by s, as Fraction rows."""
    gens = [vec(v) for v in vectors]
    s = math.lcm(*[e.denominator for g in gens for e in g])
    work = [[int(e * s) for e in g] for g in gens]
    rank = hermite_eliminate(work, n)
    return tuple(tuple(Fraction(e, s) for e in r) for r in work[:rank])


def fraction_coordinate_map(space, lattice):
    """Reference: reduce each unit vector modulo W in Fractions, then substitute
    along the lattice's HNF pivots; the columns are the coordinates and the
    nonzero residual columns, over the lcm of every denominator."""
    n = space.ambient_dim
    images = []
    for i in range(n):
        residual = list(space.reduce(vec(int(i == j) for j in range(n))))
        coeffs = []
        for row, piv in zip(lattice.rows, lattice.pivots):
            c = residual[piv] / row[piv]
            coeffs.append(c)
            residual = [e - c * g for e, g in zip(residual, row)]
        images.append(coeffs + residual)
    scale = math.lcm(*[e.denominator for row in images for e in row])
    cols = list(zip(*[[e.numerator * (scale // e.denominator) for e in row] for row in images]))
    r = lattice.rank
    return CoordinateMap(scale, tuple(cols[:r]), tuple(c for c in cols[r:] if any(c)))


def fraction_intersect(lat, space):
    """Reference: the kernel of the Fraction residuals, scaled to integers."""
    if not lat.rows or space.is_zero():
        return RationalLattice.from_generators([], lat.ambient_dim)
    constraints = [space.reduce(r) for r in lat.rows]
    scale = math.lcm(*[e.denominator for r in constraints for e in r])
    kernel = integer_kernel([[int(e * scale) for e in r] for r in constraints])
    gens = [[sum(k * r[j] for k, r in zip(row, lat.rows)) for j in range(lat.ambient_dim)] for row in kernel]
    return RationalLattice.from_generators(gens, lat.ambient_dim)
