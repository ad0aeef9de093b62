"""Exact rational and integer linear algebra.

Vectors are tuples of Fractions acting as rows; a matrix is a tuple of row
vectors.  Maps compose on the right: ``apply_matrix(x, M)`` is the row-vector
product x*M, so the rows of M are the images of the coordinate vectors.
Everything is exact -- no floats, no tolerances anywhere.

Elimination over Q runs on integers: rational rows are scaled to integer
rows and reduced by one fraction-free Gauss-Jordan kernel, ``_eliminate``
(Bareiss, Math. Comp. 22, 1968).  ``rref``, ``det``, ``Subspace`` and the
lattice coordinates of ``CoordinateMap`` all use it; Hermite and Smith forms
work over Z directly.

Subspaces and lattices are held as integers.  A ``Subspace`` keeps its
primitive integer echelon rows; a ``RationalLattice`` keeps the Hermite basis
of s*L over the least s with s*L integral.  Both forms are unique, so equal
objects compare and hash equal, and callers holding integer rows (y, d) for
y/d build them without a ``Fraction`` (``Subspace.from_integer_rows``,
``RationalLattice.from_integer_forms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def integer_form(x) -> tuple[tuple[int, ...], int]:
    """(y, d) with x == y/d: y an integer vector, d the lcm of the denominators."""
    entries = [e if isinstance(e, (int, Fraction)) else Fraction(e) for e in x]
    d = lcm(*[e.denominator for e in entries])
    return tuple(e.numerator * (d // e.denominator) for e in entries), d


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity_matrix(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def is_zero_vec(x: Vec) -> bool:
    return all(e == 0 for e in x)


def vadd(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vscale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


def apply_matrix(x: Vec, m: Mat) -> Vec:
    """Row-vector times matrix: the image of x under the map with rows m."""
    if len(x) != len(m):
        raise ValueError("dimension mismatch")
    out = zero_vec(len(m[0])) if m else ()
    for coeff, row in zip(x, m):
        if coeff:
            out = vadd(out, vscale(coeff, row))
    return out


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(apply_matrix(row, b) for row in a)


def mat_inverse(a: Mat) -> Mat:
    """Inverse of a square rational matrix (raises on singular input)."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    _r, t, pivots = rref(a)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return t


def det(a: Mat) -> Fraction:
    """Determinant: the sign times the last pivot over the product of row scales."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    forms = [integer_form(r) for r in a]
    work = [y for y, _d in forms]
    pivots, sign = _eliminate(work, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * (work[-1][-1] if n else 1), prod(d for _y, d in forms))


# ---------------------------------------------------------------------------
# Fraction-free elimination, reduced row echelon form and linear solving
# ---------------------------------------------------------------------------


def _eliminate(work: list, ncols: int) -> tuple[tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination in place on integer rows.

    Each step cross-multiplies every other row by the pivot and divides
    exactly by the previous pivot, so all entries stay integers (minors of
    the input).  Afterwards the nonzero rows come first, and pivot row i is
    d times the i-th reduced echelon row, d being the last pivot: d in its
    pivot column, zero in the other pivot columns.  Columns past ncols ride
    along, so eliminating [rows | I] records the transform, scaled by d.
    Returns the pivot columns, whose number is the rank, and the sign of the
    row permutation; a square input of full rank has determinant sign * d.
    """
    pivots: list[int] = []
    sign = prev = 1
    n = len(work)
    for col in range(ncols):
        rank = len(pivots)
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if work[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
            sign = -sign
        pivot_row = work[rank]
        p = pivot_row[col]
        for r in range(n):
            f = work[r][col]
            if r == rank or not f and p == prev:
                continue
            work[r] = [(p * e - f * g) // prev for e, g in zip(work[r], pivot_row)]
        prev = p
        pivots.append(col)
    return tuple(pivots), sign


def _primitive(row, pivot: int) -> tuple[int, ...]:
    """The integer row divided by its content, signed so the pivot entry is positive."""
    g = gcd(*row)
    return tuple(e // g for e in row) if row[pivot] > 0 else tuple(-e // g for e in row)


def rref(rows: Mat) -> tuple[Mat, Mat, tuple[int, ...]]:
    """Reduced row echelon form with transform.

    Returns (R, T, pivots) where R consists of the nonzero echelon rows
    (leading coefficient 1, pivot columns cleared elsewhere), T are the
    corresponding combination rows with R[i] == T[i] * rows, and pivots are
    the pivot column indices of R.  The rows are scaled to integers over one
    common denominator s and eliminated as [s * rows | I].
    """
    if not rows:
        return (), (), ()
    m, ncols = len(rows), len(rows[0])
    flat, s = integer_form([e for r in rows for e in r])
    work = [
        list(flat[i * ncols : (i + 1) * ncols]) + [int(i == j) for j in range(m)]
        for i in range(m)
    ]
    pivots, _sign = _eliminate(work, ncols)
    d = work[0][pivots[0]] if pivots else 1
    top = work[: len(pivots)]
    return (
        tuple(tuple(Fraction(e, d) for e in row[:ncols]) for row in top),
        tuple(tuple(Fraction(e * s, d) for e in row[ncols:]) for row in top),
        pivots,
    )


def echelon_coordinates(rows: Mat, pivots: tuple[int, ...], x: Vec) -> Vec | None:
    """Coordinates of x in echelon rows (distinct pivots), or None if outside.

    Forward substitution along the pivots leaves a residual that is zero
    exactly when x lies in the span of the rows.
    """
    coeffs, residual = [], list(x)
    for row, piv in zip(rows, pivots):
        c = residual[piv] / row[piv]
        coeffs.append(c)
        if c:
            residual = [e - c * g for e, g in zip(residual, row)]
    return None if any(residual) else tuple(coeffs)


def solve_in_rows(rows: Mat, target: Vec) -> Vec | None:
    """Express target as a rational combination of the given rows.

    Returns a coefficient vector c with c * rows == target, or None when the
    target lies outside the row span.  Uses one rref with transform.
    """
    if not rows:
        return () if is_zero_vec(target) else None
    r, t, pivots = rref(rows)
    u = echelon_coordinates(r, pivots, target)
    if u is None:
        return None
    coeffs = zero_vec(len(rows))
    for ui, trow in zip(u, t):
        if ui:
            coeffs = vadd(coeffs, vscale(ui, trow))
    return coeffs


# ---------------------------------------------------------------------------
# Integer normal forms
# ---------------------------------------------------------------------------

IMat = tuple[tuple[int, ...], ...]


def hermite_eliminate(work: list, ncols: int) -> int:
    """Row-style Hermite elimination in place on integer rows; returns the rank.

    The first ncols columns end in Hermite normal form: pivots positive,
    entries above each pivot reduced into [0, pivot), zero rows at the
    bottom.  Every step is a row swap, a negation or the subtraction of an
    integer multiple of one row from another, decided by the first ncols
    columns alone, so columns past ncols ride along: eliminating [rows | I]
    records the unimodular transform.
    """
    m = len(work)
    rank = 0
    for col in range(ncols):
        # gcd-eliminate column entries below the current rank row
        piv = next((r for r in range(rank, m) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(rank + 1, m):
            while work[r][col] != 0:
                if abs(work[r][col]) < abs(work[rank][col]):
                    work[rank], work[r] = work[r], work[rank]
                q = work[r][col] // work[rank][col]
                if q:
                    work[r] = [x - q * y for x, y in zip(work[r], work[rank])]
                else:
                    break
        if work[rank][col] < 0:
            work[rank] = [-x for x in work[rank]]
        for r in range(rank):
            q = work[r][col] // work[rank][col]
            if q:
                work[r] = [x - q * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def hermite_normal_form(rows) -> tuple[IMat, IMat]:
    """Row-style Hermite normal form of an integer matrix.

    Returns (H, U) with U unimodular over Z and U * rows == H, from one
    ``hermite_eliminate`` of [rows | I].  The number of rows is preserved.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    work = [[*map(int, r), *(int(i == j) for j in range(m))] for i, r in enumerate(rows)]
    hermite_eliminate(work, n)
    return tuple(tuple(r[:n]) for r in work), tuple(tuple(r[n:]) for r in work)


def smith_normal_form(rows) -> tuple[tuple[int, ...], IMat, IMat]:
    """Smith normal form with transforms.

    Returns (d, U, V) where d is the tuple of nonzero invariant factors
    (positive, each dividing the next) and U * rows * V is the diagonal
    matrix carrying d.  U and V are unimodular over Z.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1
    d = tuple(a[i][i] for i in range(limit) if i < limit and a[i][i] != 0)
    return d, tuple(map(tuple, u)), tuple(map(tuple, v))


def hermite_basis(rows) -> tuple[Mat, IMat]:
    """Hermite basis of the Z-span of rational rows, and T with basis == T * rows.

    The rows are scaled by the lcm s of their denominators; the nonzero rows
    of the integer Hermite form, divided by s, are the basis, and T holds the
    matching rows of the unimodular transform.
    """
    if not rows:
        return (), ()
    scale = lcm(*[e.denominator for r in rows for e in r])
    h, u = hermite_normal_form([[int(e * scale) for e in r] for r in rows])
    rank = sum(1 for r in h if any(r))
    return tuple(tuple(Fraction(e, scale) for e in r) for r in h[:rank]), u[:rank]


def integer_kernel(rows) -> IMat:
    """Z-basis of the integer left kernel {x in Z^m : x * rows == 0}.

    The returned lattice is saturated (it is the full integer kernel).
    """
    a = [list(map(int, r)) for r in rows]
    if not a:
        return ()
    h, u = hermite_normal_form(a)
    out = [u[i] for i in range(len(h)) if all(e == 0 for e in h[i])]
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# Subspaces of Q^n (canonical RREF basis)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held by its canonical integer echelon basis.

    ``basis`` holds the reduced echelon rows, each scaled to a primitive
    integer vector with a positive pivot entry, and ``pivots`` their pivot
    columns.  The form is unique, so equal subspaces compare and hash equal.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @staticmethod
    def span(vectors, ambient_dim: int) -> "Subspace":
        return Subspace.from_integer_rows([integer_form(v)[0] for v in vectors], ambient_dim)

    @staticmethod
    def from_integer_rows(rows, ambient_dim: int) -> "Subspace":
        """The span of integer rows; a row y spans the line of every y/d."""
        work = list(rows)
        for r in work:
            if len(r) != ambient_dim:
                raise ValueError("vector length %d does not match ambient %d" % (len(r), ambient_dim))
        pivots, _sign = _eliminate(work, ambient_dim)
        return Subspace(ambient_dim, tuple(map(_primitive, work, pivots)), pivots)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span(identity_matrix(ambient_dim), ambient_dim)

    @cached_property
    def rows(self) -> Mat:
        """The reduced echelon rows with leading coefficient 1."""
        return tuple(
            tuple(Fraction(e, row[p]) for e in row) for row, p in zip(self.basis, self.pivots)
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def _residual(self, y) -> tuple[tuple[int, ...] | list[int], int]:
        """(r, b) for an integer vector y: r / b is y minus its part along the
        basis, zero at the pivots, and b > 0 is a product of pivot entries."""
        if len(y) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        residual, b = y, 1
        for row, piv in zip(self.basis, self.pivots):
            c = residual[piv]
            if c:
                e = row[piv]
                residual = [e * a - c * g for a, g in zip(residual, row)]
                b *= e
        return residual, b

    def _check_ambient(self, other: "Subspace") -> None:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def _reduced(self, x) -> bool:
        """Whether x has the ambient length and no entry at a pivot (so x mod W is x)."""
        return len(x) == self.ambient_dim and not any(x[p] for p in self.pivots)

    def contains_vector(self, x: Vec) -> bool:
        if self._reduced(x):
            return not any(x)
        return not any(self._residual(integer_form(x)[0])[0])

    def reduce(self, x: Vec) -> Vec:
        """Canonical coset representative of x modulo this subspace."""
        if self._reduced(x):
            return tuple(x)
        y, d = integer_form(x)
        residual, b = self._residual(y)
        return tuple(Fraction(e, b * d) for e in residual)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(not any(self._residual(r)[0]) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_integer_rows(self.basis + other.basis, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection by one Zassenhaus elimination of [a | a] over [b | 0].

        The echelon rows whose left half vanishes carry the reduced echelon
        basis of the intersection in their right half, so no second
        elimination is needed.
        """
        self._check_ambient(other)
        n = self.ambient_dim
        work = [r + r for r in self.basis] + [r + (0,) * n for r in other.basis]
        pivots, _sign = _eliminate(work, 2 * n)
        k = sum(1 for p in pivots if p < n)
        low = tuple(p - n for p in pivots[k:])
        return Subspace(n, tuple(_primitive(r[n:], p) for r, p in zip(work[k:], low)), low)


def direct_sum_projections(spaces, ambient_dim: int) -> tuple[Subspace, tuple[IMat, ...], int]:
    """The sum S of independent subspaces and the projection onto each along the rest.

    Returns (S, images, d) with d > 0: ``images[i][j]`` is d times the
    projection onto ``spaces[i]`` of S's j-th echelon row ``S.rows[j]``, as an
    integer row.  An x in S is the sum of x[p_j] * S.rows[j] over S's pivots
    p_j, so its projection onto ``spaces[i]`` is the sum of x[p_j] *
    images[i][j], over d.  One elimination of [stacked bases | I] gives it
    all: transform row j writes d * S.rows[j] in the stacked basis rows, and
    its entries on the rows of ``spaces[i]`` make up the projection.  Raises
    ValueError when the subspaces are not independent.
    """
    basis = [row for space in spaces for row in space.basis]
    if any(space.ambient_dim != ambient_dim for space in spaces):
        raise ValueError("ambient dimension mismatch")
    m, n = len(basis), ambient_dim
    work = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(basis)]
    pivots, _sign = _eliminate(work, n)
    if len(pivots) != m:
        raise ValueError("the subspaces are not independent")
    d = work[0][pivots[0]] if m else 1
    if d < 0:
        work, d = [[-e for e in row] for row in work], -d
    images = []
    lo = 0
    for space in spaces:
        hi = lo + space.dim
        images.append(tuple(
            tuple(sum(t[n + r] * basis[r][c] for r in range(lo, hi)) for c in range(n))
            for t in work
        ))
        lo = hi
    total = Subspace(n, tuple(_primitive(row[:n], p) for row, p in zip(work, pivots)), pivots)
    return total, tuple(images), d


# ---------------------------------------------------------------------------
# Finitely generated subgroups of Q^n (fractional lattices)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalLattice:
    """A finitely generated (free) subgroup L of Q^n, held as integers.

    Canonical form: ``denominator`` is the least s > 0 with s * L integral,
    and ``numerators`` is the Hermite basis of the integer lattice s * L, so
    gcd(s, all numerators) = 1.  The form is unique, so equal lattices
    compare and hash equal.  Every lattice is built by ``from_integer_forms``,
    which runs the Hermite elimination over one common denominator and then
    divides out that gcd; ``rows`` is the Fraction view numerators / s.

    Echelon invariant: the rows are in Hermite normal form, so their pivots
    (first nonzero columns) strictly increase, and the rows are independent.
    Coordinates are therefore unique; they are read off the lattice's own
    ``CoordinateMap`` modulo the zero subspace.
    """

    ambient_dim: int
    numerators: IMat
    denominator: int

    @staticmethod
    def from_generators(vectors, ambient_dim: int) -> "RationalLattice":
        """The Z-span of rational vectors."""
        return RationalLattice.from_integer_forms(map(integer_form, vectors), ambient_dim)

    @staticmethod
    def from_integer_forms(forms, ambient_dim: int) -> "RationalLattice":
        """The Z-span of the vectors y/d, for pairs (y, d) of an integer row
        and a positive integer: the Hermite form of the rows over their least
        common denominator, reduced to the canonical form."""
        forms = list(forms)
        for y, _d in forms:
            if len(y) != ambient_dim:
                raise ValueError("vector length mismatch")
        s = lcm(*[d for _y, d in forms])
        work = [[e * (s // d) for e in y] for y, d in forms]
        basis = work[: hermite_eliminate(work, ambient_dim)]
        g = gcd(s, *[e for r in basis for e in r])
        return RationalLattice(ambient_dim, tuple(tuple(e // g for e in r) for r in basis), s // g)

    @cached_property
    def rows(self) -> Mat:
        """The basis rows as Fraction vectors."""
        s = self.denominator
        return tuple(tuple(Fraction(e, s) for e in r) for r in self.numerators)

    @property
    def forms(self) -> list[tuple[tuple[int, ...], int]]:
        """The basis rows as (integer row, denominator) pairs."""
        return [(r, self.denominator) for r in self.numerators]

    @property
    def rank(self) -> int:
        return len(self.numerators)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row, strictly increasing."""
        return tuple(next(j for j, e in enumerate(r) if e) for r in self.numerators)

    @cached_property
    def coordinate_map(self) -> "CoordinateMap":
        """The integer map of coordinates in the basis rows (modulo the zero subspace)."""
        return CoordinateMap.build(Subspace(self.ambient_dim, (), ()), self)

    def coordinates(self, x: Vec) -> Vec | None:
        """Rational coordinates of x in the basis rows, or None if off-span."""
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        y, d = integer_form(x)
        cmap = self.coordinate_map
        if not cmap.in_span(y):
            return None
        return tuple(Fraction(e, d * cmap.scale) for e in cmap.numerators(y))

    def intersect_subspace(self, space: Subspace) -> "RationalLattice":
        """The sublattice of vectors lying in the given subspace."""
        n = self.ambient_dim
        if not self.numerators or space.is_zero():
            return RationalLattice.from_integer_forms((), n)
        # Solve for integer coefficient rows c with c * rows inside the space:
        # the constraints are the numerator rows reduced mod the space, over
        # one common scale.  Scaling the whole matrix leaves its Hermite
        # transform alone, so the primitive matrix gives the same kernel rows.
        residuals = [space._residual(r) for r in self.numerators]
        scale = lcm(*[b for _r, b in residuals])
        constraints = [[e * (scale // b) for e in r] for r, b in residuals]
        content = gcd(*[e for r in constraints for e in r]) or 1
        kernel = integer_kernel([[e // content for e in r] for r in constraints])
        cols = list(zip(*self.numerators))
        return RationalLattice.from_integer_forms(
            (([sum(map(mul, k, col)) for col in cols], self.denominator) for k in kernel), n
        )


# ---------------------------------------------------------------------------
# Integer coordinate maps (fraction-free evaluation of lattice coordinates)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateMap:
    """Lattice coordinates of x modulo a subspace W, as one integer matrix.

    B stacks W's echelon rows, the lattice's numerator rows (its rows times
    its denominator), and unit rows at the columns that are pivots of
    neither; D is the diagonal of the row denominators.  x * B^-1 * D holds
    x's part in W, its lattice coordinates and its residual at the free
    columns.  One ``_eliminate`` of [B | D] gives the last two over the last
    pivot; dividing out their content leaves that rational matrix over its
    least denominator, and the matrix depends on the lattice, not on how
    its rows are scaled.  With x = y/d (``integer_form``), the coordinates
    of (x mod W) are ``numerators(y)`` over d * scale, and x lies in
    W + span(lattice) iff ``in_span(y)``.  ``build`` raises ValueError
    unless B is square and invertible (the lattice reduced mod W).
    """

    scale: int
    columns: tuple[tuple[int, ...], ...]  # one per lattice basis row
    residual: tuple[tuple[int, ...], ...]  # one per free column

    @staticmethod
    def build(space: Subspace, lattice: RationalLattice) -> "CoordinateMap":
        n = space.ambient_dim
        if lattice.ambient_dim != n:
            raise ValueError("dimension mismatch")
        taken = set(space.pivots) | set(lattice.pivots)
        units = [(tuple(int(i == j) for i in range(n)), 1) for j in range(n) if j not in taken]
        rows = [(row, 1) for row in space.basis] + lattice.forms + units
        m = len(rows)
        work = [[*row, *(den * (i == j) for j in range(m))] for i, (row, den) in enumerate(rows)]
        pivots, _sign = _eliminate(work, n)
        if len(pivots) < m:
            raise ValueError("the lattice is not reduced modulo the subspace")
        # every row of B leads with a positive entry, so the last pivot d is positive
        d = work[-1][n - 1] if n else 1
        cols = [tuple(t[j] for t in work) for j in range(n + space.dim, 2 * n)]
        # the scale is the lcm of the reduced denominators of the entries e / d
        g = gcd(d, *(e for col in cols for e in col))
        ints = tuple(tuple(e // g for e in col) for col in cols)
        return CoordinateMap(d // g, ints[: lattice.rank], ints[lattice.rank :])

    def numerators(self, y) -> tuple[int, ...]:
        """Coordinate numerators of x = y/d; the common denominator is d * scale."""
        return tuple(sum(map(mul, y, c)) for c in self.columns)

    def in_span(self, y) -> bool:
        return not any(sum(map(mul, y, c)) for c in self.residual)
