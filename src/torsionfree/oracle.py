"""Brute-force reference implementations for cross-checking the main paths.

Membership is decided here by explicit coefficient enumeration at a fixed
denominator level instead of the p-local route: at exponent bound B a finite
prime set S contributes coefficient denominators dividing prod_{p in S} p^B,
so the group is replaced by the finitely generated approximation
sum_i Z * (v_i / D_i), plus the full rational span of the ALL generators.
The approximations increase with B and exhaust the group, so a positive
answer is always correct and a negative answer is correct whenever B bounds
the heights a representation can need.

The integer-span decision goes through coordinates relative to an
independent subset of the scaled generators and is then settled one prime
at a time: the coordinate rows are triangulated over Z/p^k with
minimal-valuation pivoting, and the candidate reduces greedily against the
pivots.  A power of p past the coordinate denominators bounds the index of
the coordinate lattice, so solvability at that finite level is membership.

What depends on the group alone (the reduced rows, their independent
subset and coordinates, which serve every level after rescaling, and the
x-free terms of sufficient_exponent) is derived once and cached on the group
object, so repeated queries on one group each cost one substitution, a
rescaling and the modular test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .groups import GroupRep
from .linalg import (
    Subspace,
    Vec,
    det,
    echelon_coordinates,
    is_zero_vec,
    rref,
    vec,
    vscale,
)
from .numutil import divisors, factorize, primes_dividing, valuation


def sufficient_exponent(g: GroupRep, x, extra: int = 2) -> int:
    """A denominator-exponent bound at which brute_force_member is complete.

    Let R be the generators not inverted at every prime, reduced modulo
    W_ALL, and x' the reduction of x; read both on the pivot columns of
    span(R), of which there are r.  At level B the oracle decides whether x'
    lies in M_B = sum_i Z * R_i / D_i, and x' in M_B holds iff it holds
    p-locally at every prime.  An untagged p is a unit in every D_i, so
    there M_B and G agree.  At a tagged p, with A the rows inverted at p and
    C the rest, M_B is p^-B * Z_(p) * A + Z_(p) * C there, and x in G means
    x' = w + l with w in span(A) and l in Z_(p) * C.  So x' lies in M_B at p
    once p^B * w lies in Z_(p) * A' for a basis A' of span(A) taken from A.
    Extend A' by rows of C to a basis; by Cramer's rule, coordinates in it
    are ratios of maximal minors of R.  Let mu be the largest |v_p| of a
    nonzero maximal minor.  Every row of R then has coordinates of valuation
    >= -2*mu, and so does l.  The coordinates of x' have valuation
    >= -(need + (r - 1) * content + mu), where need is -min v_p over x' and
    content is -min v_p over the entries of R, at least 0.  So
    B = max(need + (r - 1) * content + mu, 2 * mu) suffices at p.

    The bound never falls below the earlier entry-valuation bound
    need(x) + 2 * rank * content(generators), so printed bounds do not
    drop; a larger bound is never wrong, only slower.  The minors cost
    C(k, r) determinants of size r for k rows.
    """
    x = vec(x)
    bound = max(1, _entry_bound(g, x))
    reduced = g.divisible_directions().reduce(x)
    target = [e for e in (reduced[j] for j in g.local().lattice.pivots) if e]
    for p, offset, floor in _cached(g, "_oracle_prime_terms", _prime_terms):
        need = max((-valuation(e, p) for e in target), default=0)
        bound = max(bound, need + offset, floor)
    return bound + extra


def _prime_terms(g: GroupRep) -> list[tuple[int, int, int]]:
    """(p, (r - 1) * content + mu, 2 * mu) per tagged prime: the x-free terms."""
    w = g.divisible_directions()
    rows = [w.reduce(v) for v, s in g.generators if not s.is_all]
    cols = g.local().lattice.pivots  # the HNF of R: its pivots are span(R)'s
    r = len(cols)
    cut = [tuple(row[j] for j in cols) for row in rows]
    minors = [m for m in map(det, combinations(cut, r)) if m]
    entries = [e for row in cut for e in row if e]
    terms = []
    for p in g.tagged_primes:
        mu = max(abs(valuation(m, p)) for m in minors)
        content = max([0] + [-valuation(e, p) for e in entries])
        terms.append((p, (r - 1) * content + mu, 2 * mu))
    return terms


def _entry_bound(g: GroupRep, x: Vec) -> int:
    """need(x) + 2 * rank * content over the generators' entries, per prime."""
    primes = set(g.active_primes)
    for e in x:
        if e:
            primes.update(primes_dividing(e.denominator))
    bound = 1
    for p in sorted(primes):
        need = max((-valuation(e, p) for e in x if e), default=0)
        content = 0
        for v, _s in g.generators:
            for e in v:
                if e:
                    content = max(content, abs(valuation(e, p)))
        bound = max(bound, need + 2 * max(1, g.rank) * content)
    return bound


def _pval(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def _solvable_mod_prime_power(
    rows: list[list[int]], target: list[int], p: int, k: int
) -> bool:
    """Decide whether target is an integer combination of rows modulo p^k.

    Triangulation over Z/p^k with minimal-valuation pivots.  When a pivot
    has valuation v > 0, the scaled row p^(k-v) * pivot is kept as an extra
    generator, so the row set stays closed under the scalars that kill a
    pivot and greedy reduction of the target is a complete decision.
    """
    mod = p**k
    active = [[x % mod for x in row] for row in rows]
    active = [row for row in active if any(row)]
    pivots = []
    for col in range(len(target)):
        best_v, best_i = k, None
        for i, row in enumerate(active):
            v = _pval(row[col], p, k)
            if v < best_v:
                best_v, best_i = v, i
        if best_i is None:
            continue
        piv = active.pop(best_i)
        inv = pow(piv[col] // p**best_v, -1, mod)
        piv = [x * inv % mod for x in piv]
        remaining = []
        for row in active:
            f = row[col] // p**best_v
            new = [(x - f * y) % mod for x, y in zip(row, piv)]
            if any(new):
                remaining.append(new)
        active = remaining
        if best_v:
            aux = [x * p ** (k - best_v) % mod for x in piv]
            if any(aux):
                active.append(aux)
        pivots.append((col, best_v, piv))
    b = [x % mod for x in target]
    for col, v, piv in pivots:
        if _pval(b[col], p, k) < v:
            return False
        f = b[col] // p**v
        b = [(x - f * y) % mod for x, y in zip(b, piv)]
    return not any(b)


def _greedy_basis(rows: list[Vec]) -> list[int]:
    """Indices of the nonzero rows outside the span of the rows kept before.

    One running elimination: each kept row leaves an echelon row with a 1 at
    its pivot, and a row lies in the span of the kept ones iff reducing it
    against those echelon rows in order leaves zero.
    """
    basis: list[int] = []
    echelon: list[tuple[list[Fraction], int]] = []
    for i, r in enumerate(rows):
        residue = list(r)
        for row, piv in echelon:
            c = residue[piv]
            if c:
                residue = [a - c * b for a, b in zip(residue, row)]
        piv = next((j for j, a in enumerate(residue) if a), None)
        if piv is not None:
            inv = 1 / residue[piv]
            echelon.append(([a * inv for a in residue], piv))
            basis.append(i)
    return basis


class _Levels:
    """Every level approximation of one group, from one elimination.

    At level B the i-th finite-set row is r_i / D_i: r_i the generator
    reduced modulo wspace (the span of the ALL generators; zero rows are
    dropped) and D_i the product of p^B over its prime set.  Scaling rows by
    nonzero numbers keeps the greedy independent subset, so one basis, by
    row index, serves every level, and level-B coordinates are the unscaled
    ones rescaled: a vector with coordinates u has u_j * D_(b_j), and row i
    has c_ij * D_(b_j) / D_i.
    """

    def __init__(self, g: GroupRep):
        self.wspace = Subspace.span(
            [v for v, s in g.generators if s.is_all], g.ambient_dim
        )
        rows: list[Vec] = []
        self.prime_sets = []
        for v, s in g.generators:
            if not s.is_all:
                r = self.wspace.reduce(v)
                if not is_zero_vec(r):
                    rows.append(r)
                    self.prime_sets.append(s)
        self.basis = _greedy_basis(rows)
        self._echelon = rref(tuple(rows[i] for i in self.basis)) if self.basis else None
        self._unscaled_rows = [self._unscaled(r) for r in rows]

    def _unscaled(self, x: Vec) -> Vec | None:
        """Coordinates of x in the unscaled basis rows, or None off their span."""
        if self._echelon is None:
            return () if is_zero_vec(x) else None
        reduced, transform, pivots = self._echelon
        u = echelon_coordinates(reduced, pivots, x)
        if u is None:
            return None
        return tuple(
            sum((ui * t[j] for ui, t in zip(u, transform) if ui), Fraction(0))
            for j in range(len(self.basis))
        )

    def _scales(self, exponent_bound: int) -> list[int]:
        return [prod(p**exponent_bound for p in s) for s in self.prime_sets]

    def coordinates(self, x: Vec, exponent_bound: int) -> Vec | None:
        """Coordinates of x (reduced modulo wspace) in the level's basis."""
        u = self._unscaled(x)
        if u is None:
            return None
        d = self._scales(exponent_bound)
        return tuple(uj * d[b] for uj, b in zip(u, self.basis))

    def row_coordinates(self, exponent_bound: int) -> list[Vec]:
        """Coordinates of the level's rows in the level's basis."""
        d = self._scales(exponent_bound)
        return [
            tuple(c * Fraction(d[b], di) for c, b in zip(row, self.basis))
            for row, di in zip(self._unscaled_rows, d)
        ]

    def contains(self, target: Vec, exponent_bound: int) -> bool:
        """Whether target (reduced modulo wspace) lies in the level's Z-span."""
        if is_zero_vec(target):
            return True
        if not self.basis:
            return False
        c = self.coordinates(target, exponent_bound)
        if c is None:
            return False
        coord_rows = self.row_coordinates(exponent_bound)
        den = lcm(*(e.denominator for row in coord_rows for e in row), *(e.denominator for e in c))
        if den == 1:
            # every coordinate integral, and the basis rows themselves supply Z^rank
            return True
        scaled = [[_times(e, den) for e in row] for row in coord_rows]
        y = [_times(e, den) for e in c]
        rank = len(self.basis)
        for p, mult in factorize(den).items():
            if not _solvable_mod_prime_power(scaled, y, p, rank * mult + 1):
                return False
        return True


def _times(e: Fraction, den: int) -> int:
    """e * den for a multiple den of e's denominator."""
    return e.numerator * (den // e.denominator)


def _cached(g: GroupRep, name: str, build):
    """build(g), made on first use and cached on g like g's own derived data."""
    value = getattr(g, name, None)
    if value is None:
        value = build(g)
        object.__setattr__(g, name, value)
    return value


def brute_force_member(g: GroupRep, x, exponent_bound: int = 4) -> bool:
    """Membership of x in the level-bound approximation of G by enumeration."""
    x = vec(x)
    if len(x) != g.ambient_dim:
        raise ValueError("vector length mismatch")
    if is_zero_vec(x):
        return True
    levels = _cached(g, "_oracle_levels", _Levels)
    return levels.contains(levels.wspace.reduce(x), exponent_bound)


def _primitive_direction(u) -> Vec:
    if isinstance(u, Subspace):
        if u.dim != 1:
            raise ValueError("brute-force purification needs a one-dimensional space")
        d = u.rows[0]
    else:
        d = vec(u)
    if is_zero_vec(d):
        raise ValueError("zero direction")
    den = lcm(*(e.denominator for e in d))
    ints = [int(e * den) for e in d]
    g = gcd(*ints)
    return tuple(Fraction(e, g) for e in ints)


def brute_force_purify(g: GroupRep, u, exponent_bound: int = 4) -> tuple[Vec, ...]:
    """Generators of {x in Q*u : x in G}, exhaustively at the given level.

    The level approximation is finitely generated, so the sought module is
    cyclic: first the least positive integer multiple of the primitive
    direction that lies at the level, then greedy division by every prime
    that could divide the generator's denominator.
    """
    d0 = _primitive_direction(u)
    levels = _cached(g, "_oracle_levels", _Levels)
    reduced = levels.wspace.reduce(d0)

    if is_zero_vec(reduced):
        # the line sits inside the fully divisible directions
        if not brute_force_member(g, d0, exponent_bound):
            raise RuntimeError("divisible direction escaped the group (oracle)")
        return (d0,)

    c = levels.coordinates(reduced, exponent_bound)
    if c is None:
        return ()
    rows = levels.row_coordinates(exponent_bound)
    denominators = lcm(*(e.denominator for row in rows for e in row), *(e.denominator for e in c))

    m0 = None
    for m in divisors(denominators):
        if brute_force_member(g, vscale(m, d0), exponent_bound):
            m0 = m
            break
    if m0 is None:
        return ()

    gen = vscale(m0, d0)
    numerator_gcd = gcd(*(e.numerator for e in c))
    probe = set(g.active_primes) | set(primes_dividing(denominators))
    if m0 > 1:
        probe.update(primes_dividing(m0))
    if numerator_gcd > 1:
        probe.update(primes_dividing(numerator_gcd))
    probe_primes = sorted(probe)
    changing = True
    while changing:
        changing = False
        for p in probe_primes:
            candidate = vscale(Fraction(1, p), gen)
            if brute_force_member(g, candidate, exponent_bound):
                gen = candidate
                changing = True
    return (gen,)
