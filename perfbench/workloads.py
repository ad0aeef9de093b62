"""The four workloads: inputs made from a seed, operations, reference checks.

A workload builds the inputs of one pass from ``(seed, pass index)``: fresh
``GroupRep`` objects, so every pass starts with cold per-group caches.  Each
operation is one timed call into the package (``Op.call``) and a reference
check (``Op.check``) that runs outside the timed region and never reuses the
call under test: the brute-force oracle, golden bytes, corpus certificates
or a round trip.  ``check`` returns True for a definite answer and False for
a scope-limited one, and raises ``Mismatch`` when the answer is wrong.

Package functions are always reached through their module (``tf.groups.member``)
so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

SMALL_PRIMES = (2, 3, 5, 7)
QUOTIENT_PRIMES = (2, 3, 5, 7, 11)


class Mismatch(Exception):
    """The answer disagrees with its reference."""


class Op:
    __slots__ = ("kind", "call", "check", "scope_error")

    def __init__(self, kind, call, check, scope_error=None):
        self.kind = kind
        self.call = call
        self.check = check
        # (exception type, message): the documented scope-limited channel
        self.scope_error = scope_error

    def is_scope_limited(self, exc: BaseException) -> bool:
        if self.scope_error is None:
            return False
        exc_type, message = self.scope_error
        return isinstance(exc, exc_type) and str(exc) == message


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# -- references built on the brute-force oracle and plain linear algebra ------


class Reference:
    """Answers computed without the call under test."""

    def __init__(self, tf):
        self.tf = tf

    def member(self, g, x) -> bool:
        o = self.tf.oracle
        return o.brute_force_member(g, x, o.sufficient_exponent(g, x))

    def divisible_span(self, g, p):
        """W_p: the span of the generators inverting p ("ALL" for every prime)."""
        if p == "ALL":
            rows = [v for v, s in g.generators if s.is_all]
        else:
            rows = [v for v, s in g.generators if p in s]
        return self.tf.linalg.Subspace.span(rows, g.ambient_dim)

    def span(self, g):
        return self.tf.linalg.Subspace.span([v for v, _s in g.generators], g.ambient_dim)

    def piece_in(self, g, v, s) -> bool:
        """Whether Z[S^-1]*v lies in g: v in g and v infinitely divisible at S."""
        if not self.member(g, v):
            return False
        if s.is_all:
            return self.divisible_span(g, "ALL").contains_vector(v)
        return all(self.divisible_span(g, p).contains_vector(v) for p in s.primes)

    def leq(self, h, g) -> bool:
        return all(self.piece_in(g, v, s) for v, s in h.generators)

    def scaled_into(self, g, n, total) -> bool:
        """Whether n*g lies in total (so total has index dividing a power of n)."""
        return all(self.piece_in(total, _scale(n, v), s) for v, s in g.generators)

    def check_type(self, g, a, t) -> None:
        """t must describe {r : r*a in g} as (1/m) Z[S^-1]."""
        if t.inverted.is_all:
            _expect(t.multiplier == 1, "type of Q has multiplier 1")
            _expect(self.divisible_span(g, "ALL").contains_vector(a), "Q-type off W_ALL")
            _expect(self.member(g, a), "element outside the group")
            return
        m = t.multiplier
        _expect(self.member(g, _scale(Fraction(1, m), a)), "a/m outside the group")
        probe = set(g.active_primes) | set(QUOTIENT_PRIMES)
        probe |= {p for p in self.tf.numutil.primes_dividing(m)}
        for p in sorted(probe):
            if p in t.inverted.primes:
                _expect(self.member(g, _scale(Fraction(1, m * p * p), a)), f"not {p}-divisible")
            else:
                _expect(not self.member(g, _scale(Fraction(1, m * p), a)), f"extra {p}-height")


def _scale(c, v):
    c = Fraction(c)
    return tuple(c * e for e in v)


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _combo(rng, g, height: int):
    """A nonzero integer combination of g's generators (an element of g)."""
    gens = [v for v, _s in g.generators]
    while True:
        x = tuple(Fraction(0) for _ in range(g.ambient_dim))
        for v in gens:
            x = _add(x, _scale(rng.randint(-height, height), v))
        if any(x):
            return x


def _row_times(v, m):
    return tuple(sum((v[i] * m[i][j] for i in range(len(v))), Fraction(0)) for j in range(len(m[0])))


def _unimodular(rng, n: int, steps: int = 2):
    """A random integer matrix of determinant +-1 (elementary row operations)."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n == 1:
            m[0][0] = -m[0][0]
            continue
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        else:
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def _first_samples(tf, profile: str, count: int, max_rank: int, primes=SMALL_PRIMES, keep=None):
    """The ``count`` corpus samples of lowest corpus seed that ``keep`` accepts."""
    out, seed = [], 0
    while len(out) < count:
        sample = tf.corpus.generate(profile, seed, max_rank=max_rank, primes=primes)
        if keep is None or keep(sample):
            out.append(sample)
        seed += 1
    return out


def _rank_is(rank: int, max_gens: int):
    return lambda s: s.group.rank == rank and len(s.group.generators) <= max_gens


def _copy(tf, sample, m):
    """The sample moved by the invertible matrix m: an isomorphic copy of group
    and base with the same coset orders, built as fresh objects."""

    def moved(g):
        return tf.groups.group_rep(g.ambient_dim, [(_row_times(v, m), s) for v, s in g.generators])

    cosets = tuple((_row_times(v, m), order) for v, order in sample.cosets)
    return tf.corpus.CorpusSample(sample.profile, sample.seed, moved(sample.group), moved(sample.base), cosets)


# -- workloads -----------------------------------------------------------------


class Workload:
    """Inputs of a pass: seeded isomorphic copies of a fixed pool of corpus groups.

    Operation cost depends mostly on a group's structure (rank, generators,
    prime sets), and drawing fresh corpus groups for every seed moved
    ops_per_s by 10% between seeds.  So each workload fixes a pool of corpus
    samples (the lowest corpus seeds of each profile), and the seed picks,
    for every pass and group, a random unimodular change of coordinates plus
    the query vectors, ratios and matrices.  The copies have other vectors but
    the same structure, so a pass costs about the same on every seed.
    """

    name = ""

    def __init__(self, tf, seed: int, tiny: bool):
        self.tf = tf
        self.seed = seed
        self.tiny = tiny
        self.ref = Reference(tf)
        self.pool = self.make_pool()

    def make_pool(self):
        return []

    def copies(self, rng):
        return [_copy(self.tf, s, _unimodular(rng, s.group.ambient_dim)) for s in self.pool]

    def rng(self, pass_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{pass_index}")

    def reset(self) -> None:
        """Start a pass cold: drop the package's process-wide pure-hull cache."""
        cache = getattr(self.tf.decomp, "_pure_hull", None)
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()

    def build(self, pass_index: int) -> list[Op]:
        raise NotImplementedError


class Query(Workload):
    """Read queries over pre-built corpus groups."""

    name = "query"
    PROFILES = ("mixed", "cd", "acd", "butler")

    def make_pool(self):
        per_profile = 1 if self.tiny else 10
        return [s for p in self.PROFILES for s in _first_samples(self.tf, p, per_profile, max_rank=3)]

    def build(self, pass_index):
        tf, rng = self.tf, self.rng(pass_index)
        members_per_group = 4 if self.tiny else 20
        ops = []
        for sample in self.copies(rng):
            g = sample.group
            for _ in range(members_per_group):
                x = _combo(rng, g, 3)
                if rng.random() < 0.5:
                    x = _scale(Fraction(1, rng.choice(QUOTIENT_PRIMES)), x)
                ops.append(self._member(g, x))
            elems = []
            for _ in range(2):
                e = _combo(rng, g, 2)
                if rng.random() < 0.5:
                    e = _scale(Fraction(1, rng.choice(QUOTIENT_PRIMES)), e)
                elems.append((e, ()))
            ops.append(self._leq(tf.groups.group_rep(g.ambient_dim, elems), g))
            ops.append(self._compare(sample))
            ops.append(self._type(g, _combo(rng, g, 2)))
            direction = _combo(rng, g, 2)
            ops.append(self._purify(g, direction, tf.linalg.Subspace.span([direction], g.ambient_dim)))
        rng.shuffle(ops)
        return ops

    def _member(self, g, x):
        tf, ref = self.tf, self.ref

        def check(ans):
            _expect(ans == ref.member(g, x), "member disagrees with the oracle")
            return True

        return Op("member", lambda: tf.groups.member(g, x), check)

    def _leq(self, h, g):
        tf, ref = self.tf, self.ref

        def check(ans):
            _expect(ans == ref.leq(h, g), "subgroup_leq disagrees with the oracle")
            return True

        return Op("subgroup_leq", lambda: tf.groups.subgroup_leq(h, g), check)

    def _compare(self, sample):
        tf = self.tf
        Compare = tf.groups.Compare
        expected = Compare.LEFT_IN_RIGHT if sample.cosets else Compare.EQUAL

        def check(ans):
            _expect(ans is expected, "compare(base, group) disagrees with the corpus certificate")
            return True

        return Op("compare", lambda: tf.groups.compare(sample.base, sample.group), check)

    def _type(self, g, a):
        tf, ref = self.tf, self.ref

        def check(ans):
            ref.check_type(g, a, ans)
            return True

        return Op("element_type", lambda: tf.groups.element_type(g, a), check)

    def _purify(self, g, direction, line):
        tf, ref = self.tf, self.ref

        def check(ans):
            for w in tf.oracle.brute_force_purify(g, direction):
                _expect(ref.member(ans, w), "oracle generator outside the purification")
            _expect(ref.leq(ans, g), "purification escapes the group")
            _expect(ref.span(ans) == line, "purification does not span the line")
            return True

        return Op("purify", lambda: tf.groups.purify(g, line), check)


class Search(Workload):
    """Bounded searches: si-search, complete decomposition, regulating basis.

    A seeded rank-2 group took 0.01-1.6 s per search and a rank-3 group
    0.03-1.2 s, so the pool (see Workload) matters most here.
    """

    name = "search"
    # (file, search, height), run every pass: the documented search examples
    # (si-search at height 1, where height 2 takes 0.8 s and thins the
    # samples a run gets), plus decompose on g2, which finds nothing
    FIXED_SEARCHES = (
        ("g2", "si_search", 1),
        ("g3", "si_search", 1),
        ("g3", "regulating", 2),
        ("g1", "decompose", 1),
        ("g2", "decompose", 1),
    )
    RANK2_PROFILES = ("cd", "acd", "butler", "mixed")
    RANK3_PROFILES = ("cd", "mixed")
    NO_BASIS = "no Jonsson basis found within the height bound"

    def make_pool(self):
        tf = self.tf
        rank3 = [] if self.tiny else [
            s for p in self.RANK3_PROFILES for s in _first_samples(tf, p, 1, max_rank=3, keep=_rank_is(3, 3))
        ]
        per_profile = 1 if self.tiny else 4
        profiles = self.RANK2_PROFILES[:1] if self.tiny else self.RANK2_PROFILES
        rank2 = [s for p in profiles for s in _first_samples(tf, p, per_profile, max_rank=2, keep=_rank_is(2, 3))]
        return rank3 + rank2

    def build(self, pass_index):
        tf, rng = self.tf, self.rng(pass_index)
        ops = []
        fixed = (("g2", "decompose", 1), ("g3", "regulating", 1)) if self.tiny else self.FIXED_SEARCHES
        for name, search, height in fixed:
            text = Path("tests/data", f"{name}.grp").read_text(encoding="utf-8")
            g = next(iter(tf.fileformat.parse_group_file(text).values()))
            if search == "si_search":
                ops.append(self._si_search(g, height))
            elif search == "regulating":
                ops.append(self._regulating(g, height, {"g1": 1, "g3": 2}.get(name)))
            else:
                ops.append(self._decompose(g, height))
        for sample in self.copies(rng):
            g = sample.group
            certified = self._certified_index(sample)
            if g.rank == 3:
                ops.append(self._witness(g, 1))
                ops.append(self._regulating(g, 1, certified))
                continue
            # height 2 where the search stays small (two generators)
            height = 2 if len(g.generators) == 2 and not self.tiny else 1
            ops.append(self._si_search(g, height))
            ops.append(self._decompose(g, 1))
            ops.append(self._regulating(g, height, certified))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _certified_index(sample):
        """The regulating index divides the product of the coset orders
        (corpus certificate); mixed samples may hold Butler parts, so none."""
        if sample.profile in ("cd", "acd"):
            return prod(sample.coset_orders)
        return None

    def _check_witness(self, g, witness):
        ref = self.ref
        report = witness.report
        total = self.tf.groups.sum_groups(*report.summands)
        _expect(sum(s.rank for s in report.summands) == g.rank, "witness ranks do not add up")
        _expect(ref.span(total) == ref.span(g), "witness summands do not span the group")
        for s in report.summands:
            _expect(ref.leq(s, g), "witness summand escapes the group")
        index = report.quotient.quotient.order
        _expect(ref.scaled_into(g, index, total), "witness index does not scale the group in")

    def _check_certificate(self, g, cert):
        sets = [set(t.inverted.primes) if not t.inverted.is_all else None for t in cert.types]
        for i in range(3):
            for j in range(3):
                if i != j:
                    a, b = sets[i], sets[j]
                    _expect(not (b is None or (a is not None and a <= b)), "certificate types comparable")
        for v, t in zip(cert.vectors, cert.types):
            self.ref.check_type(g, v, t)

    def _si_search(self, g, height):
        tf = self.tf

        def call():
            cert = tf.indec.typeset_obstruction_certificate(g)
            return cert, tf.indec.strong_decomposability_witness_search(g, height)

        def check(ans):
            cert, witness = ans
            _expect(not (cert is not None and witness.found), "certificate and witness coexist")
            if witness.found:
                self._check_witness(g, witness)
            if cert is not None:
                self._check_certificate(g, cert)
            return witness.found or cert is not None

        return Op("si_search", call, check)

    def _witness(self, g, height):
        tf = self.tf

        def check(witness):
            if witness.found:
                self._check_witness(g, witness)
            return witness.found

        return Op("witness_search", lambda: tf.indec.strong_decomposability_witness_search(g, height), check)

    def _decompose(self, g, height):
        tf = self.tf

        def check(found):
            for record in found:
                _expect(sum(s.rank for s in record.summands) == g.rank, "summand ranks do not add up")
                total = tf.groups.sum_groups(*record.summands)
                _expect(
                    tf.groups.compare(total, g) is tf.groups.Compare.EQUAL,
                    "decomposition does not sum back to the group",
                )
            return bool(found)

        return Op(
            "decompose",
            lambda: tf.decomp.complete_decomposition_search(g, (), height),
            check,
        )

    def _regulating(self, g, height, certified):
        tf, ref = self.tf, self.ref

        def check(ans):
            best, index = ans[0], ans[1]
            _expect(index == best.index and index >= 1, "index disagrees with the basis")
            if certified is not None:
                _expect(certified % index == 0, "regulating index does not divide the coset orders")
            summands = best.summand_groups
            _expect(len(summands) == g.rank, "not one summand per rank")
            for s in summands:
                _expect(ref.span(s).dim == 1, "summand is not rank 1")
                _expect(ref.leq(s, g), "summand escapes the group")
            total = tf.groups.sum_groups(*summands)
            _expect(ref.scaled_into(g, index, total), "index does not scale the group in")
            return True

        return Op(
            "regulating",
            lambda: tf.jonsson.regulating_search(g, height),
            check,
            scope_error=(tf.groups.GroupError, self.NO_BASIS),
        )


class Structure(Workload):
    """Operations that build new groups and compare them."""

    name = "structure"
    PROFILES = ("mixed", "cd", "acd", "butler")
    # one group in eight carries a 10-11 digit prime: in a coset order (acd)
    # or in an inverted set (the others)
    LARGE_PRIMES = (("acd", 3000000019), ("mixed", 20000000089), ("cd", 70000000033))

    def make_pool(self):
        tf = self.tf
        pool = [s for p in self.PROFILES for s in _first_samples(tf, p, 1 if self.tiny else 5, max_rank=3)]
        for profile, big in self.LARGE_PRIMES[:1] if self.tiny else self.LARGE_PRIMES:
            def carries(sample, big=big):
                if sample.profile == "acd":
                    return big in sample.coset_orders
                return any(not s.is_all and big in s.primes for _v, s in sample.group.generators)

            pool += _first_samples(tf, profile, 1, max_rank=3, primes=(2, 3, big), keep=carries)
        return pool

    def build(self, pass_index):
        tf, rng = self.tf, self.rng(pass_index)
        ops = []
        for sample in self.copies(rng):
            g = sample.group
            large = max(g.active_primes, default=0) > 10**9
            ratio = Fraction(rng.choice((2, 3, 5, 7, 11, 13)), rng.choice((1, 7, 11)))
            ops.append(self._scale_quasi(g, ratio))
            ops.append(self._commensurable(sample))
            if sample.cosets:
                ops.append(self._quotient(sample))
            ops.append(self._map(g, _unimodular(rng, g.ambient_dim)))
            if not large:
                # the oracle reference factors p^k denominators; keep it to small primes
                ops.append(self._automorphism(g, _unimodular(rng, g.rank, rng.randint(0, 2))))
            ops.append(self._brep(g, rng))
        rng.shuffle(ops)
        return ops

    def _scale_quasi(self, g, r):
        tf, ref = self.tf, self.ref

        def call():
            h = tf.groups.scale_group(g, r)
            return h, tf.quasi.quasi_equal_strict(g, h)

        def check(ans):
            h, w = ans
            _expect([(v, s) for v, s in h.generators] == [(_scale(r, v), s) for v, s in g.generators],
                    "scale_group generators")
            _expect(w is not None and w.ratio > 0, "strict quasi-equality missed r*G")
            q = w.ratio / r
            span = ref.span(g)
            for p in self.tf.numutil.primes_dividing(q.numerator * q.denominator):
                # another ratio is right only up to primes at which g is divisible
                _expect(ref.divisible_span(g, p) == span, "ratio differs at a non-divisible prime")
            return True

        return Op("scale_quasi_equal", call, check)

    def _commensurable(self, sample):
        tf = self.tf
        expected = (1, lcm(*sample.coset_orders)) if sample.cosets else (1, 1)

        def check(w):
            _expect(w is not None and w.pair == expected, "commensurable pair disagrees with the cosets")
            return True

        return Op("commensurable", lambda: tf.quasi.commensurable(sample.base, sample.group), check)

    def _quotient(self, sample):
        tf = self.tf

        def check(d):
            _expect(d.is_finite and d.quotient.order == prod(sample.coset_orders),
                    "quotient order disagrees with the coset orders")
            return True

        return Op("index_and_quotient", lambda: tf.groups.index_and_quotient(sample.group, sample.base), check)

    def _map(self, g, m):
        tf = self.tf
        expected = [(_row_times(v, m), s) for v, s in g.generators]

        def check(h):
            _expect([(v, s) for v, s in h.generators] == expected, "map_group generators")
            return True

        return Op("map_group", lambda: tf.groups.map_group(g, m), check)

    def _automorphism(self, g, m):
        tf, ref = self.tf, self.ref

        def transported(matrix):
            hull = g.lattice_hull.rows
            out = []
            for v, s in g.generators:
                c = tf.linalg.solve_in_rows(hull, v)
                out.append((_row_times(_row_times(c, matrix), hull), s))
            return out

        def check(ans):
            inverse = tf.linalg.mat_inverse(m)
            expected = all(ref.piece_in(g, v, s) for mm in (m, inverse) for v, s in transported(mm))
            _expect(ans == expected, "automorphism_check disagrees with the oracle")
            return True

        return Op("automorphism_check", lambda: tf.decomp.automorphism_check(g, m), check)

    def _brep(self, g, rng):
        tf = self.tf
        hull = g.lattice_hull.rows
        elements = tuple(_row_times(row, hull) for row in _unimodular(rng, len(hull)))
        a = _combo(rng, g, 2)

        def call():
            record = tf.bases.basis_record(g, elements)
            return record, tf.bases.b_representation(g, record, a)

        def check(ans):
            record, rep = ans
            _expect(record.elements == elements, "basis record reorders the basis")
            total = tuple(Fraction(0) for _ in a)
            for n, b in zip(rep.coefficients, elements):
                total = _add(total, _scale(n, b))
            _expect(_scale(Fraction(1, rep.k), total) == a, "B-representation does not rebuild a")
            _expect(rep.k >= 1 and gcd(rep.k, *rep.coefficients) == 1, "B-representation not reduced")
            return True

        return Op("basis_brep", call, check)


# (golden file, argv): the documented examples other than the bounded searches
GOLDEN_COMMANDS = (
    ("g1-split-exact.txt", ["split", "tests/data/g1.grp", "--basis", "(1,0);(0,1)", "--partition", "1|2"]),
    ("g1-split-none.txt", ["split", "tests/data/g1.grp", "--basis", "(1,0);(1,1)", "--partition", "1|2"]),
    ("g3-split-quasi.txt", ["split", "tests/data/g3.grp", "--basis", "(1,0);(0,1)", "--partition", "1|2"]),
    ("g3-member.txt", ["member", "tests/data/g3.grp", "(1/2,1/2)", "--oracle"]),
    ("g2-type.txt", ["type", "tests/data/g2.grp", "(1,1)"]),
    ("g3-purify.txt", ["purify", "tests/data/g3.grp", "(1,1)"]),
    ("g3-brep.txt", ["brep", "tests/data/g3.grp", "(1/2,1/2)", "--basis", "(1,0);(0,1)"]),
    ("g1-iso.txt", ["iso", "tests/data/g1.grp", "--first", "(1,0)|(0,1)", "--second", "(1,1)|(0,1)"]),
    ("z2-aut-quasi.txt", ["aut-check", "tests/data/z2.grp", "--matrix", "3,0;0,3", "--quasi"]),
    ("divergence-quasi-eq.txt", ["quasi-eq", "tests/data/z2.grp", "tests/data/zhalf.grp"]),
    ("divergence-commensurable.txt", ["commensurable", "tests/data/z2.grp", "tests/data/zhalf.grp"]),
    ("g3-jonsson.txt", ["jonsson", "tests/data/g3.grp", "--summands", "(1,0)|(0,1)"]),
    ("g3-quotient.txt", ["quotient", "tests/data/g3.grp", "tests/data/a3.grp"]),
    ("g3-quotient.json", ["quotient", "tests/data/g3.grp", "tests/data/a3.grp", "--json"]),
    ("g2-si-check.txt", ["si-check", "tests/data/g2.grp", "--basis", "(1,0);(0,1)"]),
    ("verify-cd.txt", ["verify", "--profile", "cd", "--count", "3", "--seed", "7"]),
)


class Cli(Workload):
    """``cli.main`` in-process with stdout captured."""

    name = "cli"

    def build(self, pass_index):
        rng = self.rng(pass_index)
        commands = GOLDEN_COMMANDS[:3] if self.tiny else GOLDEN_COMMANDS
        ops = [
            self._golden(name, argv, Path("tests/golden", name).read_text(encoding="utf-8"))
            for name, argv in commands
        ]
        # the corpus verify is split in three runs, so that the slowest tenth
        # of the operations is a cluster of them rather than one outlier
        for _ in range(1 if self.tiny else 3):
            ops.append(self._verify(2 if self.tiny else 8, rng.randrange(10**6)))
        rng.shuffle(ops)
        return ops

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tf.cli.main(argv)
        return code, out.getvalue()

    def _golden(self, name, argv, expected):
        def check(ans):
            code, out = ans
            _expect(code == 0 and out == expected, "output differs from the golden file")
            return True

        return Op(f"cli {name}", lambda: self._run(argv), check)

    def _verify(self, count, seed):
        argv = ["verify", "--profile", "mixed", "--count", str(count), "--seed", str(seed)]

        def check(ans):
            code, out = ans
            last = out.splitlines()[-1] if out else ""
            _expect(code == 0 and last.startswith(f"all ok ({count} groups"), "corpus verify failed")
            return True

        return Op("cli_verify", lambda: self._run(argv), check)


WORKLOADS = {w.name: w for w in (Query, Search, Structure, Cli)}
