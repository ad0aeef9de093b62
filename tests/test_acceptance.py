"""The acceptance gate: one test per shipping criterion.

Every test runs its whole criterion, records a single PASS/FAIL line in the
terminal summary (see conftest), and only then asserts, so a red criterion
still reports itself next to the green ones.  Criteria with a runtime budget
measure it with a monotonic clock and fail when over.
"""

import itertools
import random
import time
from fractions import Fraction as F
from math import gcd

from conftest import record_criterion
from strategies import SMALL_PRIMES
from test_cli import GOLDEN_COMMANDS, GOLDEN, run_cli
from torsionfree.bases import (
    b_representation,
    basis_record,
    is_basis,
    minimal_multiplier,
)
from torsionfree.corpus import PROFILES, generate
from torsionfree.decomp import (
    IsoVerdict,
    SpanTable,
    _generated_bases,
    apply_span_matrix,
    automorphism_check,
    automorphism_from_summand_isos,
    check_splitting_partition,
    complete_decomposition_search,
    decompositions_isomorphic,
    enumerate_splitting_partitions,
    partition_record,
    span_matrix_image,
)
from torsionfree.groups import (
    Compare,
    GroupError,
    compare,
    element_type,
    group_rep,
    member,
    purify,
    scale_group,
    subgroup_leq,
)
from torsionfree.indec import (
    SIVerdict,
    property_si_check,
    strong_decomposability_witness_search,
    typeset_obstruction_certificate,
)
from torsionfree.jonsson import regulating_search, summand_invariants
from torsionfree.linalg import Subspace, identity_matrix, solve_in_rows, vadd, vec, vscale
from torsionfree.oracle import brute_force_member, brute_force_purify, sufficient_exponent
from torsionfree.quasi import SplitKind, commensurable, quasi_equal_strict, quasi_split_check


def G1():
    return group_rep(2, [((1, 0), ()), ((0, 1), "ALL")])


def G2():
    return group_rep(2, [((1, 0), (2,)), ((0, 1), (3,)), ((1, 1), (5,))])


def G3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,)), ((F(1, 2), F(1, 2)), ())])


def A3():
    return group_rep(2, [((1, 0), (3,)), ((0, 1), (5,))])


def _corpus(seeds, max_rank=3, primes=(2, 3, 5, 7)):
    for profile in PROFILES:
        for seed in seeds:
            yield generate(profile, seed, max_rank=max_rank, primes=primes).group


def test_criterion_1_splitting_example():
    problems = []
    t0 = time.monotonic()
    g = G1()
    b1 = basis_record(g, [(1, 0), (0, 1)])
    report = quasi_split_check(g, b1, partition_record(b1, [(0,), (1,)]))
    if report.kind is not SplitKind.EXACT:
        problems.append(f"axes basis reported {report.kind}")
    b2 = basis_record(g, [(1, 0), (1, 1)])
    if enumerate_splitting_partitions(g, b2, max_blocks=2):
        problems.append("sheared basis has a splitting partition")
    defect = quasi_split_check(g, b2, partition_record(b2, [(0,), (1,)]))
    if defect.kind is not SplitKind.NONE:
        problems.append(f"sheared basis reported {defect.kind}")
    elif defect.quotient.is_finite:
        problems.append("defect quotient is finite")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    record_criterion(1, "splitting example", not problems)
    assert not problems, problems


def test_criterion_2_oracle_equivalence():
    problems = []
    t0 = time.monotonic()
    rng = random.Random("acceptance:oracle")
    queries = 0
    for seed in range(60):
        for profile in PROFILES:
            g = generate(profile, seed, max_rank=3, primes=(2, 3, 5)).group
            gens = [v for v, _s in g.generators if any(v)]
            if not gens:
                continue
            for _ in range(35):
                x = vec((0,) * g.ambient_dim)
                for v in gens:
                    x = vadd(x, vscale(rng.randint(-2, 2), v))
                if rng.random() < 0.6:
                    x = vscale(F(1, rng.choice((2, 3, 4, 5, 6, 8, 9))), x)
                exact = member(g, x)
                brute = brute_force_member(g, x, sufficient_exponent(g, x))
                queries += 1
                if exact != brute:
                    problems.append(f"member {profile}:{seed} at {x}: {exact} vs {brute}")
            for direction in gens[:2]:
                hull = purify(g, Subspace.span([vec(direction)], g.ambient_dim))
                oracle_gens = brute_force_purify(g, direction, 4)
                queries += 1
                if not oracle_gens:
                    problems.append(f"purify {profile}:{seed}: no generator found")
                    continue
                z = oracle_gens[0]
                if not member(hull, z):
                    problems.append(f"purify {profile}:{seed}: {z} escapes the hull")
                for p in SMALL_PRIMES:
                    deeper = vscale(F(1, p), z)
                    queries += 1
                    if member(hull, deeper) != brute_force_member(
                        g, deeper, sufficient_exponent(g, deeper)
                    ):
                        problems.append(f"purify {profile}:{seed}: depth {p} disagrees")
    elapsed = time.monotonic() - t0
    if queries < 10_000:
        problems.append(f"only {queries} queries")
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s")
    record_criterion(2, "oracle equivalence", not problems)
    assert not problems, problems[:10]


def test_criterion_3_basis_suite():
    problems = []
    rng = random.Random("acceptance:bases")
    count = 0
    for g in _corpus(range(125)):
        count += 1
        tag = f"group {count}"
        rows = g.lattice_hull.rows
        if not rows:
            continue
        if not is_basis(g, rows):
            problems.append(f"{tag}: hull rows are not a basis")
            continue
        # B_* = G and [B] = [G]
        span = Subspace.span(list(rows), g.ambient_dim)
        if span != g.span:
            problems.append(f"{tag}: [B] differs from [G]")
        if compare(purify(g, span), g) is not Compare.EQUAL:
            problems.append(f"{tag}: B_* is not all of G")
        # G/<B> is torsion: every member is a rational combination of B
        for x, _s in g.generators:
            if solve_in_rows(rows, vec(x)) is None:
                problems.append(f"{tag}: {x} has no finite order mod <B>")
        # minimal multiplier is minimal on a fractional respan
        scaled = (vscale(F(1, rng.choice((2, 3, 4))), rows[0]),) + rows[1:]
        m = minimal_multiplier(g, scaled)
        if not all(member(g, vscale(m, vec(b))) for b in scaled):
            problems.append(f"{tag}: multiplier {m} does not clear the basis")
        for d in range(1, m):
            if m % d == 0 and all(member(g, vscale(d, vec(b))) for b in scaled):
                problems.append(f"{tag}: {d} beats the minimal multiplier {m}")
        # B-representations reconstruct, are reduced, and are stable
        basis = basis_record(g, rows)
        for x, _s in g.generators[:2]:
            rep = b_representation(g, basis, x)
            if rep.vector(basis) != vec(x):
                problems.append(f"{tag}: representation of {x} does not reconstruct")
            if rep.coefficients and gcd(rep.k, *rep.coefficients) != 1:
                problems.append(f"{tag}: gcd({rep.k}, {rep.coefficients}) > 1")
            if rep != b_representation(g, basis, x):
                problems.append(f"{tag}: representation is unstable")
    if count < 500:
        problems.append(f"only {count} corpus groups")
    record_criterion(3, "basis suite", not problems)
    assert not problems, problems[:10]


def _unimodular_pool(rank):
    eye = identity_matrix(rank)
    pool = [eye, tuple(tuple(-e for e in row) for row in eye)]
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            pool.append(
                tuple(
                    tuple(
                        eye[a][b] + (1 if (a, b) == (i, j) else 0)
                        for b in range(rank)
                    )
                    for a in range(rank)
                )
            )
    for i, j in itertools.combinations(range(rank), 2):
        perm = [list(row) for row in eye]
        perm[i], perm[j] = perm[j], perm[i]
        pool.append(tuple(tuple(row) for row in perm))
    return pool


def test_criterion_4_automorphism_action():
    problems = []
    verified = 0
    for g in itertools.chain([G1(), G3(), A3()], _corpus(range(25))):
        if g.rank == 0:
            continue
        rows = g.lattice_hull.rows
        basis = basis_record(g, rows)
        split_found = enumerate_splitting_partitions(g, basis, max_blocks=2)
        for m in _unimodular_pool(g.rank):
            if not automorphism_check(g, m):
                continue
            verified += 1
            images = tuple(span_matrix_image(g, m, b) for b in rows)
            if not is_basis(g, images):
                problems.append("basis image is not a basis")
            for x, _s in g.generators[:2]:
                if element_type(g, x) != element_type(g, span_matrix_image(g, m, x)):
                    problems.append("type not preserved")
            line = Subspace.span([rows[0]], g.ambient_dim)
            lhs = apply_span_matrix(g, m, purify(g, line))
            rhs = purify(g, Subspace.span([span_matrix_image(g, m, rows[0])], g.ambient_dim))
            if compare(lhs, rhs) is not Compare.EQUAL:
                problems.append("S_* transport mismatch")
            if split_found:
                partition, _record = split_found[0]
                moved = basis_record(g, images)
                ok, _rec = check_splitting_partition(
                    g, partition_record(moved, partition.blocks)
                )
                if not ok:
                    problems.append("splitting partition does not transport")
    if verified < 200:
        problems.append(f"only {verified} verified automorphisms")

    # complete decompositions of one group: Yes answers assemble and map
    z3 = group_rep(3, [((1, 0, 0), ()), ((0, 1, 0), ()), ((0, 0, 1), ())])
    pool = [G1(), z3] + [generate("cd", s, max_rank=3).group for s in range(6)]
    pairs = 0
    for g in pool:
        found = complete_decomposition_search(g, height_bound=1)
        for d1, d2 in itertools.combinations(found, 2):
            pairs += 1
            answer = decompositions_isomorphic(d1, d2)
            if answer.verdict is IsoVerdict.YES:
                alpha = automorphism_from_summand_isos(d1, d2, answer)
                mapped = sorted(
                    apply_span_matrix(g, alpha, s).key() for s in d1.summands
                )
                target = sorted(s.key() for s in d2.summands)
                if mapped != target:
                    problems.append("assembled automorphism misses the partner")
            else:
                try:
                    automorphism_from_summand_isos(d1, d2, answer)
                    problems.append("non-Yes answer assembled an automorphism")
                except GroupError:
                    pass
    if pairs == 0:
        problems.append("no decomposition pairs exercised")
    record_criterion(4, "automorphism action", not problems)
    assert not problems, problems[:10]


def test_criterion_5_quasi_suite():
    problems = []
    ratios = (F(2), F(3), F(1, 2), F(5, 6), F(4, 9))
    sampled = 0
    for i, g in enumerate(_corpus(range(8))):
        if g.rank == 0:
            continue
        h = scale_group(g, ratios[i % len(ratios)])
        w = quasi_equal_strict(h, g)
        if w is None:
            problems.append(f"scaled pair {i} lost strict quasi-equality")
            continue
        if compare(scale_group(h, w.ratio), g) is not Compare.EQUAL:
            problems.append(f"scaled pair {i}: witness ratio does not verify")
        pair = commensurable(h, g)
        if pair is None:
            problems.append(f"scaled pair {i} is not commensurable")
        else:
            a, b = pair.pair
            if not subgroup_leq(scale_group(h, a), g) or not subgroup_leq(
                scale_group(g, b), h
            ):
                problems.append(f"scaled pair {i}: ({a},{b}) fails containment")
        sampled += 1
        # purified quasi-equal pairs coincide
        u = next(v for v, _s in g.generators if any(v))
        p1 = purify(g, Subspace.span([vec(u)], g.ambient_dim))
        p2 = purify(g, Subspace.span([vscale(6, vec(u))], g.ambient_dim))
        w2 = quasi_equal_strict(p1, p2)
        if w2 is None or w2.ratio != 1 or compare(p1, p2) is not Compare.EQUAL:
            problems.append(f"pure pair {i} is not rigid")
    if sampled < 20:
        problems.append(f"only {sampled} sampled pairs")

    zz = group_rep(2, [((1, 0), ()), ((0, 1), ())])
    half = group_rep(2, [((1, 0), ()), ((0, F(1, 2)), ())])
    if quasi_equal_strict(zz, half) is not None or quasi_equal_strict(half, zz) is not None:
        problems.append("divergence pair is strictly quasi-equal")
    got = commensurable(zz, half)
    if got is None or got.pair != (1, 2):
        problems.append(f"divergence pair commensurability came out as {got}")
    record_criterion(5, "quasi-equality suite", not problems)
    assert not problems, problems[:10]


def test_criterion_6_jonsson_suite():
    problems = []
    t0 = time.monotonic()
    g3 = G3()
    best, index = regulating_search(g3, 4)
    if index != 2:
        problems.append(f"half-diagonal regulating index {index}")
    if best.quotient.invariant_factors != (2,):
        problems.append(f"quotient is {best.quotient.invariant_factors}, not Z/2")
    if compare(best.quotient.subgroup, A3()) is not Compare.EQUAL:
        problems.append("regulating basis is not the expected direct sum")

    # uniqueness invariants and summand-class stabilization across heights
    slice_groups = [("g3", g3), ("g1", G1())]
    for profile in PROFILES:
        for seed in range(3):
            slice_groups.append(
                (f"{profile}:{seed}", generate(profile, seed, max_rank=2).group)
            )
    for name, g in slice_groups:
        if g.rank == 0:
            continue
        buckets = {}
        for height in (3, 4):
            try:
                basis, _i = regulating_search(g, height)
            except GroupError:
                buckets[height] = None
                continue
            buckets[height] = summand_invariants(basis)
        if buckets[3] != buckets[4]:
            problems.append(f"{name}: buckets moved between heights 3 and 4")
        if buckets[3] is not None:
            again, _i = regulating_search(g, 3)
            if summand_invariants(again) != buckets[3]:
                problems.append(f"{name}: invariants differ across constructions")
    elapsed = time.monotonic() - t0
    if elapsed >= 600:
        problems.append(f"took {elapsed:.1f}s")
    record_criterion(6, "jonsson suite", not problems)
    assert not problems, problems[:10]


def test_criterion_7_strong_indecomposability():
    problems = []
    g2 = G2()
    cert = typeset_obstruction_certificate(g2)
    if cert is None:
        problems.append("no certificate for the three-prime example")
    else:
        inverted = {s.primes for s in (t.inverted for t in cert.types)}
        if inverted != {(2,), (3,), (5,)}:
            problems.append(f"certificate types are {inverted}")
    checked = 0
    for _ids, basis in itertools.islice(_generated_bases(g2, 2, SpanTable(2)), 50):
        if property_si_check(g2, basis).verdict is not SIVerdict.HOLDS:
            problems.append(f"SI fails for basis {basis.elements}")
        checked += 1
    if checked < 50:
        problems.append(f"only {checked} bases sampled")
    if strong_decomposability_witness_search(g2, 3).found:
        problems.append("witness search found a decomposition of the certified group")
    if not strong_decomposability_witness_search(G3(), 2).found:
        problems.append("no witness for the half-diagonal example")
    if not strong_decomposability_witness_search(G1(), 1).found:
        problems.append("no witness for the split example")
    for i, g in enumerate(_corpus(range(5), max_rank=2)):
        if g.rank != 2:
            continue
        has_cert = typeset_obstruction_certificate(g) is not None
        has_witness = strong_decomposability_witness_search(g, 2).found
        if has_cert and has_witness:
            problems.append(f"corpus group {i} holds both evidence kinds")
    record_criterion(7, "strong indecomposability", not problems)
    assert not problems, problems[:10]


def test_criterion_8_cli_determinism():
    problems = []
    for name, argv in GOLDEN_COMMANDS:
        expected = (GOLDEN / name).read_bytes().decode()
        runs = [run_cli(argv, hashseed="0"), run_cli(argv, hashseed="424242")]
        for r in runs:
            if r.stdout != expected:
                problems.append(f"{name}: output drifted")
                break
        if len({r.returncode for r in runs}) != 1:
            problems.append(f"{name}: exit codes differ")
    record_criterion(8, "cli determinism", not problems)
    assert not problems, problems
