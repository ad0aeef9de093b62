"""Command-line front end.

Commands read groups from description files, run one operation, and print a
deterministic report (or a machine-readable one with --json).  Exit codes
separate three channels: 0 for definite answers, 2 for scope-limited
answers (a bounded search that found nothing, an Unknown verdict), 1 for
errors.  Semi-decided questions stay honest in shell pipelines that way.

The argument parser is built once per process, on the first main() call,
and shared by every later call, so main(argv) may be called repeatedly.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .bases import b_representation, basis_record, is_basis, minimal_multiplier
from .corpus import PROFILES, generate
from .decomp import (
    automorphism_from_summand_isos,
    automorphism_check,
    complete_decomposition_search,
    decomposition_record,
    decompositions_isomorphic,
    partition_record,
)
from .fileformat import ParseError, format_group, parse_group_file
from .groups import (
    Compare,
    GroupRep,
    compare,
    element_type,
    group_rep,
    index_and_quotient,
    member,
    pure_sum,
    purify,
    subgroup_leq,
)
from .indec import (
    property_si_check,
    strong_decomposability_witness_search,
    typeset_obstruction_certificate,
)
from .jonsson import (
    NoJonssonBasisFound,
    jonsson_basis_from_summands,
    lift_quotient_decomposition,
    regulating_search,
)
from .linalg import Subspace, vadd, vec, vscale
from .numutil import parse_rational
from .oracle import brute_force_member, brute_force_purify, sufficient_exponent
from .quasi import commensurable, quasi_automorphism_check, quasi_equal_strict, quasi_split_check
from .rank1 import format_type


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; that
        # channel is reserved for scope-limited answers here
        raise CliError(message)


# -- input parsing -------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return parse_rational(text.strip())
    except ValueError:
        raise CliError(f"bad rational: {text.strip()!r}") from None


def _vector(text: str):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body.strip():
        raise CliError("empty vector")
    return tuple(_fraction(p) for p in body.split(","))


def _vectors(text: str):
    return tuple(_vector(part) for part in text.split(";") if part.strip())


def _vector_blocks(text: str):
    blocks = []
    for part in text.split("|"):
        if part.strip():
            blocks.append(_vectors(part))
    if not blocks:
        raise CliError("no vectors given")
    return tuple(blocks)


def _index_blocks(text: str, size: int):
    blocks = []
    for part in text.split("|"):
        idx = []
        for token in part.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                i = int(token)
            except ValueError:
                raise CliError(f"bad index: {token!r}")
            if not 1 <= i <= size:
                raise CliError(f"index {i} out of range 1..{size}")
            idx.append(i - 1)
        if idx:
            blocks.append(tuple(sorted(idx)))
    if not blocks:
        raise CliError("empty partition")
    return tuple(blocks)


def _int_rows(text: str):
    if text.strip() in ("-", ""):
        return ()
    rows = []
    for part in text.split(";"):
        if not part.strip():
            continue
        row = _vector(part)
        for x in row:
            if x.denominator != 1:
                raise CliError(f"not an integer: {x}")
        rows.append(tuple(int(x) for x in row))
    return tuple(rows)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


def _load_groups(path: str) -> dict[str, GroupRep]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(str(e))
    try:
        groups = parse_group_file(text)
    except ParseError as e:
        raise CliError(f"{path}: {e}")
    if not groups:
        raise CliError(f"{path}: no groups found")
    return groups


def _group(path: str, name: str | None) -> GroupRep:
    """The named group of the file, or its first group when name is None."""
    groups = _load_groups(path)
    if name is None:
        return next(iter(groups.values()))
    if name not in groups:
        raise CliError(f"{path}: no group named {name!r}")
    return groups[name]


# -- output formatting ----------------------------------------------------------


def _vec_str(v) -> str:
    return "(%s)" % ", ".join(str(e) for e in v)


def _group_lines(g: GroupRep, indent: str = "  "):
    body = format_group("_", g).splitlines()[1:]
    if not body:
        return [indent + "(zero group)"]
    return [indent + line for line in body]


def _quotient_str(q) -> str:
    if not q.invariant_factors:
        return "trivial"
    return " x ".join(f"Z/{d}" for d in q.invariant_factors)


def _j_vec(v):
    return [str(e) for e in v]


def _j_group(g: GroupRep):
    return {
        "ambient": g.ambient_dim,
        "generators": [
            {"vector": _j_vec(v), "inv": "ALL" if s.is_all else list(s.primes)}
            for v, s in g.generators
        ],
    }


def _j_quotient(q):
    return {
        "invariant_factors": list(q.invariant_factors),
        "order": q.order,
        "exponent": q.exponent,
        "generator_images": [list(t) for t in q.generator_images],
    }


def _j_description(d):
    if d.is_finite:
        return {"kind": "finite", **_j_quotient(d.quotient)}
    return {"kind": "infinite", "prime": d.prime, "direction": _j_vec(d.direction)}


# -- commands -------------------------------------------------------------------


def _cmd_member(args):
    g = _group(args.file, args.name)
    x = _vector(args.vector)
    res = member(g, x)
    lines = [f"member: {str(res).lower()}"]
    payload = {"member": res}
    code = 0
    if args.oracle:
        bound = args.bound if args.bound is not None else sufficient_exponent(g, x)
        o = brute_force_member(g, x, bound)
        agree = o == res
        lines.append(f"oracle: {str(o).lower()} (bound {bound})")
        lines.append(f"agreement: {str(agree).lower()}")
        payload.update({"oracle": o, "oracle_bound": bound, "agreement": agree})
        if not agree:
            code = 1
    return code, lines, payload


def _cmd_type(args):
    g = _group(args.file, args.name)
    t = element_type(g, _vector(args.vector))
    return 0, [f"type: {format_type(t)}"], {"type": format_type(t)}


def _cmd_purify(args):
    g = _group(args.file, args.name)
    rows = _vectors(args.vectors)
    space = Subspace.span(list(rows), g.ambient_dim)
    p = purify(g, space)
    lines = ["purified subgroup:"] + _group_lines(p)
    payload = {"purified": _j_group(p)}
    code = 0
    if args.oracle:
        if space.dim != 1:
            raise CliError("--oracle needs a one-dimensional subspace")
        bound = args.bound if args.bound is not None else 4
        gens = brute_force_purify(g, rows[0], bound)
        agree = all(member(p, w) for w in gens)
        lines.append("oracle generators: " + "; ".join(_vec_str(w) for w in gens))
        lines.append(f"agreement: {str(agree).lower()}")
        payload.update(
            {"oracle_generators": [_j_vec(w) for w in gens], "agreement": agree}
        )
        if not agree:
            code = 1
    return code, lines, payload


def _cmd_basis_check(args):
    g = _group(args.file, args.name)
    ok = is_basis(g, _vectors(args.basis))
    return 0, [f"basis: {str(ok).lower()}"], {"basis": ok}


def _cmd_minmul(args):
    g = _group(args.file, args.name)
    m = minimal_multiplier(g, _vectors(args.basis))
    return 0, [f"minimal multiplier: {m}"], {"minimal_multiplier": m}


def _cmd_brep(args):
    g = _group(args.file, args.name)
    basis = basis_record(g, _vectors(args.basis))
    rep = b_representation(g, basis, _vector(args.vector))
    lines = [f"k: {rep.k}", f"coefficients: {_vec_str(rep.coefficients)}"]
    return 0, lines, {"k": rep.k, "coefficients": list(rep.coefficients)}


def _cmd_split(args):
    g = _group(args.file, args.name)
    elements = _vectors(args.basis)
    basis = basis_record(g, elements)
    partition = partition_record(basis, _index_blocks(args.partition, len(elements)))
    report = quasi_split_check(g, basis, partition)
    lines = [report.kind.value]
    payload = {"kind": report.kind.value}
    if report.kind.value != "NoSplit":
        for i, s in enumerate(report.summands, start=1):
            lines.append(f"summand {i}:")
            lines.extend(_group_lines(s, "  "))
        q = report.quotient.quotient
        lines.append(f"index: {q.order}")
        lines.append(f"quotient: {_quotient_str(q)}")
        payload["summands"] = [_j_group(s) for s in report.summands]
        payload["quotient"] = _j_quotient(q)
    else:
        d = report.quotient
        lines.append(f"witness: InfiniteTorsion(p={d.prime}, direction={_vec_str(d.direction)})")
        payload["witness"] = _j_description(d)
    return 0, lines, payload


def _cmd_decompose(args):
    g = _group(args.file, args.name)
    found = complete_decomposition_search(
        g, height_bound=args.height, max_blocks=args.max_blocks
    )
    payload = {"height": args.height, "decompositions": []}
    if not found:
        lines = [f"none found (height {args.height})"]
        # a group of rank at most 1 has no decomposition at any height
        return (2 if g.rank > 1 else 0), lines, payload
    lines = [f"decompositions found: {len(found)} (height {args.height})"]
    for i, record in enumerate(found, start=1):
        flags = ", ".join(f.value for f in record.flags)
        lines.append(f"decomposition {i}: [{flags}]")
        for s in record.summands:
            lines.extend(_group_lines(s, "  "))
        payload["decompositions"].append(
            {
                "flags": [f.value for f in record.flags],
                "summands": [_j_group(s) for s in record.summands],
            }
        )
    return 0, lines, payload


def _decomposition_from_blocks(g: GroupRep, blocks):
    summands, _total = pure_sum(g, (Subspace.span(list(block), g.ambient_dim) for block in blocks))
    return decomposition_record(g, summands)


def _cmd_iso(args):
    g = _group(args.file, args.name)
    d1 = _decomposition_from_blocks(g, _vector_blocks(args.first))
    d2 = _decomposition_from_blocks(g, _vector_blocks(args.second))
    answer = decompositions_isomorphic(d1, d2)
    lines = [f"verdict: {answer.verdict.value}"]
    payload = {"verdict": answer.verdict.value}
    if answer.verdict.value == "Yes":
        m = automorphism_from_summand_isos(d1, d2, answer)
        lines.append("automorphism: " + "; ".join(_vec_str(row) for row in m))
        lines.append("verified: true")
        payload["automorphism"] = [_j_vec(row) for row in m]
    elif answer.reason:
        lines.append(f"reason: {answer.reason}")
        payload["reason"] = answer.reason
    code = 2 if answer.verdict.value == "Unknown" else 0
    return code, lines, payload


def _cmd_aut_check(args):
    g = _group(args.file, args.name)
    m = _vectors(args.matrix)
    if args.quasi:
        got = quasi_automorphism_check(g, m)
        if got is None:
            return 0, ["quasi-automorphism: absent"], {"quasi_automorphism": None}
        r, alpha = got
        lines = [
            f"quasi-automorphism: r = {r}",
            "alpha: " + "; ".join(_vec_str(row) for row in alpha),
        ]
        payload = {
            "quasi_automorphism": {
                "r": str(r),
                "alpha": [_j_vec(row) for row in alpha],
            }
        }
        return 0, lines, payload
    ok = automorphism_check(g, m)
    return 0, [f"automorphism: {str(ok).lower()}"], {"automorphism": ok}


def _cmd_quasi_eq(args):
    h = _group(args.file, args.name)
    g = _group(args.other, args.other_name)
    w = quasi_equal_strict(h, g)
    if w is None:
        return 0, ["strict: absent"], {"strict": None}
    return 0, [f"strict: r = {w.ratio}"], {"strict": str(w.ratio)}


def _cmd_commensurable(args):
    h = _group(args.file, args.name)
    g = _group(args.other, args.other_name)
    w = commensurable(h, g)
    if w is None:
        return 0, ["commensurable: absent"], {"commensurable": None}
    a, b = w.pair
    return 0, [f"commensurable: (a, b) = ({a}, {b})"], {"commensurable": [a, b]}


def _candidate_summands(g: GroupRep, text: str):
    return [
        group_rep(g.ambient_dim, [(v, ()) for v in block])
        for block in _vector_blocks(text)
    ]


def _jonsson_lines(basis):
    lines = []
    for i, (s, flag) in enumerate(basis.summands, start=1):
        lines.append(f"summand {i} [{flag.value}]:")
        lines.extend(_group_lines(s, "  "))
    q = basis.quotient
    lines.append(f"index: {q.order}")
    lines.append(f"quotient: {_quotient_str(q)}")
    lines.append(_images_line(q))
    return lines


def _images_line(q):
    """The quotient's generator images; the zero group has none."""
    images = "; ".join(_vec_str(t) for t in q.generator_images)
    return "generator images: " + (images or "none")


def _j_jonsson(basis):
    return {
        "summands": [
            {"flag": flag.value, "group": _j_group(s)} for s, flag in basis.summands
        ],
        "index": basis.index,
        "quotient": _j_quotient(basis.quotient),
    }


def _cmd_jonsson(args):
    g = _group(args.file, args.name)
    basis = jonsson_basis_from_summands(g, _candidate_summands(g, args.summands))
    return 0, _jonsson_lines(basis), {"jonsson": _j_jonsson(basis)}


def _cmd_regulating(args):
    g = _group(args.file, args.name)
    try:
        best, index = regulating_search(g, args.height)
    except NoJonssonBasisFound as e:
        print(f"{e} (height {args.height})", file=sys.stderr)
        return 2, [], {"height": args.height, "basis": None}
    lines = [
        f"index: {index}",
        f"exhaustive: true (height {args.height})",
    ] + _jonsson_lines(best)
    payload = {
        "index": index,
        "exhaustive": True,
        "height": args.height,
        "basis": _j_jonsson(best),
    }
    return 0, lines, payload


def _cmd_lift(args):
    g = _group(args.file, args.name)
    basis = jonsson_basis_from_summands(g, _candidate_summands(g, args.summands))
    report = lift_quotient_decomposition(
        g, basis, _int_rows(args.u), _int_rows(args.w)
    )
    payload = {"found": report.found, "groupings_searched": report.groupings_searched}
    if not report.found:
        lines = [
            "lift: refused (no grouping matches)",
            f"groupings searched: {report.groupings_searched}",
        ]
        return 0, lines, payload
    blocks = " | ".join(",".join(str(i + 1) for i in b) for b in report.blocks)
    lines = ["lift: found", f"blocks: {blocks}"]
    for i, s in enumerate(report.lifted, start=1):
        lines.append(f"lifted {i}:")
        lines.extend(_group_lines(s, "  "))
    payload["blocks"] = [[i + 1 for i in b] for b in report.blocks]
    payload["lifted"] = [_j_group(s) for s in report.lifted]
    return 0, lines, payload


def _cmd_quotient(args):
    g = _group(args.file, args.name)
    a = _group(args.other, args.other_name)
    d = index_and_quotient(g, a)
    if not d.is_finite:
        lines = [f"InfiniteTorsion(p={d.prime}, direction={_vec_str(d.direction)})"]
        return 0, lines, {"quotient": _j_description(d)}
    q = d.quotient
    lines = [
        _quotient_str(q),
        f"order: {q.order}",
        f"exponent: {q.exponent}",
        _images_line(q),
    ]
    return 0, lines, {"quotient": _j_description(d)}


def _cmd_si_check(args):
    g = _group(args.file, args.name)
    basis = basis_record(g, _vectors(args.basis))
    report = property_si_check(g, basis)
    lines = [report.verdict.value]
    hull_q = report.quotient
    if hull_q.is_finite:
        lines.append(f"hull quotient: {_quotient_str(hull_q.quotient)} (finite)")
    else:
        lines.append(
            f"hull quotient: InfiniteTorsion(p={hull_q.prime}, direction={_vec_str(hull_q.direction)})"
        )
    splits = [p for p, ok in report.split_attempts if ok]
    lines.append(f"partitions tried: {len(report.split_attempts)}, splitting: {len(splits)}")
    payload = {
        "verdict": report.verdict.value,
        "hull_quotient": _j_description(hull_q),
        "partitions_tried": len(report.split_attempts),
        "splitting_partitions": len(splits),
    }
    return 0, lines, payload


def _cmd_si_search(args):
    g = _group(args.file, args.name)
    cert = typeset_obstruction_certificate(g)
    witness = strong_decomposability_witness_search(g, args.height)
    lines = []
    payload = {"height": args.height, "bases_searched": witness.bases_searched}
    if witness.found:
        q = witness.report.quotient.quotient
        blocks = " | ".join(
            ",".join(_vec_str(witness.basis.elements[i]) for i in b)
            for b in witness.partition.blocks
        )
        lines.append(f"QuasiDecomposition ({witness.kind.value})")
        lines.append(f"blocks: {blocks}")
        lines.append(f"index: {q.order}")
        payload["witness"] = {
            "kind": witness.kind.value,
            "blocks": [[_j_vec(witness.basis.elements[i]) for i in b] for b in witness.partition.blocks],
            "index": q.order,
        }
        return 0, lines, payload
    lines.append(f"NoWitnessFound (height {args.height}, {witness.bases_searched} bases)")
    payload["witness"] = None
    if cert is not None:
        types = ", ".join(format_type(t) for t in cert.types)
        lines.append(f"certificate: types {{{types}}}")
        lines.append("certified: strongly indecomposable")
        payload["certificate"] = {
            "vectors": [_j_vec(v) for v in cert.vectors],
            "types": [format_type(t) for t in cert.types],
        }
        return 0, lines, payload
    payload["certificate"] = None
    # a quasi-decomposition needs two summands of rank >= 1, so a group of
    # rank at most 1 has none at any height
    return (2 if g.rank > 1 else 0), lines, payload


# -- verify ---------------------------------------------------------------------


def _verify_one(name: str, g: GroupRep, seed: str):
    rng = random.Random(seed)
    checks = 0
    failures = []

    def check(ok: bool, label: str):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(label)

    check(compare(g, g) is Compare.EQUAL, "compare(g, g) is Equal")
    round_trip = parse_group_file(format_group(name or "g", g))
    check(
        compare(g, next(iter(round_trip.values()))) is Compare.EQUAL,
        "format/parse round trip",
    )
    gens = [v for v, _s in g.generators]
    for v, s in g.generators:
        check(member(g, v), f"generator {_vec_str(v)} is a member")
        if not s.is_all and s.primes:
            p = s.primes[0]
            check(member(g, vscale(Fraction(1, p), v)), f"{_vec_str(v)}/{p} is a member")
    for _ in range(4 if gens else 0):
        x = vec((0,) * g.ambient_dim)
        for v in gens:
            x = vadd(x, vscale(rng.randint(-2, 2), v))
        if rng.random() < 0.5:
            x = vscale(Fraction(1, rng.choice((2, 3, 5))), x)
        exact = member(g, x)
        brute = brute_force_member(g, x, sufficient_exponent(g, x))
        check(exact == brute, f"oracle agreement at {_vec_str(x)}")
    if gens:
        space = Subspace.span([gens[0]], g.ambient_dim)
        p = purify(g, space)
        check(subgroup_leq(p, g), "purification is a subgroup")
        check(p.span == space, "purification spans its input line")
    if g.rank:
        rows = g.lattice_hull.rows
        check(is_basis(g, rows), "lattice hull rows form a basis")
        basis = basis_record(g, rows)
        check(minimal_multiplier(g, rows) >= 1, "minimal multiplier is positive")
        target = gens[rng.randrange(len(gens))]
        rep = b_representation(g, basis, target)
        check(rep.vector(basis) == vec(target), "B-representation reconstructs")
    return name, checks, failures


def _cmd_verify(args):
    if args.file:
        groups = list(_load_groups(args.file).items())
    else:
        profile = args.profile or "mixed"
        if profile not in PROFILES:
            raise CliError(f"unknown profile: {profile}")
        groups = []
        for i in range(args.count):
            sample = generate(profile, args.seed + i)
            groups.append((f"{profile}-{args.seed + i}", sample.group))
    results = [
        _verify_one(name, g, f"verify:{args.seed}:{i}") for i, (name, g) in enumerate(groups)
    ]
    lines = []
    payload = {"groups": [], "all_ok": True}
    total = 0
    code = 0
    for name, checks, failures in results:
        total += checks
        if failures:
            code = 1
            payload["all_ok"] = False
            lines.append(f"{name}: FAIL ({len(failures)}/{checks} checks)")
            for f in failures:
                lines.append(f"  failed: {f}")
        else:
            lines.append(f"{name}: ok ({checks} checks)")
        payload["groups"].append(
            {"name": name, "ok": not failures, "checks": checks, "failures": failures}
        )
    lines.append(
        f"{'all ok' if code == 0 else 'FAILURES'} ({len(results)} groups, {total} checks)"
    )
    payload["total_checks"] = total
    return code, lines, payload


# -- wiring ---------------------------------------------------------------------


# Built on the first call and shared: parsing leaves the tree as it was (each
# parse fills a fresh Namespace, and no action appends or has a mutable default).
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="torsionfree", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *arguments):
        """A command on one group file: the file, the given arguments, then
        --name and --json.  A str is a positional argument, or a required
        option when it starts with "--"; a (flag, kwargs) pair is an option."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("file")
        for arg in arguments:
            if isinstance(arg, tuple):
                sp.add_argument(arg[0], **arg[1])
            elif arg.startswith("--"):
                sp.add_argument(arg, required=True)
            else:
                sp.add_argument(arg)
        sp.add_argument("--name", help="group name within the file (default: first)")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.set_defaults(fn=fn)

    def height(default):
        return ("--height", {"type": _int_at_least(1), "default": default})

    oracle = (("--oracle", {"action": "store_true"}), ("--bound", {"type": _int_at_least(0)}))
    other = ("other", ("--other-name", {}))
    command("member", _cmd_member, "membership of a vector", "vector", *oracle)
    command("type", _cmd_type, "divisibility type of an element", "vector")
    command("purify", _cmd_purify, "pure hull of a subspace", "vectors", *oracle)
    command("basis-check", _cmd_basis_check, "is the tuple a basis of the group", "--basis")
    command("minmul", _cmd_minmul, "minimal multiplier of a span basis", "--basis")
    command("brep", _cmd_brep, "B-representation of an element", "vector", "--basis")
    command("split", _cmd_split, "classify a basis partition", "--basis", "--partition")
    command(
        "decompose", _cmd_decompose, "bounded complete-decomposition search", height(1),
        ("--max-blocks", {"type": _int_at_least(2), "default": None}),
    )
    command("iso", _cmd_iso, "compare two decompositions given by blocks", "--first", "--second")
    command(
        "aut-check", _cmd_aut_check, "verify a span matrix as (quasi-)automorphism",
        "--matrix", ("--quasi", {"action": "store_true"}),
    )
    command("quasi-eq", _cmd_quasi_eq, "strict quasi-equality witness", *other)
    command("commensurable", _cmd_commensurable, "mutual finite-index witness", *other)
    command("jonsson", _cmd_jonsson, "build a Jonsson basis from summand spans", "--summands")
    command("regulating", _cmd_regulating, "minimal-index Jonsson basis search", height(2))
    command("lift", _cmd_lift, "lift a quotient decomposition", "--summands", "--u", "--w")
    command("quotient", _cmd_quotient, "G/A invariant factors or infinite witness", *other)
    command("si-check", _cmd_si_check, "Property SI for one basis", "--basis")
    command("si-search", _cmd_si_search, "certificate plus bounded witness search", height(2))

    sp = sub.add_parser("verify", help="run the property suite on a file or corpus")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--profile", choices=PROFILES)
    sp.add_argument("--count", type=_int_at_least(1), default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, lines, payload = args.fn(args)
    except (CliError, ValueError) as e:
        # ParseError, GroupError and InfiniteIndexError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, AssertionError) as e:
        # the package's own consistency checks: report, never a traceback
        print(f"error: internal error: {e}", file=sys.stderr)
        return 1
    if args.json:
        report = {"command": args.command, "result": payload}
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
