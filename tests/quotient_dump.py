"""A text dump of finite quotients, quasi-equality and minimal multipliers.

For every group it records ``index_and_quotient`` against the corpus base
(for corpus groups), 6*G, 4*G and the lattice hull taken as a plain group:
invariant factors, generator images, section vectors, the images of the
hull rows, or the infinite-torsion witness.  It also records
``quasi_equal_strict`` in both directions against 2*G, 3*G and (5/6)*G,
``quasi_equal_strict`` and ``commensurable`` between the corpus base and the
group (and 5/6 of the base), and ``minimal_multiplier`` on the hull rows and
on two rescaled bases.
``tests/golden/quotient-corpus.txt`` holds the dump, and
``test_quotient_golden.py`` compares against it byte for byte, so a change to
the quotient, quasi-equality or multiplier code must leave every answer as it
was.

Regenerate the golden (only when an answer is meant to change) with

    PYTHONPATH=src python tests/quotient_dump.py > tests/golden/quotient-corpus.txt
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from torsionfree.bases import minimal_multiplier
from torsionfree.corpus import PROFILES, generate
from torsionfree.fileformat import format_prime_set, parse_group_file
from torsionfree.groups import group_rep, index_and_quotient, scale_group, subgroup_leq
from torsionfree.linalg import vscale
from torsionfree.quasi import commensurable, quasi_equal_strict
from torsionfree.rank1 import NO_PRIMES

CORPUS = tuple((p, seed) for p in PROFILES for seed in range(25))
DATA = Path(__file__).resolve().parent / "data"


def _vec(v) -> str:
    return "(%s)" % ", ".join(str(e) for e in v)


def _group(g) -> str:
    return "; ".join(f"{_vec(v)} inv {format_prime_set(s)}" for v, s in g.generators) or "0"


def quotient_lines(label: str, g, a) -> list[str]:
    desc = index_and_quotient(g, a)
    if not desc.is_finite:
        return [f"{label}: infinite at {desc.prime} along {_vec(desc.direction)}"]
    q = desc.quotient
    factors = " x ".join(f"Z/{d}" for d in q.invariant_factors) or "trivial"
    out = [f"{label}: {factors}, order {q.order}, exponent {q.exponent}"]
    out.append("  generator images " + "; ".join(_vec(i) for i in q.generator_images))
    out.append("  sections " + ("; ".join(_vec(s) for s in q.section_vectors()) or "none"))
    out.append("  hull images " + "; ".join(_vec(q.image(r)) for r in g.lattice_hull.rows))
    return out


def _quasi(w) -> str:
    return "none" if w is None else str(w.ratio if w.pair is None else w.pair)


def group_lines(label: str, g, base=None) -> list[str]:
    out = [f"== {label}: rank {g.rank}, {_group(g)}"]
    hull = g.lattice_hull.rows
    if base is not None:
        out.extend(quotient_lines("quotient by base", g, base))
    out.extend(quotient_lines("quotient by 6G", g, scale_group(g, 6)))
    out.extend(quotient_lines("quotient by 4G", g, scale_group(g, 4)))
    out.extend(quotient_lines("quotient by hull", g, group_rep(g.ambient_dim, [(r, NO_PRIMES) for r in hull])))
    for r in (Fraction(2), Fraction(3), Fraction(5, 6)):
        h = scale_group(g, r)
        out.append(f"strict {r}G: {_quasi(quasi_equal_strict(g, h))} / {_quasi(quasi_equal_strict(h, g))}")
    if base is not None:
        out.append(f"strict base: {_quasi(quasi_equal_strict(base, g))}")
        out.append(f"commensurable base: {_quasi(commensurable(base, g))}")
        out.append(f"commensurable 5/6 base: {_quasi(commensurable(g, scale_group(base, Fraction(5, 6))))}")
    rescaled = [vscale(Fraction(i + 1, 210), r) for i, r in enumerate(hull)]
    powers = [vscale(Fraction(i + 1, 8 * 9 ** (i + 1)), r) for i, r in enumerate(hull)]
    out.append(
        f"multiplier hull {minimal_multiplier(g, hull)}, rescaled {minimal_multiplier(g, rescaled)}"
        f", powers {minimal_multiplier(g, powers)}"
    )
    return out


def dump_lines() -> list[str]:
    lines = []
    for path in sorted(DATA.glob("*.grp")):
        groups = parse_group_file(path.read_text(encoding="utf-8"))
        for name, g in groups.items():
            if not g.rank:
                continue
            lines.extend(group_lines(f"{path.name} {name}", g))
            for other, a in groups.items():
                if other != name and a.ambient_dim == g.ambient_dim and a.span == g.span and subgroup_leq(a, g):
                    lines.extend(quotient_lines(f"quotient by {other}", g, a))
    for profile, seed in CORPUS:
        sample = generate(profile, seed, max_rank=3)
        if sample.group.rank:
            lines.extend(group_lines(f"{profile}:{seed}", sample.group, sample.base))
    return lines


if __name__ == "__main__":
    print("\n".join(dump_lines()))
