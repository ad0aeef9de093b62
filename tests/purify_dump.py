"""A text dump of pure hulls and pruned presentations on fixed corpus groups.

For every corpus group (each profile, seeds 0-24, ``max_rank`` 2 and 3) it
records ``purify`` of the line through each generator, of the plane through
each pair of generators, of W_p for each tagged prime p and of W_ALL, and
``simplify_presentation`` of the group itself.  Each hull is written as its
generators in order, so the dump fixes the presentation, not just the group.
``tests/golden/purify-corpus.txt`` holds the dump, and
``test_purify_golden.py`` compares against it byte for byte, so a change to
purification or pruning must leave every presentation as it was.

Regenerate the golden (only when an answer is meant to change) with

    PYTHONPATH=src python tests/purify_dump.py > tests/golden/purify-corpus.txt
"""

from __future__ import annotations

from itertools import combinations

from torsionfree.corpus import PROFILES, generate
from torsionfree.fileformat import format_prime_set
from torsionfree.groups import purify, simplify_presentation
from torsionfree.linalg import Subspace

CORPUS = tuple((p, seed, r) for r in (2, 3) for p in PROFILES for seed in range(25))


def _vec(v) -> str:
    return "(%s)" % ", ".join(str(e) for e in v)


def _group(g) -> str:
    return "; ".join(f"{_vec(v)} inv {format_prime_set(s)}" for v, s in g.generators) or "0"


def group_lines(label: str, g) -> list[str]:
    out = [f"== {label}: rank {g.rank}, {_group(g)}"]
    vectors = [v for v, _s in g.generators]
    for i, v in enumerate(vectors):
        out.append(f"line {i}: {_group(purify(g, Subspace.span([v], g.ambient_dim)))}")
    for i, j in combinations(range(len(vectors)), 2):
        plane = Subspace.span([vectors[i], vectors[j]], g.ambient_dim)
        out.append(f"pair {i} {j}: {_group(purify(g, plane))}")
    for p in g.tagged_primes:
        out.append(f"W_{p}: {_group(purify(g, g.divisible_directions(p)))}")
    out.append(f"W_ALL: {_group(purify(g, g.divisible_directions()))}")
    out.append(f"simplified: {_group(simplify_presentation(g))}")
    return out


def dump_lines() -> list[str]:
    lines = []
    for profile, seed, max_rank in CORPUS:
        g = generate(profile, seed, max_rank=max_rank).group
        lines.extend(group_lines(f"{profile}:{seed} max_rank {max_rank}", g))
    return lines


if __name__ == "__main__":
    print("\n".join(dump_lines()))
