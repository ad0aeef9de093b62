"""A text dump of the bounded searches' answers on fixed corpus groups.

For every group it records the witness search (found, kind, bases searched,
basis, blocks, summand generators and index), the complete decomposition
search with its flags, the rank-2 typeset certificate, and the regulating
search (index, invariant factors and summands).  ``tests/golden/
search-corpus.txt`` holds the dump, and ``test_search_golden.py`` compares
against it byte for byte, so a change to any search must leave every answer
as it was.

Regenerate the golden (only when an answer is meant to change) with

    PYTHONPATH=src python tests/search_dump.py > tests/golden/search-corpus.txt
"""

from __future__ import annotations

from pathlib import Path

from torsionfree.corpus import PROFILES, generate
from torsionfree.decomp import complete_decomposition_search
from torsionfree.fileformat import format_prime_set, parse_group_file
from torsionfree.groups import GroupError
from torsionfree.indec import strong_decomposability_witness_search, typeset_obstruction_certificate
from torsionfree.jonsson import regulating_search

# (profile, seed, max_rank, decompose): every rank <= 2 group of seeds 0-9,
# and rank-3 groups on which the searches stay short; decompose walks every
# partition of every basis, so it runs on two rank-3 groups only
CORPUS = tuple((p, seed, 2, True) for p in PROFILES for seed in range(10)) + tuple(
    ("cd", seed, 3, seed in (7, 11)) for seed in (3, 5, 6, 7, 11)
) + (("acd", 0, 3, False),)


def _vec(v) -> str:
    return "(%s)" % ", ".join(str(e) for e in v)


def _group(g) -> str:
    return "; ".join(f"{_vec(v)} inv {format_prime_set(s)}" for v, s in g.generators) or "0"


def _factors(q) -> str:
    return " x ".join(f"Z/{d}" for d in q.invariant_factors) or "trivial"


def group_lines(label: str, g, decompose: bool = True) -> list[str]:
    out = [f"== {label}: rank {g.rank}, {_group(g)}"]
    w = strong_decomposability_witness_search(g, 1)
    if w.found:
        q = w.report.quotient.quotient
        blocks = " | ".join(",".join(str(i + 1) for i in b) for b in w.partition.blocks)
        out.append(f"witness: {w.kind.value} after {w.bases_searched} bases, index {q.order}")
        out.append(f"  basis {'; '.join(_vec(b) for b in w.basis.elements)}, blocks {blocks}")
        out.extend(f"  summand {_group(s)}" for s in w.report.summands)
    else:
        out.append(f"witness: none in {w.bases_searched} bases")
    if decompose:
        found = complete_decomposition_search(g, height_bound=1)
        out.append(f"decompose: {len(found)} found")
        for record in found:
            out.append("  " + ", ".join(f.value for f in record.flags))
            out.extend(f"    {_group(s)}" for s in record.summands)
    cert = typeset_obstruction_certificate(g)
    if cert is None:
        out.append("certificate: none")
    else:
        out.append("certificate: " + ", ".join(f"{_vec(v)} {t}" for v, t in zip(cert.vectors, cert.types)))
    try:
        best, index = regulating_search(g, 1)
    except GroupError as e:
        out.append(f"regulating: {e}")
    else:
        out.append(f"regulating: index {index}, {_factors(best.quotient)}")
        out.extend(f"  {_group(s)}" for s in best.summand_groups)
    return out


DATA = Path(__file__).resolve().parent / "data"
# rank-2 groups with three or more divisible lines, where the typeset
# certificate has something to find
LINES = """
group L4 ambient 2
gen [1, 0] inv {2}
gen [0, 1] inv {3}
gen [1, 1] inv {5}
gen [1, -1] inv {7}
group L3 ambient 2
gen [1, 0] inv {2,3}
gen [0, 1] inv {3}
gen [1, 2] inv {5}
group L3ALL ambient 2
gen [1, 0] inv {2}
gen [0, 1] inv {3}
gen [1, 1] inv {5}
gen [1, 3] inv ALL
"""


def dump_lines() -> list[str]:
    lines = []
    for path in sorted(DATA.glob("*.grp")):
        for name, g in parse_group_file(path.read_text(encoding="utf-8")).items():
            lines.extend(group_lines(f"{path.name} {name}", g))
    for name, g in parse_group_file(LINES).items():
        lines.extend(group_lines(name, g))
    for profile, seed, max_rank, decompose in CORPUS:
        g = generate(profile, seed, max_rank=max_rank).group
        if g.rank:
            lines.extend(group_lines(f"{profile}:{seed} max_rank {max_rank}", g, decompose))
    return lines


if __name__ == "__main__":
    print("\n".join(dump_lines()))
