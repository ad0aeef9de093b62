"""Finite quotients, quasi-equality and multipliers on fixed groups stay byte for byte.

``quotient_dump.py`` says what the dump holds and how to regenerate it.
"""

from pathlib import Path

import quotient_dump
from golden_lines import assert_matches_golden
from quotient_dump import dump_lines
from torsionfree.groups import index_and_quotient
from torsionfree.linalg import apply_matrix, hermite_basis, mat, mat_inverse

GOLDEN = Path(__file__).resolve().parent / "golden" / "quotient-corpus.txt"


def test_quotient_answers_match_the_golden():
    assert_matches_golden(dump_lines(), GOLDEN)


def eager_sections(q):
    """The sections as built with each part: a Hermite transform and V^-1 per part."""
    g = q.group
    hull = g.lattice_hull.rows
    sections = []
    for p, exps, v in q._parts:
        w = g.divisible_directions(g.prime_key(p))
        _basis, transform = hermite_basis([w.reduce(r) for r in hull])
        v_inv = mat_inverse(mat(v))
        sections += [apply_matrix(apply_matrix(v_inv[i], transform), hull) for _e, i in exps]
    return tuple(sections)


def test_images_and_sections_are_computed_when_read(monkeypatch):
    quotients = []

    def recording(g, a):
        description = index_and_quotient(g, a)
        if description.is_finite:
            q = description.quotient
            assert "generator_images" not in vars(q) and "_sections" not in vars(q)
            quotients.append(q)
        return description

    monkeypatch.setattr(quotient_dump, "index_and_quotient", recording)
    dump_lines()
    assert len(quotients) > 300
    for q in quotients:
        assert q.generator_images == tuple(q.image(v) for v, _s in q.group.generators)
        assert q.section_vectors() == eager_sections(q)
