"""Finite quotients, quasi-equality and multipliers on fixed groups stay byte for byte.

``quotient_dump.py`` says what the dump holds and how to regenerate it.
"""

from pathlib import Path

from golden_lines import assert_matches_golden
from quotient_dump import dump_lines

GOLDEN = Path(__file__).resolve().parent / "golden" / "quotient-corpus.txt"


def test_quotient_answers_match_the_golden():
    assert_matches_golden(dump_lines(), GOLDEN)
