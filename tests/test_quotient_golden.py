"""Finite quotients, quasi-equality and multipliers on fixed groups stay byte for byte.

``quotient_dump.py`` says what the dump holds and how to regenerate it.
"""

from pathlib import Path

from quotient_dump import dump_lines

GOLDEN = Path(__file__).resolve().parent / "golden" / "quotient-corpus.txt"


def test_quotient_answers_match_the_golden():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert "\n".join(dump_lines()) + "\n" == expected
