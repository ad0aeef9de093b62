"""Pure hulls and pruned presentations on fixed groups stay byte for byte.

``purify_dump.py`` says what the dump holds and how to regenerate it.
"""

from pathlib import Path

from golden_lines import assert_matches_golden
from purify_dump import dump_lines

GOLDEN = Path(__file__).resolve().parent / "golden" / "purify-corpus.txt"


def test_purify_answers_match_the_golden():
    assert_matches_golden(dump_lines(), GOLDEN)
