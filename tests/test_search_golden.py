"""The bounded searches' answers on fixed corpus groups stay byte for byte.

``search_dump.py`` says what the dump holds and how to regenerate it.
"""

from pathlib import Path

from golden_lines import assert_matches_golden
from search_dump import dump_lines

GOLDEN = Path(__file__).resolve().parent / "golden" / "search-corpus.txt"


def test_search_answers_match_the_golden():
    assert_matches_golden(dump_lines(), GOLDEN)
