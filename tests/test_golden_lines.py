"""The corpus-golden comparison reports the first line that differs."""

import pytest

from golden_lines import assert_matches_golden, first_difference


def test_equal_texts_have_no_difference():
    assert first_difference("a\nb\n", "a\nb\n") is None
    assert first_difference("", "") is None


def test_names_the_first_differing_line():
    assert first_difference("a\nb\nc\n", "a\nx\ny\n") == "line 2 differs\n  expected: 'b'\n  actual:   'x'"


def test_a_missing_line_reads_as_the_end_of_the_file():
    assert first_difference("a\nb", "a") == "line 2 differs\n  expected: 'b'\n  actual:   <end of file>"
    # a missing final newline still differs
    assert first_difference("a\n", "a") == "line 2 differs\n  expected: ''\n  actual:   <end of file>"


def test_a_mismatch_fails_with_the_report(tmp_path):
    golden = tmp_path / "dump.txt"
    golden.write_text("one\ntwo\n", encoding="utf-8")
    assert_matches_golden(["one", "two"], golden)
    with pytest.raises(pytest.fail.Exception, match="dump.txt: line 2 differs"):
        assert_matches_golden(["one", "three"], golden)
