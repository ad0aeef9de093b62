"""Byte-for-byte comparison of a text dump with its golden file.

A mismatch names the first line that differs, with its number, the expected
text and the actual text, in place of a truncated diff of the whole file.
"""

from __future__ import annotations

from itertools import zip_longest
from pathlib import Path

import pytest


def first_difference(expected: str, actual: str) -> str | None:
    """None when the texts are equal, else a report of their first differing line.

    Splitting at newlines loses nothing, so the texts differ exactly when
    some line does.
    """
    pairs = zip_longest(expected.split("\n"), actual.split("\n"))
    for number, (want, got) in enumerate(pairs, 1):
        if want != got:
            return (
                f"line {number} differs\n"
                f"  expected: {'<end of file>' if want is None else repr(want)}\n"
                f"  actual:   {'<end of file>' if got is None else repr(got)}"
            )
    return None


def assert_matches_golden(lines: list[str], golden: Path) -> None:
    """The dump lines, joined and newline-terminated, equal the golden file."""
    report = first_difference(golden.read_text(encoding="utf-8"), "\n".join(lines) + "\n")
    if report is not None:
        pytest.fail(f"{golden.name}: {report}", pytrace=False)
