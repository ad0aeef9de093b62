from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from strategies import group_reps
from torsionfree.fileformat import (
    ParseError,
    format_group,
    format_group_file,
    format_prime_set,
    parse_group_file,
)
from torsionfree.groups import Compare, compare, group_rep
from torsionfree.rank1 import ALL, prime_set

SAMPLE = """\
# the half-diagonal example
group G3 ambient 2
gen [1, 0] inv {3}
gen [0, 1] inv {5}
gen [1/2, 1/2] inv {}

group free ambient 1
gen [1] inv ALL
"""


class TestParse:
    def test_two_groups(self):
        groups = parse_group_file(SAMPLE)
        assert list(groups) == ["G3", "free"]
        assert groups["G3"].rank == 2
        assert groups["free"].generators[0][1] is ALL or groups["free"].generators[0][1].is_all

    def test_comments_and_blank_lines(self):
        text = "# leading\n\ngroup g ambient 1\n# inside\ngen [2] inv {}\n"
        groups = parse_group_file(text)
        assert compare(groups["g"], group_rep(1, [((2,), ())])) is Compare.EQUAL

    def test_empty_group_is_the_zero_group(self):
        groups = parse_group_file("group z ambient 3\n")
        assert groups["z"].rank == 0

    def test_duplicate_name(self):
        text = "group g ambient 1\ngroup g ambient 1\n"
        with pytest.raises(ParseError) as e:
            parse_group_file(text)
        assert "line 2" in str(e.value)

    def test_bad_ambient(self):
        with pytest.raises(ParseError):
            parse_group_file("group g ambient 0\n")

    def test_gen_outside_group(self):
        with pytest.raises(ParseError) as e:
            parse_group_file("gen [1] inv {}\n")
        assert "line 1" in str(e.value)

    def test_vector_length_mismatch(self):
        with pytest.raises(ParseError):
            parse_group_file("group g ambient 2\ngen [1] inv {}\n")

    def test_composite_in_prime_set(self):
        with pytest.raises(ParseError) as e:
            parse_group_file("group g ambient 1\ngen [1] inv {4}\n")
        assert "4" in str(e.value)

    def test_large_prime_in_prime_set(self):
        g = parse_group_file("group g ambient 1\ngen [1] inv {1000000000000000003}\n")["g"]
        assert g.tagged_primes == (1000000000000000003,)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse_group_file("group g ambient 1\ngen [x] inv {}\n")
        assert e.value.line == 2
        assert e.value.col > 1


    @pytest.mark.parametrize(
        "token", ["1e200000", "1_0", "1.5", "0x10", "1/0", "1/-2", "--1", "+", "1/"]
    )
    def test_rational_tokens_are_digits_over_digits(self, token):
        with pytest.raises(ParseError) as e:
            parse_group_file(f"group g ambient 2\ngen [1, {token}] inv {{}}\n")
        assert f"bad rational {token!r}" in str(e.value)
        assert e.value.line == 2

    def test_signed_rational_tokens_parse(self):
        g = parse_group_file("group g ambient 3\ngen [+3/4, -2, 007] inv {}\n")["g"]
        assert g.generators[0][0] == (F(3, 4), F(-2), F(7))


class TestFormat:
    def test_prime_sets(self):
        assert format_prime_set(ALL) == "ALL"
        assert format_prime_set(prime_set((3, 2))) == "{2,3}"
        assert format_prime_set(prime_set(())) == "{}"

    def test_format_group(self):
        g = group_rep(2, [((F(1, 2), 0), (2,))])
        assert format_group("h", g) == "group h ambient 2\ngen [1/2, 0] inv {2}\n"

    def test_file_round_trip_is_bit_exact(self):
        groups = parse_group_file(SAMPLE)
        text = format_group_file(groups)
        assert parse_group_file(text) == parse_group_file(format_group_file(parse_group_file(text)))


@settings(max_examples=80, deadline=None)
@given(group_reps(max_gens=3))
def test_round_trip_preserves_the_group(g):
    text = format_group("sample", g)
    back = parse_group_file(text)["sample"]
    assert compare(back, g) is Compare.EQUAL


@settings(max_examples=40, deadline=None)
@given(group_reps(max_gens=2))
def test_formatting_is_canonical(g):
    text = format_group("sample", g)
    again = format_group("sample", parse_group_file(text)["sample"])
    assert text == again
