import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsionfree.numutil import factorize, valuation
from torsionfree.rank1 import (
    ALL,
    NO_PRIMES,
    TYPE_Q,
    TYPE_Z,
    div_type,
    format_type,
    parse_type,
    prime_set,
    scale_type,
    type_eq,
    type_join,
    type_leq,
    type_meet,
)

multipliers = st.integers(min_value=1, max_value=360)
finite_sets = st.sets(st.sampled_from((2, 3, 5, 7)), max_size=3)


@st.composite
def types(draw, allow_q: bool = True):
    if allow_q and draw(st.booleans()) and draw(st.booleans()):
        return TYPE_Q
    return div_type(draw(multipliers), prime_set(draw(finite_sets)))


class TestCanonicalForm:
    def test_multiplier_absorbs_inverted_primes(self):
        t = div_type(12, prime_set([2]))
        assert t.multiplier == 3
        assert 2 in t.inverted

    def test_q_has_no_multiplier(self):
        with pytest.raises(ValueError):
            parse_type("1/2 Q")

    def test_contains(self):
        t = div_type(2, prime_set([3]))  # (1/2) Z[3]
        assert t.contains(Fraction(1, 2))
        assert t.contains(Fraction(1, 18))
        assert not t.contains(Fraction(1, 4))


class TestFormatting:
    @pytest.mark.parametrize(
        "text,mult,primes",
        [
            ("Z", 1, ()),
            ("Q", 1, "ALL"),
            ("Z[2,3]", 1, (2, 3)),
            ("1/2 Z", 2, ()),
            ("1/6 Z[5]", 6, (5,)),
        ],
    )
    def test_parse(self, text, mult, primes):
        t = parse_type(text)
        assert t.multiplier == mult
        assert t.inverted == prime_set(primes)

    @pytest.mark.parametrize("text", ["Z", "Q", "Z[2,3]", "1/2 Z", "1/6 Z[5]"])
    def test_round_trip(self, text):
        assert format_type(parse_type(text)) == text

    @given(types())
    def test_round_trip_random(self, t):
        assert type_eq(parse_type(format_type(t)), t)

    @pytest.mark.parametrize("bad", ["Z[4]", "1/0 Z", "Q[2]", "", "1/2 Q", "Z[2,2]"])
    def test_rejects_noncanonical(self, bad):
        with pytest.raises(ValueError):
            parse_type(bad)


class TestOrder:
    def test_examples(self):
        assert type_leq(TYPE_Z, TYPE_Q)
        assert type_leq(TYPE_Z, parse_type("Z[2]"))
        assert not type_leq(parse_type("Z[2]"), parse_type("Z[3]"))
        assert type_leq(parse_type("Z"), parse_type("1/2 Z"))
        assert not type_leq(parse_type("1/2 Z"), parse_type("Z"))
        assert type_leq(parse_type("1/4 Z"), parse_type("Z[2]"))

    @given(types(), types())
    def test_antisymmetry(self, a, b):
        if type_leq(a, b) and type_leq(b, a):
            assert type_eq(a, b)

    @given(types(), types(), types())
    def test_transitivity(self, a, b, c):
        if type_leq(a, b) and type_leq(b, c):
            assert type_leq(a, c)


class TestLattice:
    def test_examples(self):
        assert type_eq(type_meet(parse_type("Z[2]"), parse_type("Z[3]")), TYPE_Z)
        assert type_eq(
            type_join(parse_type("Z[2]"), parse_type("Z[3]")), parse_type("Z[2,3]")
        )
        assert type_eq(
            type_meet(parse_type("1/4 Z[3]"), parse_type("1/6 Z")), parse_type("1/6 Z")
        )
        assert type_eq(type_meet(TYPE_Q, parse_type("1/2 Z")), parse_type("1/2 Z"))
        assert type_eq(type_join(TYPE_Q, parse_type("1/2 Z")), TYPE_Q)

    @given(types(), types())
    def test_meet_is_glb(self, a, b):
        m = type_meet(a, b)
        assert type_leq(m, a) and type_leq(m, b)

    @given(types(), types())
    def test_join_is_ub(self, a, b):
        j = type_join(a, b)
        assert type_leq(a, j) and type_leq(b, j)

    @given(types(), types())
    def test_absorption(self, a, b):
        assert type_eq(type_join(a, type_meet(a, b)), a)
        assert type_eq(type_meet(a, type_join(a, b)), a)

    @given(types(), types(), types())
    def test_meet_associative(self, a, b, c):
        assert type_eq(type_meet(type_meet(a, b), c), type_meet(a, type_meet(b, c)))


def factoring_meet(a, b):
    """type_meet by factoring a.m * b.m, prime by prime."""
    if a.inverted.is_all:
        return b
    if b.inverted.is_all:
        return a
    s = a.inverted.intersect(b.inverted)
    m = 1
    for p in factorize(a.multiplier * b.multiplier):
        if p in s:
            continue
        va, vb = valuation(a.multiplier, p), valuation(b.multiplier, p)
        m *= p ** (vb if p in a.inverted else va if p in b.inverted else min(va, vb))
    return div_type(m, s)


def factoring_join(a, b):
    """type_join by factoring a.m * b.m, prime by prime."""
    if a.inverted.is_all or b.inverted.is_all:
        return TYPE_Q
    s = a.inverted.union(b.inverted)
    m = 1
    for p in factorize(a.multiplier * b.multiplier):
        if p not in s:
            m *= p ** max(valuation(a.multiplier, p), valuation(b.multiplier, p))
    return div_type(m, s)


wide_types = st.builds(
    div_type,
    st.integers(min_value=1, max_value=10**5),
    st.sets(st.sampled_from((2, 3, 5, 7, 11)), max_size=4),
)


@given(st.one_of(types(), wide_types), st.one_of(types(), wide_types))
def test_meet_and_join_match_the_factoring_versions(a, b):
    assert type_meet(a, b) == factoring_meet(a, b)
    assert type_join(a, b) == factoring_join(a, b)


def test_meet_and_join_with_a_31_digit_multiplier():
    # 10^30 + 57 is prime; trial division of it would not finish
    code = (
        "from torsionfree.rank1 import div_type, format_type, type_join, type_meet\n"
        "a, b = div_type(10**30 + 57, ()), div_type(2, (3,))\n"
        "print(format_type(type_join(a, b)), '|', format_type(type_meet(a, b)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 0
    assert done.stdout == "1/2000000000000000000000000000114 Z[3] | Z\n"


class TestScale:
    def test_multiplier_clears(self):
        # scaling (1/3) Z[2] by 3 gives Z[2]
        assert type_eq(scale_type(div_type(3, prime_set([2])), 3), parse_type("Z[2]"))

    def test_scale_q_invariant(self):
        assert type_eq(scale_type(TYPE_Q, Fraction(7, 3)), TYPE_Q)

    def test_scale_by_inverted_prime_is_identity(self):
        t = parse_type("Z[2]")
        assert type_eq(scale_type(t, 2), t)
        assert type_eq(scale_type(t, Fraction(1, 2)), t)

    def test_non_unit_form_rejected(self):
        # 3 * Z = 3Z does not contain 1, so it is not of the form (1/m) Z[S]
        with pytest.raises(ValueError):
            scale_type(TYPE_Z, 3)

    @given(types(allow_q=False), st.sampled_from([2, 3, 5, 7]))
    def test_scale_round_trip(self, t, p):
        # dividing by p stays in unit form, and multiplying back recovers t
        assert type_eq(scale_type(scale_type(t, Fraction(1, p)), p), t)
