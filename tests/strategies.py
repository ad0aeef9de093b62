"""Shared hypothesis strategies for small groups and vectors."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from torsionfree.groups import GroupRep, group_rep
from torsionfree.rank1 import ALL, NO_PRIMES, PrimeSet, prime_set

SMALL_PRIMES = (2, 3, 5)


def small_fractions(max_num: int = 3, max_den: int = 6):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def vectors(dim: int, max_num: int = 3, max_den: int = 6):
    return st.tuples(*([small_fractions(max_num, max_den)] * dim))


def prime_sets(allow_all: bool = True):
    finite = st.sets(st.sampled_from(SMALL_PRIMES), max_size=2).map(
        lambda s: prime_set(sorted(s))
    )
    if not allow_all:
        return finite
    return st.one_of(finite, st.just(ALL))


@st.composite
def group_reps(draw, ambient: int = 2, max_gens: int = 3, allow_all: bool = True):
    count = draw(st.integers(min_value=1, max_value=max_gens))
    gens = []
    for _ in range(count):
        v = draw(vectors(ambient))
        s = draw(prime_sets(allow_all))
        gens.append((v, s))
    g = group_rep(ambient, gens)
    return g


@st.composite
def nonzero_group_reps(draw, ambient: int = 2, max_gens: int = 3, allow_all: bool = True):
    g = draw(group_reps(ambient, max_gens, allow_all))
    if g.rank == 0:
        g = group_rep(ambient, [((1,) + (0,) * (ambient - 1), NO_PRIMES)])
    return g


def integer_matrices(rows: int, cols: int, bound: int = 5):
    return st.lists(
        st.lists(st.integers(min_value=-bound, max_value=bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def unimodular_matrices(draw, n: int, steps: int = 4):
    """Integer n x n matrices of determinant +-1: the identity under random
    row additions, swaps and negations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=steps)) if n > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add":
            c = draw(st.integers(min_value=-2, max_value=2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return tuple(tuple(row) for row in m)
