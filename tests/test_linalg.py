"""The fraction-free SpanBuilder against the Fraction one it replaced."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhuforge.linalg import SpanBuilder, integral

ZERO = Fraction(0)


class FractionSpan:
    """The Fraction SpanBuilder as it was, rows normalized to pivot 1.

    It takes Fraction vectors only: on int entries x / lead is a float.
    """

    def __init__(self, keyfn=None):
        self.keyfn = keyfn if keyfn is not None else (lambda c: c)
        self.rows: dict = {}

    def reduce(self, vec: dict):
        vec = {c: x for c, x in vec.items() if x}
        while vec:
            p = max(vec, key=self.keyfn)
            row = self.rows.get(p)
            if row is None:
                return vec, p
            c = vec[p]
            for coord, rx in row.items():
                nx = vec.get(coord, ZERO) - c * rx
                if nx:
                    vec[coord] = nx
                else:
                    vec.pop(coord, None)
        return {}, None

    def add(self, vec: dict) -> bool:
        vec, p = self.reduce(vec)
        if p is None:
            return False
        lead = vec[p]
        self.rows[p] = {c: x / lead for c, x in vec.items()}
        return True

    def contains(self, vec: dict) -> bool:
        _, p = self.reduce(vec)
        return p is None


# Small ints (often 0, often equal up to sign, so vectors cancel and pivots
# are non-unit and negative), Fractions with small and with large
# denominators.
entries = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**12)),
    st.just(Fraction(0)),
)
vectors = st.dictionaries(st.integers(0, 6), entries, max_size=5)
KEYFNS = {"natural": None, "odd-first": lambda c: (c % 2, c)}


def fractions(vec):
    return {c: Fraction(x) for c, x in vec.items()}


def combination(vecs, coeffs):
    out: dict = {}
    for vec, k in zip(vecs, coeffs):
        for c, x in vec.items():
            out[c] = out.get(c, 0) + k * x
    return out


def assert_rows_primitive(span):
    for p, row in span.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1 and row[p] > 0
        assert max(row, key=span.keyfn) == p


@pytest.mark.parametrize("order", sorted(KEYFNS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(added=st.lists(vectors, max_size=9),
       probes=st.lists(vectors, max_size=4),
       coeffs=st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_fraction_free_span_equals_fraction_span(order, added, probes, coeffs):
    keyfn = KEYFNS[order]
    new, ref = SpanBuilder(keyfn), FractionSpan(keyfn)
    for vec in added:
        assert new.add(vec) == ref.add(fractions(vec))
        assert list(new.rows) == list(ref.rows)
    assert_rows_primitive(new)
    for p, row in new.rows.items():
        assert {c: Fraction(x, row[p]) for c, x in row.items()} == ref.rows[p]
    # Combinations of added vectors lie in the span; probes may or may not.
    for vec in probes + [combination(added, coeffs)]:
        assert new.contains(vec) == ref.contains(fractions(vec))
        assert new.reduce(vec) == ref.reduce(fractions(vec))
    assert new.contains(combination(added, coeffs))


def test_integral_clears_denominators_and_drops_zeros():
    vec = {"a": Fraction(1, 6), "b": -2, "c": Fraction(0), "d": Fraction(3, 4)}
    ints, den = integral(vec)
    assert den == 12 and ints == {"a": 2, "b": -24, "d": 9}
    assert all(type(x) is int for x in ints.values())
    assert integral({}) == ({}, 1)


def test_rows_are_primitive_with_positive_pivot():
    span = SpanBuilder()
    assert span.add({0: Fraction(-4, 3), 2: Fraction(-2, 9), 1: 6})
    assert span.rows == {2: {0: 6, 2: 1, 1: -27}}
    # 2 (5 x_2 + x_1/2) - 10 row_2 = 271 x_1 - 60 x_0
    assert span.add({2: 5, 1: Fraction(1, 2)})
    assert span.rows[1] == {1: 271, 0: -60}
    # (x_0 + x_1 + x_2) - row_2 = 28 x_1 - 5 x_0, less 28/271 row_1
    assert span.reduce({0: 1, 1: 1, 2: 1}) == ({0: Fraction(325, 271)}, 0)
