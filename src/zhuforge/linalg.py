"""Exact linear algebra on fraction-free sparse vectors.

One vector format serves the whole package: a dict from hashable
coordinates (words, monomials, matrix rows) to ints, read as the rational
vector ints / den for a denominator den kept beside it.  The engine, the
straightening, the Groebner basis and the matrix certificate build and
combine these pairs (ints, den) here, and an incremental row-space builder
eliminates on them by cross-multiplication.  Everything is exact; no
floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def integral(vec: dict):
    """(ints, den), den the least common denominator: vec == ints / den."""
    den = lcm(*[x.denominator for x in vec.values()])
    return {c: x.numerator * (den // x.denominator)
            for c, x in vec.items() if x}, den


def as_pair(vec):
    """A pair (ints, den) as it is, any other vector through `integral`."""
    return vec if isinstance(vec, tuple) else integral(vec)


def fractional(ints: dict, den: int) -> dict:
    """The inverse of `integral`: the Fraction vector ints / den."""
    return {c: Fraction(x, den) for c, x in ints.items()}


def iadd(out: dict, den: int, src: dict, sden: int, factor: int) -> int:
    """out/den += factor * src/sden in place; returns the new denominator.

    `factor` is nonzero.  `out` is rescaled only when sden does not divide
    den, and entries that cancel are removed.  The result is not reduced by
    its gcd.
    """
    q, r = divmod(den, sden)
    if r:
        scale = sden // gcd(den, sden)
        for w in out:
            out[w] *= scale
        den *= scale
        q = den // sden
    factor *= q
    for w, c in src.items():
        new = out.get(w, 0) + factor * c
        if new:
            out[w] = new
        else:
            del out[w]
    return den


def normalized(ints: dict, den: int):
    """The pair (ints, den) divided by gcd(den, *ints)."""
    g = gcd(den, *ints.values())
    if g == 1:
        return ints, den
    return {w: c // g for w, c in ints.items()}, den // g


def eliminate(vec: dict, row: dict, p) -> int:
    """vec = a vec - c row in place, for the int vectors vec and row, with
    a and c coprime and a row[p] = c vec[p]: vec loses its entry at p.
    Returns a, which is positive when row[p] is."""
    g = gcd(vec[p], row[p])
    a, c = row[p] // g, vec[p] // g
    if a != 1:
        for coord in vec:
            vec[coord] *= a
    for coord, rx in row.items():
        nx = vec.get(coord, 0) - c * rx
        if nx:
            vec[coord] = nx
        else:
            del vec[coord]
    return a


def primitive(vec: dict, p) -> dict:
    """The int vector vec divided by the gcd of its entries, signed so
    that its entry at p is positive."""
    g = gcd(*vec.values())
    return {c: x // (g if vec[p] > 0 else -g) for c, x in vec.items()}


class SpanBuilder:
    """Incrementally built row-echelon span of sparse rational vectors.

    A vector is a dict mapping coordinates to ints or Fractions, or a pair
    (ints, den) as the engine builds it, taken without conversion.  ``keyfn``
    must be a total order on coordinates, None for the coordinates' own
    order; the largest coordinate of a row is its pivot.  Stored rows are
    primitive int vectors with a positive pivot, and every stored row's
    pivot is maximal within that row, so elimination always makes strict
    progress.  `reduce` returns the Fractions that rows normalized to
    pivot 1 would give.
    """

    def __init__(self, keyfn=None):
        self.keyfn = keyfn
        self.rows: dict = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: dict):
        """(ints, den, pivot): `vec` less known pivots is ints / den, up to
        the first maximum that is no pivot (None if nothing is left)."""
        ints, den = as_pair(vec)
        vec = dict(ints)
        keyfn, rows = self.keyfn, self.rows
        while vec:
            p = max(vec, key=keyfn)
            row = rows.get(p)
            if row is None:
                return vec, den, p
            den *= eliminate(vec, row, p)
        return vec, den, None

    def reduce(self, vec: dict):
        """Eliminate known pivots from `vec`.

        Returns (rest, pivot): pivot is None when the vector lies in the
        span, otherwise the maximal coordinate of what is left, `rest`.
        """
        vec, den, p = self._eliminate(vec)
        return fractional(vec, den), p

    def add(self, vec: dict) -> bool:
        """Insert `vec` into the span; True iff it enlarged the span."""
        vec, _, p = self._eliminate(vec)
        if p is None:
            return False
        self.rows[p] = primitive(vec, p)
        return True

    def contains(self, vec: dict) -> bool:
        return self._eliminate(vec)[2] is None

