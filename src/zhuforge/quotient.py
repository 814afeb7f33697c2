"""Finite-dimensional quotient models of a top-level presentation.

Given the output of `relation_closure`, this module decides whether the
quotient of the straightened algebra `zhu.ZhuAlgebra` by the two-sided
ideal of the extra relations is finite dimensional, and if so gives a
monomial basis and the left-multiplication matrix of every generator.

Both are read off the two-sided Groebner basis `zhu.GroebnerBasis` that
`relation_closure` grew while it admitted relations; `quotient_basis`
resumes it up to its own grade bound.  The standard monomials, which no
leading monomial divides, are a basis of the quotient, which is finite
iff every generator has a pure power among the leading monomials.
`check_matrix_model` then certifies the matrices on every relation.  The
model keeps dense Fraction rows; the certificate converts each matrix
once to sparse int columns over one denominator and substitutes it
fraction-free, like every other stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .linalg import iadd, integral
from .zhu import GroebnerBasis, NCPoly, ZhuPresentation

# The default grade bound of `quotient_basis` and of `--quotient-bound`.
QUOTIENT_DEGREE_BOUND = 10


@dataclass
class QuotientModel:
    """The quotient algebra as far as the Groebner basis decides it.

    Finite: `basis` lists the standard monomials (index tuples) in graded
    order, `dimension` is len(basis), `matrices` maps each generator
    symbol to its left-multiplication matrix on that basis, and `status`
    is "stabilized-at-degree-N", N = 2 + the top grade of a basis monomial.
    Infinite: `status` and `dimension` are "infinite".  Undecided, when
    the grade bound tripped: `status` is "not-stabilized" and `dimension`
    "unbounded-at-bound".  In the last two cases `basis` and `matrices`
    are empty.
    """

    basis: list
    dimension: object
    matrices: dict = field(default_factory=dict)
    status: str = "not-stabilized"


def quotient_basis(zp: ZhuPresentation,
                   degree_bound: int = QUOTIENT_DEGREE_BOUND) -> QuotientModel:
    """The quotient read off a Groebner basis of grade <= `degree_bound`.

    Resumes `zp.groebner`, or builds one when `zp` carries none over
    `zp.algebra`.  Raises ValueError when a weight is not positive,
    naming the word where straightening is not a PBW rewriting, or naming
    the relations the matrices fail, which `check_matrix_model` never
    reports for a correct basis."""
    if any(w <= 0 for w in zp.weights):
        raise ValueError("generator weights must be positive")
    algebra = zp.algebra
    gb = zp.groebner
    if gb is None or gb.algebra is not algebra:
        gb = GroebnerBasis(algebra, zp.extra_relations, degree_bound)
    if not gb.close(degree_bound) or \
            max(map(algebra.grade, gb.leads), default=0) > degree_bound:
        return QuotientModel(basis=[], dimension="unbounded-at-bound")
    basis = gb.standard_monomials()
    if basis is None:
        return QuotientModel(basis=[], dimension="infinite",
                             status="infinite")
    index = {m: r for r, m in enumerate(basis)}
    n = len(basis)
    matrices = {}
    for i, sym in enumerate(zp.generators):
        mat = [[Fraction(0)] * n for _ in range(n)]
        for col, b in enumerate(basis):
            for mono, c in gb.reduce(NCPoly.term((i,) + b)).coeffs.items():
                mat[index[mono]][col] = Fraction(c)
        matrices[sym] = mat
    ok, failing = check_matrix_model(zp, matrices)
    if not ok:
        raise ValueError("the Groebner basis gave matrices that fail %s"
                         % ", ".join(failing))
    top = max(map(algebra.grade, basis), default=0)
    return QuotientModel(basis=basis, dimension=n, matrices=matrices,
                         status="stabilized-at-degree-%d" % (top + 2))


def relation_names(zp: ZhuPresentation) -> list:
    """Deterministic display names for all relations of a presentation.

    Commutator relations are named like ``[x_a,x_ea] - 4*x_ea``; extra
    relations are named after their provenance, e.g. ``o(v_s)`` or
    ``o(ea_0 v_s)`` for the image of a mode chain applied to a seed.
    """
    syms = zp.generators
    names = []
    pairs = list(itertools.combinations(range(len(syms)), 2))
    aligned = len(pairs) == len(zp.commutator_relations)
    for k, rel in enumerate(zp.commutator_relations):
        if aligned:
            i, j = pairs[k]
            low = NCPoly.term((i, j)) - NCPoly.term((j, i)) - rel
            head = "[x_%s,x_%s]" % (syms[i], syms[j])
            if low:
                txt = low.render(syms)
                if " " in txt or txt.startswith("-"):
                    txt = "(%s)" % txt
                head = "%s - %s" % (head, txt)
            names.append(head)
        else:
            names.append("commutator[%d]" % k)
    for k in range(len(zp.extra_relations)):
        if k < len(zp.provenance):
            prov = zp.provenance[k]
            chain = " ".join("%s_%d" % (s, n) for s, n in prov["chain"])
            inner = ("%s %s" % (chain, prov["seed"])) if chain else prov["seed"]
            names.append("o(%s)" % inner)
        else:
            names.append("extra[%d]" % k)
    return names


def check_matrix_model(zp: ZhuPresentation, matrices: dict):
    """Substitute candidate generator matrices into every relation.

    `matrices` maps generator symbols to square matrices: rows of ints,
    Fractions or rational strings, as `Fraction` reads them.  Returns (ok,
    failing) where `failing` names the relations that do not vanish.
    Raises ValueError when there are no generators to fix the size, when a
    generator is missing, or, naming the generator, when a matrix or one
    of its rows is not a list, when an entry is anything else (a float, a
    bool, None, "1/0") or when the sizes are inconsistent.
    """
    if not zp.generators:
        raise ValueError("no generators: the matrix size is undefined")
    mats = []
    size = None
    for sym in zp.generators:
        if sym not in matrices:
            raise ValueError("no matrix for generator %r" % sym)
        mat = matrices[sym]
        if not isinstance(mat, (list, tuple)) or \
                not all(isinstance(row, (list, tuple)) for row in mat):
            raise ValueError("matrix for %r is not a list of rows" % sym)
        rows = [[_exact(sym, x) for x in row] for row in mat]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix for %r is not square" % sym)
        if size is None:
            size = len(rows)
        elif len(rows) != size:
            raise ValueError("matrix sizes disagree (%d vs %d)"
                             % (len(rows), size))
        mats.append(matrix_columns(rows))
    names = relation_names(zp)
    failing = []
    memo: dict = {}
    for name, rel in zip(names, list(zp.commutator_relations)
                         + list(zp.extra_relations)):
        if any(poly_matrix(rel, mats, size, memo)[0]):
            failing.append(name)
    return (not failing), failing


def _exact(sym: str, x):
    """The matrix entry `x` of generator `sym` as an int or a Fraction."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("matrix for %r has the entry %r, which is not an int, "
                     "a Fraction or a rational string" % (sym, x))


def matrix_columns(rows):
    """The square matrix given by `rows` (ints and Fractions) as a pair
    (columns, den): column c is columns[c] / den, a dict row -> int with
    no zero entries."""
    ints, den = integral({(r, c): x for r, row in enumerate(rows)
                          for c, x in enumerate(row)})
    columns = [{} for _ in rows]
    for (r, c), x in ints.items():
        columns[c][r] = x
    return columns, den


def poly_matrix(poly: NCPoly, mats: list, size: int, memo: dict = None):
    """The matrix of `poly` with x_i replaced by mats[i] (size x size).

    Matrices are pairs (columns, den) as `matrix_columns` gives them.
    `memo` maps monomials to their matrices, each computed once as
    mats[m[0]] times the matrix of m[1:]; calls with the same `mats` may
    share it.  The result is not reduced by its gcd."""
    memo = {} if memo is None else memo

    def mono_matrix(mono):
        hit = memo.get(mono)
        if hit is None:
            if len(mono) > 1:
                left, lden = mats[mono[0]]
                right, rden = mono_matrix(mono[1:])
                cols = []
                for rcol in right:
                    col: dict = {}
                    for r, x in rcol.items():
                        iadd(col, 1, left[r], 1, x)
                    cols.append(col)
                hit = cols, lden * rden
            elif mono:
                hit = mats[mono[0]]
            else:
                hit = [{c: 1} for c in range(size)], 1
            memo[mono] = hit
        return hit

    ints, pden = integral(poly.coeffs)
    terms = [(mono_matrix(mono), k) for mono, k in ints.items()]
    den = lcm(*(mden for (_, mden), _ in terms))
    columns = []
    for c in range(size):
        col: dict = {}
        for (cols, mden), k in terms:
            iadd(col, den, cols[c], mden, k)
        columns.append(col)
    return columns, den * pden
