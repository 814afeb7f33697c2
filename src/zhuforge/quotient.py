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
`check_matrix_model` then certifies the matrices on every relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (mat_from_rows, mat_identity, mat_is_zero, mat_mul,
                     mat_zero)
from .zhu import GroebnerBasis, NCPoly, ZhuPresentation


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


def quotient_basis(zp: ZhuPresentation, degree_bound: int = 10) -> QuotientModel:
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
        mat = mat_zero(n)
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

    `matrices` maps generator symbols to square matrices (rows of numbers).
    Returns (ok, failing) where `failing` names the relations that do not
    vanish.  Raises ValueError when a generator is missing or the sizes
    are inconsistent.
    """
    mats = []
    size = None
    for sym in zp.generators:
        if sym not in matrices:
            raise ValueError("no matrix for generator %r" % sym)
        m = mat_from_rows(matrices[sym])
        if any(len(row) != len(m) for row in m):
            raise ValueError("matrix for %r is not square" % sym)
        if size is None:
            size = len(m)
        elif len(m) != size:
            raise ValueError("matrix sizes disagree (%d vs %d)"
                             % (len(m), size))
        mats.append(m)
    names = relation_names(zp)
    failing = []
    memo: dict = {}
    for name, rel in zip(names, list(zp.commutator_relations)
                         + list(zp.extra_relations)):
        if not mat_is_zero(poly_matrix(rel, mats, size, memo)):
            failing.append(name)
    return (not failing), failing


def poly_matrix(poly: NCPoly, mats: list, size: int, memo: dict = None):
    """The matrix of `poly` with x_i replaced by mats[i] (size x size).

    `memo` maps monomials to their matrices, each computed once as
    mats[m[0]] times the matrix of m[1:]; calls with the same `mats` may
    share it."""
    memo = {} if memo is None else memo

    def mono_matrix(mono):
        hit = memo.get(mono)
        if hit is None:
            if len(mono) > 1:
                hit = mat_mul(mats[mono[0]], mono_matrix(mono[1:]))
            else:
                hit = mats[mono[0]] if mono else mat_identity(size)
            memo[mono] = hit
        return hit

    acc = mat_zero(size)
    for mono, c in poly.coeffs.items():
        for arow, row in zip(acc, mono_matrix(mono)):
            for col, x in enumerate(row):
                if x:
                    arow[col] += c * x
    return acc
