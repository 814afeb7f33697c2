"""Finite-dimensional quotient models of a top-level presentation.

Given the output of `relation_closure`, this module decides whether the
quotient of the straightened algebra `zhu.ZhuAlgebra` by the two-sided
ideal of the extra relations is finite dimensional, and if so gives a
monomial basis and the left-multiplication matrix of every generator.

Both are read off one two-sided Groebner basis (`GroebnerBasis`):
Buchberger's algorithm for left ideals in an algebra of solvable type
(Kandri-Rody & Weispfenning 1990), closed under right multiplication by
the generators (Levandovskyy 2005).  The standard monomials, which no
leading monomial divides, are a basis of the quotient, which is finite
iff every generator has a pure power among the leading monomials.  That
needs straightening to be a PBW rewriting, which `quotient_basis` checks
first; `check_matrix_model` then certifies the matrices on every relation.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (mat_add, mat_from_rows, mat_identity,
                     mat_is_zero, mat_mul, mat_scale, mat_zero)
from .zhu import NCPoly, ZhuAlgebra, ZhuPresentation, _iadd, mono_key

log = logging.getLogger("zhuforge.quotient")


@dataclass
class QuotientModel:
    """The quotient algebra as far as the Groebner basis decides it.

    Finite: `basis` lists the standard monomials (index tuples) in graded
    order, `dimension` is len(basis), `matrices` maps each generator
    symbol to its left-multiplication matrix on that basis, and `status`
    is "stabilized-at-degree-N", N = 2 + the top grade of a basis monomial.
    Infinite: `status` and `dimension` are "infinite".  Undecided, when
    the grade bound tripped or `check_matrix_model` failed: `status` is
    "not-stabilized" and `dimension` "unbounded-at-bound".  In the last
    two cases `basis` and `matrices` are empty.
    """

    basis: list
    dimension: object
    matrices: dict = field(default_factory=dict)
    status: str = "not-stabilized"


def _minus(mono: tuple, other: tuple) -> tuple:
    """The multiset `mono` less `other`, ascending."""
    rest = list(mono)
    for x in other:
        if x in rest:
            rest.remove(x)
    return tuple(rest)


class GroebnerBasis:
    """Two-sided Groebner basis of the ideal of `relations` in `algebra`.

    Monomials are ascending index tuples ordered by `key`: (grade, length,
    tuple).  The order is multiplicative and brackets lower the grade, so
    x^d * f leads with sorted(d + lead f) and the same coefficient.
    `elements` are monic NCPolys with leading monomials `leads`.  The
    pending polynomial with the least lead is reduced first (the normal
    strategy).  `complete` is False when an element of grade above `bound`
    was needed; `reduce` is then no normal form.
    """

    def __init__(self, algebra: ZhuAlgebra, relations, bound: int):
        self.algebra = algebra
        self.elements: list = []
        self.leads: list = []
        self.complete = self._close([algebra.canonical(r) for r in relations],
                                    bound)

    def key(self, mono: tuple):
        return (self.algebra.grade(mono), len(mono), mono)

    def _times(self, delta: tuple, k: int) -> NCPoly:
        """x^delta * elements[k]; its leading coefficient is 1."""
        return self.algebra.canonical(self.elements[k].sandwich(delta, ()))

    def _divisor(self, mono: tuple):
        """(delta, k) with x^delta * leads[k] = mono for the first such k."""
        for k, lead in enumerate(self.leads):
            delta = _minus(mono, lead)
            if len(delta) + len(lead) == len(mono):
                return delta, k
        return None

    def _normal(self, f: dict) -> dict:
        """Reduce the straightened `f` (consumed) to standard monomials."""
        out: dict = {}
        while f:
            m = max(f, key=self.key)
            hit = self._divisor(m)
            if hit is None:
                out[m] = f.pop(m)
            else:
                _iadd(f, self._times(*hit), -f[m])
        return out

    def reduce(self, poly: NCPoly) -> NCPoly:
        """The normal form of `poly`: zero iff `poly` lies in the ideal."""
        return NCPoly._wrap(self._normal(self.algebra.canonical(poly).coeffs))

    def _close(self, polys: list, bound: int) -> bool:
        """Buchberger's loop; False as soon as the grade bound trips."""
        pending: list = []
        tie = itertools.count()

        def push(coeffs: dict):
            if coeffs:
                heapq.heappush(pending,
                               (max(map(self.key, coeffs)), next(tie), coeffs))

        for poly in polys:
            push(poly.coeffs)
        while pending:
            f = self._normal(heapq.heappop(pending)[2])
            if not f:
                continue
            lead = max(f, key=self.key)
            if self.algebra.grade(lead) > bound:
                log.debug("basis element %s above the grade bound", lead)
                return False
            g = NCPoly._wrap(f).scale(1 / Fraction(f[lead]))
            k = len(self.elements)
            self.elements.append(g)
            self.leads.append(lead)
            for j, other in enumerate(self.leads[:k]):
                # Both products lead with the lcm of `lead` and `other`.
                s = dict(self._times(_minus(lead, other), j).coeffs)
                _iadd(s, self._times(_minus(other, lead), k), -1)
                push(s)
            for i in range(len(self.algebra.weights)):
                push(self.algebra.canonical(g.sandwich((), (i,))).coeffs)
        return True

    def standard_monomials(self):
        """The ascending monomials no lead divides, sorted by `mono_key`;
        None when there are infinitely many."""
        ngens = len(self.algebra.weights)
        pure = {lead[0] for lead in self.leads if lead and lead[0] == lead[-1]}
        if () not in self.leads and len(pure) < ngens:
            return None
        # Divisors of a standard monomial are standard: extend only those.
        out, frontier = [], [()]
        while frontier:
            m = frontier.pop()
            if self._divisor(m) is None:
                out.append(m)
                frontier += [m + (i,) for i in range(max(m, default=0), ngens)]
        return sorted(out, key=mono_key)


def quotient_basis(zp: ZhuPresentation, degree_bound: int = 10) -> QuotientModel:
    """The quotient read off a Groebner basis of grade <= `degree_bound`.

    Raises ValueError when a weight is not positive, or naming the word
    where straightening is not a PBW rewriting."""
    if any(w <= 0 for w in zp.weights):
        raise ValueError("generator weights must be positive")
    algebra = zp.algebra
    for word in algebra.overlap_failures():
        raise ValueError("straightening is not a PBW rewriting at %s"
                         % NCPoly.term(word).render(zp.generators))
    gb = GroebnerBasis(algebra, zp.extra_relations, degree_bound)
    if not gb.complete:
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
        log.debug("matrix model failed self-check: %s", failing)
        return QuotientModel(basis=[], dimension="unbounded-at-bound")
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
    for name, rel in zip(names, list(zp.commutator_relations)
                         + list(zp.extra_relations)):
        if not mat_is_zero(poly_matrix(rel, mats, size)):
            failing.append(name)
    return (not failing), failing


def poly_matrix(poly: NCPoly, mats: list, size: int):
    """The matrix of `poly` with x_i replaced by mats[i] (size x size)."""
    acc = mat_zero(size)
    for mono, c in poly.coeffs.items():
        prod = mat_identity(size)
        for idx in mono:
            prod = mat_mul(prod, mats[idx])
        acc = mat_add(acc, mat_scale(prod, c))
    return acc
