"""Finite-dimensional quotient models of a top-level presentation.

Given the output of `relation_closure` (generators x_i, commutator
relations, extra relations), this module decides — within a degree bound —
whether the quotient by the two-sided ideal of the extra relations is
finite dimensional, and if so produces a concrete model: a monomial basis
and the left-multiplication matrix of every generator.

Everything is graded by *formal length*: the formal length of a monomial
is the sum of the weights of its letters.  Straightening can lengthen a
monomial (a bracket may be a polynomial of higher degree) but never raises
its formal length, so the ideal can be swept stage by stage: at stage f
all products m_L * r * m_R whose input formal length is exactly f are
added to a row space, and the basis so far is the set of canonical
monomials of formal length <= f that are not pivots.  When two consecutive
stages leave the basis untouched the sweep is declared stable; the claim
is then verified by building the multiplication matrices and substituting
them back into every relation.  The sweep itself lives in `zhu.IdealSpan`,
the one ideal-membership mechanism, which `relation_closure` and
`reduces_to_zero` use as well.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

from .linalg import (mat_add, mat_from_rows, mat_identity,
                     mat_is_zero, mat_mul, mat_scale, mat_zero)
from .terms import ZERO
from .zhu import IdealSpan, NCPoly, ZhuPresentation, mono_key

log = logging.getLogger("zhuforge.quotient")


@dataclass
class QuotientModel:
    """A bounded-degree model of the quotient algebra.

    `basis` lists the surviving monomials (index tuples) in graded order.
    When the sweep stabilized, `dimension` is len(basis), `matrices` maps
    each generator symbol to its left-multiplication matrix on that basis,
    and `status` records the stage at which the basis stopped moving.
    Otherwise `dimension` is the string "unbounded-at-bound", `matrices`
    is empty, and `basis` is the (still growing) set found at the bound.
    """

    basis: list
    dimension: object
    matrices: dict = field(default_factory=dict)
    status: str = "not-stabilized"


def quotient_basis(zp: ZhuPresentation, degree_bound: int = 10) -> QuotientModel:
    """Sweep the relation ideal up to `degree_bound` stages of formal length."""
    weights = zp.weights
    if any(w <= 0 for w in weights):
        raise ValueError("generator weights must be positive")
    algebra = zp.algebra
    canon = algebra.canonical if algebra is not None else (lambda q: q)
    rels = list(zp.extra_relations)
    if algebra is None:
        rels = rels + list(zp.commutator_relations)
    ideal = IdealSpan(weights, algebra)
    span = ideal.span
    graded = [(r, ideal.grade(r)) for r in (canon(r) for r in rels) if r]
    basis_set: set = set()
    last_change = 0

    for f in range(degree_bound + 1):
        for r, flr in graded:
            ideal.add(r, f - flr)
        fresh = set()
        for g in range(f + 1):
            fresh.update(m for m in ideal.monos(g) if m not in span.rows)
        if fresh != basis_set:
            basis_set = fresh
            last_change = f
        log.debug("stage %d: %d rows, %d basis monomials",
                  f, len(span), len(basis_set))

    stabilized = degree_bound - last_change >= 2
    basis = sorted(basis_set, key=mono_key)
    if not stabilized:
        return QuotientModel(basis=basis, dimension="unbounded-at-bound")

    # Rows beyond the bound so that products x_i * b reduce completely.
    top = degree_bound + max(weights)
    for f in range(degree_bound + 1, top + 1):
        for r, flr in graded:
            ideal.add(r, f - flr)
    settled = {m for g in range(degree_bound + 1) for m in ideal.monos(g)
               if m not in span.rows}
    if settled != basis_set:
        log.debug("basis moved again past the bound; not stable after all")
        return QuotientModel(basis=sorted(settled, key=mono_key),
                             dimension="unbounded-at-bound")

    index = {m: r for r, m in enumerate(basis)}
    n = len(basis)
    matrices = {}
    for i, sym in enumerate(zp.generators):
        mat = [[ZERO] * n for _ in range(n)]
        for col, b in enumerate(basis):
            res = span.residue(canon(NCPoly.term((i,) + b)).coeffs)
            for mono, c in res.items():
                row = index.get(mono)
                if row is None:
                    log.debug("x_%s * %s escapes the basis at %s",
                              sym, b, mono)
                    return QuotientModel(basis=basis,
                                         dimension="unbounded-at-bound")
                mat[row][col] = c
        matrices[sym] = mat

    model = QuotientModel(basis=basis, dimension=n, matrices=matrices,
                          status="stabilized-at-degree-%d" % (last_change + 2))
    ok, failing = check_matrix_model(zp, matrices)
    if not ok:
        log.debug("matrix model failed self-check: %s", failing)
        return QuotientModel(basis=basis, dimension="unbounded-at-bound")
    return model


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
