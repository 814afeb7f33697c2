"""Finite-dimensional quotient analysis and matrix-model checking."""

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import defect_seeds, jacobi_violating
from test_tensor import tensor
from zhuforge import (c1_singular_elements, cli, complete_table, documents,
                      linalg, load_bundled, zhu)
from zhuforge.engine import pbw_words
from zhuforge.linalg import fractional, integral
from zhuforge.presentation import parse_presentation, validate
from zhuforge.quotient import (QUOTIENT_DEGREE_BOUND, check_matrix_model,
                               matrix_columns, poly_matrix, quotient_basis,
                               relation_names)
from zhuforge.zhu import (ClosureBounds, GroebnerBasis, NCPoly, ZhuAlgebra,
                          ZhuPresentation, relation_closure)

# One weight-1 generator x with x_1 x = 1: a single generator has no
# brackets, so its top-level algebra is the polynomial ring in x.
HEISENBERG1 = {
    "name": "heisenberg-rank1",
    "generators": [{"symbol": "x", "weight": 1}],
    "relations": [{"i": 0, "j": 0, "k": 1,
                   "value": [{"coeff": "1", "word": []}]}],
}


def heisenberg1_algebra():
    p = parse_presentation(HEISENBERG1)
    return ZhuAlgebra(p, complete_table(p))


def diag(*entries):
    n = len(entries)
    return [[Fraction(entries[r]) if r == c else Fraction(0)
             for c in range(n)] for r in range(n)]


def unit_matrix(n, r, c):
    out = [[Fraction(0)] * n for _ in range(n)]
    out[r][c] = Fraction(1)
    return out


def test_lattice_quotient_is_seven_dimensional(lattice_closure):
    model = quotient_basis(lattice_closure, degree_bound=10)
    assert model.dimension == 7
    assert model.status == "stabilized-at-degree-6"
    # Basis: 1, x_a, x_ea, x_em, x_a^2, x_ea x_em, x_a^3.
    assert model.basis == [(), (0,), (1,), (2,), (0, 0), (1, 2), (0, 0, 0)]
    assert set(model.matrices) == {"a", "ea", "em"}
    # The produced regular-representation matrices satisfy every relation.
    ok, failing = check_matrix_model(lattice_closure, model.matrices)
    assert ok and failing == []


def test_lattice_quotient_dimension_is_bound_independent(lattice_closure):
    m10 = quotient_basis(lattice_closure, degree_bound=10)
    m12 = quotient_basis(lattice_closure, degree_bound=12)
    assert m10.dimension == m12.dimension == 7
    assert m10.basis == m12.basis
    assert m10.matrices == m12.matrices


def test_lattice_accepts_the_independent_five_dimensional_model(lattice_closure):
    # A 5-dimensional representation unrelated to the regular one:
    # x_a diagonal, x_ea and x_em single matrix units.
    matrices = {
        "a": diag(0, 2, -2, 1, -1),
        "ea": unit_matrix(5, 1, 2),
        "em": unit_matrix(5, 2, 1),
    }
    ok, failing = check_matrix_model(lattice_closure, matrices)
    assert ok and failing == []


def test_matrix_model_rejects_perturbed_action(lattice_closure):
    matrices = {
        "a": diag(0, 3, -2, 1, -1),
        "ea": unit_matrix(5, 1, 2),
        "em": unit_matrix(5, 2, 1),
    }
    ok, failing = check_matrix_model(lattice_closure, matrices)
    assert not ok
    assert "[x_a,x_ea] - 4*x_ea" in failing


def test_matrix_model_size_errors(lattice_closure):
    good = {
        "a": diag(0, 2, -2, 1, -1),
        "ea": unit_matrix(5, 1, 2),
        "em": unit_matrix(5, 2, 1),
    }
    missing = dict(good)
    del missing["em"]
    with pytest.raises(ValueError):
        check_matrix_model(lattice_closure, missing)
    mismatched = dict(good)
    mismatched["em"] = unit_matrix(4, 2, 1)
    with pytest.raises(ValueError):
        check_matrix_model(lattice_closure, mismatched)
    ragged = dict(good)
    ragged["em"] = [[0, 0], [0]]
    with pytest.raises(ValueError):
        check_matrix_model(lattice_closure, ragged)


def ea_with(entry):
    """The matrix of x_ea in the five-dimensional model with `entry` at
    row 1, column 2."""
    matrix = unit_matrix(5, 1, 2)
    matrix[1][2] = entry
    return matrix


# id -> the matrix given for x_ea: one inexact entry, or a matrix or a
# row that is not a list
INEXACT = {"float": ea_with(1.5), "zero-denominator": ea_with("1/0"),
           "None": ea_with(None), "bool": ea_with(True),
           "word": ea_with("one"), "list": ea_with([1]),
           "matrix-None": None, "row-None": [None],
           "second-row-None": [[1], None], "matrix-int": 5}


@pytest.mark.parametrize("case", INEXACT)
def test_matrix_model_rejects_inexact_entries(lattice_closure, case):
    # Only ints, Fractions and rational strings are exact entries: a float
    # is not read as 3/2 nor True as 1.  Anything else, and a matrix or
    # row that is not a list, is a ValueError that names the generator,
    # whatever the other matrices hold.
    matrices = {
        "a": diag(0, 2, -2, 1, -1),
        "ea": INEXACT[case],
        "em": unit_matrix(5, 2, 1),
    }
    with pytest.raises(ValueError, match=r"^matrix for 'ea' (has the entry"
                                         r"|is not a list of rows)"):
        check_matrix_model(lattice_closure, matrices)


def test_matrix_model_accepts_rational_strings(lattice_closure):
    # The regular representation has the entries 1/6 and -1/6.
    model = quotient_basis(lattice_closure, degree_bound=10)
    strings = {sym: [[str(x) for x in row] for row in dense(mat, 7)]
               for sym, mat in model.matrices.items()}
    assert "1/6" in strings["em"][1]
    assert check_matrix_model(lattice_closure, strings) == (True, [])


def test_matrix_model_accepts_different_denominators(lattice_closure):
    # The five-dimensional model conjugated by diag(1, 2, 3, 1, 1): x_a
    # stays integral, x_ea gets 2/3 and x_em 3/2, as ints, rational
    # strings and Fractions.
    matrices = {
        "a": [[int(x) for x in row] for row in diag(0, 2, -2, 1, -1)],
        "ea": [[str(x) for x in row] for row in unit_matrix(5, 1, 2)],
        "em": unit_matrix(5, 2, 1),
    }
    matrices["ea"][1][2] = "2/3"
    matrices["em"][2][1] = Fraction(3, 2)
    assert check_matrix_model(lattice_closure, matrices) == (True, [])
    matrices["em"][2][1] = Fraction(3, 4)
    assert check_matrix_model(lattice_closure, matrices) == \
        (False, ["[x_ea,x_em] - (-1/6*x_a + 1/6*x_a^3)"])


def test_matrix_model_rejects_one_wrong_entry_in_a_sparse_column(
        lattice_closure):
    # Column 2 of the regular x_em holds 1/6, 1 and -1/6 in rows 1, 5, 6;
    # a wrong entry in row 3 of that column alone breaks the model.
    model = quotient_basis(lattice_closure, degree_bound=10)
    matrices = {sym: dense(mat, 7) for sym, mat in model.matrices.items()}
    column = [row[2] for row in matrices["em"]]
    assert [r for r, x in enumerate(column) if x] == [1, 5, 6]
    matrices["em"][3][2] = Fraction(1, 7)
    assert check_matrix_model(lattice_closure, matrices) == \
        (False, ["[x_ea,x_em] - (-1/6*x_a + 1/6*x_a^3)"])


def dense_poly_matrix(poly, rows, n):
    """The reference for `poly_matrix` on matrices given as rows: each
    monomial's matrix as a dense Fraction product from the identity."""
    want = [[Fraction(0)] * n for _ in range(n)]
    for mono, c in poly.coeffs.items():
        prod = [[Fraction(int(r == col)) for col in range(n)]
                for r in range(n)]
        for i in mono:
            prod = [[sum((x * Fraction(rows[i][k][col])
                          for k, x in enumerate(prow)), Fraction(0))
                     for col in range(n)] for prow in prod]
        want = [[w + c * x for w, x in zip(wr, pr)]
                for wr, pr in zip(want, prod)]
    return want


def dense(matrix, n):
    """Fraction rows of the pair (columns, den) that `poly_matrix` gives."""
    columns, den = matrix
    return [[Fraction(columns[col].get(r, 0), den) for col in range(n)]
            for r in range(n)]


def test_poly_matrix_matches_monomial_products(lattice_closure):
    model = quotient_basis(lattice_closure, degree_bound=10)
    n = model.dimension
    mats = [model.matrices[s] for s in lattice_closure.generators]
    rows = [dense(m, n) for m in mats]
    polys = [NCPoly({(0, 1, 2): 3, (1, 2): Fraction(-1, 2), (): 5}),
             NCPoly({(2, 1, 2): 1, (1, 2): 2, (0,): -7}),
             NCPoly()]
    memo = {}
    for poly in polys:
        want = dense_poly_matrix(poly, rows, n)
        assert dense(poly_matrix(poly, mats, n), n) == want
        assert dense(poly_matrix(poly, mats, n, memo), n) == want
    # Shared suffixes were multiplied once: (1, 2) serves (0, 1, 2).
    assert set(memo) == {(0, 1, 2), (1, 2), (2,), (), (2, 1, 2), (0,)}


SMALL_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def matrices_and_poly(draw):
    """Two n x n matrices with fractional entries, n <= 3, and a polynomial
    in them of degree <= 3 with fractional coefficients."""
    n = draw(st.integers(1, 3))
    square = st.lists(st.lists(SMALL_RATIONALS, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    monos = st.lists(st.integers(0, 1), max_size=3).map(tuple)
    poly = NCPoly(draw(st.dictionaries(monos, SMALL_RATIONALS, max_size=4)))
    return n, [draw(square), draw(square)], poly


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=matrices_and_poly())
def test_poly_matrix_equals_dense_fraction_products(case):
    n, rows, poly = case
    got = poly_matrix(poly, [matrix_columns(r) for r in rows], n)
    assert dense(got, n) == dense_poly_matrix(poly, rows, n)


def test_w3_quotient_does_not_stabilize(w3_closure):
    # The one relation leads with x_w^3; x_v has no pure power among the
    # leading monomials, so the quotient is infinite.
    model = quotient_basis(w3_closure, degree_bound=10)
    assert model.status == "infinite"
    assert model.dimension == "infinite"
    assert model.basis == [] and model.matrices == {}


def test_virasoro_quotient_without_relations_grows(virasoro, virasoro_table):
    zp = relation_closure([], virasoro, virasoro_table)
    model = quotient_basis(zp, degree_bound=8)
    assert model.status == "infinite"
    assert model.dimension == "infinite"


def test_synthetic_one_generator_quotient():
    zp = ZhuPresentation(generators=("x",), weights=(1,),
                         commutator_relations=[],
                         extra_relations=[NCPoly.term((0,))],
                         algebra=heisenberg1_algebra())
    model = quotient_basis(zp, degree_bound=6)
    assert model.dimension == 1
    assert model.basis == [()]
    assert model.matrices == {"x": matrix_columns([[Fraction(0)]])}
    assert model.status == "stabilized-at-degree-2"


def test_quotient_rejects_nonpositive_weights():
    zp = ZhuPresentation(generators=("x",), weights=(0,),
                         commutator_relations=[], extra_relations=[],
                         algebra=heisenberg1_algebra())
    with pytest.raises(ValueError):
        quotient_basis(zp)


def test_quotient_rejects_non_pbw_straightening(lattice_closure):
    bad = jacobi_violating(lattice_closure.algebra)
    assert bad.overlap_failures() == [(2, 1, 0)]
    with pytest.raises(ValueError, match=r"at x_em\*x_ea\*x_a$"):
        quotient_basis(dataclasses.replace(lattice_closure, algebra=bad))
    # A bracket that does not lower the grade is named by its word and
    # stops the check before any straightening.
    bad.brackets[(0, 1)] = ({(0, 1): 1}, 1)
    assert bad.overlap_failures() == [(1, 0)]
    with pytest.raises(ValueError, match=r"at x_ea\*x_a$"):
        quotient_basis(dataclasses.replace(lattice_closure, algebra=bad))


def test_matrix_model_with_constant_term_relation():
    zp = ZhuPresentation(generators=("x",), weights=(1,),
                         commutator_relations=[],
                         extra_relations=[NCPoly.term(()) - NCPoly.term((0,))])
    ok, failing = check_matrix_model(zp, {"x": [[Fraction(0)]]})
    assert not ok and failing == ["extra[0]"]
    ok, failing = check_matrix_model(zp, {"x": [[Fraction(1)]]})
    assert ok and failing == []
    # With no generators no matrix fixes the size: an error, not a
    # TypeError from inside the substitution.
    bare = dataclasses.replace(zp, generators=(), weights=())
    with pytest.raises(ValueError, match="no generators"):
        check_matrix_model(bare, {})


def test_relation_names(w3_closure, lattice_closure):
    assert relation_names(w3_closure) == ["[x_w,x_v]", "o(v_s)"]
    assert relation_names(lattice_closure) == [
        "[x_a,x_ea] - 4*x_ea",
        "[x_a,x_em] - (-4*x_em)",
        "[x_ea,x_em] - (-1/6*x_a + 1/6*x_a^3)",
        "o(defect(1, 1, 1, 0, 2))",
    ]


def test_lattice_quotient_row_and_straightening_counts(families, monkeypatch,
                                                       tmp_path, capsys):
    """Pinned work: the benchmark's lattice solve adds 66 rows, all of them
    in `generated_span`, and straightens 123 polynomials, most of them in
    the one Groebner basis that the closure and the quotient share.  The
    closure straightens each relation once, in `GroebnerBasis.add`.  The
    basis straightens each product x^delta * g once and keeps 38 of them,
    all on live elements.  `close` reduces 49 pending polynomials, 34 of
    them to zero: it queues the right products g x_i only of elements from
    the generating set, not of S-pair results, and by x_a, whose brackets
    are linear, it builds [g, x_a] by the derivation rule instead of
    straightening g x_a."""
    calls = {"add": 0, "canonical": 0}
    add, canonical = linalg.SpanBuilder.add, zhu.ZhuAlgebra.canonical
    normal = zhu.GroebnerBasis._normal
    reduced = []
    solved = []

    def counted_add(self, vec):
        calls["add"] += 1
        return add(self, vec)

    def counted_canonical(self, poly):
        calls["canonical"] += 1
        return canonical(self, poly)

    def counted_normal(self, f, *den):
        out = normal(self, f, *den)
        if sys._getframe(1).f_code.co_name == "close":
            reduced.append(not out[0])
        return out

    def kept_quotient_basis(zp, bound):
        solved.append(zp)
        return quotient_basis(zp, bound)

    monkeypatch.setattr(linalg.SpanBuilder, "add", counted_add)
    monkeypatch.setattr(zhu.ZhuAlgebra, "canonical", counted_canonical)
    monkeypatch.setattr(zhu.GroebnerBasis, "_normal", counted_normal)
    monkeypatch.setattr(cli, "quotient_basis", kept_quotient_basis)
    path = tmp_path / "lattice_N2.json"
    path.write_text(json.dumps(families.lattice_member(2).doc))
    code = cli.main(["quotient", "--input", str(path),
                     "--quotient-bound", "6"])
    assert code == 0 and json.loads(capsys.readouterr().out)["dimension"] == 7
    # 214 straightenings before the basis skipped S-pairs by the chain
    # criterion, 155 before it skipped the right products of S-pairs.
    # 130 before the right products by x_a, the one generator whose
    # brackets are linear, were read as brackets [g, x_a].
    assert calls == {"add": 66, "canonical": 123}
    # 74 reductions, 59 to zero, with the right products of S-pairs; 51,
    # 36 to zero, before two brackets [g, x_a] came out zero and were not
    # queued.
    assert (len(reduced), sum(reduced)) == (49, 34)
    gb = solved[0].groebner
    assert len(gb._products) == len(gb.elements) == len(gb.leads)
    # 67 kept products before the chain criterion, 41 before the right
    # products of S-pairs were skipped.
    assert sum(map(len, gb._products)) == 38
    for lead, products in zip(gb.leads, gb._products):
        for delta, t in products.items():
            assert max(t, key=gb.key) == tuple(sorted(delta + lead))


# label -> (generator, size, quotient bound, membership verdict of each
# relation emitted); None takes the default, and the closure runs at the
# default bounds.  M(5,6) has its
# relation at grade 20, and its basis stops growing two grades above.
# Lattice N=3 emits two "inconclusive" relations at the default membership
# bound 8: x_em^2, which lies in the ideal of x_ea^2 (a complete basis at
# bound 14 reduces it to zero), and a third that is new modulo the first
# two (their basis is complete at bound 10).  See the FOUND line on
# `relation_closure` in CHANGES.md: a bound that reaches those grades
# leaves ("nonzero", "nonzero").
FAMILY_MEMBERS = {
    "M(2,5)": ("virasoro_member", (2, 5), None, ("nonzero",)),
    "M(3,4)": ("virasoro_member", (3, 4), None, ("nonzero",)),
    "M(5,6)": ("virasoro_member", (5, 6), 22, ("nonzero",)),
    "sl2-k1": ("sl2_member", (1,), None, ("nonzero",)),
    "sl2-k3": ("sl2_member", (3,), None, ("nonzero",)),
    "sl2-k4": ("sl2_member", (4,), 12, ("nonzero",)),
    "sl2-k5": ("sl2_member", (5,), 14, ("nonzero",)),
    "lattice-N1": ("lattice_member", (1,), None, ("nonzero",)),
    "lattice-N3": ("lattice_member", (3,), None,
                   ("nonzero", "inconclusive", "inconclusive")),
}


# label -> sha256 of the member's `zhu` and `quotient` JSON documents, as
# `zhuforge zhu|quotient` prints them with the member's quotient bound.
DOCUMENT_DIGESTS = {
    "sl2-k4": ("9b584e5e5583041e30aacf939bc1026c365b18b7473bfb589a24bed5c91abee5",
               "d048b4ff2cacb7e7916d61a87735250dfb8362d2cc1fa3a8f7baa8ec35e7c248"),
    "sl2-k5": ("bd08ea5cf0f21f01645ec46e048e58acd2f982038f70fc97bf93518c3201485a",
               "8f2c18a4f642af772e474ff15569a4eea23eb469db073c0a751d7c091c8d2f2f"),
}


def digest(doc) -> str:
    text = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", sorted(FAMILY_MEMBERS))
def test_closed_form_family_members(families, label):
    """Dimension (p-1)(q-1)/2, 1 + 4 + ... + (k+1)^2 and 2N + 3, from
    relations each of which is new modulo a complete basis of the ones
    before it, unless its verdict says the membership bound tripped first."""
    maker, size, bound, verdicts = FAMILY_MEMBERS[label]
    member = getattr(families, maker)(*size)
    p = parse_presentation(member.doc)
    table = complete_table(p)
    defects = c1_singular_elements(p, table)
    seeds = list(p.singular_vectors) + defect_seeds(defects)
    bounds = ClosureBounds()
    zp = relation_closure(seeds, p, table, bounds, defects)
    assert zp.status == "complete"
    assert zp.algebra.overlap_failures() == []
    assert [prov["membership"] for prov in zp.provenance] == list(verdicts)
    assert len(zp.extra_relations) == len(verdicts)
    for k, (rel, verdict) in enumerate(zip(zp.extra_relations, verdicts)):
        before = GroebnerBasis(zp.algebra, zp.extra_relations[:k],
                               bounds.membership_degree_bound)
        if verdict == "nonzero":
            assert before.complete and \
                before.normal_form(*integral(rel.coeffs))[0]
        else:
            assert not before.complete
    model = quotient_basis(zp, bound or 10)
    assert model.dimension == member.dimension
    assert model.status.startswith("stabilized")
    assert check_matrix_model(zp, model.matrices) == (True, [])
    if label in DOCUMENT_DIGESTS:
        assert (digest(documents.zhu_document(zp)),
                digest(documents.quotient_document(zp, model))) \
            == DOCUMENT_DIGESTS[label]


def certificate_failures(gb) -> list:
    """The S-pairs (j, k) and right products (j, "x_i") of the elements of
    `gb` whose normal form is not zero.  None certifies a two-sided
    Groebner basis, whichever pairs `close` skipped: each S-pair is built
    here from the straightened products x^delta * g, not from the basis's
    memo."""
    canonical = gb.algebra.canonical

    def times(delta, g):
        return canonical({delta + m: c for m, c in g.items()})[0]

    def minus(a, b):
        return tuple(sorted((Counter(a) - Counter(b)).elements()))

    failures = []
    for (j, gj), (k, gk) in itertools.combinations(enumerate(gb.elements), 2):
        lj, lk = gb.leads[j], gb.leads[k]
        a, b = times(minus(lk, lj), gj), times(minus(lj, lk), gk)
        lcm = max(a, key=gb.key)
        assert max(b, key=gb.key) == lcm
        s = {m: a.get(m, 0) * b[lcm] - b.get(m, 0) * a[lcm]
             for m in a.keys() | b.keys()}
        if gb._normal({m: c for m, c in s.items() if c})[0]:
            failures.append((j, k))
    for j, g in enumerate(gb.elements):
        for i in range(len(gb.algebra.weights)):
            if gb._normal(times((), {m + (i,): c for m, c in g.items()}))[0]:
                failures.append((j, "x_%d" % i))
    return failures


def w3_4_5_closure(budget=ClosureBounds.max_new_generators):
    """The closure of W3(4,5) from its null vector, at membership bound
    10, as `test_w3_minimal_model_4_5_has_the_potts_zhu_algebra` runs it,
    admitting at most `budget` states past the null vector."""
    p = parse_presentation(w3_document(Fraction(4, 5)))
    table = complete_table(p)
    null, = joint_kernel(table, [(0, 2), (0, 3), (1, 3), (1, 4)], 6)
    bounds = ClosureBounds(membership_degree_bound=10,
                           max_new_generators=budget)
    return relation_closure([("null", null)], p, table, bounds, [])


# label -> the family members whose tensor product a certified closure runs
CERTIFIED = {
    "sl2-k1": [("sl2_member", 1)],
    "sl2-k2": [("sl2_member", 2)],
    "sl2-k3": [("sl2_member", 3)],
    "lattice-N1": [("lattice_member", 1)],
    "lattice-N2": [("lattice_member", 2)],
    "lattice-N3": [("lattice_member", 3)],
    "lattice_N1-sl2_k1": [("lattice_member", 1), ("sl2_member", 1)],
    "sl2_k2-sl2_k1": [("sl2_member", 2), ("sl2_member", 1)],
}


def closure_of(families, request, label):
    """The closure that `label` names: the bundled lattice's, W3(4,5)'s or
    that of a member of CERTIFIED, from its singular vectors and defects."""
    if label == "lattice":
        return request.getfixturevalue("lattice_closure")
    if label == "W3(4,5)":
        return w3_4_5_closure()
    docs = [getattr(families, maker)(size).doc
            for maker, size in CERTIFIED[label]]
    p = parse_presentation(tensor(*docs) if len(docs) > 1 else docs[0])
    table = complete_table(p)
    defects = c1_singular_elements(p, table)
    return relation_closure(list(p.singular_vectors) + defect_seeds(defects),
                            p, table, None, defects)


@pytest.mark.parametrize("label", ["lattice", "W3(4,5)"] + sorted(CERTIFIED))
def test_closure_basis_is_a_certified_groebner_basis(families, request,
                                                     label):
    """Every S-pair and every right product g x_i of the elements of each
    complete closure basis reduces to zero, also the S-pairs that the
    chain criterion kept `close` from building."""
    zp = closure_of(families, request, label)
    gb = zp.groebner
    if not gb.complete:
        quotient_basis(zp)
    assert gb.complete and gb.elements
    assert certificate_failures(gb) == []


@pytest.mark.parametrize("label", ["lattice", "W3(4,5)", "sl2-k1", "sl2-k2",
                                   "sl2-k3", "lattice_N1-sl2_k1"])
def test_matrices_are_the_normal_forms_of_the_products(families, request,
                                                       label):
    """Column b of the matrix of x_i is the normal form of x_i b,
    `GroebnerBasis.normal_form`, read in the basis; and the document's
    rational strings give the model's pairs back."""
    zp = closure_of(families, request, label)
    model = quotient_basis(zp)
    assert model.status.startswith("stabilized") and zp.groebner.complete
    n = model.dimension
    index = {m: r for r, m in enumerate(model.basis)}
    for i, sym in enumerate(zp.generators):
        rows = dense(model.matrices[sym], n)
        for col, b in enumerate(model.basis):
            want = [Fraction(0)] * n
            normal = fractional(*zp.groebner.normal_form({(i,) + b: 1}))
            for mono, c in normal.items():
                want[index[mono]] = c
            assert [row[col] for row in rows] == want, (label, sym, b)
    doc = documents.quotient_document(zp, model)
    assert {sym: matrix_columns([[Fraction(x) for x in row] for row in mat])
            for sym, mat in doc["matrices"].items()} == model.matrices


def test_certificate_verdict_is_the_same_for_every_input_form(
        lattice_closure):
    """One model given as pairs, as Fraction rows and as the document's
    rational strings gets one verdict: the regular model passes, and with
    the entry at row 0, column 0 of x_ea set to 1 it fails three
    relations, the extra one among them."""
    model = quotient_basis(lattice_closure, degree_bound=10)
    rows = {sym: dense(mat, 7) for sym, mat in model.matrices.items()}
    rows["ea"][0][0] = Fraction(1)
    changed = dataclasses.replace(model, matrices={
        sym: matrix_columns(mat) for sym, mat in rows.items()})
    wrong = (False, ["[x_a,x_ea] - 4*x_ea",
                     "[x_ea,x_em] - (-1/6*x_a + 1/6*x_a^3)",
                     "o(defect(1, 1, 1, 0, 2))"])
    for given, verdict in ((model, (True, [])), (changed, wrong)):
        forms = [given.matrices,
                 {sym: dense(mat, 7) for sym, mat in given.matrices.items()},
                 documents.quotient_document(lattice_closure,
                                             given)["matrices"]]
        for matrices in forms:
            assert check_matrix_model(lattice_closure, matrices) == verdict


# Three weight-1 generators whose products all vanish: the straightened
# algebra is the polynomial ring C[x, y, z].  There a right product g x_i
# is x_i g and certifies nothing, so the S-pairs alone make a basis.
POLYNOMIAL_RING = {
    "name": "polynomial-ring-rank3",
    "generators": [{"symbol": s, "weight": 1} for s in "xyz"],
}


def polynomial_ring_ideals():
    """The algebra C[x, y, z] and thirty relation lists, each of three
    random relations with up to three terms of degree at most 3."""
    p = parse_presentation(POLYNOMIAL_RING)
    algebra = ZhuAlgebra(p, complete_table(p))
    assert not any(bints for bints, _ in algebra.brackets.values())
    monos = [m for n in range(4)
             for m in itertools.combinations_with_replacement(range(3), n)]
    rng = random.Random(5)
    return algebra, [
        [sum((NCPoly.term(rng.choice(monos), rng.randint(-3, 3))
              for _ in range(3)), NCPoly()) for _ in range(3)]
        for _ in range(30)]


def test_groebner_bases_in_a_polynomial_ring_are_certified():
    """Every basis of `polynomial_ring_ideals` certifies, so the chain
    criterion skipped no S-pair that the basis needed."""
    algebra, ideals = polynomial_ring_ideals()
    for case, relations in enumerate(ideals):
        gb = GroebnerBasis(algebra, relations, 12)
        assert gb.complete and certificate_failures(gb) == [], case


def scanned_divisor(leads, m):
    """(delta, k) with x^delta * leads[k] = m for the first such k, or
    None, by a scan of the multisets."""
    for k, lead in enumerate(leads):
        if not Counter(lead) - Counter(m):
            return tuple(sorted((Counter(m) - Counter(lead)).elements())), k
    return None


@pytest.mark.parametrize("label", ["C[x,y,z]", "lattice", "lattice-N2",
                                   "sl2-k2"])
def test_divisor_memo_follows_the_leads(families, request, label):
    """On the ideals of C[x, y, z] and on the closure relations of the
    lattice and of sl2 k = 2, built one `add` and `close` at a time: after
    each, `_divisor(m)` equals a scan of the leads for every monomial m of
    length at most 4, and at every `_normal` call each memo entry does, so
    a stale entry fails here before a reduction can use it."""
    if label == "C[x,y,z]":
        algebra, ideals = polynomial_ring_ideals()
        cases = [(algebra, relations, 6) for relations in ideals]
    else:
        zp = closure_of(families, request, label)
        cases = [(zp.algebra, zp.extra_relations, 8)]
    ngens = len(cases[0][0].weights)
    monos = [m for n in range(5)
             for m in itertools.combinations_with_replacement(range(ngens), n)]
    for algebra, relations, bound in cases:
        gb = GroebnerBasis(algebra, [], bound)
        normal = gb._normal

        def checked(f, den=1):
            for m, hit in gb._divisors.items():
                assert hit == scanned_divisor(gb.leads, m), (label, m)
            return normal(f, den)

        gb._normal = checked
        steps = [step for r in relations
                 for step in (partial(gb.add, r), partial(gb.close, bound))]
        for step in steps + [partial(gb.close, QUOTIENT_DEGREE_BOUND)]:
            step()
            for m in monos:
                assert gb._divisor(m) == scanned_divisor(gb.leads, m), \
                    (label, m, gb.leads)


def w3_document(c) -> dict:
    """Zamolodchikov's W3 algebra at central charge c in the notation of
    the bundled `w3_c_minus2` table: w = L of weight 2, v = W of weight 3,
    and b = 32/(22 + 5c) in the W x W product."""
    b = Fraction(32) / (22 + 5 * c)

    def rel(i, j, k, *terms):
        return {"i": i, "j": j, "k": k, "value": [
            {"coeff": str(Fraction(x)), "word": [list(op) for op in word]}
            for x, word in terms]}

    return {
        "name": "w3-central-charge-%s" % c,
        "generators": [{"symbol": "w", "weight": 2},
                       {"symbol": "v", "weight": 3}],
        "relations": [
            rel(0, 0, 1, (2, [("w", -1)])),
            rel(0, 0, 3, (c / 2, [])),
            rel(0, 1, 0, (1, [("v", -2)])),
            rel(0, 1, 1, (3, [("v", -1)])),
            rel(1, 1, 1, (b, [("w", -1), ("w", -1)]),
                (Fraction(3, 5) * (1 - b), [("w", -3)])),
            rel(1, 1, 3, (2, [("w", -1)])),
            rel(1, 1, 5, (c / 3, [])),
        ],
    }


def sl_document(n, level) -> dict:
    """L_k(sl_n), n <= 9, on the basis eij = E_ij (i != j) and hi = E_ii -
    E_{i+1,i+1}, all of weight 1: x_0 y = [x, y] solved in the basis,
    x_1 y = k tr(xy), and the seed e_theta(-1)^{k+1}|0> for e_theta =
    e1n."""
    def matrix(symbol):
        m = [[0] * n for _ in range(n)]
        a, b = int(symbol[1]) - 1, int(symbol[-1]) - 1
        if symbol[0] == "h":
            m[a][a], m[a + 1][a + 1] = 1, -1
        else:
            m[a][b] = 1
        return m

    def product(x, y):
        return [[sum(x[r][t] * y[t][c] for t in range(n)) for c in range(n)]
                for r in range(n)]

    def coordinates(m):
        """m in the basis: off-diagonal entries, then the partial sums
        of the diagonal, the coefficients of the h<i>."""
        out = {"e%d%d" % (r + 1, c + 1): m[r][c] for r in range(n)
               for c in range(n) if r != c}
        out.update(("h%d" % (i + 1), sum(m[r][r] for r in range(i + 1)))
                   for i in range(n - 1))
        return out

    symbols = (["e%d%d" % (i, j) for i in range(1, n + 1)
                for j in range(i + 1, n + 1)]
               + ["h%d" % i for i in range(1, n)]
               + ["e%d%d" % (j, i) for i in range(1, n + 1)
                  for j in range(i + 1, n + 1)])
    relations = []
    for i, a in enumerate(symbols):
        for j in range(i, len(symbols)):
            x, y = matrix(a), matrix(symbols[j])
            xy, yx = product(x, y), product(y, x)
            bracket = coordinates([[p - q for p, q in zip(r, s)]
                                   for r, s in zip(xy, yx)])
            terms = {0: [(c, [(s, -1)]) for s, c in bracket.items() if c],
                     1: [(level * sum(xy[r][r] for r in range(n)), [])]}
            for k in (0, 1) if i < j else (1,):
                value = [{"coeff": str(c), "word": [list(op) for op in word]}
                         for c, word in terms[k] if c]
                if value:
                    relations.append({"i": i, "j": j, "k": k, "value": value})
    theta = "e1%d" % n
    return {
        "name": "affine-sl%d-k%d" % (n, level),
        "generators": [{"symbol": s, "weight": 1} for s in symbols],
        "relations": relations,
        "singular_vectors": [{"name": "%s^%d" % (theta, level + 1), "value": [
            {"coeff": "1", "word": [[theta, -1]] * (level + 1)}]}],
    }


# level -> (dimension, sha256 of the `zhu` and `quotient` documents that
# `zhuforge zhu|quotient` prints at the default bounds) for L_k(sl3).  The
# dimension is the sum of (dim V_lambda)^2 over the dominant weights of
# level <= k (Frenkel & Zhu 1992): 1 + 9 + 9 = 19 at k = 1, and
# 19 + 36 + 36 + 64 = 155 at k = 2.
SL3_MEMBERS = {
    1: (19, ("f606e1e5fe7eb4beb1e6b9c9aafdc0449977a60b433aaee4610d1757b909a388",
             "f3c85046a806825dd77628891d8f0a5b2cb8f4f36d3ffd77ec3467d074d3fa55")),
    2: (155, ("70580ad1e1e7dec23f663cd355e03121aec507a2ad47f450d3862d0f01de472f",
              "2c7047b84c2aff80f2681d4bcc2eefaef5168ffbf9ad736619e3d30cb70fa18f")),
}


def sl_quotient(n, level, dimension):
    """The complete closure of L_level(sl_n) at the default bounds and its
    certified quotient, checked to have `dimension`."""
    p = parse_presentation(sl_document(n, level))
    assert validate(p) == []
    table = complete_table(p)
    assert c1_singular_elements(p, table) == []
    zp = relation_closure(list(p.singular_vectors), p, table, None, [])
    assert zp.status == "complete"
    model = quotient_basis(zp)
    assert model.dimension == dimension
    assert model.status.startswith("stabilized")
    assert check_matrix_model(zp, model.matrices) == (True, [])
    assert certificate_failures(zp.groebner) == []
    return zp, model


@pytest.mark.parametrize("level", sorted(SL3_MEMBERS))
def test_sl3_members_have_the_frenkel_zhu_dimension(level):
    dimension, digests = SL3_MEMBERS[level]
    zp, model = sl_quotient(3, level, dimension)
    assert (digest(documents.zhu_document(zp)),
            digest(documents.quotient_document(zp, model))) == digests


# sha256 of the `zhu` and `quotient` documents of L_1(sl4), as `zhuforge
# zhu|quotient` prints them at the default bounds.
SL4_LEVEL_ONE_DIGESTS = (
    "1b1fc23c146e398562b274459bbf652e174382f51d038773578e47718f88def3",
    "f14932d5d80a99c641126973e248283aadf9d087c4e3ae286cc84f202bfee517")


def test_sl4_level_one_has_the_frenkel_zhu_dimension():
    # The dominant weights of level <= 1 are 0 and the three fundamental
    # weights: 1 + 4^2 + 6^2 + 4^2 = 69 (Frenkel & Zhu 1992).  Every
    # generator of sl4 is linear, so every right product is a bracket.
    zp, model = sl_quotient(4, 1, 69)
    assert len(zp.extra_relations) == 1
    assert zp.algebra.linear == set(range(15))
    assert (digest(documents.zhu_document(zp)),
            digest(documents.quotient_document(zp, model))) \
        == SL4_LEVEL_ONE_DIGESTS


def joint_kernel(table, ops, weight) -> list:
    """A basis of the states of `weight` (on PBW words) that every mode in
    `ops` kills: rows [image | identity] eliminated with every image
    coordinate above every identity coordinate, so that a row reduced into
    the identity block is a kernel vector."""
    words = pbw_words(table.weights, weight)
    span = linalg.SpanBuilder()
    kernel = []
    for n, word in enumerate(words):
        row = {(0, n): Fraction(1)}
        for op in ops:
            for w, c in table.apply_mode(op, {word: 1}).items():
                row[(1, op, w)] = c
        residue, pivot = span.reduce(row)
        if pivot is not None and pivot[0] == 0:
            kernel.append({words[col]: c for (_, col), c in residue.items()})
        span.add(residue)
    return kernel


def test_w3_table_at_c_minus_2_is_the_bundled_one():
    bundled = load_bundled("w3_c_minus2")
    p = parse_presentation(w3_document(Fraction(-2)))
    assert p.generators == bundled.generators
    assert p.relations == bundled.relations


def test_w3_minimal_model_4_5_has_the_potts_zhu_algebra():
    """W3(4,5): c = 2(1 - 12/20) = 4/5, b = 16/13.  The null vector at
    weight (4 - 2)(5 - 2) = 6 is the one state there that L_1, L_2, W_1
    and W_2 kill.  A(V) is C^6, one point per irreducible module, and x_L
    has the six conformal weights of the 3-state Potts model as its
    spectrum: 0, 2/5, 2/3 twice and 1/15 twice (Fateev & Lukyanov 1988)."""
    p = parse_presentation(w3_document(Fraction(4, 5)))
    assert validate(p) == []
    table = complete_table(p)
    assert c1_singular_elements(p, table) == []
    null = joint_kernel(table, [(0, 2), (0, 3), (1, 3), (1, 4)], 6)
    assert len(null) == 1
    # At the default membership bound 8 the basis of the first two
    # relations is not complete when the third arrives ("inconclusive");
    # at 10 it is, and the third is new modulo the first two.
    bounds = ClosureBounds(membership_degree_bound=10)
    zp = relation_closure([("null", null[0])], p, table, bounds, [])
    assert zp.status == "complete"
    assert [prov["membership"] for prov in zp.provenance] == ["nonzero"] * 3
    model = quotient_basis(zp)
    assert model.dimension == 6
    assert check_matrix_model(zp, model.matrices) == (True, [])
    roots = {Fraction(0): 1, Fraction(2, 5): 1, Fraction(2, 3): 2,
             Fraction(1, 15): 2}
    x_l = dense(model.matrices["w"], 6)
    char = NCPoly.term(())
    for h, multiplicity in roots.items():
        char = char * (NCPoly.term((0,)) - NCPoly.term((), h))
        shifted = linalg.SpanBuilder()
        for r, row in enumerate(x_l):
            shifted.add({c: x - (h if r == c else 0)
                         for c, x in enumerate(row)})
        assert 6 - len(shifted) == multiplicity, h
    mats = [model.matrices[s] for s in zp.generators]
    assert not any(poly_matrix(char, mats, 6)[0])
