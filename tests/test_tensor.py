"""Tensor products of presentations: A(V1 (x) V2) = A(V1) (x) A(V2)
(Frenkel-Zhu), checked on products of the benchmark's closed-form family
members."""

from fractions import Fraction

import pytest

from conftest import defect_seeds
from zhuforge import (c1_singular_elements, check_matrix_model,
                      complete_table, parse_presentation, quotient_basis,
                      relation_closure, validate)


def tensor(doc1, doc2):
    """The presentation of V1 (x) V2 from input documents of V1 and V2.

    The generators of both factors, with the suffix 1 or 2 on each symbol;
    the second factor's generator indices shifted past the first's; both
    factors' relations and singular vectors.  A product of generators of
    different factors is absent from the table, so it is zero.
    """
    def rename(value, suffix):
        return [{"coeff": term["coeff"],
                 "word": [[sym + suffix, mode] for sym, mode in term["word"]]}
                for term in value]

    doc = {"name": "%s (x) %s" % (doc1["name"], doc2["name"]),
           "generators": [], "relations": [], "singular_vectors": []}
    for suffix, factor in (("1", doc1), ("2", doc2)):
        shift = len(doc["generators"])
        doc["generators"] += [{"symbol": g["symbol"] + suffix,
                               "weight": g["weight"]}
                              for g in factor["generators"]]
        doc["relations"] += [{"i": r["i"] + shift, "j": r["j"] + shift,
                              "k": r["k"], "value": rename(r["value"], suffix)}
                             for r in factor.get("relations", [])]
        doc["singular_vectors"] += [
            {"name": s["name"] + suffix, "value": rename(s["value"], suffix)}
            for s in factor.get("singular_vectors", [])]
    return doc


# id -> the two factors, as calls of the family generators
MEMBERS = {
    "M(2,5)-sl2_k1": (("virasoro_member", 2, 5), ("sl2_member", 1)),
    "lattice_N1-sl2_k1": (("lattice_member", 1), ("sl2_member", 1)),
    "sl2_k1-sl2_k1": (("sl2_member", 1), ("sl2_member", 1)),
    "M(2,5)-M(3,4)": (("virasoro_member", 2, 5), ("virasoro_member", 3, 4)),
    "sl2_k2-sl2_k1": (("sl2_member", 2), ("sl2_member", 1)),
}


def sparse(matrix):
    """A matrix pair (columns, den) as a dict row -> {column: nonzero
    entry}."""
    columns, den = matrix
    out = {r: {} for r in range(len(columns))}
    for c, col in enumerate(columns):
        for r, x in col.items():
            out[r][c] = Fraction(x, den)
    return out


def product(a, b):
    """The product of two matrices in the form `sparse` gives."""
    out = {}
    for r, row in a.items():
        acc = {}
        for k, x in row.items():
            for c, y in b[k].items():
                acc[c] = acc.get(c, Fraction(0)) + x * y
        out[r] = {c: v for c, v in acc.items() if v}
    return out


@pytest.mark.parametrize("case", MEMBERS)
def test_tensor_product_quotient_is_the_product_of_the_factors(families,
                                                               case):
    first, second = (getattr(families, maker)(*args)
                     for maker, *args in MEMBERS[case])
    p = parse_presentation(tensor(first.doc, second.doc))
    assert validate(p) == []
    table = complete_table(p)
    defects = c1_singular_elements(p, table)
    zp = relation_closure(list(p.singular_vectors) + defect_seeds(defects),
                          p, table, None, defects)
    assert zp.status == "complete"
    model = quotient_basis(zp, 10)
    assert model.dimension == first.dimension * second.dimension
    assert check_matrix_model(zp, model.matrices) == (True, [])
    mats = {sym: sparse(mat) for sym, mat in model.matrices.items()}
    nonzero = 0
    for a in p.symbols[:len(first.doc["generators"])]:
        for b in p.symbols[len(first.doc["generators"]):]:
            ab = product(mats[a], mats[b])
            assert ab == product(mats[b], mats[a]), (case, a, b)
            nonzero += any(ab.values())
    assert nonzero, case
