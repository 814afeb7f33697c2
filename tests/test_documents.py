"""JSON document builders and the round-trip reader are mutually inverse.

The package never reads a document back, so the reader lives here: one
parse function per document kind, each rebuilding the objects its builder
was given.  The text views render the documents themselves.
"""

from fractions import Fraction

from zhuforge.documents import (
    nf_document,
    poly_terms,
    quotient_document,
    render_nf_text,
    render_quotient_text,
    render_singular_text,
    render_table_text,
    render_validation_text,
    render_zhu_text,
    singular_document,
    state_terms,
    table_document,
    validation_document,
    zhu_document,
)
from zhuforge.quotient import QuotientModel, matrix_columns, quotient_basis
from zhuforge.zhu import NCPoly, ZhuPresentation

# ----------------------------------------------------------------------
# the round-trip reader

def parse_state_terms(entries, symbol_index: dict) -> dict:
    state: dict = {}
    for item in entries:
        word = tuple((symbol_index[sym], int(mode))
                     for sym, mode in item["word"])
        c = Fraction(item["coeff"])
        if c:
            state[word] = state.get(word, 0) + c
    return {w: c for w, c in state.items() if c}


def parse_poly_terms(entries, symbol_index: dict) -> NCPoly:
    return NCPoly((tuple(symbol_index[s] for s in item["monomial"]),
                   Fraction(item["coeff"]))
                  for item in entries)


def parse_validation_document(doc) -> tuple:
    return doc["presentation"], bool(doc["valid"]), list(doc["issues"])


def parse_table_document(doc) -> dict:
    index = {g["symbol"]: n for n, g in enumerate(doc["generators"])}
    entries = {}
    for item in doc["entries"]:
        key = (index[item["i"]], index[item["j"]], int(item["k"]))
        entries[key] = parse_state_terms(item["value"], index)
    return {
        "presentation": doc["presentation"],
        "weights": tuple(int(g["weight"]) for g in doc["generators"]),
        "symbols": tuple(g["symbol"] for g in doc["generators"]),
        "entries": entries,
    }


def parse_nf_document(doc, symbol_index: dict) -> dict:
    return parse_state_terms(doc["normal_form"], symbol_index)


def parse_singular_document(doc, symbol_index: dict) -> list:
    out = []
    for item in doc["defects"]:
        out.append({
            "indices": tuple(int(x) for x in item["indices"]),
            "weight": int(item["weight"]),
            "value": parse_state_terms(item["value"], symbol_index),
            "value_bracket_added": parse_state_terms(
                item["value_bracket_added"], symbol_index),
        })
    return out


def parse_zhu_document(doc) -> ZhuPresentation:
    symbols = tuple(g["symbol"] for g in doc["generators"])
    index = {s: n for n, s in enumerate(symbols)}
    return ZhuPresentation(
        generators=symbols,
        weights=tuple(int(g["weight"]) for g in doc["generators"]),
        commutator_relations=[parse_poly_terms(r, index)
                              for r in doc["commutator_relations"]],
        extra_relations=[parse_poly_terms(r, index)
                         for r in doc["extra_relations"]],
        provenance=[dict(pr) for pr in doc["provenance"]],
        status=doc["status"],
        partial_reason=doc["partial_reason"],
    )


def parse_quotient_document(doc, symbol_index: dict):
    dim = doc["dimension"]
    return QuotientModel(
        basis=[tuple(symbol_index[s] for s in mono) for mono in doc["basis"]],
        dimension=dim if isinstance(dim, str) else int(dim),
        matrices={sym: matrix_columns([[Fraction(x) for x in row]
                                       for row in mat])
                  for sym, mat in doc["matrices"].items()},
        status=doc["status"],
    )


# ----------------------------------------------------------------------
# round trips

def test_state_terms_round_trip(w3):
    s = w3.parse_state("3/2*v(-1)v(-1) - 8/9*w(-1)w(-1)w(-1) + w(-5)")
    entries = state_terms(s, w3.symbols, w3.weights)
    assert all(set(e) == {"coeff", "word"} for e in entries)
    assert parse_state_terms(entries, w3.symbol_index) == s
    assert parse_state_terms([], w3.symbol_index) == {}


def test_poly_terms_round_trip():
    p = NCPoly({(0, 1): Fraction(3, 2), (): Fraction(-1), (1, 0, 1): Fraction(7)})
    entries = poly_terms(p, ("w", "v"))
    assert entries[0] == {"coeff": "-1", "monomial": []}
    assert parse_poly_terms(entries, {"w": 0, "v": 1}) == p


def test_validation_document_round_trip(virasoro):
    doc = validation_document(virasoro, [])
    assert parse_validation_document(doc) == (virasoro.name, True, [])
    doc = validation_document(virasoro, ["relation (0,0,2): bad"])
    name, ok, issues = parse_validation_document(doc)
    assert not ok and issues == ["relation (0,0,2): bad"]
    text = render_validation_text(doc)
    assert "valid: no" in text and "issue: relation (0,0,2): bad" in text


def test_table_document_round_trip(virasoro, virasoro_table):
    doc = table_document(virasoro, virasoro_table)
    back = parse_table_document(doc)
    assert back["presentation"] == virasoro.name
    assert back["symbols"] == ("w",) and back["weights"] == (2,)
    assert back["entries"][(0, 0, 0)] == virasoro_table.get(0, 0, 0)
    assert back["entries"][(0, 0, 1)] == {((0, -1),): 2}
    text = render_table_text(doc)
    assert "R(w,w,1) = 2*w(-1)" in text
    assert "R(w,w,2) = 0" in text


def test_nf_document_round_trip(virasoro, virasoro_table):
    expr = "w(0)w(-3)1"
    state = virasoro_table.normal_form(virasoro.parse_state(expr))
    doc = nf_document(virasoro, expr, state)
    assert doc["rendered"] == "3*w(-4)"
    assert parse_nf_document(doc, virasoro.symbol_index) == state
    assert render_nf_text(doc).splitlines() == [
        "presentation: " + virasoro.name, "input: " + expr,
        "normal form: 3*w(-4)"]


def test_singular_document_round_trip(lattice, lattice_defects):
    doc = singular_document(lattice, lattice_defects, nondegenerate=False)
    assert doc["degenerate"] is True
    assert doc["defects"][0]["witness"] == \
        "ea_1 ea_0 em - ea_0 ea_1 em - [ea_1,ea_0] em"
    back = parse_singular_document(doc, lattice.symbol_index)
    assert [d["indices"] for d in back] == [d.indices for d in lattice_defects]
    assert back[0]["value"] == lattice_defects[0].value
    assert back[1]["value_bracket_added"] == \
        lattice_defects[1].value_bracket_added
    text = render_singular_text(doc)
    assert "verdict: degenerate" in text

    empty = singular_document(lattice, [], nondegenerate=True)
    assert empty["degenerate"] is False and empty["defects"] == []


def test_zhu_document_round_trip(w3_closure, lattice_closure):
    for zp in (w3_closure, lattice_closure):
        back = parse_zhu_document(zhu_document(zp))
        assert back.generators == zp.generators
        assert back.weights == zp.weights
        assert back.commutator_relations == zp.commutator_relations
        assert back.extra_relations == zp.extra_relations
        assert back.provenance == zp.provenance
        assert back.status == zp.status and back.partial_reason is None
        # The reconstructed presentation carries no engine state.
        assert back.algebra is None
    text = render_zhu_text(zhu_document(lattice_closure))
    assert "o(defect(1, 1, 1, 0, 2)): -20*x_ea + 10*x_a*x_ea" in text
    assert "o(ea_0" not in text
    assert "-4*x_ea + x_a*x_ea - x_ea*x_a = 0" in text


def test_quotient_document_round_trip(lattice, lattice_closure):
    model = quotient_basis(lattice_closure, degree_bound=10)
    doc = quotient_document(lattice_closure, model)
    assert doc["dimension"] == 7
    assert doc["basis"][0] == [] and ["ea", "em"] in doc["basis"]
    back = parse_quotient_document(doc, lattice.symbol_index)
    assert back.basis == model.basis
    assert back.dimension == model.dimension
    assert back.matrices == model.matrices
    assert back.status == model.status
    text = render_quotient_text(doc)
    assert "dimension: 7" in text
    assert "x_ea*x_em" in text
