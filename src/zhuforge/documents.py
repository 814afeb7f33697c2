"""Serialized views of every pipeline result.

All JSON documents use pinned orderings (states by weight/length/word,
polynomials by graded-lex monomial order, table entries by (i, j, k)), so
serializing the same object twice gives byte-identical text.  Only the
command line's own output is ever read back, and only by the test suite,
which keeps a reader for every document (tests/test_documents.py) and
checks that it rebuilds the objects each was built from.  The one reader
here, `parse_state_terms`, turns a state back for the singular-vector text.

Scalars are rational strings ("3/2", "-1"); words are [[symbol, mode],
...]; monomials are [symbol, ...].
"""

from __future__ import annotations

from .terms import (render_monomial, render_state, scalar_from_string,
                    scalar_to_string, word_sort_key)
from .zhu import NCPoly, ZhuPresentation, mono_key

# ----------------------------------------------------------------------
# states and polynomials

def state_terms(state: dict, symbols, weights) -> list:
    out = []
    for word in sorted(state, key=lambda w: word_sort_key(w, weights)):
        out.append({
            "coeff": scalar_to_string(state[word]),
            "word": [[symbols[i], m] for i, m in word],
        })
    return out


def parse_state_terms(entries, symbol_index: dict) -> dict:
    state: dict = {}
    for item in entries:
        word = tuple((symbol_index[sym], int(mode))
                     for sym, mode in item["word"])
        c = scalar_from_string(item["coeff"])
        if c:
            state[word] = state.get(word, 0) + c
    return {w: c for w, c in state.items() if c}


def poly_terms(poly: NCPoly, symbols) -> list:
    out = []
    for mono in sorted(poly.coeffs, key=mono_key):
        out.append({
            "coeff": scalar_to_string(poly.coeffs[mono]),
            "monomial": [symbols[i] for i in mono],
        })
    return out


# ----------------------------------------------------------------------
# documents

def validation_document(p, issues: list) -> dict:
    return {"presentation": p.name, "valid": not issues,
            "issues": list(issues)}


def table_document(p, table) -> dict:
    symbols, weights = p.symbols, p.weights
    entries = []
    for i, j, k, value in table.entries():
        entries.append({
            "i": symbols[i], "j": symbols[j], "k": k,
            "value": state_terms(value, symbols, weights),
        })
    return {
        "presentation": p.name,
        "generators": [{"symbol": s, "weight": w}
                       for s, w in zip(symbols, weights)],
        "entries": entries,
    }


def nf_document(p, expr: str, state: dict, strategy: str) -> dict:
    return {
        "presentation": p.name,
        "input": expr,
        "strategy": strategy,
        "normal_form": state_terms(state, p.symbols, p.weights),
        "rendered": render_state(state, p.symbols, p.weights),
    }


def singular_document(p, defects: list, nondegenerate: bool) -> dict:
    symbols, weights = p.symbols, p.weights
    items = []
    for d in defects:
        i, s, j, m, k = d.indices
        items.append({
            "indices": [i, s, j, m, k],
            "witness": "%s_%d %s_%d %s - %s_%d %s_%d %s - [%s_%d,%s_%d] %s"
                       % (symbols[i], s, symbols[j], m, symbols[k],
                          symbols[j], m, symbols[i], s, symbols[k],
                          symbols[i], s, symbols[j], m, symbols[k]),
            "weight": d.weight,
            "value": state_terms(d.value, symbols, weights),
            "value_bracket_added": state_terms(d.value_bracket_added,
                                               symbols, weights),
        })
    return {
        "presentation": p.name,
        "degenerate": not nondegenerate,
        "defects": items,
    }


def zhu_document(zp: ZhuPresentation) -> dict:
    symbols = zp.generators
    return {
        "generators": [{"symbol": s, "weight": w}
                       for s, w in zip(symbols, zp.weights)],
        "commutator_relations": [poly_terms(r, symbols)
                                 for r in zp.commutator_relations],
        "extra_relations": [poly_terms(r, symbols)
                            for r in zp.extra_relations],
        "provenance": [dict(pr) for pr in zp.provenance],
        "status": zp.status,
        "partial_reason": zp.partial_reason,
    }


def quotient_document(zp: ZhuPresentation, model) -> dict:
    symbols = zp.generators
    return {
        "basis": [[symbols[i] for i in mono] for mono in model.basis],
        "dimension": model.dimension,
        "matrices": {sym: [[scalar_to_string(x) for x in row]
                           for row in model.matrices[sym]]
                     for sym in symbols if sym in model.matrices},
        "status": model.status,
    }


# ----------------------------------------------------------------------
# text renderings

def render_validation_text(doc) -> str:
    lines = ["presentation: %s" % doc["presentation"],
             "valid: %s" % ("yes" if doc["valid"] else "no")]
    lines += ["  issue: %s" % msg for msg in doc["issues"]]
    return "\n".join(lines)


def render_table_text(p, table) -> str:
    symbols, weights = p.symbols, p.weights
    lines = ["presentation: %s" % p.name,
             "generators: " + ", ".join("%s (weight %d)" % (s, w)
                                        for s, w in zip(symbols, weights))]
    for i, j, k, value in table.entries():
        lines.append("R(%s,%s,%d) = %s"
                     % (symbols[i], symbols[j], k,
                        render_state(value, symbols, weights)))
    return "\n".join(lines)


def render_nf_text(doc) -> str:
    return "\n".join([
        "presentation: %s" % doc["presentation"],
        "input: %s" % doc["input"],
        "strategy: %s" % doc["strategy"],
        "normal form: %s" % doc["rendered"],
    ])


def render_singular_text(p, doc) -> str:
    lines = ["presentation: %s" % doc["presentation"],
             "verdict: %s" % ("degenerate" if doc["degenerate"]
                              else "non-degenerate"),
             "defects: %d" % len(doc["defects"])]
    for item in doc["defects"]:
        lines.append("  %s  (weight %d)" % (item["witness"], item["weight"]))
        state = parse_state_terms(item["value"], p.symbol_index)
        lines.append("    value: %s"
                     % render_state(state, p.symbols, p.weights))
    return "\n".join(lines)


def render_zhu_text(zp: ZhuPresentation) -> str:
    from .quotient import relation_names
    symbols = zp.generators
    lines = ["generators: " + ", ".join("x_%s (weight %d)" % (s, w)
                                        for s, w in zip(symbols, zp.weights))]
    names = relation_names(zp)
    ncomm = len(zp.commutator_relations)
    lines.append("commutator relations:")
    for rel in zp.commutator_relations:
        lines.append("  %s = 0" % rel.render(symbols))
    lines.append("extra relations:")
    for name, rel in zip(names[ncomm:], zp.extra_relations):
        lines.append("  %s: %s" % (name, rel.render(symbols)))
    lines.append("status: %s" % zp.status)
    if zp.partial_reason:
        lines.append("reason: %s" % zp.partial_reason)
    return "\n".join(lines)


def render_quotient_text(doc) -> str:
    lines = ["status: %s" % doc["status"],
             "dimension: %s" % doc["dimension"],
             "basis: " + ", ".join(render_monomial(m) for m in doc["basis"])]
    for sym in sorted(doc["matrices"]):
        lines.append("matrix x_%s:" % sym)
        mat = doc["matrices"][sym]
        width = max((len(x) for row in mat for x in row), default=1)
        for row in mat:
            lines.append("  [" + " ".join(x.rjust(width) for x in row) + "]")
    return "\n".join(lines)
