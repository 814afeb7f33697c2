"""Serialized views of every pipeline result.

Each command writes one JSON document, built here from the pipeline's
objects.  All JSON documents use pinned orderings (states by
weight/length/word, polynomials by graded-lex monomial order, table
entries by (i, j, k)), so serializing the same object twice gives
byte-identical text.  Each text view (``--format text``, `TEXT`) is
rendered from its JSON document alone, so the two formats show one
computation.  The package never reads a document back into objects; the
test suite keeps a reader for every document (tests/test_documents.py)
and checks that it rebuilds the objects each was built from.

Scalars are rational strings ("3/2", "-1"); words are [[symbol, mode],
...]; monomials are [symbol, ...].
"""

from __future__ import annotations

from fractions import Fraction

from .terms import (render_monomial, render_sum, render_word,
                    scalar_to_string, word_sort_key)
from .zhu import NCPoly, ZhuPresentation, mono_key, provenance_name

# ----------------------------------------------------------------------
# states and polynomials

def state_terms(state: dict, symbols, weights) -> list:
    return [{"coeff": scalar_to_string(state[word]),
             "word": [[symbols[i], m] for i, m in word]}
            for word in sorted(state, key=lambda w: word_sort_key(w, weights))]


def poly_terms(poly: NCPoly, symbols) -> list:
    return [{"coeff": scalar_to_string(poly.coeffs[mono]),
             "monomial": [symbols[i] for i in mono]}
            for mono in sorted(poly.coeffs, key=mono_key)]


# ----------------------------------------------------------------------
# documents

def validation_document(p, issues: list) -> dict:
    return {"presentation": p.name, "valid": not issues,
            "issues": list(issues)}


def table_document(p, table) -> dict:
    symbols, weights = p.symbols, p.weights
    return {
        "presentation": p.name,
        "generators": [{"symbol": s, "weight": w}
                       for s, w in zip(symbols, weights)],
        "entries": [{"i": symbols[i], "j": symbols[j], "k": k,
                     "value": state_terms(value, symbols, weights)}
                    for i, j, k, value in table.entries()],
    }


def nf_document(p, expr: str, state: dict) -> dict:
    entries = state_terms(state, p.symbols, p.weights)
    return {
        "presentation": p.name,
        "input": expr,
        "normal_form": entries,
        "rendered": render_terms(entries),
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
        "matrices": {sym: [[str(Fraction(col[r], den)) if r in col else "0"
                            for col in columns] for r in range(len(columns))]
                     for sym, (columns, den) in model.matrices.items()},
        "status": model.status,
    }


# ----------------------------------------------------------------------
# text renderings: each a function of its document alone

def render_terms(entries) -> str:
    """The text of a document's sum of state terms or polynomial terms."""
    return render_sum([(Fraction(e["coeff"]),
                        render_word(e["word"]) if "word" in e
                        else render_monomial(e["monomial"]))
                       for e in entries])


def render_validation_text(doc) -> str:
    lines = ["presentation: %s" % doc["presentation"],
             "valid: %s" % ("yes" if doc["valid"] else "no")]
    lines += ["  issue: %s" % msg for msg in doc["issues"]]
    return "\n".join(lines)


def render_table_text(doc) -> str:
    lines = ["presentation: %s" % doc["presentation"],
             "generators: " + ", ".join("%(symbol)s (weight %(weight)d)" % g
                                        for g in doc["generators"])]
    for item in doc["entries"]:
        lines.append("R(%s,%s,%d) = %s" % (item["i"], item["j"], item["k"],
                                          render_terms(item["value"])))
    return "\n".join(lines)


def render_nf_text(doc) -> str:
    return "\n".join([
        "presentation: %s" % doc["presentation"],
        "input: %s" % doc["input"],
        "normal form: %s" % doc["rendered"],
    ])


def render_singular_text(doc) -> str:
    lines = ["presentation: %s" % doc["presentation"],
             "verdict: %s" % ("degenerate" if doc["degenerate"]
                              else "non-degenerate"),
             "defects: %d" % len(doc["defects"])]
    for item in doc["defects"]:
        lines.append("  %s  (weight %d)" % (item["witness"], item["weight"]))
        lines.append("    value: %s" % render_terms(item["value"]))
    return "\n".join(lines)


def render_zhu_text(doc) -> str:
    lines = ["generators: " + ", ".join("x_%(symbol)s (weight %(weight)d)" % g
                                        for g in doc["generators"])]
    lines.append("commutator relations:")
    for rel in doc["commutator_relations"]:
        lines.append("  %s = 0" % render_terms(rel))
    lines.append("extra relations:")
    provenance = doc["provenance"]
    for k, rel in enumerate(doc["extra_relations"]):
        name = (provenance_name(provenance[k]) if k < len(provenance)
                else "extra[%d]" % k)
        lines.append("  %s: %s" % (name, render_terms(rel)))
    lines.append("status: %s" % doc["status"])
    if doc["partial_reason"]:
        lines.append("reason: %s" % doc["partial_reason"])
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


# The text view of each command's document.
TEXT = {"validate": render_validation_text, "complete": render_table_text,
        "nf": render_nf_text, "singular": render_singular_text,
        "zhu": render_zhu_text, "quotient": render_quotient_text}
