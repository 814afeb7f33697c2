"""Families of presentations whose Zhu algebras are known in closed form.

Each generator returns a presentation document (the JSON shape that
``zhuforge quotient --input`` reads) together with the answer the
literature predicts for it:

* Virasoro minimal models M(p, q): Zhu algebra C[x] / (prod (x - h_{r,s})),
  of dimension (p-1)(q-1)/2 (Wang 1993).
* Affine sl2 at positive integer level k: U(sl2) / (e^{k+1}), of dimension
  sum_{n <= k} (n+1)^2 (Frenkel-Zhu 1992).
* The rank-one lattice algebra V_L with L = sqrt(2N) Z: dimension 2N + 3,
  from the cosets of L in its dual (Dong 1993).

Every member can be drawn with its generators in any order and with one
generator rescaled by a nonzero rational.  Neither changes the algebra, so
the closed-form answer holds for every draw; only the cost of the
computation moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from zhuforge import parse_presentation, validate
from zhuforge.engine import Engine, pbw_words
from zhuforge.linalg import SpanBuilder


@dataclass
class Member:
    """One family member: its input document and its closed-form answer."""

    label: str
    doc: dict
    dimension: int
    # Extra answer checks beyond the dimension: callables taking the
    # ZhuPresentation and returning an error message or None.
    checks: list = field(default_factory=list)


def _state(terms):
    """[(coeff, [(symbol, mode), ...]), ...] -> the JSON value list."""
    return [{"coeff": str(Fraction(c)), "word": [[s, m] for s, m in word]}
            for c, word in terms if c]


def _document(name, gens, ope, order, scaled, scale, singular=()):
    """Presentation document from orientation-free product data.

    `gens` maps symbol -> weight; `ope(a, b, k)` gives u^a_k u^b as a list
    of (coeff, word) terms in symbols, for both orientations.  Generators
    are listed in `order`; only the canonical half of the table (i < j, and
    odd k on the diagonal) is stored.  Rescaling u^scaled -> scale * u^scaled
    multiplies a term by scale ** (#scaled among a, b) / scale ** (#scaled
    in the word).
    """
    def rescale(a, b, terms):
        out = []
        for c, word in terms:
            power = ((a == scaled) + (b == scaled)
                     - sum(1 for s, _ in word if s == scaled))
            out.append((Fraction(c) * scale ** power, word))
        return out

    relations = []
    for i, a in enumerate(order):
        for j in range(i, len(order)):
            b = order[j]
            for k in range(gens[a] + gens[b]):
                if i == j and k % 2 == 0:
                    continue
                value = _state(rescale(a, b, ope(a, b, k)))
                if value:
                    relations.append({"i": i, "j": j, "k": k, "value": value})
    return {
        "name": name,
        "generators": [{"symbol": s, "weight": gens[s]} for s in order],
        "relations": relations,
        "singular_vectors": [
            {"name": label, "value": _state(rescale(None, None, terms))}
            for label, terms in singular],
    }


def checked(doc):
    """Parse and validate a generated document; raise if it is invalid."""
    p = parse_presentation(doc)
    issues = validate(p)
    if issues:
        raise ValueError("%s: %s" % (doc["name"], "; ".join(issues)))
    return p


# ----------------------------------------------------------------------
# Virasoro minimal models

def virasoro_central_charge(p, q) -> Fraction:
    return 1 - Fraction(6 * (p - q) ** 2, p * q)


def virasoro_weights(p, q) -> list:
    """The distinct h_{r,s} of M(p, q), sorted."""
    return sorted({Fraction((q * r - p * s) ** 2 - (p - q) ** 2, 4 * p * q)
                   for r in range(1, p) for s in range(1, q)})


def null_vector(doc, weight):
    """The singular vector of weight `weight` in the vacuum module.

    It is the joint kernel of L_1 = L_{(2)} and L_2 = L_{(3)} on the PBW
    words of that weight, found by eliminating [image | identity] rows in a
    SpanBuilder whose order puts every image coordinate above every
    identity coordinate: a row that reduces into the identity block is a
    kernel vector.
    """
    engine = Engine(checked(doc))
    words = pbw_words(engine.weights, weight)
    span = SpanBuilder()
    kernel = []
    for n, word in enumerate(words):
        row = {(0, n): Fraction(1)}
        for mode in (2, 3):
            for w, c in engine.apply_mode((0, mode), {word: 1}).items():
                row[(1, mode, tuple(w))] = c
        residue, pivot = span.reduce(row)
        if pivot is not None and pivot[0] == 0:
            kernel.append({words[col]: c for (_, col), c in residue.items()})
        span.add(residue)
    if len(kernel) != 1:
        raise ValueError("%s: expected one null vector at weight %d, found %d"
                         % (doc["name"], weight, len(kernel)))
    return kernel[0]


def virasoro_member(p, q, scale=Fraction(1)) -> Member:
    """M(p, q) with L rescaled by `scale`; the null vector is a seed."""
    c = virasoro_central_charge(p, q)

    def ope(a, b, k):
        return {1: [(2, [("L", -1)])], 3: [(c / 2, [])]}.get(k, [])

    label = "M(%d,%d)" % (p, q)
    doc = _document("virasoro-" + label, {"L": 2}, ope, ["L"], "L", scale)
    weight = (p - 1) * (q - 1)
    null = null_vector(doc, weight)
    doc["singular_vectors"] = [{
        "name": "null",
        "value": _state((cf, [("L", m) for _, m in word])
                        for word, cf in sorted(null.items()))}]
    checked(doc)
    roots = [scale * h for h in virasoro_weights(p, q)]

    def single_relation(zp):
        if len(zp.extra_relations) != 1:
            return "%d extra relations, expected 1" % len(zp.extra_relations)
        got = zp.extra_relations[0].coeffs
        want = {(): Fraction(1)}
        for r in roots:                 # multiply by (x - r)
            nxt = {}
            for mono, cf in want.items():
                nxt[mono + (0,)] = nxt.get(mono + (0,), 0) + cf
                nxt[mono] = nxt.get(mono, 0) - r * cf
            want = {m: cf for m, cf in nxt.items() if cf}
        lead = got.get((0,) * len(roots))
        if not lead or {m: cf / lead for m, cf in got.items()} != want:
            return "extra relation is not proportional to prod(x - h_rs)"
        return None

    return Member("%s*%s" % (label, scale), doc, dimension=weight // 2,
                  checks=[single_relation])


# ----------------------------------------------------------------------
# affine sl2

def sl2_dimension(level) -> int:
    return sum((n + 1) ** 2 for n in range(level + 1))


def sl2_member(level, order=("e", "h", "f"), scaled="e",
               scale=Fraction(1)) -> Member:
    """L_k(sl2) with generators e, h, f of weight 1 and e_{-1}^{k+1}|0>."""
    table = {
        ("h", "e", 0): [(2, [("e", -1)])],
        ("h", "f", 0): [(-2, [("f", -1)])],
        ("e", "f", 0): [(1, [("h", -1)])],
        ("h", "h", 1): [(2 * level, [])],
        ("e", "f", 1): [(level, [])],
    }

    def ope(a, b, k):
        if (a, b, k) in table:
            return table[(a, b, k)]
        # weight-one skew symmetry: b_0 a = -a_0 b, b_1 a = a_1 b
        return [((-1) ** (k + 1) * c, w) for c, w in table.get((b, a, k), [])]

    label = "sl2_k%d" % level
    singular = [("e^%d" % (level + 1), [(1, [("e", -1)] * (level + 1))])]
    doc = _document("affine-" + label, {"e": 1, "h": 1, "f": 1}, ope,
                    list(order), scaled, scale, singular)
    checked(doc)
    return Member("%s[%s]%s*%s" % (label, "".join(order), scaled, scale),
                  doc, dimension=sl2_dimension(level))


# ----------------------------------------------------------------------
# rank-one lattice

def _schur(n, sign):
    """Coefficient of z^n in exp(sign * sum_{m>=1} a_{-m} z^m / m).

    Returned as (coeff, word) terms with words in PBW order (modes weakly
    increasing), summed over the partitions of n.
    """
    out = []

    def parts(rem, largest, acc):
        if rem == 0:
            coeff = Fraction(1)
            for m in set(acc):
                mult = acc.count(m)
                coeff *= Fraction(sign ** mult, m ** mult * factorial(mult))
            out.append((coeff, [("a", -m) for m in acc]))
            return
        for m in range(min(rem, largest), 0, -1):
            parts(rem - m, m, acc + [m])

    parts(n, n, [])
    return out


def lattice_member(norm, order=("a", "ea", "em"), scaled="ea",
                   scale=Fraction(1), with_singular=True) -> Member:
    """V_L for L = sqrt(2N) Z: a of weight 1, e^{+-alpha} of weight N.

    e^{+a}_k e^{-a} and e^{-a}_k e^{+a} are Schur polynomials in the a_{-m};
    with `with_singular` the seeds include e^{+-a}_{-1} e^{+-a}, which are
    zero in V_L.
    """
    two_n = 2 * norm
    sign = {"ea": 1, "em": -1}

    def ope(a, b, k):
        if a == b == "a":
            return [(two_n, [])] if k == 1 else []
        if a == "a":
            return [(sign[b] * two_n, [(b, -1)])] if k == 0 else []
        if b == "a":
            return [(-sign[a] * two_n, [(a, -1)])] if k == 0 else []
        if a == b:
            return []
        return _schur(two_n - 1 - k, sign[a])

    label = "lattice_N%d" % norm
    singular = ([("ea_-1 ea", [(1, [("ea", -1), ("ea", -1)])]),
                 ("em_-1 em", [(1, [("em", -1), ("em", -1)])])]
                if with_singular else [])
    doc = _document("lattice-rank1-norm%d" % two_n,
                    {"a": 1, "ea": norm, "em": norm}, ope, list(order),
                    scaled, scale, singular)
    checked(doc)
    return Member("%s[%s]%s*%s" % (label, ",".join(order), scaled, scale),
                  doc, dimension=two_n + 3)
