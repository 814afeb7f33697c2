"""Presentations of a vertex algebra by generators and product tables.

A presentation consists of finitely many generators u^0, ..., u^{l-1} with
positive integer weights, together with the stored half of the product table

    R(i, j, k) = u^i_k u^j   (k >= 0),

given as states in PBW form.  Stored entries live in the canonical domain:
off-diagonal pairs are stored with i < j (any k >= 0), diagonal pairs only
for odd k — the other half is recovered by skew symmetry, and diagonal even
modes by the derivative identity (see engine.Engine.get).  A presentation may
also carry named singular vectors: homogeneous states that seed ideal
computations downstream.

Input files are JSON:

    {
      "name": "...",
      "generators": [{"symbol": "w", "weight": 2}, ...],
      "relations": [
        {"i": 0, "j": 0, "k": 1,
         "value": [{"coeff": "2", "word": [["w", -1]]}]},
        ...
      ],
      "singular_vectors": [{"name": "v_s", "value": [...]}]    # optional
    }

A term of a value is {"coeff": ..., "word": ...}.  Coefficients are
exact rationals written "p/q" or "p"; weights, indices and modes are JSON
integers, never true or false; a word is a list of [symbol, mode] pairs
applied to the vacuum, and the empty list is the vacuum itself.  Any other
key is an error (the bounds of a run are command-line flags).  The parser
reports structural problems (bad JSON shapes, unknown symbols, unknown
keys) as PresentationError with the offending path; mathematical problems
(inhomogeneous values, non-PBW words, out-of-domain keys) are collected by
`validate`, which returns a report — an empty report means valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import terms
from .terms import ONE, is_zero_word, state_iadd, word_weight


class PresentationError(ValueError):
    """Structural (schema-level) problem in an input document."""


@dataclass(frozen=True)
class Generator:
    symbol: str
    weight: int


@dataclass
class Presentation:
    name: str
    generators: tuple
    relations: dict            # (i, j, k) -> state
    singular_vectors: list     # list of (name, state) pairs, input order

    @property
    def weights(self):
        return tuple(g.weight for g in self.generators)

    @property
    def symbols(self):
        return tuple(g.symbol for g in self.generators)

    @property
    def symbol_index(self):
        return {g.symbol: i for i, g in enumerate(self.generators)}

    def parse_state(self, text: str) -> dict:
        return terms.parse_state(text, self.symbol_index)

    def render_state(self, s: dict) -> str:
        return terms.render_state(s, self.symbols, self.weights)

    def generator_state(self, i: int) -> dict:
        """The generator u^i as the state u^i_{-1}|vac>, of weight wt(u^i)."""
        return {((i, -1),): ONE}


def _expect(cond, path, msg):
    if not cond:
        raise PresentationError(f"{path}: {msg}")


def _expect_keys(item: dict, path, known):
    """Reject the first key of the JSON object `item` not in `known`."""
    for key in item:
        _expect(key in known, path, f"unknown key {key!r}")


def _parse_value(entries, symbol_index, path):
    _expect(isinstance(entries, list), path, "value must be a list of terms")
    state: dict = {}
    for t, entry in enumerate(entries):
        epath = f"{path}[{t}]"
        _expect(isinstance(entry, dict), epath, "term must be an object")
        _expect_keys(entry, epath, ("coeff", "word"))
        _expect("coeff" in entry, epath, "missing 'coeff'")
        _expect("word" in entry, epath, "missing 'word'")
        try:
            coeff = Fraction(str(entry["coeff"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise PresentationError(f"{epath}.coeff: not a rational: {exc}")
        word = []
        _expect(isinstance(entry["word"], list), f"{epath}.word", "must be a list")
        for p, pair in enumerate(entry["word"]):
            ppath = f"{epath}.word[{p}]"
            _expect(isinstance(pair, list) and len(pair) == 2, ppath,
                    "must be a [symbol, mode] pair")
            sym, mode = pair
            _expect(sym in symbol_index, ppath, f"unknown generator symbol {sym!r}")
            _expect(type(mode) is int, ppath, "mode must be an integer")
            word.append((symbol_index[sym], mode))
        if coeff:
            state_iadd(state, {tuple(word): coeff})
    return state


def parse_presentation(doc) -> Presentation:
    """Build a Presentation from a decoded JSON object."""
    _expect(isinstance(doc, dict), "$", "input must be a JSON object")
    _expect_keys(doc, "$", ("name", "generators", "relations",
                            "singular_vectors"))
    _expect("name" in doc, "$", "missing 'name'")
    _expect(isinstance(doc["name"], str), "name", "must be a string")
    _expect("generators" in doc, "$", "missing 'generators'")
    _expect(isinstance(doc["generators"], list) and doc["generators"],
            "generators", "must be a non-empty list")

    gens = []
    seen = set()
    for g, item in enumerate(doc["generators"]):
        path = f"generators[{g}]"
        _expect(isinstance(item, dict), path, "must be an object")
        _expect_keys(item, path, ("symbol", "weight"))
        _expect(isinstance(item.get("symbol"), str) and item["symbol"],
                f"{path}.symbol", "must be a non-empty string")
        _expect(type(item.get("weight")) is int, f"{path}.weight",
                "must be an integer")
        _expect(item["symbol"] not in seen, f"{path}.symbol",
                f"duplicate symbol {item['symbol']!r}")
        seen.add(item["symbol"])
        gens.append(Generator(item["symbol"], item["weight"]))
    symbol_index = {g.symbol: i for i, g in enumerate(gens)}

    relations = {}
    _expect(isinstance(doc.get("relations", []), list), "relations", "must be a list")
    for r, item in enumerate(doc.get("relations", [])):
        path = f"relations[{r}]"
        _expect(isinstance(item, dict), path, "must be an object")
        _expect_keys(item, path, ("i", "j", "k", "value"))
        for key in ("i", "j", "k"):
            _expect(type(item.get(key)) is int, f"{path}.{key}",
                    "must be an integer")
        i, j, k = item["i"], item["j"], item["k"]
        for key, val in (("i", i), ("j", j)):
            _expect(0 <= val < len(gens), f"{path}.{key}",
                    f"generator index {val} out of range")
        _expect((i, j, k) not in relations, path, f"duplicate key ({i},{j},{k})")
        _expect("value" in item, path, "missing 'value'")
        relations[(i, j, k)] = _parse_value(item["value"], symbol_index,
                                            f"{path}.value")

    singular = []
    _expect(isinstance(doc.get("singular_vectors", []), list),
            "singular_vectors", "must be a list")
    for s, item in enumerate(doc.get("singular_vectors", [])):
        path = f"singular_vectors[{s}]"
        _expect(isinstance(item, dict), path, "must be an object")
        _expect_keys(item, path, ("name", "value"))
        _expect(isinstance(item.get("name"), str) and item["name"],
                f"{path}.name", "must be a non-empty string")
        _expect("value" in item, path, "missing 'value'")
        singular.append((item["name"],
                         _parse_value(item["value"], symbol_index, f"{path}.value")))

    return Presentation(doc["name"], tuple(gens), relations, singular)


def load_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PresentationError(f"{path}: invalid JSON: {exc}")
    return parse_presentation(doc)


def is_pbw_word(word, weights) -> bool:
    """Modes all negative, weakly increasing, ties by generator index."""
    for (i, m), (j, n) in zip(word, word[1:]):
        if not (m < n or (m == n and i <= j)):
            return False
    return all(m < 0 for _, m in word)


def validate(p: Presentation) -> list:
    """Mathematical validity report; empty list means valid.

    Checks, in order: generator weights positive; stored keys inside the
    canonical domain (i <= j, i = j only with odd k, k >= 0); every value
    homogeneous of the forced weight wt_i + wt_j - k - 1 (in particular no
    entries are allowed where that weight is negative); every value word in
    PBW form; singular vectors homogeneous of positive weight.
    """
    report = []
    weights = p.weights
    for i, g in enumerate(p.generators):
        if g.weight < 1:
            report.append(f"generators[{i}].weight: must be >= 1, got {g.weight}")
    if report:
        return report

    for (i, j, k), value in sorted(p.relations.items()):
        where = f"relation ({i},{j},{k})"
        if k < 0:
            report.append(f"{where}: mode k must be >= 0")
            continue
        if i > j:
            report.append(f"{where}: stored domain requires i <= j "
                          f"(the (j,i) side is derived by skew symmetry)")
            continue
        if i == j and k % 2 == 0:
            report.append(f"{where}: diagonal entries are stored for odd k only "
                          f"(even modes are derived)")
            continue
        target = weights[i] + weights[j] - k - 1
        if target < 0 and value:
            report.append(f"{where}: forced weight {target} is negative; "
                          f"entry must be absent or zero")
            continue
        for word in value:
            w = word_weight(word, weights)
            if w != target:
                report.append(f"{where}: word {word} has weight {w}, "
                              f"expected {target}")
            if not is_pbw_word(word, weights):
                report.append(f"{where}: word {word} is not in PBW order")
            if is_zero_word(word, weights):
                report.append(f"{where}: word {word} is zero by grading")

    for name, value in p.singular_vectors:
        where = f"singular vector {name!r}"
        if not value:
            report.append(f"{where}: zero state")
            continue
        found = {word_weight(w, weights) for w in value}
        if len(found) != 1:
            report.append(f"{where}: not homogeneous, weights {sorted(found)}")
        elif found.pop() <= 0:
            report.append(f"{where}: weight must be positive")
        for word in value:
            if any(m >= 0 for _, m in word):
                report.append(f"{where}: word {word} has a nonnegative mode")
    return report
