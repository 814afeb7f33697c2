"""Input parsing, structural validation, and the bundled example catalog."""

import json
from pathlib import Path

import pytest

from zhuforge import catalog
from zhuforge.catalog import bundled_names, load_bundled
from zhuforge.presentation import (
    PresentationError,
    is_pbw_word,
    load_presentation,
    parse_presentation,
    validate,
)


def minimal_doc(**overrides):
    doc = {
        "name": "toy",
        "generators": [{"symbol": "w", "weight": 2}],
        "relations": [
            {"i": 0, "j": 0, "k": 1,
             "value": [{"coeff": "2", "word": [["w", -1]]}]},
            {"i": 0, "j": 0, "k": 3,
             "value": [{"coeff": "-1", "word": []}]},
        ],
    }
    doc.update(overrides)
    return doc


def test_bundled_catalog_lists_all_examples():
    names = bundled_names()
    assert names == sorted(names)
    assert set(names) == {
        "lattice_rank1_norm4",
        "virasoro_c_minus2",
        "w3_c_minus2",
    }


@pytest.mark.parametrize("name", ["virasoro_c_minus2", "w3_c_minus2",
                                  "lattice_rank1_norm4"])
def test_bundled_presentations_validate_cleanly(name):
    p = load_bundled(name)
    assert validate(p) == []
    assert all(w >= 1 for w in p.weights)


def test_presentation_accessors():
    p = parse_presentation(minimal_doc())
    assert p.symbols == ("w",)
    assert p.weights == (2,)
    assert p.symbol_index == {"w": 0}
    assert p.generator_state(0) == {((0, -1),): 1}
    s = p.parse_state("3*w(-2) - w(-1)")
    assert p.parse_state(p.render_state(s)) == s


def test_parse_rejects_malformed_documents():
    with pytest.raises(PresentationError):
        parse_presentation([])
    with pytest.raises(PresentationError):
        parse_presentation({"generators": [{"symbol": "w", "weight": 2}]})
    with pytest.raises(PresentationError):
        parse_presentation(minimal_doc(generators=[]))
    with pytest.raises(PresentationError):
        parse_presentation(minimal_doc(
            generators=[{"symbol": "w", "weight": 2},
                        {"symbol": "w", "weight": 3}]))
    with pytest.raises(PresentationError):
        parse_presentation(minimal_doc(
            relations=[{"i": 0, "j": 5, "k": 0, "value": []}]))
    with pytest.raises(PresentationError):
        parse_presentation(minimal_doc(
            relations=[{"i": 0, "j": 0, "k": 1, "value": []},
                       {"i": 0, "j": 0, "k": 1, "value": []}]))
    with pytest.raises(PresentationError):
        parse_presentation(minimal_doc(
            relations=[{"i": 0, "j": 0, "k": 1,
                        "value": [{"coeff": "1/0", "word": []}]}]))
    with pytest.raises(PresentationError):
        parse_presentation(minimal_doc(
            relations=[{"i": 0, "j": 0, "k": 1,
                        "value": [{"coeff": "1", "word": [["q", -1]]}]}]))


def misspelled_w3():
    """The bundled W3 input with `singular_vectors` misspelled: read as
    written, it would run without its seed."""
    data = Path(catalog.__file__).parent / "data" / "w3_c_minus2.json"
    doc = json.loads(data.read_text(encoding="utf-8"))
    doc["singular_vector"] = doc.pop("singular_vectors")
    return doc


# id -> (document, the error naming the path and the key)
UNKNOWN_KEYS = {
    "top-level": (misspelled_w3(), "$: unknown key 'singular_vector'"),
    "options": (minimal_doc(options={"membership_degree_bound": 8}),
                "$: unknown key 'options'"),
    "generator": (minimal_doc(generators=[
        {"symbol": "w", "weight": 2, "wieght": 2}]),
        "generators[0]: unknown key 'wieght'"),
    "relation": (minimal_doc(relations=[
        {"i": 0, "j": 0, "k": 1, "value": [], "note": ""}]),
        "relations[0]: unknown key 'note'"),
    "singular-vector": (minimal_doc(singular_vectors=[
        {"name": "v", "value": [], "weight": 2}]),
        "singular_vectors[0]: unknown key 'weight'"),
    "term": (minimal_doc(relations=[
        {"i": 0, "j": 0, "k": 1,
         "value": [{"coeff": "2", "word": [["w", -1]], "mode": 0}]}]),
        "relations[0].value[0]: unknown key 'mode'"),
}


@pytest.mark.parametrize("case", UNKNOWN_KEYS)
def test_parse_rejects_unknown_keys(case):
    # A misspelled or retired key is an error, not a key the run ignores.
    doc, message = UNKNOWN_KEYS[case]
    with pytest.raises(PresentationError) as exc:
        parse_presentation(doc)
    assert str(exc.value) == message


# JSON true and false are Python bools, and bool is a subclass of int.
BOOLEAN_INTEGERS = {
    "weight": {"generators": [{"symbol": "w", "weight": True}]},
    "relation-index": {"relations": [
        {"i": False, "j": 0, "k": True,
         "value": [{"coeff": "2", "word": [["w", -1]]}]}]},
    "mode": {"relations": [
        {"i": 0, "j": 0, "k": 1,
         "value": [{"coeff": "2", "word": [["w", True]]}]}]},
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_INTEGERS))
def test_parse_rejects_booleans_as_integers(field):
    with pytest.raises(PresentationError, match="must be"):
        parse_presentation(minimal_doc(**BOOLEAN_INTEGERS[field]))


def test_parse_merges_duplicate_words_and_drops_zero_coeffs():
    p = parse_presentation(minimal_doc(relations=[
        {"i": 0, "j": 0, "k": 1,
         "value": [{"coeff": "3/2", "word": [["w", -1]]},
                   {"coeff": "1/2", "word": [["w", -1]]},
                   {"coeff": "0", "word": []}]},
    ]))
    assert p.relations[(0, 0, 1)] == {((0, -1),): 2}


def test_validate_reports_structural_defects():
    # Storing the (j, i) side of an off-diagonal pair is rejected.
    p = parse_presentation({
        "name": "bad",
        "generators": [{"symbol": "a", "weight": 1},
                       {"symbol": "b", "weight": 1}],
        "relations": [{"i": 1, "j": 0, "k": 0, "value": []}],
    })
    report = validate(p)
    assert len(report) == 1 and "skew symmetry" in report[0]

    # Diagonal entries with even k are derived, never stored.
    p = parse_presentation(minimal_doc(
        relations=[{"i": 0, "j": 0, "k": 2, "value": []}]))
    assert any("odd k" in line for line in validate(p))

    # Value words must be homogeneous of the forced weight and in PBW order.
    p = parse_presentation(minimal_doc(
        relations=[{"i": 0, "j": 0, "k": 1,
                    "value": [{"coeff": "1", "word": [["w", -2]]}]}]))
    assert any("weight" in line for line in validate(p))
    p = parse_presentation(minimal_doc(
        relations=[{"i": 0, "j": 0, "k": 1,
                    "value": [{"coeff": "1", "word": [["w", -3], ["w", 2]]}]}]))
    assert any("PBW" in line for line in validate(p))


def test_validate_reports_bad_weights_and_singular_vectors():
    p = parse_presentation(minimal_doc(
        generators=[{"symbol": "w", "weight": 0}], relations=[]))
    assert any("weight" in line for line in validate(p))

    p = parse_presentation(minimal_doc(singular_vectors=[
        {"name": "s", "value": [{"coeff": "1", "word": [["w", -1]]},
                                {"coeff": "1", "word": [["w", -2]]}]}]))
    assert any("not homogeneous" in line for line in validate(p))

    p = parse_presentation(minimal_doc(singular_vectors=[
        {"name": "s", "value": [{"coeff": "1", "word": [["w", 1]]}]}]))
    assert any("nonnegative mode" in line for line in validate(p))


def test_load_presentation_from_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(minimal_doc()))
    p = load_presentation(path)
    assert p.name == "toy"

    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(PresentationError):
        load_presentation(bad)


def test_is_pbw_word():
    weights = (2, 2)
    assert is_pbw_word(((0, -3), (0, -2), (1, -2)), weights)
    assert not is_pbw_word(((0, -2), (0, -3)), weights)
    assert not is_pbw_word(((1, -2), (0, -2)), weights)
    assert not is_pbw_word(((0, -2), (0, 1)), weights)
