"""Finite-dimensional quotient analysis and matrix-model checking."""

import json
from fractions import Fraction

import pytest

from zhuforge import cli, linalg, zhu
from zhuforge.quotient import check_matrix_model, quotient_basis, relation_names
from zhuforge.zhu import NCPoly, ZhuPresentation, relation_closure


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


def test_w3_quotient_does_not_stabilize(w3_closure):
    model = quotient_basis(w3_closure, degree_bound=10)
    assert model.status == "not-stabilized"
    assert model.dimension == "unbounded-at-bound"
    assert model.matrices == {}


def test_virasoro_quotient_without_relations_grows(virasoro, virasoro_table):
    zp = relation_closure([], virasoro, virasoro_table)
    model = quotient_basis(zp, degree_bound=8)
    assert model.status == "not-stabilized"
    assert model.dimension == "unbounded-at-bound"


def test_synthetic_one_generator_quotient():
    zp = ZhuPresentation(generators=("x",), weights=(1,),
                         commutator_relations=[],
                         extra_relations=[NCPoly.term((0,))])
    model = quotient_basis(zp, degree_bound=6)
    assert model.dimension == 1
    assert model.basis == [()]
    assert model.matrices == {"x": [[Fraction(0)]]}
    assert model.status == "stabilized-at-degree-2"


def test_quotient_rejects_nonpositive_weights():
    zp = ZhuPresentation(generators=("x",), weights=(0,),
                         commutator_relations=[], extra_relations=[])
    with pytest.raises(ValueError):
        quotient_basis(zp)


def test_matrix_model_with_constant_term_relation():
    zp = ZhuPresentation(generators=("x",), weights=(1,),
                         commutator_relations=[],
                         extra_relations=[NCPoly.term(()) - NCPoly.term((0,))])
    ok, failing = check_matrix_model(zp, {"x": [[Fraction(0)]]})
    assert not ok and failing == ["extra[0]"]
    ok, failing = check_matrix_model(zp, {"x": [[Fraction(1)]]})
    assert ok and failing == []


def test_relation_names(w3_closure, lattice_closure):
    assert relation_names(w3_closure) == ["[x_w,x_v]", "o(v_s)"]
    assert relation_names(lattice_closure) == [
        "[x_a,x_ea] - 4*x_ea",
        "[x_a,x_em] - (-4*x_em)",
        "[x_ea,x_em] - (-1/6*x_a + 1/6*x_a^3)",
        "o(defect(1, 1, 1, 0, 2))",
        "o(defect(1, 1, 2, 0, 2))",
        "o(ea_0 defect(1, 1, 1, 0, 2))",
        "o(em_0 defect(1, 1, 1, 0, 2))",
        "o(em_0 defect(1, 1, 2, 0, 2))",
    ]


def test_lattice_quotient_row_and_straightening_counts(families, monkeypatch,
                                                       tmp_path, capsys):
    """Same work: the benchmark's lattice solve adds 29,374 rows and
    straightens 355 polynomials, whatever the row arithmetic costs."""
    calls = {"add": 0, "canonical": 0}
    add, canonical = linalg.SpanBuilder.add, zhu.ZhuAlgebra.canonical

    def counted_add(self, vec):
        calls["add"] += 1
        return add(self, vec)

    def counted_canonical(self, poly):
        calls["canonical"] += 1
        return canonical(self, poly)

    monkeypatch.setattr(linalg.SpanBuilder, "add", counted_add)
    monkeypatch.setattr(zhu.ZhuAlgebra, "canonical", counted_canonical)
    path = tmp_path / "lattice_N2.json"
    path.write_text(json.dumps(families.lattice_member(2).doc))
    code = cli.main(["quotient", "--input", str(path),
                     "--quotient-bound", "6"])
    assert code == 0 and json.loads(capsys.readouterr().out)["dimension"] == 7
    assert calls == {"add": 29374, "canonical": 355}
