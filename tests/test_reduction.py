"""Pair ordering, confluence on the bundled algebras, and Jacobi defects."""

import itertools
import random
from fractions import Fraction

from conftest import state_scale, state_sub

from zhuforge import complete_table, load_bundled, parse_presentation
from zhuforge import reduction
from zhuforge.engine import pbw_words, reducible_pair
from zhuforge.linalg import fractional
from zhuforge.reduction import c1_singular_elements, is_nondegenerate
from zhuforge.terms import state_iadd
from zhuforge.va_calculus import commutator, evaluate, generated_span

W2 = (2,)


def test_reducible_pair_classification():
    assert reducible_pair((0, -1), (0, -3), W2) is True
    assert reducible_pair((0, -3), (0, -1), W2) is False
    assert reducible_pair((0, -2), (0, -2), W2) is False
    assert reducible_pair((1, -2), (0, -2), (2, 2)) is True
    assert reducible_pair((0, -2), (1, -2), (2, 2)) is False
    # Annihilation modes move right past creation modes.
    assert reducible_pair((0, 2), (0, -1), W2) is True
    assert reducible_pair((0, -1), (0, 2), W2) is False
    # Two annihilators order by decreasing operator weight.
    assert reducible_pair((0, 2), (0, 1), W2) is True
    assert reducible_pair((0, 1), (0, 2), W2) is False


def test_normal_form_resolves_out_of_order_pair(virasoro, virasoro_table):
    got = virasoro_table.normal_form(virasoro.parse_state("w(-1)w(-3)"))
    assert got == virasoro.parse_state("w(-3)w(-1) + 2*w(-5)")


def test_virasoro_and_w3_have_no_jacobi_defects(virasoro, w3, virasoro_table,
                                                w3_table):
    ok, witnesses = is_nondegenerate(virasoro, virasoro_table)
    assert ok and witnesses == []
    ok, witnesses = is_nondegenerate(w3, w3_table)
    assert ok and witnesses == []


def test_w3_pbw_words_stay_independent(w3, w3_table):
    # Everything reachable from the generators spans the full PBW word
    # space in each weight <= 8: the relations force no collapse.
    gens = [w3.generator_state(i) for i in range(2)]
    spans = generated_span(gens, w3_table, 8)
    for w in range(2, 9):
        assert len(spans[w]) == len(pbw_words(w3.weights, w))


def test_lattice_jacobi_defects(lattice, lattice_defects):
    assert [d.indices for d in lattice_defects] == [
        (1, 1, 1, 0, 2), (1, 1, 2, 0, 2)]
    first, second = lattice_defects
    assert first.weight == 3 and second.weight == 3
    assert first.value == lattice.parse_state("10 a(-1)ea(-1) - 10*ea(-2)")
    assert second.value == lattice.parse_state("-10*em(-2) - 10 a(-1)em(-1)")
    # With the bracket term added instead of subtracted, the first defect
    # is unchanged (its bracket contribution vanishes) and the second
    # shifts by twice the bracket value.
    assert first.value_bracket_added == first.value
    assert second.value_bracket_added == \
        lattice.parse_state("-10*em(-2) + 2 a(-1)em(-1)")


def test_lattice_is_degenerate(lattice, lattice_table):
    ok, witnesses = is_nondegenerate(lattice, lattice_table)
    assert not ok and len(witnesses) == 2


def test_pbw_words_enumeration():
    words = pbw_words((2,), 4)
    assert words == [((0, -3),), ((0, -1), (0, -1))]
    assert pbw_words((2,), 1) == []
    assert pbw_words((2,), 0) == [()]
    # Deterministic and strictly ordered output.
    again = pbw_words((2, 3), 7)
    assert again == sorted(again) and len(set(again)) == len(again)


def defect_cases(families):
    """(name, presentation): the bundled presentations, and sl2 k = 1, 2
    and the lattice N = 2, 3 in a drawn generator order with a drawn
    generator rescaled by a drawn rational."""
    for name in ("virasoro_c_minus2", "w3_c_minus2", "lattice_rank1_norm4"):
        yield name, load_bundled(name)
    rng = random.Random(18)
    scales = [Fraction(n, d) for n in (-3, -1, 2, 5) for d in (1, 3, 7)]
    for make, symbols, args in (
            (families.sl2_member, ("e", "h", "f"), (1, 2)),
            (families.lattice_member, ("a", "ea", "em"), (2, 3))):
        for arg in args:
            order = rng.choice(list(itertools.permutations(symbols)))
            member = make(arg, order, rng.choice(symbols), rng.choice(scales))
            yield member.label, parse_presentation(member.doc)


def test_defect_values_match_the_fraction_reference(families, monkeypatch):
    # The defect search works on engine pairs; the reference is the Fraction
    # API: u^i_s u^j_m u^k - u^j_m u^i_s u^k - [u^i_s, u^j_m] u^k with the
    # bracket expanded by `commutator` and applied by `evaluate`.
    visited = {}
    defect_value = reduction._defect_value

    def recorded(table, *indices):
        visited[indices] = defect_value(table, *indices)
        return visited[indices]

    monkeypatch.setattr(reduction, "_defect_value", recorded)
    for name, p in defect_cases(families):
        visited.clear()
        table = complete_table(p)
        defects = c1_singular_elements(p, table)
        assert visited, name
        for (i, s, j, m, k), (delta, bracket) in visited.items():
            a, b = (i, s), (j, m)
            gen = {((k, -1),): Fraction(1)}
            want_bracket = evaluate(commutator(a, b, table), gen, table)
            assert fractional(*bracket) == want_bracket, (name, a, b, k)
            want = state_sub(table.apply_mode(a, table.apply_mode(b, gen)),
                             table.apply_mode(b, table.apply_mode(a, gen)))
            want = state_sub(want, want_bracket)
            assert fractional(*delta) == want, (name, a, b, k)
        for d in defects:
            delta, bracket = visited[d.indices]
            assert d.value == fractional(*delta) != {}
            want_plus = state_iadd(dict(d.value),
                                   state_scale(fractional(*bracket), 2))
            assert d.value_bracket_added == want_plus
