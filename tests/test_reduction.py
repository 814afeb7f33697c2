"""Pair ordering, confluence on the bundled algebras, and Jacobi defects."""

import itertools
import random
from collections import Counter
from fractions import Fraction

from commutator_reference import commutator, evaluate
from conftest import state_scale, state_sub

from zhuforge import complete_table, load_bundled, parse_presentation
from zhuforge import reduction
from zhuforge.engine import pbw_words, reducible_pair
from zhuforge.linalg import fractional, iadd
from zhuforge.reduction import c1_singular_elements, is_nondegenerate
from zhuforge.terms import state_iadd, state_weight
from zhuforge.va_calculus import SpanCache, generated_span

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


def reference_defect_value(table, i, s, j, m, k):
    """`reduction._defect_value` with no table read: both products by the
    left action on u^k_{-1}|vac>, and each term (R)_t of the bracket
    wrapped as the one-word pair R and applied by `iterate_pair`."""
    a, b = (i, s), (j, m)
    gen = {((k, -1),): 1}, 1
    ints, den = table.act_pair(a, table.act_pair(b, gen))
    delta = dict(ints)
    den = iadd(delta, den, *table.act_pair(b, table.act_pair(a, gen)), -1)
    terms, tden = table.bracket(a, b)
    bracket, bden = {}, 1
    for (rword, t), c in terms.items():
        bden = iadd(bracket, bden,
                    *table.iterate_pair(({rword: 1}, 1), t, gen), c)
    bden *= tden
    return (delta, iadd(delta, den, bracket, bden, -1)), (bracket, bden)


def reference_defects(table):
    """The kept defects as (indices, value, value_bracket_added, weight),
    by `c1_singular_elements`' enumeration written out with the pair test
    inside the k loop and `reference_defect_value`."""
    weights = table.weights
    ng, wmax = len(weights), max(weights)
    spans = SpanCache(generated_span, table)
    kept = []
    for i in range(ng):
        for s in range(weights[i] + 2 * wmax - 1):
            for j in range(ng):
                for m in range(weights[i] + weights[j] + wmax - s - 1):
                    for k in range(ng):
                        if weights[i] + weights[j] + weights[k] - s - m - 2 < 0:
                            continue
                        if not reducible_pair((i, s), (j, m), weights):
                            continue
                        delta, bracket = reference_defect_value(
                            table, i, s, j, m, k)
                        if not delta[0] or spans.contains(delta):
                            continue
                        spans.states.append(delta)
                        plus = fractional(*delta)
                        state_iadd(plus, fractional(*bracket), 2)
                        kept.append(((i, s, j, m, k), fractional(*delta),
                                     plus, state_weight(delta[0], weights)))
    return kept


def all_order_cases(families):
    """(name, presentation): the bundled presentations, the lattice
    N = 1, 2, 3 and sl2 k = 1, 2 in every generator order, each with one
    generator rescaled, and M(4,7)."""
    for name in ("virasoro_c_minus2", "w3_c_minus2", "lattice_rank1_norm4"):
        yield name, load_bundled(name)
    scales = (Fraction(-3, 7), Fraction(5, 2))
    n = 0
    for make, symbols, args in (
            (families.lattice_member, ("a", "ea", "em"), (1, 2, 3)),
            (families.sl2_member, ("e", "h", "f"), (1, 2))):
        for arg in args:
            for order in itertools.permutations(symbols):
                n += 1
                member = make(arg, order, symbols[n % 3], scales[n % 2])
                yield member.label, parse_presentation(member.doc)
    yield "M(4,7)", parse_presentation(families.virasoro_member(4, 7).doc)


def test_defect_search_matches_the_left_action_reference(families):
    """Reading u^j_m u^k_{-1}|vac> as R(j, k, m) and applying the bracket
    terms by the iterate recursion keeps every defect, and every table
    entry is the left action on u^k_{-1}|vac>, the defective lattice
    included."""
    found = Counter()
    for name, p in all_order_cases(families):
        table = complete_table(p)
        weights = table.weights
        for j, k in itertools.product(range(len(weights)), repeat=2):
            for m in range(weights[j] + weights[k] + 1):
                gen = {((k, -1),): 1}, 1
                assert table.entry(j, k, m) == \
                    table.act_pair((j, m), gen), (name, j, k, m)
        got = [(d.indices, d.value, d.value_bracket_added, d.weight)
               for d in c1_singular_elements(p, table)]
        assert got == reference_defects(complete_table(p)), name
        found[name.split("[")[0]] += len(got)
    # Defects kept, summed over the six orders: only the lattice N >= 2
    # has any.
    assert +found == {"lattice_rank1_norm4": 2, "lattice_N2": 12,
                      "lattice_N3": 42}, found
