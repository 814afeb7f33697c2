"""Mode calculus checked against the independent brute-force evaluator.

The translation between the package and the oracle is omega_m = L(m - 1):
a package word ((w, m_1), ..., (w, m_r)) corresponds to the oracle word
(m_1 - 1, ..., m_r - 1), and oracle normal order (parts <= -2, weakly
increasing) is exactly the package's PBW order for a single generator.
"""

from fractions import Fraction

import virasoro_oracle as oracle
from commutator_reference import commutator, evaluate
from conftest import state_scale
from zhuforge.engine import apply_D
from zhuforge.va_calculus import generated_span

MAX_WEIGHT = 8


def to_package(word):
    return tuple((0, n + 1) for n in word)


def from_oracle(vec):
    return {to_package(w): c for w, c in vec.items()}


def test_mode_action_agrees_with_oracle_on_all_basis_states(virasoro_table):
    words = oracle.basis_words(MAX_WEIGHT)
    assert len(words) > 20
    for word in words:
        vec = {word: Fraction(1)}
        s = from_oracle(vec)
        for m in range(-3, 4):
            got = virasoro_table.apply_mode((0, m), s)
            want = from_oracle(oracle.omega_mode(m, vec))
            assert got == want, (word, m)


def test_evaluated_commutators_match_oracle(virasoro_table):
    # [w_2, w_0] acts as 2 w_1 and [w_1, w_-1] acts as 2 w_-1 on every
    # basis state of weight <= 8.
    comm_a = commutator((0, 2), (0, 0), virasoro_table)
    comm_b = commutator((0, 1), (0, -1), virasoro_table)
    assert comm_a.weight == 0
    assert comm_b.weight == 2
    for word in oracle.basis_words(MAX_WEIGHT):
        vec = {word: Fraction(1)}
        s = from_oracle(vec)
        got_a = evaluate(comm_a, s, virasoro_table)
        want_a = from_oracle(oracle.omega_mode(1, vec))
        assert got_a == state_scale(want_a, 2)
        got_b = evaluate(comm_b, s, virasoro_table)
        want_b = from_oracle(oracle.omega_mode(-1, vec))
        assert got_b == state_scale(want_b, 2)


def test_commutator_expansion_shape(virasoro_table):
    # [w_m, w_n] = sum_k C(m, k) (w_k w)_{m+n-k}; for m = 1 only k = 0, 1
    # contribute because C(1, k) = 0 for k >= 2.
    exp = commutator((0, 1), (0, -1), virasoro_table)
    assert {t[2] for t in exp.terms} <= {0, -1}
    assert bool(exp)


def test_apply_D_shifts_modes(virasoro):
    assert apply_D({(): Fraction(1)}) == {}
    s = virasoro.parse_state("w(-2)w(-1)")
    assert apply_D(s) == virasoro.parse_state("2*w(-3)w(-1) + w(-2)w(-2)")


def test_translate_agrees_with_oracle_on_all_basis_states(virasoro_table):
    # D = L(-1) = omega_0.
    for word in oracle.basis_words(MAX_WEIGHT):
        vec = {word: Fraction(3, 5)}
        got = virasoro_table.normal_form(apply_D(from_oracle(vec)))
        assert got == from_oracle(oracle.omega_mode(0, vec)), word


def test_generated_span_dimensions_match_oracle(virasoro_table, virasoro):
    # Everything reachable from w by creation modes and re-embeddings is
    # the span of all PBW words, graded dimension = number of oracle basis
    # words of that weight.
    counts = {}
    for word in oracle.basis_words(6):
        if word:
            counts[oracle.weight(word)] = counts.get(oracle.weight(word), 0) + 1
    spans = generated_span([{((0, -1),): 1}], virasoro_table, 6)
    for w in range(2, 7):
        assert len(spans[w]) == counts[w]
    assert len(spans[0]) == 0 and len(spans[1]) == 0
