"""Table completion and mode application on the bundled presentations."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from commutator_reference import commutator, evaluate
from conftest import (ReductionStrategy, RewriteReference, random_word,
                      raw_mode, state_scale, state_sub)
from test_quotient import joint_kernel, w3_document
from test_tensor import tensor

from zhuforge import cli, engine, load_bundled, parse_presentation
from zhuforge.engine import (apply_D, check_word_bound, complete_table,
                             pbw_words, reducible_pair)
from zhuforge.linalg import fractional
from zhuforge.reduction import c1_singular_elements
from zhuforge.terms import (TOP_LEVEL, VACUUM, is_zero_word, state_iadd,
                            state_weight, word_weight)
from zhuforge.va_calculus import generated_span
from zhuforge.zhu import zhu_image


def test_virasoro_table_derives_even_diagonal_entries(virasoro, virasoro_table):
    # Stored input: only the odd diagonal modes.
    assert virasoro.relations[(0, 0, 1)] == {((0, -1),): 2}
    assert virasoro.relations[(0, 0, 3)] == {(): -1}
    # Derived by skew symmetry: w_0 w = w_{-2}|vac> and w_2 w = 0.
    assert virasoro_table.get(0, 0, 0) == {((0, -2),): 1}
    assert virasoro_table.get(0, 0, 2) == {}
    # Above the weight bound everything vanishes.
    assert virasoro_table.get(0, 0, 5) == {}


def test_virasoro_table_entries_enumeration(virasoro_table):
    rows = virasoro_table.entries()
    assert [(i, j, k) for i, j, k, _ in rows] == [(0, 0, k) for k in range(4)]
    assert rows[1][3] == {((0, -1),): 2}


def test_skew_derived_half_is_weight_homogeneous(w3, w3_table):
    # R(v, w, k) is never stored; it is derived from R(w, v, k) on demand.
    assert (1, 0, 0) not in w3.relations
    value = w3_table.get(1, 0, 0)
    assert value
    assert {word_weight(word, w3.weights) for word in value} == {4}


def test_apply_mode_matches_table_on_generators(w3, w3_table):
    eng = w3_table
    for i in range(2):
        for j in range(2):
            for k in range(w3.weights[i] + w3.weights[j]):
                assert eng.apply_mode((i, k), {((j, -1),): 1}) == \
                    w3_table.get(i, j, k)


def test_mode_action_on_w3_singular_vector(w3, w3_table):
    # The quoted right-hand sides are not written in PBW order, so each
    # identity is checked after normal-forming the difference.
    eng = w3_table
    one = {(): Fraction(1)}
    v_s = dict(w3.singular_vectors)["v_s"]
    v_sp = w3.parse_state("9/2*v(-4) + 9 w(-2)v(-1) - 6 w(-1)v(-2)")

    def same(got, expected):
        return eng.normal_form(state_sub(got, expected)) == {}

    assert same(eng.apply_mode((0, 1), v_s), state_scale(v_s, 6))
    assert same(eng.apply_mode((1, 2), v_s), state_scale(v_sp, Fraction(98, 27)))
    assert same(eng.apply_mode((1, 2), v_sp), state_scale(v_s, 36))
    assert same(eng.apply_mode((1, 1), v_s),
                state_scale(eng.element_mode(v_sp, -2, one), Fraction(49, 54)))
    assert same(eng.apply_mode((1, 1), v_sp),
                state_scale(eng.element_mode(v_s, -2, one), 9))


def test_apply_D_is_a_derivation_shift():
    assert apply_D({(): Fraction(1)}) == {}
    assert apply_D({((0, -1),): Fraction(1)}) == {((0, -2),): Fraction(1)}
    assert apply_D({((0, -2),): Fraction(1)}) == {((0, -3),): Fraction(2)}
    # Product rule over a length-2 word.
    got = apply_D({((0, -2), (0, -1)): Fraction(1)})
    assert got == {((0, -3), (0, -1)): Fraction(2), ((0, -2), (0, -2)): Fraction(1)}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(words=st.dictionaries(
    st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 1)),
             max_size=3).map(tuple),
    st.integers(-4, 4).filter(bool), max_size=5))
def test_apply_D_keeps_int_coefficients(words):
    got = apply_D(words)
    assert all(type(c) is int and c for c in got.values())
    assert got == apply_D({w: Fraction(c) for w, c in words.items()})


def test_apply_D_drops_what_cancels():
    # D(a_{-2} a_{-1}) and D(a_{-1} a_{-2}) share the term a_{-2} a_{-2}.
    got = apply_D({((0, -2), (0, -1)): 1, ((0, -1), (0, -2)): -1})
    assert got == {((0, -3), (0, -1)): 2, ((0, -1), (0, -3)): -2}


def test_normal_form_examples(virasoro, virasoro_table):
    eng = virasoro_table
    # w_1 w = 2w and w_0 w_{-3}|vac> has a pure commutator value.
    assert eng.apply_mode((0, 1), {((0, -1),): 1}) == {((0, -1),): 2}
    assert eng.normal_form(virasoro.parse_state("w(0)w(-3)1")) == \
        virasoro.parse_state("3*w(-4)")
    # Idempotence on an already reduced state.
    s = virasoro.parse_state("w(-3)w(-1) - 2 w(-2)w(-2)")
    assert eng.normal_form(s) == s


def test_top_level_convention_keeps_boundary_modes(virasoro, virasoro_table):
    # w_{-1} w_0 kills the vacuum but not the top-level vector.
    eng = virasoro_table
    s = virasoro.parse_state("w(-1)w(0)")
    assert eng.normal_form(s) == {}
    [word] = s
    assert eng._act_rec((0, -1), ((0, 0),), 1, TOP_LEVEL) == ({word: 1}, 1)
    assert eng._act_rec((0, 0), (), 0, TOP_LEVEL) == ({((0, 0),): 1}, 1)
    assert eng._act_rec((0, 0), (), 0, VACUUM) == ({}, 1)


def test_strategies_agree_on_bundled_tables(virasoro, w3):
    # The rewriting of these tables is confluent: the engine's table
    # matches the reference's, built by rewriting the rightmost pair first.
    for p in (virasoro, w3):
        right = RewriteReference(p, ReductionStrategy.RightmostFirst)
        entries = complete_table(p).entries()
        assert [(i, j, k, value) for i, j, k, value in entries] == \
            [(i, j, k, right.get(i, j, k)) for i, j, k, _ in entries]


def test_element_mode_consistency_with_apply_mode(w3, w3_table):
    eng = w3_table
    target = w3.parse_state("v(-3)w(-1)")
    gen = {((0, -1),): 1}
    for t in (-2, 0, 1, 3):
        assert eng.element_mode(gen, t, target) == eng.apply_mode((0, t), target)


def test_element_mode_of_translate_vanishes_at_mode_zero(virasoro, virasoro_table):
    # (Dv)_n = -n v_{n-1}, so the zero mode of a translate acts as zero.
    eng = virasoro_table
    dw = apply_D({((0, -1),): 1})
    target = virasoro.parse_state("w(-2)w(-1)")
    assert eng.element_mode(dw, 0, target) == {}
    assert eng.element_mode(dw, 1, target) == \
        state_sub({}, eng.apply_mode((0, 0), target))


def assert_fraction_state(s):
    assert all(type(c) is Fraction and c for c in s.values())


REDUCE_CASES = ["virasoro_c_minus2", "w3_c_minus2", "lattice_rank1_norm4",
                "M(4,7)", "lattice_N3_a_ea_em", "lattice_N3_em_ea_a"]


# Random words of the leftmost-first reference test on the bundled lattice
# whose engine normal form, folded from the right through the left action,
# is another representative than the reference's: the rewriting there has
# Jacobi defects, and each difference lies in their span.
LATTICE_NORMAL_FORM_GAPS = {
    ((2, 1), (2, 0), (1, -4)),
    ((2, 1), (1, 0), (2, -4)),
}


# The strategy is the reference's rewrite order, which the engine's normal
# form must match wherever the rewriting is confluent.  The N=3 lattice has
# R-words of length 3, and its rewriting is not: there the two orders give
# representatives of some words, e.g. em(3)em(-3)ea(-4), that differ by an
# element of the span of the Jacobi defects, so only the leftmost-first
# order is compared, and on it the engine agrees with the reference.
@pytest.mark.parametrize("strategy,name", [
    (strategy, name) for strategy in ReductionStrategy for name in REDUCE_CASES
    if strategy is ReductionStrategy.LeftmostFirst
    or not name.startswith("lattice_N3_")])
def test_normal_form_matches_fraction_reference(name, strategy, families):
    if name == "M(4,7)":
        p = parse_presentation(families.virasoro_member(4, 7).doc)
    elif name.startswith("lattice_N3_"):
        order = tuple(name.split("_")[2:])
        p = parse_presentation(families.lattice_member(3, order).doc)
    else:
        p = load_bundled(name)
    eng = complete_table(p)
    ref = RewriteReference(p, strategy)
    ng = len(p.weights)
    for i in range(ng):
        for j in range(ng):
            for k in range(p.weights[i] + p.weights[j]):
                got = eng.get(i, j, k)
                assert_fraction_state(got)
                assert got == ref.get(i, j, k)
    expected = LATTICE_NORMAL_FORM_GAPS if (name, strategy) == (
        "lattice_rank1_norm4", ReductionStrategy.LeftmostFirst) else set()
    if expected:
        defects = c1_singular_elements(p, eng)
        spans = generated_span([d.value for d in defects], eng, 6)
    gaps = set()

    def agree(got, want):
        """got == want, or else a pinned word whose gap is in the span."""
        gap = state_sub(got, want)
        if gap:
            assert word in expected, (name, word)
            assert spans[state_weight(gap, p.weights)].contains(gap)
            gaps.add(word)

    rng = random.Random(f"reduce-{name}-{strategy.value}")
    nonzero = 0
    for _ in range(60):
        word = random_word(p, rng, max_len=3)
        coeff = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 7]))
        want = ref.reduce(word, VACUUM)
        ints, den = eng.normal_pair(({word: 1}, 1))
        agree({w: Fraction(c, den) for w, c in ints.items()}, want)
        nonzero += bool(want)
        # The top level has no word reduction of its own: one mode acts
        # on a top-level-irreducible, nonzero tail by the left action.
        tail = word[1:]
        if word and not is_zero_word(tail, p.weights, TOP_LEVEL) and \
                not any(reducible_pair(a, b, p.weights)
                        for a, b in zip(tail, tail[1:])):
            want = ref.reduce(word, TOP_LEVEL)
            ints, den = eng._act_rec(word[0], tail,
                                     word_weight(tail, p.weights), TOP_LEVEL)
            assert {w: Fraction(c, den) for w, c in ints.items()} == want
            nonzero += bool(want)
        got = eng.normal_form({word: coeff})
        assert_fraction_state(got)
        agree(got, state_scale(ref.reduce(word, VACUUM), coeff))
        if word:
            op, tail = word[0], word[1:]
            got = eng.apply_mode(op, {tail: coeff})
            assert_fraction_state(got)
            agree(got, ref.normal_form({word: coeff}, VACUUM))
            # (u^i_{-1}|vac>)_m = u^i_m.  `element_mode` normal-forms the
            # target first, which matters where the rewrite is not
            # confluent (the lattice); the raw top-level expansion does not.
            v, target = {((op[0], -1),): coeff}, {tail: Fraction(1, 3)}
            tnf = ref.normal_form(target, VACUUM)
            got = eng.element_mode(v, op[1], target)
            assert_fraction_state(got)
            assert got == ref.normal_form({(op,) + w: coeff * c
                                           for w, c in tnf.items()}, VACUUM)
            got = state_scale(raw_mode(eng, ((op[0], -1),), op[1], tail,
                                       TOP_LEVEL, strategy), coeff / 3)
            assert_fraction_state(got)
            assert got == state_scale(ref.reduce(word, TOP_LEVEL), coeff / 3)
    assert nonzero >= 20
    assert gaps == expected
    for memo in (eng._table, eng._iterate, eng._act, eng._bracket):
        for ints, den in memo.values():
            assert den >= 1
            assert all(type(c) is int and c for c in ints.values())
            assert math.gcd(den, *ints.values()) == 1


def test_bracket_keys_and_cancellation(w3_table):
    # W3 at c = -2 with L_n = w_{n+1}, W_n = v_{n+2} and R(v, v, 1) =
    # b w_{-1}w_{-1} - w_{-3}, b = 8/3.  [L_2, L_{-2}] = 4 L_0 + c/2: the
    # single mode L_0 under its one-letter R-word, the identity under
    # ((), -1).
    assert w3_table.bracket((0, 3), (0, -1)) == \
        ({(((0, -1),), 1): 4, ((), -1): -1}, 1)
    # [L_0, W_0] = 0: the k = 0 term (D W)_3 = -3 W_0 cancels the k = 1
    # term 3 (W)_2.
    assert w3_table.bracket((0, 1), (1, 2)) == ({}, 1)
    # [v_1, v_n] keeps the R-word w_{-1}w_{-1} of k = 1 at the mode n.
    for n in range(3):
        terms, den = w3_table.bracket((1, 1), (1, n))
        assert Fraction(terms[(((0, -1), (0, -1)), n)], den) == \
            Fraction(8, 3)


def test_bracket_matches_the_fraction_commutator(families):
    # The terms of `bracket`, applied to a PBW tail by the iterate formula,
    # equal the Fraction reference: `commutator` expanded per k and applied
    # by `evaluate`.
    cases = [load_bundled(name) for name in
             ("virasoro_c_minus2", "w3_c_minus2", "lattice_rank1_norm4")]
    cases += [parse_presentation(families.virasoro_member(4, 7).doc),
              parse_presentation(
                  families.lattice_member(3, ("em", "ea", "a")).doc)]
    for p in cases:
        eng = complete_table(p)
        ops = [(i, n) for i in range(len(p.weights)) for n in range(-2, 4)]
        tails = [w for weight in range(5)
                 for w in pbw_words(p.weights, weight)]
        nonzero = 0
        for a in ops:
            for b in ops:
                terms, den = eng.bracket(a, b)
                exp = commutator(a, b, eng)
                for tail in tails:
                    got = {}
                    for (rword, t), c in terms.items():
                        got = state_iadd(got, fractional(*eng.iterate_pair(
                            ({rword: 1}, 1), t, ({tail: 1}, 1))),
                            Fraction(c, den))
                    assert got == evaluate(exp, {tail: Fraction(1)}, eng), \
                        (p.name, a, b, tail)
                    nonzero += bool(got)
        assert nonzero >= 100, p.name


def test_quotient_memo_sizes_on_the_lattice(monkeypatch):
    # Reducing the prefixed word for each top-level mode filled
    # (52, 223, 30, 325); one left action for both conventions moves that
    # work from _reduce to _act.  The closure re-embeds by the iterate
    # formula; re-embedding by repeated translation D^(s-1) v / (s-1)!,
    # which is wrong where there are Jacobi defects, filled (14, 177, 30,
    # 335) and a translation memo.  Summing each bracket over k before it
    # acts, and reading (u^l_{-1}|vac>)_t = u^l_t off with no memo entry,
    # took (14, 223, 30, 335) to (14, 120, 30, 331).  Folding every word
    # through the left action removed the _reduce memo, the first column of
    # the tuples above.
    engines = []

    def recorded(*args):
        engines.append(complete_table(*args))
        return engines[-1]

    monkeypatch.setattr(cli, "complete_table", recorded)
    assert cli.main(["quotient", "--input", "lattice_rank1_norm4"]) == 0
    [eng] = engines
    sizes = (len(eng._iterate), len(eng._table), len(eng._act))
    assert sizes == (120, 30, 331)


def test_quotient_memo_sizes_on_m47(monkeypatch, tmp_path, families):
    # Reducing (op,) + word memoized op's work per prefix it had crossed:
    # the same solve filled 10,382 _reduce and 3,776 _splice entries.  The
    # closure infers 16 of its 20 candidate modes on the null vector to be
    # zero from brackets; computing all 20 filled 3,201 _act entries.
    # Reducing the prefixed word for each top-level mode filled (595, 1709,
    # 4, 990).  Re-embedding the null vector by the iterate formula,
    # (null)_{-2}|vac>, filled (91, 1709, 4, 1146); its translation ran on
    # the left action and filled 175 entries of a translation memo, since
    # removed.  The defect search once normal-formed its target
    # u^k_{-1}|vac> before the iterate formula (90 _reduce entries); it now
    # acts on that PBW word directly.  Of the other 4 candidates, L_{-1}
    # and L_0 act as D and as the weight, so their values lie in the span:
    # the closure computes neither and builds no span (computing all 4
    # filled (89, 542, 4, 1146)).  Summing each bracket over k before it
    # acts, and reading (u^l_{-1}|vac>)_t = u^l_t off with no memo entry,
    # took (89, 542, 4, 719) to (89, 490, 4, 683).  Folding every word
    # through the left action removed the _reduce memo, the first column of
    # the tuples above.  Zhu's recursion for the closure's images, in place
    # of the iterate formula, took (490, 4, 683) to (0, 4, 626) plus 384
    # _zhu entries, the last column: its vacuum left actions u_k tail are
    # the ones that L_(2) and L_(3) on the null vector read.  Its closed
    # form reorders no creation mode through the rest of a word and reads
    # o(L_{-1} w) and o(L_0 w) off the weight of w, so an image makes no
    # vacuum left action and recurses only on the rest of each word:
    # (0, 4, 626, 384) became (0, 4, 563, 175), where L_(2) and L_(3) on
    # the null vector now compute left actions the step recursion had
    # left in the memo.
    path = tmp_path / "m47.json"
    path.write_text(json.dumps(families.virasoro_member(4, 7).doc))
    engines = []

    def recorded(*args):
        engines.append(complete_table(*args))
        return engines[-1]

    monkeypatch.setattr(cli, "complete_table", recorded)
    assert cli.main(["quotient", "--input", str(path),
                     "--quotient-bound", "20"]) == 0
    [eng] = engines
    sizes = (len(eng._iterate), len(eng._table), len(eng._act),
             len(eng._zhu))
    assert sizes == (0, 4, 563, 175)
    for ints, den in eng._zhu.values():
        assert den >= 1
        assert all(type(c) is int and c for c in ints.values())
        assert math.gcd(den, *ints.values()) == 1


def test_memo_pairs_are_normalized_after_closures(monkeypatch, tmp_path,
                                                  families, capsys):
    """Every memoized pair of the closures of the three bundled inputs and
    of M(4,7), 2,771 in all, has no zero coefficient and gcd(den, *ints)
    = 1: the loops that add an irreducible word in place delete what
    cancels and store nothing unreduced.  The count was 3,047 while Zhu
    images were read by the step recursion, which reordered each creation
    mode through the rest of a word and recursed on every word that
    made; the closed form fills fewer `_zhu` and `_act` entries."""
    path = tmp_path / "m47.json"
    path.write_text(json.dumps(families.virasoro_member(4, 7).doc))
    engines = []

    def recorded(*args):
        engines.append(complete_table(*args))
        return engines[-1]

    monkeypatch.setattr(cli, "complete_table", recorded)
    for name in ("virasoro_c_minus2", "w3_c_minus2", "lattice_rank1_norm4",
                 str(path)):
        assert cli.main(["zhu", "--input", name]) == 0
    capsys.readouterr()
    pairs = [pair for eng in engines
             for memo in (eng._act, eng._iterate, eng._zhu, eng._bracket,
                          eng._table)
             for pair in memo.values()]
    assert len(pairs) == 2771
    for ints, den in pairs:
        assert den >= 1 and all(ints.values())
        assert math.gcd(den, *ints.values()) == 1


@pytest.mark.parametrize("weights", [(2,), (1, 2, 2), (3, 4), (7,)])
def test_word_bound_refuses_exactly_the_weights_past_it(monkeypatch,
                                                       weights):
    # Exact counts of the PBW words of each weight, from the generating
    # function prod 1/(1 - q^d), one factor per mode of weight d.
    top = 240
    counts = [1] + [0] * top
    for d in range(1, top + 1):
        for w in weights:
            if w <= d:
                for n in range(d, top + 1):
                    counts[n] += counts[n - d]
    assert counts[:13] == [len(pbw_words(weights, n)) for n in range(13)]
    for bound in (5, 1000, 10 ** 6):
        monkeypatch.setattr(engine, "WORD_BOUND", bound)
        for weight in range(0, top + 1, 3):
            # one mode of generator 0 with this weight
            word = ((0, weights[0] - 1 - weight),)
            if counts[weight] > bound:
                with pytest.raises(ValueError, match="WORD_BOUND = %d"
                                   % bound):
                    check_word_bound({word: 1}, weights)
            else:
                check_word_bound({word: 1}, weights)


def act_cases(families):
    """(id, presentation, weight bound) for the mode-action equality test."""
    for name, bound in (("virasoro_c_minus2", 7), ("w3_c_minus2", 6),
                        ("lattice_rank1_norm4", 6)):
        yield name, load_bundled(name), bound
    yield "M(4,7)", parse_presentation(families.virasoro_member(4, 7).doc), 9
    for norm in (1, 3):
        for order in (("a", "ea", "em"), ("em", "ea", "a")):
            member = families.lattice_member(norm, order)
            yield ("lattice_N%d_%s" % (norm, "".join(order)),
                   parse_presentation(member.doc), 5 if order[0] == "a" else 4)


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_apply_mode_on_pbw_words_matches_the_rewrite_reference(strategy, families):
    # The memoized left action must agree with the raw rewrite of the
    # prefixed word in either order of the reference: on these
    # presentations also where the lattice rewriting is not confluent.
    for name, p, bound in act_cases(families):
        eng = complete_table(p)
        ref = RewriteReference(p, strategy)
        nonzero = 0
        for weight in range(bound + 1):
            for word in pbw_words(p.weights, weight):
                for i, wi in enumerate(p.weights):
                    for m in range(-3, weight + wi):
                        got = eng.apply_mode((i, m), {word: Fraction(2, 3)})
                        want = ref.reduce(((i, m),) + word, VACUUM)
                        assert got == state_scale(want, Fraction(2, 3)), \
                            (name, (i, m), word)
                        nonzero += bool(got)
        assert nonzero >= 50, name


# (word, s) where D^(s-1) word / (s-1)! and (word)_{-s}|vac> differ on the
# bundled lattice: its rewriting has Jacobi defects, so the iterate formula
# need not agree with the vacuum axiom there.
LATTICE_REEMBEDDING_GAPS = {
    (((1, -1), (1, -1), (2, -1)), 3),
    (((1, -1), (1, -1), (2, -1)), 4),
    (((1, -1), (2, -1), (2, -1)), 4),
}


def translate_cases(families):
    """(id, presentation, states) for the vacuum-axiom test."""
    for name in ("virasoro_c_minus2", "w3_c_minus2", "lattice_rank1_norm4"):
        p = load_bundled(name)
        yield name, p, [{word: Fraction(2, 3)} for weight in range(7)
                        for word in pbw_words(p.weights, weight)]
    p = parse_presentation(families.virasoro_member(4, 7).doc)
    [(_, null)] = p.singular_vectors
    yield "M(4,7)", p, [null]
    # The two members whose closure re-embedded by translation while the
    # span had that option: the W3(4,5) null vector at weight 6, and the
    # singular vectors of M(2,5) (x) L_1(sl2).
    p = parse_presentation(w3_document(Fraction(4, 5)))
    yield "W3(4,5)", p, joint_kernel(complete_table(p),
                                     [(0, 2), (0, 3), (1, 3), (1, 4)], 6)
    p = parse_presentation(tensor(families.virasoro_member(2, 5).doc,
                                  families.sl2_member(1).doc))
    yield "M(2,5)-sl2_k1", p, [v for _, v in p.singular_vectors]


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_translate_matches_the_iterate_formula(strategy, families):
    # The normal form of D v is the same in the reference's `strategy`
    # order, and by the vacuum axiom D^(s-1) v / (s-1)! = (v)_{-s}|vac>,
    # the re-embedding `generated_span` computes by the iterate formula.
    # Where they differ, on the lattice, the difference lies in the span
    # of the Jacobi defects.
    vac = {(): Fraction(1)}
    for name, p, states in translate_cases(families):
        eng = complete_table(p)
        ref = RewriteReference(p, strategy)
        defects = c1_singular_elements(p, eng)
        spans = generated_span([d.value for d in defects], eng, 9)
        gaps = set()
        for v in states:
            assert eng.normal_form(apply_D(v)) == \
                ref.normal_form(apply_D(v), VACUUM), (name, v)
            y = v
            for s in (2, 3, 4):
                y = state_scale(eng.normal_form(apply_D(y)),
                                Fraction(1, s - 1))
                gap = state_sub(y, eng.element_mode(v, -s, vac))
                if gap:
                    assert spans[state_weight(gap, p.weights)].contains(gap)
                    gaps.add((next(iter(v)), s))
        want = LATTICE_REEMBEDDING_GAPS if defects else set()
        assert gaps == want, name


def test_zhu_image_memo_sizes_on_the_m47_null_vector(families):
    # o(null) of M(4,7): 88 PBW words of weight 18.  Expanding the raw
    # words of (null)_17 first filled 7,006 _reduce and 13,678 _splice
    # entries; the normalized recursion recurses on irreducible words only.
    # Its single modes ran as reductions of the prefixed word, 593 _reduce
    # entries and no _act entries; the left action shares them by tail.
    # Reading (u^l_{-1}|vac>)_t = u^l_t off directly, with no memo entry and
    # no left action of the other modes u^l_r, took (89, 534, 4, 156) to
    # (89, 490, 4, 120).  Folding every word through the left action
    # removed the _reduce memo, the first column of the tuples above.
    p = parse_presentation(families.virasoro_member(4, 7).doc)
    [(_, null)] = p.singular_vectors
    eng = complete_table(p)
    zhu_image(eng.normal_form(null), eng)
    sizes = (len(eng._iterate), len(eng._table), len(eng._act))
    assert sizes == (490, 4, 120)
    for ints, den in (*eng._iterate.values(), *eng._act.values()):
        assert den >= 1
        assert all(type(c) is int and c for c in ints.values())
        assert math.gcd(den, *ints.values()) == 1
