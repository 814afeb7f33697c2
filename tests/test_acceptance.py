"""Acceptance suite: one test per headline capability, exact values only.

Every check pins an end-to-end computation on the bundled presentations
(and, in test_07, on the lattice one with two generators swapped) to its
expected value in exact rational arithmetic.  Run with -v to get
one pass/fail line per item.
"""

from fractions import Fraction

import virasoro_oracle as oracle
from commutator_reference import commutator, evaluate
from conftest import state_scale, state_sub
from zhuforge import c1_singular_elements, complete_table
from zhuforge.cli import main as cli_main
from zhuforge.engine import apply_D, pbw_words
from zhuforge.linalg import SpanBuilder, integral
from zhuforge.presentation import parse_presentation, validate
from zhuforge.quotient import GroebnerBasis, check_matrix_model, quotient_basis
from zhuforge.terms import binom, state_iadd, state_weight
from zhuforge.va_calculus import generated_span
from zhuforge.zhu import NCPoly, zhu_commutators, zhu_image

ONE = {(): Fraction(1)}


def P(*pairs):
    out = NCPoly()
    for mono, c in pairs:
        out = out + NCPoly.term(mono, Fraction(c))
    return out


def diag(*entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0)
             for j in range(n)] for i in range(n)]


def unit_matrix(n, row, col):
    return [[Fraction(1) if (i, j) == (row, col) else Fraction(0)
             for j in range(n)] for i in range(n)]


def test_01_virasoro_completion_derives_the_missing_products(virasoro_table):
    # From w_1 w = 2 w and w_3 w = -1 alone, table completion must derive
    # the remaining nonnegative products of the weight-2 generator.
    assert virasoro_table.get(0, 0, 2) == {}
    assert virasoro_table.get(0, 0, 0) == {((0, -2),): Fraction(1)}


def test_02_virasoro_commutators_match_brute_force_oracle(virasoro_table):
    # [w_2, w_0] = 2 w_1 and [w_1, w_-1] = 2 w_-1 as operators, checked
    # against the independent evaluator (w_m = L(m-1), so this is
    # [L(1), L(-1)] = 2 L(0) and [L(0), L(-2)] = 2 L(-2)).
    comm_a = commutator((0, 2), (0, 0), virasoro_table)
    comm_b = commutator((0, 1), (0, -1), virasoro_table)
    words = oracle.basis_words(8)
    assert len(words) > 20
    failures = []
    for word in words:
        vec = {word: Fraction(1)}
        s = {tuple((0, n + 1) for n in w): c for w, c in vec.items()}
        want_a = {tuple((0, n + 1) for n in w): 2 * c
                  for w, c in oracle.omega_mode(1, vec).items()}
        want_b = {tuple((0, n + 1) for n in w): 2 * c
                  for w, c in oracle.omega_mode(-1, vec).items()}
        if evaluate(comm_a, s, virasoro_table) != want_a:
            failures.append(("[w_2, w_0]", word))
        if evaluate(comm_b, s, virasoro_table) != want_b:
            failures.append(("[w_1, w_-1]", word))
    assert not failures, \
        "commutator actions that disagree with the oracle: %s" % failures


def test_03_w3_is_nondegenerate_with_independent_pbw_words(w3, w3_table):
    assert c1_singular_elements(w3, w3_table) == []
    # No collapse: the span reachable from the generators has the full
    # PBW dimension in every weight <= 8.
    spans = generated_span([{((i, -1),): 1} for i in range(2)],
                           w3_table, 8)
    for wt in range(2, 9):
        assert len(spans[wt]) == len(pbw_words(w3.weights, wt)), wt


def test_04_w3_singular_vector_mode_actions(w3, w3_table):
    eng = w3_table
    v_s = dict(w3.singular_vectors)["v_s"]
    v_sp = w3.parse_state("9/2*v(-4) + 9 w(-2)v(-1) - 6 w(-1)v(-2)")

    def gap(got, want):
        return eng.normal_form(state_sub(got, want))

    checks = [
        ("w_1 v_s = 6 v_s",
         gap(eng.apply_mode((0, 1), v_s), state_scale(v_s, Fraction(6)))),
        ("v_2 v_s = 98/27 v_s'",
         gap(eng.apply_mode((1, 2), v_s),
             state_scale(v_sp, Fraction(98, 27)))),
        ("v_2 v_s' = 36 v_s",
         gap(eng.apply_mode((1, 2), v_sp), state_scale(v_s, Fraction(36)))),
        ("v_1 v_s = 49/54 (v_s')_{-2}1",
         gap(eng.apply_mode((1, 1), v_s),
             state_scale(eng.element_mode(v_sp, -2, ONE), Fraction(49, 54)))),
        ("v_1 v_s' = 9 (v_s)_{-2}1",
         gap(eng.apply_mode((1, 1), v_sp),
             state_scale(eng.element_mode(v_s, -2, ONE), Fraction(9)))),
    ]
    failures = [name for name, g in checks if g != {}]
    assert not failures, \
        "mode actions that differ from the asserted values: %s" % failures


def test_05_w3_zhu_images_and_relation_ideal(w3, w3_table, w3_closure):
    eng = w3_table
    v_s = dict(w3.singular_vectors)["v_s"]
    v_sp = w3.parse_state("9/2*v(-4) + 9 w(-2)v(-1) - 6 w(-1)v(-2)")
    o_vs = P(((1, 1), "3/2"), ((0, 0), "-1/9"), ((0, 0, 0), "-8/9"))

    assert zhu_image(v_s, w3_table) == o_vs
    assert not zhu_image(v_sp, w3_table)

    # The closed ideal equals the one generated by o(v_s): each emitted
    # relation has Groebner normal form zero modulo [o(v_s)] and conversely.
    by_vs = GroebnerBasis(w3_closure.algebra, [o_vs], 10)
    by_closure = GroebnerBasis(w3_closure.algebra,
                               w3_closure.extra_relations, 10)
    assert by_vs.complete and by_closure.complete
    for rel in w3_closure.extra_relations:
        assert not by_vs.normal_form(*integral(rel.coeffs))[0]
    assert not by_closure.normal_form(*integral(o_vs.coeffs))[0]

    # o(v_0 v_s') = 72 o(v_s), derived twice without using that image.
    v0_vsp = eng.apply_mode((1, 0), v_sp)
    vs_m2 = eng.element_mode(v_s, -2, ONE)
    vs_m3 = eng.element_mode(v_s, -3, ONE)
    wt = state_weight(v_s, w3.weights)
    assert wt == 6

    # Zhu's identity o((L_{-1} + L_0) a) = 0 reads o(D a) = -wt(a) o(a).
    # With (v_s)_{-2}1 = D v_s and (v_s)_{-3}1 = D^2 v_s / 2 it gives
    # o((v_s)_{-2}1) = -6 o(v_s) and o((v_s)_{-3}1) = 1/2 * 7 * 6 o(v_s).
    assert eng.normal_form(state_sub(vs_m2, apply_D(v_s))) == {}
    assert eng.normal_form(state_sub(
        vs_m3, state_scale(apply_D(apply_D(v_s)), Fraction(1, 2)))) == {}
    assert zhu_image(vs_m2, w3_table) == o_vs.scale(-wt)
    assert zhu_image(vs_m3, w3_table) == \
        o_vs.scale(Fraction((wt + 1) * wt, 2)) == o_vs.scale(21)

    # (a) Decomposition: v_0 v_s' = 12 (v_s)_{-3}1 - 10 e with
    # o(e) = 18 o(v_s), so o(v_0 v_s') = (12*21 - 10*18) o(v_s).
    e = w3.parse_state("3 v(-2)v(-2) + 8*w(-7) - 8 w(-5)w(-1) "
                       "- 2 w(-3)w(-3) - 4 w(-4)w(-2) - 4 w(-2)w(-2)w(-1)")
    assert eng.normal_form(state_sub(
        v0_vsp, state_sub(state_scale(vs_m3, 12), state_scale(e, 10)))) == {}
    assert zhu_image(eng.normal_form(e), w3_table) == o_vs.scale(18)
    by_decomposition = o_vs.scale(12 * 21 - 10 * 18)

    # (b) Zhu's commutator formula for wt v = 3,
    # [o(v), o(b)] = o(v_0 b) + 2 o(v_1 b) + o(v_2 b), at b = v_s': the
    # left side is 0 because o(v_s') = 0.  With test_04's v_1 v_s' =
    # 9 (v_s)_{-2}1 and v_2 v_s' = 36 v_s this leaves
    # o(v_0 v_s') = -2 * 9 * (-6) o(v_s) - 36 o(v_s).
    images = [zhu_image(eng.apply_mode((1, j), v_sp), w3_table)
              for j in range(3)]
    formula = NCPoly()
    for j, image in enumerate(images):
        formula = formula + image.scale(binom(2, j))
    assert not formula
    assert images[1] == zhu_image(state_scale(vs_m2, 9), w3_table) \
        == o_vs.scale(9 * -6)
    assert images[2] == zhu_image(state_scale(v_s, 36), w3_table) \
        == o_vs.scale(36)
    by_commutator = o_vs.scale(-2 * (9 * -6) - 36)

    assert by_decomposition == by_commutator == o_vs.scale(72)
    assert zhu_image(v0_vsp, w3_table) == o_vs.scale(72)


def test_06_lattice_jacobi_defects(lattice, lattice_defects):
    assert [d.indices for d in lattice_defects] == [
        (1, 1, 1, 0, 2), (1, 1, 2, 0, 2)]
    first, second = lattice_defects
    assert first.value == \
        lattice.parse_state("10 a(-1)ea(-1) - 10*ea(-2)")
    assert second.value == \
        lattice.parse_state("-10*em(-2) - 10 a(-1)em(-1)")


# The bundled lattice presentation with its generators listed in the order
# a, em, ea.  Each stored product em_k ea is the image of the bundled
# ea_k em under theta: a -> -a, ea <-> em, which negates the odd powers of
# a; the other stored products are the bundled ones, renamed.
THETA_LATTICE = {
    "name": "lattice-rank1-norm4-theta",
    "generators": [{"symbol": "a", "weight": 1},
                   {"symbol": "em", "weight": 2},
                   {"symbol": "ea", "weight": 2}],
    "relations": [
        {"i": 0, "j": 0, "k": 1, "value": [{"coeff": "4", "word": []}]},
        {"i": 0, "j": 1, "k": 0,
         "value": [{"coeff": "-4", "word": [["em", -1]]}]},
        {"i": 0, "j": 2, "k": 0,
         "value": [{"coeff": "4", "word": [["ea", -1]]}]},
        {"i": 1, "j": 2, "k": 0, "value": [
            {"coeff": "-1/3", "word": [["a", -3]]},
            {"coeff": "1/2", "word": [["a", -2], ["a", -1]]},
            {"coeff": "-1/6", "word": [["a", -1], ["a", -1], ["a", -1]]}]},
        {"i": 1, "j": 2, "k": 1, "value": [
            {"coeff": "-1/2", "word": [["a", -2]]},
            {"coeff": "1/2", "word": [["a", -1], ["a", -1]]}]},
        {"i": 1, "j": 2, "k": 2,
         "value": [{"coeff": "-1", "word": [["a", -1]]}]},
        {"i": 1, "j": 2, "k": 3, "value": [{"coeff": "1", "word": []}]},
    ],
}


class LatticeModes:
    """Mode actions on the defects J and L of one lattice presentation.

    Ops are (symbol, mode) pairs, so the same checks run under any
    generator order.
    """

    def __init__(self, p, table):
        self.eng = table
        self.index = p.symbol_index
        self.J = p.parse_state("ea(-2) - a(-1)ea(-1)")
        self.L = p.parse_state("em(-2) + a(-1)em(-1)")

    def act(self, ops, state):
        """Apply ops right to left, one mode at a time."""
        for sym, mode in reversed(ops):
            state = self.eng.apply_mode((self.index[sym], mode), state)
        return state

    def descendants(self, X):
        """X_{-3}1, a(-1) X_{-2}1, a(-2) X and a(-1)a(-1) X (weight 5)."""
        eng = self.eng
        return [eng.element_mode(X, -3, ONE),
                self.act([("a", -1)], eng.element_mode(X, -2, ONE)),
                self.act([("a", -2)], X),
                self.act([("a", -1), ("a", -1)], X)]

    def comb(self, X, c3, c12, c2, c11):
        """(c3 X_{-3}1 + c12 a(-1) X_{-2}1 + c2 a(-2) X + c11 a(-1)a(-1) X)/3"""
        out = {}
        for state, c in zip(self.descendants(X), (c3, c12, c2, c11)):
            state_iadd(out, state, Fraction(c, 3))
        return out

    def gap(self, got, want):
        return self.eng.normal_form(state_sub(got, want))


def test_07_lattice_mode_action_identities(lattice, lattice_table):
    # The eighteen displayed actions on the Jacobi defects
    # J = ea(-2) - a(-1)ea(-1) and L = em(-2) + a(-1)em(-1) of test_06;
    # composite left sides apply one mode at a time, and the "n >= 1"
    # families are sampled at n = 1, 2, 3: thirty checks.
    #
    # Twenty-nine hold exactly in the bundled presentation (generator
    # order a, ea, em), together with the two one-step identities
    # em_0 ea(-1)ea(-1) and ea_0 em(-1)em(-1) that, with ea_0 J = 4
    # ea(-1)ea(-1) and em_0 L = 4 em(-1)em(-1), give em_0 ea_0 J and
    # ea_0 em_0 L.
    #
    # em_0 em_0 J holds exactly only in THETA_LATTICE (order a, em, ea).
    # The presentation is not confluent, so a weight-5 normal form depends
    # on the order in which rewrites meet, and PBW ties between ea and em
    # are broken by generator index.  The reference is the theta-image of
    # the reference of ea_0 ea_0 L, and theta swaps the indices of ea and
    # em, so it is exact where em precedes ea.  In the bundled order the
    # two sides differ by a combination of the eight weight-5 descendants
    # of J and L, which the test checks too.  That check alone cannot see
    # a wrong coefficient, since the reference itself lies in that span;
    # the exact check in THETA_LATTICE can.
    lm = LatticeModes(lattice, lattice_table)
    J, L = lm.J, lm.L
    checks = [("a_0 J = 4 J", [("a", 0)], J, state_scale(J, Fraction(4)))]
    for sym in ("a", "ea", "em"):
        for n in (1, 2, 3):
            checks.append(("%s_%d J = 0" % (sym, n), [(sym, n)], J, {}))
    checks += [
        ("ea_0 J = 4 ea(-1)ea(-1)", [("ea", 0)], J,
         lattice.parse_state("4 ea(-1)ea(-1)")),
        ("em_0 J = -4 em(-1)ea(-1) - ...", [("em", 0)], J,
         lattice.parse_state(
             "-4 em(-1)ea(-1) - a(-4) + 1/2 a(-2)a(-2) + 4/3 a(-3)a(-1)"
             " - a(-2)a(-1)a(-1) + 1/6 a(-1)a(-1)a(-1)a(-1)")),
        ("ea_0 ea_0 J = 0", [("ea", 0), ("ea", 0)], J, {}),
        ("em_0 ea(-1)ea(-1)", [("em", 0)],
         lattice.parse_state("ea(-1)ea(-1)"), lm.comb(J, 20, -5, 14, 1)),
        ("em_0 ea_0 J", [("em", 0), ("ea", 0)], J,
         lm.comb(J, 80, -20, 56, 4)),
        ("a_0 L = -4 L", [("a", 0)], L, state_scale(L, Fraction(-4))),
    ]
    for sym in ("a", "ea", "em"):
        for n in (1, 2, 3):
            checks.append(("%s_%d L = 0" % (sym, n), [(sym, n)], L, {}))
    checks += [
        ("em_0 L = 4 em(-1)em(-1)", [("em", 0)], L,
         lattice.parse_state("4 em(-1)em(-1)")),
        ("ea_0 L = -4 ea(-1)em(-1) + ...", [("ea", 0)], L,
         lattice.parse_state(
             "-4 ea(-1)em(-1) + a(-4) + 1/2 a(-2)a(-2) + 4/3 a(-3)a(-1)"
             " + a(-2)a(-1)a(-1) + 1/6 a(-1)a(-1)a(-1)a(-1)")),
        ("em_0 em_0 L = 0", [("em", 0), ("em", 0)], L, {}),
        ("ea_0 em(-1)em(-1)", [("ea", 0)],
         lattice.parse_state("em(-1)em(-1)"), lm.comb(L, 20, 5, -14, 1)),
        ("ea_0 em_0 L", [("ea", 0), ("em", 0)], L,
         lm.comb(L, 80, 20, -56, 4)),
        ("ea_0 ea_0 L", [("ea", 0), ("ea", 0)], L,
         lm.comb(J, 20, -50, 80, 10)),
    ]
    failures = [name for name, ops, src, want in checks
                if lm.gap(lm.act(ops, src), want) != {}]
    assert not failures, (
        "mode-action identities that fail to reproduce: %s" % failures)

    em0_em0 = [("em", 0), ("em", 0)]
    reference = (20, 50, -80, 10)    # em_0 em_0 J = comb(L, *reference)

    # Bundled order: em_0 em_0 J agrees with its reference modulo the span
    # of the descendants of J and L, 8 of the 28 weight-5 PBW dimensions.
    span = SpanBuilder()
    for X in (J, L):
        for state in lm.descendants(X):
            span.add(lm.eng.normal_form(state))
    assert len(span) == 8
    assert len(pbw_words(lattice.weights, 5)) == 28
    assert span.contains(
        lm.gap(lm.act(em0_em0, J), lm.comb(L, *reference)))

    # THETA_LATTICE is a valid presentation of the same algebra: theta is a
    # symmetry of the completed table, so both orders give every product
    # u_k v the same value, symbol for symbol.
    theta = parse_presentation(THETA_LATTICE)
    assert validate(theta) == []
    theta_table = complete_table(theta)
    tm = LatticeModes(theta, theta_table)
    move = [theta.symbol_index[s] for s in lattice.symbols]
    for i, j, k, value in lattice_table.entries():
        renamed = {tuple((move[g], m) for g, m in word): c
                   for word, c in value.items()}
        assert tm.eng.normal_form(renamed) == \
            theta_table.get(move[i], move[j], k), (i, j, k)

    # THETA_LATTICE order: em_0 em_0 J is exactly its reference.
    assert tm.gap(tm.act(em0_em0, tm.J), tm.comb(tm.L, *reference)) == {}


def test_08_lattice_zhu_relations_quotient_and_matrix_model(
        lattice, lattice_table, lattice_closure):
    zp = lattice_closure

    # The three commutator relations, including the cubic bracket.
    assert zhu_commutators(lattice, lattice_table) == [
        P(((0, 1), 1), ((1, 0), -1), ((1,), -4)),
        P(((0, 2), 1), ((2, 0), -1), ((2,), 4)),
        P(((1, 2), 1), ((2, 1), -1), ((0,), "1/6"), ((0, 0, 0), "-1/6")),
    ]

    # The closed ideal equals the ideal of the six quadratic relations of
    # the 7-dimensional quotient: exact mutual Groebner reduction.
    six = [
        P(((2, 0), 1), ((2,), -2)),
        P(((1, 0), 1), ((1,), 2)),
        P(((1, 1), 1)),
        P(((1, 2), -4), ((0,), "-1/3"), ((0, 0), "-1/6"),
          ((0, 0, 0), "1/3"), ((0, 0, 0, 0), "1/6")),
        P(((2, 1), -4), ((0,), "1/3"), ((0, 0), "-1/6"),
          ((0, 0, 0), "-1/3"), ((0, 0, 0, 0), "1/6")),
        P(((2, 2), 1)),
    ]
    by_closure = GroebnerBasis(zp.algebra, zp.extra_relations, 10)
    by_six = GroebnerBasis(zp.algebra, six, 10)
    assert by_closure.complete and by_six.complete
    for rel in six:
        assert not by_closure.normal_form(*integral(rel.coeffs))[0]
    for rel in zp.extra_relations:
        assert not by_six.normal_form(*integral(rel.coeffs))[0]

    # The quotient stabilizes at dimension 7 with the expected basis.
    model = quotient_basis(zp, degree_bound=10)
    assert model.dimension == 7
    assert model.status == "stabilized-at-degree-6"
    assert model.basis == [(), (0,), (1,), (2,), (0, 0), (1, 2), (0, 0, 0)]

    # An independent 5-dimensional representation satisfies every relation.
    ok, failing = check_matrix_model(zp, {
        "a": diag(0, 2, -2, 1, -1),
        "ea": unit_matrix(5, 1, 2),
        "em": unit_matrix(5, 2, 1),
    })
    assert ok and failing == []


def test_09_randomized_invariant_suites(invariant_report):
    violations = {key: count for key, count in invariant_report.items()
                  if not key.endswith("_checked")
                  and not key.endswith("_raw_nonzero_diffs")
                  and count != 0}
    assert violations == {}, violations
    for name in ("virasoro", "w3", "lattice"):
        assert invariant_report[name + "_nf_checked"] == 1000
        assert invariant_report[name + "_image_pairs_checked"] == 200


def test_10_cli_runs_are_byte_identical(capsys, tmp_path):
    for name in ("virasoro_c_minus2", "w3_c_minus2", "lattice_rank1_norm4"):
        for cmd in ("zhu", "quotient"):
            payloads = []
            for attempt in (0, 1):
                path = tmp_path / ("%s-%s-%d.json" % (cmd, name, attempt))
                code = cli_main([cmd, "--input", name,
                                 "--output", str(path)])
                capsys.readouterr()
                assert code in (0, 2)
                payloads.append(path.read_bytes())
            assert payloads[0] == payloads[1], (cmd, name)
            assert payloads[0].endswith(b"\n")
