"""Top-level images, straightening, membership, and relation closure."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (ReductionStrategy, RewriteReference, defect_seeds,
                      raw_mode, state_scale)

from zhuforge import linalg, reduction, zhu
from zhuforge.catalog import load_bundled
from zhuforge.engine import (
    apply_D,
    complete_table,
    pbw_words,
    short_iterate,
)
from zhuforge.linalg import fractional, integral, normalized
from zhuforge.presentation import parse_presentation, validate
from zhuforge.quotient import GroebnerBasis, check_matrix_model, quotient_basis
from zhuforge.reduction import c1_singular_elements
from zhuforge.terms import (TOP_LEVEL, VACUUM, state_iadd, state_weight,
                            word_weight)
from zhuforge.va_calculus import commutator
from zhuforge.zhu import (
    ClosureBounds,
    NCPoly,
    ZhuAlgebra,
    _bracket_modes,
    _conformal_modes,
    circ,
    relation_closure,
    star,
    zhu_commutators,
    zhu_image,
)

ONE_STATE = {(): Fraction(1)}

# Rank-3 Heisenberg algebra: a, b, c of weight 1 with X_1 X = 1 and every
# other product zero, so all brackets of its top-level algebra vanish.
HEISENBERG3 = {
    "name": "heisenberg-rank3",
    "generators": [{"symbol": s, "weight": 1} for s in ("a", "b", "c")],
    "relations": [{"i": i, "j": i, "k": 1,
                   "value": [{"coeff": "1", "word": []}]} for i in range(3)],
}


# The Borel current algebra: h and e of weight 1 with h_0 e = e, so the
# top-level algebra is U(b) with [x_h, x_e] = x_e.
BOREL = {
    "name": "borel",
    "generators": [{"symbol": s, "weight": 1} for s in ("h", "e")],
    "relations": [{"i": 0, "j": 1, "k": 0,
                   "value": [{"coeff": "1", "word": [["e", -1]]}]}],
}


def straightened(doc):
    p = parse_presentation(doc)
    assert validate(p) == []
    return ZhuAlgebra(p, complete_table(p))


def poly(*terms):
    return NCPoly({mono: Fraction(c) for mono, c in terms})


# ----- polynomial arithmetic -------------------------------------------------

def test_ncpoly_basics():
    x = NCPoly.term((0,))
    y = NCPoly.term((1,))
    assert (x + y) - y == x
    assert not (x - x)
    assert (x * y).coeffs == {(0, 1): 1}
    assert x * y != y * x
    assert x.scale(0).is_zero()
    assert poly(((0,), "1/2"), ((1, 1), 3)) == \
        NCPoly([((1, 1), Fraction(3)), ((0,), Fraction(1, 2))])


def test_ncpoly_render_groups_powers():
    p = poly(((1, 1), "3/2"), ((0, 0, 0), "-8/9"), ((0, 0), "-1/9"))
    assert p.render(("w", "v")) == \
        "-1/9*x_w^2 + 3/2*x_v^2 - 8/9*x_w^3"
    assert NCPoly().render(("x",)) == "0"
    assert NCPoly.term((), 1).render(("x",)) == "1"
    assert poly(((0, 1, 0), 1)).render(("a", "b")) == "x_a*x_b*x_a"


# ----- star, circ, and the image map -----------------------------------------

def test_star_identities(virasoro, virasoro_table):
    w = virasoro.generator_state(0)
    s = virasoro.parse_state("w(-3)w(-1)")
    assert star(ONE_STATE, s, virasoro_table) == s
    assert star(w, ONE_STATE, virasoro_table) == w


def test_circ_examples(virasoro, virasoro_table):
    w = virasoro.generator_state(0)
    assert circ(ONE_STATE, w, virasoro_table) == {}
    got = circ(w, ONE_STATE, virasoro_table)
    want = dict(virasoro.parse_state("w(-2)"))
    state_iadd(want, w, 2)
    assert got == want


def test_zhu_image_of_generators_and_vacuum(w3, w3_table):
    assert zhu_image(ONE_STATE, w3_table) == NCPoly.term(())
    assert zhu_image(w3.generator_state(0), w3_table) == NCPoly.term((0,))
    assert zhu_image(w3.generator_state(1), w3_table) == NCPoly.term((1,))
    assert zhu_image({}, w3_table).is_zero()


def test_zhu_image_of_translate_is_scaled_negative(virasoro, virasoro_table):
    # o(D u) = -wt(u) o(u): the translate of the weight-2 generator.
    dw = apply_D(virasoro.generator_state(0))
    assert zhu_image(dw, virasoro_table) == NCPoly.term((0,), -2)


def test_zhu_image_of_w3_singular_vectors(w3, w3_table):
    v_s = dict(w3.singular_vectors)["v_s"]
    v_sp = w3.parse_state("9/2*v(-4) + 9 w(-2)v(-1) - 6 w(-1)v(-2)")
    want = poly(((1, 1), "3/2"), ((0, 0), "-1/9"), ((0, 0, 0), "-8/9"))
    assert zhu_image(v_s, w3_table) == want
    assert zhu_image(v_sp, w3_table).is_zero()


def raw_top_level_image(s, table, strategy):
    """o(s) by normal-forming the raw expansion of (s)_{wt s - 1} in the
    reference's `strategy` order."""
    acc: dict = {}
    for word, c in s.items():
        w = word_weight(word, table.weights)
        red = raw_mode(table, word, w - 1, (), TOP_LEVEL, strategy)
        for rword, rc in red.items():
            state_iadd(acc, {tuple(i for i, _ in rword): rc}, c)
    return NCPoly(acc)


def image_differences(p, strategy, extra=()):
    """(state, difference) for each PBW word of weight <= 7, as a state,
    and each state in `extra` whose `zhu_image` differs from
    `raw_top_level_image`."""
    table = complete_table(p)
    states = [{word: Fraction(1)} for weight in range(8)
              for word in pbw_words(p.weights, weight)] + list(extra)
    diffs = [(s, zhu_image(s, table)
              - raw_top_level_image(s, table, strategy)) for s in states]
    return [(s, d) for s, d in diffs if d]


def image_reference_cases(families):
    yield "virasoro_c_minus2", load_bundled("virasoro_c_minus2"), ()
    yield "w3_c_minus2", load_bundled("w3_c_minus2"), ()
    m47 = parse_presentation(families.virasoro_member(4, 7).doc)
    yield "M(4,7)", m47, [s for _, s in m47.singular_vectors]
    for level in (1, 2):
        yield ("sl2_k%d" % level,
               parse_presentation(families.sl2_member(level).doc), ())
    for norm in (1, 3):
        for order in itertools.permutations(("a", "ea", "em")):
            member = families.lattice_member(norm, order)
            yield member.label, parse_presentation(member.doc), ()


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_zhu_image_matches_raw_top_level_reference(families, strategy,
                                                   lattice, lattice_closure):
    # zhu_image normal-forms every intermediate result of the iterate
    # formula; the reference expands raw words and normal-forms once, in
    # either rewrite order.
    for label, p, extra in image_reference_cases(families):
        assert image_differences(p, strategy, extra) == [], label
    diffs = image_differences(lattice, strategy)
    if strategy is ReductionStrategy.RightmostFirst:
        assert diffs == []
        return
    # The bundled lattice rewrites non-confluently: in the leftmost order
    # the normalized recursion and the raw expansion pick representatives
    # that differ by elements of the ideal of the emitted relations.
    assert len(diffs) == 8
    for _, diff in diffs:
        assert lattice_closure.groebner.reduce(diff).is_zero()


def test_zhu_image_respects_star_product(w3, w3_table):
    u = w3.generator_state(0)
    v = w3.parse_state("w(-2)v(-1)")
    assert zhu_image(star(u, v, w3_table), w3_table) == \
        zhu_image(u, w3_table) * zhu_image(v, w3_table)
    assert zhu_image(circ(u, v, w3_table), w3_table).is_zero()


# ----- straightening ----------------------------------------------------------

def test_w3_brackets_vanish(w3, w3_table):
    alg = ZhuAlgebra(w3, w3_table)
    assert alg.brackets == {(0, 1): ({}, 1)}
    assert zhu_commutators(w3, w3_table, algebra=alg) == \
        [NCPoly.term((0, 1)) - NCPoly.term((1, 0))]


def test_lattice_brackets_and_straightening(lattice, lattice_table):
    alg = ZhuAlgebra(lattice, lattice_table)
    # [x_a, x_ea] = 4 x_ea, [x_a, x_em] = -4 x_em,
    # [x_ea, x_em] = (x_a^3 - x_a)/6, each a normalized pair (ints, den).
    assert alg.brackets == {(0, 1): ({(1,): 4}, 1), (0, 2): ({(2,): -4}, 1),
                            (1, 2): ({(0, 0, 0): 1, (0,): -1}, 6)}
    # Straightening sorts a descending pair and adds the bracket value.
    assert alg.canonical({(1, 0): 1}) == ({(0, 1): 1, (1,): -4}, 1)
    got = alg.canonical({(2, 1): 1})
    assert got == ({(1, 2): 6, (0, 0, 0): -1, (0,): 1}, 6)
    # The pair is reduced by the gcd of the coefficients and den.
    assert alg.canonical({(2, 1): 6}) == (got[0], 1)
    # Idempotence and support shape: only ascending monomials survive.
    assert alg.canonical(got[0]) == (got[0], 1)
    assert all(tuple(sorted(m)) == m for m in got[0])


def test_straightening_converts_each_bracket_once(lattice, lattice_table,
                                                  monkeypatch):
    # Construction leaves every bracket an int pair, so straightening
    # converts nothing; a bracket replaced after construction, with the
    # memo emptied, changes the straightening.
    alg = ZhuAlgebra(lattice, lattice_table)
    calls = []

    def counted(coeffs):
        calls.append(1)
        return integral(coeffs)

    monkeypatch.setattr(zhu, "integral", counted)
    monkeypatch.setattr(linalg, "integral", counted)
    word = alg.canonical({(2, 1, 0, 2, 1, 0): 1})
    assert len(alg._memo) > 20
    alg.brackets[(1, 2)] = ({(0,): 5}, 1)
    alg._memo = {}
    assert alg.canonical({(2, 1): 1}) == ({(1, 2): 1, (0,): -5}, 1)
    assert word != alg.canonical({(2, 1, 0, 2, 1, 0): 1})
    assert calls == []


def straighten_reference(brackets, mono) -> dict:
    """x^mono straightened in Fractions by x_a x_b = x_b x_a - [x_b, x_a]
    (a > b) at the first descent, with no memo; `brackets` maps (b, a) to
    the Fraction coefficients of [x_b, x_a]."""
    for p in range(len(mono) - 1):
        a, b = mono[p], mono[p + 1]
        if a > b:
            prefix, suffix = mono[:p], mono[p + 2:]
            acc = straighten_reference(brackets, prefix + (b, a) + suffix)
            for m2, c2 in brackets[(b, a)].items():
                state_iadd(acc, straighten_reference(brackets,
                                                     prefix + m2 + suffix),
                           -c2)
            return acc
    return {mono: Fraction(1)}


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(-2, 3)])
def test_sl2_canonical_equals_fraction_straightening(families, scale):
    p = parse_presentation(families.sl2_member(2, scale=scale).doc)
    alg = ZhuAlgebra(p, complete_table(p))
    integral = scale == 1
    # [x_e, x_h] = -2 x_e, [x_e, x_f] = scale x_h, [x_h, x_f] = -2 x_f
    assert alg.brackets == {
        (0, 1): ({(0,): -2}, 1),
        (0, 2): ({(1,): scale.numerator}, scale.denominator),
        (1, 2): ({(2,): -2}, 1)}
    brackets = {ij: fractional(*b) for ij, b in alg.brackets.items()}
    monos = [m for n in range(5)
             for m in itertools.product(range(3), repeat=n)]
    for mono in monos:
        ints, den = alg.canonical({mono: 1})
        assert fractional(ints, den) == straighten_reference(brackets, mono)
        assert den == 1 or not integral
    # An int combination straightens term by term, over den 1 exactly
    # when the brackets are integral.
    combo = {m: k for k, m in zip(itertools.cycle((3, -1, 2, -5)), monos)}
    ints, den = alg.canonical(combo)
    ref: dict = {}
    for m, k in combo.items():
        state_iadd(ref, straighten_reference(brackets, m), Fraction(k))
    assert fractional(ints, den) == ref
    assert (den == 1) == integral


def test_straightening_kills_commutator_relations(lattice, lattice_table):
    alg = ZhuAlgebra(lattice, lattice_table)
    for rel in zhu_commutators(lattice, lattice_table, algebra=alg):
        assert rel and alg.canonical(integral(rel.coeffs)[0]) == ({}, 1)


# ----- ideal membership --------------------------------------------------------

def test_membership_trichotomy_free_algebra():
    # One generator with no brackets: the free algebra C[x].
    alg = straightened(dict(HEISENBERG3,
                            generators=HEISENBERG3["generators"][:1],
                            relations=HEISENBERG3["relations"][:1]))
    x = NCPoly.term((0,))
    xx = NCPoly.term((0, 0))
    gb = GroebnerBasis(alg, [xx], 3)
    assert gb.complete and gb.leads == [(0, 0)]
    assert gb.reduce(NCPoly()).is_zero()
    assert gb.reduce(x * xx).is_zero()
    assert gb.reduce(NCPoly.term(())) == NCPoly.term(())
    assert gb.reduce(x) == x
    assert GroebnerBasis(alg, [x - xx], 3).reduce(x - x * xx).is_zero()


def test_membership_in_noncommutative_two_generator_ideal():
    alg = straightened(BOREL)
    a, b = NCPoly.term((0,)), NCPoly.term((1,))
    # a*b is in the two-sided ideal of {ab}, but b*a = ab - b is not: with
    # a = diag(0, -1) and b = E_12, ab = 0 while ba = -E_12.  The ideal
    # holds b^2 = (ab)b - b(ab).
    gb = GroebnerBasis(alg, [a * b], 4)
    assert gb.complete
    assert gb.reduce(a * b).is_zero()
    assert gb.reduce(b * a) == b.scale(-1)
    assert gb.reduce(b * (a * b) * a).is_zero()
    assert gb.reduce(b * b).is_zero()


def test_membership_with_straightening(lattice_closure):
    zp = lattice_closure
    # A commutator relation straightens to zero before any reduction,
    # while the same element is visibly nonzero in the free algebra.
    q = (NCPoly.term((1, 0)) - NCPoly.term((0, 1))
         + NCPoly.term((1,), 4))
    junk = [NCPoly.term((2, 2))]
    assert q and GroebnerBasis(zp.algebra, junk, 10).reduce(q).is_zero()
    # The emitted relations contain x_ea^2 (up to scale); x_a itself is a
    # basis element of the quotient, so it is its own normal form.
    gb = GroebnerBasis(zp.algebra, zp.extra_relations, 10)
    assert gb.complete
    assert gb.reduce(NCPoly.term((1, 1))).is_zero()
    assert gb.reduce(NCPoly.term((0,))) == NCPoly.term((0,))


def test_graded_membership_straightens_rows():
    p = parse_presentation(HEISENBERG3)
    assert validate(p) == []
    alg = ZhuAlgebra(p, complete_table(p))
    assert all(not ints for ints, _ in alg.brackets.values())
    xa, xb, xc = (NCPoly.term((i,)) for i in range(3))
    # x_b (x_a - x_c) straightens to x_a x_b - x_b x_c, which is the
    # straightened (x_a - x_c) x_b: only a straightened ideal sees it.
    ints, den = alg.canonical({(1, 0): 1, (1, 2): -1})
    assert (ints, den) == ({(0, 1): 1, (1, 2): -1}, 1)
    q = NCPoly(fractional(ints, den))
    gb = GroebnerBasis(alg, [xa - xc], 10)
    assert gb.reduce(q).is_zero()
    assert gb.reduce(xb) == xb


def test_groebner_basis_closes_under_s_pairs_and_right_products(
        lattice_closure):
    # r = x_a x_em + x_ea: 4 r + [x_a, r] = 8 x_ea, so x_ea and x_a x_em,
    # which is x_em (x_a - 4), lie in the ideal, and so does the bracket
    # [x_ea, x_em] = (x_a^3 - x_a)/6.  4 is no root of t^3 - t, so x_em
    # lies in it as well, and C[x_a] / (x_a^3 - x_a) is left.
    r = poly(((0, 2), 1), ((1,), 1))
    gb = GroebnerBasis(lattice_closure.algebra, [r], 10)
    assert gb.complete
    assert gb.reduce(poly(((0, 0, 0), 1), ((0,), -1))).is_zero()
    assert gb.reduce(NCPoly.term((2,))).is_zero()
    assert gb.standard_monomials() == [(), (0,), (0, 0)]


def test_groebner_basis_grows_and_resumes(lattice_closure):
    alg = lattice_closure.algebra
    first, *rest = OLD_LATTICE_RELATIONS
    gb = GroebnerBasis(alg, [], 8)
    assert gb.complete and gb.leads == []
    gb.add(first)
    # x_a x_ea leads with grade 3; its right products need grade 4.
    assert not gb.close(3) and not gb.complete
    assert gb.leads == [(0, 1)]
    assert gb.close(10) and gb.complete
    fresh = GroebnerBasis(alg, [first], 10)
    assert sorted(gb.leads) == sorted(fresh.leads)
    assert gb.standard_monomials() == fresh.standard_monomials()
    probes = [NCPoly.term(m) for n in range(5)
              for m in itertools.product(range(3), repeat=n)]
    assert [gb.reduce(q) for q in probes] == [fresh.reduce(q) for q in probes]
    # The other four add nothing: every lead was already there.
    leads = list(gb.leads)
    for rel in rest:
        gb.add(rel)
    assert gb.close(10) and gb.leads == leads


@pytest.fixture(scope="session")
def scaling_cases(families, lattice_closure):
    """name -> (algebra, relations, grade bound): the lattice's five old
    relations, and sl2 k=2's seed image with two of its products."""
    p = parse_presentation(families.sl2_member(2).doc)
    table = complete_table(p)
    (_, seed), = p.singular_vectors
    img = zhu_image(seed, table)
    sl2 = (ZhuAlgebra(p, table),
           [img, img * NCPoly.term((2,)), NCPoly.term((1,)) * img], 6)
    return {"lattice": (lattice_closure.algebra, OLD_LATTICE_RELATIONS, 10),
            "sl2": sl2}


NONZERO_RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                              st.integers(1, 9))


@pytest.mark.parametrize("name", ["lattice", "sl2"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(scales=st.lists(NONZERO_RATIONALS, min_size=5, max_size=5))
def test_groebner_basis_does_not_depend_on_relation_scale(scaling_cases,
                                                          name, scales):
    alg, relations, bound = scaling_cases[name]
    ref = GroebnerBasis(alg, relations, bound)
    gb = GroebnerBasis(alg, [r.scale(c) for r, c in zip(relations, scales)],
                       bound)
    assert gb.complete and ref.complete
    assert gb.leads == ref.leads
    assert gb.standard_monomials() == ref.standard_monomials()
    probes = [NCPoly.term(m) for n in range(5)
              for m in itertools.product(range(3), repeat=n)]
    assert [gb.reduce(q) for q in probes] == [ref.reduce(q) for q in probes]
    # Primitive int polynomials with a positive lead: unique per element.
    for g, lead in zip(gb.elements, gb.leads):
        assert all(type(c) is int for c in g.values())
        assert math.gcd(*g.values()) == 1 and g[lead] > 0
        assert max(g, key=gb.key) == lead
    assert gb.elements == ref.elements


# ----- relation closure -------------------------------------------------------

def test_w3_closure_emits_single_relation(w3_closure):
    zp = w3_closure
    assert zp.status == "complete" and zp.partial_reason is None
    assert zp.generators == ("w", "v")
    assert zp.commutator_relations == \
        [NCPoly.term((0, 1)) - NCPoly.term((1, 0))]
    assert zp.extra_relations == \
        [poly(((1, 1), "3/2"), ((0, 0), "-1/9"), ((0, 0, 0), "-8/9"))]
    assert zp.provenance == [
        {"seed": "v_s", "chain": [], "membership": "nonzero"}]


# The five relations the closure emitted while it tested membership in the
# free ideal of the earlier relations, without the commutators.
OLD_LATTICE_RELATIONS = [
    poly(((1,), -20), ((0, 1), 10)),
    poly(((2,), -20), ((0, 2), -10)),
    poly(((1, 1), -40)),
    poly(((0,), "10/3"), ((0, 0), "5/3"), ((1, 2), 40), ((0, 0, 0), "-10/3"),
         ((0, 0, 0, 0), "-5/3")),
    poly(((2, 2), -40)),
]


def test_lattice_closure_emits_one_relation(lattice, lattice_closure):
    zp = lattice_closure
    assert zp.status == "complete" and zp.partial_reason is None
    assert zp.generators == ("a", "ea", "em")
    assert [r.render(zp.generators) for r in zp.extra_relations] == [
        "-20*x_ea + 10*x_a*x_ea"]
    assert zp.extra_relations == OLD_LATTICE_RELATIONS[:1]
    assert zp.provenance == [
        {"seed": "defect(1, 1, 1, 0, 2)", "chain": [],
         "membership": "nonzero"}]
    # Every relation the free-ideal test admitted besides it lies in the
    # ideal of the first modulo the commutators.
    assert zp.groebner.close(8)
    for rel in OLD_LATTICE_RELATIONS[1:]:
        assert zp.groebner.reduce(rel).is_zero()
    # The matrices of the one relation satisfy all five.
    model = quotient_basis(zp)
    assert model.dimension == 7
    old = dataclasses.replace(zp, extra_relations=OLD_LATTICE_RELATIONS,
                              provenance=[], groebner=None)
    assert check_matrix_model(old, model.matrices) == (True, [])


def test_closure_respects_mode_depth_bound(lattice, lattice_table,
                                           lattice_defects):
    zp = relation_closure(defect_seeds(lattice_defects), lattice,
                          lattice_table, ClosureBounds(max_mode_depth=0),
                          lattice_defects)
    assert zp.status == "partial"
    assert "max_mode_depth" in zp.partial_reason


def test_closure_respects_generator_budget(families):
    # sl2 k=2 admits more than four states: a budget of 4 trips, and what
    # was emitted before it tripped is what the unbounded run emits first.
    p = parse_presentation(families.sl2_member(2).doc)
    table = complete_table(p)
    defects = c1_singular_elements(p, table)
    seeds = list(p.singular_vectors) + defect_seeds(defects)

    def closed(budget):
        bounds = ClosureBounds(max_new_generators=budget)
        return relation_closure(seeds, p, table, bounds, defects)

    full = closed(ClosureBounds.max_new_generators)
    cut, enough = closed(4), closed(8)
    assert full.status == enough.status == "complete"
    assert cut.status == "partial"
    assert cut.partial_reason == "max_new_generators 4 exceeded"
    k = len(cut.extra_relations)
    assert cut.extra_relations == full.extra_relations[:k]
    assert cut.provenance == full.provenance[:k]
    assert enough.extra_relations == full.extra_relations


# member -> (`generated_span` builds in `reduction`, in `zhu`): a span is
# rebuilt only when its state list grew or a larger weight is asked for.
SPAN_BUILDS = {
    "lattice-N2": (("lattice_member", (2,)), 2, 2),
    "lattice-N3": (("lattice_member", (3,)), 8, 5),
    # M(4,7) built one span (0, 1) for L_{-1} and L_0 on its null vector,
    # which the closure now skips: L_{-1} = D and L_0 is the weight.
    "M(4,7)": (("virasoro_member", (4, 7)), 0, 0),
    "sl2-k2": (("sl2_member", (2,)), 0, 7),
}


@pytest.mark.parametrize("label", sorted(SPAN_BUILDS))
def test_span_rebuild_counts(families, monkeypatch, label):
    (maker, size), want_reduction, want_zhu = SPAN_BUILDS[label]
    p = parse_presentation(getattr(families, maker)(*size).doc)
    table = complete_table(p)
    builds = {"reduction": 0, "zhu": 0}
    for module in (reduction, zhu):
        def counted(*args, _name=module.__name__.split(".")[-1],
                    _span=module.generated_span, **kwargs):
            builds[_name] += 1
            return _span(*args, **kwargs)

        monkeypatch.setattr(module, "generated_span", counted)
    defects = c1_singular_elements(p, table)
    seeds = list(p.singular_vectors) + defect_seeds(defects)
    zp = relation_closure(seeds, p, table, None, defects)
    assert zp.status == "complete"
    assert (builds["reduction"], builds["zhu"]) == (want_reduction, want_zhu)


def test_closure_with_no_seeds_is_trivial(virasoro, virasoro_table):
    zp = relation_closure([], virasoro, virasoro_table)
    assert zp.status == "complete"
    assert zp.extra_relations == [] and zp.provenance == []
    assert zp.commutator_relations == []


def closure_cases(families):
    """(name, presentation) for the bracket-rule cross-check; sl2 in every
    order of its generators."""
    for pq in ((2, 5), (3, 4), (4, 7)):
        yield "M(%d,%d)" % pq, parse_presentation(
            families.virasoro_member(*pq).doc)
    for level in (1, 2):
        for order in itertools.permutations(("e", "h", "f")):
            yield "sl2-k%d" % level, parse_presentation(
                families.sl2_member(level, order).doc)
    yield "w3", load_bundled("w3_c_minus2")
    yield "lattice", load_bundled("lattice_rank1_norm4")


# (candidates inferred to be zero, all candidates), per closure.  All
# candidates are the inferred, the computed and the ones skipped as D or
# L_0 (a conformal mode).  The lattice has Jacobi defects, so the closure
# infers and skips nothing there.
INFERRED_ZEROS = {"M(2,5)": (2, 6), "M(3,4)": (4, 8), "M(4,7)": (16, 20),
                  "sl2-k1": (17, 45), "sl2-k2": (44, 84), "w3": (35, 95),
                  "lattice": (0, 79)}


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_closure_infers_only_true_zeros(families, strategy, caplog,
                                        monkeypatch):
    # Each candidate mode the closure infers to kill a state from the
    # bracket of two modes that kill it must kill it under apply_mode too,
    # and so under the reference rewrite in `strategy` order.
    for name, p in closure_cases(families):
        table = complete_table(p)
        ref = RewriteReference(p, strategy)
        defects = c1_singular_elements(p, table)
        seeds = list(p.singular_vectors) + defect_seeds(defects)
        computed = []
        act_pair = table.act_pair

        def counted(op, state):
            # The closure's candidates are its only nonnegative modes.
            if op[1] >= 0:
                computed.append(op)
            return act_pair(op, state)

        monkeypatch.setattr(table, "act_pair", counted)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="zhuforge.zhu"):
            zp = relation_closure(seeds, p, table, None, defects)
        monkeypatch.undo()
        assert zp.status == "complete"
        inferred, skipped = ([r.args for r in caplog.records
                              if r.msg.startswith(msg)]
                             for msg in ("zero by a bracket",
                                         "in the span by a conformal mode"))
        assert (len(inferred), len(inferred) + len(computed) + len(skipped)) \
            == INFERRED_ZEROS[name], (name, p.symbols)
        conformal = _conformal_modes(table)
        for op, label, chain in inferred + skipped:
            state = table.normal_form(dict(seeds)[label])
            for mode in chain:
                state = table.apply_mode(mode, state)
            value = table.apply_mode(op, state)
            assert value == ref.normal_form(
                {(op,) + w: c for w, c in state.items()}, VACUUM), (name, op)
            if op not in conformal:
                assert state and value == {}, (name, p.symbols, op)
                continue
            lam = conformal[op]
            want = table.translate(state) if op[1] == 0 else state_scale(
                state, state_weight(state, p.weights))
            assert value == state_scale(want, lam), (name, p.symbols, op)


def rescaled(p, i, scale):
    """`p` with u^i rescaled by `scale`, as `families` rescales: a term of
    R(a, b, k) gains scale ** (#i among a, b less #i in its word), a term
    of a singular vector scale ** -(#i in its word)."""
    def value(state, power):
        return {w: c * Fraction(scale) ** (power - sum(l == i for l, _ in w))
                for w, c in state.items()}

    return dataclasses.replace(
        p, relations={(a, b, k): value(v, (a == i) + (b == i))
                      for (a, b, k), v in p.relations.items()},
        singular_vectors=[(name, value(v, 0))
                          for name, v in p.singular_vectors])


def conformal_cases(families):
    """(name, presentation, lambda) for the conformal-mode identities."""
    yield "virasoro", load_bundled("virasoro_c_minus2"), 1
    yield "w3", load_bundled("w3_c_minus2"), 1
    for pq, scale in (((4, 7), Fraction(-5, 4)), ((3, 5), Fraction(3))):
        yield "M(%d,%d)" % pq, parse_presentation(
            families.virasoro_member(*pq, scale=scale).doc), scale


def test_conformal_modes_are_found_from_the_table(families, lattice,
                                                  lattice_table,
                                                  lattice_defects):
    # u^i_0 = lambda D needs R(i, j, 0) = lambda u^j_{-2}|vac> for every j;
    # u^i_1 = lambda L_0 needs in addition R(i, j, 1) = lambda wt_j u^j.
    for name, p, lam in conformal_cases(families):
        for q, want in ((p, lam), (rescaled(p, 0, 3), 3 * lam)):
            assert _conformal_modes(complete_table(q)) == \
                {(0, 0): want, (0, 1): want}, name
    # R(w, v, 1) = 2 v instead of 3 v: w_0 is still D, w_1 no longer L_0.
    w3 = rescaled(load_bundled("w3_c_minus2"), 0, Fraction(-2, 7))
    edited = dataclasses.replace(w3, relations={
        **w3.relations, (0, 1, 1): {((1, -1),): Fraction(-4, 7)}})
    assert _conformal_modes(complete_table(edited)) == \
        {(0, 0): Fraction(-2, 7)}
    for order in itertools.permutations(("e", "h", "f")):
        p = parse_presentation(families.sl2_member(2, order).doc)
        assert _conformal_modes(complete_table(p)) == {}, order
    assert _conformal_modes(lattice_table) == {}
    run = zhu._Closure(lattice, lattice_table, ClosureBounds(),
                       lattice_defects)
    assert run.conformal == {}


@pytest.mark.parametrize("strategy", list(ReductionStrategy))
def test_conformal_modes_act_as_D_and_the_weight(families, strategy):
    # On every PBW word of weight <= 10 and on the null vectors:
    # u^i_0 x = lambda D x and u^i_1 x = lambda wt(x) x, in the engine and
    # in the reference rewrite in `strategy` order.
    def times(pair, c):
        ints, den = pair
        if not c:
            return {}, 1
        return normalized({w: v * c.numerator for w, v in ints.items()},
                          den * c.denominator)

    for name, p, lam in conformal_cases(families):
        table = complete_table(p)
        ref = RewriteReference(p, strategy)
        assert _conformal_modes(table) == {(0, 0): lam, (0, 1): lam}, name
        lam = Fraction(lam)
        states = [({w: 1}, 1) for weight in range(11)
                  for w in pbw_words(p.weights, weight)]
        states += [table.normal_pair(integral(v))
                   for _, v in p.singular_vectors]
        for x in states:
            wt = state_weight(x[0], p.weights)
            assert table.act_pair((0, 0), x) == \
                times(table.translate_pair(x), lam), (name, x)
            assert table.act_pair((0, 1), x) == times(x, lam * wt), (name, x)
            s = {w: Fraction(c, x[1]) for w, c in x[0].items()}
            u0, u1 = (ref.normal_form({((0, n),) + w: c
                                       for w, c in s.items()}, VACUUM)
                      for n in (0, 1))
            assert u0 == state_scale(ref.normal_form(apply_D(s), VACUUM),
                                     lam), (name, x)
            assert u1 == state_scale(s, lam * wt), (name, x)


def test_bracket_modes_sum_exactly_over_k(families):
    # The closure reads each bracket off the int pairs of the table; the
    # reference reads it off the Fraction expansion `commutator`.  On W3
    # terms of different k cancel, where the union of the modes of each k
    # would keep a mode the bracket does not have.
    cancelled = set()
    for name, p in closure_cases(families):
        table = complete_table(p)
        ops = [(i, n) for i in range(len(p.weights)) for n in range(8)]
        for a, b in itertools.combinations(ops, 2):
            acc, union = {}, set()
            for c, word, t in commutator(a, b, table).terms:
                head, hc = short_iterate(word, t) if len(word) < 2 \
                    else ((), 1)
                if hc and not head:
                    acc, union = {}, set()
                    break
                if hc:
                    state_iadd(acc, {head[0]: c}, hc)
                    union.add(head[0])
            assert _bracket_modes(table, a, b) == frozenset(acc), \
                (name, a, b)
            if set(acc) != union:
                cancelled.add((name, a, b))
    assert {name for name, _, _ in cancelled} == {"w3"}
