import copy
import enum
import functools
import importlib.util
import math
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from zhuforge import (
    c1_singular_elements,
    complete_table,
    load_bundled,
    quotient_basis,
    relation_closure,
)
from zhuforge.engine import apply_D, pbw_words, reducible_pair
from zhuforge.linalg import integral
from zhuforge.quotient import matrix_columns, poly_matrix
from zhuforge.terms import (VACUUM, binom, is_zero_word, neg_one_pow,
                            op_weight, state_iadd, word_weight)
from zhuforge.zhu import circ, star, zhu_image

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name, filename):
    """Import perfbench/`filename` by path as the module `name`."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules while the body runs.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def families():
    """The benchmark's closed-form family generators."""
    return load_perfbench("perfbench_families", "families.py")


@pytest.fixture(scope="session")
def virasoro():
    return load_bundled("virasoro_c_minus2")


@pytest.fixture(scope="session")
def virasoro_table(virasoro):
    return complete_table(virasoro)


@pytest.fixture(scope="session")
def w3():
    return load_bundled("w3_c_minus2")


@pytest.fixture(scope="session")
def w3_table(w3):
    return complete_table(w3)


@pytest.fixture(scope="session")
def lattice():
    return load_bundled("lattice_rank1_norm4")


@pytest.fixture(scope="session")
def lattice_table(lattice):
    return complete_table(lattice)


@pytest.fixture(scope="session")
def lattice_defects(lattice, lattice_table):
    return c1_singular_elements(lattice, lattice_table)


def defect_seeds(defects):
    return [("defect%s" % (d.indices,), d.value) for d in defects]


@pytest.fixture(scope="session")
def w3_closure(w3, w3_table):
    return relation_closure(list(w3.singular_vectors), w3, w3_table)


@pytest.fixture(scope="session")
def lattice_closure(lattice, lattice_table, lattice_defects):
    return relation_closure(defect_seeds(lattice_defects), lattice,
                            lattice_table, None, lattice_defects)


def jacobi_violating(algebra):
    """A copy of a three-generator algebra with the brackets [x0,x1] = x0,
    [x1,x2] = x1 and [x0,x2] = 0, which violate Jacobi: x2 x1 x0
    straightens to results that differ by x0 depending on which pair is
    swapped first."""
    bad = copy.copy(algebra)
    bad.brackets = {(0, 1): ({(0,): 1}, 1), (1, 2): ({(1,): 1}, 1),
                    (0, 2): ({}, 1)}
    bad._memo = {}
    return bad


@functools.lru_cache(maxsize=None)
def splice_reference(weights, vword, t, tail, convention):
    """(vword)_t tail by the iterate formula in Fractions: the raw
    (unnormalized) expansion.  Memoized, so callers must not mutate the
    result.

        (u_n v')_t = sum_{r >= 0} C(n, r) [ (-1)^r    u_{n-r} (v'_{t+r} tail)
                                          - (-1)^{n+r} v'_{n+t-r} (u_r tail) ]
    """
    tail_w = word_weight(tail, weights)
    if word_weight(vword, weights) - t - 1 + tail_w < 0:
        return {}
    if not vword:
        if t == -1 and not is_zero_word(tail, weights, convention):
            return {tail: Fraction(1)}
        return {}
    (i, n), rest = vword[0], vword[1:]
    out = {}
    for r in range(word_weight(rest, weights) + tail_w - t):
        sign = Fraction(-1) ** r
        for w, cw in splice_reference(weights, rest, t + r, tail,
                                      convention).items():
            nw = ((i, n - r),) + w
            if not is_zero_word(nw, weights, convention):
                state_iadd(out, {nw: sign * binom(n, r) * cw})
    for r in range(weights[i] + tail_w):
        ntail = ((i, r),) + tail
        if not is_zero_word(ntail, weights, convention):
            state_iadd(out, splice_reference(weights, rest, n + t - r, ntail,
                                             convention),
                       -Fraction(-1) ** (n + r) * binom(n, r))
    return out


class ReductionStrategy(enum.Enum):
    """The two rewrite orders of `RewriteReference`.  The engine has one,
    LeftmostFirst; RightmostFirst is the other order it is checked
    against."""
    LeftmostFirst = "leftmost"
    RightmostFirst = "rightmost"


class RewriteReference:
    """Table completion and word reduction in Fractions, with no engine:
    every correction term is expanded into raw words by `splice_reference`
    and each raw word is reduced.

    It rewrites the leftmost reducible pair first, as the engine does, or
    under RightmostFirst the rightmost one: where the rewriting is
    confluent the two orders give the same normal forms.  Table entries
    and reduced words are memoized; `reduce` returns a copy, which the
    caller may mutate.
    """

    def __init__(self, p, strategy=ReductionStrategy.LeftmostFirst):
        self.weights = p.weights
        self.relations = p.relations
        self.strategy = strategy
        self.stored_pairs = {(i, j) for (i, j, _) in p.relations}
        self.table = {}
        self.reduced = {}

    def is_stored(self, i, j, k):
        """The stored half of the table: odd modes on the diagonal, else
        the orientation the presentation stores, else i < j."""
        if i == j:
            return k % 2 == 1
        if (i, j) in self.stored_pairs:
            return True
        return (j, i) not in self.stored_pairs and i < j

    def get(self, i, j, k):
        weights = self.weights
        if k < 0 or weights[i] + weights[j] - k - 1 < 0:
            return {}
        key = (i, j, k)
        if key in self.table:
            return self.table[key]
        if self.is_stored(i, j, k):
            value = dict(self.relations.get(key, {}))
        else:
            # 2 u_k u = sum_{t>=1} (-1)^{k+t+1} D^(t)(u_{k+t} u) on the
            # diagonal, skew symmetry from the stored orientation elsewhere
            acc = {}
            first, half = (1, Fraction(1, 2)) if i == j else (0, Fraction(1))
            for t in range(first, weights[i] + weights[j] - k):
                d = self.get(j, i, k + t)
                for _ in range(t):
                    d = apply_D(d)
                state_iadd(acc, d, half * neg_one_pow(k + t + 1)
                           / math.factorial(t))
            value = self.normal_form(acc, VACUUM)
        self.table[key] = value
        return value

    def reduce(self, word, convention):
        key = (word, convention)
        if key not in self.reduced:
            self.reduced[key] = self._reduce(word, convention)
        return dict(self.reduced[key])

    def _reduce(self, word, convention):
        weights = self.weights
        if is_zero_word(word, weights, convention):
            return {}
        pairs = range(len(word) - 1)
        if self.strategy is ReductionStrategy.RightmostFirst:
            pairs = reversed(pairs)
        p = next((q for q in pairs
                  if reducible_pair(word[q], word[q + 1], weights)), None)
        if p is None:
            return {word: Fraction(1)}
        (i, m), (j, n) = word[p], word[p + 1]
        prefix, suffix = word[:p], word[p + 2:]
        out = self.reduce(prefix + ((j, n), (i, m)) + suffix, convention)
        for k in range(weights[i] + weights[j]):
            for vw, vc in self.get(i, j, k).items():
                for rw, rc in splice_reference(weights, vw, m + n - k, suffix,
                                               convention).items():
                    state_iadd(out, self.reduce(prefix + rw, convention),
                               vc * binom(m, k) * rc)
        return out

    def normal_form(self, s, convention):
        out = {}
        for word, c in s.items():
            state_iadd(out, self.reduce(word, convention), c)
        return out


_references = weakref.WeakKeyDictionary()


def raw_mode(eng, vword, t, tail, convention,
             strategy=ReductionStrategy.LeftmostFirst):
    """(vword)_t tail by normal-forming every word of its raw expansion
    with the `RewriteReference` of the engine's presentation, in the
    rewrite order `strategy`: the reference for `Engine.top_image`,
    sharing no code with the engine."""
    refs = _references.setdefault(eng, {})
    ref = refs.get(strategy)
    if ref is None:
        ref = refs[strategy] = RewriteReference(eng.presentation, strategy)
    out = {}
    for rw, rc in splice_reference(eng.weights, vword, t, tail,
                                   convention).items():
        state_iadd(out, ref.reduce(rw, convention), rc)
    return out


def state_scale(s, factor):
    """factor * s for a Fraction state s."""
    return {w: factor * c for w, c in s.items()} if factor else {}


def state_sub(a, b):
    """a - b for Fraction states, with no zero entries."""
    return state_iadd(dict(a), b, -1)


def random_word(p, rng, max_len=4):
    ng = len(p.weights)
    length = rng.randint(0, max_len)
    return tuple((rng.randrange(ng), rng.randint(-5, 3))
                 for _ in range(length))


def random_state(p, rng, terms=2):
    out = {}
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            word = random_word(p, rng)
            out[word] = out.get(word, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def random_homogeneous_state(p, rng, max_weight=6, terms=2):
    words = []
    while not words:
        w = rng.randint(1, max_weight)
        words = pbw_words(p.weights, w)
    out = {}
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            word = rng.choice(words)
            out[word] = out.get(word, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


@pytest.fixture(scope="session")
def invariant_report(virasoro, virasoro_table, w3, w3_table, lattice,
                     lattice_table, w3_closure, lattice_closure):
    """One shared run of the randomized invariant suites.

    Each entry counts violations, so every reported number must be zero
    (except the `*_checked` totals, which record coverage).  The lattice
    image identities are checked modulo the emitted relations by
    evaluating in the faithful 7-dimensional quotient representation;
    the confluent presentations are checked exactly after straightening.
    """
    report = {}
    cases = [("virasoro", virasoro, virasoro_table),
             ("w3", w3, w3_table),
             ("lattice", lattice, lattice_table)]

    for name, p, table in cases:
        # The engine against the other rewrite order of the reference,
        # where the rewriting is confluent.
        rightmost = RewriteReference(p, ReductionStrategy.RightmostFirst)
        rng = random.Random("idempotence-" + name)
        idem = 0
        disagree = 0
        for _ in range(1000):
            s = random_state(p, rng)
            nf = table.normal_form(s)
            if table.normal_form(nf) != nf:
                idem += 1
            if name in ("virasoro", "w3"):
                if rightmost.normal_form(s, VACUUM) != nf:
                    disagree += 1
        report[name + "_nf_idempotence_failures"] = idem
        report[name + "_nf_checked"] = 1000
        if name in ("virasoro", "w3"):
            report[name + "_strategy_disagreements"] = disagree

        rng = random.Random("weights-" + name)
        wviol = 0
        for _ in range(300):
            word = random_word(p, rng)
            op = (rng.randrange(len(p.weights)), rng.randint(-4, 4))
            got = table.apply_mode(op, {word: Fraction(1)})
            want = word_weight(word, p.weights) + op_weight(op, p.weights)
            if any(word_weight(rw, p.weights) != want for rw in got):
                wviol += 1
        report[name + "_weight_violations"] = wviol

    # Image identities: o(u * v) = o(u) o(v) and o(u o v) = 0 modulo the
    # emitted relations.
    closures = {"virasoro": None, "w3": w3_closure, "lattice": lattice_closure}
    model = quotient_basis(lattice_closure, degree_bound=10)
    lat_mats = [matrix_columns(model.matrices[s])
                for s in lattice_closure.generators]

    for name, p, table in cases:
        zp = closures[name]
        if name == "lattice":
            def is_zero_mod_relations(poly):
                columns, _ = poly_matrix(poly, lat_mats, model.dimension)
                return not any(columns)
        elif zp is not None:
            def is_zero_mod_relations(poly, _alg=zp.algebra):
                return not _alg.canonical(integral(poly.coeffs)[0])[0]
        else:
            def is_zero_mod_relations(poly):
                return poly.is_zero()
        rng = random.Random("images-" + name)
        star_bad = circ_bad = raw_nonzero = 0
        for _ in range(200):
            u = random_homogeneous_state(p, rng)
            v = random_homogeneous_state(p, rng)
            if not u or not v:
                continue
            d_star = (zhu_image(star(u, v, table), table)
                      - zhu_image(u, table) * zhu_image(v, table))
            d_circ = zhu_image(circ(u, v, table), table)
            if d_star or d_circ:
                raw_nonzero += 1
            if not is_zero_mod_relations(d_star):
                star_bad += 1
            if not is_zero_mod_relations(d_circ):
                circ_bad += 1
        report[name + "_star_homomorphism_failures"] = star_bad
        report[name + "_circ_annihilation_failures"] = circ_bad
        report[name + "_image_pairs_checked"] = 200
        report[name + "_raw_nonzero_diffs"] = raw_nonzero
    return report
