"""Top-level algebra of a presentation: products, images, and relations.

For a state a of weight h, o(a) = a_{h-1} is the unique mode that maps the
weight-0 subspace of any graded module to itself.  The images o(u^i) of the
generators generate an associative algebra; this module computes that
algebra as a presentation: polynomial generators x_i = o(u^i), the bracket
relations

    [x_i, x_j] = sum_{k >= 0} C(wt u^i - 1, k) o(R(i, j, k)),

the commutator of the modes o(u^i) and o(u^j) that `Engine.bracket`
expands, and the extra relations obtained by closing a set of seed states
(singular vectors, Jacobi defects) under nonnegative modes and projecting
with o.

`zhu_image` computes o(s) by default as `Engine.top_image`, the normal
form of (s)_{wt s - 1} on the top-level vector: the iterate formula, each
step normal-formed by the left action that `apply_mode` uses, read in the
top-level convention, where a word dies as soon as a right suffix would
produce negative weight.  The surviving irreducible words consist of
zero-weight modes only and are read off as monomials.  On a presentation
whose rewriting is not confluent, this order of normal-forming may pick a
representative other than the normal form of the raw expansion (a
reference that only the tests compute); the two differ by an element of
the defect ideal, which lies in the ideal of the relations that
`relation_closure` emits.  The closure on a presentation with no Jacobi
defects reads its images by Zhu's recursion in closed form instead,
`Engine.zhu_pair`, whose identities hold modulo O(V) and so give the same
polynomials there.

`relation_closure` runs one private closure object over the states
u^{i_1}_{n_1} ... u^{i_r}_{n_r} a, all n >= 0.  It drops the ones already
in the span of the admitted states (a `va_calculus.SpanCache`, as in the
defect search) and admits the rest, seeds too, by one path that checks the
budget and keeps the image unless one `GroebnerBasis`, grown with every
relation, straightens it to zero.  On a presentation without Jacobi
defects it skips the modes that brackets of modes already found to kill a
state show to kill it too, the modes that act as lambda D and lambda L_0,
whose values lie in the span, and the zero modes u_0 of the weight-one
generators that map generators to generators, since o(u_0 x) =
[x_u, o(x)] lies in the ideal that o(x) generates.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Engine
from .linalg import (as_pair, eliminate, fractional, iadd, integral,
                     normalized, primitive)
from .terms import (
    op_weight,
    render_monomial,
    render_sum,
    state_iadd,
    state_weight,
    word_weight,
)
from .reduction import c1_singular_elements
from .va_calculus import SpanCache, generated_span

log = logging.getLogger("zhuforge.zhu")


def mono_key(mono):
    """Graded-lexicographic sort key for monomials (tuples of indices)."""
    return (len(mono), mono)


class NCPoly:
    """A polynomial in noncommuting generators x_0, ..., x_{l-1}.

    Coefficients are exact rationals (int or Fraction), monomials are
    tuples of generator indices, the empty tuple is the unit.  Instances
    behave as values: arithmetic returns new objects and never mutates.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        for mono, c in items:
            state_iadd(self.coeffs, {tuple(mono): Fraction(c)})

    @classmethod
    def term(cls, mono, coeff=1) -> "NCPoly":
        return cls([(mono, coeff)])

    @classmethod
    def _wrap(cls, coeffs: dict) -> "NCPoly":
        """An NCPoly over `coeffs`, which holds no zero coefficients."""
        out = cls()
        out.coeffs = coeffs
        return out

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other) -> "NCPoly":
        return NCPoly._wrap(state_iadd(dict(self.coeffs), other.coeffs))

    def __neg__(self) -> "NCPoly":
        return NCPoly._wrap({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "NCPoly":
        return self + (-other)

    def scale(self, factor) -> "NCPoly":
        factor = Fraction(factor)
        return NCPoly._wrap({m: c * factor for m, c in self.coeffs.items()}
                            if factor else {})

    def __mul__(self, other) -> "NCPoly":
        acc: dict = {}
        for m1, c1 in self.coeffs.items():
            state_iadd(acc, {m1 + m2: c2 for m2, c2 in other.coeffs.items()},
                       c1)
        return NCPoly._wrap(acc)

    def render(self, symbols) -> str:
        """Human-readable form, e.g. ``3/2*x_v^2 - 8/9*x_w^3``."""
        return render_sum([
            (self.coeffs[m], render_monomial([symbols[i] for i in m]))
            for m in sorted(self.coeffs, key=mono_key)])


# ----------------------------------------------------------------------
# products and images

def _monomials(pair):
    """A pair on top-level words as a pair on monomials: a top-level word
    has zero-weight modes only, so its letters name it."""
    ints, den = pair
    return {tuple(i for (i, _m) in w): c for w, c in ints.items()}, den


def zhu_image(s, table: Engine, closed_form: bool = False) -> NCPoly:
    """o(s): the weight-preserving mode of s as a polynomial in the x_i,
    with Fraction coefficients.  The state s is a dict or an engine pair
    (ints, den) on PBW words.  Each word goes through `Engine.top_image`,
    or, with `closed_form`, through Zhu's recursion in closed form,
    `Engine.zhu_pair`, which reads o(u^j_0 w) and o(u^j_1 w) off the weight
    of w for the modes of `Engine.conformal_modes` and holds only where the
    presentation has no Jacobi defects."""
    ints, den = as_pair(s)
    acc, aden = {}, 1
    for word, c in ints.items():
        pair = table.zhu_pair(word) if closed_form else \
            table.top_image(word, word_weight(word, table.weights) - 1)
        aden = iadd(acc, aden, *_monomials(pair), c)
    return NCPoly._wrap(fractional(acc, aden * den))


class ZhuAlgebra:
    """Straightening arithmetic for the algebra generated by the x_i.

    The bracket of two generators is `Engine.bracket` of their modes
    o(u^i) = u^i_{wt u^i - 1}, each term read by `Engine.top_image`; a
    monomial is canonical when its indices are weakly increasing, and
    `canonical` rewrites x_a x_b (a > b) to x_b x_a - [x_b, x_a].  The
    corrections carry formal length < wt u^a + wt u^b, so (formal length,
    inversions) drops lexicographically and the rewriting terminates even
    though corrections may be longer words.

    Straightening is fraction-free, as in the engine: each bracket
    `brackets[(i, j)]`, i < j, and every memoized word is a pair (ints, den)
    of int coefficients over one denominator, reduced by their gcd, and
    `canonical` takes int coefficients and gives such a pair.  A bracket
    replaced after construction takes effect once `_memo` is emptied.

    `linear` holds the x_i whose bracket with every generator is a
    combination of generators and 1 (all of sl_n, x_a of a lattice);
    `right_product` and `_swap` straighten x^pre [x_b, x_a] x^post by one
    loop, `_sandwich`.
    """

    def __init__(self, presentation, table: Engine):
        self.presentation = presentation
        self.table = table
        self.weights = presentation.weights
        ng = len(self.weights)
        self.brackets: dict = {}
        for i in range(ng):
            for j in range(i + 1, ng):
                terms, tden = table.bracket((i, self.weights[i] - 1),
                                            (j, self.weights[j] - 1))
                acc, den = {}, 1
                for (rword, t), c in terms.items():
                    pair = _monomials(table.top_image(rword, t))
                    den = iadd(acc, den, *pair, c)
                self.brackets[(i, j)] = normalized(acc, den * tden)
        self.linear = {i for i in range(ng) if all(
            len(m) <= 1 for ij, (bints, _) in self.brackets.items()
            if i in ij for m in bints)}
        self._memo: dict = {}

    def grade(self, mono: tuple) -> int:
        """The sum of the weights of the letters of `mono`."""
        return sum(self.weights[i] for i in mono)

    def _word(self, mono: tuple):
        """The straightened x^mono as a normalized pair (ints, den)."""
        hit = self._memo.get(mono)
        if hit is None:
            p = next((q for q in range(len(mono) - 1)
                      if mono[q] > mono[q + 1]), None)
            hit = ({mono: 1}, 1) if p is None else self._swap(mono, p)
            self._memo[mono] = hit
        return hit

    def _swap(self, mono: tuple, p: int):
        """x^mono straightened by first swapping the descent at p, p + 1."""
        a, b = mono[p], mono[p + 1]
        prefix, suffix = mono[:p], mono[p + 2:]
        # x^mono = x^prefix x_b x_a x^suffix - x^prefix [x_b, x_a] x^suffix
        acc, den = self._word(prefix + (b, a) + suffix)
        acc = dict(acc)
        return normalized(acc, self._sandwich(acc, den, prefix, b, a, suffix,
                                              -1))

    def _sandwich(self, acc: dict, den: int, prefix: tuple, a: int, b: int,
                  suffix: tuple, factor: int) -> int:
        """acc / den += factor x^prefix [x_a, x_b] x^suffix, straightened,
        in place; returns the new denominator."""
        if a > b:
            a, b, factor = b, a, -factor
        bints, bden = self.brackets.get((a, b), ({}, 1))
        for m2, c2 in bints.items():
            ints, wden = self._word(prefix + m2 + suffix)
            den = iadd(acc, den, ints, wden * bden, factor * c2)
        return den

    def right_product(self, g: dict, i: int) -> dict:
        """The int coefficients, up to a positive scale, of g x_i, g a sum
        of int multiples of canonical monomials; for x_i in `linear`, of
        [g, x_i] = g x_i - x_i g instead, by the derivation rule: the sum
        of x^pre [x_a, x_i] x^post over the letters x_a of each monomial."""
        if i not in self.linear:
            return self.canonical({m + (i,): c for m, c in g.items()})[0]
        acc, den = {}, 1
        for m, c in g.items():
            for p, a in enumerate(m):
                den = self._sandwich(acc, den, m[:p], a, i, m[p + 1:], c)
        return acc

    def overlap_failures(self) -> list:
        """The words where straightening is not a PBW rewriting: (j, i)
        when [x_i, x_j] has a monomial of grade >= w_i + w_j; else each
        (c, b, a), c > b > a, whose straightening depends on which pair is
        swapped first (equal neighbours leave a single descent)."""
        w = self.weights
        out = [(j, i) for (i, j), (bints, _) in self.brackets.items()
               if any(self.grade(m) >= w[i] + w[j] for m in bints)]
        if out:
            return out
        return [word for word in itertools.combinations(
                    range(len(w) - 1, -1, -1), 3)
                if self._swap(word, 0) != self._swap(word, 1)]

    def canonical(self, ints: dict):
        """The straightened sum of int multiples of monomials `ints`, as the
        normalized pair (ints, den)."""
        acc, den = {}, 1
        for mono, c in ints.items():
            den = iadd(acc, den, *self._word(mono), c)
        return normalized(acc, den)


def zhu_commutators(p, table: Engine, algebra: ZhuAlgebra = None) -> list:
    """The relations x_i x_j - x_j x_i - [x_i, x_j], one per pair i < j."""
    algebra = algebra or ZhuAlgebra(p, table)
    return [NCPoly._wrap(state_iadd({ij: Fraction(1), ij[::-1]: Fraction(-1)},
                                    fractional(*bracket), -1))
            for ij, bracket in algebra.brackets.items()]


# ----------------------------------------------------------------------
# two-sided ideals of the straightened algebra

# An exponent vector holds the exponent of x_i in the FIELD bits from
# FIELD * i, whose top bit is a guard that stays clear: (b | guards) - a
# keeps a guard set exactly where the exponent of b is at least a's.
FIELD = 16
LIMIT = 1 << FIELD - 1


def pack(mono: tuple) -> int:
    """The exponent vector of `mono`; ValueError when `mono` is too long
    for a field, which it never wraps."""
    if len(mono) >= LIMIT:
        raise ValueError("monomial too long for an exponent field")
    return sum(1 << FIELD * i for i in mono)


def unpack(vec: int) -> tuple:
    """The ascending monomial of the exponent vector `vec`."""
    return tuple(i for i in range(vec.bit_length() // FIELD + 1)
                 for _ in range(vec >> FIELD * i & LIMIT - 1))


def divides(a: int, b: int, g: int) -> bool:
    """Whether x^a divides x^b, for the guard bits g of their fields."""
    return (b | g) - a & g == g


def lcm_vector(a: int, b: int, g: int) -> int:
    """The exponent vector of the lcm of x^a and x^b: the fieldwise
    maximum, selected by the guards that (a | g) - b keeps."""
    h = (a | g) - b & g
    low = h - (h >> FIELD - 1)
    return a & low | b & ~low


class GroebnerBasis:
    """Two-sided Groebner basis of the ideal of `relations` in `algebra`.

    Buchberger's algorithm for left ideals in an algebra of solvable type
    (Kandri-Rody & Weispfenning 1990), closed under right multiplication
    by the generators (Levandovskyy 2005).  Monomials are ascending index
    tuples ordered by `key`: (grade, length, tuple).  The order is
    multiplicative and brackets lower the grade, so x^d * f leads with
    sorted(d + lead f) and the same coefficient.  `elements` are primitive
    int polynomials (dicts monomial -> int) with a positive coefficient at
    their leading monomials `leads`.  NCPolys appear only at the boundary:
    `add` takes a relation as `zhu_image` gives it; `normal_form`, the
    membership test, takes and gives int coefficients, as the quotient's
    matrices read them.  Everything inside is fraction-free:
    `algebra.canonical` straightens int coefficients, and reduction
    eliminates by cross-multiplication, as `SpanBuilder` does.

    Leads multiply as in the commutative polynomial ring, so each lead
    also has its exponent vector (`pack`, after Bachmann & Schoenemann
    1998): whether a lead divides a monomial (`_divisor`, the chain
    criterion, the drop below) is one subtraction and one AND against the
    guard bits, the lcm is the fieldwise maximum (`lcm_vector`), and the
    quotient x^delta is the unpacked difference.  A monomial too long for
    a field raises ValueError.

    The basis grows on demand: `add` queues a relation and `close(bound)`
    runs Buchberger's loop over everything queued, the pending polynomial
    with the least lead first (the normal strategy).  It stops at the
    first element of grade above `bound` and leaves it pending, so a later
    `close` with a larger bound resumes there.  `complete` records whether
    the last `close` finished with no `add` queued since; if not, `reduce`
    is no normal form.

    When g_k joins, each older g_j gives the S-pair (j, k), whose products
    lead with the lcm m_j of the two leads.  `close` skips the pair, and
    builds neither product, when another new pair's lcm m_i divides m_j
    properly (criterion M of Gebauer & Moeller 1988) or equals it with
    i < j (criterion F).  Both are the chain criterion: the lead of g_i
    divides m_j, so S(j, k) is a combination of S(i, k) and S(i, j) with
    leads below m_j, which holds in algebras of solvable type
    (Levandovskyy 2005).  The product criterion (coprime leads) does not:
    x^a g and g' x^b differ by brackets.  Criterion B, dropping pending
    pairs whose lcm the new lead divides, saved few reductions for no time
    and is not used.

    A left ideal L is two-sided once g x_i lies in L for every generator
    x_i and every g of a set that generates L as a left ideal
    (Kandri-Rody & Weispfenning 1990; Levandovskyy 2005).  `close` queues
    the right products of an element from the generating set only: a
    relation queued by `add`, or a right product.  It queues
    `algebra.right_product`: for x_i in `ZhuAlgebra.linear` the bracket
    [g, x_i], no longer than g, which differs from g x_i by the left
    multiple x_i g, so the left ideal and the test are the same.  An
    S-pair result is x^a g_j - c x^b g_k less left multiples of basis
    elements, a left combination of elements that joined before it, so
    its right products are left combinations of theirs, which lie in L by
    induction on the order of joining; an element that the drop below
    removes had its right products queued when it joined.  Each pending
    polynomial keeps this flag, also when it goes back at the grade bound.

    Raises ValueError, naming the word, when straightening in `algebra` is
    not a PBW rewriting (`ZhuAlgebra.overlap_failures`).
    """

    def __init__(self, algebra: ZhuAlgebra, relations, bound: int):
        for word in algebra.overlap_failures():
            symbols = algebra.presentation.symbols
            raise ValueError("straightening is not a PBW rewriting at %s"
                             % render_monomial([symbols[i] for i in word]))
        self.algebra = algebra
        # mono -> (grade, length, mono), each computed once.
        self.key = functools.lru_cache(maxsize=None)(
            lambda mono: (algebra.grade(mono), len(mono), mono))
        self.elements: list = []
        self.leads: list = []
        # The exponent vectors of `leads`, and the guard bit of each field.
        self._vectors: list = []
        self._guards = pack(range(len(algebra.weights))) << FIELD - 1
        # mono -> `_divisor(mono)`, emptied where `close` changes `leads`.
        self._divisors: dict = {}
        # Per element, delta -> the int coefficients of x^delta * element.
        self._products: list = []
        self._pending: list = []
        self._tie = itertools.count()
        for r in relations:
            self.add(r)
        self.close(bound)

    def _times(self, delta: tuple, k: int) -> dict:
        """x^delta * elements[k] up to a positive scale, as int
        coefficients; it leads with sorted(delta + leads[k])."""
        memo = self._products[k]
        hit = memo.get(delta)
        if hit is None:
            hit = memo[delta] = self.algebra.canonical(
                {delta + m: c for m, c in self.elements[k].items()})[0]
        return hit

    def _divisor(self, mono: tuple):
        """(delta, k) with x^delta * leads[k] = mono for the first such k,
        or None; memoized until `leads` changes."""
        memo = self._divisors
        if mono not in memo:
            g, mg = self._guards, pack(mono) | self._guards
            # divides(v, mono) and the quotient mono - v, inline.
            memo[mono] = next(((unpack(mg - v ^ g), k)
                               for k, v in enumerate(self._vectors)
                               if mg - v & g == g), None)
        return memo[mono]

    def _normal(self, f: dict, den: int = 1):
        """Reduce the straightened f / den (f consumed, int coefficients)
        to standard monomials: the pair (ints, den) of the normal form."""
        out: dict = {}
        while f:
            m = max(f, key=self.key)
            hit = self._divisor(m)
            if hit is None:
                out[m] = f.pop(m)
                continue
            a = eliminate(f, self._times(*hit), m)
            if a != 1:
                den *= a
                for mono in out:
                    out[mono] *= a
        return out, den

    def normal_form(self, ints: dict, den: int = 1):
        """The normal form of the sum of int multiples of monomials `ints`
        over `den`, straightened and reduced, as a pair (ints, den): zero
        iff the sum lies in the ideal.  Zero is exact even when the basis
        is not complete."""
        f, fden = self.algebra.canonical(ints)
        return self._normal(f, fden * den)

    def _push(self, coeffs: dict, generator: bool):
        if coeffs:
            self.complete = False
            heapq.heappush(self._pending, (max(map(self.key, coeffs)),
                                           next(self._tie), coeffs,
                                           generator))

    def add(self, poly: NCPoly) -> bool:
        """Queue the normal form of the relation `poly` for the next
        `close`; False, queueing nothing, when it is zero: `poly` lies in
        the ideal.  Zero is exact even when the basis is not complete."""
        f = self.normal_form(integral(poly.coeffs)[0])[0]
        self._push(f, True)
        return bool(f)

    def close(self, bound: int) -> bool:
        """Buchberger's loop up to grade `bound`; False if that tripped."""
        pending = self._pending
        while pending:
            key, tie, f, generator = heapq.heappop(pending)
            f = self._normal(f)[0]
            if not f:
                continue
            lead = max(f, key=self.key)
            if self.algebra.grade(lead) > bound:
                log.debug("basis element %s above the grade bound", lead)
                # Back in its place: a later close resumes in the same order.
                heapq.heappush(pending, (key, tie, f, generator))
                break
            k, g, lv = len(self.elements), self._guards, pack(lead)
            self.elements.append(primitive(f, lead))
            self.leads.append(lead)
            self._products.append({})
            lcms = [lcm_vector(lv, v, g) for v in self._vectors]
            self._vectors.append(lv)
            for j, m in enumerate(lcms):
                # The chain criterion, criteria M and F: divides(mi, m).
                mg = m | g
                if any(mg - mi & g == g and (mi != m or i < j)
                       for i, mi in enumerate(lcms)):
                    continue
                # Both products lead with m: scale each by the other's
                # coefficient there.
                s = dict(self._times(unpack(m - self._vectors[j]), j))
                eliminate(s, self._times(unpack(m - lv), k), unpack(m))
                self._push(s, False)
            # Only an element from the generating set needs its right
            # products; an S-pair's follow from those that joined before.
            if generator:
                for i in range(len(self.algebra.weights)):
                    self._push(self.algebra.right_product(
                        self.elements[k], i), True)
            # An element whose lead `lead` divides is x^d * g less its
            # S-pair with g, queued above: drop it (Gebauer & Moeller 1988),
            # so the leads stay the minimal generators of the lead ideal;
            # its products go with it.
            keep = [j for j, v in enumerate(self._vectors)
                    if j == k or not divides(lv, v, g)]
            for name in ("elements", "leads", "_vectors", "_products"):
                setattr(self, name, [getattr(self, name)[j] for j in keep])
            self._divisors.clear()
        self.complete = not pending
        return self.complete

    def standard_monomials(self):
        """The ascending monomials no lead divides, sorted by `mono_key`;
        None when there are infinitely many."""
        ngens = len(self.algebra.weights)
        pure = {lead[0] for lead in self.leads if lead and lead[0] == lead[-1]}
        if () not in self.leads and len(pure) < ngens:
            return None
        # Divisors of a standard monomial are standard: extend only those.
        out, frontier = [], [()]
        while frontier:
            m = frontier.pop()
            if self._divisor(m) is None:
                out.append(m)
                frontier += [m + (i,) for i in range(max(m, default=0), ngens)]
        return sorted(out, key=mono_key)


# ----------------------------------------------------------------------
# relation closure

@dataclass(frozen=True)
class ClosureBounds:
    """Search bounds for `relation_closure`: the grade up to which the
    membership test closes the basis (the default of the
    `--membership-bound` flag) and the number of states the closure admits
    past the seeds."""

    membership_degree_bound: int = 8
    max_new_generators: int = 64


@dataclass
class ZhuPresentation:
    """Presentation of the top-level algebra: generators and relations.

    `extra_relations[k]` came from the state described by `provenance[k]`
    (seed label, the chain of modes applied to it, and the membership
    verdict that admitted it).  `status` is "complete" when the worklist
    was exhausted, "partial" when a bound tripped (named in
    `partial_reason`).  `groebner` is the closure's `GroebnerBasis` of the
    extra relations, which `quotient.quotient_basis` resumes.
    """

    generators: tuple
    weights: tuple
    commutator_relations: list
    extra_relations: list
    provenance: list = field(default_factory=list)
    status: str = "complete"
    partial_reason: str = None
    algebra: ZhuAlgebra = None
    groebner: GroebnerBasis = None


def provenance_name(prov) -> str:
    """The name of the extra relation with provenance `prov`, e.g.
    ``o(v_s)`` or ``o(ea_0 v_s)`` for a mode chain applied to a seed."""
    chain = " ".join("%s_%d" % (s, n) for s, n in prov["chain"])
    return "o(%s)" % ("%s %s" % (chain, prov["seed"]) if chain
                      else prov["seed"])


def _bracket_modes(table: Engine, a, b):
    """The modes of [a, b] when `Engine.bracket` makes it a combination of
    single modes, the empty set when [a, b] = 0, else None (an identity
    term or a longer R-word).  The bracket is summed over k, so terms of
    different k cancel.  The closure memoizes it for one rule: for modes
    a, b that kill a state x, [a, b] = c op + (modes that kill x), c != 0,
    shows op x = 0."""
    terms, _ = table.bracket(a, b)
    if any(len(rword) != 1 for rword, _ in terms):
        return None
    return frozenset((rword[0][0], t) for rword, t in terms)


class _Closure:
    """One run of `relation_closure`: the admitted states (engine pairs, in
    the span cache), the worklist of (seed label, mode chain, state), the
    relations, their provenance and their `GroebnerBasis`, the modes the
    closure skips, and the reason a bound stopped the run, if one did."""

    def __init__(self, p, table: Engine, bounds: ClosureBounds, defects):
        self.p, self.table, self.bounds = p, table, bounds
        self.bracket_rule = not defects
        self.conformal = table.conformal_modes() if self.bracket_rule else {}
        # u_0 for the generators u of weight 1 that map each generator to a
        # combination of generators: o(u_0 x) = [o(u), o(x)].
        gens = range(len(table.weights))
        self.derivations = {(i, 0) for i in gens if self.bracket_rule
                            and table.weights[i] == 1 and all(
                                len(w) == 1 and w[0][1] == -1 for j in gens
                                for w in table.entry(i, j, 0)[0])}
        self.bracket_modes = functools.lru_cache(maxsize=None)(
            functools.partial(_bracket_modes, table))
        self.algebra = ZhuAlgebra(p, table)
        self.gb = GroebnerBasis(self.algebra, [],
                                bounds.membership_degree_bound)
        self.spans = SpanCache(generated_span, table)
        self.worklist: deque = deque()
        self.extras, self.provenance = [], []
        self.admitted, self.reason = 0, None

    def admit(self, label: str, chain: tuple, state) -> bool:
        """Admit the nonzero pair `state`, reached from seed `label` by the
        modes `chain`, and its image unless that lies in the ideal; False,
        with `reason` set, when the budget trips first (never on a seed)."""
        if chain:
            self.admitted += 1
            bound = self.bounds.max_new_generators
            if self.admitted > bound:
                self.reason = "max_new_generators %d exceeded" % bound
                return False
        self.spans.states.append(state)
        self.worklist.append((label, chain, state))
        log.debug("admitted state %s %s", label, chain)
        closed = self.gb.close(self.bounds.membership_degree_bound)
        img = zhu_image(state, self.table, self.bracket_rule)
        if self.gb.add(img):
            self.extras.append(img)
            self.provenance.append({
                "seed": label,
                "chain": [[self.p.symbols[i], n] for (i, n) in chain],
                "membership": "nonzero" if closed else "inconclusive",
            })
            log.debug("relation from %s %s: %s", label, chain,
                      img.render(self.p.symbols))
        return True

    def expand(self, label: str, chain: tuple, state) -> None:
        """Try every candidate mode on `state`, admitting what is new."""
        weights = self.table.weights
        wx = state_weight(state[0], weights)
        cands = sorted(((wx + weights[i] - n - 1, i, n)
                        for i in range(len(weights))
                        for n in range(wx + weights[i])),
                       key=lambda t: (-t[0], t[1], t[2]))
        killers, by_weight = set(), {}
        for rw, i, n in cands:
            op = (i, n)
            if op in self.conformal or op in self.derivations:
                log.debug("skipped as D, L_0 or a zero mode: %s on %s %s",
                          op, label, chain)
                continue
            if self.bracket_rule and self.killed(op, killers, by_weight):
                log.debug("zero by a bracket: %s on %s %s", op, label, chain)
                h = {}, 1
            else:
                h = self.table.act_pair(op, state)
            if not h[0]:
                killers.add(op)
                by_weight.setdefault(rw - wx, []).append(op)
            elif not (self.spans.contains(h)
                      or self.admit(label, chain + (op,), h)):
                return

    def killed(self, op, killers: set, by_weight: dict) -> bool:
        """Whether [a, b] = c op + (modes in `killers`), c != 0, for some
        a, b in `killers`, which `by_weight` groups by op weight."""
        w = op_weight(op, self.table.weights)
        return any(a < b and (self.bracket_modes(a, b) or frozenset())
                   - killers == {op}
                   for wa, ops in by_weight.items() for a in ops
                   for b in by_weight.get(w - wa, ()))


def relation_closure(seeds, p, table: Engine, bounds: ClosureBounds = None,
                     defects: list = None) -> ZhuPresentation:
    """Close `seeds` under nonnegative modes and collect the o-images.

    `seeds` is a list of (label, state) pairs.  One `_Closure` holds the
    run: it admits every nonzero seed, then expands the worklist breadth
    first.  For each admitted state, candidate modes (u^i_n, n >= 0,
    result weight >= 0) are tried in order of decreasing result weight
    (ties by generator index, then mode).  A candidate whose value lies in
    the span generated by the admitted states (creation modes and vacuum
    re-embeddings by the iterate formula; one `SpanCache`) is dropped.
    Any other goes the one admission path of the seeds, which checks
    `max_new_generators` and ends the run "partial" when it trips.  An
    admitted state's image is a relation unless `GroebnerBasis.add`,
    which straightens it once and reduces it modulo the commutators and
    the earlier relations closed up to grade `membership_degree_bound`,
    finds it zero: verdict "nonzero", or "inconclusive" when that bound
    tripped.  Raises ValueError when
    straightening is not a PBW rewriting.

    Most candidates kill their state, and many are known to before they are
    computed: the modes that kill a state x are closed under brackets, as
    [A, B] x = A (B x) - B (A x).  When two candidates A, B already found
    to kill x have a bracket (`Engine.bracket`, memoized by the engine)
    that is a combination of single modes, with no identity term and no
    longer R-word, and that equals c C plus modes found to kill x, with
    c != 0, then C x = 0 and is not computed.  The identity holds only
    where the engine's mode action represents the bracket, which is what a
    Jacobi defect fails, so the rule is off unless `defects`, the list
    `reduction.c1_singular_elements(p, table)`, is empty; it is computed
    here when the caller passes None.

    Under the same guard the closure never applies u_0, u a generator of
    weight 1 whose u_0 maps each generator to a combination of generators
    (the zero modes of g in L_k(g)).  For every mode a_n, [a_n, u_0] =
    -(u_0 a)_n is a combination of modes u^j_n, so the states reachable
    with u_0 lie in U(g_0) W, W those reachable without it, and o(u_0 x) =
    [x_u, o(x)] (Zhu 1996, Theorem 2.1.1): the ideal is generated by
    o(W).  For L_k(g) and the seed e_theta^{k+1} it is the ideal of Frenkel
    & Zhu (1992), generated by the seed's image alone.

    Under the same guard the closure skips, as if in the span, u^i_0 x =
    lambda D x and u^i_1 x = lambda wt(x) x where the table shows u^i_0 =
    lambda D and u^i_1 = lambda L_0 (`Engine.conformal_modes`), and it
    reads each image by Zhu's recursion in closed form (`zhu_image` with
    `closed_form`), which reads o(u^i_0 w) and o(u^i_1 w) off the weight
    of w and leaves in the engine's memo the left actions u_k w, k >= 2,
    that the candidate modes on the same state read next.  With defects every image
    comes from the iterate formula.
    """
    bounds = bounds or ClosureBounds()
    if defects is None:
        defects = c1_singular_elements(p, table)
    run = _Closure(p, table, bounds, defects)
    for label, state in seeds:
        nf = table.normal_pair(integral(state))
        if nf[0]:
            run.admit(label, (), nf)
    while run.worklist and run.reason is None:
        run.expand(*run.worklist.popleft())
    return ZhuPresentation(
        generators=tuple(p.symbols), weights=tuple(table.weights),
        commutator_relations=zhu_commutators(p, table, run.algebra),
        extra_relations=run.extras, provenance=run.provenance,
        status="partial" if run.reason else "complete",
        partial_reason=run.reason, algebra=run.algebra, groebner=run.gb)
