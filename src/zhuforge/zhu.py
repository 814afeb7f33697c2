"""Top-level algebra of a presentation: products, images, and relations.

For a state a of weight h, o(a) = a_{h-1} is the unique mode that maps the
weight-0 subspace of any graded module to itself.  The images o(u^i) of the
generators generate an associative algebra; this module computes that
algebra as a presentation: polynomial generators x_i = o(u^i), the bracket
relations

    [x_i, x_j] = sum_{k >= 0} C(wt u^i - 1, k) o(R(i, j, k)),

and the extra relations obtained by closing a set of seed states (singular
vectors, Jacobi defects) under nonnegative modes and projecting with o.

`zhu_image` computes o(s) as `Engine.top_image`, the normal form of
(s)_{wt s - 1} on the top-level vector: the iterate formula, each step
normal-formed by the left action that `apply_mode` uses, read in the
top-level convention, where a word dies as soon as a right suffix would
produce negative weight.  The surviving irreducible words consist of
zero-weight modes only and are read off as monomials.  On a presentation
whose rewriting is not confluent, this order of normal-forming may pick a
representative other than the normal form of the raw expansion (a
reference that only the tests compute); the two differ by an element of
the defect ideal, which lies in the ideal of the relations that
`relation_closure` emits.

`relation_closure` runs one private closure object over the states
u^{i_1}_{n_1} ... u^{i_r}_{n_r} a, all n >= 0.  It drops the ones already
in the span of the admitted states (a `va_calculus.SpanCache`, as in the
defect search) and admits the rest, seeds too, by one path that checks the
bounds and keeps the image unless one `GroebnerBasis`, grown with every
relation, straightens it to zero.  On a presentation without Jacobi
defects it skips the modes that brackets of modes already found to kill a
state show to kill it too, and the modes that act as lambda D and lambda
L_0, whose values lie in the span.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Engine, short_iterate
from .linalg import (as_pair, eliminate, fractional, iadd, integral,
                     normalized, primitive)
from .terms import (
    ONE,
    ZERO,
    binom,
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
        cleaned: dict = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for mono, c in items:
                mono = tuple(mono)
                c = Fraction(c)
                if not c:
                    continue
                nc = cleaned.get(mono, ZERO) + c
                if nc:
                    cleaned[mono] = nc
                else:
                    cleaned.pop(mono, None)
        self.coeffs = cleaned

    @classmethod
    def term(cls, mono, coeff=1) -> "NCPoly":
        out = cls()
        c = Fraction(coeff)
        if c:
            out.coeffs[tuple(mono)] = c
        return out

    @classmethod
    def _wrap(cls, coeffs: dict) -> "NCPoly":
        """An NCPoly over `coeffs`, which holds no zero coefficients."""
        out = cls()
        out.coeffs = coeffs
        return out

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other) -> "NCPoly":
        out = NCPoly()
        out.coeffs = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            nc = out.coeffs.get(mono, ZERO) + c
            if nc:
                out.coeffs[mono] = nc
            else:
                out.coeffs.pop(mono, None)
        return out

    def __neg__(self) -> "NCPoly":
        out = NCPoly()
        out.coeffs = {m: -c for m, c in self.coeffs.items()}
        return out

    def __sub__(self, other) -> "NCPoly":
        return self + (-other)

    def scale(self, factor) -> "NCPoly":
        factor = Fraction(factor)
        out = NCPoly()
        if factor:
            out.coeffs = {m: c * factor for m, c in self.coeffs.items()}
        return out

    def __mul__(self, other) -> "NCPoly":
        out = NCPoly()
        acc = out.coeffs
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = m1 + m2
                nc = acc.get(mono, ZERO) + c1 * c2
                if nc:
                    acc[mono] = nc
                else:
                    acc.pop(mono, None)
        return out

    def render(self, symbols) -> str:
        """Human-readable form, e.g. ``3/2*x_v^2 - 8/9*x_w^3``."""
        return render_sum([
            (self.coeffs[m], render_monomial([symbols[i] for i in m]))
            for m in sorted(self.coeffs, key=mono_key)])


# ----------------------------------------------------------------------
# products and images

def _zhu_product(u: dict, v: dict, table: Engine, shift: int) -> dict:
    """sum_{j=0}^{wt u} C(wt u, j) (u)_{j-shift} v, per component of u."""
    weights = table.weights
    out: dict = {}
    for word, c in u.items():
        h = word_weight(word, weights)
        for j in range(h + 1):
            b = binom(h, j)
            if b:
                state_iadd(out, table.element_mode({word: ONE}, j - shift, v),
                           b * c)
    return out


def star(u: dict, v: dict, table: Engine) -> dict:
    """u * v = sum_{j=0}^{wt u} C(wt u, j) (u)_{j-1} v, per component of u."""
    return _zhu_product(u, v, table, 1)


def circ(u: dict, v: dict, table: Engine) -> dict:
    """u o v = sum_{j=0}^{wt u} C(wt u, j) (u)_{j-2} v, per component of u."""
    return _zhu_product(u, v, table, 2)


def zhu_image(s, table: Engine) -> NCPoly:
    """o(s): the weight-preserving mode of s as a polynomial in the x_i,
    with Fraction coefficients.  The state s is a dict or an engine pair
    (ints, den)."""
    ints, den = as_pair(s)
    acc, aden = {}, 1
    for word, c in ints.items():
        rints, rden = table.top_image(word, word_weight(word, table.weights)
                                      - 1)
        # A top-level word has zero-weight modes only: its letters name it.
        aden = iadd(acc, aden, {tuple(i for (i, _m) in rword): rc
                                for rword, rc in rints.items()}, rden, c)
    return NCPoly._wrap(fractional(acc, aden * den))


class ZhuAlgebra:
    """Straightening arithmetic for the algebra generated by the x_i.

    The bracket of two generators is read off the completed table; a
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
    """

    def __init__(self, presentation, table: Engine):
        self.presentation = presentation
        self.table = table
        self.weights = presentation.weights
        ng = len(self.weights)
        self.brackets: dict = {}
        for i in range(ng):
            for j in range(i + 1, ng):
                acc, den = {}, 1
                for k in range(self.weights[i] + self.weights[j]):
                    b = binom(self.weights[i] - 1, k)
                    if b:
                        den = iadd(acc, den, *integral(zhu_image(
                            table.entry(i, j, k), table).coeffs), b)
                self.brackets[(i, j)] = normalized(acc, den)
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
        # bden x^mono = bden x^prefix x_b x_a x^suffix - x^prefix bints x^suffix
        bints, bden = self.brackets[(b, a)]
        ints, den = self._word(prefix + (b, a) + suffix)
        acc = {m: c * bden for m, c in ints.items()}
        for m2, c2 in bints.items():
            den = iadd(acc, den, *self._word(prefix + m2 + suffix), -c2)
        return normalized(acc, den * bden)

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
    return [NCPoly.term(ij) - NCPoly.term(ij[::-1])
            - NCPoly._wrap(fractional(*bracket))
            for ij, bracket in algebra.brackets.items()]


# ----------------------------------------------------------------------
# two-sided ideals of the straightened algebra

def _minus(mono: tuple, other: tuple) -> tuple:
    """The multiset `mono` less `other`, ascending."""
    rest = list(mono)
    for x in other:
        if x in rest:
            rest.remove(x)
    return tuple(rest)


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
    `add` takes a relation as `zhu_image` gives it, and `reduce`, the
    membership test, takes an NCPoly and returns its normal form as one.
    Everything inside is fraction-free: `algebra.canonical` straightens
    int coefficients, and reduction eliminates by cross-multiplication, as
    `SpanBuilder` does.

    The basis grows on demand: `add` queues a relation and `close(bound)`
    runs Buchberger's loop over everything queued, the pending polynomial
    with the least lead first (the normal strategy).  It stops at the
    first element of grade above `bound` and leaves it pending, so a later
    `close` with a larger bound resumes there.  `complete` records whether
    the last `close` finished; if not, `reduce` is no normal form.

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
        """(delta, k) with x^delta * leads[k] = mono for the first such k."""
        for k, lead in enumerate(self.leads):
            delta = _minus(mono, lead)
            if len(delta) + len(lead) == len(mono):
                return delta, k
        return None

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

    def reduce(self, poly: NCPoly) -> NCPoly:
        """The normal form of `poly`: zero iff `poly` lies in the ideal.
        Zero is exact even when the basis is not complete."""
        ints, den = integral(poly.coeffs)
        f, fden = self.algebra.canonical(ints)
        return NCPoly._wrap(fractional(*self._normal(f, fden * den)))

    def _push(self, coeffs: dict):
        if coeffs:
            heapq.heappush(self._pending, (max(map(self.key, coeffs)),
                                           next(self._tie), coeffs))

    def add(self, poly: NCPoly) -> bool:
        """Queue the normal form of the relation `poly` for the next
        `close`; False, queueing nothing, when it is zero: `poly` lies in
        the ideal.  Zero is exact even when the basis is not complete."""
        f = self._normal(*self.algebra.canonical(integral(poly.coeffs)[0]))[0]
        self._push(f)
        return bool(f)

    def close(self, bound: int) -> bool:
        """Buchberger's loop up to grade `bound`; False if that tripped."""
        pending = self._pending
        while pending:
            key, tie, f = heapq.heappop(pending)
            f = self._normal(f)[0]
            if not f:
                continue
            lead = max(f, key=self.key)
            if self.algebra.grade(lead) > bound:
                log.debug("basis element %s above the grade bound", lead)
                # Back in its place: a later close resumes in the same order.
                heapq.heappush(pending, (key, tie, f))
                break
            k = len(self.elements)
            self.elements.append(primitive(f, lead))
            self.leads.append(lead)
            self._products.append({})
            for j, other in enumerate(self.leads[:k]):
                # Both products lead with the lcm of `lead` and `other`:
                # scale each by the other's coefficient there.
                dj = _minus(lead, other)
                s = dict(self._times(dj, j))
                eliminate(s, self._times(_minus(other, lead), k),
                          tuple(sorted(dj + other)))
                self._push(s)
            for i in range(len(self.algebra.weights)):
                self._push(self.algebra.canonical(
                    {m + (i,): c for m, c in self.elements[k].items()})[0])
            # An element whose lead `lead` divides is x^d * g less its
            # S-pair with g, queued above: drop it (Gebauer & Moeller 1988),
            # so the leads stay the minimal generators of the lead ideal;
            # its products go with it.
            keep = [j for j, other in enumerate(self.leads) if j == k
                    or len(_minus(other, lead)) + len(lead) != len(other)]
            self.elements = [self.elements[j] for j in keep]
            self.leads = [self.leads[j] for j in keep]
            self._products = [self._products[j] for j in keep]
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
    """Search bounds for `relation_closure`; these defaults are also the
    defaults of the `--mode-depth` and `--membership-bound` flags."""

    max_mode_depth: int = 6
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


def _bracket_modes(table: Engine, a, b) -> frozenset:
    """The modes of [a, b] = sum_k C(m, k) (R(i, j, k))_{m+n-k} when it is a
    combination of single modes (`short_iterate`), else the empty set.  The
    sum over k is exact, on the int pairs of the table: terms of different
    k can cancel."""
    (i, m), (j, n) = a, b
    weights = table.weights
    acc, den = {}, 1
    for k in range(weights[i] + weights[j]):
        c = binom(m, k)
        if not c:
            continue
        value, vden = table.entry(i, j, k)
        modes = {}
        for word, cw in value.items():
            head, hc = short_iterate(word, m + n - k) if len(word) < 2 \
                else ((), 1)
            if hc and not head:     # the identity, or a longer R-word
                return frozenset()
            if hc:
                modes[head[0]] = cw * hc
        den = iadd(acc, den, modes, vden, c)
    return frozenset(acc)


def _conformal_modes(table: Engine) -> dict:
    """(i, 0) -> lambda where u^i_0 = lambda D, and (i, 1) -> lambda where
    also u^i_1 = lambda L_0 (lambda times the weight).

    R(i, j, 0) = lambda u^j_{-2}|vac> for every generator u^j makes u^i_0
    and lambda D derivations that kill |vac> and agree on the generators.
    R(i, j, 1) = lambda wt(u^j) u^j as well gives [u^i_1, u^j_n] =
    lambda (wt(u^j) - n - 1) u^j_n.  Both hold where the engine's mode
    action represents a vertex algebra.
    """
    weights = table.weights
    gens = range(len(weights))

    def ratio(i, k, j):
        """c when R(i, j, k) = c u^j_{k-2}|vac>, else None."""
        ints, den = table.entry(i, j, k)
        word = ((j, k - 2),)
        return Fraction(ints[word], den) if list(ints) == [word] else None

    out = {}
    for i in gens:
        lam = ratio(i, 0, i)
        if lam is not None and all(ratio(i, 0, j) == lam for j in gens):
            out[(i, 0)] = lam
            if all(ratio(i, 1, j) == lam * weights[j] for j in gens):
                out[(i, 1)] = lam
    return out


class _Closure:
    """One run of `relation_closure`: the admitted states (engine pairs, in
    the span cache), the worklist of (seed label, mode chain, state), the
    relations, their provenance and their `GroebnerBasis`, the bracket
    modes, the conformal modes, and the reason a bound stopped the run, if
    one did."""

    def __init__(self, p, table: Engine, bounds: ClosureBounds, defects):
        self.p, self.table, self.bounds = p, table, bounds
        self.bracket_rule = not defects
        self.conformal = _conformal_modes(table) if self.bracket_rule else {}
        self.algebra = ZhuAlgebra(p, table)
        self.gb = GroebnerBasis(self.algebra, [],
                                bounds.membership_degree_bound)
        self.spans = SpanCache(generated_span, table, translate=not defects)
        self.worklist: deque = deque()
        self.extras, self.provenance = [], []
        # (a, b) -> the modes of [a, b], for the whole closure
        self.bracket_modes = functools.lru_cache(maxsize=None)(
            functools.partial(_bracket_modes, table))
        self.admitted, self.reason = 0, None

    def admit(self, label: str, chain: tuple, state) -> bool:
        """Admit the nonzero pair `state`, reached from seed `label` by the
        modes `chain`, and its image unless that lies in the ideal; False,
        with `reason` set, when a bound trips first (never on a seed)."""
        bounds = self.bounds
        if chain:
            self.admitted += 1
            for name, value in (("max_mode_depth", len(chain)),
                                ("max_new_generators", self.admitted)):
                bound = getattr(bounds, name)
                if value > bound:
                    self.reason = "%s %d exceeded" % (name, bound)
                    return False
        self.spans.states.append(state)
        self.worklist.append((label, chain, state))
        log.debug("admitted state %s %s", label, chain)
        closed = self.gb.close(bounds.membership_degree_bound)
        img = zhu_image(state, self.table)
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
            if op in self.conformal:
                log.debug("in the span by a conformal mode: %s on %s %s",
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
        return any(a < b and self.bracket_modes(a, b) - killers == {op}
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
    re-embeddings, which translate unless there are `defects`; one
    `SpanCache`) is dropped.  Any other goes the one admission path of the
    seeds, which checks `max_mode_depth` and `max_new_generators` and ends
    the run "partial" when one trips.  An admitted state's image is a
    relation unless `GroebnerBasis.add`, which straightens it once and
    reduces it modulo the commutators and the earlier relations closed up
    to grade `membership_degree_bound`, finds it zero: verdict "nonzero",
    or "inconclusive" when that bound tripped.  Raises ValueError when
    straightening is not a PBW rewriting.

    Most candidates kill their state, and many are known to before they are
    computed: the modes that kill a state x are closed under brackets, as
    [A, B] x = A (B x) - B (A x).  When two candidates A, B already found
    to kill x have a bracket sum_k C(m, k) (R(i, j, k))_{m+n-k} whose
    R-words have at most one letter (`short_iterate` reads each as a single
    mode) and which equals c C plus modes found to kill x, with c != 0 and
    no identity term, then C x = 0 and is not computed.  The modes of each
    bracket are cached for the whole closure.  The identity holds only
    where the engine's mode action represents the bracket, which is what a
    Jacobi defect fails, so the rule is off unless `defects`, the list
    `reduction.c1_singular_elements(p, table)`, is empty; it is computed
    here when the caller passes None.

    Under the same guard the closure skips, as if in the span, u^i_0 x =
    lambda D x and u^i_1 x = lambda wt(x) x where the table shows u^i_0 =
    lambda D and u^i_1 = lambda L_0 (`_conformal_modes`).
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
