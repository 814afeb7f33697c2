"""The memoized rewrite engine behind every computation in the package.

Three intertwined recursions live here, all exact and all driven by the
same grading truncations from `terms`, with the one commutator formula
they share, the one normal form they give, and the Zhu images built on
them:

table completion
    The stored half of the product table R(i, j, k) = u^i_k u^j is extended
    to all ordered pairs by skew symmetry

        u^i_k u^j = sum_{t >= 0} (-1)^{k+t+1} D^(t) (u^j_{k+t} u^i),

    and to diagonal even modes by the same identity read with i = j, which
    collapses to 2 u_k u = sum_{t >= 1} (-1)^{k+t+1} D^(t) (u_{k+t} u) and is
    solved top-down in k.  Derived entries are normalized, which only ever
    consults table entries of strictly smaller weight sum, so the lazy
    recursion grounds out.

commutator formula
    `bracket(a, b)` is, for the modes a = u^i_m and b = u^j_n,

        [u^i_m, u^j_n] = sum_{k >= 0} C(m, k) (R(i, j, k))_{m+n-k},

    expanded once per pair of modes and memoized, with the terms of all k
    summed, so that terms of different k cancel.  An R-word of at most one
    letter is kept as the single mode (or identity) that it acts as
    (`short_iterate`).  The left action below, the defect search
    (`reduction`) and the Zhu bracket (`zhu`) all read it.

iterate formula
    `_iterate_rec(v, t, tail)` is the normal form of (v)_t tail for a word
    v and one irreducible word `tail`, recursing on the leftmost mode of v:

        (u_n v')_t = sum_{r >= 0} C(n, r) [ (-1)^r    u_{n-r} (v'_{t+r} tail)
                                          - (-1)^{n+r} v'_{n+t-r} (u_r tail) ].

    Both r-ranges are cut exactly where the result weight goes negative.
    Every intermediate result is normal-formed: the first sum applies
    u_{n-r} to each word w of the normalized (v')_{t+r} tail; the second
    applies u_r to tail and recurses on each word of the result.  Memo
    keys carry a single irreducible tail word, so a long v never expands
    into the Catalan-many raw words of the unnormalized formula.  Each
    single mode is the left action below, in either convention, and so is
    (u^l_{-1}|vac>)_t = u^l_t, with no memo entry of its own.  Zhu
    images need `top_image(v, t)`, whose tail is the top-level vector;
    `element_mode` sums the recursion over the words of the normal-formed
    target, and `iterate_pair` with target |vac> is how `generated_span`
    re-embeds a state, (v)_{-s}|vac>.  Where the rewriting is not
    confluent (the bundled lattice), this order can pick another
    representative than normal-forming the raw words of the formula,
    modulo the defect ideal.

left action
    The rewrite system on words: an adjacent pair u^i_m u^j_n is reducible
    when it matches one of the patterns

        0 > m > n;   0 > m = n and i > j;   m >= 0 > n;
        m, n >= 0 and weight(u^i_m) < weight(u^j_n);
        m, n >= 0 and equal weights and i > j,

    and a reducible pair is rewritten as u^j_n u^i_m + [u^i_m, u^j_n], with
    the bracket from `bracket`.  The left action `_act_rec(op, word)` is
    the one single-mode step of both conventions: op.word normalized for
    an irreducible, nonzero word, memoized on (op, word, convention) with
    no prefix, so the work of moving op past a tail is shared by every
    word that ends in that tail.  Only on the
    empty word do the conventions differ: u_m|vac> = 0 for m >= 0.  For
    word = a rest with (op, a) reducible,

        op a rest = sum_{w in op rest} a w + [op, a] rest,

    recursing on the irreducible words w of op rest and, for each term
    (R)_t of `bracket(op, a)`, on `_iterate_rec` with the tail rest; a
    term of one letter, (u^l_{-1}|vac>)_t = u^l_t, acts on rest by the
    left action directly.  Only one word of op rest keeps its formal
    length, op sorted into rest, and a acts on it without a rewrite.
    Where a one-mode action is known in advance, it is not called: a
    single mode u in front of an irreducible word w with (u, w[0]) not
    reducible gives the one word u w.  `_act_into` adds c u.s to a sum
    in place for a whole state s, prepending u where it may and calling
    `_act_rec` where it must; `_iterate_rec` (u_{n-r} on each nonzero
    (v')_{t+r} tail) and `zhu_pair` (x on o(w)) call it.  `_act_rec`, the
    hottest loop, keeps the same test inline, twice: for a on the words
    of op rest (a has a negative mode, so the vacuum test cannot fire),
    and for the one-letter bracket terms on rest, while the identity
    term adds rest itself.  Through `_act_into`, the first costs a call
    per memo miss and measured 1-2% slower on the Virasoro minimal
    models; the second would build a one-entry state per term and
    measured 2-3% slower there.

    Termination goes by formal length, the sum of the generator weights of
    the letters (of v and tail together for (v)_t tail).  Normal forms
    never raise it, and a word of R(i, j, k) has weight, and so formal
    length, below wt_i + wt_j: every normal form a bracket term needs
    has smaller formal length.  At equal formal length `_iterate_rec`
    recurses only on a shorter v and `_act_rec` only on a shorter word;
    the normal form below applies each letter of a word once.

Zhu images
    `top_image` gives o(v) = (v)_{wt v - 1} on the top-level vector by the
    iterate formula.  `zhu_pair(word)` gives it for a PBW word u_m w,
    wt = wt u, in closed form (Zhu 1996, Lemma 2.1.2 and Theorem 2.1.1):
    o(|vac>) = 1 and

        o(u_m w) = c_x x o(w) + sum_{k=0}^{wt-1} c_k o(u_k w),

    where x o(w) is u_{wt-1} acting on each top-level word of o(w) and
    u_k w is the left action in the vacuum convention, of lower weight.
    The integers (c_x, c_0, ..., c_{wt-1}) = `zhu_coefficients(wt, m)`
    solve Zhu's recursion run down from m = -1,

        o(u_{-1} b) = x o(b) - sum_{i=1}^{wt} C(wt, i) o(u_{i-1} b),
        o(u_m b) = - sum_{i=1}^{wt} C(wt, i) o(u_{m+i} b)   for m <= -2,

    read on the one state b = w, so no creation mode is reordered through
    w.  For (j, k) in `conformal_modes()` (u^j_0 = lambda D and u^j_1 =
    lambda L_0, read off the table once and kept on the engine), Db +
    wt(b) b in O(V) gives o(u^j_0 w) = -lambda wt(w) o(w) and o(u^j_1 w) =
    lambda wt(w) o(w), with no left action; a Virasoro word needs none.
    The identities need o(O(V)) = 0, which a Jacobi defect breaks, so the
    closure reads its images this way only where it also uses the bracket
    rule, on presentations with no defects; everything else reads
    `top_image`.  The memo `_zhu` is keyed by the word alone, which is
    enough because the map is the engine's own, and the left actions u_k w
    that it reads are the entries of the vacuum `_act` memo that the
    closure's next mode actions on the same state read.

normal form
    The normal form of a word in the vacuum convention is its fold from
    the right through the left action,

        nf(u_1 u_2 ... u_n) = u_1 . (u_2 . ( ... (u_n . |vac>))),

    each step acting on every word of the state so far (`normal_pair`); a
    PBW word is its own normal form, and `act_pair` folds a word that is
    not PBW with op prefixed.  Where the presentation has Jacobi defects
    (the bundled lattice) the rewriting is not confluent, and another
    rewrite order can reach another representative, modulo the defect
    ideal that `reduction` reports.  The fold has no deep recursion, so
    what bounds its work is the number of PBW words at the weight of the
    word: a word enters (an `nf` expression, a singular vector of a
    presentation) only where that number is at most WORD_BOUND
    (`check_word_bound`).

An Engine instance is the completed table: it owns one presentation and
the memo tables for all three recursions and the brackets, and every layer
above (`va_calculus`, `reduction`, `zhu`) calls its methods directly.
`complete_table` builds one.  Irreducible words in the vacuum convention
are the PBW words (modes negative and weakly increasing, ties by generator
index); in the top-level convention a word may also keep nonnegative modes
at its right end, which is what Zhu images are made of.

All three recursions run on Python ints.  A rational state is held as a
pair (ints, den): a dict from word to nonzero int and one denominator
den >= 1 with gcd(den, *ints) == 1, so each state has exactly one form.
Table entries, brackets and the results of `_iterate_rec`, `_act_rec` and
`zhu_pair` are memoized as such pairs; sums are accumulated on ints over a
common denominator and reduced by one gcd when the memo entry is stored.
The pipeline's inner stages (the defect search, the closure and its spans)
stay on such pairs: `entry` returns a table entry as its pair, `top_image`
and `zhu_pair` return a Zhu image as its pair, `bracket_act` returns
[a, b] applied to a word as a pair, and `normal_pair`, `act_pair` and
`iterate_pair` take pairs and return normalized pairs.
Fractions appear only at the public boundary: `get`, `normal_form`,
`apply_mode` and `element_mode` take and return dicts with Fraction
coefficients, and each of the last three converts once on the way in and
once on the way out of its pair method.  D v is `normal_form(apply_D(v))`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .linalg import fractional, iadd, integral, normalized
from .terms import (
    TOP_LEVEL,
    VACUUM,
    binom,
    neg_one_pow,
    state_iadd,
    word_weight,
)


def apply_D(s: dict) -> dict:
    """The derivation D, acting by [D, u_n] = -n u_{n-1} and D|vac> = 0.

    Raises the weight of every homogeneous component by one.
    """
    out: dict = {}
    for word, coeff in s.items():
        state_iadd(out, {word[:p] + ((i, m - 1),) + word[p + 1:]: -m
                         for p, (i, m) in enumerate(word) if m}, coeff)
    return out


def reducible_pair(a, b, weights) -> bool:
    """True when the adjacent pair a b (read left to right) must be rewritten."""
    (i, m), (j, n) = a, b
    if m < 0:
        if n < 0:
            return m > n or (m == n and i > j)
        return False
    if n < 0:
        return True
    wa = weights[i] - m - 1
    wb = weights[j] - n - 1
    return wa < wb or (wa == wb and i > j)


def is_pbw_word(word, weights) -> bool:
    """Whether the word is PBW: irreducible and nonzero in the vacuum
    convention, that is, its modes all negative and no adjacent pair
    reducible."""
    for p, (_, m) in enumerate(word):
        if m >= 0 or p and reducible_pair(word[p - 1], word[p], weights):
            return False
    return True


def short_iterate(rword, t: int):
    """(rword)_t for an R-word of at most one letter, as the one raw word it
    puts in front of the tail and its int coefficient: (|vac>)_t is the
    identity at t = -1 and zero otherwise, and u^l_{-1-s}|vac> = D^(s) u^l
    acts as (D^(s) u^l)_t = (-1)^s C(t, s) u^l_{t-s}."""
    if not rword:
        return (), int(t == -1)
    (l, ls), = rword
    s = -1 - ls
    return ((l, t - s),), neg_one_pow(s) * binom(t, s)


@lru_cache(maxsize=None)
def zhu_coefficients(wt: int, m: int) -> tuple:
    """(c_x, c_0, ..., c_{wt-1}) with o(u_m b) = c_x x o(b) +
    sum_k c_k o(u_k b) for a generator u of weight wt and m < wt: for
    m >= 0 the unit vector of o(u_m b) itself, for m <= -1 Zhu's recursion
    (see "Zhu images") solved in integers from m = -1 down.  None of the
    latter is zero: each is (-1)^m times a polynomial in m whose roots are
    nonnegative."""
    if m >= 0:
        return tuple(int(k == m + 1) for k in range(wt + 1))
    out = [int(m == -1)] + [0] * wt
    for i in range(1, wt + 1):
        for k, c in enumerate(zhu_coefficients(wt, m + i)):
            out[k] -= binom(wt, i) * c
    return tuple(out)


# The most PBW words a weight may have for a word of that weight to be
# normal-formed; `check_word_bound` refuses any other word up front.  On the
# Virasoro algebra it admits w(-1)w(-2)...w(-12) (6,638,248 PBW words at
# weight 90) and refuses w(-1)w(-2)...w(-13) (33,552,415 at weight 104).
WORD_BOUND = 10 ** 7


def check_word_bound(state, weights):
    """Raise ValueError if a word of the state has a weight with more than
    WORD_BOUND PBW words.  Their counts c(n) saturate at WORD_BOUND + 1 and
    run to a top weight that doubles until it reaches the word's.  Lowering
    the mode of one heaviest letter by one maps the PBW words of weight
    n >= 1 one-to-one into those of weight n + 1 (the image has one
    heaviest letter), so c is nondecreasing there and the count stops at
    the first top past the bound."""
    for weight in {word_weight(word, weights) for word in state}:
        top = 0
        while top < weight:
            top = min(weight, 2 * top + 64)
            counts = [1] + [0] * top
            for d in range(1, top + 1):
                for _ in range(sum(w <= d for w in weights)):
                    for n in range(d, top + 1):
                        counts[n] = min(counts[n] + counts[n - d],
                                        WORD_BOUND + 1)
            if counts[top] > WORD_BOUND:
                raise ValueError("weight %d has more than WORD_BOUND = %d "
                                 "PBW words" % (weight, WORD_BOUND))


def pbw_words(weights, weight):
    """All PBW words of exactly the given weight, in a fixed deterministic order.

    Ops are emitted with (mode, index) weakly increasing left to right, which
    is precisely the irreducible (vacuum-convention) word shape.
    """
    out = []

    def extend(prefix, rem, floor):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for m in range(-rem, 0):
            for i, w in enumerate(weights):
                if w - m - 1 > rem:
                    continue
                if floor is not None and (m, i) < floor:
                    continue
                prefix.append((i, m))
                extend(prefix, rem - (w - m - 1), (m, i))
                prefix.pop()

    extend([], weight, None)
    out.sort()
    return out


class Engine:
    """Rewrite engine bound to one presentation: the completed product table.

    get(i, j, k) returns R(i, j, k) for any generator pair and any k >= 0,
    deriving the non-stored half on demand.  `entries()` materializes every
    weight-admissible entry in a deterministic order for serialization.
    """

    def __init__(self, presentation):
        self.presentation = presentation
        self.weights = presentation.weights
        self._table = {}
        self._iterate = {}
        self._act = {}
        self._bracket = {}
        self._zhu = {}
        self._conformal = None
        self._stored_pairs = {(i, j) for (i, j, _) in presentation.relations}

    # ------------------------------------------------------------------
    # table completion

    def get(self, i: int, j: int, k: int) -> dict:
        """R(i, j, k) = u^i_k u^j as a normalized state (PBW words)."""
        return fractional(*self.entry(i, j, k))

    def entry(self, i: int, j: int, k: int):
        """R(i, j, k) as a normalized pair (ints, den) on PBW words."""
        if k < 0 or self.weights[i] + self.weights[j] - k - 1 < 0:
            return {}, 1
        key = (i, j, k)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        if self._is_stored(i, j, k):
            value = integral(self.presentation.relations.get(key, {}))
        else:
            # skew symmetry from the stored orientation; a diagonal even
            # mode reads it with i = j:
            # 2 u_k u = sum_{t>=1} (-1)^{k+t+1} D^(t)(u_{k+t} u)
            acc: dict = {}
            den = 1
            for t in range(1 if i == j else 0,
                           self.weights[i] + self.weights[j] - k):
                other = self.entry(j, i, k + t)
                if other[0]:
                    den = iadd(acc, den, *self._derivative_power(other, t),
                               neg_one_pow(k + t + 1))
            if i == j:
                den *= 2
            value = self.normal_pair((acc, den))
        self._table[key] = value
        return value

    def entries(self):
        weights = self.weights
        out = []
        for i in range(len(weights)):
            for j in range(len(weights)):
                for k in range(weights[i] + weights[j]):
                    out.append((i, j, k, self.get(i, j, k)))
        return out

    def _is_stored(self, i, j, k):
        if i == j:
            return k % 2 == 1
        if (j, i) in self._stored_pairs and (i, j) not in self._stored_pairs:
            return False
        # pairs with no stored entry on either side default to i < j
        return i < j or (i, j) in self._stored_pairs

    def _derivative_power(self, s, t: int):
        """D^(t) = D^t / t! of the pair s, as a pair (not gcd-reduced)."""
        out, den = s
        for _ in range(t):
            out = apply_D(out)
        return out, den * factorial(t)

    # ------------------------------------------------------------------
    # commutator formula

    def bracket(self, a, b):
        """[a, b] = sum_k C(m, k) (R(i, j, k))_{m+n-k} for the modes
        a = u^i_m and b = u^j_n, as a normalized pair (terms, den): `terms`
        maps (R-word, t) to an int, summed over k, so that terms of
        different k cancel.  An R-word of at most one letter is stored as
        the single mode `short_iterate` reads it as: u^l_p under
        (((l, -1),), p), the identity under ((), -1).  Every R-word has
        weight wt(a) + wt(b) + t + 1, for the operator weights wt."""
        hit = self._bracket.get((a, b))
        if hit is not None:
            return hit
        (i, m), (j, n) = a, b
        out, den = {}, 1
        for k in range(self.weights[i] + self.weights[j]):
            c = binom(m, k)
            if not c:
                continue
            value, vden = self.entry(i, j, k)
            t = m + n - k
            terms = {}
            for vw, vc in value.items():
                if len(vw) > 1:
                    terms[(vw, t)] = vc
                    continue
                head, hc = short_iterate(vw, t)
                if hc:
                    key = (((head[0][0], -1),), head[0][1]) if head \
                        else ((), -1)
                    terms[key] = vc * hc
            den = iadd(out, den, terms, vden, c)
        result = normalized(out, den)
        self._bracket[(a, b)] = result
        return result

    def bracket_act(self, a, b, tail):
        """[a, b] tail for the modes a, b and a PBW word `tail`, as a
        normalized pair: each term (R)_t of `bracket(a, b)` applied to
        tail by `_iterate_rec`."""
        terms, tden = self.bracket(a, b)
        (i, m), (j, n) = a, b
        opw = self.weights[i] + self.weights[j] - m - n - 2
        tail_w, out, den = word_weight(tail, self.weights), {}, 1
        for (rword, t), c in terms.items():
            den = iadd(out, den,
                       *self._iterate_rec(rword, opw + t + 1, t, tail, tail_w,
                                          VACUUM), c)
        return normalized(out, den * tden)

    # ------------------------------------------------------------------
    # normal forms

    def normal_form(self, s: dict) -> dict:
        """Reduce a state to its irreducible (PBW) form in the vacuum
        convention."""
        return fractional(*self.normal_pair(integral(s)))

    def normal_pair(self, s):
        """`normal_form` of the pair s = (ints, den), as a normalized pair:
        a PBW word is its own normal form, and any other word is folded from
        the right, its modes applied to |vac> by the left action."""
        ints, sden = s
        out: dict = {}
        den = 1
        for word, coeff in ints.items():
            pair = {word: 1}, 1
            if not is_pbw_word(word, self.weights):
                pair = {(): 1}, 1
                for op in reversed(word):
                    pair = self.act_pair(op, pair)
            den = iadd(out, den, *pair, coeff)
        return normalized(out, den * sden)

    # ------------------------------------------------------------------
    # iterate formula

    def top_image(self, vword, t: int):
        """(vword)_t applied to the top-level vector, as a normalized pair."""
        return self._iterate_rec(vword, word_weight(vword, self.weights), t,
                                 (), 0, TOP_LEVEL)

    def conformal_modes(self) -> dict:
        """(i, 0) -> lambda where u^i_0 = lambda D, and (i, 1) -> lambda
        where also u^i_1 = lambda L_0 (lambda times the weight), worked out
        once from the table.

        R(i, j, 0) = lambda u^j_{-2}|vac> for every generator u^j makes
        u^i_0 and lambda D derivations that kill |vac> and agree on the
        generators.  R(i, j, 1) = lambda wt(u^j) u^j as well gives
        [u^i_1, u^j_n] = lambda (wt(u^j) - n - 1) u^j_n.  Both hold where
        the mode action represents a vertex algebra.
        """
        if self._conformal is not None:
            return self._conformal
        gens = range(len(self.weights))

        def ratio(i, k, j):
            """c when R(i, j, k) = c u^j_{k-2}|vac>, else None."""
            (ints, den), word = self.entry(i, j, k), ((j, k - 2),)
            return Fraction(ints[word], den) if list(ints) == [word] else None

        out = self._conformal = {}
        for i in gens:
            lam = ratio(i, 0, i)
            if lam is not None and all(ratio(i, 0, j) == lam for j in gens):
                out[(i, 0)] = lam
                if all(ratio(i, 1, j) == lam * self.weights[j] for j in gens):
                    out[(i, 1)] = lam
        return out

    def zhu_pair(self, word):
        """o(word) for a PBW word in closed form (see "Zhu images"), as a
        normalized pair on top-level words, reading the modes of
        `conformal_modes` off the weight.  Holds only where the
        presentation has no Jacobi defects."""
        if not word:
            return {(): 1}, 1
        hit = self._zhu.get(word)
        if hit is not None:
            return hit
        (j, m), rest = word[0], word[1:]
        wt, rest_w = self.weights[j], word_weight(rest, self.weights)
        cx, *cs = zhu_coefficients(wt, m)
        inner = self._zhu.get(rest) or self.zhu_pair(rest)
        # x o(rest): x = u_{wt-1} keeps a top-level word at weight 0.
        out = {}
        den = self._act_into(out, 1, (j, wt - 1), inner, 0, TOP_LEVEL, cx)
        for k, c in enumerate(cs):
            lam = self.conformal_modes().get((j, k))
            if lam is not None:
                # o(u_0 w) = -lambda wt(w) o(w), o(u_1 w) = lambda wt(w) o(w)
                if rest_w:
                    den = iadd(out, den, inner[0], inner[1] * lam.denominator,
                               (2 * k - 1) * c * lam.numerator * rest_w)
                continue
            ints, iden = self._act_rec((j, k), rest, rest_w, VACUUM)
            for w, cw in ints.items():
                rints, rden = self._zhu.get(w) or self.zhu_pair(w)
                den = iadd(out, den, rints, rden * iden, c * cw)
        result = normalized(out, den)
        self._zhu[word] = result
        return result

    def _iterate_rec(self, vword, vword_w: int, t: int, tail, tail_w: int,
                     convention):
        """(vword)_t tail for an irreducible, nonzero word `tail`, as a
        normalized pair: the iterate formula with every intermediate result
        normal-formed, so only irreducible words recurse."""
        if vword_w - t - 1 + tail_w < 0:
            return {}, 1
        if not vword:
            return ({tail: 1}, 1) if t == -1 else ({}, 1)
        if len(vword) == 1 and vword[0][1] == -1:
            # (u^l_{-1}|vac>)_t = u^l_t
            return self._act_rec((vword[0][0], t), tail, tail_w, convention)
        key = (vword, t, tail, convention)
        hit = self._iterate.get(key)
        if hit is not None:
            return hit
        weights = self.weights
        (i, n), rest = vword[0], vword[1:]
        w_i = weights[i]
        rest_w = vword_w - (w_i - n - 1)
        out: dict = {}
        den = 1
        for r in range(rest_w + tail_w - t):
            c = binom(n, r)
            if not c:
                continue
            inner = self._iterate_rec(rest, rest_w, t + r, tail, tail_w,
                                      convention)
            if inner[0]:
                # (v')_{t+r} tail is homogeneous of this weight
                den = self._act_into(out, den, (i, n - r), inner,
                                     rest_w - t - r - 1 + tail_w, convention,
                                     c * neg_one_pow(r))
        for r in range(w_i + tail_w):
            c = binom(n, r)
            if not c:
                continue
            bumped, bden = self._act_rec((i, r), tail, tail_w, convention)
            c = -c * neg_one_pow(n + r)
            # u_r tail is homogeneous of this weight
            bw = tail_w + w_i - r - 1
            for w, cw in bumped.items():
                rints, rden = self._iterate_rec(rest, rest_w, n + t - r, w, bw,
                                                convention)
                den = iadd(out, den, rints, rden * bden, c * cw)
        result = normalized(out, den)
        self._iterate[key] = result
        return result

    # ------------------------------------------------------------------
    # mode actions

    def apply_mode(self, op, s: dict) -> dict:
        """u^i_m . s for a state s, normalized in the vacuum convention."""
        return fractional(*self.act_pair(op, integral(s)))

    def act_pair(self, op, s):
        """`apply_mode` on the pair s = (ints, den), as a normalized pair.

        PBW words go through the memoized left action `_act_rec`; any other
        word is normal-formed with `op` prefixed.
        """
        weights = self.weights
        ints, sden = s
        out: dict = {}
        den = 1
        for word, coeff in ints.items():
            if is_pbw_word(word, weights):
                pair = self._act_rec(op, word, word_weight(word, weights),
                                     VACUUM)
            else:
                pair = self.normal_pair(({(op,) + word: 1}, 1))
            den = iadd(out, den, *pair, coeff)
        return normalized(out, den * sden)

    def _act_rec(self, op, word, word_w: int, convention):
        """op . word for an irreducible, nonzero word of weight word_w, as a
        normalized pair (see "left action" above): the terms of
        `bracket(op, a)` act on the tail rest by `_iterate_rec`."""
        weights = self.weights
        i, m = op
        if weights[i] - m - 1 + word_w < 0 or \
                (not word and m >= 0 and convention == VACUUM):
            return {}, 1
        if not word or not reducible_pair(op, word[0], weights):
            return {(op,) + word: 1}, 1
        key = (op, word, convention)
        hit = self._act.get(key)
        if hit is not None:
            return hit
        a, rest = word[0], word[1:]
        j, n = a
        rest_w = word_w - (weights[j] - n - 1)
        inner, iden = self._act_rec(op, rest, rest_w, convention)
        # out / den sums c a.w, then is divided by iden.  a.w weighs what
        # op.word does, and a, a letter of a nonzero word, has a negative
        # mode in the vacuum convention: only the head test can fail, and
        # an irreducible a w is added in place.
        out, den = {}, 1
        for w, c in inner.items():
            if w and reducible_pair(a, w[0], weights):
                den = iadd(out, den, *self._act_rec(
                    a, w, weights[i] - m - 1 + rest_w, convention), c)
                continue
            w = (a,) + w
            new = out.get(w, 0) + c * den
            if new:
                out[w] = new
            else:
                del out[w]
        den *= iden
        terms, tden = self._bracket.get((op, a)) or self.bracket(op, a)
        opw = weights[i] + weights[j] - m - n - 2
        # The bracket terms are summed on out * tden.  The identity adds
        # rest, and (u^l_{-1}|vac>)_t = u^l_t, of the weight of op.word,
        # acts on rest as `_iterate_rec` would send it to `_act_rec`.
        if tden != 1:
            for w in out:
                out[w] *= tden
        for (rword, t), c in terms.items():
            if len(rword) > 1:
                den = iadd(out, den,
                           *self._iterate_rec(rword, opw + t + 1, t, rest,
                                              rest_w, convention), c)
                continue
            w = rest
            if rword:
                head = (rword[0][0], t)
                if rest and reducible_pair(head, rest[0], weights):
                    den = iadd(out, den,
                               *self._act_rec(head, rest, rest_w, convention),
                               c)
                    continue
                if not rest and t >= 0 and convention == VACUUM:
                    continue
                w = (head,) + rest
            new = out.get(w, 0) + c * den
            if new:
                out[w] = new
            else:
                del out[w]
        result = normalized(out, den * tden)
        self._act[key] = result
        return result

    def _act_into(self, out: dict, den: int, op, state, word_w: int,
                  convention, c: int) -> int:
        """out / den += c op.state in place, for a pair `state` on
        irreducible words of weight word_w; returns the new denominator.
        `out` is first scaled by the denominator of `state`.
        An irreducible op w is prepended in place, deleting what cancels
        as `iadd` does, and any other op w goes through `_act_rec`."""
        ints, sden = state
        weights = self.weights
        if sden != 1:
            for w in out:
                out[w] *= sden
        for w, cw in ints.items():
            if w and reducible_pair(op, w[0], weights):
                den = iadd(out, den, *self._act_rec(op, w, word_w, convention),
                           c * cw)
                continue
            if not w and op[1] >= 0 and convention == VACUUM:
                continue
            w = (op,) + w
            new = out.get(w, 0) + c * cw * den
            if new:
                out[w] = new
            else:
                del out[w]
        return den * sden

    def element_mode(self, v: dict, t: int, target: dict) -> dict:
        """(v)_t . target by the iterate formula, normalized (vacuum).

        The target is normal-formed first: intermediate results stay inside
        the PBW word space, which keeps long v words from expanding into
        exponentially many raw words.
        """
        target = self.normal_pair(integral(target))
        return fractional(*self.iterate_pair(integral(v), t, target))

    def iterate_pair(self, v, t: int, target):
        """`element_mode` on the pair v and a pair target on PBW words, as a
        normalized pair: `_iterate_rec` on each word of v and of target."""
        weights = self.weights
        vints, vden = v
        tints, tden = target
        out: dict = {}
        den = 1
        for vw, vc in vints.items():
            vw_w = word_weight(vw, weights)
            for tw, tc in tints.items():
                den = iadd(out, den,
                           *self._iterate_rec(vw, vw_w, t, tw,
                                              word_weight(tw, weights),
                                              VACUUM),
                           vc * tc)
        return normalized(out, den * vden * tden)


def complete_table(presentation) -> Engine:
    return Engine(presentation)
