"""The memoized rewrite engine behind every computation in the package.

Five intertwined recursions live here, all exact and all driven by the same
grading truncations from `terms`:

table completion
    The stored half of the product table R(i, j, k) = u^i_k u^j is extended
    to all ordered pairs by skew symmetry

        u^i_k u^j = sum_{t >= 0} (-1)^{k+t+1} D^(t) (u^j_{k+t} u^i),

    and to diagonal even modes by the same identity read with i = j, which
    collapses to 2 u_k u = sum_{t >= 1} (-1)^{k+t+1} D^(t) (u_{k+t} u) and is
    solved top-down in k.  Derived entries are normalized, which only ever
    consults table entries of strictly smaller weight sum, so the lazy
    recursion grounds out.

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
    single mode is the left action below, in either convention.  Zhu
    images need `top_image(v, t)`, whose tail is the top-level vector;
    `element_mode` sums the recursion over the words of the normal-formed
    target.  Where the rewriting is not confluent (the bundled lattice),
    this order can pick another representative than normal-forming the
    raw words of the formula, modulo the defect ideal.

reduction
    The rewrite system on words.  An adjacent pair u^i_m u^j_n is reducible
    when it matches one of the patterns

        0 > m > n;   0 > m = n and i > j;   m >= 0 > n;
        m, n >= 0 and weight(u^i_m) < weight(u^j_n);
        m, n >= 0 and equal weights and i > j,

    and a reducible pair is rewritten through the commutator

        u^i_m u^j_n = u^j_n u^i_m + sum_{k >= 0} C(m, k) (R(i,j,k))_{m+n-k}.

    `reduce_word` rewrites the leftmost reducible pair, in the vacuum
    convention; that is the one rewrite order of the package.  Where the
    presentation has Jacobi defects (the bundled lattice) the rewriting is
    not confluent, and another order can reach another representative,
    modulo the defect ideal that `reduction` reports.  A correction term
    prefix (R)_t suffix, R a word of R(i, j, k), runs `_iterate_rec` on
    each word of the normal form of suffix and reduces prefix w for each
    word w of the result; an R of at most one letter gives one raw word
    (`short_iterate`), which is reduced.

    Termination goes by formal length, the sum of the generator weights of
    the letters (of v and tail together for (v)_t tail).  Normal forms
    never raise it, and a word of R(i, j, k) has weight, and so formal
    length, below wt_i + wt_j: every normal form a correction term needs
    has smaller formal length.  At equal formal length `reduce_word`
    recurses only on the swapped word, with fewer (mixed, negative-mode,
    nonnegative-mode) inversions in lexicographic order, `_iterate_rec`
    only on a shorter v and `_act_rec` only on a shorter word.

left action
    The one single-mode step of both conventions: `_act_rec(op, word)` is
    op.word normalized for an irreducible, nonzero word, memoized on
    (op, word, convention) with no prefix, so the work of moving op past a
    tail is shared by every word that ends in that tail.  Only on the
    empty word do the conventions differ: u_m|vac> = 0 for m >= 0.  For
    word = a rest with (op, a) reducible,

        op a rest = sum_{w in op rest} a w
                    + sum_{k >= 0} C(m, k) (R(i, j, k))_{m+n-k} rest,

    recursing on the irreducible words w of op rest and, for each
    correction term, on `_iterate_rec` with the tail rest.  Only one
    word of op rest keeps its formal length, op sorted into rest, and a
    acts on it without a rewrite.  This reduces op rest before a acts,
    so it rewrites in another order than `reduce_word` does on the
    prefixed word; it equals that reduction wherever the rewriting is
    confluent.  `apply_mode` reduces a word that is not PBW with op
    prefixed, since normal-forming it first could pick another
    representative where the rewriting is not confluent (the lattice).

translation
    `_translate_rec(word)` is D word normalized for a PBW word, memoized on
    the word: by the derivation rule [D, u_m] = -m u_{m-1},

        D (u_m rest) = -m u_{m-1} rest + u_m D(rest),   D|vac> = 0,

    and both terms are left actions on PBW words, so the translation shares
    the `_act` memo with `apply_mode`.  By the vacuum axiom
    Y(v, z)|vac> = e^{zD} v, (v)_{-s}|vac> = D^(s-1) v / (s-1)!, which is
    how `generated_span` re-embeds a state without the iterate formula.

An Engine instance is the completed table: it owns one presentation and
the memo tables for all five recursions, and every layer above
(`va_calculus`, `reduction`, `zhu`) calls its methods directly.
`complete_table` builds one.  Irreducible words in the vacuum convention
are the PBW words (modes negative and weakly increasing, ties by generator
index); in the top-level convention a word may also keep nonnegative modes
at its right end, which is what Zhu images are made of.

All five recursions run on Python ints.  A rational state is held as a
pair (ints, den): a dict from word to nonzero int and one denominator
den >= 1 with gcd(den, *ints) == 1, so each state has exactly one form.
Table entries and the results of `reduce_word`, `_iterate_rec`,
`_act_rec` and `_translate_rec` are memoized as such pairs; sums are
accumulated on ints over a common denominator and reduced by one gcd when
the memo entry is stored.  The pipeline's inner stages (the defect search,
the closure and its spans) stay on such pairs: `entry` returns a table
entry as its pair, `top_image` returns a Zhu image as its pair, and
`normal_pair`, `act_pair`, `iterate_pair` and `translate_pair` take pairs
and return normalized pairs.  Fractions appear only at the public
boundary: `get`, `normal_form`, `apply_mode`, `element_mode` and
`translate` take and return dicts with Fraction coefficients, and each of
the last four converts once on the way in and once on the way out of its
pair method.
"""

from __future__ import annotations

from math import factorial

from .linalg import fractional, iadd, integral, normalized
from .terms import (
    TOP_LEVEL,
    VACUUM,
    binom,
    is_zero_word,
    neg_one_pow,
    word_weight,
)


def apply_D(s: dict) -> dict:
    """The derivation D, acting by [D, u_n] = -n u_{n-1} and D|vac> = 0.

    Raises the weight of every homogeneous component by one.
    """
    out: dict = {}
    for word, coeff in s.items():
        for p, (i, m) in enumerate(word):
            if m == 0:
                continue
            nw = word[:p] + ((i, m - 1),) + word[p + 1:]
            new = out.get(nw, 0) - m * coeff
            if new:
                out[nw] = new
            else:
                out.pop(nw, None)
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
        self._reduce = {}
        self._iterate = {}
        self._act = {}
        self._translate = {}
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
    # reduction

    def reduce_word(self, word):
        """Fully reduce a single word in the vacuum convention: a
        normalized pair (ints, den) on PBW words."""
        hit = self._reduce.get(word)
        if hit is not None:
            return hit
        if is_zero_word(word, self.weights):
            return {}, 1
        p = self._scan(word)
        if p is None:
            result = {word: 1}, 1
            self._reduce[word] = result
            return result
        (i, m), (j, n) = word[p], word[p + 1]
        prefix, suffix = word[:p], word[p + 2:]
        swapped, den = self.reduce_word(prefix + ((j, n), (i, m)) + suffix)
        out = dict(swapped)
        wij = self.weights[i] + self.weights[j]
        suffix_w = word_weight(suffix, self.weights)
        for k in range(wij):
            c = binom(m, k)
            if not c:
                continue
            value, vden = self.entry(i, j, k)
            t = m + n - k
            # R(i, j, k) is homogeneous of weight wt_i + wt_j - k - 1
            for vw, vc in value.items():
                if len(vw) < 2:
                    head, hc = short_iterate(vw, t)
                    if hc:
                        rints, rden = self.reduce_word(prefix + head + suffix)
                        den = iadd(out, den, rints, rden * vden, vc * c * hc)
                    continue
                sints, sden = self.reduce_word(suffix)
                for sw, sc in sints.items():
                    iints, iden = self._iterate_rec(vw, wij - k - 1, t, sw,
                                                    suffix_w, VACUUM)
                    for w, wc in iints.items():
                        rints, rden = self.reduce_word(prefix + w)
                        den = iadd(out, den, rints, rden * iden * sden * vden,
                                   vc * c * sc * wc)
        result = normalized(out, den)
        self._reduce[word] = result
        return result

    def _scan(self, word):
        """The position of the leftmost reducible pair, else None."""
        for p in range(len(word) - 1):
            if reducible_pair(word[p], word[p + 1], self.weights):
                return p
        return None

    def normal_form(self, s: dict) -> dict:
        """Reduce a state to its irreducible (PBW) form in the vacuum
        convention."""
        return fractional(*self.normal_pair(integral(s)))

    def normal_pair(self, s):
        """`normal_form` of the pair s = (ints, den), as a normalized pair."""
        ints, sden = s
        out: dict = {}
        den = 1
        for word, coeff in ints.items():
            den = iadd(out, den, *self.reduce_word(word), coeff)
        return normalized(out, den * sden)

    # ------------------------------------------------------------------
    # iterate formula

    def top_image(self, vword, t: int):
        """(vword)_t applied to the top-level vector, as a normalized pair."""
        return self._iterate_rec(vword, word_weight(vword, self.weights), t,
                                 (), 0, TOP_LEVEL)

    def _iterate_rec(self, vword, vword_w: int, t: int, tail, tail_w: int,
                     convention):
        """(vword)_t tail for an irreducible, nonzero word `tail`, as a
        normalized pair: the iterate formula with every intermediate result
        normal-formed, so only irreducible words recurse."""
        if vword_w - t - 1 + tail_w < 0:
            return {}, 1
        if not vword:
            return ({tail: 1}, 1) if t == -1 else ({}, 1)
        key = (vword, t, tail, convention)
        hit = self._iterate.get(key)
        if hit is not None:
            return hit
        (i, n), rest = vword[0], vword[1:]
        w_i = self.weights[i]
        rest_w = vword_w - (w_i - n - 1)
        out: dict = {}
        den = 1
        for r in range(rest_w + tail_w - t):
            c = binom(n, r)
            if not c:
                continue
            inner, iden = self._iterate_rec(rest, rest_w, t + r, tail, tail_w,
                                            convention)
            c *= neg_one_pow(r)
            # (v')_{t+r} tail is homogeneous of this weight
            iw = rest_w - t - r - 1 + tail_w
            for w, cw in inner.items():
                rints, rden = self._act_rec((i, n - r), w, iw, convention)
                den = iadd(out, den, rints, rden * iden, c * cw)
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
        word is reduced with `op` prefixed, because where the rewriting is
        not confluent normal-forming it first could pick another
        representative.
        """
        weights = self.weights
        ints, sden = s
        out: dict = {}
        den = 1
        for word, coeff in ints.items():
            if self._is_pbw(word):
                pair = self._act_rec(op, word, word_weight(word, weights),
                                     VACUUM)
            else:
                pair = self.reduce_word((op,) + word)
            den = iadd(out, den, *pair, coeff)
        return normalized(out, den * sden)

    def _is_pbw(self, word) -> bool:
        """Whether the word is irreducible and nonzero (vacuum)."""
        return self._scan(word) is None and \
            not is_zero_word(word, self.weights, VACUUM)

    def _act_rec(self, op, word, word_w: int, convention):
        """op . word for an irreducible, nonzero word of weight word_w, as a
        normalized pair (see "left action" above): correction terms act on
        the tail rest by `short_iterate` or `_iterate_rec`."""
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
        inner_w = weights[i] - m - 1 + rest_w
        out: dict = {}
        den = 1
        for w, c in inner.items():
            rints, rden = self._act_rec(a, w, inner_w, convention)
            den = iadd(out, den, rints, rden * iden, c)
        wij = weights[i] + weights[j]
        for k in range(wij):
            c = binom(m, k)
            if not c:
                continue
            value, vden = self.entry(i, j, k)
            t = m + n - k
            for vw, vc in value.items():
                if len(vw) < 2:
                    head, hc = short_iterate(vw, t)
                    if not hc:
                        continue
                    rints, rden = (self._act_rec(head[0], rest, rest_w,
                                                 convention)
                                   if head else ({rest: 1}, 1))
                else:
                    hc = 1
                    rints, rden = self._iterate_rec(vw, wij - k - 1, t, rest,
                                                    rest_w, convention)
                den = iadd(out, den, rints, rden * vden, vc * c * hc)
        result = normalized(out, den)
        self._act[key] = result
        return result

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

    # ------------------------------------------------------------------
    # translation

    def translate(self, v: dict) -> dict:
        """D v, normalized (vacuum)."""
        return fractional(*self.translate_pair(integral(v)))

    def translate_pair(self, v):
        """`translate` on the pair v = (ints, den), as a normalized pair.

        PBW words go through the memoized `_translate_rec`; any other word
        is normal-formed first.
        """
        weights = self.weights
        ints, vden = v
        out: dict = {}
        den = 1
        for word, coeff in ints.items():
            nf, nden = ({word: 1}, 1) if self._is_pbw(word) \
                else self.reduce_word(word)
            for w, c in nf.items():
                tints, tden = self._translate_rec(w, word_weight(w, weights))
                den = iadd(out, den, tints, tden * nden, coeff * c)
        return normalized(out, den * vden)

    def _translate_rec(self, word, word_w: int):
        """D word for a PBW word of weight word_w, as a normalized pair
        (see "translation" above)."""
        if not word:
            return {}, 1
        hit = self._translate.get(word)
        if hit is not None:
            return hit
        (i, m), rest = word[0], word[1:]
        rest_w = word_w - (self.weights[i] - m - 1)
        # m < 0 in a PBW word, so -m u_{m-1} rest has a nonzero factor
        ints, den = self._act_rec((i, m - 1), rest, rest_w, VACUUM)
        out = {w: -m * c for w, c in ints.items()}
        dints, dden = self._translate_rec(rest, rest_w)
        for w, c in dints.items():
            rints, rden = self._act_rec((i, m), w, rest_w + 1, VACUUM)
            den = iadd(out, den, rints, rden * dden, c)
        result = normalized(out, den)
        self._translate[word] = result
        return result


def complete_table(presentation) -> Engine:
    return Engine(presentation)
