"""The memoized rewrite engine behind every computation in the package.

Three intertwined recursions live here, all exact and all driven by the same
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

splice
    The iterate formula.  splice(v, t, tail) expands (v)_t applied to a word,
    recursing on the leftmost mode of v:

        (u_n v')_t = sum_{r >= 0} C(n, r) [ (-1)^r    u_{n-r} (v'_{t+r} tail)
                                          - (-1)^{n+r} v'_{n+t-r} (u_r tail) ].

    Both r-ranges are cut exactly where the result weight goes negative.  The
    output is a raw (unnormalized) state whose coefficients are exact ints
    (products of binomials and signs); they become Fractions only where
    `reduce_word`, `normal_form` and `element_mode` multiply them into
    Fraction states.  The word weights of v and tail are computed once per
    call and passed down the recursion.

reduction
    The rewrite system on words.  An adjacent pair u^i_m u^j_n is reducible
    when it matches one of the patterns

        0 > m > n;   0 > m = n and i > j;   m >= 0 > n;
        m, n >= 0 and weight(u^i_m) < weight(u^j_n);
        m, n >= 0 and equal weights and i > j,

    and a reducible pair is rewritten through the commutator

        u^i_m u^j_n = u^j_n u^i_m + sum_{k >= 0} C(m, k) (R(i,j,k))_{m+n-k}.

    Every rewrite strictly decreases (formal length, mixed inversions,
    negative-mode inversions, nonnegative-mode inversions) lexicographically,
    which gives termination in both vacuum conventions; the correction terms
    drop formal length because |R(i,j,k)| is built from strictly lighter
    generators than the pair it replaces.

An Engine instance is the completed table: it owns one presentation, one
scan strategy fixed at construction, and the memo tables for all three
recursions, and every layer above (`va_calculus`, `reduction`, `zhu`) calls
its methods directly.  `complete_table` builds one.  Irreducible words in
the vacuum convention are the PBW words (modes negative and weakly
increasing, ties by generator index); in the top-level convention a word
may also keep nonnegative modes at its right end, which is what Zhu images
are made of.
"""

from __future__ import annotations

import enum
import sys
from fractions import Fraction

from .terms import (
    ONE,
    VACUUM,
    ZERO,
    binom,
    is_zero_word,
    neg_one_pow,
    state_iadd,
    word_weight,
)


class ReductionStrategy(enum.Enum):
    LeftmostFirst = "leftmost"
    RightmostFirst = "rightmost"


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
            new = out.get(nw, ZERO) - m * coeff
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

    def __init__(self, presentation, strategy=ReductionStrategy.LeftmostFirst):
        self.presentation = presentation
        self.weights = presentation.weights
        self.strategy = strategy
        self._table = {}
        self._reduce = {}
        self._splice = {}
        self._emode = {}
        self._stored_pairs = {(i, j) for (i, j, _) in presentation.relations}
        if sys.getrecursionlimit() < 20000:
            sys.setrecursionlimit(20000)

    # ------------------------------------------------------------------
    # table completion

    def get(self, i: int, j: int, k: int) -> dict:
        """R(i, j, k) = u^i_k u^j as a normalized state (PBW words)."""
        if k < 0 or self.weights[i] + self.weights[j] - k - 1 < 0:
            return {}
        key = (i, j, k)
        if key in self._table:
            return self._table[key]
        if self._is_stored(i, j, k):
            value = dict(self.presentation.relations.get(key, {}))
        elif i == j:
            # diagonal even mode: 2 u_k u = sum_{t>=1} (-1)^{k+t+1} D^(t)(u_{k+t} u)
            acc: dict = {}
            for t in range(1, 2 * self.weights[i] - k):
                upper = self.get(i, i, k + t)
                if upper:
                    state_iadd(acc, self._derivative_power(upper, t),
                               Fraction(neg_one_pow(k + t + 1), 2))
            value = self.normal_form(acc)
        else:
            # skew symmetry from the stored orientation
            acc = {}
            for t in range(0, self.weights[i] + self.weights[j] - k):
                other = self.get(j, i, k + t)
                if other:
                    state_iadd(acc, self._derivative_power(other, t),
                               Fraction(neg_one_pow(k + t + 1)))
            value = self.normal_form(acc)
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

    def _derivative_power(self, s: dict, t: int) -> dict:
        out = s
        for _ in range(t):
            out = apply_D(out)
        if t > 1:
            fact = 1
            for q in range(2, t + 1):
                fact *= q
            out = {w: c / fact for w, c in out.items()}
        return out

    # ------------------------------------------------------------------
    # reduction

    def reduce_word(self, word, convention=VACUUM) -> dict:
        """Fully reduce a single word to a state on irreducible words."""
        if is_zero_word(word, self.weights, convention):
            return {}
        key = (word, convention)
        hit = self._reduce.get(key)
        if hit is not None:
            return hit
        p = self._scan(word)
        if p is None:
            result = {word: ONE}
            self._reduce[key] = result
            return result
        (i, m), (j, n) = word[p], word[p + 1]
        prefix, suffix = word[:p], word[p + 2:]
        out: dict = {}
        swapped = prefix + ((j, n), (i, m)) + suffix
        state_iadd(out, self.reduce_word(swapped, convention))
        wij = self.weights[i] + self.weights[j]
        suffix_w = word_weight(suffix, self.weights)
        for k in range(wij):
            c = binom(m, k)
            if not c:
                continue
            value = self.get(i, j, k)
            if not value:
                continue
            t = m + n - k
            # R(i, j, k) is homogeneous of weight wt_i + wt_j - k - 1
            for vw, vc in value.items():
                for rw, rc in self._splice_rec(vw, wij - k - 1, t, suffix,
                                               suffix_w, convention).items():
                    state_iadd(out, self.reduce_word(prefix + rw, convention),
                               vc * (c * rc))
        self._reduce[key] = out
        return out

    def _scan(self, word):
        rng = range(len(word) - 1)
        if self.strategy is ReductionStrategy.RightmostFirst:
            rng = range(len(word) - 2, -1, -1)
        for p in rng:
            if reducible_pair(word[p], word[p + 1], self.weights):
                return p
        return None

    def normal_form(self, s: dict, convention=VACUUM) -> dict:
        """Reduce a state to its irreducible form under the pair ordering."""
        out: dict = {}
        for word, coeff in s.items():
            state_iadd(out, self.reduce_word(word, convention), coeff)
        return out

    # ------------------------------------------------------------------
    # iterate formula

    def splice(self, vword, t: int, tail, convention=VACUUM) -> dict:
        """Raw expansion of (vword)_t applied to `tail`; int coefficients."""
        weights = self.weights
        return self._splice_rec(vword, word_weight(vword, weights), t, tail,
                                word_weight(tail, weights), convention)

    def _splice_rec(self, vword, vword_w: int, t: int, tail, tail_w: int,
                    convention) -> dict:
        # Words returned are nonzero, of the result weight checked first; so
        # u_{n-r} w is zero only for empty w, n - r >= 0 in the vacuum
        # convention, and u_r tail (r >= 0) only for an empty tail there.
        # (A zero tail gives {} at the base case anyway.)
        weights = self.weights
        if vword_w - t - 1 + tail_w < 0:
            return {}
        if not vword:
            if t == -1 and not is_zero_word(tail, weights, convention):
                return {tail: 1}
            return {}
        key = (vword, t, tail, convention)
        hit = self._splice.get(key)
        if hit is not None:
            return hit
        (i, n), rest = vword[0], vword[1:]
        w_i = weights[i]
        rest_w = vword_w - (w_i - n - 1)
        vacuum = convention == VACUUM
        out: dict = {}
        for r in range(rest_w + tail_w - t):
            c = binom(n, r)
            if not c:
                continue
            c *= neg_one_pow(r)
            for w, cw in self._splice_rec(rest, rest_w, t + r, tail, tail_w,
                                          convention).items():
                if w or r > n or not vacuum:
                    nw = ((i, n - r),) + w
                    new = out.get(nw, 0) + c * cw
                    if new:
                        out[nw] = new
                    else:
                        del out[nw]
        for r in range(w_i + tail_w if tail or not vacuum else 0):
            c = binom(n, r)
            if not c:
                continue
            c = -c * neg_one_pow(n + r)
            ntail = ((i, r),) + tail
            for w, cw in self._splice_rec(rest, rest_w, n + t - r, ntail,
                                          tail_w + w_i - r - 1,
                                          convention).items():
                new = out.get(w, 0) + c * cw
                if new:
                    out[w] = new
                else:
                    del out[w]
        self._splice[key] = out
        return out

    # ------------------------------------------------------------------
    # mode actions

    def apply_mode(self, op, s: dict) -> dict:
        """u^i_m . s for a state s, normalized in the vacuum convention."""
        out: dict = {}
        for word, coeff in s.items():
            state_iadd(out, self.reduce_word((op,) + word, VACUUM), coeff)
        return out

    def element_mode(self, v: dict, t: int, target: dict,
                     convention=VACUUM) -> dict:
        """(v)_t . target by the iterate formula, normalized.

        In the vacuum convention the recursion runs over normal-formed
        states, peeling one mode of v at a time; intermediate results
        stay inside the PBW word space, which keeps long v words from
        expanding into exponentially many raw words.
        """
        if convention == VACUUM:
            tgt = self.normal_form(target, VACUUM)
            frozen = tuple(sorted(tgt.items()))
            out: dict = {}
            for vw, vc in v.items():
                state_iadd(out, self._emode_word(vw, t, frozen), vc)
            return out
        out = {}
        for vw, vc in v.items():
            for tw, tc in target.items():
                for rw, rc in self.splice(vw, t, tw, convention).items():
                    state_iadd(out, self.reduce_word(rw, convention),
                               vc * tc * rc)
        return out

    def _emode_word(self, vword, t: int, ftarget) -> dict:
        """(vword)_t applied to a frozen normal-formed state (vacuum)."""
        if not ftarget:
            return {}
        key = (vword, t, ftarget)
        hit = self._emode.get(key)
        if hit is not None:
            return hit
        target = dict(ftarget)
        if not vword:
            result = target if t == -1 else {}
            self._emode[key] = result
            return result
        (i, n), rest = vword[0], vword[1:]
        weights = self.weights
        maxw = max(word_weight(w, weights) for w in target)
        restw = word_weight(rest, weights)
        out: dict = {}
        for r in range(restw + maxw - t):
            c = binom(n, r)
            if not c:
                continue
            inner = self._emode_word(rest, t + r, ftarget)
            if inner:
                state_iadd(out, self.apply_mode((i, n - r), inner),
                           neg_one_pow(r) * c)
        for r in range(weights[i] + maxw):
            c = binom(n, r)
            if not c:
                continue
            bumped = self.apply_mode((i, r), target)
            if bumped:
                state_iadd(out, self._emode_word(rest, n + t - r,
                                                 tuple(sorted(bumped.items()))),
                           -neg_one_pow(n + r) * c)
        out = {w: c for w, c in out.items() if c}
        self._emode[key] = out
        return out


def complete_table(presentation, strategy=ReductionStrategy.LeftmostFirst) -> Engine:
    return Engine(presentation, strategy)
