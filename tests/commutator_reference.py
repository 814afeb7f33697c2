"""Expanded commutators and Zhu's products of states in Fractions, a
reference for the engine's int-pair bracket and for `zhu_image`.

`Engine.bracket` expands [u^i_m, u^j_n] once per pair of modes on int pairs
and `Engine.bracket_act` applies it to a word; `commutator` writes the same
expansion term by term, unsummed over k, and `evaluate` applies it to a
Fraction state through `Engine.element_mode`.  `star` and `circ` are Zhu's
products u * v and u o v, which `zhu_image` sends to o(u) o(v) and to 0.
No pipeline stage uses them.
"""

from dataclasses import dataclass

from zhuforge.terms import ONE, binom, state_iadd, word_sort_key, word_weight


@dataclass(frozen=True)
class OpExpansion:
    """A finite operator-valued sum  sum_r  c_r (w_r)_{t_r}.

    Each term is (coefficient, state word, outer mode); all terms share the
    operator weight `weight`.  Evaluating the expansion against a state is
    `evaluate`.  Words here are pure operators -- they are not applied to
    the vacuum until evaluation time.
    """

    terms: tuple
    weight: int

    def __bool__(self) -> bool:
        return bool(self.terms)


def commutator(op_a, op_b, table) -> OpExpansion:
    """[u^i_m, u^j_n] = sum_{k >= 0} C(m, k) (u^i_k u^j)_{m+n-k}."""
    (i, m), (j, n) = op_a, op_b
    weights = table.weights
    terms = []
    for k in range(weights[i] + weights[j]):
        c = binom(m, k)
        if not c:
            continue
        for word, cw in table.get(i, j, k).items():
            terms.append((c * cw, word, m + n - k))
    terms.sort(key=lambda t: (-t[2], word_sort_key(t[1], weights)))
    opw = (weights[i] - m - 1) + (weights[j] - n - 1)
    return OpExpansion(terms=tuple(terms), weight=opw)


def evaluate(exp: OpExpansion, target: dict, table) -> dict:
    """Apply an OpExpansion to a state, term by term, and normalize."""
    out: dict = {}
    for c, word, t in exp.terms:
        state_iadd(out, table.element_mode({word: ONE}, t, target), c)
    return out


def _zhu_product(u: dict, v: dict, table, shift: int) -> dict:
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


def star(u: dict, v: dict, table) -> dict:
    """u * v = sum_{j=0}^{wt u} C(wt u, j) (u)_{j-1} v, per component of u."""
    return _zhu_product(u, v, table, 1)


def circ(u: dict, v: dict, table) -> dict:
    """u o v = sum_{j=0}^{wt u} C(wt u, j) (u)_{j-2} v, per component of u."""
    return _zhu_product(u, v, table, 2)
