"""Failure-of-associativity detection.

The rewrite system itself, with its pair ordering (`engine.reducible_pair`)
and normal forms (`Engine.normal_form`), lives in `engine`.  This module
implements the detector for states witnessing that the stored commutators
do not satisfy the operator Jacobi identities.  Such witnesses seed the
extra Zhu-algebra relations in `zhu`.

Each candidate value is computed on the engine's int pairs (ints, den).
For s, m >= 0 the inner products u^j_m u^k and u^i_s u^k are the table
entries R(j, k, m) and R(i, k, s) (`Engine.entry`); `Engine.act_pair`
applies the outer mode to each, and `Engine.bracket_act` gives the
bracket term [u^i_s, u^j_m] u^k, each term of `Engine.bracket` applied by
the memoized iterate recursion to the one-letter word u^k_{-1}, with no
normal form of that word.  Only a kept defect is converted to the Fraction
states of `JacobiDefect`, and only a kept one gets its bracket-added
variant.  The tests compute the same bracket in Fractions, term by term,
as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Engine, reducible_pair
from .linalg import fractional, iadd
from .terms import state_weight
from .va_calculus import SpanCache, generated_span


@dataclass(frozen=True)
class JacobiDefect:
    """A nonzero value of  u^i_s u^j_m u^k - u^j_m u^i_s u^k - [u^i_s, u^j_m] u^k.

    `indices` is the defining tuple (i, s, j, m, k); `value` the reduced
    state.  `value_bracket_added` records the same expression with the
    bracket term added instead of subtracted (the two sign conventions in
    circulation differ only by that term, i.e. by 2 [u^i_s, u^j_m] u^k).
    Homogeneous of weight wt u^i + wt u^j + wt u^k - s - m - 2.
    """

    indices: tuple
    value: dict = field(compare=False)
    value_bracket_added: dict = field(compare=False)
    weight: int = 0


def _defect_value(table: Engine, i, s, j, m, k):
    """The defect and the bracket term [u^i_s, u^j_m] u^k_{-1}|vac> (from
    `Engine.bracket_act`), as pairs (ints, den).  For s, m >= 0,
    u^j_m u^k_{-1}|vac> and u^i_s u^k_{-1}|vac> are the table entries
    R(j, k, m) and R(i, k, s)."""
    a, b = (i, s), (j, m)
    delta, den = table.act_pair(a, table.entry(j, k, m))
    den = iadd(delta, den, *table.act_pair(b, table.entry(i, k, s)), -1)
    bracket = table.bracket_act(a, b, ((k, -1),))
    return (delta, iadd(delta, den, *bracket, -1)), bracket


def c1_singular_elements(p, table: Engine) -> list:
    """All essential Jacobi defects of the presentation.

    Enumerates every tuple (i, s, j, m, k) with s, m >= 0 whose result
    weight is nonnegative and whose operator pair (u^i_s, u^j_m) is in
    reducible position (the orientation in which the ambiguity actually
    arises during rewriting; the opposite orientation gives the same
    state up to sign).  Tuples are visited in lexicographic order, and a
    nonzero defect is kept only when its value is not already in the
    span generated by the previously kept ones -- scalar multiples,
    derivatives, and creation-mode images of known defects witness
    nothing new.
    """
    weights = table.weights
    ng = len(weights)
    wmax = max(weights)
    kept: list = []
    spans = SpanCache(generated_span, table)
    for i in range(ng):
        for s in range(weights[i] + 2 * wmax - 1):
            for j in range(ng):
                for m in range(weights[i] + weights[j] + wmax - s - 1):
                    if not reducible_pair((i, s), (j, m), weights):
                        continue
                    for k in range(ng):
                        if weights[i] + weights[j] + weights[k] - s - m - 2 < 0:
                            continue
                        delta, bracket = _defect_value(table, i, s, j, m, k)
                        if not delta[0] or spans.contains(delta):
                            continue
                        spans.states.append(delta)
                        plus = dict(delta[0])
                        kept.append(JacobiDefect(
                            indices=(i, s, j, m, k),
                            value=fractional(*delta),
                            value_bracket_added=fractional(
                                plus, iadd(plus, delta[1], *bracket, 2)),
                            weight=state_weight(delta[0], weights)))
    return kept

