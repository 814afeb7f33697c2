"""The span generated from a set of states by creation modes and vacuum
re-embeddings.

Single-mode application, brackets of modes and normal forms are methods of
the `Engine` that `complete_table` returns; `generated_span` takes that
engine as `table`, never mutates it, and runs on its int pairs, and
`SpanCache` keeps one such span for the defect search and for the relation
closure.
"""

from __future__ import annotations

from .linalg import SpanBuilder, as_pair
from .terms import state_weight

_VAC = {(): 1}, 1


def generated_span(states, table, max_weight: int) -> dict:
    """Weight-by-weight span of everything reachable from `states`.

    Reachable means: repeated application of creation modes u^i_{-n}
    (n >= 1) and re-embeddings v |-> (v)_{-s}|vac> (s >= 2), the two
    moves that never produce a new top-level generator.  Returns a dict
    mapping each weight <= max_weight to a SpanBuilder over that graded
    piece.  States already in the span are not expanded twice, so the
    construction is linear in the dimension of the answer.  A state is a
    dict with Fraction coefficients or an engine pair (ints, den); every
    state the span reaches stays a pair, built by the engine's pair
    methods, and goes into the SpanBuilder as such.

    Each re-embedding runs the iterate formula (`Engine.iterate_pair`),
    which holds on every presentation.  The vacuum axiom would give
    D^(s-1) v / (s-1)! instead, but only where the engine's mode action
    represents a vertex algebra, which is what a Jacobi defect fails: on
    the bundled lattice the two differ, by an element of the span of the
    defects, on two PBW words of weight 6 (at s = 3 or 4).
    """
    weights = table.weights
    # spans[w] holds words of weight w: (len, word) orders like word_sort_key
    spans = {w: SpanBuilder(lambda wd: (len(wd), wd))
             for w in range(max_weight + 1)}
    frontier = {w: [] for w in range(max_weight + 1)}
    for x in map(as_pair, states):
        if not x[0]:
            continue
        wx = state_weight(x[0], weights)
        if wx <= max_weight and spans[wx].add(x):
            frontier[wx].append(x)
    for w in range(max_weight + 1):
        for x in frontier[w]:
            for i in range(len(weights)):
                n = 1
                while w + weights[i] + n - 1 <= max_weight:
                    nw = w + weights[i] + n - 1
                    y = table.act_pair((i, -n), x)
                    if y[0] and spans[nw].add(y):
                        frontier[nw].append(y)
                    n += 1
            for s in range(2, max_weight - w + 2):
                y = table.iterate_pair(x, -s, _VAC)
                if y[0] and spans[w + s - 1].add(y):
                    frontier[w + s - 1].append(y)
    return spans


class SpanCache:
    """The span of a growing list of engine pairs `states`, as `build`
    (`generated_span`, passed by the caller) makes it; `contains` rebuilds
    it only when the list grew or a larger weight is asked for."""

    def __init__(self, build, table):
        self.build, self.table = build, table
        self.states: list = []
        self._built = 0, -1     # (len(states), max weight) of `_spans`
        self._spans = None

    def contains(self, state) -> bool:
        """Whether the nonzero homogeneous pair `state` lies in the span."""
        if not self.states:
            return False
        w = state_weight(state[0], self.table.weights)
        n, top = self._built
        if n != len(self.states) or top < w:
            self._built = len(self.states), max(w, top)
            self._spans = self.build(self.states, self.table, self._built[1])
        return self._spans[w].contains(state)
