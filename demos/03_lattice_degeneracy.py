"""Detect degeneracy and still pin down a 7-dimensional Zhu algebra.

The rank-1 lattice presentation (a of weight 1, ea and em of weight 2,
<a, a> = 4) is degenerate: two Jacobi defects survive.  Treating the
defects as closure seeds emits one extra relation, the only image that
is new modulo the commutators, and it cuts the Zhu algebra down to
dimension 7; an independent 5x5 matrix model satisfies every relation.
"""

from fractions import Fraction

from zhuforge import (
    c1_singular_elements,
    check_matrix_model,
    complete_table,
    load_bundled,
    quotient_basis,
    relation_closure,
)

p = load_bundled("lattice_rank1_norm4")
table = complete_table(p)
print("presentation:", p.name)

defects = c1_singular_elements(p, table)
print("\nJacobi defects (the triple products that witness degeneracy):")
for d in defects:
    print("  indices %s: %s" % (d.indices, p.render_state(d.value)))
print("non-confluent rewriting: different reduction orders differ by")
print("multiples of these weight-3 states.")

seeds = [("defect%s" % (d.indices,), d.value) for d in defects]
zp = relation_closure(seeds, p, table, defects=defects)
print("\nclosure status:", zp.status)
print("extra relations on top of the three commutator relations:")
for rel, tag in zip(zp.extra_relations, zp.provenance):
    chain = "".join("%s_%d " % (sym, m) for sym, m in tag["chain"])
    print("  o(%s%s) = %s" % (chain, tag["seed"], rel.render(p.symbols)))

model = quotient_basis(zp, degree_bound=10)
print("\nquotient dimension:", model.dimension, "(%s)" % model.status)
print("basis monomials:", ", ".join(
    "*".join("x_" + zp.generators[i] for i in mono) or "1"
    for mono in model.basis))

def diag(*entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0)
             for j in range(n)] for i in range(n)]

def unit(n, row, col):
    return [[Fraction(1) if (i, j) == (row, col) else Fraction(0)
             for j in range(n)] for i in range(n)]

matrices = {"a": diag(0, 2, -2, 1, -1),
            "ea": unit(5, 1, 2),
            "em": unit(5, 2, 1)}
ok, failing = check_matrix_model(zp, matrices)
print("\n5x5 matrix model (x_a diagonal, x_ea and x_em matrix units):",
      "accepted" if ok else "REJECTED %s" % failing)
