"""Close a singular vector into a one-relation Zhu presentation.

The W3 presentation (weights 2 and 3, central charge -2) is
non-degenerate, so PBW words are independent and mode actions are
unambiguous.  Its stored singular vector v_s generates an ideal; chasing
zhu images of its mode descendants terminates after emitting a single
extra relation o(v_s), so the Zhu algebra is the polynomial algebra on
x_w, x_v modulo that one relation.
"""

from zhuforge import (
    c1_singular_elements,
    complete_table,
    load_bundled,
    relation_closure,
    zhu_image,
)

p = load_bundled("w3_c_minus2")
table = complete_table(p)
print("presentation:", p.name)

ok = not c1_singular_elements(p, table)
print("non-degenerate:", ok, "(no Jacobi defects among the relations)")

(name, v_s), = p.singular_vectors
print("\nsingular vector %s = %s" % (name, p.render_state(v_s)))

print("\nmode actions keep the singular ideal visibly closed:")
w1 = table.apply_mode((0, 1), v_s)
print("  w_1 %s = %s" % (name, p.render_state(w1)))
v2 = table.apply_mode((1, 2), v_s)
print("  v_2 %s = %s" % (name, p.render_state(v2)))
print("  (the second value is 98/27 times the weight-5 companion v_s')")

print("\nzhu image of the singular vector:")
print("  o(%s) = %s" % (name, zhu_image(v_s, table).render(p.symbols)))

zp = relation_closure(list(p.singular_vectors), p, table)
print("\nclosure status:", zp.status)
print("emitted extra relations:")
for rel, tag in zip(zp.extra_relations, zp.provenance):
    print("  %s  [seed %s, verdict %s]"
          % (rel.render(p.symbols), tag["seed"], tag["membership"]))
print("\nA = Q<x_w, x_v> / ([x_w, x_v], o(v_s)): a commutative quotient"
      "\nof the free algebra cut out by one extra relation.")
