"""Bootstrap a full product table from two stored relations.

The weight-2 generator w satisfies w_1 w = 2w and w_3 w = -1 (central
charge -2).  Everything else -- w_0 w, w_2 w, all commutators, all normal
forms -- is derived mechanically: skew symmetry fills in the mirrored
products, and the diagonal recursion fills in the even modes from the
stored odd ones.
"""

from zhuforge import complete_table, load_bundled
from zhuforge.linalg import fractional

p = load_bundled("virasoro_c_minus2")
print("presentation:", p.name)
print("generators:  ", ", ".join(
    "%s (weight %d)" % (s, w) for s, w in zip(p.symbols, p.weights)))
print("stored relations:")
for (i, j, k), value in sorted(p.relations.items()):
    print("  %s_%d %s = %s" % (p.symbols[i], k, p.symbols[j],
                               p.render_state(value)))

table = complete_table(p)
print("\ncompleted table (all nonnegative products of w with w):")
for i, j, k, value in table.entries():
    print("  w_%d w = %s" % (k, p.render_state(value) or "0"))
print("derived, not stored: w_0 w = w(-2) and w_2 w = 0.")

print("\nnormal forms reorder modes and absorb the corrections:")
for text in ("w(-1)w(-3)", "w(0)w(-3)", "w(1)w(-1)"):
    s = p.parse_state(text)
    print("  nf(%s) = %s" % (text, p.render_state(table.normal_form(s))))

print("\nthe commutator formula gives brackets that act like single modes:")
terms, den = table.bracket((0, 1), (0, -1))  # [w_1, w_-1]
# Each key is (R-word, t); a one-letter R-word u_{-1}|vac> stands for u_t.
assert terms == {(((0, -1),), -1): 2 * den}
print("  [w_1, w_-1] = 2 w_-1")
for text in ("w(-2)", "w(-3)w(-2)"):
    (word, _), = p.parse_state(text).items()
    got = fractional(*table.bracket_act((0, 1), (0, -1), word))
    single = table.apply_mode((0, -1), {word: 1})
    assert got == {w: 2 * c for w, c in single.items()}
    print("  [w_1, w_-1] %s = %s  (= 2 w_-1 %s)"
          % (text, p.render_state(got), text))
print("\nthe identity [w_1, w_-1] = 2 w_-1 checked on both states.")
