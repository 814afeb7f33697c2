"""The product and annihilator behind the x_i images.

star(u, v) is the associative product that descends to the Zhu algebra;
circ(u, v) spans the subspace it is taken modulo.  Both are sums of modes
of u applied to v, written here on `Engine.element_mode`.  zhu_image sends
a state to its straightened polynomial in x_i = (u^i applied at its top
mode), and is a homomorphism: o(u * v) = o(u) o(v) and o(u o v) = 0.
"""

from math import comb

from zhuforge import complete_table, load_bundled, zhu_image
from zhuforge.terms import state_iadd, state_weight


def zhu_product(u, v, shift):
    """sum_{j=0}^{wt} C(wt, j) (u)_{j-shift} v for u homogeneous of weight
    wt."""
    wt = state_weight(u, p.weights)
    out = {}
    for j in range(wt + 1):
        state_iadd(out, table.element_mode(u, j - shift, v), comb(wt, j))
    return out


def star(u, v):
    return zhu_product(u, v, 1)


def circ(u, v):
    return zhu_product(u, v, 2)


p = load_bundled("w3_c_minus2")
table = complete_table(p)

u = p.parse_state("w(-1)")
v = p.parse_state("v(-2)")
print("u = %s (weight 2),  v = %s (weight 4)"
      % (p.render_state(u), p.render_state(v)))

s = star(u, v)
print("\nstar(u, v) =", p.render_state(s))
print("o(u)       =", zhu_image(u, table).render(p.symbols))
print("o(v)       =", zhu_image(v, table).render(p.symbols))
print("o(u * v)   =", zhu_image(s, table).render(p.symbols))
assert zhu_image(s, table) == zhu_image(u, table) * zhu_image(v, table)
print("the image of the star product is the product of the images.")

c = circ(u, v)
print("\ncirc(u, v) =", p.render_state(c))
print("o(u o v)   =", zhu_image(c, table).render(p.symbols))
assert zhu_image(c, table).is_zero()
print("circ products always land in the kernel of o.")

# The same by distribution over a two-term state.
t = p.parse_state("w(-2) + 3 v(-1)")
st = star(u, t)
assert zhu_image(st, table) == zhu_image(u, table) * zhu_image(t, table)
print("\nchecked once more against the two-term state t = %s."
      % p.render_state(t))
