"""Words, states, and exact scalars.

The whole package computes inside the free associative span of *mode words*

    u^{i_1}_{m_1} u^{i_2}_{m_2} ... u^{i_r}_{m_r} |vac>

where each u^i is a generator of some fixed weight and each mode m is an
integer.  A word is a tuple of (generator_index, mode) pairs, leftmost
operator applied last; the vacuum at the right end is implicit, so the empty
word () denotes the vacuum itself.  A state is a finite linear combination of
words with rational coefficients, stored as a dict word -> Fraction (or int)
with no zero entries.  The rewrite engine keeps its memoized states as int
numerators over one common denominator (see `engine`); its pair methods
return such pairs, and its public Fraction methods return states with
Fraction coefficients.

The mode u^i_m carries weight wt(u^i) - m - 1 and a word weighs the sum of its
mode weights.  Two grading facts drive every truncation in the package:

  * any word with a right suffix of negative total weight is zero, and
  * in the vacuum convention, any word whose rightmost mode is >= 0 is zero
    (u_m |vac> = 0 for m >= 0).

The second rule is switched off in the "top-level" convention used for Zhu
images, where u_m acting on the auxiliary vector survives whenever the weight
rule allows it.  Both zero tests live here so that every module agrees on
them exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

Scalar = Fraction
ONE = Fraction(1)

# Vacuum conventions for the zero test.
VACUUM = "vacuum"
TOP_LEVEL = "top-level"


@functools.lru_cache(maxsize=None)
def binom(n: int, r: int) -> int:
    """Generalized binomial C(n, r) for integer n (possibly negative), r >= 0."""
    if r < 0:
        return 0
    num = 1
    for t in range(r):
        num *= n - t
    return num // math.factorial(r)


def neg_one_pow(n: int) -> int:
    """(-1)**n, safe for negative n (Python's ** returns a float there)."""
    return -1 if n % 2 else 1


def op_weight(op, weights) -> int:
    i, m = op
    return weights[i] - m - 1


def word_weight(word, weights) -> int:
    return sum(weights[i] - m - 1 for i, m in word)


def is_zero_word(word, weights, convention=VACUUM) -> bool:
    """True when the word is zero by grading or vacuum annihilation."""
    if convention == VACUUM and word and word[-1][1] >= 0:
        return True
    suffix = 0
    for i, m in reversed(word):
        suffix += weights[i] - m - 1
        if suffix < 0:
            return True
    return False


# ---------------------------------------------------------------------------
# state arithmetic


def state_iadd(target: dict, source: dict, factor: Scalar = ONE) -> dict:
    """target += factor * source, in place; zero entries removed.  A new
    entry starts from the int 0, so int coefficients and an int factor
    give int entries: int in, int out."""
    if not factor:
        return target
    for word, coeff in source.items():
        new = target.get(word, 0) + factor * coeff
        if new:
            target[word] = new
        else:
            target.pop(word, None)
    return target


def state_weight(s: dict, weights) -> int:
    """Weight of a homogeneous state; raises on mixed input."""
    found = {word_weight(w, weights) for w in s}
    if len(found) != 1:
        raise ValueError(f"state is not homogeneous: weights {sorted(found)}")
    return found.pop()


# ---------------------------------------------------------------------------
# parsing and rendering

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<sym>[A-Za-z][A-Za-z0-9^']*)"
                    r"\((?P<mode>-?\d+)\)|(?P<sign>[+-])|(?P<star>\*))")


def scalar_to_string(x: Scalar) -> str:
    """The rational string of `x`: an int or a Fraction as it prints, any
    other scalar (a bool, a string) through `Fraction`."""
    return str(x) if type(x) in (int, Fraction) else str(Fraction(x))


def parse_state(text: str, symbol_index: dict) -> dict:
    """Parse an inline state expression into a dict word -> Fraction.

    Grammar: terms joined by + or -; each term is an optional rational
    coefficient (with optional *) followed by a juxtaposed run of ops
    sym(mode); a trailing `1` for the vacuum is permitted and a bare `1`
    denotes the vacuum itself.  A sign or a * with no term after it raises
    ValueError, as does any other malformed input.  Examples:

        w(-2)                          one word
        2 w(-1)w(-1) - 1/3 w(-3)       two words
        3/2 1                          the vacuum, scaled
        w(-1)w(-3)1                    trailing vacuum marker, same as w(-1)w(-3)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty state expression")
    if re.search(r"[-+*]\s*(?:[-+*]|$)", text):
        raise ValueError(f"a sign or * with no term after it in {text!r}")
    pos, n = 0, len(text)
    out: dict = {}
    sign = ONE
    coeff = None
    word: list = []
    pending = False
    closed = False  # term ended by an explicit vacuum marker

    def flush():
        nonlocal coeff, word, pending, sign, closed
        if pending:
            c = sign * (coeff if coeff is not None else ONE)
            if c:
                state_iadd(out, {tuple(word): c})
            sign, coeff, word, pending, closed = ONE, None, [], False, False

    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse state expression at: {text[pos:]!r}")
        pos = m.end()
        if m.group("sign"):
            flush()
            sign = -sign if m.group("sign") == "-" else sign
        elif m.group("num"):
            if word or closed:
                if m.group("num") == "1" and not closed:
                    closed = True  # trailing vacuum marker after ops
                else:
                    raise ValueError(f"unexpected number inside a term in {text!r}")
            elif coeff is None:
                try:
                    coeff, pending = Fraction(m.group("num")), True
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {text!r}") from None
            elif m.group("num") == "1":
                closed = True  # coefficient times the bare vacuum
            else:
                raise ValueError(f"two coefficients in one term in {text!r}")
        elif m.group("star"):
            if coeff is None or word or closed:
                raise ValueError(f"stray * in {text!r}")
        else:
            if closed:
                raise ValueError(f"operator after vacuum marker in {text!r}")
            sym = m.group("sym")
            if sym not in symbol_index:
                raise ValueError(f"unknown generator symbol {sym!r} in {text!r}")
            word.append((symbol_index[sym], int(m.group("mode"))))
            pending = True
    flush()
    return out


def render_word(ops) -> str:
    """The word whose operators are the (symbol, mode) pairs `ops`, e.g.
    ``w(-2)v(-1)``; "1" for the vacuum."""
    return "".join(f"{sym}({m})" for sym, m in ops) or "1"


def word_sort_key(word, weights):
    return (word_weight(word, weights), len(word), word)


def render_sum(terms) -> str:
    """The sum of the ordered (coeff, body) pairs as text, e.g.
    ``-1/9*x_w^2 + x_v``; the body "1" of the unit shows its coefficient
    alone, and the empty sum is "0"."""
    if not terms:
        return "0"
    parts = []
    for coeff, body in terms:
        mag = abs(coeff)
        if body == "1":
            piece = scalar_to_string(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{scalar_to_string(mag)}*{body}"
        parts.append(("- " if coeff < 0 else "+ ") + piece)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def render_monomial(symbols) -> str:
    """The monomial whose letters have the generator `symbols`, in order,
    e.g. ``x_a^2*x_b`` for a, a, b; "1" for none."""
    factors = []
    for sym, run in itertools.groupby(symbols):
        count = len(list(run))
        factors.append(f"x_{sym}" if count == 1 else f"x_{sym}^{count}")
    return "*".join(factors) or "1"


def render_state(s: dict, symbols, weights) -> str:
    words = sorted(s, key=lambda w: word_sort_key(w, weights))
    return render_sum([(s[w], render_word((symbols[i], m) for i, m in w))
                       for w in words])
