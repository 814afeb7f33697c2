"""Words, states, and exact scalars.

The whole package computes inside the free associative span of *mode words*

    u^{i_1}_{m_1} u^{i_2}_{m_2} ... u^{i_r}_{m_r} |vac>

where each u^i is a generator of some fixed weight and each mode m is an
integer.  A word is a tuple of (generator_index, mode) pairs, leftmost
operator applied last; the vacuum at the right end is implicit, so the empty
word () denotes the vacuum itself.  A state is a finite linear combination of
words with rational coefficients, stored as a dict word -> Fraction (or int)
with no zero entries.  The rewrite engine keeps its memoized states as int
numerators over one common denominator (see `engine`), and every state it
returns has Fraction coefficients.

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
import math
import re
from fractions import Fraction

Scalar = Fraction
ZERO = Fraction(0)
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
    """target += factor * source, in place; zero entries removed."""
    if not factor:
        return target
    for word, coeff in source.items():
        new = target.get(word, ZERO) + factor * coeff
        if new:
            target[word] = new
        else:
            target.pop(word, None)
    return target


def state_scale(s: dict, factor: Scalar) -> dict:
    if not factor:
        return {}
    return {w: factor * c for w, c in s.items()}


def state_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    state_iadd(out, b, -ONE)
    return out


def state_weights(s: dict, weights) -> set:
    return {word_weight(w, weights) for w in s}


def state_weight(s: dict, weights) -> int:
    """Weight of a homogeneous state; raises on mixed input."""
    found = state_weights(s, weights)
    if len(found) != 1:
        raise ValueError(f"state is not homogeneous: weights {sorted(found)}")
    return found.pop()


# ---------------------------------------------------------------------------
# parsing and rendering

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<sym>[A-Za-z][A-Za-z0-9^']*)"
                    r"\((?P<mode>-?\d+)\)|(?P<sign>[+-])|(?P<star>\*))")


def scalar_from_string(text: str) -> Scalar:
    return Fraction(text)


def scalar_to_string(x: Scalar) -> str:
    return str(Fraction(x))


def parse_state(text: str, symbol_index: dict) -> dict:
    """Parse an inline state expression into a dict word -> Fraction.

    Grammar: terms joined by + or -; each term is an optional rational
    coefficient (with optional *) followed by a juxtaposed run of ops
    sym(mode); a trailing `1` for the vacuum is permitted and a bare `1`
    denotes the vacuum itself.  Examples:

        w(-2)                          one word
        2 w(-1)w(-1) - 1/3 w(-3)       two words
        3/2 1                          the vacuum, scaled
        w(-1)w(-3)1                    trailing vacuum marker, same as w(-1)w(-3)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty state expression")
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
                coeff, pending = Fraction(m.group("num")), True
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


def render_word(word, symbols) -> str:
    if not word:
        return "1"
    return "".join(f"{symbols[i]}({m})" for i, m in word)


def word_sort_key(word, weights):
    return (word_weight(word, weights), len(word), word)


def render_state(s: dict, symbols, weights) -> str:
    if not s:
        return "0"
    parts = []
    for word in sorted(s, key=lambda w: word_sort_key(w, weights)):
        coeff = s[word]
        mag = abs(coeff)
        body = render_word(word, symbols)
        if body == "1":
            piece = scalar_to_string(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{scalar_to_string(mag)}*{body}"
        parts.append(("- " if coeff < 0 else "+ ") + piece)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
