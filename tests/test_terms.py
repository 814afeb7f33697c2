"""Word/state plumbing: weights, zero rules, parsing, rendering."""

from fractions import Fraction

import pytest

from zhuforge.terms import (
    TOP_LEVEL,
    VACUUM,
    binom,
    is_zero_word,
    op_weight,
    parse_state,
    render_state,
    scalar_to_string,
    state_weight,
    word_weight,
)

W = {"w": 0}          # one generator, weight 2
WEIGHTS = (2,)


def test_binomial_values():
    assert binom(5, 2) == 10
    assert binom(3, 0) == 1
    assert binom(2, 5) == 0
    # Generalized binomial for negative upper argument: C(-1, 2) = (-1)(-2)/2.
    assert binom(-1, 2) == 1
    assert binom(-2, 3) == -4


def test_op_and_word_weight():
    assert op_weight((0, -2), WEIGHTS) == 3
    assert op_weight((0, 1), WEIGHTS) == 0
    assert word_weight(((0, -2), (0, -1)), WEIGHTS) == 5
    assert word_weight((), WEIGHTS) == 0


def test_zero_rules_differ_by_convention():
    # rightmost mode >= 0 kills a word on the vacuum but not on the top level
    word = ((0, -3), (0, 1))
    assert is_zero_word(word, WEIGHTS, VACUUM)
    assert not is_zero_word(word, WEIGHTS, TOP_LEVEL)
    # a negative-weight suffix kills in both conventions
    deep = ((0, -1), (0, 3))
    assert is_zero_word(deep, WEIGHTS, VACUUM)
    assert is_zero_word(deep, WEIGHTS, TOP_LEVEL)


def test_scalar_round_trip():
    for text in ["3/2", "-1", "0", "22/7"]:
        assert scalar_to_string(Fraction(text)) == text
    # Ints print as they are; other scalars go through Fraction.
    for x, text in [(-1, "-1"), (0, "0"), (True, "1"), ("6/4", "3/2")]:
        assert scalar_to_string(x) == text


def test_parse_state_basic_forms():
    s = parse_state("2 w(-1)w(-1) - 1/3 w(-3)", W)
    assert s == {((0, -1), (0, -1)): Fraction(2), ((0, -3),): Fraction(-1, 3)}
    assert parse_state("3/2 1", W) == {(): Fraction(3, 2)}
    assert parse_state("w(-1)w(-3)1", W) == {((0, -1), (0, -3)): Fraction(1)}
    assert parse_state("w(-2) - w(-2)", W) == {}


def test_parse_state_star_and_signs():
    assert parse_state("-2*w(-2)", W) == {((0, -2),): Fraction(-2)}
    assert parse_state("+w(-2)", W) == {((0, -2),): Fraction(1)}


@pytest.mark.parametrize("bad", [
    "", "q(-2)", "w(-2)w", "2 3 w(-2)", "w(-2)1w(-3)", "*w(-2)",
    # a sign with no term after it
    "+", "-", "+ +", "w(-2) +", "--w(-2)", "w(-2) + - w(-2)",
    # a * with nothing after it, or doubled
    "3 *", "3 * * w(-2)",
])
def test_parse_state_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_state(bad, W)


def test_render_parse_round_trip():
    s = parse_state("w(-4) + 2*w(-2)w(-2) - 1/3 w(-3)w(-1)", W)
    text = render_state(s, ["w"], WEIGHTS)
    assert parse_state(text, W) == s


def test_state_weight_requires_homogeneous():
    s = parse_state("w(-2) + w(-4)", W)
    with pytest.raises(ValueError):
        state_weight(s, WEIGHTS)
    assert state_weight(parse_state("w(-2)", W), WEIGHTS) == 3
    assert state_weight(parse_state("w(-1)", W), WEIGHTS) == 2
