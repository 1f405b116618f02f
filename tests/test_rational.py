import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from axoball.rational import format_rational, parse_rational
from conftest import DIGIT_LIMIT, needs_digit_limit


def test_accepts_ints_fractions_and_strings():
    assert parse_rational(5) == 5
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("  4/6 ") == Fraction(2, 3)


def test_decimal_strings_convert_exactly():
    # 0.1 the decimal, not the binary float nearest to it
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("2e-3") == Fraction(1, 500)
    assert parse_rational("-2.5e-3") == Fraction(-1, 400)


def test_binary_floats_are_refused():
    with pytest.raises(ValueError, match="binary float"):
        parse_rational(0.1)


def test_booleans_are_refused():
    with pytest.raises(ValueError, match="boolean"):
        parse_rational(True)


def test_zero_denominator_is_named():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_malformed_text():
    with pytest.raises(ValueError, match="not a rational number"):
        parse_rational("three halves")
    with pytest.raises(ValueError, match="got NoneType"):
        parse_rational(None)


class NoFraction(Fraction):
    """Stands in for ``rational.Fraction``: building any value fails."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("built a Fraction from a refused exponent")


@needs_digit_limit
@pytest.mark.parametrize(
    "text",
    [
        f"1e{DIGIT_LIMIT + 1}",
        f"-2.5E-{DIGIT_LIMIT + 1}",
        ".5e+2000000",
        "1e2_000_000",
        "1e" + "9" * (DIGIT_LIMIT + 1),
    ],
    ids=["past-limit", "negative", "two-million", "underscores", "long-exponent"],
)
def test_exponent_past_the_digit_limit_is_refused_unbuilt(monkeypatch, text):
    # ten to such a power is never built: the refusal comes first
    import axoball.rational as rational_mod

    monkeypatch.setattr(rational_mod, "Fraction", NoFraction)
    message = re.escape(f"more than {DIGIT_LIMIT} digits (Python's int-to-str limit) in")
    with pytest.raises(ValueError, match=message):
        parse_rational(text)


@needs_digit_limit
def test_exponent_at_the_digit_limit_is_served():
    assert parse_rational(f"1e{DIGIT_LIMIT}") == 10**DIGIT_LIMIT
    assert parse_rational(f"-1e-{DIGIT_LIMIT}") == Fraction(-1, 10**DIGIT_LIMIT)
    # text that is no decimal keeps its own message, however large its tail
    for text in (f"xe{DIGIT_LIMIT + 1}", f"1/2e{DIGIT_LIMIT + 1}", "_1e99999"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


def test_format_is_canonical():
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(0) == "0"


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q
