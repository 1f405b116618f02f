import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axoball import rational as rational_mod
from axoball.rational import format_rational, parse_rational
from conftest import DIGIT_LIMIT, needs_digit_limit


def test_accepts_ints_fractions_and_strings():
    assert parse_rational(5) == 5
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("  4/6 ") == Fraction(2, 3)
    assert parse_rational("007") == 7
    assert parse_rational("-0") == 0
    assert parse_rational("-12/0035") == Fraction(-12, 35)
    # digits of another script, which the plain path leaves to Fraction
    assert parse_rational("\u0663/\u0664") == Fraction(3, 4)


def test_decimal_strings_convert_exactly():
    # 0.1 the decimal, not the binary float nearest to it
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("2e-3") == Fraction(1, 500)
    assert parse_rational("-2.5e-3") == Fraction(-1, 400)
    assert parse_rational("-0.50") == Fraction(-1, 2)
    assert parse_rational("+1.5") == Fraction(3, 2)
    assert parse_rational("5.") == 5
    assert parse_rational(".5") == Fraction(1, 2)


def test_binary_floats_are_refused():
    with pytest.raises(ValueError, match="binary float"):
        parse_rational(0.1)


def test_booleans_are_refused():
    with pytest.raises(ValueError, match="boolean"):
        parse_rational(True)


def test_zero_denominator_is_named():
    for text in ("1/0", "-3/000", " 1/0 ", "+1/0"):
        with pytest.raises(ValueError, match=re.escape(f"zero denominator in {text!r}")):
            parse_rational(text)


def test_malformed_text():
    for text in ("three halves", "1/-2", "--1", "1..2", "1/2/3", "1/2.5", "-"):
        with pytest.raises(ValueError, match=re.escape(f"number: {text!r}")):
            parse_rational(text)
    with pytest.raises(ValueError, match="got NoneType"):
        parse_rational(None)


class NoFraction(Fraction):
    """Stands in for ``rational.Fraction``: building any value fails."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("built a Fraction from a refused exponent")


class ZeroOnly(Fraction):
    """Stands in for ``rational.Fraction``: only zero can be built."""

    def __new__(cls, *args, **kwargs):
        assert args == (0,), "built a Fraction from text past the digit limit"
        return Fraction(0)


@pytest.mark.parametrize(
    "text, limit",
    [
        pytest.param(f"1e{DIGIT_LIMIT + 1}", None, marks=needs_digit_limit),
        pytest.param(f"-2.5E-{DIGIT_LIMIT + 1}", None, marks=needs_digit_limit),
        pytest.param(".5e+2000000", None, marks=needs_digit_limit),
        pytest.param("1e2_000_000", None, marks=needs_digit_limit),
        pytest.param("1e" + "9" * (DIGIT_LIMIT + 1), None, marks=needs_digit_limit),
        # a limit of 0, where Python reads integers of any length: the
        # exponent is bounded by the default limit, 4300
        ("1e4301", 0),
    ],
    ids=[
        "past-limit",
        "negative",
        "two-million",
        "underscores",
        "long-exponent",
        "no-limit",
    ],
)
def test_exponent_past_the_digit_limit_is_refused_unbuilt(monkeypatch, text, limit):
    # ten to such a power is never built: the refusal comes first
    monkeypatch.setattr(rational_mod, "Fraction", NoFraction)
    if limit is None:
        message = f"more than {DIGIT_LIMIT} digits (Python's int-to-str limit) in"
    else:
        monkeypatch.setattr(rational_mod, "_digit_limit", lambda: limit)
        message = "more than 4300 digits (Python's default int-to-str limit) in"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_rational(text)


@needs_digit_limit
@pytest.mark.parametrize(
    "text",
    ["0E5000", f"-0.00e{DIGIT_LIMIT + 1}", "0e-" + "9" * (DIGIT_LIMIT + 1)],
    ids=["zero", "negative-zero", "long-exponent"],
)
def test_zero_with_an_exponent_past_the_digit_limit_is_zero(monkeypatch, text):
    # zero times ten to any power, the power never built
    monkeypatch.setattr(rational_mod, "Fraction", ZeroOnly)
    assert parse_rational(text) == 0


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


def _outcome(text):
    """parse_rational's value for text, or the message it refuses it with."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        return str(exc)


def _past_digit_limit(exponent):
    try:
        return abs(int(exponent)) > DIGIT_LIMIT
    except ValueError:  # no exponent Fraction reads
        return False


# text that the plain path reads: an integer, p/q, or a decimal with
# digits on both sides of its point, at most 40 characters
plain_texts = st.from_regex(
    r"-?[0-9]{1,24}(?:/[0-9]{1,14}|\.[0-9]{1,14})?", fullmatch=True
)
# text that it leaves to Fraction: signs, spaces, exponents, underscores,
# other scripts' digits, zero denominators, longer text
odd_texts = st.one_of(
    st.text(alphabet="0123456789-+/._eE \t\n\u0663\uff11", max_size=14),
    plain_texts.map(lambda text: f" {text}\n"),
    plain_texts.map(lambda text: "+" + text),
    plain_texts.map(lambda text: text + "e-3"),
    st.from_regex(r"-?[0-9]{1,9}/0+", fullmatch=True),
    st.from_regex(r"-?[0-9]{41,80}(?:/[1-9][0-9]{0,9})?", fullmatch=True),
)


@given(st.one_of(plain_texts, odd_texts))
@example("0E5000")
@example("1e5000")
@settings(max_examples=400)
def test_plain_path_reads_what_fraction_reads(text):
    got = _outcome(text)
    # with the plain path off, parse_rational is Fraction's path alone
    with mock.patch.object(rational_mod, "_plain", lambda text: None):
        assert _outcome(text) == got
    decimal = re.fullmatch(r"(.*)[eE]([-+]?[\d_]+)", text.strip())
    if DIGIT_LIMIT and decimal and _past_digit_limit(decimal.group(2)):
        # ten to such a power is built by neither side: a stand-in exponent
        # says whether the text is a decimal, and whether it is zero
        try:
            head = Fraction(decimal.group(1) + "e0")
        except ValueError:
            assert isinstance(got, str)
        else:
            if head == 0:
                assert type(got) is Fraction and got == 0
            else:
                assert got.startswith(f"more than {DIGIT_LIMIT} digits")
        return
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        assert isinstance(got, str)
    else:
        assert type(got) is Fraction and got == expected


@given(plain_texts)
def test_plain_text_takes_the_plain_path(text):
    value = rational_mod._plain(text)
    if re.fullmatch(r"-?[0-9]+/0+", text):
        assert value is None
    else:
        assert type(value) is Fraction and value == Fraction(text)


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q
