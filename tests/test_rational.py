import json
import re
from fractions import Fraction

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
    assert parse_rational("007") == 7
    assert parse_rational("-0") == 0
    assert parse_rational("-12/0035") == Fraction(-12, 35)


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
    for text in ("1/0", "-3/000", "+1/0", "0/0"):
        with pytest.raises(ValueError, match=re.escape(f"zero denominator in {text!r}")):
            parse_rational(text)


def test_malformed_text():
    for text in ("three halves", "1/-2", "--1", "1..2", "1/2/3", "1/2.5", "-", "."):
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
        pytest.param("1e" + "9" * (DIGIT_LIMIT + 1), None, marks=needs_digit_limit),
        # a limit of 0, where Python reads integers of any length: the
        # exponent is bounded by the default limit, 4300
        ("1e4301", 0),
    ],
    ids=[
        "past-limit",
        "negative",
        "two-million",
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


# the grammar's texts: signs, p/q, decimals with digits on one side of the
# point at least, exponents, leading zeros
grammar_texts = st.from_regex(
    r"[-+]?(?:[0-9]{1,24}/[0-9]{1,14}"
    r"|(?:[0-9]{1,24}(?:\.[0-9]{0,14})?|\.[0-9]{1,14})(?:[eE][-+]?[0-9]{1,5})?)",
    fullmatch=True,
)


# plain text: an integer, p/q, or a decimal with digits on both sides of its
# point, the grammar's commonest texts
plain_texts = st.from_regex(
    r"-?[0-9]{1,24}(?:/[0-9]{1,14}|\.[0-9]{1,14})?", fullmatch=True
)


@given(plain_texts)
@example("-12/000")
@example("0.000")
def test_plain_path_reads_what_fraction_reads(text):
    got = _outcome(text)
    if re.fullmatch(r"-?[0-9]+/0+", text):
        assert got == f"zero denominator in {text!r}"
    else:
        assert type(got) is Fraction and got == Fraction(text)


class IntsOnly(Fraction):
    """A Fraction that refuses to read text, so a parse that hands its text
    on to Fraction's own reader fails."""

    def __new__(cls, *args):
        assert not any(isinstance(arg, str) for arg in args), args
        return Fraction(*args)


@given(plain_texts.filter(lambda text: not re.fullmatch(r"-?[0-9]+/0+", text)))
def test_plain_text_takes_the_plain_path(text):
    # the one pass builds the value from ints; no text reaches Fraction
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rational_mod, "Fraction", IntsOnly)
        value = parse_rational(text)
    assert type(value) is Fraction and value == Fraction(text)


def _digits_of(zero):
    """Text with each ASCII digit swapped for the digit of another script
    whose zero is ``zero``."""
    return lambda text: re.sub("[0-9]", lambda d: chr(zero + int(d[0])), text)


# texts outside the grammar that Fraction reads on some Python: whitespace,
# underscores, Arabic-Indic and fullwidth digits
fraction_only = st.one_of(
    grammar_texts.map(lambda text: f" {text}\n"),
    grammar_texts.map(lambda text: text[:1] + "_" + text[1:]),
    grammar_texts.map(_digits_of(0x660)),
    grammar_texts.map(_digits_of(0xFF10)),
)
odd_texts = st.text(alphabet="0123456789-+/._eE \t\n\u0663\uff11", max_size=14)


@given(st.one_of(grammar_texts, fraction_only, odd_texts))
@example("0E5000")
@example("1e5000")
@example("-0.00e99999")
@example(" 1 ")
@example("1_000")
@example("\u0661")
@example("\uff11/\uff12")
@example("1/2e5000")
@example("1/-2")
@example("1..2")
@example("-")
@settings(max_examples=400)
def test_grammar_reads_what_fraction_reads(text):
    # the grammar is Fraction's ASCII texts with no whitespace or underscore
    got = _outcome(text)
    if not text.isascii() or "_" in text or any(ch.isspace() for ch in text):
        assert got.startswith("not a rational number: ")
        return
    decimal = re.fullmatch(r"(.*)[eE]([-+]?[0-9]+)", text)
    bound = DIGIT_LIMIT or 4300
    past = decimal is not None and abs(int(decimal.group(2))) > bound
    try:
        # ten to a power past the bound is built by neither side: a stand-in
        # exponent says whether the text is a decimal, and whether it is zero
        expected = Fraction(decimal.group(1) + "e0" if past else text)
    except ZeroDivisionError:
        assert got.startswith("zero denominator in ")
    except ValueError:
        assert got.startswith("not a rational number: ")
    else:
        if past and expected:
            assert got.startswith(f"more than {bound} digits")
        else:
            assert type(got) is Fraction and got == expected


# JSON number text, as json.loads hands it on with parse_float=str
json_numbers = st.one_of(
    st.from_regex(
        r"-?(?:0|[1-9][0-9]{0,24})(?:\.[0-9]{1,24})?(?:[eE][-+]?[0-9]{1,3})?",
        fullmatch=True,
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
)


@given(json_numbers)
@example("-0.5")
@example("1E+5")
@example("2.5e-3")
def test_every_json_number_is_in_the_grammar(text):
    assert parse_rational(json.loads(text, parse_float=str)) == Fraction(text)


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q
