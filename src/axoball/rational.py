"""Exact rational scalars and their text encoding.

Every closed-form quantity in this package is a rational number, so the
scalar type throughout is the stdlib ``fractions.Fraction`` (always reduced,
denominator positive, arithmetic exact and closed).  This module pins the
text encoding used at the I/O boundary: ``"p/q"`` or integer or decimal
strings in, canonical ``"p"`` / ``"p/q"`` strings out.  Decimal input
converts exactly through power-of-ten denominators, never through binary
floats.  Plain ASCII text of at most 40 characters, ``-?[0-9]+``, with
``/[0-9]+`` (a nonzero denominator) or ``.[0-9]+`` after it, is read
straight into ints; every other text goes through ``Fraction``'s own
parser, which gives the same value.
"""

import re
import sys
from fractions import Fraction

# Python's int-to-str digit limit as it stands, or 0 on a Python without one
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# Python's default digit limit, which bounds a decimal exponent where the
# limit is 0 (switched off, or a Python without one)
_DEFAULT_DIGITS = 4300

# decimal text with an exponent, as Fraction reads it; group 1 is the part
# before the exponent, group 2 the exponent, whose power of ten Fraction
# builds before anything can fail
_DECIMAL_EXPONENT = re.compile(
    r"([-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)[eE]([-+]?\d+(?:_\d+)*)"
)


# plain ASCII text, read straight into ints: an integer, p/q, or a decimal
# with digits on both sides of its point; short enough that no digit limit
# applies (Python's is at least 640)
_PLAIN = re.compile(r"(-?[0-9]+)(?:([./])([0-9]+))?")
_PLAIN_LENGTH = 40


def _plain(text):
    """The value of plain text as ``Fraction(text)`` reads it, or None for
    any other text, a zero denominator among it."""
    if len(text) > _PLAIN_LENGTH:
        return None
    match = _PLAIN.fullmatch(text)
    if match is None:
        return None
    whole, point, digits = match.groups()
    if point is None:
        return Fraction(int(whole))
    if point == ".":
        return Fraction(int(whole + digits), 10 ** len(digits))
    den = int(digits)
    return Fraction(int(whole), den) if den else None


def _exponent_past(text, limit):
    """The part before the exponent of decimal text whose exponent's
    magnitude is past ``limit``, or None for any other text.  Unless that
    part is zero, the value has more digits than ``limit`` either way."""
    if "e" not in text and "E" not in text:  # cheaper than the match
        return None
    match = _DECIMAL_EXPONENT.fullmatch(text)
    if match is None:
        return None
    try:
        past = abs(int(match.group(2))) > limit
    except ValueError:  # the exponent alone has more digits than int reads
        past = True
    return match.group(1) if past else None


def parse_rational(value):
    """Convert ``value`` into an exact Fraction.

    Accepts ints, Fractions, and strings such as ``"3"``, ``"-7/2"``,
    ``"1.25"`` or ``"2e-3"``.  Binary floats are rejected: a float literal
    has already lost its decimal identity, so callers must keep decimals as
    text up to this point.

    Raises ValueError with a readable message on malformed input, a zero
    denominator, or more digits than Python turns into an integer (its
    int_max_str_digits limit, 4300 by default, which is left alone).  A
    decimal exponent past that limit, or past 4300 where the limit is 0, is
    refused before any Fraction is built: ten to that power would be
    carried through the whole solve.  Zero with such an exponent is zero,
    read without building the power.
    """
    if isinstance(value, bool):
        raise ValueError("expected a rational number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(
            "refusing to convert a binary float; pass the value as a string"
        )
    if not isinstance(value, str):
        raise ValueError(f"expected a rational number, got {type(value).__name__}")
    plain = _plain(value)
    if plain is not None:
        return plain
    text = value.strip()
    limit = _digit_limit()
    bound = limit or _DEFAULT_DIGITS
    mantissa = _exponent_past(text, bound)
    if mantissa is not None and not any(
        ch.isdecimal() and int(ch) for ch in mantissa
    ):
        # zero times ten to any power, the power never built
        return Fraction(0)
    past_limit = mantissa is not None
    if not past_limit:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            reason = "zero denominator in"
        except ValueError:
            past_limit = limit and sum(ch.isdigit() for ch in text) > limit
            reason = "not a rational number:"
    if past_limit:
        which = "" if limit else "default "
        reason = f"more than {bound} digits (Python's {which}int-to-str limit) in"
    # a huge input is echoed only by its first 40 characters
    shown = value if len(value) <= 40 else value[:40] + "..."
    raise ValueError(f"{reason} {shown!r}")


# kept for the benchmark's per-layer metrics, which name it; reports use str
def format_rational(q):
    """Canonical text form of an int or a Fraction, ``"p"`` or ``"p/q"``;
    round-trips exactly."""
    return str(q)
