"""Exact rational scalars and their text encoding.

Every closed-form quantity in this package is a rational number, so the
scalar type throughout is the stdlib ``fractions.Fraction`` (always reduced,
denominator positive, arithmetic exact and closed).  This module pins the
text encoding used at the I/O boundary: ``"p/q"`` or integer or decimal
strings in, canonical ``"p"`` / ``"p/q"`` strings out.  Decimal input
converts exactly through power-of-ten denominators, never through binary
floats.  The text grammar is ASCII, read in one pass::

    [+-] ( digits/digits | digits[.digits][(e|E)[+-]digits] )

where digits are ``[0-9]+`` and a decimal may leave out the digits on one
side of its point (``"5."``, ``".5"``), not both.  No whitespace, no
underscores and no other script's digits: ``" 1 "`` and ``"1_000"`` are
refused.  Every JSON number's text is in the grammar, and every text in it
has the value ``Fraction(text)`` gives it.
"""

import re
import sys
from fractions import Fraction

# Python's int-to-str digit limit as it stands, or 0 on a Python without one
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# Python's default digit limit, which bounds a decimal exponent where the
# limit is 0 (switched off, or a Python without one)
_DEFAULT_DIGITS = 4300

# sign, then p/q (groups 2, 3) or whole, fraction and exponent (groups 4-6);
# the lookahead asks for a digit on one side of the point at least
_RATIONAL = re.compile(
    r"([-+]?)(?:([0-9]+)/([0-9]+)"
    r"|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)"
)


def parse_rational(value):
    """Convert ``value`` into an exact Fraction.

    Accepts ints, Fractions, and strings in the module's grammar such as
    ``"3"``, ``"-7/2"``, ``"1.25"`` or ``"2e-3"``.  Binary floats are
    rejected: a float literal has already lost its decimal identity, so
    callers must keep decimals as text up to this point.

    Raises ValueError with a readable message on text outside the grammar,
    a zero denominator, or more digits than Python turns into an integer
    (its int_max_str_digits limit, 4300 by default, which is left alone).
    A decimal exponent past that limit, or past 4300 where the limit is 0,
    is refused before any Fraction is built: ten to that power would be
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
    match = _RATIONAL.fullmatch(value)
    reason = "not a rational number:"
    if match is not None:
        sign, num, den, whole, digits, exponent = match.groups()
        limit = _digit_limit()
        bound, which = (limit, "") if limit else (_DEFAULT_DIGITS, "default ")
        try:
            if num is not None:
                num, den = int(num), int(den)
            else:
                # int() refuses text past the limit before any power is built
                num, frac = int(whole or "0"), int(digits or "0")
                den = 10 ** len(digits or "")
                num = num * den + frac
                if not num:
                    # zero times ten to any power, the power never built
                    return Fraction(0)
                if exponent:
                    power = int(exponent)
                    if abs(power) > bound:
                        raise ValueError  # refused as text past the limit is
                    num, den = num * 10 ** max(power, 0), den * 10 ** max(-power, 0)
        except ValueError:
            reason = f"more than {bound} digits (Python's {which}int-to-str limit) in"
        else:
            if den:
                return Fraction(-num if sign == "-" else num, den)
            reason = "zero denominator in"
    # a huge input is echoed only by its first 40 characters
    shown = value if len(value) <= 40 else value[:40] + "..."
    raise ValueError(f"{reason} {shown!r}")


# kept for the benchmark's per-layer metrics, which name it; reports use str
def format_rational(q):
    """Canonical text form of an int or a Fraction, ``"p"`` or ``"p/q"``;
    round-trips exactly."""
    return str(q)
