"""Shared test helpers: seeded random rationals, radii and problem specs,
and Python's int-to-str digit limit."""

import random
import sys
from fractions import Fraction

import pytest

from axoball import PotentialSpec, oracle


# Python's int-to-str digit limit (4300 by default, and left set), or 0
# where this Python reads and prints integers of any length
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python reads and prints integers of any length"
)


@pytest.fixture
def rng():
    return random.Random(20260825)


def random_fraction(rng, lo=-9, hi=9, max_den=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_radius(rng, max_value=10):
    # uniform-ish over (0, max_value] with denominator up to 10
    den = rng.randint(1, 10)
    return Fraction(rng.randint(1, max_value * den), den)


def random_coeffs(rng, degree):
    coeffs = [random_fraction(rng) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    return tuple(coeffs)


def random_spec(rng, max_degree=20, max_radius=10, epsilon0=1.0):
    degree = rng.randint(0, max_degree)
    return PotentialSpec(
        random_radius(rng, max_radius), random_coeffs(rng, degree), epsilon0
    )


def collocation_kernel(count):
    """The oracle's kernel table at its collocation points, count columns."""
    return oracle.axis_kernel_integral(count, oracle.CHEBYSHEV_POINTS)
