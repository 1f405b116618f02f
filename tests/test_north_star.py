"""The north star's float cells on a problem whose b cancel.

b holds the monomial coefficients of the Legendre polynomial P_60, at
radius 1: every sum of b's monomial terms cancels to a value far below
its largest term.  ``axoball profile`` prints 101 samples of sigma and u
over span 3, and each printed value is compared with the exact value at
the printed point, rounded once.  The exact value is one integer Horner
sum over the numerators, then one int true division: sigma from the
density's c, taken from ``references.solve_by_entries``, and u from the
moments m_k = r^(k-1) b_k, by the branch of its point.  Each cell holds
within 1e-12 of its column's largest exact magnitude.

Each cell that fails today is a strict expected failure naming its
ROADMAP item: 1A for sigma, 1B for ``solve --verify``, 1C for u.
"""

import csv
import io
import json
from fractions import Fraction
from math import comb, lcm

import pytest

import references
from axoball import PotentialSpec
from axoball.cli import main

DEGREE = 60
RADIUS = Fraction(1)
EPSILON0 = Fraction(1)


def legendre_monomials(n):
    """The monomial coefficients of P_n, constant term first:
    P_n(x) = 2^-n sum_k (-1)^k C(n, k) C(2n - 2k, n) x^(n-2k)."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        term = comb(n, k) * comb(2 * n - 2 * k, n)
        coeffs[n - 2 * k] = Fraction(-term if k % 2 else term, 2**n)
    return coeffs


B = legendre_monomials(DEGREE)


def horner(nums, x):
    """sum_k nums[k] x^k for integers nums and a rational x = X / D, as
    the integer pair (sum_k nums[k] X^k D^(n-k), D^n), n = len(nums) - 1,
    by Horner's rule in integers."""
    big_x, big_d = x.numerator, x.denominator
    acc, power = 0, 1
    for num in reversed(nums):
        acc = acc * big_x + num * power
        power *= big_d
    return acc, power // big_d


def numerators(values):
    """The integer numerators of ``values`` over their least common
    denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_sigma(c, z):
    """sigma(z) = (2 eps0 / r) sum_j c_j z^(j-1), exact, rounded once."""
    nums, den = numerators(c)
    acc, power = horner(nums, Fraction(z))
    scale = 2 * EPSILON0 / RADIUS
    return scale.numerator * acc / (scale.denominator * den * power)


def exact_u(s):
    """u(s) = sum_k m_k xi^(k-1) inside the ball and
    (1/|xi|) sum_k m_k xi^-(k-1) outside, xi = s/r, m_k = r^(k-1) b_k:
    exact, rounded once."""
    nums, den = numerators([RADIUS**k * b for k, b in enumerate(B)])
    xi = Fraction(s) / RADIUS
    if abs(xi) <= 1:
        acc, power = horner(nums, xi)
        return acc / (den * power)
    acc, power = horner(nums, 1 / xi)
    return acc * xi.denominator / (den * power * abs(xi.numerator))


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("north-star") / "p60.json"
    body = {
        "radius": str(RADIUS),
        "coeffs_b": [str(b) for b in B],
        "epsilon0": str(EPSILON0),
        "profile": {"samples": 101, "span": "3"},
    }
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def printed(problem_file):
    """The columns ``axoball profile`` prints, as floats."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdout", out)
        assert main(["profile", str(problem_file)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == 101
    return {key: [float(row[key]) for row in rows] for key in ("z", "sigma", "s", "u")}


def relative_error(got, want):
    """The largest error of a column over its largest exact magnitude."""
    return max(abs(g - w) for g, w in zip(got, want)) / max(map(abs, want))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1C: u sums the input's monomial b in floats, and "
    "its terms cancel",
)
def test_u_cells_of_the_cancelling_row(printed):
    want = [exact_u(s) for s in printed["s"]]
    assert relative_error(printed["u"], want) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1A: ChargeDensity.sigma sums the monomial form in "
    "floats, and its terms cancel",
)
def test_sigma_cells_of_the_cancelling_row(printed):
    c = references.solve_by_entries(PotentialSpec(RADIUS, B, EPSILON0))
    want = [exact_sigma(c, z) for z in printed["z"]]
    assert relative_error(printed["sigma"], want) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1B: the oracle's equation residual and continuity "
    "checks read monomial float views, and false-fail",
)
def test_verify_passes_on_the_cancelling_row(problem_file):
    assert main(["solve", "--verify", str(problem_file)]) == 0
