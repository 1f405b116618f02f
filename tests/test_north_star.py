"""The north star's float cells, row by row.

Each row is one problem.  The pinned rows are ``pins.problem(d)`` at the
north star's degrees d = 10, 50, 100 and 200, and at 400 for
``solve --verify``.  The cancelling row holds in b the monomial
coefficients of the Legendre polynomial P_60, at radius 1: every sum of
b's monomial terms cancels to a value far below its largest term.

``axoball profile`` prints 101 samples of sigma and u over span 3, and
each printed value is compared with the exact value at the printed
point, rounded once.  The exact value is one integer Horner sum over the
numerators, then one int true division: sigma from the density's c,
taken from ``references.solve_by_entries``, and u from the moments
m_k = r^(k-1) b_k, by the branch of its point.  Each cell holds within
1e-12 of its column's largest exact magnitude.  ``solve --verify`` must
exit 0 with ``passed: true``.

Each cell that fails today is a strict expected failure naming its
ROADMAP item: 1A for sigma, 1B for ``solve --verify``, 1C for u.
"""

import csv
import functools
import io
import json
from fractions import Fraction
from math import comb, lcm

import pytest

import references
from axoball import PotentialSpec
from axoball.cli import main
from pins import problem

DEGREE = 60
RADIUS = Fraction(1)
EPSILON0 = Fraction(1)
# the pinned problem's degrees with a profile row
PINNED = (10, 50, 100, 200)
PROFILE = {"samples": 101, "span": "3"}


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


def exact_sigma(spec, c, points):
    """sigma(z) = (2 eps0 / r) sum_j c_j z^(j-1) at each z of ``points``,
    exact, rounded once."""
    nums, den = numerators(c)
    scale = 2 * Fraction(spec.epsilon0) / spec.radius
    values = []
    for z in points:
        acc, power = horner(nums, Fraction(z))
        values.append(scale.numerator * acc / (scale.denominator * den * power))
    return values


def exact_u(spec, points):
    """u(s) = sum_k m_k xi^(k-1) inside the ball and
    (1/|xi|) sum_k m_k xi^-(k-1) outside, xi = s/r, m_k = r^(k-1) b_k, at
    each s of ``points``: exact, rounded once."""
    r = spec.radius
    nums, den = numerators([r**k * b for k, b in enumerate(spec.coeffs_b)])
    values = []
    for s in points:
        xi = Fraction(s) / r
        if abs(xi) <= 1:
            acc, power = horner(nums, xi)
            values.append(acc / (den * power))
        else:
            acc, power = horner(nums, 1 / xi)
            values.append(acc * xi.denominator / (den * power * abs(xi.numerator)))
    return values


def relative_error(got, want):
    """The largest error of a column over its largest exact magnitude."""
    return max(abs(g - w) for g, w in zip(got, want)) / max(map(abs, want))


@functools.cache
def printed(path):
    """The columns ``axoball profile`` prints for the problem file at
    ``path``, as floats."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdout", out)
        assert main(["profile", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == 101
    return {key: [float(row[key]) for row in rows] for key in ("z", "sigma", "s", "u")}


def verified(path):
    """``solve --verify``'s exit code on the problem file at ``path``, and
    its verification block's ``passed``, or None where it printed none."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdout", out)
        code = main(["solve", "--verify", str(path)])
    if not out.getvalue():
        return code, None
    return code, json.loads(out.getvalue())["verification"]["passed"]


def write_problem(path, body):
    """Write ``body`` as JSON to ``path``, and return ``path``."""
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("north-star") / "p60.json"
    body = {
        "radius": str(RADIUS),
        "coeffs_b": [str(b) for b in B],
        "epsilon0": str(EPSILON0),
        "profile": PROFILE,
    }
    return write_problem(path, body)


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    """The pinned problem's file at each degree, with its profile."""
    directory = tmp_path_factory.mktemp("pinned")
    files = {}
    for d in (*PINNED, 400):
        body = dict(problem(d), profile=PROFILE)
        files[d] = write_problem(directory / f"degree-{d}.json", body)
    return files


def pinned_spec(degree):
    body = problem(degree)
    return PotentialSpec(body["radius"], body["coeffs_b"])


def xfail(item, why):
    """A strict expected failure whose reason names its ROADMAP item."""
    reason = f"ROADMAP item {item}: {why}"
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


SIGMA_1A = xfail(
    "1A", "ChargeDensity.sigma sums the monomial form in floats, and its terms cancel"
)
VERIFY_1B = xfail(
    "1B",
    "the oracle's equation residual and force checks read monomial float "
    "views, and false-fail",
)
VERIFY_1B_RANGE = xfail(
    "1B",
    "the oracle's force check reads monomial float views, and its floats "
    "leave their range",
)


@pytest.mark.parametrize("degree", PINNED)
def test_u_cells_of_the_pinned_problem(pinned_files, degree):
    columns = printed(pinned_files[degree])
    want = exact_u(pinned_spec(degree), columns["s"])
    assert relative_error(columns["u"], want) <= 1e-12


@pytest.mark.parametrize(
    "degree", [10, *(pytest.param(d, marks=SIGMA_1A) for d in (50, 100, 200))]
)
def test_sigma_cells_of_the_pinned_problem(pinned_files, degree):
    columns = printed(pinned_files[degree])
    spec = pinned_spec(degree)
    want = exact_sigma(spec, references.solve_by_entries(spec), columns["z"])
    assert relative_error(columns["sigma"], want) <= 1e-12


@pytest.mark.parametrize(
    "degree",
    [
        10,
        *(pytest.param(d, marks=VERIFY_1B) for d in (50, 100, 200)),
        pytest.param(400, marks=VERIFY_1B_RANGE),
    ],
)
def test_verify_passes_on_the_pinned_problem(pinned_files, degree):
    assert verified(pinned_files[degree]) == (0, True)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1C: u sums the input's monomial b in floats, and "
    "its terms cancel",
)
def test_u_cells_of_the_cancelling_row(problem_file):
    columns = printed(problem_file)
    want = exact_u(PotentialSpec(RADIUS, B, EPSILON0), columns["s"])
    assert relative_error(columns["u"], want) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1A: ChargeDensity.sigma sums the monomial form in "
    "floats, and its terms cancel",
)
def test_sigma_cells_of_the_cancelling_row(problem_file):
    columns = printed(problem_file)
    spec = PotentialSpec(RADIUS, B, EPSILON0)
    want = exact_sigma(spec, references.solve_by_entries(spec), columns["z"])
    assert relative_error(columns["sigma"], want) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1B: the oracle's equation residual and continuity "
    "checks read monomial float views, and false-fail",
)
def test_verify_passes_on_the_cancelling_row(problem_file):
    assert verified(problem_file) == (0, True)
