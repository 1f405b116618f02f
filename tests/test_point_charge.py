"""The grounded ball in a point charge's field against ``build_report``:
the exact charge, dipole, moments and force of every truncation, and the
float samplers against Kelvin's image at degrees where the truncation is
below roundoff.  Any potential of moderate degree is the truncated field
of as many point charges, so its moments are their image moments summed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoball import (
    PotentialSpec,
    build_report,
    induced_axis_potential,
    multipole_moments,
    solve_charge_density,
)
from pins import problem
from references import (
    image_axis_potential,
    image_charge,
    image_density,
    image_dipole,
    image_force,
    image_moment,
    point_charge_field,
    source_charges,
)

R, A = Fraction(7, 3), Fraction(5)


def assert_image_report(r, a, n, moments):
    report = build_report(PotentialSpec(r, point_charge_field(a, n)), moments)
    assert report.charge_Q.coeff == image_charge(r, a)
    if n >= 1:
        assert report.dipole_D.coeff == image_dipole(r, a)
    for m in moments:
        assert report.multipoles[m].coeff == image_moment(r, a, m)
    assert report.force_F.coeff == image_force(r, a, n)


@pytest.mark.parametrize(
    "n, moments",
    [(10, tuple(range(11))), (200, (0, 7, 50, 200)), (400, (400,))],
)
def test_point_charge_report_is_the_image_report(n, moments):
    assert_image_report(R, A, n, moments)


@st.composite
def image_problems(draw):
    r = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    a = r + Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    n = draw(st.integers(0, 400))
    moments = draw(st.lists(st.integers(0, n), min_size=1, max_size=3, unique=True))
    return r, a, n, tuple(moments)


@given(image_problems())
@settings(max_examples=10, deadline=None)
def test_any_point_charge_report_is_the_image_report(problem):
    assert_image_report(*problem)


def assert_source_moments(spec):
    """Every moment of order m <= n of the degree-n spec is the sum of the
    image moments of the point charges whose truncated field is its b."""
    r, b, n = spec.radius, spec.coeffs_b, spec.degree
    charges = source_charges(b, r)
    fields = [point_charge_field(a, n) for a, _ in charges]
    assert tuple(
        sum(q * field[k] for (_, q), field in zip(charges, fields)) for k in range(n + 1)
    ) == b
    moments = multipole_moments(solve_charge_density(spec), range(n + 1))
    for m in range(n + 1):
        assert moments[m].coeff == sum(q * image_moment(r, a, m) for a, q in charges)


@given(
    r=st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
    b=st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
        min_size=1,
        max_size=13,
    ),
)
@settings(max_examples=25, deadline=None)
def test_any_potential_has_the_moments_of_its_source_charges(r, b):
    assert_source_moments(PotentialSpec(r, tuple(b)))


def test_the_degree_30_pin_has_the_moments_of_its_source_charges():
    body = problem(30)
    assert_source_moments(PotentialSpec(body["radius"], body["coeffs_b"]))


def samples(r, span, count=101):
    """count floats spread evenly over span * [-r, r], as the profile's."""
    m = count - 1
    return [float(span * r * (2 * k - m) / m) for k in range(count)]


@pytest.mark.parametrize("a, n", [(5, 200), (3, 200), (3, 400)])
def test_induced_axis_potential_is_the_image_potential(a, n):
    report = build_report(PotentialSpec(R, point_charge_field(a, n)))
    points = samples(R, 2)
    got = induced_axis_potential(report.density, points)
    want = [image_axis_potential(float(R), a, s) for s in points]
    scale = max(map(abs, want))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * scale


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: ChargeDensity.sigma sums the monomial form in "
    "floats, and its terms cancel",
)
def test_sigma_is_the_image_density():
    density = build_report(PotentialSpec(R, point_charge_field(A, 200), 1.0)).density
    points = samples(R, 1)
    want = [image_density(float(R), float(A), z, 1.0) for z in points]
    scale = max(map(abs, want))
    gap = max(abs(g - w) for g, w in zip(density.sigma(points), want))
    assert gap <= 1e-12 * scale
