"""The grounded ball in a point charge's field against ``build_report``:
the exact charge, dipole, moments and force of every truncation, and the
float samplers against Kelvin's image at degrees where the truncation is
below roundoff."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axoball import PotentialSpec, build_report, induced_axis_potential
from references import (
    image_axis_potential,
    image_charge,
    image_density,
    image_dipole,
    image_force,
    image_moment,
    point_charge_field,
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
