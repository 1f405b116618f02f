import logging
import math
from collections import Counter
from fractions import Fraction

import pytest

from axoball import PotentialSpec, build_report, solve_charge_density
from axoball.electrostatics import axial_force, multipole_moment
from axoball.moment_matrix import f_entry_closed_form
from axoball.oracle import (
    COLLOCATION_POINTS,
    CollocationError,
    OutOfRangeError,
    axis_kernel_integral,
    brute_force_force,
    brute_force_moment,
    chebyshev_points,
    check_report,
    collocation_solve,
    equation_residual,
    gauss_legendre,
)
from conftest import collocation_kernel, random_spec
from references import (
    axis_kernel,
    brute_force_axis_potential,
    legendre_eval,
    moment_quadrature,
)


def test_legendre_values():
    assert legendre_eval(0, 0.3) == 1.0
    assert legendre_eval(1, -0.4) == -0.4
    assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-16)
    for n in range(51):
        assert legendre_eval(n, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert legendre_eval(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-12)
    x = 0.7321
    assert legendre_eval(3, x) == pytest.approx((5 * x**3 - 3 * x) / 2, rel=1e-15)


def test_legendre_domain_and_degree_checks():
    with pytest.raises(ValueError):
        legendre_eval(2, 1.1)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)
    # a sliver of slack for roundoff at the endpoints
    legendre_eval(2, 1.0 + 1e-13)


def test_rule_weights_sum_to_two():
    for order in (1, 2, 3, 5, 8, 13, 21, 34, 40):
        rule = gauss_legendre(order)
        assert len(rule.nodes) == order
        assert abs(sum(rule.weights) - 2.0) < 1e-14
        assert all(-1.0 < x < 1.0 for x in rule.nodes)
        assert all(w > 0 for w in rule.weights)


def test_rule_is_exact_to_design_degree():
    for order in (2, 5, 11, 20):
        rule = gauss_legendre(order)
        for k in range(2 * order):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = rule.integrate([x**k for x in rule.nodes])
            assert abs(got - exact) < 1e-13


def test_rule_nodes_are_symmetric():
    rule = gauss_legendre(9)
    paired = sorted(rule.nodes)
    for lo, hi in zip(paired, reversed(paired)):
        assert abs(lo + hi) < 1e-15


def test_rule_cached():
    assert gauss_legendre(12) is gauss_legendre(12)


def test_moment_quadrature_matches_exact_entries():
    assert moment_quadrature(1, 1) == pytest.approx(2.0, abs=1e-15)
    assert moment_quadrature(2, 2) == pytest.approx(2 / 3, abs=1e-14)
    for i, j in ((3, 3), (4, 10), (7, 19), (20, 20), (1, 45)):
        assert moment_quadrature(i, j) == pytest.approx(
            float(f_entry_closed_form(i, j)), abs=1e-13
        )
    # below the diagonal: orthogonality kills the integral
    for i, j in ((3, 2), (10, 4), (25, 1)):
        assert abs(moment_quadrature(i, j)) < 1e-13


def test_moment_quadrature_bounds():
    with pytest.raises(ValueError):
        moment_quadrature(61, 1)
    with pytest.raises(ValueError):
        moment_quadrature(1, 0)


def test_kernel_integral_constant_mode():
    # int d eta / sqrt(xi^2+1-2 xi eta) is exactly 2 inside, 2/|xi| outside
    inside = (0.1, -0.35, 0.62, -0.9, 0.988)
    for k in axis_kernel_integral(1, inside)[:, 0]:
        assert k == pytest.approx(2.0, rel=1e-12)
    outside = (1.5, -2.0, 10.0)
    for xi, k in zip(outside, axis_kernel_integral(1, outside)[:, 0]):
        assert k == pytest.approx(2.0 / abs(xi), rel=1e-12)


def test_kernel_integral_matches_legendre_expansion():
    # K_j(xi) = sum_k F_{k+1,j} xi^k inside and, outside,
    # (1/|xi|) sum_k F_{k+1,j} xi^-k (the |xi| carries the sign of the
    # Coulomb prefactor on the negative axis)
    xis = (0.37, -0.81, 1.25, -3.0)
    table = axis_kernel_integral(5, xis)
    for j in (2, 3, 5):
        f = [float(f_entry_closed_form(k + 1, j)) for k in range(j)]
        for xi, row in zip(xis, table):
            if abs(xi) < 1:
                expected = sum(fk * xi**k for k, fk in enumerate(f))
            else:
                expected = sum(fk * xi**-k for k, fk in enumerate(f)) / abs(xi)
            assert row[j - 1] == pytest.approx(expected, rel=1e-11)


def test_kernel_table_is_the_recursive_rule_bit_for_bit():
    # every column at every collocation point, for each table width
    points = tuple(chebyshev_points(COLLOCATION_POINTS))
    reference = [[axis_kernel(j, xi) for j in range(1, 26)] for xi in points]
    for count in range(1, 26):
        table = axis_kernel_integral(count, points)
        assert table.shape == (COLLOCATION_POINTS, count)
        assert table.tolist() == [row[:count] for row in reference]


def test_wide_kernel_table_is_the_recursive_rule_bit_for_bit():
    points = tuple(chebyshev_points(COLLOCATION_POINTS))[::15]
    table = axis_kernel_integral(201, points)
    reference = [[axis_kernel(j, xi) for j in range(1, 202)] for xi in points]
    assert table.tolist() == reference


def test_exterior_kernel_table_is_the_recursive_rule_bit_for_bit():
    # the scaled points of the exterior Coulomb quadrature, and points
    # just outside the ball
    xis = (1.7, -1.7, 12.0, 1.5, -2.0, 1.0001, -1.01)
    table = axis_kernel_integral(8, xis)
    assert table.tolist() == [[axis_kernel(j, xi) for j in range(1, 9)] for xi in xis]


def test_panel_rule_is_antisymmetric_bit_for_bit():
    # mirrored panels share their pow calls on this exact symmetry
    rule = gauss_legendre(16)
    assert rule.nodes == tuple(-x for x in reversed(rule.nodes))
    assert rule.weights == tuple(reversed(rule.weights))


@pytest.mark.parametrize("xis", [(0.5, -0.5, 0.9988, -0.9988), (0.3,)])
@pytest.mark.parametrize("count", [1, 2, 25])
def test_mirrored_points_keep_the_recursive_rule_bit_for_bit(xis, count):
    # xi and -xi bisect into mirrored panels at every level
    table = axis_kernel_integral(count, xis)
    reference = [[axis_kernel(j, xi) for j in range(1, count + 1)] for xi in xis]
    assert table.tolist() == reference


def test_kernel_takes_one_pow_per_mirrored_pair_of_panels(monkeypatch):
    import axoball.oracle as oracle_mod

    calls = []

    def counted(base, exponent):
        calls.append((base, exponent))
        return math.pow(base, exponent)

    monkeypatch.setattr(oracle_mod, "_pow", counted)
    points = tuple(chebyshev_points(COLLOCATION_POINTS))
    axis_kernel_integral(25, points)
    # only level 0's whole-interval panel, its own mirror, repeats a
    # (|eta|, power) pair: its nodes k and 15 - k
    whole = {abs(x) for x in gauss_legendre(16).nodes}
    repeats = Counter(calls) - Counter(set(calls))
    assert {base for base, _ in repeats} == whole
    assert sum(repeats.values()) == 8 * 25
    assert len(calls) <= 104_128


def test_kernel_table_logs_its_work(monkeypatch, caplog):
    import axoball.oracle as oracle_mod

    pows = []
    panels = []
    panel_sums = oracle_mod._panel_sums

    def spy(level, index, *args):
        panels.append((level, len(index)))
        return panel_sums(level, index, *args)

    def counted(base, exponent):
        pows.append(exponent)
        return math.pow(base, exponent)

    monkeypatch.setattr(oracle_mod, "_panel_sums", spy)
    monkeypatch.setattr(oracle_mod, "_pow", counted)
    caplog.set_level(logging.DEBUG, logger="axoball")
    axis_kernel_integral(3, (0.5, -0.9))
    [record] = caplog.records
    assert (record.name, record.levelno) == ("axoball.oracle", logging.DEBUG)
    deepest = max(level for level, _ in panels)
    evaluations = sum(size for _, size in panels)
    assert record.getMessage() == (
        f"kernel table: 3 columns at 2 points, {deepest} levels deep, "
        f"{evaluations} panel evaluations, {len(pows)} pow calls"
    )


def test_kernel_table_is_built_afresh_per_call():
    # no table outlives its call: a caller may overwrite the one it got
    points = (0.25, -0.5)
    first = axis_kernel_integral(3, points)
    expected = first.tolist()
    first[:] = 0.0
    assert axis_kernel_integral(3, points).tolist() == expected


def test_kernel_table_needs_a_column():
    with pytest.raises(ValueError, match="column"):
        axis_kernel_integral(0, (0.5,))


@pytest.mark.parametrize("degree", [3, 14])
def test_check_report_builds_one_kernel_table(monkeypatch, degree):
    # the collocation solve (degree <= 10) and the residual share it
    import axoball.oracle as oracle_mod

    calls = []

    def counted(count, xis):
        calls.append((count, xis))
        return axis_kernel_integral(count, xis)

    monkeypatch.setattr(oracle_mod, "axis_kernel_integral", counted)
    report = build_report(PotentialSpec(1, tuple(range(1, degree + 2))))
    block = check_report(report)
    assert ("skipped" in block["checks"]["collocation"]) == (degree > 10)
    assert calls == [(degree + 1, tuple(chebyshev_points(COLLOCATION_POINTS)))]


def test_chebyshev_points_lie_inside():
    pts = chebyshev_points(32)
    assert len(pts) == 32
    assert all(-1 < p < 1 for p in pts)
    assert len(set(pts)) == 32


def test_collocation_recovers_constant_density():
    sol = collocation_solve(PotentialSpec(1, (1,), epsilon0=1.0), collocation_kernel(1))
    assert sol.coeffs[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.residual_norm < 1e-9


def test_collocation_recovers_linear_density():
    spec = PotentialSpec(1, (0, 1), epsilon0=1.0)
    sol = collocation_solve(spec, collocation_kernel(2))
    assert sol.coeffs[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.coeffs[1] == pytest.approx(1.5, abs=1e-9)


def test_collocation_quadratic_with_radius():
    r = 2.0
    spec = PotentialSpec(2, (0, 0, 1), epsilon0=1.0)
    sol = collocation_solve(spec, collocation_kernel(3))
    assert sol.coeffs[0] == pytest.approx(-1.25 * r * r, rel=1e-8)
    assert sol.coeffs[1] == pytest.approx(0.0, abs=1e-8)
    assert sol.coeffs[2] == pytest.approx(3.75, rel=1e-8)
    assert sol.condition_estimate < 1e6


def test_collocation_needs_enough_points():
    # degree 32 has 33 coefficients, one more than the 32 points
    with pytest.raises(ValueError, match="collocation points"):
        collocation_solve(PotentialSpec(1, (1,) * 33), collocation_kernel(33))


def test_collocation_needs_one_kernel_column_per_coefficient():
    with pytest.raises(ValueError, match="one column per coefficient"):
        collocation_solve(PotentialSpec(1, (1, 2, 3)), collocation_kernel(4))


def test_collocation_reports_residual_breach(monkeypatch):
    # an honest solve cannot reach an absurd tolerance
    import axoball.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "COLLOCATION_RESIDUAL_TOL", 1e-30)
    with pytest.raises(CollocationError, match="above 1.0e-30"):
        collocation_solve(PotentialSpec(1, (1, 2, 3)), collocation_kernel(3))


def test_equation_residual_small_for_exact_solutions(rng):
    for _ in range(5):
        density = solve_charge_density(random_spec(rng, max_degree=8, max_radius=2))
        kernel = collocation_kernel(density.degree + 1)
        assert equation_residual(density, kernel) < 1e-9


def test_brute_moment_odd_mode_vanishes():
    density = solve_charge_density(PotentialSpec(1, (4,), epsilon0=1.0))
    assert abs(brute_force_moment(density, 1)) < 1e-13


def test_brute_moment_matches_exact(rng):
    for _ in range(6):
        spec = random_spec(rng, max_degree=8, max_radius=2, epsilon0=1.0)
        density = solve_charge_density(spec)
        r = float(spec.radius)
        for m in (0, 1, 2, 5):
            brute = brute_force_moment(density, m)
            exact = float(multipole_moment(density, m))
            scale = math.pi * 8.0 * sum(
                abs(float(c)) * r ** (m + j) / (m + j)
                for j, c in enumerate(density.coeffs_c, start=1)
            )
            assert abs(brute - exact) <= 1e-10 * max(scale, 1e-30)


def test_brute_moment_order_capped():
    density = solve_charge_density(PotentialSpec(1, (1,)))
    with pytest.raises(ValueError):
        brute_force_moment(density, 41)


def test_brute_force_even_density_gives_zero():
    density = solve_charge_density(PotentialSpec(1, (3,), epsilon0=1.0))
    assert abs(brute_force_force(density)) < 1e-12


def test_brute_force_matches_exact(rng):
    for _ in range(6):
        spec = random_spec(rng, max_degree=5, max_radius=2, epsilon0=1.0)
        density = solve_charge_density(spec)
        brute = brute_force_force(density)
        exact = float(axial_force(density))
        rule = gauss_legendre(16)
        r = float(spec.radius)
        zs = [r * eta for eta in rule.nodes]
        scale = math.pi * r * rule.integrate(
            [abs(z) * v**2 for z, v in zip(zs, density.sigma(zs))]
        )
        assert abs(brute - exact) <= 1e-10 * max(scale, 1e-30)


def test_brute_axis_potential_interior_matches_negated_phi0():
    spec = PotentialSpec(1, (2, -1, Fraction(1, 2)), epsilon0=1.0)
    density = solve_charge_density(spec)
    points = (-0.6, 0.0, 0.5)
    for s, u in zip(points, brute_force_axis_potential(density, points)):
        assert u == pytest.approx(2 - s + 0.5 * s * s, rel=1e-11)


def test_brute_axis_potential_rejects_surface_points():
    density = solve_charge_density(PotentialSpec(1, (1,)))
    with pytest.raises(ValueError):
        brute_force_axis_potential(density, [0.5, 1.0])


CHECK_KEYS = {
    "collocation": [
        "max_coeff_deviation",
        "residual_norm",
        "condition_estimate",
        "tolerance",
        "passed",
    ],
    "equation_residual": ["value", "tolerance", "passed"],
    "moments": ["max_relative_deviation", "tolerance", "passed"],
    "force": ["relative_deviation", "tolerance", "passed"],
    "continuity": ["gap", "tolerance", "passed"],
}


def test_check_report_passes_a_good_degree_3_report():
    report = build_report(PotentialSpec("3/2", ("1", "-2/3", "1/2", "2")))
    block = check_report(report)
    assert list(block) == ["passed", "max_relative_deviation", "checks"]
    assert block["passed"] is True
    checks = block["checks"]
    assert {name: list(entry) for name, entry in checks.items()} == CHECK_KEYS
    for entry in checks.values():
        measured = next(iter(entry.values()))
        assert entry["passed"] is True and measured <= entry["tolerance"]
    assert [checks[name]["tolerance"] for name in CHECK_KEYS][:4] == [
        1e-8,
        1e-9,
        1e-10,
        1e-10,
    ]
    assert block["max_relative_deviation"] == max(
        checks["collocation"]["max_coeff_deviation"],
        checks["equation_residual"]["value"],
        checks["moments"]["max_relative_deviation"],
        checks["force"]["relative_deviation"],
    )


def test_check_report_cannot_check_floats_out_of_range():
    report = build_report(PotentialSpec("1e200", (1, 2, 3)))
    with pytest.raises(OutOfRangeError, match="floats leave their range"):
        check_report(report)


def test_check_report_cannot_check_moment_order_41():
    report = build_report(PotentialSpec(1, (1, 2)), moments=(0, 41))
    with pytest.raises(OutOfRangeError, match="order-41 multipole moment.*0..40"):
        check_report(report)


@pytest.mark.parametrize("name", ["brute_force_moment", "brute_force_force"])
def test_check_report_gives_no_verdict_on_nan(monkeypatch, name):
    # max() drops a NaN: a check must refuse it, never pass over it
    import axoball.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, name, lambda *args: math.nan)
    report = build_report(PotentialSpec(1, (1, 2)))
    with pytest.raises(OutOfRangeError, match="floats leave their range"):
        check_report(report)


def test_equation_residual_refuses_nan():
    # gamma_3 = +inf and gamma_5 = -inf while every float of b and c is finite
    density = solve_charge_density(PotentialSpec(10, (0, 0, 0, 0, "1e304"), 1.0))
    kernel = collocation_kernel(5)
    with pytest.raises(FloatingPointError):
        equation_residual(density, kernel)
    with pytest.raises(FloatingPointError):
        collocation_solve(density.spec, kernel)
