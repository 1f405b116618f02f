import logging
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axoball import PotentialSpec, build_report, solve_charge_density
from axoball.electrostatics import axial_force, multipole_moment
from axoball.moment_matrix import f_entry_closed_form
from axoball.oracle import (
    CHEBYSHEV_POINTS,
    COLLOCATION_MAX_DEGREE,
    COLLOCATION_POINTS,
    OutOfRangeError,
    axis_kernel_integral,
    brute_force_force,
    brute_force_moment,
    check_report,
    collocation_solve,
    equation_residual,
    gauss_legendre,
)
from conftest import collocation_kernel, random_spec
from pins import problem
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
    with pytest.raises(ValueError, match="order must be >= 1"):
        gauss_legendre(0)
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
    points = CHEBYSHEV_POINTS
    reference = [[axis_kernel(j, xi) for j in range(1, 26)] for xi in points]
    for count in range(1, 26):
        table = axis_kernel_integral(count, points)
        assert table.shape == (COLLOCATION_POINTS, count)
        assert table.tolist() == [row[:count] for row in reference]


def test_wide_kernel_table_is_the_recursive_rule_bit_for_bit():
    points = CHEBYSHEV_POINTS[::15]
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
    calls = []
    libm_pow = math.pow

    def counted(base, exponent):
        calls.append((base, exponent))
        return libm_pow(base, exponent)

    monkeypatch.setattr(math, "pow", counted)
    axis_kernel_integral(25, CHEBYSHEV_POINTS)
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
    libm_pow = math.pow

    def spy(level, index, *args):
        panels.append((level, len(index)))
        return panel_sums(level, index, *args)

    def counted(base, exponent):
        pows.append(exponent)
        return libm_pow(base, exponent)

    monkeypatch.setattr(oracle_mod, "_panel_sums", spy)
    monkeypatch.setattr(math, "pow", counted)
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


@pytest.mark.parametrize("count", [1, 4])
def test_kernel_table_at_no_points_is_empty(count):
    table = axis_kernel_integral(count, ())
    assert table.shape == (0, count)


def test_kernel_table_is_a_prefix_of_any_wider_one():
    # each (point, column) is integrated on its own, whatever the width
    points = CHEBYSHEV_POINTS
    wide = axis_kernel_integral(25, points)
    for count in range(1, 26):
        table = axis_kernel_integral(count, points)
        assert table.shape == (COLLOCATION_POINTS, count)
        assert (table == wide[:, :count]).all()
    wide = axis_kernel_integral(101, points)
    assert (axis_kernel_integral(60, points) == wide[:, :60]).all()


def reset_kernel_memo(monkeypatch):
    import axoball.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "_widest_kernel", None)


def ball_report(degree):
    return build_report(PotentialSpec(**problem(degree)))


@pytest.mark.parametrize("degree", [3, 14])
def test_check_report_builds_one_kernel_table(monkeypatch, degree):
    # the first table is COLLOCATION_POINTS columns wide and serves every
    # narrower run; a wider run builds a table of its own width.  The
    # collocation solve (degree <= 10) and the residual share the run's table
    import axoball.oracle as oracle_mod

    reset_kernel_memo(monkeypatch)
    calls = []
    handed = []

    def counted(count, xis):
        calls.append((count, xis))
        return axis_kernel_integral(count, xis)

    def spy(name):
        real = getattr(oracle_mod, name)

        def wrapped(subject, kernel):
            handed.append((name, kernel))
            return real(subject, kernel)

        monkeypatch.setattr(oracle_mod, name, wrapped)

    monkeypatch.setattr(oracle_mod, "axis_kernel_integral", counted)
    spy("collocation_solve")
    spy("equation_residual")
    points = CHEBYSHEV_POINTS
    block = check_report(build_report(PotentialSpec(1, tuple(range(1, degree + 2)))))
    assert ("skipped" in block["checks"]["collocation"]) == (degree > 10)
    assert calls == [(COLLOCATION_POINTS, points)]
    solved = ["collocation_solve"] if degree <= 10 else []
    assert [name for name, _ in handed] == solved + ["equation_residual"]
    assert all(kernel is handed[0][1] for _, kernel in handed)
    assert handed[0][1].tolist() == axis_kernel_integral(degree + 1, points).tolist()

    check_report(ball_report(degree // 2))
    check_report(ball_report(COLLOCATION_POINTS - 1))
    assert len(calls) == 1
    check_report(ball_report(COLLOCATION_POINTS + degree))
    check_report(ball_report(degree + 4))
    assert calls[1:] == [(COLLOCATION_POINTS + degree + 1, points)]


@pytest.mark.parametrize("degree", [0, 3, 10, 14, 24])
def test_check_report_block_is_independent_of_earlier_runs(monkeypatch, degree):
    # collocation runs at degrees 0, 3 and 10 and is skipped at 14 and 24;
    # the earlier run at degree 40 leaves a table wider than the first one
    report = ball_report(degree)
    blocks = []
    for earlier in (None, 40, 0):
        reset_kernel_memo(monkeypatch)
        if earlier is not None:
            check_report(ball_report(earlier))
        blocks.append(repr(check_report(report)))
    assert ("skipped" in blocks[0]) == (degree > 10)
    assert blocks[1:] == blocks[:1] * 2


def test_a_handed_out_kernel_table_is_the_callers_own(monkeypatch):
    # zeroing a table, full width or narrower, changes no later run
    import axoball.oracle as oracle_mod

    reset_kernel_memo(monkeypatch)
    report = ball_report(10)
    block = repr(check_report(report))
    for count in (11, 4):
        table = oracle_mod._chebyshev_kernel(count)
        assert table.shape == (COLLOCATION_POINTS, count)
        assert table.flags.c_contiguous
        table[:] = 0.0
    assert repr(check_report(report)) == block


def test_check_report_samples_sigma_once_per_check(monkeypatch):
    # one sigma call per moment order, and one for the force: its brute
    # force and its magnitude sum the same samples
    import axoball.oracle as oracle_mod
    from axoball.electrostatics import ChargeDensity

    sampled = []
    sigma = ChargeDensity.sigma

    def counted(density, points):
        sampled.append(len(points))
        return sigma(density, points)

    monkeypatch.setattr(ChargeDensity, "sigma", counted)
    report = build_report(PotentialSpec(2, tuple(range(1, 16))), moments=(0, 5, 9))
    block = check_report(report)
    assert block["passed"] is True
    # orders 0, 5 and 9 at degree 14 take rules of 9, 11 and 13 nodes, and
    # the force's rule takes degree + 2 = 16
    assert sampled == [9, 11, 13, 16]


def test_check_report_hashes_no_value(monkeypatch):
    # the oracle keeps nothing keyed by a density or a spec
    from axoball.electrostatics import ChargeDensity

    def unhashable(self):
        raise TypeError(f"{type(self).__name__} was hashed")

    report = ball_report(14)
    block = check_report(report)
    monkeypatch.setattr(ChargeDensity, "__hash__", unhashable)
    monkeypatch.setattr(PotentialSpec, "__hash__", unhashable)
    assert check_report(report) == block


def test_chebyshev_points_lie_inside():
    assert len(CHEBYSHEV_POINTS) == 32
    assert all(-1 < p < 1 for p in CHEBYSHEV_POINTS)
    assert len(set(CHEBYSHEV_POINTS)) == 32


def test_collocation_recovers_constant_density():
    spec = PotentialSpec(1, (1,), epsilon0=1.0)
    coeffs, residual, _, rank = collocation_solve(spec, collocation_kernel(1))
    assert coeffs[0] == pytest.approx(0.5, abs=1e-9)
    assert residual < 1e-9
    assert rank == 1


def test_collocation_recovers_linear_density():
    spec = PotentialSpec(1, (0, 1), epsilon0=1.0)
    coeffs, residual, _, rank = collocation_solve(spec, collocation_kernel(2))
    assert coeffs[0] == pytest.approx(0.0, abs=1e-9)
    assert coeffs[1] == pytest.approx(1.5, abs=1e-9)
    assert residual < 1e-9 and rank == 2


def test_collocation_quadratic_with_radius():
    r = 2.0
    spec = PotentialSpec(2, (0, 0, 1), epsilon0=1.0)
    coeffs, residual, condition, rank = collocation_solve(spec, collocation_kernel(3))
    assert coeffs[0] == pytest.approx(-1.25 * r * r, rel=1e-8)
    assert coeffs[1] == pytest.approx(0.0, abs=1e-8)
    assert coeffs[2] == pytest.approx(3.75, rel=1e-8)
    assert condition < 1e6
    assert residual < 1e-9 and rank == 3


def test_collocation_reports_residual_breach(monkeypatch):
    # an honest solve cannot reach an absurd tolerance, and the run fails
    import axoball.oracle as oracle_mod

    spec = PotentialSpec(1, (1, 2, 3))
    _, residual, _, _ = collocation_solve(spec, collocation_kernel(3))
    monkeypatch.setattr(oracle_mod, "COLLOCATION_RESIDUAL_TOL", 1e-30)
    block = check_report(build_report(spec))
    assert block["checks"]["collocation"] == {
        "error": f"collocation residual {residual:.3e} above 1.0e-30",
        "passed": False,
    }
    assert block["passed"] is False


def test_collocation_judges_the_rank_before_the_residual(monkeypatch):
    import axoball.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "COLLOCATION_RESIDUAL_TOL", 1e-30)
    monkeypatch.setattr(
        oracle_mod, "collocation_solve", lambda *args: ((0.5, 1.0, 1.5), 1.0, 1.0, 2)
    )
    block = check_report(build_report(PotentialSpec(1, (1, 2, 3))))
    assert block["checks"]["collocation"] == {
        "error": "collocation matrix rank 2 < 3",
        "passed": False,
    }
    assert block["passed"] is False


def test_collocation_pass_block_keys():
    block = check_report(ball_report(COLLOCATION_MAX_DEGREE))["checks"]["collocation"]
    assert list(block) == CHECK_KEYS["collocation"]
    assert block["passed"] is True


def test_collocation_skip_block_at_degree_11():
    block = check_report(ball_report(COLLOCATION_MAX_DEGREE + 1))["checks"]
    assert block["collocation"] == {"skipped": "degree above 10", "passed": True}


def test_equation_residual_small_for_exact_solutions(rng):
    for _ in range(5):
        density = solve_charge_density(random_spec(rng, max_degree=8, max_radius=2))
        kernel = collocation_kernel(density.degree + 1)
        assert equation_residual(density, kernel) < 1e-9


def test_brute_moment_odd_mode_vanishes():
    density = solve_charge_density(PotentialSpec(1, (4,), epsilon0=1.0))
    brute, _ = brute_force_moment(density, 1)
    assert abs(brute) < 1e-13


def test_brute_moment_matches_exact(rng):
    for _ in range(6):
        spec = random_spec(rng, max_degree=8, max_radius=2, epsilon0=1.0)
        density = solve_charge_density(spec)
        r = float(spec.radius)
        for m in (0, 1, 2, 5):
            brute, _ = brute_force_moment(density, m)
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
    brute, _ = brute_force_force(density)
    assert abs(brute) < 1e-12


def test_brute_force_matches_exact(rng):
    for _ in range(6):
        spec = random_spec(rng, max_degree=5, max_radius=2, epsilon0=1.0)
        density = solve_charge_density(spec)
        brute, _ = brute_force_force(density)
        exact = float(axial_force(density))
        rule = gauss_legendre(16)
        r = float(spec.radius)
        zs = [r * eta for eta in rule.nodes]
        scale = math.pi * r * rule.integrate(
            [abs(z) * v**2 for z, v in zip(zs, density.sigma(zs))]
        )
        assert abs(brute - exact) <= 1e-10 * max(scale, 1e-30)


def test_brute_force_checks_return_integral_and_scale(rng):
    # each scale is a finite bound on its integral.  The force's sums the
    # same terms in absolute value, so it bounds the float sum exactly.  The
    # moment's is pi eps0 * 8 sum_j |c_j| r^(m+j) / (m+j), bit for bit (here
    # eps0 = 1), the exact integral's bound, which a constant density meets
    # with equality, so the quadrature may pass it by roundoff
    for _ in range(40):
        spec = random_spec(rng, max_degree=24, max_radius=10)
        density = solve_charge_density(spec)
        r = float(spec.radius)
        force, scale = brute_force_force(density)
        assert math.isfinite(scale) and abs(force) <= scale
        for m in (0, 1, 2, 7, 40):
            moment, scale = brute_force_moment(density, m)
            assert scale == math.pi * 8.0 * sum(
                abs(float(c)) * r ** (m + j) / (m + j)
                for j, c in enumerate(density.coeffs_c, start=1)
            )
            assert math.isfinite(scale) and abs(moment) <= scale * (1 + 1e-13)


def test_brute_axis_potential_interior_matches_negated_phi0():
    spec = PotentialSpec(1, (2, -1, Fraction(1, 2)), epsilon0=1.0)
    density = solve_charge_density(spec)
    points = (-0.6, 0.0, 0.5)
    for s, u in zip(points, brute_force_axis_potential(density, points)):
        assert u == pytest.approx(2 - s + 0.5 * s * s, rel=1e-11)


def test_brute_axis_potential_at_no_points_is_empty():
    density = solve_charge_density(PotentialSpec(1, (2, -1), epsilon0=1.0))
    assert brute_force_axis_potential(density, []) == []


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


def test_check_report_takes_the_zero_potentials_gaps_as_its_deviations():
    # every scale is 0, so each deviation is its gap, and every gap is 0
    block = check_report(build_report(PotentialSpec(3, (0,))))
    assert block["passed"] is True and block["max_relative_deviation"] == 0.0
    for entry in block["checks"].values():
        assert next(iter(entry.values())) == 0.0


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
    # max() drops a NaN: a check must refuse a NaN integral or a NaN
    # scale, never pass over it
    import axoball.oracle as oracle_mod

    report = build_report(PotentialSpec(1, (1, 2)))
    for pair in [(math.nan, 1.0), (1.0, math.nan)]:
        monkeypatch.setattr(oracle_mod, name, lambda *args: pair)
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


# the verify pool's problems: radii p/q with p in 1..30 and q in 1..10,
# coefficients n/d with |n|, d <= 9, degrees 0..24, orders 0..5
pool_radii = st.builds(Fraction, st.integers(1, 30), st.integers(1, 10))
pool_coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    min_size=1,
    max_size=25,
)


def verify_block(radius, coeffs_b):
    """check_report's block at orders 0..5, or None where a check cannot
    run on the problem."""
    try:
        return check_report(build_report(PotentialSpec(radius, coeffs_b), range(6)))
    except OutOfRangeError:
        return None


def assert_same_verdict(block, scaled, k):
    """Both blocks are None, or every deviation and verdict of ``scaled``
    is block's bit for bit, and its continuity gap and tolerance are
    block's times 2^k."""
    if block is None or scaled is None:
        assert block is scaled
        return
    continuity = scaled["checks"]["continuity"]
    for key in ("gap", "tolerance"):
        continuity[key] = math.ldexp(continuity[key], -k)
    assert repr(scaled) == repr(block)


@given(radius=pool_radii, coeffs_b=pool_coeffs, k=st.integers(-200, 200))
@example(radius=Fraction(7, 3), coeffs_b=problem(19)["coeffs_b"], k=-60)
@settings(max_examples=60, deadline=None)
def test_verify_is_independent_of_the_units_of_b(radius, coeffs_b, k):
    # the charge and every moment are linear in b, and the force quadratic,
    # so b -> 2^k b scales every float of both sides exactly: each deviation
    # is a gap over its own scale, with no absolute floor, and the force's
    # brute force squares sigma in one rounding.  With |k| <= 200, sigma^2
    # stays far from overflow and from the subnormals
    scaled = [Fraction(b) * Fraction(2) ** k for b in coeffs_b]
    assert_same_verdict(verify_block(radius, coeffs_b), verify_block(radius, scaled), k)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 15b: the oracle floats r^j, so a ball scaled far "
    "enough leaves float range on one side only",
)
@given(radius=pool_radii, coeffs_b=pool_coeffs, e=st.integers(-200, 200))
@example(radius=Fraction(7, 3), coeffs_b=problem(8)["coeffs_b"], e=200)
@settings(max_examples=60, deadline=None)
def test_verify_is_independent_of_the_units_of_length(radius, coeffs_b, e):
    # r -> 2^e r with b_j -> 2^(e (1 - j)) b_j is the same field, scaled in
    # space: each deviation is scale-free, and the continuity gap and its
    # tolerance do not change
    lam = Fraction(2) ** e
    scaled = [Fraction(b) / lam**i for i, b in enumerate(coeffs_b)]
    block = verify_block(radius, coeffs_b)
    assert_same_verdict(block, verify_block(lam * radius, scaled), 0)
