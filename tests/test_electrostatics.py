import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axoball import (
    ChargeDensity,
    ConsistencyError,
    ExactPhysical,
    PotentialSpec,
    VACUUM_PERMITTIVITY,
    axial_force,
    build_report,
    charge_legendre_moments,
    induced_axis_potential,
    multipole_moments,
    solve_charge_density,
)
from axoball import electrostatics as es_mod
from axoball import moment_matrix
from axoball.electrostatics import (
    dipole_moment,
    multipole_moment,
    reconstruct_potential,
    total_charge,
)
from axoball.moment_matrix import g_entry
from axoball.oracle import CollocationSolution, QuadratureRule
from conftest import random_coeffs, random_radius, random_spec
import references
from pins import problem
from references import brute_force_axis_potential, solve_by_entries

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
radii = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)


def test_spec_normalizes_trailing_zeros():
    spec = PotentialSpec(1, ("3", 0, "0/5", 0))
    assert spec.coeffs_b == (Fraction(3),)
    assert spec.degree == 0
    zero = PotentialSpec(1, (0, 0))
    assert zero.coeffs_b == (Fraction(0),)


def test_spec_validation():
    with pytest.raises(ValueError, match="radius"):
        PotentialSpec(0, (1,))
    with pytest.raises(ValueError, match="radius"):
        PotentialSpec(-2, (1,))
    with pytest.raises(ValueError, match="empty"):
        PotentialSpec(1, ())
    with pytest.raises(ValueError, match="binary float"):
        PotentialSpec(1, (0.5,))
    with pytest.raises(ValueError, match="epsilon0"):
        PotentialSpec(1, (1,), epsilon0=0.0)


def test_spec_epsilon0_past_float_range_is_a_value_error():
    with pytest.raises(ValueError, match="epsilon0"):
        PotentialSpec(1, (1,), Fraction(10) ** 400)


def test_samplers_refuse_values_past_float_range():
    # sigma's prefactor 2 eps0 / r and u(r) = b_1 + b_2 r overflow to inf
    density = solve_charge_density(PotentialSpec("1e-310", (1, 2), 1.0))
    with pytest.raises(FloatingPointError):
        density.sigma([0.0])
    density = solve_charge_density(PotentialSpec(1, ("1e308", "1e308")))
    assert induced_axis_potential(density, [0.0]) == [1e308]
    with pytest.raises(FloatingPointError):
        induced_axis_potential(density, [1.0])


SAMPLERS = {
    "sigma": lambda density: density.sigma([0.0]),
    "axis-potential": lambda density: induced_axis_potential(density, [0.0]),
}


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize(
    "spec, error",
    [
        # the radius floats to 0.0: sigma's 2 eps0 / r and u's s / r divide by it
        (("1e-400", ("1", "2"), 1.0), ZeroDivisionError),
        # a number too large to float: c_1, or the Legendre moment m_1
        ((1, ("1e400", "1")), OverflowError),
        # the radius itself, too large to float
        (("1e400", ("1", "2")), OverflowError),
    ],
    ids=["radius-1e-400", "coefficient-1e400", "radius-1e400"],
)
def test_samplers_raise_what_the_guard_maps(sampler, spec, error):
    # beside FloatingPointError, a sampler raises the two errors of
    # floating an exact value; the guard reports all three as bad input
    density = solve_charge_density(PotentialSpec(*spec))
    with pytest.raises(error) as raised:
        SAMPLERS[sampler](density)
    assert type(raised.value) is error
    with pytest.raises(es_mod.OutOfRangeError, match="floats leave their range in"):
        with es_mod.OutOfRangeError.guard("in a test"):
            SAMPLERS[sampler](density)


def test_exact_physical_rendering():
    q = ExactPhysical(Fraction(4), epsilon0=1.0)
    assert float(q) == 4 * math.pi
    si = ExactPhysical(Fraction(1, 2))
    assert float(si) == 0.5 * math.pi * VACUUM_PERMITTIVITY


@given(
    st.builds(
        lambda m, e: Fraction(m) * Fraction(2) ** e,
        st.integers(-(2**60), 2**60),
        st.integers(-1200, 1200),
    ),
    st.sampled_from([1.0, VACUUM_PERMITTIVITY, 1e300, 1e-300]),
)
# float(coeff) * pi * eps0 leaves the normal range on these: it gives 0.0
# for about 1.26e-99, keeps about 4 digits of 1.2566370614359174e-19, and
# raises OverflowError for about 1.11e300
@example(Fraction(4, 10**400), 1e300)
@example(Fraction(4, 10**320), 1e300)
@example(4 * Fraction(10) ** 310, VACUUM_PERMITTIVITY)
@settings(max_examples=300, deadline=None)
def test_exact_physical_float_is_the_product_rounded_once(coeff, epsilon0):
    exact = coeff * Fraction(math.pi) * Fraction(epsilon0)
    value = ExactPhysical(coeff, epsilon0=epsilon0)
    try:
        once = float(exact)
    except OverflowError:
        with pytest.raises(OverflowError):
            float(value)
    else:
        assert float(value) == once


def test_linear_potential_density():
    # c = (b1/2, 3 b2/2) regardless of radius
    spec = PotentialSpec(Fraction(7, 3), (Fraction(4), Fraction(-6, 5)))
    density = solve_charge_density(spec)
    assert density.coeffs_c == (Fraction(2), Fraction(-9, 5))


def test_uniform_field_gives_textbook_density():
    # -phi0 = E s  ->  sigma = 3 eps0 E z / r
    E = Fraction(5, 2)
    spec = PotentialSpec(1, (0, E), epsilon0=1.0)
    density = solve_charge_density(spec)
    assert density.coeffs_c == (0, 3 * E / 2)
    zs = (-0.5, 0.25, 1.0)
    for z, got in zip(zs, density.sigma(zs)):
        assert got == pytest.approx(3 * float(E) * z, rel=1e-15)


def test_pure_quadratic_density():
    b3 = Fraction(2, 7)
    r = Fraction(3, 2)
    density = solve_charge_density(PotentialSpec(r, (0, 0, b3)))
    assert density.coeffs_c == (
        Fraction(-5, 4) * r**2 * b3,
        0,
        Fraction(15, 4) * b3,
    )


def test_round_trip_through_density(rng):
    for _ in range(25):
        spec = random_spec(rng, max_degree=12)
        back = reconstruct_potential(solve_charge_density(spec))
        assert back.coeffs_b == spec.coeffs_b
        assert back.radius == spec.radius


def test_charge_closed_form(rng):
    for _ in range(20):
        spec = random_spec(rng, max_degree=10)
        q = total_charge(solve_charge_density(spec))
        assert q.coeff == 4 * spec.radius * spec.coeffs_b[0]


def test_charge_zero_cases():
    assert total_charge(solve_charge_density(PotentialSpec(1, (0, 5)))).coeff == 0
    assert total_charge(solve_charge_density(PotentialSpec(2, (0, 0, 3)))).coeff == 0


def test_dipole_closed_form(rng):
    for _ in range(20):
        spec = random_spec(rng, max_degree=10)
        d = dipole_moment(solve_charge_density(spec))
        b2 = spec.coeffs_b[1] if len(spec.coeffs_b) > 1 else 0
        assert d.coeff == 4 * spec.radius**3 * b2


def test_dipole_zero_for_even_potential():
    assert dipole_moment(solve_charge_density(PotentialSpec(1, (7,)))).coeff == 0
    assert dipole_moment(solve_charge_density(PotentialSpec(1, (0, 0, 7)))).coeff == 0


def test_multipole_collapses_to_charge_and_dipole(rng):
    for _ in range(15):
        density = solve_charge_density(random_spec(rng, max_degree=9))
        assert multipole_moment(density, 0).coeff == total_charge(density).coeff
        assert multipole_moment(density, 1).coeff == dipole_moment(density).coeff


def test_quadrupole_example():
    b1, b3 = Fraction(3), Fraction(-2, 5)
    r = Fraction(2)
    density = solve_charge_density(PotentialSpec(r, (b1, 0, b3)))
    # 2 pi eps0 (2 r^3 / 3)(b1 + 2 r^2 b3)
    assert multipole_moment(density, 2).coeff == Fraction(4, 3) * r**3 * (
        b1 + 2 * r**2 * b3
    )


def test_quadrupole_frozen_value():
    density = solve_charge_density(PotentialSpec(2, (0, 0, 1)))
    assert multipole_moment(density, 2).coeff == Fraction(256, 3)


def test_multipole_order_validation():
    density = solve_charge_density(PotentialSpec(1, (1,)))
    with pytest.raises(ValueError):
        multipole_moment(density, -1)
    with pytest.raises(ValueError):
        multipole_moment(density, True)
    with pytest.raises(ValueError):
        multipole_moment(density, 1.0)


def test_multipole_high_order_beyond_degree(rng):
    # m+1 far past the coefficient count: closed form pads b with zeros
    density = solve_charge_density(PotentialSpec(Fraction(1, 2), (1, 2)))
    for m in range(0, 15):
        multipole_moment(density, m)  # internal dual-path check must hold


def test_force_linear_case():
    b1, b2, r = Fraction(2, 3), Fraction(-5, 4), Fraction(7, 2)
    density = solve_charge_density(PotentialSpec(r, (b1, b2)))
    assert axial_force(density).coeff == 4 * r * b1 * b2


def test_force_frozen_value():
    assert axial_force(solve_charge_density(PotentialSpec(3, (1, 1)))).coeff == 12


def test_force_quadratic_case():
    b = (Fraction(1), Fraction(2), Fraction(-3))
    r = Fraction(2)
    expected = 4 * (r * b[0] * b[1] + 2 * r**3 * b[1] * b[2])
    density = solve_charge_density(PotentialSpec(r, b))
    assert axial_force(density).coeff == expected


def test_force_vanishes_without_gradient_coupling():
    assert axial_force(solve_charge_density(PotentialSpec(5, (9,)))).coeff == 0
    # uniform field on a neutral ball: no net force
    assert axial_force(solve_charge_density(PotentialSpec(5, (0, 3)))).coeff == 0


def test_density_that_does_not_solve_its_spec_is_caught():
    # closed forms read the spec's b, integrated paths the density's c
    good = solve_charge_density(PotentialSpec(2, (1, 2, 3)))
    bad = ChargeDensity(good.spec, tuple(c + 1 for c in good.coeffs_c))
    cases = [
        (total_charge, ("moment", 0)),
        (dipole_moment, ("moment", 1)),
        (axial_force, ("force", None)),
        (lambda density: multipole_moment(density, 2), ("moment", 2)),
    ]
    for quantity, (name, order) in cases:
        with pytest.raises(ConsistencyError) as caught:
            quantity(bad)
        error = caught.value
        assert (error.quantity, error.order) == (name, order)
        label = name if order is None else f"order-{order} {name}"
        assert str(error) == (
            f"{label} paths disagree: "
            f"integrated {error.integrated}, closed {error.closed}"
        )
        # the closed form reads b, so it is the good density's value
        assert error.closed == quantity(good).coeff != error.integrated


def test_parity_of_density_matches_potential(rng):
    for _ in range(10):
        even_b = []
        odd_b = []
        for k in range(rng.randint(1, 6)):
            even_b += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(0)]
            odd_b += [Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 9))]
        r = random_radius(rng)
        c_even = solve_charge_density(PotentialSpec(r, tuple(even_b))).coeffs_c
        assert all(c == 0 for c in c_even[1::2])
        spec_odd = PotentialSpec(r, tuple(odd_b))
        if len(spec_odd.coeffs_b) > 1:
            c_odd = solve_charge_density(spec_odd).coeffs_c
            assert all(c == 0 for c in c_odd[0::2])


@given(
    lam=st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=6),
    r=radii,
    data=st.lists(small_fractions, min_size=1, max_size=8),
)
@settings(max_examples=50)
def test_density_scaling_law(lam, r, data):
    # r -> lam r with b_i -> b_i / lam^(i-1) scales c_j by lam^(1-j)
    spec = PotentialSpec(r, tuple(data), epsilon0=1.0)
    scaled = PotentialSpec(
        lam * r,
        tuple(b / lam**i for i, b in enumerate(spec.coeffs_b)),
        epsilon0=1.0,
    )
    c = solve_charge_density(spec).coeffs_c
    c_scaled = solve_charge_density(scaled).coeffs_c
    assert len(c) == len(c_scaled)
    for j, (a, b) in enumerate(zip(c, c_scaled)):
        assert b == a / lam**j


def test_legendre_moments_equal_scaled_potential_coeffs(rng):
    for _ in range(20):
        spec = random_spec(rng, max_degree=10)
        density = solve_charge_density(spec)
        # the F c route: b_k = sum_j r^(j-k) F_kj c_j
        via_f = reconstruct_potential(density).coeffs_b
        expected = [spec.radius**k * b for k, b in enumerate(via_f)]
        assert charge_legendre_moments(density) == expected


def test_interior_potential_cancels_external(rng):
    for _ in range(10):
        spec = random_spec(rng, max_degree=8, max_radius=3)
        density = solve_charge_density(spec)
        r = float(spec.radius)
        points = [frac * r for frac in (-0.9, -0.3, 0.0, 0.5, 0.99)]
        for s, got in zip(points, induced_axis_potential(density, points)):
            terms = [float(b) * s**k for k, b in enumerate(spec.coeffs_b)]
            # roundoff floor scales with the terms, not with the (possibly
            # cancelled) sum
            tol = 1e-13 * (1.0 + sum(abs(t) for t in terms))
            assert abs(got - sum(terms)) <= tol


def test_branches_join_exactly_on_the_surface(rng):
    for _ in range(10):
        spec = random_spec(rng, max_degree=8, max_radius=3)
        density = solve_charge_density(spec)
        scale = 1.0 + sum(abs(float(m)) for m in charge_legendre_moments(density))
        r = float(spec.radius)
        # nudged outward by one ulp, a point takes the exterior branch
        inner = induced_axis_potential(density, [r, -r])
        outer = induced_axis_potential(
            density, [math.nextafter(s, 2 * s) for s in (r, -r)]
        )
        for u_in, u_out in zip(inner, outer):
            assert abs(u_out - u_in) <= 1e-9 * scale


def test_exterior_potential_matches_coulomb_quadrature(rng):
    for _ in range(8):
        spec = random_spec(rng, max_degree=6, max_radius=2)
        density = solve_charge_density(spec)
        scale = 1.0 + sum(abs(float(m)) for m in charge_legendre_moments(density))
        r = float(spec.radius)
        points = [1.7 * r, -1.7 * r, 12.0 * r]
        series = induced_axis_potential(density, points)
        direct = brute_force_axis_potential(density, points)
        for u, u_direct in zip(series, direct):
            assert abs(u - u_direct) <= 1e-9 * scale


def test_even_potential_has_even_axis_potential():
    density = solve_charge_density(PotentialSpec(1, (2, 0, Fraction(1, 3))))
    points = [0.4, 1.9, 5.0]
    assert induced_axis_potential(density, points) == induced_axis_potential(
        density, [-s for s in points]
    )


def test_nonfinite_coordinate_rejected():
    density = solve_charge_density(PotentialSpec(1, (1,)))
    with pytest.raises(ValueError):
        induced_axis_potential(density, [0.5, math.nan])
    with pytest.raises(ValueError):
        induced_axis_potential(density, [math.inf])


def test_zero_potential_means_zero_everything():
    report = build_report(PotentialSpec(3, (0,)), moments=(0, 1, 2, 5))
    assert report.charge_Q.coeff == 0
    assert report.dipole_D.coeff == 0
    assert report.force_F.coeff == 0
    assert all(ep.coeff == 0 for ep in report.multipoles.values())
    density = solve_charge_density(PotentialSpec(3, (0,)))
    assert induced_axis_potential(density, [7.0]) == [0.0]


def test_build_report_collects_requested_orders(rng):
    spec = random_spec(rng, max_degree=6)
    report = build_report(spec, moments=(0, 2, 7))
    assert sorted(report.multipoles) == [0, 2, 7]
    assert report.charge_Q.coeff == report.multipoles[0].coeff
    assert report.charge_Q.epsilon0 == spec.epsilon0


@given(
    r=radii,
    data=st.lists(small_fractions, min_size=1, max_size=6),
    m=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60)
def test_dual_paths_never_disagree(r, data, m):
    # every op recomputes itself by exact integration and self-checks
    spec = PotentialSpec(r, tuple(data), epsilon0=1.0)
    density = solve_charge_density(spec)
    total_charge(density)
    dipole_moment(density)
    multipole_moment(density, m)
    axial_force(density)


# the exact kernels sum in integers; they must equal the plain Fraction sums
kernel_radii = st.fractions(
    min_value=Fraction(1, 12), max_value=12, max_denominator=12
).filter(lambda f: f.denominator > 1)
kernel_coeffs = st.one_of(st.just(Fraction(0)), small_fractions)


@st.composite
def kernel_specs(draw, max_degree):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = draw(st.lists(kernel_coeffs, min_size=degree + 1, max_size=degree + 1))
    return PotentialSpec(draw(kernel_radii), tuple(coeffs), epsilon0=1.0)


@given(spec=kernel_specs(max_degree=80))
@settings(max_examples=25, deadline=None)
def test_solve_equals_the_fraction_sum(spec):
    r, b = spec.radius, spec.coeffs_b
    expected = tuple(
        sum(
            (r ** (j - i) * g_entry(i, j) * b[j - 1] for j in range(i, len(b) + 1, 2)),
            Fraction(0),
        )
        for i in range(1, len(b) + 1)
    )
    assert solve_charge_density(spec).coeffs_c == expected


@given(spec=kernel_specs(max_degree=64))
@settings(max_examples=25, deadline=None)
def test_solve_equals_the_per_entry_sum(spec):
    assert solve_charge_density(spec).coeffs_c == solve_by_entries(spec)


@pytest.mark.parametrize("degree", [100, 200, 400])
def test_solve_equals_the_per_entry_sum_at_high_degree(degree):
    rng = random.Random(degree)
    spec = PotentialSpec(
        random_radius(rng), random_coeffs(rng, degree), epsilon0=1.0
    )
    assert spec.degree == degree
    assert solve_charge_density(spec).coeffs_c == solve_by_entries(spec)


def test_a_wrong_table_cell_never_reaches_a_report(monkeypatch):
    # each cell of the degree-24 row table one too large, in turn: the
    # report comes back right only where the cell meets a zero b_j (or a
    # j past the spec's, whose trailing zero is dropped), and is refused
    # with ConsistencyError everywhere else
    body = problem(24)
    spec = PotentialSpec(body["radius"], body["coeffs_b"], epsilon0=1.0)
    right = build_report(spec)
    b = spec.coeffs_b
    table = [list(moment_matrix._b_row(i, 25)) for i in range(1, 26)]
    unread = set()
    for i, row in enumerate(table, start=1):
        for k in range(len(row)):
            row[k] += 1
            monkeypatch.setattr(moment_matrix, "_B_ROWS", tuple(map(tuple, table)))
            row[k] -= 1
            try:
                report = build_report(spec)
            except ConsistencyError:
                continue
            assert report == right, (i, i + 2 * k)
            unread.add(i + 2 * k)
    assert unread == {j for j in range(1, 26) if j > len(b) or b[j - 1] == 0}
    assert unread == {4, 11, 18, 25}


def test_one_wrong_c_is_refused_by_the_first_moment_that_reads_it(monkeypatch):
    # c_i is read by the integrals of the orders m with m + i - 1 even, so
    # the report's first order, 0 or 1, refuses it
    body = problem(24)
    spec = PotentialSpec(body["radius"], body["coeffs_b"], epsilon0=1.0)
    good = solve_charge_density(spec)
    for i in range(1, len(good.coeffs_c) + 1):
        c = list(good.coeffs_c)
        c[i - 1] += 1
        wrong = ChargeDensity(spec, tuple(c))
        monkeypatch.setattr(es_mod, "solve_charge_density", lambda spec: wrong)
        _assert_disagrees(lambda: build_report(spec), "moment", (i - 1) % 2)


def test_a_report_takes_the_numerators_of_b_and_c_once(monkeypatch):
    calls = []
    numerators = es_mod._numerators

    def counted(values):
        calls.append(values)
        return numerators(values)

    monkeypatch.setattr(es_mod, "_numerators", counted)
    body = problem(24, range(8))
    spec = PotentialSpec(body["radius"], body["coeffs_b"], epsilon0=1.0)
    report = build_report(spec, body["moments"])
    # the solve's b, and the b and c that the moments and the force share
    assert len(calls) <= 3
    assert calls[-2:] == [spec.coeffs_b, report.density.coeffs_c]


def test_a_corrupted_column_walk_breaks_the_moment_check(monkeypatch):
    # the closed multipole sum reads F from the column walk; the integrated
    # path does not, so one wrong walked entry must raise ConsistencyError
    walk = es_mod._f_column

    def column(j, n):
        nums, den = walk(j, n)
        if j == 3:
            nums[1] += 1  # F_33, one unit of the column's denominator off
        return nums, den

    monkeypatch.setattr(es_mod, "_f_column", column)
    density = solve_charge_density(PotentialSpec(2, (1, 2, 3, 4), epsilon0=1.0))
    multipole_moment(density, 1)
    with pytest.raises(ConsistencyError, match="order-2 moment"):
        multipole_moment(density, 2)


@given(spec=kernel_specs(max_degree=30))
@settings(max_examples=25, deadline=None)
def test_integrated_paths_equal_the_fraction_sums(spec):
    density = solve_charge_density(spec)
    r, c = density.radius, density.coeffs_c
    # the force from the plain Fraction square of the density polynomial
    q = [Fraction(0)] * (2 * len(c) - 1)
    for a, ca in enumerate(c):
        for e, ce in enumerate(c):
            q[a + e] += ca * ce
    force = 8 * sum((q[d] * r**d / (d + 2) for d in range(1, len(q), 2)), Fraction(0))
    assert axial_force(density).coeff == force
    for m in range(5):
        odd = range(1 + m % 2, len(c) + 1, 2)
        moment = 8 * sum((c[j - 1] * r ** (m + j) / (m + j) for j in odd), Fraction(0))
        assert multipole_moment(density, m).coeff == moment


def test_multipole_moments_keep_the_requested_orders():
    density = solve_charge_density(PotentialSpec(2, (1, 2, 3, 4), epsilon0=1.0))
    moments = multipole_moments(density, [5, 0, 5, 2])
    assert list(moments) == [5, 0, 2]
    assert all(moments[m] == multipole_moment(density, m) for m in moments)
    assert multipole_moments(density, ()) == {}
    for order in (-1, True, 1.0):
        with pytest.raises(ValueError):
            multipole_moments(density, [0, order])


def _assert_disagrees(call, quantity, order):
    with pytest.raises(ConsistencyError) as caught:
        call()
    error = caught.value
    assert (error.quantity, error.order) == (quantity, order)
    label = quantity if order is None else f"order-{order} {quantity}"
    assert str(error) == (
        f"{label} paths disagree: "
        f"integrated {error.integrated}, closed {error.closed}"
    )
    assert error.integrated != error.closed
    return error


def test_consistency_error_is_raised_per_order():
    good = solve_charge_density(PotentialSpec(2, (1, 2, 3, 4, 5), epsilon0=1.0))
    right = multipole_moments(good, range(6))
    # c_2, the coefficient of z, is read by the integrals of odd order only
    c = list(good.coeffs_c)
    c[1] += 1
    bad_c = ChargeDensity(good.spec, tuple(c))
    error = _assert_disagrees(
        lambda: multipole_moments(bad_c, [0, 3, 1]), "moment", 3
    )
    assert error.closed == right[3].coeff
    assert multipole_moments(bad_c, [0, 2, 4]) == {m: right[m] for m in (0, 2, 4)}
    # b_2 is read by the closed sums of odd order only, and by the force
    b = list(good.coeffs_b)
    b[1] += 1
    bad_b = ChargeDensity(
        PotentialSpec(good.radius, tuple(b), good.epsilon0), good.coeffs_c
    )
    error = _assert_disagrees(
        lambda: multipole_moments(bad_b, [0, 2, 3, 1]), "moment", 3
    )
    assert error.integrated == right[3].coeff
    assert multipole_moments(bad_b, [4, 0]) == {m: right[m] for m in (4, 0)}
    error = _assert_disagrees(lambda: axial_force(bad_b), "force", None)
    assert error.integrated == axial_force(good).coeff


# radii whose numerator and denominator grow in every way: integers, p/q,
# 1/10^k and 10^k
path_radii = st.one_of(
    st.integers(min_value=1, max_value=50).map(Fraction),
    kernel_radii,
    st.integers(min_value=1, max_value=12).map(lambda k: Fraction(1, 10**k)),
    st.integers(min_value=1, max_value=12).map(lambda k: Fraction(10**k)),
)


@st.composite
def path_densities(draw, max_degree):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = draw(
        st.one_of(
            st.just([0] * (degree + 1)),
            st.lists(kernel_coeffs, min_size=degree + 1, max_size=degree + 1),
        )
    )
    spec = PotentialSpec(draw(path_radii), tuple(coeffs), epsilon0=1.0)
    return solve_charge_density(spec)


def _assert_paths_equal_references(density, orders):
    r, b, c = density.radius, density.coeffs_b, density.coeffs_c
    numerators_b, numerators_c = es_mod._numerators(b), es_mod._numerators(c)
    for m in orders:
        closed = es_mod._closed_moment(*numerators_b, r, m)
        assert closed == references.closed_moment(b, r, m)
        integrated = es_mod._integrated_moment(*numerators_c, r, m)
        assert integrated == references.integrated_moment(c, r, m)
    assert es_mod._closed_force(*numerators_b, r) == references.closed_force(b, r)
    assert es_mod._integrated_force(*numerators_c, r) == references.integrated_force(
        c, r
    )


@given(
    density=path_densities(max_degree=64),
    orders=st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_each_exact_path_equals_its_fraction_reference(density, orders):
    # each path against its own reference, so two paths broken alike fail
    _assert_paths_equal_references(density, orders)


@pytest.mark.parametrize("degree, orders", [(200, range(201)), (400, ())])
def test_exact_paths_equal_their_references_at_high_degree(degree, orders):
    rng = random.Random(degree)
    spec = PotentialSpec(random_radius(rng), random_coeffs(rng, degree), epsilon0=1.0)
    assert spec.degree == degree
    _assert_paths_equal_references(solve_charge_density(spec), orders)


def _assert_product(u, v):
    assert es_mod._product(u, v) == references.schoolbook_product(u, v)


@pytest.mark.parametrize(
    "u, v",
    [
        ([3], [-5]),
        ([0], [7]),
        ([7], [1, -2]),
        ([1, -1], [2, 3]),
        ([-3, -7, -1, -9], [-2, -8, -5]),
        ([(-1) ** k * (k + 1) for k in range(9)], [(-1) ** k * 3 for k in range(8)]),
        ([1, -2, 10**300, 3, -1], [2, 1, -1, 1]),
        ([1, -2, 3], [-1, -(10**300), 1, 2]),
        ([0, 5, 0, -3, 0, 0, 7], [0, 0, -4, 0, 1]),
        ([0, 0, 0], [0, 0]),
        ([], [1, 2]),
    ],
)
def test_kronecker_product_equals_the_pair_loop(u, v):
    _assert_product(u, v)


@pytest.mark.parametrize("k", [1, 2, 30, 31, 64, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_kronecker_product_at_the_edges_of_its_fields(k, n):
    # the largest entries of k and k + 1 bits, in every sign pattern: the
    # product's coefficients reach n (2^k)^2, next to the field's bound
    for big in (2**k - 1, 2**k):
        for u, v in (
            ([big] * n, [big] * n),
            ([-big] * n, [-big] * n),
            ([-big] * n, [big] * (n + 1)),
            ([big, -big] * n, [-big, big] * n),
            ([big, -big] * n, [big] * n),
        ):
            width = es_mod._field_width(u, v)
            bound = max(abs(x) for x in references.schoolbook_product(u, v))
            assert bound < 2 ** (width - 2)
            _assert_product(u, v)


def test_fields_unpack_up_to_their_signed_bounds():
    width = es_mod._field_width([2**30 - 1, -(2**30)], [1, 2])
    low, high = -(2 ** (width - 1)), 2 ** (width - 1) - 1
    fields = [low, high, 0, -1, 1, high, low, low, high]
    assert es_mod._unpack(es_mod._pack(fields, width), width, len(fields)) == fields
    # one past the bound no longer fits its field
    past = [high + 1, 0]
    assert es_mod._unpack(es_mod._pack(past, width), width, 2) != past


@given(
    u=st.lists(st.integers(min_value=-(2**200), max_value=2**200), max_size=20),
    v=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=20),
)
@settings(max_examples=100)
def test_kronecker_product_equals_the_pair_loop_on_any_ints(u, v):
    _assert_product(u, v)


def _spec():
    return PotentialSpec("7/3", ("1", "-2/5", "3", "0"))


# each value class: a builder of fresh equal values, and its field names
VALUE_CLASSES = {
    ExactPhysical: (lambda: ExactPhysical(Fraction(-4, 3), 2.5), ("coeff", "epsilon0")),
    PotentialSpec: (_spec, ("radius", "coeffs_b", "epsilon0")),
    ChargeDensity: (lambda: solve_charge_density(_spec()), ("spec", "coeffs_c")),
    es_mod.BallReport: (
        lambda: build_report(_spec(), moments=(2, 0)),
        ("density", "charge_Q", "dipole_D", "multipoles", "force_F"),
    ),
    QuadratureRule: (
        lambda: QuadratureRule((-0.5, 0.5), (1.0, 1.0)),
        ("nodes", "weights"),
    ),
    CollocationSolution: (
        lambda: CollocationSolution((1.0, -2.0), 1e-15, 3.0),
        ("coeffs", "residual_norm", "condition_estimate"),
    ),
}
# the value classes whose constructors take any field values, by field count
ANY_FIELDS = {
    2: (ExactPhysical, ChargeDensity, QuadratureRule),
    3: (CollocationSolution,),
}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    build, names = VALUE_CLASSES[cls]
    value, twin = build(), build()
    assert type(value) is cls and value is not twin
    assert value == twin and not value != twin
    if cls is es_mod.BallReport:
        # its multipoles are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    # another class with the same field values is not equal
    fields = [getattr(value, name) for name in names]
    others = [type("Other", (cls,), {"__slots__": ()})]
    others += [other for other in ANY_FIELDS.get(len(names), ()) if other is not cls]
    for other in others:
        assert value != other(*fields) and other(*fields) != value
    assert value != tuple(fields)
    assert cls(**dict(zip(names, fields))) == value
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == fields
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
        assert type(copied) is cls and copied == value
    text = repr(value)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in names)


# the value classes whose constructor is the base's, one value per field
BASE_CONSTRUCTED = (
    ChargeDensity,
    es_mod.BallReport,
    QuadratureRule,
    CollocationSolution,
)


@pytest.mark.parametrize("cls", BASE_CONSTRUCTED, ids=lambda cls: cls.__name__)
def test_value_constructor_takes_each_field_once(cls):
    build, names = VALUE_CLASSES[cls]
    value = build()
    fields = [getattr(value, name) for name in names]
    # by position, by name, or the first by position and the rest by name
    assert cls(*fields) == cls(**dict(zip(names, fields))) == value
    assert cls(fields[0], **dict(zip(names[1:], fields[1:]))) == value
    for args, named in [
        (fields[:-1], {}),  # a field missing
        ([*fields, 0], {}),  # one too many
        (fields, {names[0]: fields[0]}),  # a field given twice
        (fields[:-1], {"unknown": 0}),  # a name that is no field
        (fields[1:], {names[0]: fields[0]}),  # the first by name, the rest not
    ]:
        with pytest.raises(TypeError):
            cls(*args, **named)
    # a subclass with empty __slots__ keeps its base's fields
    other = type("Other", (cls,), {"__slots__": ()})(*fields)
    assert [getattr(other, name) for name in names] == fields
    assert repr(other) == "Other" + repr(value)[len(cls.__name__) :]
