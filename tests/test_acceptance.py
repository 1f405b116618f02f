"""The ten contract-level checks for this package, in order.

Each test prints a PASS/FAIL line naming its criterion (visible with -s;
a plain run carries the same information in the test outcomes).  Exact
checks compare Fractions with == and tolerate nothing; numeric checks use
the stated bounds; the two timed criteria assert their budgets.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from axoball import (
    PotentialSpec,
    axial_force,
    induced_axis_potential,
    solve_charge_density,
)
from axoball import moment_matrix, oracle
from axoball.cli import main as cli_main
from axoball.electrostatics import dipole_moment, multipole_moment, total_charge
from axoball.moment_matrix import (
    beta_numerator,
    build_f,
    build_g,
    f_entry_closed_form,
    g_entry,
)
from conftest import collocation_kernel, random_coeffs, random_radius
from references import (
    alpha_coefficients,
    f_diagonal,
    f_entry_recurrence,
    f_second_superdiagonal,
    multiply,
)


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, num, text):
        self.num = num
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"{status} criterion {self.num}: {self.text}")
        return False


def test_criterion_01_matrix_identities_order_50():
    with criterion(1, "order-50 F G = G F = I and F B = D, exact, under 10 s"):
        start = time.perf_counter()
        f = build_f(50)
        g = build_g(50)
        b = moment_matrix._dense("B", 50)
        d = moment_matrix._dense("D", 50)
        eye = [[int(i == j) for j in range(50)] for i in range(50)]
        assert multiply(f, g) == eye
        assert multiply(g, f) == eye
        assert multiply(f, b) == d
        for i in range(1, 51):
            assert d[i - 1][i - 1] == Fraction(2, 2 * i - 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_02_entry_formulas_agree_to_order_50():
    with criterion(2, "closed form = recurrence = diagonal formulas, i,j <= 50"):
        for i in range(1, 51):
            for j in range(1, 51):
                value = f_entry_closed_form(i, j)
                if i >= 3:
                    assert value == f_entry_recurrence(i, j)
                if i == j:
                    assert value == f_diagonal(i)
                if j - i == 2:
                    assert value == f_second_superdiagonal(j)
                if i == 1:
                    assert value == (Fraction(2, j) if j % 2 else 0)
                if i == 2:
                    assert value == (Fraction(2, j + 1) if j % 2 == 0 else 0)


def test_criterion_03_alpha_window_identity():
    with criterion(3, "shifted-row alpha combination and B alpha = e, m,n <= 20"):
        for m in range(21):
            alpha = alpha_coefficients(m)
            for k in range(1, m + 2):
                dot = sum(
                    Fraction(beta_numerator(k, i), 2 ** (i - 1)) * a
                    for i, a in enumerate(alpha, start=1)
                )
                assert dot == (1 if k == m + 1 else 0)
            for n in range(21):
                for j in range(1, n + 2):
                    combo = sum(
                        a * f_entry_closed_form(k, j)
                        for k, a in enumerate(alpha, start=1)
                    )
                    assert combo == f_entry_closed_form(1, m + j)


def test_criterion_04_charge_and_dipole_closed_forms():
    with criterion(4, "exact integration = closed forms for Q and D, 200 specs"):
        rng = random.Random(41)
        for _ in range(200):
            r = random_radius(rng, max_value=10)
            b = random_coeffs(rng, rng.randint(0, 20))
            spec = PotentialSpec(r, b, epsilon0=1.0)
            c = solve_charge_density(spec).coeffs_c
            charge_integral = 8 * sum(
                c[j - 1] * r**j / j for j in range(1, len(c) + 1, 2)
            )
            dipole_integral = 8 * sum(
                c[j - 1] * r ** (j + 1) / (j + 1)
                for j in range(2, len(c) + 1, 2)
            )
            b_used = spec.coeffs_b
            assert charge_integral == 4 * r * b_used[0]
            expected_dipole = 4 * r**3 * (b_used[1] if len(b_used) > 1 else 0)
            assert dipole_integral == expected_dipole
            density = solve_charge_density(spec)
            assert total_charge(density).coeff == charge_integral
            assert dipole_moment(density).coeff == dipole_integral


def test_criterion_05_multipole_closed_form_grid():
    with criterion(5, "order-m closed form = direct integration, m,n <= 12"):
        rng = random.Random(42)
        for n in range(13):
            for m in range(13):
                r = random_radius(rng, max_value=5)
                spec = PotentialSpec(r, random_coeffs(rng, n), epsilon0=1.0)
                c = solve_charge_density(spec).coeffs_c
                direct = 8 * sum(
                    c[j - 1] * r ** (m + j) / (m + j)
                    for j in range(1, len(c) + 1)
                    if (m + j) % 2
                )
                got = multipole_moment(solve_charge_density(spec), m).coeff
                assert got == direct


def test_criterion_06_force_closed_form():
    with criterion(6, "force sum = exact integration of z sigma^2, n <= 20"):
        rng = random.Random(43)
        for n in range(21):
            r = random_radius(rng, max_value=5)
            spec = PotentialSpec(r, random_coeffs(rng, n), epsilon0=1.0)
            b = spec.coeffs_b
            c = solve_charge_density(spec).coeffs_c
            closed = 4 * sum(
                i * r ** (2 * i - 1) * b[i - 1] * b[i]
                for i in range(1, len(b))
            )
            square = [Fraction(0)] * (2 * len(c) - 1)
            for i, ci in enumerate(c):
                for j, cj in enumerate(c):
                    square[i + j] += ci * cj
            integral = 8 * sum(
                square[d] * r**d / (d + 2) for d in range(1, len(square), 2)
            )
            assert integral == closed
            assert axial_force(solve_charge_density(spec)).coeff == closed


def test_criterion_07_collocation_oracle_agreement():
    with criterion(7, "collocation matches exact c to 1e-8, residual < 1e-9, 30 s"):
        start = time.perf_counter()
        rng = random.Random(44)
        degrees = list(range(11)) + [rng.randint(0, 10) for _ in range(14)]
        for degree in degrees:
            r = Fraction(rng.choice((1, 1, 2)), rng.choice((1, 2)))
            spec = PotentialSpec(r, random_coeffs(rng, degree), epsilon0=1.0)
            density = solve_charge_density(spec)
            kernel = collocation_kernel(density.degree + 1)
            coeffs, residual, _, rank = oracle.collocation_solve(spec, kernel)
            assert rank == density.degree + 1
            assert residual < 1e-9
            assert oracle.equation_residual(density, kernel) < 1e-9
            scale = max(abs(float(x)) for x in density.coeffs_c) or 1.0
            for exact, got in zip(density.coeffs_c, coeffs):
                assert abs(float(exact) - got) / scale < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_08_physics_spot_values():
    with criterion(8, "G entries, uniform-field density, dipole and force"):
        assert g_entry(1, 1) == Fraction(1, 2)
        assert g_entry(2, 2) == Fraction(3, 2)
        E = Fraction(7, 3)
        density = solve_charge_density(PotentialSpec(1, (0, E), epsilon0=1.0))
        assert density.coeffs_c == (0, 3 * E / 2)  # sigma = 3 eps0 E z
        zs = (-1.0, -0.25, 0.5)
        for z, got in zip(zs, density.sigma(zs)):
            assert got == pytest.approx(3 * float(E) * z, rel=1e-15)
        assert dipole_moment(density).coeff == 4 * E
        b1, b2, r = Fraction(5, 4), Fraction(-3, 7), Fraction(9, 2)
        density = solve_charge_density(PotentialSpec(r, (b1, b2)))
        assert axial_force(density).coeff == 4 * r * b1 * b2


def test_criterion_09_axis_potential_continuity_and_far_field():
    with criterion(9, "branch continuity at the surface and far-field charge limit"):
        rng = random.Random(90817263)
        for _ in range(20):
            den_r = rng.randint(1, 10)
            r = Fraction(rng.randint(1, 10 * den_r), den_r)
            b1 = Fraction(rng.choice([x for x in range(-9, 10) if x]),
                          rng.randint(1, 9))
            coeffs = [b1]
            # even-parity spec with geometrically damped Legendre moments:
            # keeps the truncated far-field error inside the 1e-8 budget
            for k in range(1, rng.randint(2, 5)):
                u = Fraction(rng.randint(-9, 9), 36 * 2**k)
                coeffs += [Fraction(0), u * b1 / r ** (2 * k)]
            density = solve_charge_density(PotentialSpec(r, tuple(coeffs), 1.0))
            rf = float(r)
            s = 1e4 * rf
            u_in, u_out, u_far = induced_axis_potential(
                density, [rf * (1.0 - 1e-8), rf * (1.0 + 1e-8), s]
            )
            assert abs(u_out - u_in) <= 1e-6 * max(1.0, abs(u_in), abs(u_out))
            limit = float(r * b1)  # Q / (4 pi eps0)
            assert abs(u_far * s - limit) <= 1e-8 * abs(limit)


def test_criterion_10_cli_round_trip_and_exit_codes(tmp_path, capsys):
    with criterion(10, "report round-trips bit-exactly; bad inputs exit 2"):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "radius": "7/4",
                    "potential": {"coeffs_b": ["-1", "2/3", "0.75", "4"]},
                    "moments": [0, 1, 2, 3, 6],
                }
            )
        )
        code = cli_main(["solve", str(problem)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)

        spec = PotentialSpec("7/4", ("-1", "2/3", "3/4", "4"))
        density = solve_charge_density(spec)
        assert Fraction(doc["input"]["radius"]) == spec.radius
        assert tuple(map(Fraction, doc["input"]["coeffs_b"])) == spec.coeffs_b
        coeffs_c = tuple(map(Fraction, doc["charge_density"]["coeffs_c"]))
        assert coeffs_c == density.coeffs_c
        assert Fraction(doc["charge"]["coeff"]) == total_charge(density).coeff
        assert Fraction(doc["dipole"]["coeff"]) == dipole_moment(density).coeff
        assert Fraction(doc["force"]["coeff"]) == axial_force(density).coeff
        for m in (0, 1, 2, 3, 6):
            coeff = Fraction(doc["multipoles"][str(m)]["coeff"])
            assert coeff == multipole_moment(density, m).coeff

        # second round: feed the emitted rationals back in as a problem
        problem2 = tmp_path / "problem2.json"
        problem2.write_text(
            json.dumps(
                {
                    "radius": doc["input"]["radius"],
                    "coeffs_b": doc["input"]["coeffs_b"],
                }
            )
        )
        code = cli_main(["solve", str(problem2)])
        out2 = capsys.readouterr().out
        assert code == 0
        assert json.loads(out2)["charge_density"] == doc["charge_density"]

        malformed = [
            "definitely { not json",
            json.dumps({"radius": "1/0", "coeffs_b": ["1"]}),
            json.dumps({"radius": "1"}),
            json.dumps({"radius": "-3", "coeffs_b": ["1"]}),
            json.dumps({"radius": "1", "coeffs_b": ["1"], "moments": [True]}),
        ]
        for idx, body in enumerate(malformed):
            bad = tmp_path / f"bad{idx}.json"
            bad.write_text(body)
            code = cli_main(["solve", str(bad)])
            capsys.readouterr()
            assert code == 2, f"fixture {idx} should exit 2"
