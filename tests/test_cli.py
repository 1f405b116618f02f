import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axoball
from axoball import cli
from axoball import (
    ExactPhysical,
    PotentialSpec,
    build_report,
    induced_axis_potential,
    solve_charge_density,
)
from axoball.cli import (
    ProblemError,
    _profile_arrays,
    _quantity,
    load_problem,
    main,
    parse_report,
)
from axoball.electrostatics import VACUUM_PERMITTIVITY, OutOfRangeError


def write_problem(tmp_path, body, name="problem.json"):
    path = tmp_path / name
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASIC = {
    "radius": "3/2",
    "potential": {"coeffs_b": ["1", "-2/3", "0.5"]},
    "moments": [0, 1, 2, 3, 4, 5],
}


def test_solve_report_round_trips_exactly(tmp_path, capsys):
    path = write_problem(tmp_path, BASIC)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    parsed = parse_report(out)

    spec = PotentialSpec("3/2", ("1", "-2/3", "1/2"))
    density = solve_charge_density(spec)
    report = build_report(spec, (0, 1, 2, 3, 4, 5))
    assert parsed["schema_version"] == 1
    assert parsed["radius"] == Fraction(3, 2)
    assert parsed["coeffs_b"] == spec.coeffs_b
    assert parsed["coeffs_c"] == density.coeffs_c
    assert parsed["charge"] == report.charge_Q.coeff
    assert parsed["dipole"] == report.dipole_D.coeff
    assert parsed["force"] == report.force_F.coeff
    assert parsed["multipoles"] == {
        m: ep.coeff for m, ep in report.multipoles.items()
    }


def test_solve_writes_out_file(tmp_path, capsys):
    path = write_problem(tmp_path, BASIC)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["charge"]["unit_factor"] == "pi*eps0"


def test_default_moments_are_first_four(tmp_path, capsys):
    path = write_problem(tmp_path, {"radius": "1", "coeffs_b": ["1"]})
    _, out, _ = run_cli(capsys, "solve", path)
    doc = json.loads(out)
    assert sorted(int(k) for k in doc["multipoles"]) == [0, 1, 2, 3]
    assert doc["input"]["given"] == "coeffs_b"


def test_phi0_input_is_negated_and_echoed(tmp_path, capsys):
    path = write_problem(
        tmp_path, {"r": "2", "potential": {"phi0_coeffs": ["1", "-0.5"]}}
    )
    _, out, _ = run_cli(capsys, "solve", path)
    doc = json.loads(out)
    assert doc["input"]["given"] == "phi0_coeffs"
    assert doc["input"]["phi0_coeffs"] == ["1", "-1/2"]
    assert doc["input"]["coeffs_b"] == ["-1", "1/2"]


def test_decimal_radius_converts_exactly(tmp_path, capsys):
    path = write_problem(tmp_path, {"radius": 0.1, "coeffs_b": ["1"]})
    _, out, _ = run_cli(capsys, "solve", path)
    # JSON floats are intercepted as text, so 0.1 is the decimal 1/10
    assert parse_report(out)["radius"] == Fraction(1, 10)


def test_verify_passes_on_good_problem(tmp_path, capsys):
    path = write_problem(tmp_path, BASIC)
    code, out, _ = run_cli(capsys, "solve", path, "--verify")
    assert code == 0
    doc = json.loads(out)
    block = doc["verification"]
    assert block["passed"] is True
    assert block["checks"]["collocation"]["max_coeff_deviation"] <= 1e-8
    assert block["checks"]["equation_residual"]["value"] <= 1e-9
    assert block["checks"]["continuity"]["passed"] is True


def test_verify_skips_collocation_past_degree_10(tmp_path, capsys):
    body = {"radius": "1", "coeffs_b": ["1"] * 14, "moments": [0]}
    path = write_problem(tmp_path, body)
    code, out, _ = run_cli(capsys, "solve", path, "--verify")
    assert code == 0
    doc = json.loads(out)
    assert "skipped" in doc["verification"]["checks"]["collocation"]


def test_verify_breach_exits_3(tmp_path, capsys, monkeypatch):
    # force a bogus oracle answer to prove the exit-code contract
    import axoball.oracle as oracle_mod
    from axoball.oracle import CollocationSolution

    def bogus(spec, kernel):
        n1 = len(spec.coeffs_b)
        return CollocationSolution((123.0,) * n1, 1e-15, 1.0)

    monkeypatch.setattr(oracle_mod, "collocation_solve", bogus)
    path = write_problem(tmp_path, BASIC)
    code, out, err = run_cli(capsys, "solve", path, "--verify")
    assert code == 3
    doc = json.loads(out)
    assert doc["verification"]["passed"] is False
    assert "verification failed" in err


def test_default_epsilon0_is_vacuum(tmp_path, capsys):
    path = write_problem(tmp_path, {"radius": "1", "coeffs_b": ["1"]})
    _, out, _ = run_cli(capsys, "solve", path)
    assert json.loads(out)["input"]["epsilon0"] == VACUUM_PERMITTIVITY


MALFORMED = [
    ("not json at all {", "invalid JSON"),
    ({"radius": "1/0", "coeffs_b": ["1"]}, "radius"),
    ({"radius": "1", "coeffs_b": ["1"], "potential": {"phi0_coeffs": ["1"]}},
     "exactly one"),
    ({"radius": "-2", "coeffs_b": ["1"]}, "radius must be positive"),
    ({"radius": "1", "coeffs_b": ["1"], "moments": [0, -1]}, "moments[1]"),
]


@pytest.mark.parametrize("body,needle", MALFORMED)
def test_malformed_inputs_exit_2(tmp_path, capsys, body, needle):
    path = write_problem(tmp_path, body)
    code, out, err = run_cli(capsys, "solve", path)
    assert code == 2
    assert needle in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_zero_denominator_in_coefficient_names_the_entry(tmp_path, capsys):
    body = {"radius": "1", "potential": {"coeffs_b": ["1", "2/0"]}}
    code, _, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 2
    assert "potential.coeffs_b[1]" in err
    assert "zero denominator" in err


def test_boolean_coefficient_rejected(tmp_path, capsys):
    body = {"radius": "1", "coeffs_b": [True]}
    code, _, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 2
    assert "boolean" in err


def test_matrix_table_and_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--order", "2", "--which", "F")
    assert code == 0
    assert out == "2 0\n0 2/3\n"
    code, out, _ = run_cli(
        capsys, "matrix", "--order", "2", "--which", "F", "--format", "csv"
    )
    assert out == "2,0\n0,2/3\n"
    code, out, _ = run_cli(
        capsys, "matrix", "--order", "2", "--which", "G", "--format", "csv"
    )
    assert out == "1/2,0\n0,3/2\n"


# sha256 of `axoball matrix --order 200 --which W --format csv`; the
# benchmark pools stop at order 120
ORDER_200_CSV_SHA256 = {
    "F": "38d79c458abffc0fa9eaca7cd1ddb2f7a061f8c91e2a0772270c1e9a9ec64cb5",
    "G": "aab9ad9eb039b50a544bc30bcd31b540d27c94445c18c4c36381f74a4ef66c98",
    "B": "8fb0fb1952026dce1f7cb09bbb16c961e2f07419aa524d566755d9bfd69718de",
    "D": "d5a1e4ce05595701e7715d28bd512daed8f42c72670bc0c2e8283c43ef3d230a",
}


@pytest.mark.parametrize("which", ["F", "G", "B", "D"])
def test_order_200_matrices_are_pinned_byte_for_byte(capsys, which):
    code, out, _ = run_cli(
        capsys, "matrix", "--order", "200", "--which", which, "--format", "csv"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER_200_CSV_SHA256[which]


# sha256 of `axoball matrix --order 200 --which W` in the default table
# format, pinned apart from the csv digests above
ORDER_200_TABLE_SHA256 = {
    "F": "78c9bb35907548e49e4900a52000e4c848bec55939172eb6e7cc4e01248c6ceb",
    "G": "d657d823ec0d83e5f00b8c985941452889723bda1816e8c604b0ca34e93a29da",
    "B": "a8cd3990e10fe84e64acc2c6dbc3a4a1e644ddea5e5fa76a81f68a4d0527f1fe",
    "D": "f096b23885a14fe42a19df0a143f75a32bc75b94ee4c367d59e50b4e8f84aeab",
}


@pytest.mark.parametrize("which", ["F", "G", "B", "D"])
def test_order_200_table_matrices_are_pinned_byte_for_byte(capsys, which):
    code, out, _ = run_cli(capsys, "matrix", "--order", "200", "--which", which)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER_200_TABLE_SHA256[which]


# sha256 of `axoball solve` on the problem of degree N below: radius 7/3,
# moments 0..200 at N = 200 and the default moments at N = 400; the
# benchmark pools stop at degree 64
LARGE_SOLVE_SHA256 = {
    200: "4d4674df755429d974a30100e81b6e4ef2d970dcb82663358545820a21b71d85",
    400: "967cd5d81046123133849da9ffa897d68547a30226bd0ca7f756b32549cf0950",
}


@pytest.mark.parametrize("degree", sorted(LARGE_SOLVE_SHA256))
def test_large_solve_reports_are_pinned_byte_for_byte(tmp_path, capsys, degree):
    body = {
        "radius": "7/3",
        "coeffs_b": [f"{k % 7 - 3}/{k % 5 + 1}" for k in range(degree + 1)],
    }
    if degree == 200:
        body["moments"] = list(range(201))
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_SOLVE_SHA256[degree]


def test_degree_200_report_of_moments_0_to_1000_is_pinned(tmp_path, capsys):
    # the closed moment sums read F's columns up to 1001, where the moment
    # orders stop; the pins above reach column 201
    body = {
        "radius": "7/3",
        "coeffs_b": [f"{k % 7 - 3}/{k % 5 + 1}" for k in range(201)],
        "moments": list(range(1001)),
    }
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "bd2636b8aa2f48bcb744ddc22e8384ec391c17b64bde3dd4572b379923152aa5"
    )


# sha256 of `axoball solve --verify` on the problem of degree N built as
# above: the collocation solve runs at N = 10 and is skipped at N = 16, so
# the pins cover the oracle's floats on both paths
VERIFY_SHA256 = {
    10: "ae47cb6728befc2455e94d0fcd35cc184e6ae0e6e7a5dd99a6b52394a63ebe54",
    16: "3e8e5535934359f4dcf922cb111e8c0936da5b263b9c7ff4846a23b1cb2613b2",
}


@pytest.mark.parametrize("degree", sorted(VERIFY_SHA256))
def test_verify_reports_are_pinned_byte_for_byte(tmp_path, capsys, degree):
    body = {
        "radius": "7/3",
        "coeffs_b": [f"{k % 7 - 3}/{k % 5 + 1}" for k in range(degree + 1)],
    }
    code, out, _ = run_cli(capsys, "solve", "--verify", write_problem(tmp_path, body))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[degree]


def test_matrix_d_prints_diagonal_row(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--order", "3", "--which", "D", "--format", "csv"
    )
    assert code == 0
    assert out == "2,2/3,2/5\n"


def test_matrix_b_row(capsys):
    _, out, _ = run_cli(capsys, "matrix", "--order", "3", "--which", "B")
    assert out.splitlines()[0] == "1 0 -1/2"


def test_matrix_order_bounds(capsys):
    for bad in ("0", "201", "-5"):
        code, _, err = run_cli(capsys, "matrix", "--order", bad, "--which", "F")
        assert code == 2
        assert "1..200" in err


def test_profile_csv_shape_and_columns(tmp_path, capsys):
    body = {
        "radius": "1",
        "coeffs_b": ["2", "1"],
        "profile": {"samples": 7, "span": "3"},
    }
    path = write_problem(tmp_path, body)
    code, out, _ = run_cli(capsys, "profile", path)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["z", "sigma", "s", "u"]
    assert len(rows) == 8
    z = [float(r[0]) for r in rows[1:]]
    s = [float(r[2]) for r in rows[1:]]
    assert z[0] == -1.0 and z[-1] == 1.0
    assert s[0] == -3.0 and s[-1] == 3.0
    density = solve_charge_density(PotentialSpec(1, (2, 1)))
    expected = induced_axis_potential(density, s)
    for row, u in zip(rows[1:], expected):
        assert float(row[3]) == pytest.approx(u, rel=1e-12, abs=1e-15)


def test_readme_profile_is_pinned_byte_for_byte(tmp_path, capsys):
    # the README's example problem; its profile is built from +, * and /
    # only, so the digest does not depend on the platform's libm
    body = dict(BASIC, moments=[0, 1, 2, 3, 4], profile={"samples": 101, "span": "3"})
    code, out, _ = run_cli(capsys, "profile", write_problem(tmp_path, body))
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "4b761da574bc094ae15e13525fe8937a6fe712ce90f6a83a1b73d07f7bec70de"
    )


def test_profile_uniform_field_density_is_odd_and_linear(tmp_path, capsys):
    body = {
        "radius": "1",
        "coeffs_b": ["0", "1"],
        "epsilon0": "1",
        "profile": {"samples": 5, "span": "2"},
    }
    _, out, _ = run_cli(capsys, "profile", write_problem(tmp_path, body))
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for row in rows:
        # sigma = 3 eps0 E z with eps0 = E = 1
        assert float(row[1]) == pytest.approx(3.0 * float(row[0]), abs=1e-15)
    assert float(rows[2][0]) == 0.0 and float(rows[2][1]) == 0.0


def test_profile_17_digit_floats_round_trip(tmp_path, capsys):
    body = {
        "radius": "3",
        "coeffs_b": ["1", "1/3"],
        "profile": {"samples": 5, "span": "2"},
    }
    path = write_problem(tmp_path, body)
    _, out, _ = run_cli(capsys, "profile", path)
    density = solve_charge_density(PotentialSpec(3, (1, Fraction(1, 3))))
    rows = list(csv.reader(io.StringIO(out)))[1:]
    sigma = density.sigma([float(row[0]) for row in rows])
    for row, value in zip(rows, sigma):
        assert float(row[1]) == value  # 17 sig digits: lossless


def test_profile_two_samples_are_endpoints(tmp_path, capsys):
    body = {
        "radius": "2",
        "coeffs_b": ["1"],
        "profile": {"samples": 2, "span": "4"},
    }
    _, out, _ = run_cli(capsys, "profile", write_problem(tmp_path, body))
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert [float(rows[1][0]), float(rows[2][0])] == [-2.0, 2.0]
    assert [float(rows[1][2]), float(rows[2][2])] == [-8.0, 8.0]


def test_profile_requires_profile_block(tmp_path, capsys):
    path = write_problem(tmp_path, {"radius": "1", "coeffs_b": ["1"]})
    code, _, err = run_cli(capsys, "profile", path)
    assert code == 2
    assert "profile" in err


def test_profile_validation(tmp_path, capsys):
    bad_samples = {
        "radius": "1",
        "coeffs_b": ["1"],
        "profile": {"samples": 1, "span": "2"},
    }
    code, _, err = run_cli(capsys, "profile", write_problem(tmp_path, bad_samples))
    assert code == 2 and "samples" in err
    bad_span = {
        "radius": "1",
        "coeffs_b": ["1"],
        "profile": {"samples": 5, "span": "-1"},
    }
    code, _, err = run_cli(capsys, "profile", write_problem(tmp_path, bad_span))
    assert code == 2 and "span" in err


def test_solve_report_includes_profile_block(tmp_path, capsys):
    body = dict(BASIC)
    body["profile"] = {"samples": 3, "span": "2"}
    _, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    doc = json.loads(out)
    assert len(doc["profile"]["z"]) == 3
    assert len(doc["profile"]["u"]) == 3


def test_report_parser_ignores_unknown_fields(tmp_path, capsys):
    path = write_problem(tmp_path, BASIC)
    _, out, _ = run_cli(capsys, "solve", path)
    doc = json.loads(out)
    doc["future_field"] = {"x": 1}
    doc["input"]["another"] = [1, 2, 3]
    parsed = parse_report(json.dumps(doc))
    assert parsed["radius"] == Fraction(3, 2)


def test_load_problem_rejects_duplicate_radius(tmp_path):
    path = write_problem(tmp_path, {"radius": "1", "r": "2", "coeffs_b": ["1"]})
    with pytest.raises(ProblemError, match="once"):
        load_problem(path)


def test_load_problem_deduplicates_moments(tmp_path):
    path = write_problem(
        tmp_path, {"radius": "1", "coeffs_b": ["1"], "moments": [2, 2, 0]}
    )
    assert load_problem(path).moments == [2, 0]


def test_load_problem_deduplicates_moments_in_linear_time(tmp_path):
    # every order 0..1000, a thousand times over (4.9 MB): a dedupe that
    # scans the orders kept so far costs a thousand times the parse
    text = json.dumps(
        {"radius": "1", "coeffs_b": ["1"], "moments": list(range(1001)) * 1000}
    )
    path = write_problem(tmp_path, text)

    def best_of(runs, call):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - start)
        return min(times), result

    parse_time, _ = best_of(3, lambda: json.loads(text))
    load_time, prob = best_of(2, lambda: load_problem(path))
    assert prob.moments == list(range(1001))
    assert load_time < 20 * parse_time


def test_moment_order_past_1000_exits_2(tmp_path, capsys):
    body = {"radius": "1", "coeffs_b": ["1", "2"], "moments": [0, 1001]}
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert (code, out) == (2, "")
    assert err == "error: field 'moments[1]': must be at most 1000\n"


def test_moment_order_1000_is_served(tmp_path, capsys):
    body = {"radius": "1", "coeffs_b": ["1", "2"], "moments": [1000]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    assert list(parse_report(out)["multipoles"]) == [1000]


def test_module_entry_point_runs():
    # the child imports axoball from wherever this process found it
    src = os.path.dirname(os.path.dirname(axoball.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "axoball.cli", "matrix", "--order", "2", "--which", "F"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "2 0\n0 2/3\n"


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    first = run_cli(capsys, "matrix", "--order", "2", "--which", "F")
    assert len(built) == 4  # the parser and its three subparsers
    second = run_cli(capsys, "matrix", "--order", "2", "--which", "F")
    assert len(built) == 4
    assert first == second == (0, "2 0\n0 2/3\n", "")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cmd_profile", ["profile", "problem.json"]),
        ("cmd_matrix", ["matrix", "--order", "2", "--which", "F"]),
        ("cmd_solve", ["solve", "problem.json"]),
    ],
)
def test_main_runs_the_command_bound_in_the_module(monkeypatch, name, argv):
    # a tracer wraps cmd_* by rebinding the module global; main must call
    # whatever the module holds when it runs, not what it held when the
    # parser was built
    cli._parser()  # built before the rebinding
    seen = []
    monkeypatch.setattr(cli, name, lambda args: seen.append(args.command) or 7)
    assert main(argv) == 7
    assert seen == [argv[0]]


def test_a_bad_argv_between_calls_changes_no_output(tmp_path, capsys):
    problem = write_problem(tmp_path, dict(BASIC, profile={"samples": 5, "span": "3"}))
    calls = [
        ["profile", problem],
        ["matrix", "--order", "3", "--which", "G", "--format", "csv"],
        ["matrix", "--order", "x", "--which", "F"],
        ["solve", problem],
        ["profile", problem],
        ["matrix", "--order", "3", "--which", "G", "--format", "csv"],
    ]
    src = os.path.dirname(os.path.dirname(axoball.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "axoball.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        if "x" in argv:
            assert code == 2
            assert err.startswith("usage: axoball matrix")
        else:
            assert code == 0 and out


def _old_profile_csv(arrays):
    """The profile CSV as one format(x, ".17g") call per field wrote it."""
    rows = [list(arrays)]
    rows += [[format(x, ".17g") for x in point] for point in zip(*arrays.values())]
    return "".join(",".join(row) + "\n" for row in rows)


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308]
)


@given(st.lists(st.tuples(*[finite_floats] * 4), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_profile_rows_are_written_as_format_wrote_them(tmp_path_factory, points):
    arrays = dict(zip(("z", "sigma", "s", "u"), map(list, zip(*points))))
    problem = write_problem(
        tmp_path_factory.mktemp("rows"), dict(BASIC, profile={"samples": 2})
    )
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "_profile_arrays", lambda density, samples, span: arrays)
        assert main(["profile", problem]) == 0
    assert out.getvalue() == _old_profile_csv(arrays)


def test_verify_prints_no_log_record_by_default(tmp_path):
    # the kernel's DEBUG record reaches stderr only once logging is set up
    src = os.path.dirname(os.path.dirname(axoball.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    problem = write_problem(tmp_path, BASIC)
    argv = ["solve", "--verify", problem]
    configured = (
        "import logging, sys; from axoball.cli import main; "
        "logging.basicConfig(level=logging.DEBUG); sys.exit(main(sys.argv[1:]))"
    )
    runs = [
        subprocess.run(
            [sys.executable, *head, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        for head in (["-m", "axoball.cli"], ["-c", configured])
    ]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stderr == ""
    # a process's first table has one column per collocation point
    assert runs[1].stderr.startswith(
        "DEBUG:axoball.oracle:kernel table: 32 columns at 32 points"
    )
    assert runs[0].stdout == runs[1].stdout


FOOTPRINT = """
import contextlib, io, json, sys
from axoball.cli import main

solve, profile, tiny = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["solve", solve]),
        main(["profile", profile]),
        main(["profile", tiny]),
        main(["matrix", "--order", "2", "--which", "F"]),
    ]
    unverified = sorted({"numpy", "logging", "axoball.oracle"} & set(sys.modules))
    codes.append(main(["solve", "--verify", solve]))
print(json.dumps([codes, unverified, "numpy" in sys.modules]))
"""


def test_only_verify_loads_numpy_and_logging(tmp_path):
    # one fresh interpreter: solve, profile and matrix, bad input included,
    # import neither the oracle nor numpy nor logging; --verify loads them
    src = os.path.dirname(os.path.dirname(axoball.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    tiny_span = {"samples": 3, "span": "1e-400"}
    argv = [
        write_problem(tmp_path, BASIC, "solve.json"),
        write_problem(tmp_path, dict(BASIC, profile={"samples": 5}), "profile.json"),
        write_problem(tmp_path, dict(BASIC, profile=tiny_span), "tiny.json"),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "error: floats leave their range sampling the profile\n"
    codes, unverified, numpy_after_verify = json.loads(proc.stdout)
    assert codes == [0, 0, 2, 0, 0]
    assert unverified == []
    assert numpy_after_verify


def test_out_of_range_error_is_one_class():
    import axoball.electrostatics as es_mod
    import axoball.oracle as oracle_mod

    assert oracle_mod.OutOfRangeError is es_mod.OutOfRangeError


def test_solve_and_profile_solve_once_and_reuse_b(tmp_path, capsys, monkeypatch):
    import axoball.cli as cli_mod
    import axoball.electrostatics as es_mod

    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(es_mod, "solve_charge_density")
    count(cli_mod, "solve_charge_density")
    count(es_mod, "reconstruct_potential")
    count(es_mod, "f_entry_closed_form")
    body = dict(BASIC, profile={"samples": 11, "span": "3"})
    path = write_problem(tmp_path, body)

    code, _, _ = run_cli(capsys, "solve", path)
    assert code == 0
    assert calls.get("solve_charge_density") == 1
    assert calls.get("reconstruct_potential", 0) == 0

    calls.clear()
    count(es_mod.ChargeDensity, "sigma")
    count(cli_mod, "induced_axis_potential")
    count(es_mod, "charge_legendre_moments")
    code, _, _ = run_cli(capsys, "profile", path)
    assert code == 0
    assert calls.get("solve_charge_density") == 1
    assert calls.get("f_entry_closed_form", 0) == 0
    # one call per column, not one per sample
    assert calls.get("sigma") == 1
    assert calls.get("induced_axis_potential") == 1
    assert calls.get("charge_legendre_moments") == 1


exact_scales = st.builds(
    lambda n, d, e: Fraction(n, d) * Fraction(10) ** e,
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(-300, 300),
)


@given(radius=exact_scales, span=exact_scales, samples=st.integers(2, 40))
@settings(max_examples=200, deadline=None)
def test_profile_points_are_the_floated_exact_points(radius, span, samples):
    density = solve_charge_density(PotentialSpec(radius, (1,)))
    m = samples - 1
    try:
        z = [float(radius * (2 * k - m) / m) for k in range(samples)]
        s = [float(span * radius * (2 * k - m) / m) for k in range(samples)]
    except OverflowError:
        z = s = None
    if z is None or len(set(z)) < samples or len(set(s)) < samples:
        with pytest.raises(OutOfRangeError, match="sampling the profile"):
            _profile_arrays(density, samples, span)
    else:
        arrays = _profile_arrays(density, samples, span)
        # hex tells -0.0 from 0.0
        assert [v.hex() for v in arrays["z"]] == [v.hex() for v in z]
        assert [v.hex() for v in arrays["s"]] == [v.hex() for v in s]


def test_profile_samples_are_capped(tmp_path, capsys, monkeypatch):
    import axoball.cli as cli_mod

    def no_sampling(*args):
        raise AssertionError("sampled a refused profile")

    monkeypatch.setattr(cli_mod, "_profile_arrays", no_sampling)
    body = {"radius": "1", "coeffs_b": ["1"], "profile": {"samples": 100002}}
    path = write_problem(tmp_path, body)
    with pytest.raises(ProblemError, match=r"'profile\.samples'.*100001"):
        load_problem(path)
    for command in ("solve", "profile"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2 and out == ""
        assert "profile.samples" in err
    body["profile"]["samples"] = 100001
    assert load_problem(write_problem(tmp_path, body)).profile[0] == 100001


@pytest.mark.parametrize("key", ["coeffs_b", "phi0_coeffs"])
def test_coefficient_lists_are_capped(tmp_path, capsys, monkeypatch, key):
    import axoball.cli as cli_mod
    import axoball.electrostatics as es_mod

    # 401 entries, degree 400 at most, still solve (trailing zeros keep
    # this one at degree 0)
    body = {"radius": "1", key: ["1"] + ["0"] * 400, "moments": [0]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0 and len(json.loads(out)["input"]["coeffs_b"]) == 1

    def no_solving(*args):
        raise AssertionError("solved a refused problem")

    monkeypatch.setattr(cli_mod, "solve_charge_density", no_solving)
    monkeypatch.setattr(es_mod, "solve_charge_density", no_solving)
    body[key].append("1")
    path = write_problem(tmp_path, dict(body, profile={"samples": 2}))
    with pytest.raises(ProblemError, match=rf"'{key}'.*at most 401"):
        load_problem(path)
    for command in ("solve", "profile"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2 and out == ""
        assert key in err


HUGE = {"radius": "1e200", "coeffs_b": ["1", "2", "3"]}


def test_out_of_range_floats_render_null(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, HUGE))
    assert code == 0
    doc = json.loads(out)
    # D = 4 pi eps0 r^3 b2 is far beyond float range; Q = 4 pi eps0 r b1 is not
    assert doc["dipole"]["float"] is None
    assert Fraction(doc["dipole"]["coeff"]) == 8 * Fraction(10) ** 600
    assert doc["charge"]["float"] == pytest.approx(
        4e200 * math.pi * VACUUM_PERMITTIVITY, rel=1e-15
    )


def test_quantity_block_is_written_by_the_cli():
    block = _quantity(ExactPhysical(Fraction(4), epsilon0=1.0), "charge")
    assert block == {"coeff": "4", "unit_factor": "pi*eps0", "float": 4 * math.pi}


def test_nonzero_values_below_float_range_render_null(tmp_path, capsys):
    # every exact value is near 1e-400 or smaller; float(coeff) is 0.0
    body = {"radius": "1e-400", "coeffs_b": ["1", "1"]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    doc = json.loads(out)
    blocks = [doc[key] for key in ("charge", "dipole", "force")]
    blocks += doc["multipoles"].values()
    assert len(blocks) == 7
    for block in blocks:
        assert Fraction(block["coeff"]) != 0
        assert block["float"] is None


def test_a_value_underflowing_at_one_step_is_rounded_once(tmp_path, capsys):
    # coeff 4e-400 floats to 0.0; coeff * pi * 1e300 does not underflow
    body = {"radius": "1e-400", "coeffs_b": ["1"], "epsilon0": "1e300", "moments": [0]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    doc = json.loads(out)
    coeff = Fraction(doc["charge"]["coeff"])
    assert coeff == Fraction(4, 10**400)
    exact = coeff * Fraction(math.pi) * Fraction(1e300)
    assert doc["charge"]["float"] == 1.2566370614359172e-99 == float(exact)
    assert doc["multipoles"]["0"] == doc["charge"]


def test_a_coeff_past_float_range_is_rounded_once(tmp_path, capsys):
    # coeff 4e310 overflows float(coeff), although coeff * pi * eps0 is
    # 1.1126500554478704e300; the pinned degree-200 report with moments
    # 0..1000 holds 28 such floats, at orders 672-701
    body = {"radius": "1e100", "coeffs_b": ["1e210"], "moments": [0]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    doc = json.loads(out)
    coeff = Fraction(doc["charge"]["coeff"])
    assert coeff == 4 * Fraction(10) ** 310
    exact = coeff * Fraction(math.pi) * Fraction(VACUUM_PERMITTIVITY)
    assert doc["charge"]["float"] == 1.1126500554478704e300 == float(exact)
    assert doc["multipoles"]["0"] == doc["charge"]


def test_a_coeff_past_float_range_renders_null(tmp_path, capsys):
    # coeff 4e400: float(coeff) overflows, and so does the exact product
    # coeff * pi * eps0, about 1.1e390
    body = {"radius": "1e100", "coeffs_b": ["1e300"], "moments": [0]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["charge"]["coeff"]) == 4 * Fraction(10) ** 400
    assert doc["charge"]["float"] is None
    assert doc["multipoles"]["0"] == doc["charge"]


def test_a_subnormal_coeff_is_rounded_once(tmp_path, capsys):
    # coeff 4e-320 floats to a subnormal that keeps about 4 digits;
    # times pi * 1e300 it would print 1.2566065636326264e-19
    body = {"radius": "1e-320", "coeffs_b": ["1"], "epsilon0": "1e300", "moments": [0]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    doc = json.loads(out)
    coeff = Fraction(doc["charge"]["coeff"])
    assert coeff == Fraction(4, 10**320)
    exact = coeff * Fraction(math.pi) * Fraction(1e300)
    assert doc["charge"]["float"] == 1.2566370614359174e-19 == float(exact)


@given(
    st.fractions().filter(lambda q: q != 0)
    | st.builds(
        lambda m, e: Fraction(m) * Fraction(2) ** e,
        st.integers(-(2**60), 2**60).filter(bool),
        st.integers(-1200, 1200),
    ),
    st.sampled_from([1.0, VACUUM_PERMITTIVITY, 1e300, 1e-300]),
)
@settings(max_examples=300, deadline=None)
def test_quantity_float_is_never_degenerate(coeff, epsilon0):
    # the float is the exact product rounded once: never 0.0 for a nonzero
    # coeff, never inf, and null exactly where that product is 0.0 or
    # overflows
    rendered = _quantity(ExactPhysical(coeff, epsilon0=epsilon0), "charge")["float"]
    exact = coeff * Fraction(math.pi) * Fraction(epsilon0)
    try:
        once = float(exact)
    except OverflowError:
        once = None
    if once is None or once == 0:
        assert rendered is None
    else:
        assert math.isfinite(rendered) and rendered != 0
        assert rendered == once


@pytest.mark.parametrize("radius", ["1e200", "1e-200"])
def test_verify_out_of_float_range_exits_2(tmp_path, capsys, radius):
    # 1e-200: r^2 underflows to 0, a zero divisor in the collocation check
    path = write_problem(tmp_path, dict(HUGE, radius=radius))
    code, out, err = run_cli(capsys, "solve", path, "--verify")
    assert code == 2
    assert out == ""
    assert "floats leave their range checking the charge density" in err


@pytest.mark.parametrize("command", ["solve", "profile"])
def test_profile_out_of_float_range_exits_2(tmp_path, capsys, command):
    path = write_problem(tmp_path, dict(HUGE, profile={"samples": 3}))
    code, out, err = run_cli(capsys, command, path)
    assert code == 2
    assert out == ""
    assert "floats leave their range sampling the profile" in err


@pytest.mark.parametrize("command", ["solve", "profile"])
def test_profile_points_merging_in_floats_exit_2(tmp_path, capsys, command):
    # every s = k * 1e-400 floats to 0: a constant, degenerate u column
    body = {
        "radius": "1",
        "coeffs_b": ["1", "2"],
        "profile": {"samples": 5, "span": "1e-400"},
    }
    code, out, err = run_cli(capsys, command, write_problem(tmp_path, body))
    assert code == 2
    assert out == ""
    assert "floats leave their range sampling the profile" in err


@pytest.mark.parametrize("value", ["1e400", "1e-400"])
def test_epsilon0_out_of_float_range_exits_2(tmp_path, capsys, value):
    body = {"radius": "1", "coeffs_b": ["1"], "epsilon0": value}
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 2
    assert out == ""
    assert "field 'epsilon0'" in err
    assert "Traceback" not in err


def test_verify_moment_order_beyond_oracle_exits_2(tmp_path, capsys):
    body = {"radius": "1", "coeffs_b": ["1", "2"], "moments": [41]}
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, body), "--verify")
    assert code == 2
    assert out == ""
    assert "order-41 multipole moment" in err
    assert "0..40" in err
    # without --verify the exact layer serves that order
    assert run_cli(capsys, "solve", write_problem(tmp_path, body))[0] == 0


# a problem per report section whose value there is past Python's
# int-to-str limit (4300 digits by default), which stays set
TOO_LONG_TO_PRINT = {
    # r^21 = 10^8400
    "order-20 multipole moment": {
        "radius": "1e400",
        "coeffs_b": ["1"],
        "moments": [20],
    },
    # c_3 r^2: 4401 digits
    "charge density": {"radius": "1e2200", "coeffs_b": ["1", "0", "1"]},
    # 4 r b_1: 5001 digits
    "charge": {"radius": "1e1000", "coeffs_b": ["1e4000"]},
    # 4 r^3 b_2: 4501 digits
    "dipole": {"radius": "1e1500", "coeffs_b": ["0", "1"]},
    # 4 r b_1 b_2: 4401 digits, while every moment prints
    "force": {"radius": "1e400", "coeffs_b": ["1e2000", "1e2000"]},
}


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python prints integers of any length",
)
@pytest.mark.parametrize("section", TOO_LONG_TO_PRINT)
def test_value_too_long_to_print_exits_2(tmp_path, capsys, section):
    body = TOO_LONG_TO_PRINT[section]
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 2
    assert out == ""
    assert err == f"error: the {section} has too many digits to print\n"
    assert sys.get_int_max_str_digits() > 0


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python reads integers of any length",
)
def test_number_past_the_digit_limit_exits_2_briefly(tmp_path, capsys):
    body = {"radius": "1" * 5000, "coeffs_b": ["1"]}
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 2
    assert out == ""
    assert "field 'radius'" in err and "digits" in err
    assert "not a rational number" not in err
    assert len(err.encode()) < 200


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python reads integers of any length",
)
def test_radius_with_a_huge_exponent_exits_2_unsolved(tmp_path, capsys, monkeypatch):
    # refused before ten to the two millionth is built, let alone solved
    import axoball.rational as rational_mod

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("built a Fraction from a refused exponent")

    monkeypatch.setattr(rational_mod, "Fraction", NoFraction)
    body = {"radius": "1e2000000", "coeffs_b": ["1", "2", "3"]}
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 2
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: field 'radius': more than {limit} digits "
        "(Python's int-to-str limit) in '1e2000000'\n"
    )


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this Python reads integers of any length",
)
def test_unprintable_echo_exits_2_unsolved(tmp_path, capsys, monkeypatch):
    # ten to the limit has one digit too many to echo; nothing is solved
    import axoball.cli as cli_mod

    def no_solve(*args):
        raise AssertionError("solved a problem the report cannot echo")

    monkeypatch.setattr(cli_mod, "build_report", no_solve)
    radius = f"1e{sys.get_int_max_str_digits()}"
    body = {"radius": radius, "coeffs_b": ["1", "2", "3"]}
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 2
    assert out == ""
    assert err == "error: the echoed input has too many digits to print\n"


def test_a_bug_inside_a_check_is_no_input_error(tmp_path, capsys, monkeypatch):
    # only OutOfRangeError means bad input; anything else surfaces as a bug
    import axoball.oracle as oracle_mod
    from axoball import ConsistencyError

    def broken(density):
        raise ConsistencyError("injected")

    monkeypatch.setattr(oracle_mod, "brute_force_force", broken)
    with pytest.raises(ConsistencyError, match="injected"):
        main(["solve", write_problem(tmp_path, BASIC), "--verify"])


TINY = {"radius": "1e-310", "coeffs_b": ["1", "2"], "epsilon0": "1"}


@pytest.mark.parametrize("command", ["solve", "profile"])
def test_infinite_profile_samples_exit_2(tmp_path, capsys, command):
    # sigma = 2 eps0 / r (1 + 2 z) is inf at r = 1e-310; JSON has no inf
    path = write_problem(tmp_path, dict(TINY, profile={"samples": 3, "span": "1"}))
    code, out, err = run_cli(capsys, command, path)
    assert code == 2
    assert out == ""
    assert "floats leave their range sampling the profile" in err


def test_verify_on_nan_samples_exits_2(tmp_path, capsys):
    # the brute-force quadratures sample that infinite sigma
    path = write_problem(tmp_path, TINY)
    code, out, err = run_cli(capsys, "solve", path, "--verify")
    assert code == 2
    assert out == ""
    assert "floats leave their range checking the order-0 multipole moment" in err


def test_verify_out_of_range_floats_leave_one_stderr_line(tmp_path, capsys):
    # gamma_3 = +inf and gamma_5 = -inf in the collocation solve: numpy's
    # overflow and invalid value reach the oracle's guard, not a warning
    body = {"radius": "10", "coeffs_b": ["0", "0", "0", "0", "1e304"], "epsilon0": "1"}
    path = write_problem(tmp_path, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "solve", path, "--verify")
    assert code == 2
    assert out == ""
    assert err == "error: floats leave their range checking the charge density\n"


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python reads integers of any length")
def test_integer_past_the_digit_limit_names_the_limit(tmp_path, capsys):
    path = tmp_path / "problem.json"
    moments = "7" * 5000
    path.write_text('{"radius": "1", "coeffs_b": ["1"], "moments": [' + moments + "]}")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    limit = sys.get_int_max_str_digits()
    message = f"an integer literal has more than {limit} digits"
    assert err == f"error: invalid JSON in {path}: {message}\n"

UNDECODABLE = [
    pytest.param(b"\xff\xfe{}", "cannot read problem file", id="not-utf-8"),
    pytest.param(
        b'{"radius": ' + b"[" * 100000 + b"]" * 100000 + b"}",
        "invalid JSON",
        id="nested-too-deep",
    ),
    pytest.param(
        b'{"radius": "1", "coeffs_b": ["1"], "moments": [' + b"7" * 5000 + b"]}",
        "invalid JSON",
        id="integer-past-digit-limit",
        marks=pytest.mark.skipif(
            not DIGIT_LIMIT, reason="this Python reads integers of any length"
        ),
    ),
]


@pytest.mark.parametrize("raw,needle", UNDECODABLE)
def test_undecodable_problem_files_exit_2(tmp_path, capsys, raw, needle):
    path = tmp_path / "problem.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {needle}")
    assert len(err.encode()) < 1000  # the input is not echoed


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["solve", "profile"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, target):
    path = write_problem(tmp_path, dict(BASIC, profile={"samples": 3}))
    out_path = tmp_path / "absent" / "x.out" if target == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, command, path, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output file")


# The exit contract on generated input: every problem file and every byte
# string exits 0, 2 or 3, with no exception, and solve prints strict JSON.
# Sizes stay small: degree <= 12 (<= 6 under --verify), moment orders
# <= 60, decimal exponents |e| <= 400, profile samples <= 50.

rational_texts = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-9, 99)),
    st.builds(
        "{}.{}e{}".format,
        st.integers(-99, 99),
        st.integers(0, 99),
        st.integers(-400, 400),
    ),
)
positive_texts = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 99), st.integers(1, 99)),
    st.builds(
        "{}.{}e{}".format,
        st.integers(1, 99),
        st.integers(0, 99),
        st.integers(-400, 400),
    ),
)
json_values = st.one_of(
    rational_texts,
    st.integers(-99, 99),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(rational_texts, max_size=3),
    st.dictionaries(st.sampled_from(["coeffs_b", "samples"]), rational_texts),
)
FIELDS = (
    "radius", "r", "coeffs_b", "phi0_coeffs", "potential", "moments", "epsilon0",
    "profile",
)


@st.composite
def problem_files(draw, max_degree):
    """A valid problem file; one in four carries one bad or surplus field."""
    body = {
        "radius": draw(positive_texts),
        draw(st.sampled_from(["coeffs_b", "phi0_coeffs"])): draw(
            st.lists(rational_texts, min_size=1, max_size=max_degree + 1)
        ),
        "moments": draw(st.lists(st.integers(0, 60), min_size=1, max_size=4)),
    }
    if draw(st.booleans()):
        body["epsilon0"] = draw(positive_texts)
    if draw(st.booleans()):
        body["profile"] = {
            "samples": draw(st.integers(2, 50)),
            "span": draw(positive_texts),
        }
    if draw(st.integers(0, 3)) == 0:
        body[draw(st.sampled_from(FIELDS))] = draw(json_values)
    return body


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def assert_exit_contract(tmp_path_factory, raw, command, *flags):
    """main() on a file holding ``raw`` exits 0, 2 or 3 without raising;
    exit 2 prints only an error line, and solve's stdout is strict JSON."""
    path = tmp_path_factory.mktemp("contract") / "problem.json"
    path.write_bytes(raw)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, str(path), *flags])
    assert code in (0, 2, 3), stderr.getvalue()
    if code == 2:
        assert stdout.getvalue() == "" and stderr.getvalue().startswith("error: ")
    elif command == "solve":
        json.loads(stdout.getvalue(), parse_constant=_reject_constant)


@given(body=problem_files(max_degree=12), command=st.sampled_from(["solve", "profile"]))
@settings(max_examples=150, deadline=None)
def test_generated_problem_files_keep_the_exit_contract(tmp_path_factory, body, command):
    assert_exit_contract(tmp_path_factory, json.dumps(body).encode(), command)


@given(body=problem_files(max_degree=6))
@settings(max_examples=25, deadline=None)
def test_generated_problem_files_keep_the_exit_contract_under_verify(
    tmp_path_factory, body
):
    raw = json.dumps(body).encode()
    assert_exit_contract(tmp_path_factory, raw, "solve", "--verify")


@given(raw=st.binary(max_size=64), command=st.sampled_from(["solve", "profile"]))
@settings(max_examples=100, deadline=None)
def test_arbitrary_bytes_keep_the_exit_contract(tmp_path_factory, raw, command):
    assert_exit_contract(tmp_path_factory, raw, command)
