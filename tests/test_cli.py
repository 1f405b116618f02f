import argparse
import contextlib
import csv
import errno
import fractions
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
from axoball import cli, moment_matrix
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
)
from axoball.electrostatics import VACUUM_PERMITTIVITY, OutOfRangeError
from conftest import DIGIT_LIMIT, needs_digit_limit
from pins import PINS, with_problem


def write_problem(tmp_path, body, name="problem.json"):
    path = tmp_path / name
    text = body if isinstance(body, (str, bytes)) else json.dumps(body)
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a child interpreter imports axoball from wherever this process found it
SRC = os.path.dirname(os.path.dirname(axoball.__file__))
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)


BASIC = {
    "radius": "3/2",
    "potential": {"coeffs_b": ["1", "-2/3", "0.5"]},
    "moments": [0, 1, 2, 3, 4, 5],
}


def test_solve_report_round_trips_exactly(tmp_path, capsys):
    path = write_problem(tmp_path, BASIC)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    doc = json.loads(out)

    spec = PotentialSpec("3/2", ("1", "-2/3", "1/2"))
    density = solve_charge_density(spec)
    report = build_report(spec, (0, 1, 2, 3, 4, 5))
    assert doc["schema_version"] == 1
    assert Fraction(doc["input"]["radius"]) == Fraction(3, 2)
    assert tuple(map(Fraction, doc["input"]["coeffs_b"])) == spec.coeffs_b
    coeffs_c = doc["charge_density"]["coeffs_c"]
    assert tuple(map(Fraction, coeffs_c)) == density.coeffs_c
    assert Fraction(doc["charge"]["coeff"]) == report.charge_Q.coeff
    assert Fraction(doc["dipole"]["coeff"]) == report.dipole_D.coeff
    assert Fraction(doc["force"]["coeff"]) == report.force_F.coeff
    multipoles = {int(m): Fraction(e["coeff"]) for m, e in doc["multipoles"].items()}
    assert multipoles == {m: ep.coeff for m, ep in report.multipoles.items()}


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
    assert Fraction(json.loads(out)["input"]["radius"]) == Fraction(1, 10)


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


# The bad-input contract, one row per refusal: an id, the argv ("{file}"
# is the problem file, "{dir}" the temp dir), the file's content (JSON
# data, text, bytes, or None) and a text that stderr holds.  Every row
# exits 2 with an empty stdout, no traceback or warning, and the digit
# limit as it was.  A problem-file row prints one "error: " line, all of
# the text if it ends in a newline; a text that starts with "axoball" is
# argparse's error line, after its usage.  A new refusal is one more row.
ONE = {"radius": "1", "coeffs_b": ["1"]}
HUGE = {"radius": "1e200", "coeffs_b": ["1", "2", "3"]}
# sigma = 2 eps0 / r (1 + 2 z) is inf at r = 1e-310; JSON has no inf
TINY = {"radius": "1e-310", "coeffs_b": ["1", "2"], "epsilon0": "1"}
NESTED = b'{"radius": ' + b"[" * 100000 + b"]" * 100000 + b"}"
LONG_INT = '{"radius": "1", "coeffs_b": ["1"], "moments": [' + "7" * 5000 + "]}"
CHECKING = "floats leave their range checking the"


def bad(id, argv, content, text, marks=()):
    return pytest.param(argv, content, text, id=id, marks=marks)


BAD_INPUT = [
    bad("no-command", "", None, "axoball: error: the following arguments are required"),
    bad("order-x", "matrix --order x --which F", None,
        "axoball matrix: error: argument --order: invalid int value: 'x'"),
    *(bad(f"order-{n}", f"matrix --order {n} --which F", None,
          "--order must lie in 1..200") for n in ("0", "201", "-5")),
    bad("missing-file", "solve {dir}/absent.json", None, "cannot read problem file: "
        "[Errno 2] No such file or directory: '{dir}/absent.json'"),
    bad("not-json", "solve {file}", "not json at all {",
        "invalid JSON in {file}: Expecting value: line 1 column 1 (char 0)"),
    bad("nan", "solve {file}", '{"r": NaN}', "non-finite number NaN is not allowed"),
    bad("not-an-object", "solve {file}", [1], "problem file must be a JSON object"),
    bad("radius-and-r", "solve {file}", dict(ONE, r="2"),
        "give the radius once, as 'radius' or 'r'"),
    bad("no-radius", "solve {file}", {"coeffs_b": ["1"]}, "missing field 'radius'"),
    bad("radius-over-zero", "solve {file}", dict(ONE, radius="1/0"),
        "field 'radius': zero denominator in '1/0'"),
    bad("negative-radius", "solve {file}", dict(ONE, radius="-2"),
        "radius must be positive"),
    bad("radius-past-digit-limit", "solve {file}", dict(ONE, radius="1" * 5000),
        f"error: field 'radius': more than {DIGIT_LIMIT} digits (Python's int-to-str "
        f"limit) in '{'1' * 40}...'\n", needs_digit_limit),
    bad("potential-not-an-object", "solve {file}", {"radius": "1", "potential": []},
        "field 'potential': must be an object"),
    bad("two-coefficient-lists", "solve {file}",
        dict(ONE, potential={"phi0_coeffs": ["1"]}),
        "exactly one of coeffs_b / phi0_coeffs must be given "
        "(found: potential.phi0_coeffs, coeffs_b)"),
    *(bad(f"coeffs-{type(value).__name__}", "solve {file}", dict(ONE, coeffs_b=value),
          "field 'coeffs_b': must be a non-empty list") for value in ([], "1")),
    bad("coefficient-over-zero", "solve {file}",
        {"radius": "1", "potential": {"coeffs_b": ["1", "2/0"]}},
        "field 'potential.coeffs_b[1]': zero denominator in '2/0'"),
    bad("boolean-coefficient", "solve {file}", dict(ONE, coeffs_b=[True]),
        "field 'coeffs_b[0]': expected a rational number, got a boolean"),
    *(bad(f"epsilon0-{value}", "solve {file}", dict(ONE, epsilon0=value),
          "field 'epsilon0': must be positive and within float range")
      for value in ("0", "1e400", "1e-400")),
    bad("no-moments", "solve {file}", dict(ONE, moments=[]),
        "field 'moments': must be a non-empty list"),
    bad("negative-moment", "solve {file}", dict(ONE, moments=[0, -1]),
        "field 'moments[1]': must be a non-negative integer"),
    bad("moment-past-1000", "solve {file}",
        dict(ONE, coeffs_b=["1", "2"], moments=[0, 1001]),
        "error: field 'moments[1]': must be at most 1000\n"),
    bad("no-profile", "profile {file}", ONE, "problem file has no 'profile' section"),
    bad("profile-not-an-object", "solve {file}", dict(ONE, profile=5),
        "field 'profile': must be an object"),
    *(bad(f"samples-{n}", "profile {file}",
          dict(ONE, profile={"samples": n, "span": "2"}),
          "field 'profile.samples': must be an integer >= 2") for n in (1, True)),
    *(bad(f"span-{span}", "profile {file}",
          dict(ONE, profile={"samples": 5, "span": span}),
          "field 'profile.span': must be positive") for span in ("-1", "0")),
    # more digits than Python prints: r^21 = 10^8400; c_3 r^2, 4 r b_1, 4 r^3 b_2
    # and 4 r b_1 b_2 have 4401, 5001, 4501 and 4401 digits, while every moment prints
    *(bad(f"{section}-too-long-to-print", "solve {file}", body,
          f"error: the {section} has too many digits to print\n", needs_digit_limit)
      for section, body in (
          ("order-20 multipole moment", dict(ONE, radius="1e400", moments=[20])),
          ("charge density", {"radius": "1e2200", "coeffs_b": ["1", "0", "1"]}),
          ("charge", {"radius": "1e1000", "coeffs_b": ["1e4000"]}),
          ("dipole", {"radius": "1e1500", "coeffs_b": ["0", "1"]}),
          ("force", {"radius": "1e400", "coeffs_b": ["1e2000", "1e2000"]}),
      )),
    # floats that leave their range; every s = k * 1e-400 floats to 0, a
    # constant, degenerate u column
    *(bad(f"{id}-{command}", f"{command} {{file}}", body,
          "floats leave their range sampling the profile")
      for command in ("solve", "profile")
      for id, body in (
          ("profile-past-float-range", dict(HUGE, profile={"samples": 3})),
          ("profile-points-merging", {"radius": "1", "coeffs_b": ["1", "2"],
                                      "profile": {"samples": 5, "span": "1e-400"}}),
          ("infinite-profile-samples", dict(TINY, profile={"samples": 3, "span": "1"})),
      )),
    # 1e-200: r^2 underflows to 0, a zero divisor in the collocation check
    *(bad(f"verify-radius-{radius}", "solve --verify {file}", dict(HUGE, radius=radius),
          f"{CHECKING} charge density") for radius in ("1e200", "1e-200")),
    # the brute-force quadratures sample TINY's infinite sigma
    bad("verify-nan-samples", "solve --verify {file}", TINY,
        f"{CHECKING} order-0 multipole moment"),
    # gamma_3 = +inf and gamma_5 = -inf in the collocation solve: numpy's
    # overflow and invalid value reach the oracle's guard, not a warning
    bad("verify-collocation-overflow", "solve --verify {file}",
        {"radius": "10", "coeffs_b": ["0", "0", "0", "0", "1e304"], "epsilon0": "1"},
        f"error: {CHECKING} charge density\n"),
    bad("verify-moment-order-41", "solve --verify {file}",
        dict(ONE, coeffs_b=["1", "2"], moments=[41]),
        "cannot check the order-41 multipole moment: orders 0..40 only"),
    *(bad(f"out-{id}-{command}", f"{command} {{file}} --out {out}",
          dict(BASIC, profile={"samples": 3}),
          f"cannot write output file: {error}: '{out}'")
      for command in ("solve", "profile")
      for id, out, error in (
          ("missing-directory", "{dir}/absent/x.out",
           "[Errno 2] No such file or directory"),
          ("directory", "{dir}", "[Errno 21] Is a directory"),
      )),
]


def assert_refused(tmp_path, capsys, argv, content, text):
    """Run one row: exit 2, an empty stdout, no traceback or warning, the
    digit limit as it was, and the row's text on its error line."""
    if content is not None:
        write_problem(tmp_path, content)
    paths = {"file": tmp_path / "problem.json", "dir": tmp_path}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv.split()))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == DIGIT_LIMIT
    *usage, line = err.splitlines(keepends=True)
    if text.startswith("axoball"):
        assert "".join(usage).startswith("usage: axoball")
    else:
        assert usage == [] and line.startswith("error: ")
    assert text.format(**paths) in line


@pytest.mark.parametrize("argv, content, text", BAD_INPUT)
def test_bad_input_exits_2(tmp_path, capsys, argv, content, text):
    assert_refused(tmp_path, capsys, argv, content, text)


# rows for the files that JSON cannot decode; each text is the whole
# error line, so none of the input is echoed
UNDECODABLE = [
    bad("not-utf-8", "solve {file}", b"\xff\xfe{}", "error: cannot read problem file: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    bad("nested-too-deep", "solve {file}", NESTED, "error: invalid JSON in {file}: "
        "maximum recursion depth exceeded while decoding a JSON array from a unicode "
        "string\n"),
    bad("integer-past-digit-limit", "solve {file}", LONG_INT, "error: invalid JSON in "
        f"{{file}}: an integer literal has more than {DIGIT_LIMIT} digits\n",
        needs_digit_limit),
]


@pytest.mark.parametrize("argv, content, text", UNDECODABLE)
def test_undecodable_problem_files_exit_2(tmp_path, capsys, argv, content, text):
    assert_refused(tmp_path, capsys, argv, content, text)


@needs_digit_limit
def test_integer_past_the_digit_limit_names_the_limit(tmp_path, capsys):
    # the message names the limit in force, here Python's lowest, and
    # main leaves that limit set
    lowest = sys.int_info.str_digits_check_threshold
    body = '{"radius": "1", "coeffs_b": ["1"], "moments": [' + "7" * (lowest + 1) + "]}"
    path = write_problem(tmp_path, body)
    try:
        sys.set_int_max_str_digits(lowest)
        code, out, err = run_cli(capsys, "solve", path)
        assert sys.get_int_max_str_digits() == lowest
    finally:
        sys.set_int_max_str_digits(DIGIT_LIMIT)
    assert (code, out) == (2, "")
    message = f"an integer literal has more than {lowest} digits"
    assert err == f"error: invalid JSON in {path}: {message}\n"


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: axoball")


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


@pytest.mark.parametrize(
    "args, body, pinned",
    PINS,
    ids=["-".join(arg.lstrip("-") for arg in args) for args, _, _ in PINS],
)
def test_output_is_pinned_byte_for_byte(tmp_path, capsys, args, body, pinned):
    code, out, _ = run_cli(capsys, *with_problem(args, body, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


def test_pin_script_checks_the_axoball_on_path(tmp_path):
    # CI runs the script against the installed console script; a shim on
    # PATH stands in for it here, the second one altering each output
    shim = tmp_path / "axoball"
    path = os.pathsep.join((str(tmp_path), os.environ.get("PATH", "")))
    script = os.path.join(os.path.dirname(__file__), "pins.py")
    runs = []
    for tail in ("", ' | sed "1s/^./#/"'):
        shim.write_text(f'#!/bin/sh\n"{sys.executable}" -m axoball.cli "$@"{tail}\n')
        shim.chmod(0o755)
        runs.append(subprocess.run(
            [sys.executable, script], capture_output=True, text=True,
            env=dict(CHILD_ENV, PATH=path),
        ))
    assert (runs[0].returncode, runs[0].stderr) == (0, "")
    assert runs[1].returncode == 1
    assert runs[1].stderr.startswith(
        "pin 0 (axoball matrix --order 200 --which F --format csv) "
        "differs through the axoball on PATH"
    )


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_failed_stdout_write_exits_2(monkeypatch, capsys, failing):
    # a buffered stdout on a full device fails at the flush
    def no_space(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    stdout = type("FullDevice", (io.StringIO,), {failing: no_space})()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["matrix", "--order", "2", "--which", "F"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n"
    )
    # closed, or the interpreter's own flush at exit would fail again
    assert stdout.closed


def test_matrix_d_prints_diagonal_row(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--order", "3", "--which", "D", "--format", "csv"
    )
    assert code == 0
    assert out == "2,2/3,2/5\n"


def test_matrix_b_row(capsys):
    _, out, _ = run_cli(capsys, "matrix", "--order", "3", "--which", "B")
    assert out.splitlines()[0] == "1 0 -1/2"


def _fraction_text(which, order, sep):
    """The dense Fraction rows of ``which`` at ``order``, each cell through
    str, D as its diagonal row."""
    rows = moment_matrix._dense(which, order)
    if which == "D":
        rows = [[row[i] for i, row in enumerate(rows)]]
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("which", ["F", "G", "B", "D"])
def test_matrix_text_equals_formatted_fractions(capsys, which, fmt):
    # the CLI prints the walked integers; _dense wraps the same cells
    sep = "," if fmt == "csv" else " "
    for order in range(1, 49):
        code, out, _ = run_cli(
            capsys, "matrix", "--order", str(order), "--which", which, "--format", fmt
        )
        assert code == 0
        assert out == _fraction_text(which, order, sep), order


def test_matrix_builds_no_fraction(monkeypatch, capsys):
    expected = {which: _fraction_text(which, 12, " ") for which in "FGBD"}

    def no_fraction(*args):
        raise AssertionError("a matrix op built a Fraction")

    # neither cli nor moment_matrix binds Fraction at module level: both
    # import it from fractions where they need it
    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    for which, text in expected.items():
        code, out, _ = run_cli(capsys, "matrix", "--order", "12", "--which", which)
        assert (code, out) == (0, text)


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


def test_solve_report_includes_profile_block(tmp_path, capsys):
    body = dict(BASIC)
    body["profile"] = {"samples": 3, "span": "2"}
    _, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    doc = json.loads(out)
    assert len(doc["profile"]["z"]) == 3
    assert len(doc["profile"]["u"]) == 3


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


def test_moment_order_1000_is_served(tmp_path, capsys):
    # and 41, past the oracle's orders, which only --verify refuses
    body = {"radius": "1", "coeffs_b": ["1", "2"], "moments": [41, 1000]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0
    assert list(json.loads(out)["multipoles"]) == ["41", "1000"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "axoball.cli", "matrix", "--order", "2", "--which", "F"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
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
    # each call's exit code, stdout and stderr in this process are those of
    # a fresh interpreter, before and after a bad argv
    problem = write_problem(tmp_path, dict(BASIC, profile={"samples": 5, "span": "3"}))
    calls = [
        ["profile", problem],
        ["matrix", "--order", "3", "--which", "G", "--format", "csv"],
        ["matrix", "--order", "x", "--which", "F"],
        ["solve", problem],
        ["profile", problem],
        ["matrix", "--order", "3", "--which", "G", "--format", "csv"],
    ]
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "axoball.cli", *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
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
            env=CHILD_ENV,
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
before = set(sys.modules)
from axoball.cli import main


def added(names):
    # modules loaded since start-up, so that site hooks do not count
    return sorted(set(names) & set(sys.modules) - before)


solve, profile, tiny = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["solve", solve]),
        main(["profile", profile]),
        main(["profile", tiny]),
        main(["solve", tiny + ".missing"]),
        main(["matrix", "--order", "2", "--which", "F"]),
        main(["matrix", "--order", "x", "--which", "F"]),
    ]
    unverified = added(
        {"numpy", "logging", "axoball.oracle", "dataclasses", "inspect"}
    )
    codes.append(main(["solve", "--verify", solve]))
print(json.dumps([codes, unverified, added({"numpy", "dataclasses"})]))
"""


def test_only_verify_loads_numpy_and_logging(tmp_path):
    # one fresh interpreter: solve, profile and matrix, bad input included,
    # import neither the oracle nor numpy, logging, dataclasses or inspect;
    # --verify loads numpy and logging (numpy itself loads inspect), but
    # not dataclasses
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
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    errors = proc.stderr.splitlines()
    assert errors[0] == "error: floats leave their range sampling the profile"
    assert errors[1].startswith("error: cannot read problem file")
    assert errors[-1].startswith("axoball matrix: error: argument --order")
    assert "Traceback" not in proc.stderr
    codes, unverified, verified = json.loads(proc.stdout)
    assert codes == [0, 0, 2, 2, 0, 2, 0]
    assert unverified == []
    assert verified == ["numpy"]


LAYER_FOOTPRINT = """
import contextlib, importlib, io, json, sys
before = set(sys.modules)
import axoball

package = sorted(name for name in set(sys.modules) - before if "axoball" in name)
from axoball.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["matrix", "--order", "6", "--which", w]) for w in "FGBD"]
    codes += [main(["matrix", "--order", order, "--which", "F"]) for order in "0x"]
exact = {"axoball.electrostatics", "axoball.rational", "fractions", "decimal"}
matrix = sorted(exact & set(sys.modules) - before)

layers = [
    importlib.import_module(f"axoball.{name}")
    for name in ("electrostatics", "moment_matrix", "rational")
]
mismatched = []
for name in axoball.__all__:
    value = getattr(axoball, name)
    holders = [vars(layer) for layer in layers if name in vars(layer)]
    if not holders or any(held[name] is not value for held in holders):
        mismatched.append(name)
unlisted = sorted(set(axoball.__all__) - set(dir(axoball)))
try:
    axoball.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([package, codes, matrix, mismatched, unlisted, unknown]))
"""


def test_each_command_imports_only_the_layers_it_runs():
    # one fresh interpreter: import axoball loads no submodule, and matrix,
    # bad --order included, loads neither the exact-rational layers nor
    # fractions and the decimal it loads; every public name resolves, on
    # first access, to the object its defining module holds
    proc = subprocess.run(
        [sys.executable, "-c", LAYER_FOOTPRINT],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    package, codes, matrix, mismatched, unlisted, unknown = json.loads(proc.stdout)
    assert package == ["axoball"]
    assert codes == [0, 0, 0, 0, 2, 2]
    assert matrix == []
    assert mismatched == []
    assert unlisted == []
    assert unknown == "module 'axoball' has no attribute 'no_such_name'"


def test_out_of_range_error_is_one_class():
    import axoball.electrostatics as es_mod
    import axoball.oracle as oracle_mod

    assert oracle_mod.OutOfRangeError is es_mod.OutOfRangeError


def test_solve_and_profile_solve_once_and_reuse_b(tmp_path, capsys, monkeypatch):
    import axoball.electrostatics as es_mod

    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # the CLI reads solve_charge_density from electrostatics at call time
    count(es_mod, "solve_charge_density")
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
    count(es_mod, "induced_axis_potential")
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
    import axoball.electrostatics as es_mod

    # 401 entries, degree 400 at most, still solve (trailing zeros keep
    # this one at degree 0)
    body = {"radius": "1", key: ["1"] + ["0"] * 400, "moments": [0]}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, body))
    assert code == 0 and len(json.loads(out)["input"]["coeffs_b"]) == 1

    def no_solving(*args):
        raise AssertionError("solved a refused problem")

    monkeypatch.setattr(es_mod, "solve_charge_density", no_solving)
    body[key].append("1")
    path = write_problem(tmp_path, dict(body, profile={"samples": 2}))
    with pytest.raises(ProblemError, match=rf"'{key}'.*at most 401"):
        load_problem(path)
    for command in ("solve", "profile"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2 and out == ""
        assert key in err


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


@needs_digit_limit
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
    assert err == (
        f"error: field 'radius': more than {DIGIT_LIMIT} digits "
        "(Python's int-to-str limit) in '1e2000000'\n"
    )


@needs_digit_limit
def test_unprintable_echo_exits_2_unsolved(tmp_path, capsys, monkeypatch):
    # ten to the limit has one digit too many to echo; nothing is solved
    import axoball.electrostatics as es_mod

    def no_solve(*args):
        raise AssertionError("solved a problem the report cannot echo")

    monkeypatch.setattr(es_mod, "build_report", no_solve)
    radius = f"1e{DIGIT_LIMIT}"
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
