"""Command-line front end.

Three subcommands:

    axoball solve <file> [--verify] [--out path]
    axoball matrix --order N --which F|G|B|D [--format table|csv]
    axoball profile <file> [--out path]

Problem files are JSON.  Rational values travel as strings ("p/q", integer
or decimal text); decimals are converted exactly through power-of-ten
denominators, never through binary floats (json parse_float is redirected
to str for the same reason).  Reports are JSON with a schema_version
field; parsers ignore unknown fields so the schema can grow.  This module
alone writes and reads report text: the library returns exact values,
``_text`` and ``_quantity`` write them, and ``parse_report`` reads them
back.  A quantity's float is ``float(x)``, its exact value rounded once,
and null where that overflows or a nonzero value underflows to 0.0.
Every command writes its output through ``_emit``.

``main(argv)`` may be called any number of times in one process.  The
parser is built once per process, on the first call; each call only
parses.  Commands dispatch by name at call time, through the module's
``cmd_*`` globals, so rebinding one of them at module level (a tracer or
a test does) changes what ``main`` runs.

Exit codes: 0 on success, 2 on input/validation errors, 3 when --verify
finds a tolerance breach.  Only ``main`` maps bad input (ProblemError, or
the float stages' OutOfRangeError from ``electrostatics``) to exit 2.  The
oracle, and with it numpy and logging, is imported only when --verify
runs it.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .electrostatics import (
    VACUUM_PERMITTIVITY,
    OutOfRangeError,
    PotentialSpec,
    build_report,
    induced_axis_potential,
    solve_charge_density,
)
from .moment_matrix import build_b, build_d, build_f, build_g
from .rational import format_rational, parse_rational

SCHEMA_VERSION = 1


class ProblemError(Exception):
    """Bad problem file or bad arguments; message names the field."""


def _parse_field(value, field):
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ProblemError(f"field '{field}': {exc}") from None


def _reject_nonfinite(token):
    raise ProblemError(f"non-finite number {token} is not allowed")


def _parse_int(token):
    """An integer literal of a problem file.  Past Python's int-to-str
    digit limit (4300 by default, which stays set) the message names the
    limit, not Python's advice to raise it."""
    try:
        return int(token)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an integer literal has more than {limit} digits") from None


class ProblemInput:
    """Validated problem file: spec + report options."""

    def __init__(self, spec, moments, profile, given, phi0_echo):
        self.spec = spec
        self.moments = moments
        self.profile = profile  # (samples, span) or None
        self.given = given  # which coefficient key the file used
        self.phi0_echo = phi0_echo  # original phi0 coefficients, if given


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemError(f"cannot read problem file: {exc}") from None
    try:
        data = json.loads(
            text,
            parse_float=str,
            parse_int=_parse_int,
            parse_constant=_reject_nonfinite,
        )
    except (ValueError, RecursionError) as exc:
        # malformed, an integer past Python's digit limit, or nested too deep
        raise ProblemError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemError("problem file must be a JSON object")

    if "radius" in data and "r" in data:
        raise ProblemError("give the radius once, as 'radius' or 'r'")
    if "radius" in data:
        radius = _parse_field(data["radius"], "radius")
    elif "r" in data:
        radius = _parse_field(data["r"], "r")
    else:
        raise ProblemError("missing field 'radius'")

    pot = data.get("potential")
    if pot is not None and not isinstance(pot, dict):
        raise ProblemError("field 'potential': must be an object")
    candidates = []
    for container, prefix in ((pot or {}, "potential."), (data, "")):
        for key in ("coeffs_b", "phi0_coeffs"):
            if key in container:
                candidates.append((prefix + key, key, container[key]))
    if len(candidates) != 1:
        found = ", ".join(name for name, _, _ in candidates) or "none"
        raise ProblemError(
            f"exactly one of coeffs_b / phi0_coeffs must be given (found: {found})"
        )
    fieldname, kind, raw_coeffs = candidates[0]
    if not isinstance(raw_coeffs, list) or not raw_coeffs:
        raise ProblemError(f"field '{fieldname}': must be a non-empty list")
    if len(raw_coeffs) > 401:
        raise ProblemError(f"field '{fieldname}': must hold at most 401 entries")
    coeffs = [
        _parse_field(value, f"{fieldname}[{idx}]")
        for idx, value in enumerate(raw_coeffs)
    ]

    # float rendering only; PotentialSpec checks the range
    epsilon0 = VACUUM_PERMITTIVITY
    if "epsilon0" in data:
        epsilon0 = _parse_field(data["epsilon0"], "epsilon0")

    # -phi0 = b: a phi0 file's coefficients flip sign here
    coeffs_b = coeffs if kind == "coeffs_b" else [-a for a in coeffs]
    try:
        spec = PotentialSpec(radius, tuple(coeffs_b), epsilon0)
    except ValueError as exc:
        raise ProblemError(str(exc)) from None

    moments_raw = data.get("moments", [0, 1, 2, 3])
    if not isinstance(moments_raw, list) or not moments_raw:
        raise ProblemError("field 'moments': must be a non-empty list")
    for idx, m in enumerate(moments_raw):
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise ProblemError(
                f"field 'moments[{idx}]': must be a non-negative integer"
            )
        if m > 1000:
            raise ProblemError(f"field 'moments[{idx}]': must be at most 1000")
    moments = list(dict.fromkeys(moments_raw))  # first of each order, in order

    profile = None
    if "profile" in data:
        block = data["profile"]
        if not isinstance(block, dict):
            raise ProblemError("field 'profile': must be an object")
        samples = block.get("samples")
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
            raise ProblemError("field 'profile.samples': must be an integer >= 2")
        if samples > 100001:
            raise ProblemError("field 'profile.samples': must be at most 100001")
        span = _parse_field(block.get("span", 2), "profile.span")
        if span <= 0:
            raise ProblemError("field 'profile.span': must be positive")
        profile = (samples, span)

    phi0_echo = coeffs if kind == "phi0_coeffs" else None
    return ProblemInput(spec, moments, profile, kind, phi0_echo)


def _profile_arrays(density, samples, span):
    """Sample sigma over [-r, r] and the axis potential over span*[-r, r].

    Point k of m + 1 is the integer quotient r (2k - m) / m, floated by
    one correctly rounded true division, so the endpoints land exactly on
    +-r and +-span*r; distinct points must stay distinct.
    """
    p, q = density.radius.numerator, density.radius.denominator
    ps, qs = p * span.numerator, q * span.denominator
    m = samples - 1
    with OutOfRangeError.guard("sampling the profile"):
        z = [p * (2 * k - m) / (q * m) for k in range(samples)]
        s = [ps * (2 * k - m) / (qs * m) for k in range(samples)]
        if len(set(z)) < samples or len(set(s)) < samples:
            raise FloatingPointError("distinct sample points float to one value")
        return {
            "z": z,
            "sigma": density.sigma(z),
            "s": s,
            "u": induced_axis_potential(density, s),
        }


def _text(value, section):
    """The report text of an exact value in the named report section.
    Python turns no integer longer than its int_max_str_digits limit (4300
    digits by default) into text; an exact value that long is bad input,
    reported by section.  The limit itself is left alone."""
    try:
        return format_rational(value)
    except ValueError:
        raise ProblemError(f"the {section} has too many digits to print") from None


def _quantity(value, section):
    """The report block of an ExactPhysical: coeff, unit factor and float.
    The float is float(value), the exact product coeff * pi * epsilon0
    rounded once, and null where that overflows or where a nonzero value
    underflows to 0.0."""
    try:
        rendered = float(value)
    except OverflowError:
        rendered = None
    if rendered == 0 and value.coeff:
        rendered = None
    coeff = _text(value.coeff, section)
    return {"coeff": coeff, "unit_factor": "pi*eps0", "float": rendered}


def run_verification(report):
    """The oracle's verification block for a solved report, and the exit
    code its verdict gives: 0 when every check passed, 3 otherwise."""
    # here, not at the top: only --verify needs the oracle's numpy
    from .oracle import check_report

    block = check_report(report)
    return block, 0 if block["passed"] else 3


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ProblemError(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_solve(args):
    prob = load_problem(args.problem)
    spec = prob.spec
    # echoed first: an input the report cannot print is refused unsolved
    echo = {
        "radius": _text(spec.radius, "echoed input"),
        "epsilon0": spec.epsilon0,
        "given": prob.given,
        "coeffs_b": [_text(b, "echoed input") for b in spec.coeffs_b],
        "moments": prob.moments,
    }
    if prob.phi0_echo is not None:
        echo["phi0_coeffs"] = [_text(a, "echoed input") for a in prob.phi0_echo]
    report = build_report(spec, prob.moments)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": echo,
        "charge_density": {
            "prefactor": "2*eps0/r",
            "coeffs_c": [_text(c, "charge density") for c in report.density.coeffs_c],
        },
        "charge": _quantity(report.charge_Q, "charge"),
        "dipole": _quantity(report.dipole_D, "dipole"),
        "multipoles": {
            str(m): _quantity(value, f"order-{m} multipole moment")
            for m, value in report.multipoles.items()
        },
        "force": _quantity(report.force_F, "force"),
    }
    if prob.profile is not None:
        samples, span = prob.profile
        doc["profile"] = _profile_arrays(report.density, samples, span)

    code = 0
    if args.verify:
        doc["verification"], code = run_verification(report)
    _emit(json.dumps(doc, indent=2), args.out)
    if code:
        print("verification failed; see the verification block", file=sys.stderr)
    return code


_MATRIX_BUILDERS = {
    "F": build_f,
    "G": build_g,
    "B": build_b,
    "D": build_d,
}


def cmd_matrix(args):
    if args.order < 1 or args.order > 200:
        raise ProblemError("--order must lie in 1..200")
    rows = _MATRIX_BUILDERS[args.which](args.order)
    if args.which == "D":
        rows = [[row[i] for i, row in enumerate(rows)]]  # diagonal as one row
    sep = "," if args.format == "csv" else " "
    # a rational prints as '-', digits and '/': no field needs quoting
    _emit("".join(sep.join(map(format_rational, row)) + "\n" for row in rows), None)
    return 0


def cmd_profile(args):
    prob = load_problem(args.problem)
    if prob.profile is None:
        raise ProblemError("problem file has no 'profile' section")
    samples, span = prob.profile
    density = solve_charge_density(prob.spec)
    arrays = _profile_arrays(density, samples, span)
    # one "%.17g" format per row: 17 significant digits of each finite
    # float, no quoting needed, the lines a CSV writer would write
    row = ",".join(["%.17g"] * len(arrays)) + "\n"
    body = "".join(row % point for point in zip(*arrays.values()))
    _emit(",".join(arrays) + "\n" + body, args.out)
    return 0


def parse_report(text):
    """Read a solve report back; exact fields come back as Fractions.

    Only known fields are interpreted; anything else is ignored so that
    reports from newer schema versions still parse.
    """
    data = json.loads(text)
    out = {"schema_version": data.get("schema_version")}
    block = data.get("input", {})
    if "radius" in block:
        out["radius"] = Fraction(block["radius"])
    if "coeffs_b" in block:
        out["coeffs_b"] = tuple(Fraction(b) for b in block["coeffs_b"])
    density = data.get("charge_density", {})
    if "coeffs_c" in density:
        out["coeffs_c"] = tuple(Fraction(c) for c in density["coeffs_c"])
    for key in ("charge", "dipole", "force"):
        if key in data:
            out[key] = Fraction(data[key]["coeff"])
    if "multipoles" in data:
        out["multipoles"] = {
            int(m): Fraction(entry["coeff"])
            for m, entry in data["multipoles"].items()
        }
    return out


@functools.cache
def _parser():
    """The CLI's parser, built on the first call and kept for the process.
    It holds no command function: ``main`` looks the command up by name at
    call time, so a module-level rebinding of ``cmd_*`` takes effect."""
    parser = argparse.ArgumentParser(
        prog="axoball",
        description=(
            "Exact induced charge, multipole moments, force and axis "
            "potential for a grounded conducting ball in an axial field"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file, emit a report")
    p_solve.add_argument("problem", help="path to the JSON problem file")
    p_solve.add_argument(
        "--verify", action="store_true", help="run oracle cross-checks"
    )
    p_solve.add_argument("--out", help="write the report here instead of stdout")

    p_matrix = sub.add_parser("matrix", help="print an exact matrix")
    p_matrix.add_argument("--order", type=int, required=True)
    p_matrix.add_argument("--which", required=True, choices=sorted(_MATRIX_BUILDERS))
    p_matrix.add_argument("--format", choices=("table", "csv"), default="table")

    p_profile = sub.add_parser("profile", help="emit CSV profiles of sigma and u")
    p_profile.add_argument("problem", help="path to the JSON problem file")
    p_profile.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    command = {"solve": cmd_solve, "matrix": cmd_matrix, "profile": cmd_profile}
    try:
        return command[args.command](args)
    except (ProblemError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
