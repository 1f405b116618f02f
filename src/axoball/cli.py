"""Command-line front end.

Three subcommands:

    axoball solve <file> [--verify] [--out path]
    axoball matrix --order N --which F|G|B|D [--format table|csv]
    axoball profile <file> [--out path]

Problem files are JSON.  Rational values travel as strings in
``rational``'s ASCII grammar ("p/q", integer or decimal text, with an
optional sign and exponent; no whitespace or underscores); decimals are
converted exactly through power-of-ten denominators, never through binary
floats.  json parse_float is redirected to str for the same reason, and
every JSON number's text is in the grammar; a key repeated in one object
is refused, not read as its last value.  Reports are JSON with a
schema_version field; readers should ignore unknown fields so the schema
can grow.  This module parses and prints; the library computes.  It
alone writes report text: the library returns exact values, and ``_text``
and ``_quantity`` write them, and the profile's columns, whose grids and
samplers are ``electrostatics.profile``'s.  A quantity's float is
``float(x)``, its exact value rounded once, and null where that
overflows or a nonzero value underflows to 0.0.  ``matrix`` prints each
cell of ``matrix_cells``, the integers num/den in lowest terms that the
library's walks give, as ``"p"`` or ``"p/q"``, with no gcd and no
Fraction, and compares no cell with a closed form: it prints orders
1..200 only, and the tests hold every cell of that domain to its closed
form.  It keeps, per matrix, the text of the widest print so far
(``_KEPT_TEXT``): each row's cell text and the running character count
of its cells.  Every print cuts each row at its order's count, and a csv
print replaces each space by a comma; a print that text covers does only
that, with no walk and no int-to-text, and writes no keep.  A wider
print, a first one included, asks ``matrix_cells`` for only the columns
it adds, appends their text and counts to each row, and publishes the
widened keep.  At order 200, the cap, the kept text and counts and the row
table it grows take 0.84 MiB for F and 2.08 MiB each for B and G
(tracemalloc).  Every command writes its output
through ``_emit``.  ``solve`` constructs the report,
turns every value into text, verifies it with
``electrostatics.check_exact``, and only then samples the profile, runs
--verify and writes: a report too long to print is refused before its
integrals run, and a ConsistencyError, a bug, propagates with nothing
written.  ``load_problem`` caps the degree, the orders and the profile's
samples, and asks ``electrostatics.admit`` to price the rest: a problem
too large to solve is refused before any of its integers is taken.

``main(argv)`` may be called any number of times in one process.  An
argv in its canonical form, a command and then its options by their full
names, each given once (``_read``), is read without argparse; every other
argv goes to argparse, which alone writes help, usage and error text.
The parser is built once per process, on the first non-canonical call;
each later one only parses.  What the library keeps across calls, and
what a later call reads from it, is told in ``moment_matrix``'s
docstring; this module keeps the parser and the matrices' cell text.
Commands dispatch by name at call time, through the module's ``cmd_*``
globals, so rebinding one of them at module level (a tracer or a test
does) changes what ``main`` runs.

Each command imports the library layers it runs, when it runs them; at
module level this module imports only the standard library, so that a
one-shot command pays at start-up only for what it uses.  ``argparse``,
with the ``gettext`` it loads, takes about 2 ms to import and the parser
about 2 ms to build, on a 2-CPU Xeon; both happen only when a
non-canonical argv builds the parser.  ``matrix``
loads ``moment_matrix`` alone, and with it no ``fractions`` (nor the
``decimal`` and ``numbers`` that ``fractions`` loads) and no ``json``,
which only ``load_problem`` and ``cmd_solve`` import; only a ``matrix``
print that widens a kept text imports ``array``, an extension module
that takes about 0.2 ms to load.  ``solve`` and
``profile`` load ``electrostatics`` and ``rational`` once per call, in
``load_problem`` and in the command, never per value.  The oracle, and
with it numpy and logging, is imported only when --verify runs it.  As
every library name is read from its defining module at call time,
rebinding it there (a tracer or a test does) changes what the commands
run.

Exit codes: 0 on success (and for --help), 2 on input/validation errors
and bad arguments, 3 when --verify finds a tolerance breach; ``main``
returns each of them and raises no SystemExit.  Only ``main`` maps bad
input (ProblemError, or the float stages' OutOfRangeError from
``electrostatics``) to exit 2; it imports OutOfRangeError only when a
ValueError reaches it.
"""

import contextlib
import functools
import sys
from itertools import accumulate
from types import SimpleNamespace

SCHEMA_VERSION = 1


class ProblemError(Exception):
    """Bad problem file or bad arguments; message names the field."""


def _reject_nonfinite(token):
    raise ProblemError(f"non-finite number {token} is not allowed")


def _unique_keys(pairs):
    """A JSON object of a problem file as a dict.  A key given twice in one
    object is refused, where ``json`` would keep its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ProblemError(f"key {key!r} is given more than once")
        data[key] = value
    return data


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

    def __init__(self, spec, moments, profile, phi0_echo):
        self.spec = spec
        self.moments = moments
        self.profile = profile  # (samples, span) or None
        self.phi0_echo = phi0_echo  # original phi0 coefficients, or None


def load_problem(path):
    import json

    from .electrostatics import VACUUM_PERMITTIVITY, PotentialSpec, admit
    from .rational import parse_rational

    def parse_field(value, field):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ProblemError(f"field '{field}': {exc}") from None

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
            object_pairs_hook=_unique_keys,
        )
    except (ValueError, RecursionError) as exc:
        # malformed, an integer past Python's digit limit, or nested too deep
        raise ProblemError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemError("problem file must be a JSON object")

    if "radius" in data and "r" in data:
        raise ProblemError("give the radius once, as 'radius' or 'r'")
    if "radius" in data:
        radius = parse_field(data["radius"], "radius")
    elif "r" in data:
        radius = parse_field(data["r"], "r")
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
        parse_field(value, f"{fieldname}[{idx}]")
        for idx, value in enumerate(raw_coeffs)
    ]

    # float rendering only; PotentialSpec checks the range
    epsilon0 = VACUUM_PERMITTIVITY
    if "epsilon0" in data:
        epsilon0 = parse_field(data["epsilon0"], "epsilon0")

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
    try:
        admit(spec, moments)
    except ValueError as exc:
        raise ProblemError(str(exc)) from None

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
        span = parse_field(block.get("span", 2), "profile.span")
        if span <= 0:
            raise ProblemError("field 'profile.span': must be positive")
        profile = (samples, span)

    phi0_echo = coeffs if kind == "phi0_coeffs" else None
    return ProblemInput(spec, moments, profile, phi0_echo)


def _profile_arrays(density, samples, span):
    """The profile's columns, ``electrostatics.profile``: the stage of
    ``solve`` and ``profile`` that the benchmark's per-layer metrics name."""
    from .electrostatics import profile

    return profile(density, samples, span)


def _text(value, section):
    """The report text of an exact value in the named report section: its
    ``str``, the canonical ``"p"`` or ``"p/q"``, which ``parse_rational``
    reads back exactly.  Python turns no integer longer than its
    int_max_str_digits limit (4300 digits by default) into text; an exact
    value that long is bad input, reported by section.  The limit itself
    is left alone."""
    try:
        return str(value)
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
    # one text for both paths: the file gets the bytes stdout would
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ProblemError(f"cannot write output file: {exc}") from None
    else:
        # flushed here, so that a full device or a closed pipe exits 2 with
        # one error line, not a traceback; the failed stream is closed, as
        # Python flushes stdout again at exit and its buffer would fail again
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            with contextlib.suppress(OSError):
                sys.stdout.close()
            raise ProblemError(f"cannot write output: {exc}") from None


def cmd_solve(args):
    import json

    from .electrostatics import build_report, check_exact

    prob = load_problem(args.problem)
    spec = prob.spec
    # echoed first: an input the report cannot print is refused unsolved
    echo = {
        "radius": _text(spec.radius, "echoed input"),
        "epsilon0": spec.epsilon0,
        "given": "coeffs_b" if prob.phi0_echo is None else "phi0_coeffs",
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
        "charge": _quantity(report.moments[0], "charge"),
        "dipole": _quantity(report.moments[1], "dipole"),
        "multipoles": {
            str(m): _quantity(report.moments[m], f"order-{m} multipole moment")
            for m in prob.moments
        },
        "force": _quantity(report.force_F, "force"),
    }
    # verified once every value is text: an unprintable report is refused
    # before its integrals run, and a ConsistencyError writes nothing
    check_exact(report)
    if prob.profile is not None:
        doc["profile"] = _profile_arrays(report.density, *prob.profile)

    code = 0
    if args.verify:
        doc["verification"], code = run_verification(report)
    _emit(json.dumps(doc, indent=2), args.out)
    if code:
        print("verification failed; see the verification block", file=sys.stderr)
    return code


# each matrix's text from its widest print so far: one pair (text, ends)
# per row, so that the width is the number of rows.  text is row i's
# cells, "0" for a zero, each followed by one space, and ends an array of
# the running character count of its cells, the spaces left out, so that
# row i's first n cells are text[:ends[n - 1] + n - 1].  Only a print that
# widens the text writes a value, by one assignment, and every print reads
# the value once: a widening that replaces a wider value another thread
# published meanwhile costs the next wider print a widening, and no print
# a wrong text.  Its measured consumer is a process that prints many
# orders, where a print the text covers only cuts rows: the benchmark's
# ``matrix`` client, 81% of whose prints are covered.  A covered print at
# order 199 takes 0.1 ms for F and 0.2 ms for G, against 0.6 and 0.8 ms
# with one str kept per cell, on a 2-CPU Xeon
_KEPT_TEXT = {"F": (), "B": (), "G": ()}


def cmd_matrix(args):
    n = args.order
    if n < 1 or n > 200:
        raise ProblemError("--order must lie in 1..200")
    if args.which == "D":  # the diagonal as one row
        from .moment_matrix import matrix_cells

        cells = matrix_cells("D", n)
        texts = [str(num) if den == 1 else f"{num}/{den}" for *_, num, den in cells]
        rows = [" ".join(texts)]
    else:
        keep = _KEPT_TEXT[args.which]
        if len(keep) < n:
            from array import array

            from .moment_matrix import matrix_cells

            # the text of each row's added cells, from column n down to
            # column len(keep) + 1, or to the diagonal for a new row: column
            # j is at index n - j, as a negative index would take CPython's
            # list store off its fast path (0.5 ms more at F200).
            # matrix_cells walks only the added columns, before any row
            # grows: a print whose walk raises keeps nothing
            added = [["0"] * min(n - len(keep), n - i) for i in range(n)]
            for i, j, num, den in matrix_cells(args.which, n, first=len(keep) + 1):
                added[i - 1][n - j] = str(num) if den == 1 else f"{num}/{den}"
            # a new row starts as its zeros below the diagonal, counted 1, 2, ...
            zeros = array("I", range(1, n))
            heads = [*keep, *(("0 " * i, zeros[:i]) for i in range(len(keep), n))]
            rows = []
            # each row's added texts, back in column order
            for (text, ends), new in zip(heads, (row[::-1] for row in added)):
                more = accumulate(map(len, new), initial=ends[-1] if ends else 0)
                rows.append((text + " ".join([*new, ""]), ends + array("I", more)[1:]))
            keep = _KEPT_TEXT[args.which] = tuple(rows)
        rows = [text[: ends[n - 1] + n - 1] for text, ends in keep[:n]]
    if args.format == "csv":
        # a rational prints as '-', digits and '/': no field needs quoting,
        # and no cell holds a space or a comma
        rows = [row.replace(" ", ",") for row in rows]
    _emit("\n".join([*rows, ""]), None)
    return 0


def cmd_profile(args):
    from .electrostatics import solve_charge_density

    prob = load_problem(args.problem)
    if prob.profile is None:
        raise ProblemError("problem file has no 'profile' section")
    arrays = _profile_arrays(solve_charge_density(prob.spec), *prob.profile)
    # one "%.17g" format per row: 17 significant digits of each finite
    # float, no quoting needed, the lines a CSV writer would write
    row = ",".join(["%.17g"] * len(arrays)) + "\n"
    body = "".join(row % point for point in zip(*arrays.values()))
    _emit(",".join(arrays) + "\n" + body, args.out)
    return 0


# each command's namespace before its options are read: a required name
# holds ..., and an option the value argparse gives it when it is left out
_COMMANDS = {
    "solve": {"problem": ..., "verify": False, "out": None},
    "matrix": {"order": ..., "which": ..., "format": "table"},
    "profile": {"problem": ..., "out": None},
}
# the values that each option taking one reads without argparse, none of
# which starts with "-".  --order's are ASCII digits, at most 640 of them,
# the least digit limit int() may have; argparse reads " 5", "+5",
# Arabic-Indic digits and every other --order
_VALUES = {
    "--order": lambda value: value.isascii() and value.isdigit() and len(value) <= 640,
    "--which": ("B", "D", "F", "G").__contains__,
    "--format": ("table", "csv").__contains__,
    "--out": lambda value: not value.startswith("-"),
}


def _read(argv):
    """The namespace ``_parser`` gives a canonical argv, read without
    argparse, or None for any other argv.  A canonical argv is a command,
    then its options, each given at most once, by its full name, with the
    next token as its value (``--verify`` takes none), and solve's and
    profile's one problem file; ``--order``'s value is at most 640 ASCII
    digits, and no token but an option's name starts with "-".  Every
    other argv (``-h``, a prefix such as ``--ord``, ``--which=G``, a
    repeated option, "+5", a missing or extra token, ...) is argparse's,
    which alone writes help, usage and error text."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens, args = argv[0], iter(argv[1:]), {}
    for token in tokens:
        name, value = token[2:], True
        if not token.startswith("-"):
            name, value = "problem", token
        elif token != "--verify":
            value = next(tokens, "-")
            if token not in _VALUES or not _VALUES[token](value):
                return None
        if name in args or name not in _COMMANDS[command]:
            return None
        args[name] = int(value) if name == "order" else value
    args = {"command": command, **_COMMANDS[command], **args}
    return None if ... in args.values() else SimpleNamespace(**args)


@functools.cache
def _parser():
    """The CLI's parser, built on the first call and kept for the process:
    ``main`` asks for it only when ``_read`` returns None.  It holds no
    command function: ``main`` looks the command up by name at call time,
    so a module-level rebinding of ``cmd_*`` takes effect."""
    import argparse

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
    p_matrix.add_argument("--which", required=True, choices=("B", "D", "F", "G"))
    p_matrix.add_argument("--format", choices=("table", "csv"), default="table")

    p_profile = sub.add_parser("profile", help="emit CSV profiles of sigma and u")
    p_profile.add_argument("problem", help="path to the JSON problem file")
    p_profile.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


def main(argv=None):
    args = _read(sys.argv[1:] if argv is None else argv)
    try:
        args = args or _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or help: 2 for a bad argv, 0 for --help
        return exc.code
    command = {"solve": cmd_solve, "matrix": cmd_matrix, "profile": cmd_profile}
    try:
        return command[args.command](args)
    except ProblemError as exc:
        error = exc
    except ValueError as exc:
        # imported only here, so that a matrix op never loads electrostatics
        from .electrostatics import OutOfRangeError

        if not isinstance(exc, OutOfRangeError):
            raise
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
