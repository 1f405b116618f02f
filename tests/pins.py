"""Byte-for-byte pins of the CLI's largest exact outputs, past the benchmark
pools (matrix order 120, degree 64).  A re-pin is one edit here.  Each pin
is (argv, problem body or None, sha256 of stdout); a body is written to
the file the last argv entry names.  ``python tests/pins.py`` checks every
pin in table order, through the ``axoball`` on PATH and then through
``main`` in one process: each must exit 0 with the pinned stdout and an
empty stderr.  A bad argv runs once between the order-200 csv and table
matrix pins, so every command also runs after it; it must exit 2 with an empty
stdout and argparse's usage on stderr, with no traceback.  The script
exits non-zero naming the first pin that differs, and exits 1 with one
line, before any pin, when there is no ``axoball`` on PATH.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

from axoball.cli import main


def problem(degree, moments=None):
    """The radius-7/3 problem of the given degree, b_k = (k%7-3)/(k%5+1)."""
    coeffs = [f"{k % 7 - 3}/{k % 5 + 1}" for k in range(degree + 1)]
    body = {"radius": "7/3", "coeffs_b": coeffs}
    return body if moments is None else dict(body, moments=list(moments))


# the README's example problem; its profile is built from +, * and / only,
# so the digest does not depend on the platform's libm
README_PROFILE = {"radius": "3/2", "potential": {"coeffs_b": ["1", "-2/3", "0.5"]},
                  "moments": [0, 1, 2, 3, 4], "profile": {"samples": 101, "span": "3"}}

PINS = [
    # the matrix pool's widest order, first: run through main in one
    # process, these walk columns 1..120, and the order-200 prints below
    # widen the kept cells by the columns they add
    (["matrix", "--order", "120", "--which", "F"], None,
     "cb7bc96fe3768b86fb7d717b8cb7ae842226d8ca6b390deb09ac9b3247764a14"),
    (["matrix", "--order", "120", "--which", "G"], None,
     "9f346f34eff4a6ac09eb0239190dd2122376a24cb15fd468f2958e38457012e0"),
    (["matrix", "--order", "120", "--which", "B"], None,
     "e448183df242e16b43d151371af416a010035519239c220ad237f34e44d39443"),
    (["matrix", "--order", "200", "--which", "F", "--format", "csv"], None,
     "38d79c458abffc0fa9eaca7cd1ddb2f7a061f8c91e2a0772270c1e9a9ec64cb5"),
    (["matrix", "--order", "200", "--which", "G", "--format", "csv"], None,
     "aab9ad9eb039b50a544bc30bcd31b540d27c94445c18c4c36381f74a4ef66c98"),
    (["matrix", "--order", "200", "--which", "B", "--format", "csv"], None,
     "8fb0fb1952026dce1f7cb09bbb16c961e2f07419aa524d566755d9bfd69718de"),
    (["matrix", "--order", "200", "--which", "D", "--format", "csv"], None,
     "d5a1e4ce05595701e7715d28bd512daed8f42c72670bc0c2e8283c43ef3d230a"),
    (["matrix", "--order", "200", "--which", "F"], None,
     "78c9bb35907548e49e4900a52000e4c848bec55939172eb6e7cc4e01248c6ceb"),
    (["matrix", "--order", "200", "--which", "G"], None,
     "d657d823ec0d83e5f00b8c985941452889723bda1816e8c604b0ca34e93a29da"),
    (["matrix", "--order", "200", "--which", "B"], None,
     "a8cd3990e10fe84e64acc2c6dbc3a4a1e644ddea5e5fa76a81f68a4d0527f1fe"),
    (["matrix", "--order", "200", "--which", "D"], None,
     "f096b23885a14fe42a19df0a143f75a32bc75b94ee4c367d59e50b4e8f84aeab"),
    (["solve", "degree-200-moments-200.json"], problem(200, range(201)),
     "4d4674df755429d974a30100e81b6e4ef2d970dcb82663358545820a21b71d85"),
    (["solve", "degree-400.json"], problem(400),
     "967cd5d81046123133849da9ffa897d68547a30226bd0ca7f756b32549cf0950"),
    # the closed moment sums read F's columns up to 1001
    (["solve", "degree-200-moments-1000.json"], problem(200, range(1001)),
     "bd2636b8aa2f48bcb744ddc22e8384ec391c17b64bde3dd4572b379923152aa5"),
    # the collocation check runs at degree 10 and is skipped at 16
    (["solve", "--verify", "degree-10.json"], problem(10),
     "ae47cb6728befc2455e94d0fcd35cc184e6ae0e6e7a5dd99a6b52394a63ebe54"),
    (["solve", "--verify", "degree-16.json"], problem(16),
     "3e8e5535934359f4dcf922cb111e8c0936da5b263b9c7ff4846a23b1cb2613b2"),
    # every oracle float byte for byte, where the benchmark allows 1e-9:
    # the highest pinned degree whose checks all pass
    (["solve", "--verify", "degree-18.json"], problem(18),
     "4a6441167ea3493d7f51dd5287abae52eda44d2c778c64f5fd5af65001250350"),
    (["profile", "readme.json"], README_PROFILE,
     "4b761da574bc094ae15e13525fe8937a6fe712ce90f6a83a1b73d07f7bec70de"),
]


def with_problem(args, body, directory):
    """The pin's argv, its problem written to ``directory`` if it has one."""
    if body is None:
        return list(args)
    path = os.path.join(directory, args[-1])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle)
    return [*args[:-1], path]


# a bad argv: argparse refuses it before any command runs
BAD_ARGV = ["matrix", "--order", "x", "--which", "F"]


def run_script(argv):
    proc = subprocess.run(["axoball", *argv], capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def check(run, where, directory):
    """The first pin, in table order, that ``run`` does not reproduce."""
    for index, (args, body, pinned) in enumerate(PINS):
        if index == 7:
            code, out, err = run(BAD_ARGV)
            usage = err.startswith(b"usage: axoball matrix") and b"Traceback" not in err
            if (code, out, usage) != (2, b"", True):
                return (
                    f"axoball {' '.join(BAD_ARGV)} did not exit 2 with its usage "
                    f"line {where}: exit {code}, stderr {err[:200]!r}"
                )
        code, out, err = run(with_problem(args, body, directory))
        found = hashlib.sha256(out).hexdigest()
        if (code, found, err) != (0, pinned, b""):
            return (
                f"pin {index} (axoball {' '.join(args)}) differs {where}: "
                f"exit {code}, sha256 {found}, pinned {pinned}, stderr {err[:200]!r}"
            )
    return None


if __name__ == "__main__":
    if shutil.which("axoball") is None:
        sys.exit("no axoball console script on PATH: install the package first")
    with tempfile.TemporaryDirectory() as directory:
        sys.exit(
            check(run_script, "through the axoball on PATH", directory)
            or check(run_main, "through main in one process", directory)
        )
