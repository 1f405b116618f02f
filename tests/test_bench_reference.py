"""Every problem of the benchmark's four main pools (``solve``, ``verify``,
``profile``, ``matrix``) still gives the output recorded in
``bench/reference.json``: exact digits bit for bit, floats within the
benchmark's tolerance, so float drift in the oracle and the samplers shows.  The pool generator and the
comparison are the benchmark's own (``bench/problems.py``, ``bench/check.py``),
loaded read-only by path."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os

import pytest

from axoball.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
problems = _load("problems")


@pytest.mark.parametrize("workload", ["solve", "verify", "profile", "matrix"])
def test_main_pool_matches_reference(tmp_path, workload):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)[f"main/{workload}"]
    pool = problems.generate(workload, "main")
    digests = [
        hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest()
        for p in pool
    ]
    assert digests == reference["problems"], "the pool is not the recorded one"
    failures = []
    for index, argv in enumerate(problems.materialize(pool, str(tmp_path))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        got = check.signature(workload, code, None, out.getvalue())
        reason = check.mismatch(got, reference["outputs"][index])
        if reason:
            failures.append((index, reason))
    assert not failures
