"""Harness self-test at tiny size.

    python3 bench/selftest.py

For each workload it runs a traced client over the pool's three cheapest
problems and checks that every metric BENCHMARK.json declares is produced
with a unit, that the traced counters show the redundancy the benchmark is
meant to expose, and that the output check rejects a tampered reference.
It also checks in this process that tracing rebinds every namespace that
holds a traced function and that uninstalling restores them.  Exits 1 on
the first failed check.
"""

import importlib
import os
import shutil
import sys

import check
import problems
import run
import tracing

TINY = 3


def expect(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def tiny_results(workload):
    """Untraced and traced client results for a pass of TINY problems."""
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan, pool_problems = run.make_plan(workload, "main", workdir)
        by_size = sorted(range(len(pool_problems)), key=lambda i: problems.size(pool_problems[i]))
        plan["order"] = by_size[:TINY]
        untraced = run.run_client(plan, workdir, "untraced")
        plan.update(trace=True, spans=os.path.join(workdir, "spans.jsonl.gz"))
        traced = run.run_client(plan, workdir, "traced")
        expect(os.path.getsize(plan["spans"]) > 0, f"{workload}: no spans written")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return untraced, traced, run.reference_outputs(workload, "main", pool_problems)


def check_metrics(workload, untraced, traced, outputs):
    _, failed, first = run.verdicts(untraced["records"] + traced["records"], outputs)
    expect(failed == 0, f"{workload}: outputs differ from the reference: {first}")
    ok = run.verdicts(untraced["records"], outputs)[0]
    setups = [(untraced["setup_s"], untraced["setup_calibration_s"])]
    e2e, _ = run.end_to_end([untraced], setups, ok)
    layers, _ = run.per_layer([untraced], [traced])
    for kind, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        for name, unit in run.declared(kind).items():
            expect(name in metrics, f"{workload}: {kind} metric {name} not produced")
            expect(isinstance(metrics[name], (int, float)), f"{workload}: {name} not a number")
            expect(unit, f"{workload}: {name} has no unit")
    return layers


def check_redundancy(workload, layers, ops):
    if workload == "solve":
        name = "electrostatics.reconstruct_potential"
        expect(layers[f"{name}.calls"] > ops, "solve: one reconstruct_potential per op")
        expect(
            abs(layers[f"{name}.distinct_ratio"] * layers[f"{name}.calls"] - ops) < 1e-9,
            "solve: reconstruct_potential should see one distinct density per op",
        )
    elif workload == "profile":
        calls = layers["electrostatics.charge_legendre_moments.calls"]
        expect(calls == 101 * ops, f"profile: {calls} charge_legendre_moments calls for {ops} ops")
    elif workload == "verify":
        ratio = layers["oracle.axis_kernel_integral.distinct_ratio"]
        expect(0 < ratio < 1, f"verify: axis_kernel_integral distinct ratio {ratio}")
    else:
        expect(layers["moment_matrix.build_f.s"] + layers["moment_matrix.build_g.s"] > 0,
               "matrix: build_f/build_g not traced through the CLI's builder table")
        expect(layers["oracle.self_s"] == 0, "matrix: oracle should not run")


def check_tamper(record, reference):
    expect(check.mismatch(record, reference) is None, "untampered record should match")
    bad_digest = dict(reference, digest=reference["digest"][::-1])
    expect(check.mismatch(record, bad_digest) is not None, "tampered digest not caught")
    bad_exit = dict(reference, exit=2)
    expect(check.mismatch(record, bad_exit) is not None, "tampered exit code not caught")
    for field, values in reference["floats"].items():
        moved = [v * (1 + 1e-6) for v in values]
        expect(
            check.mismatch(record, dict(reference, floats={**reference["floats"], field: moved}))
            is not None,
            f"float field {field} moved by 1e-6 not caught",
        )


def check_patching():
    sys.path.insert(0, run.SRC)
    importlib.import_module("axoball.cli")
    before = tracing.unpatched()
    expect(before, "nothing to trace")
    patches = tracing.install(tracing.Tracer())
    try:
        expect(not tracing.unpatched(), f"unpatched bindings: {tracing.unpatched()}")
        cli = importlib.import_module("axoball.cli")
        electrostatics = importlib.import_module("axoball.electrostatics")
        for fn in (
            electrostatics.f_entry_closed_form,
            electrostatics.g_entry,
            cli.solve_charge_density,
            cli._MATRIX_BUILDERS["F"],
            cli._MATRIX_BUILDERS["G"],
        ):
            expect(hasattr(fn, "original"), f"{fn.__qualname__} not traced")
    finally:
        tracing.uninstall(patches)
    expect(tracing.unpatched() == before, "uninstall did not restore every binding")
    print(f"selftest: tracing rebinds all {len(before)} bindings and restores them")


def main():
    check_patching()
    for workload in problems.WORKLOADS:
        untraced, traced, outputs = tiny_results(workload)
        layers = check_metrics(workload, untraced, traced, outputs)
        check_redundancy(workload, layers, len(traced["records"]))
        record = untraced["records"][0]
        check_tamper(record, outputs[record["problem"]])
        print(f"selftest: {workload} ok ({len(traced['records'])} ops, every metric emitted)")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
