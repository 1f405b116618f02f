"""axoball benchmark: four CLI workloads, end-to-end metrics, a traced run.

    python3 bench/run.py [--workload solve|verify|profile|matrix|all]
                         [--seed N] [--seconds S] [--trace 0|1]
                         [--pool main|held-out]

Run from the root of a checkout; the library is imported from ``src``.
Without ``--workload`` every workload runs in turn.
A run is a fixed amount of work: ``PASSES`` whole passes over the
workload's problem pool (problems.py), so every run and every commit times
the same ops and its percentiles rest on the same problems.  A run that
cannot finish them within ``DEADLINE_S`` fails.  ``--seconds`` is accepted
because the common benchmark command line passes it, and is only recorded:
the work, not a time budget, sets a run's length.  ``--seed`` sets the
order of each pass.  Each pass is one fresh client process running the
ops in a closed loop (client.py), so no problem is ever repeated within a
process.  Every op's output is checked against ``reference.json``.

For each workload the last line of output is a JSON object: with
``--trace 0`` it carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` one pass is run untraced and then traced, and it carries
the per-layer metrics.  Lines before it give the environment and a
readable table, and the full result is also written under ``bench/out``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import problems

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference.json")

# passes over the pool per run; each problem's latency is the median of its
# repeats, which drops a repeat hit by a burst of host slowness.  solve's
# long ops are the least noisy once normalized, and its pass the costliest
PASSES = {"solve": 1, "verify": 2, "profile": 2, "matrix": 3}
# median time of client.calibrate() on the reference host while the
# benchmark was built; host-normalized times read as seconds on a host that
# runs the kernel in exactly this time
CAL_REF_S = 0.017

SETUP_SAMPLES = 7
OP_CAP_S = 20.0
# a run whose work is not done by then fails; with the per-op cap on the
# warm-up and the last op, it still ends inside three minutes
DEADLINE_S = 120.0
# distinct problems beyond the reported tail percentile
TAIL_BEYOND = 10


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def problem_digest(problem):
    return hashlib.sha256(json.dumps(problem, sort_keys=True).encode()).hexdigest()


def run_client(plan, workdir, name, setup_only=False):
    plan_path = os.path.join(workdir, f"{name}-plan.json")
    results_path = os.path.join(workdir, f"{name}-results.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    argv = [sys.executable, os.path.join(BENCH, "client.py"), plan_path, results_path]
    if setup_only:
        argv.append("--setup-only")
    timeout = plan["deadline_s"] + 2 * OP_CAP_S + 10.0
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"client did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"client exited with {proc.returncode}:\n{proc.stderr.strip()}")
    with open(results_path, encoding="utf-8") as handle:
        return json.load(handle)


def make_plan(workload, pool, workdir):
    """The client's plan, with the pool's problem files written to workdir."""
    pool_problems = problems.generate(workload, pool)
    plan = {
        "workload": workload,
        "src": SRC,
        "argvs": problems.materialize(pool_problems, workdir),
        "warmup": problems.warmup_index(pool_problems),
        "order": list(range(len(pool_problems))),
        "trace": False,
        "op_cap_s": OP_CAP_S,
        "deadline_s": DEADLINE_S,
    }
    return plan, pool_problems


def reference_outputs(workload, pool, pool_problems):
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)[f"{pool}/{workload}"]
    if [problem_digest(p) for p in pool_problems] != reference["problems"]:
        fail("generated problems differ from the ones reference.json was recorded on")
    return reference["outputs"]


def verdicts(records, outputs):
    """(ok ops, failed ops, first mismatch) against the reference outputs."""
    ok = failed = 0
    first = None
    for record in records:
        reason = check.mismatch(record, outputs[record["problem"]])
        if reason is None:
            ok += record["exit"] == 0
        else:
            failed += 1
            first = first or f"problem {record['problem']}: {reason}"
    return ok, failed, first


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of all order statistics, the weight of the i-th of n
    being the Beta(p(n+1), (1-p)(n+1)) probability of ((i-1)/n, i/n), so
    the weights gather around rank p*n.  Averaging a problem with its
    neighbours in rank moves the estimate less from run to run than one
    order statistic does.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    def mass(low, high, steps=16):  # Simpson's rule
        h = (high - low) / steps
        return h / 3 * sum(
            (1 if k in (0, steps) else 4 if k % 2 else 2) * density(low + k * h)
            for k in range(steps + 1)
        )

    weights = [mass(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(typical):
    """Highest percentile of the problems' typical latencies with
    TAIL_BEYOND distinct problems beyond it: (value, percentile, beyond)."""
    n = len(typical)
    beyond = min(TAIL_BEYOND, n - 1)
    fraction = (n - beyond) / n
    return quantile(typical.values(), fraction), 100.0 * fraction, beyond


def typical_latencies(results, normalized=True):
    """Each problem's median latency over the passes in ``results``.

    Normalized, every latency is first scaled by CAL_REF_S over the
    calibration time measured around the op, which turns it into seconds
    at the reference host's quiet speed (see README).
    """
    repeats = {}
    for result in results:
        for record in result["records"]:
            scale = CAL_REF_S / record["calibration_s"] if normalized else 1.0
            repeats.setdefault(record["problem"], []).append(record["latency_s"] * scale)
    return {problem: statistics.median(times) for problem, times in repeats.items()}


def end_to_end(results, setups, ok):
    """End-to-end metrics, host-normalized, and the same figures in plain
    wall-clock time as extras.  Percentiles are over the pool's problems,
    each at its typical latency, so every sample is a distinct problem."""
    records = [record for result in results for record in result["records"]]
    completed = sum(record["error"] is None for record in records)
    metrics = {
        "ok_ratio": ok / len(records),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
    }
    extra = {"fail_ratio": 1.0 - metrics["ok_ratio"]}
    for normalized, into, prefix in ((True, metrics, ""), (False, extra, "wall_")):
        typical = typical_latencies(results, normalized)
        latencies = [typical[record["problem"]] for record in records]
        value, pct, beyond = tail(typical)
        into[prefix + "ops_per_s"] = completed / sum(latencies)
        into[prefix + "latency_p50_ms"] = 1000.0 * quantile(typical.values(), 0.5)
        into[prefix + "latency_tail_ms"] = 1000.0 * value
        into[prefix + "setup_s"] = statistics.median(
            setup * (CAL_REF_S / calibration if normalized else 1.0)
            for setup, calibration in setups
        )
    extra.update(
        tail_percentile=pct,
        tail_problems_beyond=beyond,
        problems=len(typical),
        samples=len(records),
        setup_samples=len(setups),
    )
    return metrics, extra


def per_layer(untraced, traced):
    """Counters of the traced pass, plus the tracing overhead: traced
    minus untraced typical time, summed over the pass."""
    metrics = dict(traced[0]["layers"])
    plain = sum(typical_latencies(untraced).values())
    slow = sum(typical_latencies(traced).values())
    metrics["trace.overhead_s"] = slow - plain
    metrics["trace.overhead_ratio"] = (slow - plain) / plain
    return metrics, {"untraced_s": plain, "traced_s": slow}


def environment():
    def read(cmd):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() or None if proc.returncode == 0 else None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    llc = None
    caches = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for index in os.listdir(caches):
            if index.startswith("index"):
                with open(os.path.join(caches, index, "level"), encoding="utf-8") as handle:
                    level = int(handle.read())
                with open(os.path.join(caches, index, "size"), encoding="utf-8") as handle:
                    levels.append((level, handle.read().strip()))
        llc = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    source = hashlib.sha256()
    package = os.path.join(SRC, "axoball")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    numpy_version = read([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "llc_size": llc,
        "git_sha": read(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": source.hexdigest(),
    }


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=problems.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="recorded only; see above")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=problems.POOLS, default="main")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "axoball", "cli.py")):
        fail(f"no axoball source under {SRC}; run from the root of a checkout")
    for workload in problems.WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args)


def run_workload(workload, args):
    """Run one workload, print its table and its JSON line."""
    wanted = declared("per_layer" if args.trace else "end_to_end")
    passes = 1 if args.trace else PASSES[workload]
    tag = f"{workload}-{args.pool}-seed{args.seed}-trace{args.trace}"

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan, pool_problems = make_plan(workload, args.pool, workdir)
        outputs = reference_outputs(workload, args.pool, pool_problems)
        start = time.perf_counter()

        def remaining():
            left = DEADLINE_S - (time.perf_counter() - start)
            if left <= 0:
                fail(f"the run's work did not fit in the {DEADLINE_S:.0f} s deadline")
            return left

        orders = problems.pass_orders(len(pool_problems), args.seed, passes)
        if args.trace:
            schedule = [(orders[0], False), (orders[0], True)]
        else:
            schedule = [(order, False) for order in orders]
        plan["spans"] = os.path.join(OUT, f"spans-{tag}.jsonl.gz")
        results = []
        for number, (order, with_trace) in enumerate(schedule):
            plan.update(order=order, trace=with_trace, deadline_s=remaining())
            results.append(run_client(plan, workdir, f"pass{number}"))
            if len(results[-1]["records"]) < len(order):
                fail(f"pass {number} was cut at the {DEADLINE_S:.0f} s deadline")
        while not args.trace and len(results) < SETUP_SAMPLES:
            plan["deadline_s"] = remaining()
            results.append(run_client(plan, workdir, "setup", setup_only=True))
        setups = [(result["setup_s"], result["setup_calibration_s"]) for result in results]
        results = [result for result in results if "records" in result]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [record for result in results for record in result["records"]]
    ok, failed, first = verdicts(records, outputs)
    if args.trace:
        traced = [result for result in results if "layers" in result]
        untraced = [result for result in results if "layers" not in result]
        metrics, extra = per_layer(untraced, traced)
        plain = [record for result in untraced for record in result["records"]]
        extra["fail_ratio"] = 1.0 - verdicts(plain, outputs)[0] / len(plain)
    else:
        metrics, extra = end_to_end(results, setups, ok)
    unknown = sorted(set(wanted) - set(metrics))
    if unknown:
        fail(f"BENCHMARK.json names metrics this run cannot measure: {unknown}")

    env = environment()
    env.update(workload=workload, seed=args.seed, pool=args.pool, passes=len(results),
               seconds=args.seconds)
    print("env " + json.dumps(env))
    for name, unit in wanted.items():
        print(f"{workload:8s} {name:48s} {metrics[name]:>16.6g} {unit}")
    for name, value in extra.items():
        print(f"{workload:8s} {name:48s} {value}")
    if first:
        print(f"{workload:8s} first failure: {first}")
    final = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, "extra": extra, "result": final, "all_metrics": metrics}, handle, indent=1)
    print(json.dumps(final))


if __name__ == "__main__":
    main()
