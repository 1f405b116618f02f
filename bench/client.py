"""Closed-loop client: calls ``axoball.cli.main(argv)`` in this process, one op
at a time, the next op starting when the previous one returns.

    python3 bench/client.py PLAN RESULTS [--setup-only]

PLAN is a JSON file written by run.py.  The client imports ``axoball.cli``
from the checkout's ``src``, runs one untimed warm-up op, and records the
time both took as its set-up time; with ``--setup-only`` it stops there.
Otherwise it runs one pass over the pool in the planned order, timing each
op and a fixed calibration kernel before and after it, and writes each
op's latency, calibration time (the mean of the two kernels) and output
signature to RESULTS, with the process's peak RSS.  With tracing on, the
pass runs under the tracer and the per-layer counters are added.
"""

import time

# first, so that set-up time covers every import the process makes before
# its warm-up op, axoball's own included
SETUP_START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


class OpCapExceeded(BaseException):
    """Raised by SIGALRM when one op runs past the per-op time cap."""


def _on_alarm(signum, frame):
    raise OpCapExceeded()


def run_op(main, argv, cap_s, tracer=None, op_id=None):
    """One CLI call with captured output: (latency, exit code, error, text)."""
    out = io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.run_op(op_id, main, argv)
    except OpCapExceeded:
        error = f"over the per-op time cap of {cap_s} s"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any exception is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return latency, code, error, out.getvalue()


def calibrate():
    """Seconds a fixed stdlib-only kernel takes here and now.

    The kernel mixes what axoball spends its time on: exact Legendre-moment
    sums over factorials (the Rodrigues closed form of F_kj) and a float
    quadrature loop.  It never changes, so the ratio of an op's time to it
    measures the op, not the host's current speed.  The garbage collector
    is paused meanwhile, so the objects the process holds (the tracer's
    spans, say) do not slow the kernel.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_kernel()
    finally:
        if was_enabled:
            gc.enable()


def _calibration_kernel():
    import math
    from fractions import Fraction

    start = time.perf_counter()
    for _ in range(6):
        acc = Fraction(0)
        for i in range(1, 15):
            for j in range(i, 15, 2):
                for k in range((i - 1) // 2 + 1):
                    den = (
                        math.factorial(k)
                        * math.factorial(i - k - 1)
                        * math.factorial(i - 2 * k - 1)
                        * (i - 2 * k - 1 + j)
                    )
                    term = Fraction(math.factorial(2 * i - 2 * k - 2), den)
                    acc += (-1) ** k * term * Fraction(7, 3) ** (j - i)
        total = 0.0
        for m in range(3000):
            eta = (m % 97) / 97.0
            total += eta**3 / math.sqrt(2.25 - 2.0 * eta)
    return time.perf_counter() - start


def import_cli(src):
    sys.path.insert(0, src)
    os.environ.pop("AXOBALL_EPS0", None)
    cli = importlib.import_module("axoball.cli")
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"axoball imported from {origin}, not from {src}")
    return cli


def run_pass(cli, plan, deadline, tracer=None):
    """The pass's records; it stops early only past ``deadline``, which
    run.py treats as a failed run."""
    import check

    records = []
    before = calibrate()
    for index in plan["order"]:
        if time.perf_counter() > deadline:
            break
        op_id = len(records)
        latency, code, error, text = run_op(
            cli.main, plan["argvs"][index], plan["op_cap_s"], tracer, op_id
        )
        after = calibrate()
        sig = check.signature(plan["workload"], code, error, text)
        # the host's speed during the op, from the kernels on either side
        sig.update(problem=index, latency_s=latency, calibration_s=0.5 * (before + after))
        records.append(sig)
        before = after
    return records


def layer_counters(tracer, records):
    """Everything the traced run can report, keyed by metric name.

    ``.s`` and ``.self_s`` are seconds; ``.share`` and ``.self_share`` divide
    them by the traced op time, which keeps them comparable when the host
    runs slower or faster.
    """
    import tracing

    total = sum(r["latency_s"] for r in records)
    out = {}
    for name in tracer.names:
        calls = tracer.calls.get(name, 0)
        busy = tracer.busy.get(name, 0.0)
        own = tracer.self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = busy
        out[f"{name}.share"] = busy / total
        out[f"{name}.self_s"] = own
        out[f"{name}.self_share"] = own / total
        if name in tracing.DISTINCT:
            out[f"{name}.distinct_ratio"] = tracer.distinct[name] / calls if calls else 0.0
    for layer in tracing.LAYERS:
        own = tracer.layer_self_s(layer)
        out[f"{layer}.self_s"] = own
        out[f"{layer}.self_share"] = own / total
    for code in (2, 3):
        out[f"cli.exit{code}.count"] = sum(r["exit"] == code for r in records)
    out["rational.output_bits_max"] = max((r["bits"] for r in records), default=0)
    return out


def main(argv):
    plan_path, results_path = argv[1], argv[2]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    signal.signal(signal.SIGALRM, _on_alarm)
    cli = import_cli(plan["src"])
    run_op(cli.main, plan["argvs"][plan["warmup"]], plan["op_cap_s"])
    result = {"setup_s": time.perf_counter() - SETUP_START, "setup_calibration_s": calibrate()}
    if "--setup-only" not in argv:
        # harness modules load only now, outside the set-up time
        import resource

        import tracing

        deadline = time.perf_counter() + plan["deadline_s"]
        tracer = tracing.Tracer() if plan["trace"] else None
        patches = tracing.install(tracer) if tracer else []
        try:
            records = run_pass(cli, plan, deadline, tracer)
        finally:
            tracing.uninstall(patches)
        result["records"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            result["layers"] = layer_counters(tracer, records)
            tracer.write_spans(plan["spans"])
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv)
