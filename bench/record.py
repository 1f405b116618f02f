"""Record reference.json: the expected output of every pool problem.

    python3 bench/record.py

Runs one pass over every pool of every workload and stores, per problem, a
digest of the problem and the signature of its output (check.py).  The
benchmark compares every op against these.  Record at a commit whose
outputs are trusted, and re-record only for an intended output change,
such as a fix to the verify false failures, as a change of its own.
"""

import json
import os
import shutil

import problems
import run

FIELDS = ("exit", "error", "digest", "floats", "bits")


def record(workload, pool):
    workdir = os.path.join(run.OUT, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan, pool_problems = run.make_plan(workload, pool, workdir)
        records = run.run_client(plan, workdir, "record")["records"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(records) != len(pool_problems) or any(r["error"] for r in records):
        run.fail(f"{workload}/{pool}: not every problem ran cleanly")
    exits = [r["exit"] for r in records]
    print(f"{pool:8s} {workload:8s} {len(records)} problems, exit codes "
          + ", ".join(f"{code}: {exits.count(code)}" for code in sorted(set(exits))))
    return {
        "problems": [run.problem_digest(p) for p in pool_problems],
        "outputs": [{key: r[key] for key in FIELDS} for r in records],
    }


def main():
    # one output per line keeps the file reviewable as a diff
    entries = []
    for pool in problems.POOLS:
        for workload in problems.WORKLOADS:
            entry = record(workload, pool)
            outputs = ",\n".join("   " + json.dumps(o, sort_keys=True) for o in entry["outputs"])
            entries.append(
                f' "{pool}/{workload}": {{\n'
                f'  "problems": {json.dumps(entry["problems"])},\n'
                f'  "outputs": [\n{outputs}\n  ]\n }}'
            )
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    main()
