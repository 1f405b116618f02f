"""Problem sets for the four benchmark workloads.

Each workload runs over a fixed problem set (a "pool") drawn from a seeded
generator; ``reference.json`` records the expected output of every pool
problem, so every op of every run is checked.  Two pools exist: ``main``,
which the benchmark runs by default, and ``held-out``, which is never used
while tuning a change and is kept to confirm a claim afterwards.  The
``--seed`` of a run sets the order of the problems in each pass.

Sizes are stratified over each workload's range (one draw per equal-width
stratum) so that a pool of a few dozen problems covers its range evenly.
"""

import json
import os
import random
from fractions import Fraction

POOLS = ("main", "held-out")

# problems per pool: enough that ten distinct problems lie beyond the
# reported tail percentile, p75
POOL_SIZE = {"solve": 40, "verify": 40, "profile": 40, "matrix": 40}

WORKLOADS = tuple(POOL_SIZE)


def _stratified(rng, count, low, high):
    """One integer per stratum of [low, high], strata of equal width."""
    width = (high - low + 1) / count
    return [low + int((i + rng.random()) * width) for i in range(count)]


def _rational_text(rng, nonzero=False):
    """Small rational as text: "p/q", an integer or a decimal."""
    while True:
        form = rng.randrange(3)
        if form == 0:
            text = f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
        elif form == 1:
            text = str(rng.randint(-9, 9))
        else:
            n = rng.randint(-999, 999)
            text = f"{'-' if n < 0 else ''}{abs(n) // 100}.{abs(n) % 100:02d}"
        if not nonzero or Fraction(text) != 0:
            return text


def _potential(rng, degree, phi0):
    coeffs = [_rational_text(rng) for _ in range(degree)]
    coeffs.append(_rational_text(rng, nonzero=True))
    return {"phi0_coeffs" if phi0 else "coeffs_b": coeffs}


def _radius(rng):
    return f"{rng.randint(1, 30)}/{rng.randint(1, 10)}"


def generate(workload, pool):
    """The problems of one pool: a list of dicts with the CLI arguments
    (``args``, with ``{file}`` standing for the problem file) and, except
    for ``matrix``, the problem file body (``body``)."""
    if pool not in POOLS:
        raise ValueError(f"unknown pool {pool!r}")
    rng = random.Random(f"axoball-bench:{pool}:{workload}")
    count = POOL_SIZE[workload]
    problems = []
    if workload == "matrix":
        for i, order in enumerate(_stratified(rng, count, 20, 120)):
            which = "F" if i % 2 == 0 else "G"
            problems.append({"args": ["matrix", "--order", str(order), "--which", which]})
        return problems
    if workload == "solve":
        degrees = _stratified(rng, count, 4, 64)
    elif workload == "verify":
        degrees = _stratified(rng, count, 2, 24)
    else:
        degrees = _stratified(rng, count, 6, 24)
    for degree in degrees:
        body = {
            "radius": _radius(rng),
            "potential": _potential(rng, degree, phi0=rng.random() < 0.25),
        }
        if workload == "solve":
            body["moments"] = list(range(rng.randint(3, 10) + 1))
            args = ["solve", "{file}"]
        elif workload == "verify":
            body["moments"] = list(range(6))
            args = ["solve", "--verify", "{file}"]
        else:
            body["profile"] = {"samples": 101, "span": 3}
            args = ["profile", "{file}"]
        problems.append({"args": args, "body": body})
    return problems


def materialize(problems, directory):
    """Write the problem files into ``directory``; return each op's argv."""
    argvs = []
    for index, problem in enumerate(problems):
        path = os.path.join(directory, f"problem-{index:03d}.json")
        if "body" in problem:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(problem["body"], handle)
        argvs.append([path if a == "{file}" else a for a in problem["args"]])
    return argvs


def pass_orders(count, seed, passes):
    """The problem order of each pass: a fresh seeded shuffle per pass."""
    rng = random.Random(seed)
    orders = []
    for _ in range(passes):
        order = list(range(count))
        rng.shuffle(order)
        orders.append(order)
    return orders


def size(problem):
    """Polynomial degree + 1, or matrix order: what drives an op's cost."""
    if "body" in problem:
        return len(next(iter(problem["body"]["potential"].values())))
    return int(problem["args"][2])


def warmup_index(problems):
    """The cheapest problem of a pool, run once before any timing."""
    return min(range(len(problems)), key=lambda i: size(problems[i]))
