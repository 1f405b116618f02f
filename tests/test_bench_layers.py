"""The per-layer metrics BENCHMARK.json declares name library functions.

A name ``<layer>.<function>.<stat>`` is measured by wrapping that function
in ``axoball.<layer>``; the traced benchmark run stops when one of them no
longer exists, so renaming or deleting such a function must show here.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# counters the benchmark client keeps itself, not functions
CLIENT_COUNTERS = {"cli.exit2.count", "cli.exit3.count"}


def declared_functions():
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted(
        {
            tuple(name.split(".")[:2])
            for name in names
            if name.count(".") == 2 and name not in CLIENT_COUNTERS
        }
    )


def test_per_layer_metrics_name_library_functions():
    functions = declared_functions()
    assert ("cli", "run_verification") in functions
    missing = []
    for layer, attr in functions:
        module = importlib.import_module(f"axoball.{layer}")
        fn = getattr(module, attr, None)
        if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.append(f"{layer}.{attr}")
    assert missing == []
