"""Span tracing of the axoball layers, installed from outside the library.

``install`` wraps the public functions of each layer module (plus the two
private CLI stages named in LAYER_PRIVATE) and rebinds the wrapper in every
namespace that holds the function: the package, each layer module, and
dicts stored in them such as the CLI's table of matrix builders.  A
function bound in two places (``electrostatics`` imports ``g_entry``,
``cli`` imports ``solve_charge_density``) would otherwise be undercounted.

Each wrapped call records a span (name, start, end, parent span, op id) in
memory; ``write_spans`` stores them when the run ends.  Busy time, self
time and call counts are folded in as spans close.  For the functions in
DISTINCT the wrapper also counts distinct arguments per op, so that
``distinct / calls`` measures how much of the work is repeated within one
CLI invocation.
"""

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

LAYERS = ("rational", "moment_matrix", "electrostatics", "oracle", "cli")

LAYER_PRIVATE = {"cli._profile_arrays", "cli._emit"}

DISTINCT = {
    "moment_matrix.f_entry_closed_form",
    "moment_matrix.g_entry",
    "electrostatics.reconstruct_potential",
    "electrostatics.solve_charge_density",
    "electrostatics.charge_legendre_moments",
    "oracle.axis_kernel_integral",
}

OP = "op"


class Tracer:
    """In-memory spans plus per-name counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.distinct = defaultdict(int)
        self.names = set()
        self._stack = []  # indices of the open spans
        self._covered = []  # time covered by the children of each open span
        self._open = defaultdict(int)  # open spans per name, for recursion
        self._seen = defaultdict(set)  # arguments seen in the current op
        self._op = None

    def wrap(self, name, fn):
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in DISTINCT:
                self._seen[name].add((args, tuple(sorted(kwargs.items()))))
            return self._span(name, fn, args, kwargs)

        traced.original = fn
        return traced

    def run_op(self, op_id, fn, *args):
        """Run one op as a root span; fold its distinct-argument counts."""
        self._op = op_id
        try:
            return self._span(OP, fn, args, {})
        finally:
            for name, seen in self._seen.items():
                self.distinct[name] += len(seen)
            self._seen.clear()
            self._op = None

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(index)
        self._covered.append(0.0)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            duration = end - start
            self._stack.pop()
            covered = self._covered.pop()
            if self._covered:
                self._covered[-1] += duration
            self._open[name] -= 1
            if not self._open[name]:
                self.busy[name] += duration
            self.self_s[name] += duration - covered
            self.calls[name] += 1
            span = self.spans[index]
            span[1], span[2] = start, end

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix))

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _namespaces():
    package = importlib.import_module("axoball")
    modules = [importlib.import_module(f"axoball.{layer}") for layer in LAYERS]
    for namespace in [vars(package)] + [vars(module) for module in modules]:
        yield namespace
        for key, value in namespace.items():
            if isinstance(value, dict) and not key.startswith("__"):
                yield value


def _traceable(module, attr, obj):
    if isinstance(obj, type) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    layer = module.__name__.rsplit(".", 1)[1]
    return not attr.startswith("_") or f"{layer}.{attr}" in LAYER_PRIVATE


def originals():
    """The functions ``install`` wraps, by traced name."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"axoball.{layer}")
        for attr, obj in vars(module).items():
            if _traceable(module, attr, obj):
                found[f"{layer}.{attr}"] = getattr(obj, "original", obj)
    return found


def install(tracer):
    """Rebind every traced function everywhere; returns the undo list."""
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in originals().items()}
    patches = []
    for table in _namespaces():
        for key, value in list(table.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patches.append((table, key, value))
                table[key] = wrapper
    return patches


def uninstall(patches):
    for table, key, value in reversed(patches):
        table[key] = value


def unpatched():
    """Bindings that still hold an unwrapped traced function."""
    targets = {id(fn): name for name, fn in originals().items()}
    return [
        (targets[id(value)], key)
        for table in _namespaces()
        for key, value in table.items()
        if id(value) in targets
    ]
