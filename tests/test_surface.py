"""The package's public surface: what ``axoball`` exports, and that every
other public function of its layers has a caller.

A public function of a layer either is exported, is called from somewhere
in the package (found by name in the package's syntax trees), is named by
a per-layer metric of the benchmark, or is the console script
``cli.main``.  A function that only the tests call belongs in
``tests/references.py``.
"""

import ast
from pathlib import Path

import axoball
from test_bench_layers import declared_functions

PACKAGE = Path(axoball.__file__).resolve().parent
LAYERS = ("rational", "moment_matrix", "electrostatics", "oracle", "cli")

SURFACE = {
    "BallReport",
    "ChargeDensity",
    "ExactPhysical",
    "PotentialSpec",
    "ConsistencyError",
    "VACUUM_PERMITTIVITY",
    "solve_charge_density",
    "build_report",
    "check_exact",
    "multipole_moments",
    "axial_force",
    "induced_axis_potential",
    "charge_legendre_moments",
    "matrix_cells",
    "parse_rational",
}


def _referenced_names():
    """Every name the package's code uses: Name ids, Attribute names and
    imported names, with their aliases."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(filter(None, (node.name, node.asname)))
    return names


def test_the_surface_is_the_papers_results():
    assert sorted(axoball.__all__) == sorted(SURFACE)
    assert set(axoball.__all__) <= set(dir(axoball))
    referenced = _referenced_names()
    pinned = set(declared_functions()) | {("cli", "main")}
    uncalled = []
    for layer in LAYERS:
        tree = ast.parse((PACKAGE / f"{layer}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            name = node.name
            if name in SURFACE or name in referenced or (layer, name) in pinned:
                continue
            uncalled.append(f"{layer}.{name}")
    assert uncalled == []
