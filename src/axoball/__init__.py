"""Exact electrostatics of a grounded conducting ball in an axial field.

The axial potential of the external field is a polynomial; everything
induced on the ball (surface charge density, total charge, multipole
moments of any order, axial force, axis potential) follows in exact
rational arithmetic from the Legendre moment matrix and its inverse.  A
floating-point oracle solves the same boundary integral equation
numerically and cross-checks every closed form.  Only the oracle logs,
to the ``axoball.oracle`` logger; once it loads, the ``axoball`` logger
drops every record until the application gives it a handler.

``import axoball`` loads no submodule.  Each public name is looked up in
its defining module on each access (PEP 562), so that a program that
imports the package, or one of its modules, loads only the layers it
uses: ``axoball matrix`` loads ``moment_matrix`` alone, with no
``electrostatics`` or ``fractions``.  A public name read here is always
the object its defining module holds.
"""

import importlib

__version__ = "0.1.0"

# the public names, each with its defining module
_HOME = {
    "VACUUM_PERMITTIVITY": "electrostatics",
    "BallReport": "electrostatics",
    "ChargeDensity": "electrostatics",
    "ConsistencyError": "electrostatics",
    "ExactPhysical": "electrostatics",
    "PotentialSpec": "electrostatics",
    "axial_force": "electrostatics",
    "build_report": "electrostatics",
    "charge_legendre_moments": "electrostatics",
    "induced_axis_potential": "electrostatics",
    "multipole_moments": "electrostatics",
    "solve_charge_density": "electrostatics",
    "matrix_cells": "moment_matrix",
    "parse_rational": "rational",
}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
