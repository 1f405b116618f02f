"""Exact electrostatics of a grounded conducting ball in an axial field.

The axial potential of the external field is a polynomial; everything
induced on the ball (surface charge density, total charge, multipole
moments of any order, axial force, axis potential) follows in exact
rational arithmetic from the Legendre moment matrix and its inverse.  A
floating-point oracle solves the same boundary integral equation
numerically and cross-checks every closed form.  Only the oracle logs,
to the ``axoball.oracle`` logger; once it loads, the ``axoball`` logger
drops every record until the application gives it a handler.
"""

from .electrostatics import (
    VACUUM_PERMITTIVITY,
    BallReport,
    ChargeDensity,
    ConsistencyError,
    ExactPhysical,
    PotentialSpec,
    axial_force,
    build_report,
    charge_legendre_moments,
    dipole_moment,
    induced_axis_potential,
    multipole_moment,
    multipole_moments,
    solve_charge_density,
    total_charge,
)
from .moment_matrix import (
    beta_entry,
    build_b,
    build_d,
    build_f,
    build_g,
    d_diagonal,
    f_entry,
)
from .rational import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "VACUUM_PERMITTIVITY",
    "BallReport",
    "ChargeDensity",
    "ConsistencyError",
    "ExactPhysical",
    "PotentialSpec",
    "axial_force",
    "beta_entry",
    "build_b",
    "build_d",
    "build_f",
    "build_g",
    "build_report",
    "charge_legendre_moments",
    "d_diagonal",
    "dipole_moment",
    "f_entry",
    "format_rational",
    "induced_axis_potential",
    "multipole_moment",
    "multipole_moments",
    "parse_rational",
    "solve_charge_density",
    "total_charge",
]
