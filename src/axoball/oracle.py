"""Independent floating-point checks for the exact machinery.

Nothing here touches the moment-matrix code path beyond reading plain
coefficient tuples, so agreement between this module and the exact one is
evidence, not tautology.  Contents: Gauss-Legendre rules with
Newton-iterated nodes, a direct collocation solve of the boundary integral
equation

    int_{-1}^{1} s(eta) / sqrt(xi^2 + 1 - 2 xi eta) d eta = rhs(xi),

its residual for an exact density, brute-force quadrature versions of the
multipole moments and the force, each returned with the scale its gap is
measured against (the integral's cancellation-free magnitude), and
``check_report``, which runs all of these against a solved report and
returns a JSON-ready verification block.  A quadrature rule integrates the
integrand's values at its nodes, and the density is sampled at all of a
rule's nodes in one ``sigma`` call.

``check_report`` runs under one numpy error state, so that numpy raises
its float errors instead of warning, and the guards of
``electrostatics.OutOfRangeError`` turn them into bad input.  This is the
only module that imports numpy or logs; the CLI loads it only for
``--verify``.

The settings are module constants: COLLOCATION_POINTS (for the solve and
the equation residual), COLLOCATION_RESIDUAL_TOL, KERNEL_TOL and
COLLOCATION_MAX_DEGREE.

The kernel above is smooth for |xi| < 1: xi^2 + 1 - 2 xi eta >=
(1 - |xi|)^2 > 0, asserted before every evaluation.  Near |xi| -> 1 it
develops a boundary layer at eta = sign(xi), which the adaptive panel
subdivision in ``axis_kernel_integral`` resolves.  That function returns
the whole table K_j(xi), j = 1..count, at a tuple of points in one call:
``check_report`` takes one table per run, of degree + 1 columns at the
COLLOCATION_POINTS Chebyshev points, and hands it to both the collocation
solve and the equation residual.  Each (point, column) is integrated on
its own, so a table is, bit for bit, the first columns of any wider one:
``check_report`` keeps the widest table built so far in the process and
hands out a copy of its first columns, building a wider one only when a
run needs more.  The first table is COLLOCATION_POINTS columns wide, so
below that degree a process builds once, on its first run, and no later
run's time depends on which degrees came before it.
``axis_kernel_integral`` itself keeps nothing, and the oracle keeps
nothing per density: across calls it holds only that table and the
Gauss-Legendre rules.  At each level of the bisection the table takes one
libm pow per node and power for each mirrored pair of panels (eta ->
-eta), and one sqrt per point, panel and node.  It equals, bit for bit, the one-value-at-a-time
recursive rule kept in the tests as its reference, and it logs its size
and work as one DEBUG record to the ``axoball.oracle`` logger.
"""

import logging
import math
from functools import lru_cache

import numpy as np

from .electrostatics import (
    OutOfRangeError,
    _finite,
    _Value,
    _horner,
    charge_legendre_moments,
    induced_axis_potential,
)

# the monomial collocation basis turns ill-conditioned beyond degree ~12
COLLOCATION_MAX_DEGREE = 10
COLLOCATION_POINTS = 32
COLLOCATION_RESIDUAL_TOL = 1e-9
KERNEL_TOL = 1e-13

_log = logging.getLogger(__name__)
# the oracle is the package's only module that logs: the axoball logger
# drops every record until the application gives it a handler
logging.getLogger(__package__).addHandler(logging.NullHandler())


class CollocationError(RuntimeError):
    """The collocation residual exceeded tolerance.

    This signals disagreement between the oracle and the analytic solution
    (or an under-resolved solve) and is a test failure, not a state the
    caller recovers from.
    """


class QuadratureRule(_Value):
    """Gauss-Legendre nodes/weights on [-1, 1]; exact to degree 2*order-1."""

    __slots__ = ("nodes", "weights")

    def integrate(self, values):
        """sum_k w_k values[k], for the integrand's values at the nodes."""
        return sum(w * v for v, w in zip(values, self.weights))


def _legendre_pair(n, x):
    # returns (P_n(x), P_{n-1}(x)) by the three-term recurrence
    if n == 0:
        return 1.0, 0.0
    prev, cur = 1.0, x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, prev


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """Gauss-Legendre rule with the given node count.

    Nodes are the roots of P_order, found by Newton iteration from the
    Chebyshev initial guess; weights are 2 / ((1 - x^2) P'_order(x)^2).
    Cached per order; the cache is read-mostly and initialization is
    idempotent, so concurrent use is fine.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    nodes = []
    weights = []
    for k in range(1, order + 1):
        x = math.cos(math.pi * (4 * k - 1) / (4 * order + 2))
        for _ in range(60):
            p, p_prev = _legendre_pair(order, x)
            dp = order * (x * p - p_prev) / (x * x - 1.0)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        p, p_prev = _legendre_pair(order, x)
        dp = order * (x * p - p_prev) / (x * x - 1.0)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return QuadratureRule(tuple(nodes), tuple(weights))


_PANEL_RULE = gauss_legendre(16)
_PANEL_NODES = np.array(_PANEL_RULE.nodes)
_PANEL_WEIGHTS = np.array(_PANEL_RULE.weights)[:, None]
# libm pow, as Python's float power reaches it; a module name, so that the
# tests can count its calls
_pow = math.pow


def _panel_sums(level, index, task, count, near, slope):
    """The 16-node panel rule on [a, a + width], one panel per item, for
    task t's integrand eta^power / sqrt(near - slope eta) at point t //
    count and power t % count; and the number of pow calls it made.

    width = 2^(1 - level) and a = -1 + index * width are exact dyadics, so
    mid and half round as they would from the panel's ends.  The rule is
    antisymmetric (node k is minus node 15 - k, with the same weight), so
    panel last - i has exactly panel i's etas, negated and in reverse
    order.  Python's float power takes eta^power for a negative eta as
    +-pow(-eta, power), so one libm pow(|eta|, power) per node and power
    serves a mirrored pair of panels: the sign flips for odd powers.
    sqrt(near - slope eta) is taken once per (point, panel, node).  Each
    item sums its nodes' (w eta^power) / sqrt(near - slope eta) left to
    right from 0.0, as the recursive rule does."""
    width = 2.0 ** (1 - level)
    half = 0.5 * width
    last = 2**level - 1
    nodes = _PANEL_NODES[:, None]
    point, power = np.divmod(task, count)
    # pairs: (left panel of a mirrored pair, power); keys: the pairs on
    # their left panels, then on the right ones
    mirrored = index > last - index
    pairs, pair_of = np.unique(
        np.minimum(index, last - index) * count + power, return_inverse=True
    )
    key_of = pair_of + len(pairs) * mirrored
    exponent = pairs % count
    odd = exponent % 2 == 1
    # row k of each table is node k; the right panel's node k is minus the
    # left panel's node 15 - k
    etas = (pairs // count) * width - 1.0 + half + half * nodes
    exponents = exponent.astype(float).tolist()
    # one node's bases at a time as Python floats
    sizes = np.array(
        [
            np.fromiter(map(_pow, row.tolist(), exponents), float, len(pairs))
            for row in np.abs(etas)
        ]
    )
    left = _PANEL_WEIGHTS * np.where(odd & (etas < 0.0), -sizes, sizes)
    right = np.where(odd, -left[::-1], left[::-1])
    wpow = np.concatenate((left, right), axis=1)
    cells, cell_of = np.unique(index * len(near) + point, return_inverse=True)
    at = cells % len(near)
    cell_etas = (cells // len(near)) * width - 1.0 + half + half * nodes
    den = near[at] - slope[at] * cell_etas
    assert (den > 0.0).all(), "kernel lost positivity"
    root = np.sqrt(den)
    total = np.zeros(len(index))
    for node in range(len(_PANEL_NODES)):
        total = total + wpow[node][key_of] / root[node][cell_of]
    return half * total, sizes.size


def axis_kernel_integral(count, xis):
    """The table K[row, j - 1] = K_j(xis[row]) for j = 1..count, where

        K_j(xi) = int_{-1}^{1} eta^(j-1) / sqrt(xi^2 + 1 - 2 xi eta) d eta.

    Adaptive bisection over 16-node panels to KERNEL_TOL, run level by
    level for every (xi, j) at once: an interval is split in two while its
    halves' sum moves from its own panel value by more than the tolerance,
    down to depth 30, and the halves' results are summed back up the tree.
    Valid for any xi with |xi| != 1; for |xi| > 1 this is the (smooth)
    exterior kernel.  ``xis`` is a tuple; each call builds its table
    afresh.
    """
    if count < 1:
        raise ValueError("need at least one kernel column")
    xi = np.array(xis, dtype=float)
    near = xi * xi + 1.0
    slope = 2.0 * xi
    # task t integrates eta^(t % count) at xis[t // count]
    task = np.arange(len(xis) * count)
    index = np.zeros(len(task), dtype=np.int64)
    estimate, pow_calls = _panel_sums(0, index, task, count, near, slope)
    scale = np.maximum(1.0, np.abs(estimate))
    panels = len(task)
    levels = []
    depth = 0
    # the open intervals of one depth: their task, index and panel value
    while task.size:
        halves = np.column_stack((2 * index, 2 * index + 1)).ravel()
        twice = np.repeat(task, 2)
        sums, calls = _panel_sums(depth + 1, halves, twice, count, near, slope)
        panels += len(halves)
        pow_calls += calls
        both = sums[0::2] + sums[1::2]
        # absolute floor keeps the per-panel target above float resolution
        # in the boundary layer near eta = sign(xi) when |xi| -> 1
        tol = max(KERNEL_TOL * 2.0 ** (1 - depth) / 2.0, 1e-16)
        done = (np.abs(both - estimate) <= tol * scale[task]) | (depth >= 30)
        levels.append((done, both))
        split = np.repeat(~done, 2)
        task, index, estimate = twice[split], halves[split], sums[split]
        depth += 1
    # an interval's result is its halves' sum where it stopped, else the
    # sum of its halves' results; the deepest level stops everywhere (with
    # no points there is no level, and the table is empty)
    values = levels.pop()[1] if levels else estimate
    for done, both in reversed(levels):
        both[~done] = values[0::2] + values[1::2]
        values = both
    _log.debug(
        "kernel table: %d columns at %d points, %d levels deep, "
        "%d panel evaluations, %d pow calls",
        count,
        len(xis),
        depth,
        panels,
        pow_calls,
    )
    return values.reshape(len(xis), count)


class CollocationSolution(_Value):
    """Least-squares density coefficients plus solve diagnostics."""

    __slots__ = ("coeffs", "residual_norm", "condition_estimate")


def chebyshev_points(count):
    """count Chebyshev points cos((2k-1) pi / (2 count)), k = 1..count."""
    return [math.cos((2 * k - 1) * math.pi / (2 * count)) for k in range(1, count + 1)]


# the widest kernel table built so far at the Chebyshev points
_widest_kernel = None


def _chebyshev_kernel(count):
    """A fresh C-contiguous copy of the first count columns of the widest
    kernel table at the COLLOCATION_POINTS Chebyshev points, built wider
    first when it has fewer columns.  A table is built at least
    COLLOCATION_POINTS columns wide, so a process's first run builds the
    one table that every degree below COLLOCATION_POINTS slices, whatever
    order the degrees come in.  The slice is taken from a local, so a
    concurrent run that swaps in another table cannot narrow this one."""
    global _widest_kernel
    table = _widest_kernel
    if table is None or table.shape[1] < count:
        width = max(count, COLLOCATION_POINTS)
        table = axis_kernel_integral(width, tuple(chebyshev_points(COLLOCATION_POINTS)))
        _widest_kernel = table
    return table[:, :count].copy()


def collocation_solve(spec, kernel):
    """Solve the boundary integral equation directly, bypassing all the
    closed forms.  ``kernel`` is the table ``axis_kernel_integral(degree +
    1, points)`` at the COLLOCATION_POINTS Chebyshev points.

    The dimensionless density s(eta) = (r / 2 eps0) sigma(r eta) is
    expanded over monomials eta^(j-1); enforcing

        sum_j gamma_j K_j(xi) = sum_i b_i (r xi)^(i-1)

    at COLLOCATION_POINTS Chebyshev points and solving in the least-squares
    sense yields gamma_j = c_j r^(j-1).  Raises CollocationError when the
    residual stays above COLLOCATION_RESIDUAL_TOL (relative to the right
    side), and FloatingPointError when its floats leave their range.  Keep
    the degree at or below COLLOCATION_MAX_DEGREE, where the monomial basis
    still gives coefficients good to ~1e-8.
    """
    b = [float(x) for x in spec.coeffs_b]
    r = float(spec.radius)
    n1 = len(b)
    if COLLOCATION_POINTS < n1:
        raise ValueError("need at least degree+1 collocation points")
    if kernel.shape != (COLLOCATION_POINTS, n1):
        raise ValueError("need the kernel table with one column per coefficient")
    points = chebyshev_points(COLLOCATION_POINTS)
    rhs = np.array(
        [sum(bi * (r * xi) ** i for i, bi in enumerate(b)) for xi in points]
    )
    gamma, _, rank, singular = np.linalg.lstsq(kernel, rhs, rcond=None)
    if rank < n1:
        raise CollocationError(f"collocation matrix rank {rank} < {n1}")
    # an inf in gamma raises here, as in check_report, instead of warning
    with np.errstate(over="raise", invalid="raise"):
        residual = _finite(float(np.max(np.abs(kernel @ gamma - rhs))))
    residual /= max(1.0, float(np.max(np.abs(rhs))))
    condition = float(singular[0] / singular[-1]) if singular.size else math.inf
    if residual > COLLOCATION_RESIDUAL_TOL:
        raise CollocationError(
            f"collocation residual {residual:.3e} above "
            f"{COLLOCATION_RESIDUAL_TOL:.1e}"
        )
    coeffs = tuple(float(g) / r**j for j, g in enumerate(gamma))
    return CollocationSolution(coeffs, residual, condition)


def equation_residual(density, kernel):
    """Max relative residual of the integral equation for an exact density.

    Substitutes sigma back into the kernel integral and compares against
    the potential it was solved from (recovered through the Legendre charge
    moments), at the COLLOCATION_POINTS Chebyshev points, whose ``kernel``
    table has at least degree + 1 columns.
    """
    r = float(density.radius)
    gammas = [float(c) * r**j for j, c in enumerate(density.coeffs_c)]
    moments = [float(m) for m in charge_legendre_moments(density)]
    worst = 0.0
    scale = 1.0
    for xi, row in zip(chebyshev_points(COLLOCATION_POINTS), kernel.tolist()):
        lhs = sum(g * k for g, k in zip(gammas, row))
        rhs = _horner(moments, xi)
        worst = max(worst, _finite(abs(lhs - rhs)))
        scale = max(scale, abs(rhs))
    return worst / scale


def brute_force_moment(density, m):
    """The order-m moment 2 pi r int z^m sigma(z) dz by quadrature,
    treating sigma as a black box, and the scale its gap is measured
    against: pi eps0 * 8 sum_j |c_j| r^(m+j) / (m+j), the moment's
    cancellation-free magnitude.  A pair of SI floats."""
    if m < 0 or m > 40:
        raise OutOfRangeError(
            f"cannot check the order-{m} multipole moment: orders 0..40 only"
        )
    r = float(density.radius)
    rule = gauss_legendre(max((m + density.degree) // 2 + 2, 8))
    zs = [r * eta for eta in rule.nodes]
    total = rule.integrate([z**m * v for z, v in zip(zs, density.sigma(zs))])
    magnitude = 8.0 * sum(
        abs(float(c)) * r ** (m + j) / (m + j)
        for j, c in enumerate(density.coeffs_c, start=1)
    )
    return 2.0 * math.pi * r * r * total, math.pi * density.epsilon0 * magnitude


def brute_force_force(density):
    """The force (pi / eps0) int z sigma^2 dz by quadrature, and the scale
    its gap is measured against: (pi / eps0) int |z| sigma^2 dz.  Both
    sum one sampling of sigma, on a rule exact for z sigma^2 of degree
    2 * degree + 1.  A pair of SI floats."""
    r = float(density.radius)
    rule = gauss_legendre(max(density.degree + 2, 8))
    zs = [r * eta for eta in rule.nodes]
    sigma = density.sigma(zs)
    total = rule.integrate([z * v**2 for z, v in zip(zs, sigma)])
    magnitude = rule.integrate([abs(z) * v**2 for z, v in zip(zs, sigma)])
    unit = math.pi / density.epsilon0 * r
    return unit * total, unit * magnitude


def _check(measure, value, tolerance, **diagnostics):
    """One check's block: the measured value, diagnostics, the verdict."""
    passed = value <= tolerance
    return {measure: value, **diagnostics, "tolerance": tolerance, "passed": passed}


def _collocation_check(density, kernel):
    if density.degree > COLLOCATION_MAX_DEGREE:
        # past the basis's reach this is no failure
        return {"skipped": f"degree above {COLLOCATION_MAX_DEGREE}", "passed": True}
    try:
        sol = collocation_solve(density.spec, kernel)
    except CollocationError as exc:
        return {"error": str(exc), "passed": False}
    scale = max(abs(float(c)) for c in density.coeffs_c) or 1.0
    deviation = max(
        _finite(abs(float(exact) - got) / scale)
        for exact, got in zip(density.coeffs_c, sol.coeffs)
    )
    return _check(
        "max_coeff_deviation",
        deviation,
        1e-8,
        residual_norm=sol.residual_norm,
        condition_estimate=sol.condition_estimate,
    )


def check_report(report):
    """Float cross-checks of a solved ``BallReport``; the exact side of
    every check is read from the report.

    Returns the JSON-ready verification block: ``passed``, the largest
    relative deviation, and one block per check (collocation, equation
    residual, multipole moments, force, continuity of the axis potential
    across the surface).  Raises OutOfRangeError when a check cannot run
    on this input.

    The whole run is under one numpy error state: numpy raises its
    overflows, divisions by zero and invalid values as FloatingPointError
    instead of warning, and each check's guard reports them.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        density = report.density
        checks = {}
        eps = density.epsilon0
        # the one kernel table of the run, at the fixed collocation points
        kernel = _chebyshev_kernel(density.degree + 1)
        with OutOfRangeError.guard("checking the charge density"):
            r = float(density.radius)
            checks["collocation"] = _collocation_check(density, kernel)
            checks["equation_residual"] = _check(
                "value", equation_residual(density, kernel), 1e-9
            )

        # each quadrature vs its exact value, relative to the integral's
        # cancellation-free magnitude (the roundoff scale of the quadrature).
        # The exact side is float(coeff) * pi * eps in three roundings, not
        # float(moment)'s one: the benchmark's verify references were
        # recorded against these floats, and stay until they are re-recorded
        worst = 0.0
        for m, moment in report.multipoles.items():
            with OutOfRangeError.guard(f"checking the order-{m} multipole moment"):
                exact = float(moment.coeff) * math.pi * eps
                brute, scale = brute_force_moment(density, m)
                gap = abs(brute - exact)
                worst = max(worst, _finite(gap / scale if scale else gap))
        checks["moments"] = _check("max_relative_deviation", worst, 1e-10)

        with OutOfRangeError.guard("checking the force"):
            exact = float(report.force_F.coeff) * math.pi * eps
            brute, scale = brute_force_force(density)
            gap = abs(brute - exact)
            force_dev = _finite(gap / scale if scale else gap)
        checks["force"] = _check("relative_deviation", force_dev, 1e-10)

        with OutOfRangeError.guard("checking the axis potential"):
            u_in, u_out = induced_axis_potential(
                density, [r * (1 - 1e-8), r * (1 + 1e-8)]
            )
        checks["continuity"] = _check(
            "gap", abs(u_out - u_in), 1e-6 * max(1.0, abs(u_in), abs(u_out))
        )

        deviations = [worst, force_dev, checks["equation_residual"]["value"]]
        if "max_coeff_deviation" in checks["collocation"]:
            deviations.append(checks["collocation"]["max_coeff_deviation"])
        return {
            "passed": all(entry["passed"] for entry in checks.values()),
            "max_relative_deviation": max(deviations),
            "checks": checks,
        }
