"""Grounded conducting ball on the axis of an axial electric field.

The external field is axisymmetric and source-free near the ball, so it is
fixed by its axial potential, assumed polynomial and given through its
negation:

    -phi0(s) = b_1 + b_2 s + ... + b_{n+1} s^n.

A grounded ball of radius r centered at the origin then carries a surface
charge density that is again a polynomial in the axial coordinate z of the
surface point:

    sigma(z) = (2 eps0 / r) (c_1 + c_2 z + ... + c_{n+1} z^n),   |z| <= r,

with the coefficient map c_i = sum_j r^(j-i) G_ij b_j, where G is the
exact inverse of the Legendre moment matrix.  Every overall quantity has a
closed form in the b coefficients:

    total charge        Q   = 4 pi eps0 r b_1
    dipole moment       D   = 4 pi eps0 r^3 b_2
    multipole, order m  D_m = 2 pi eps0 r^(m+1) sum_i (2i-1) r^(i-1) F_{i,m+1} b_i
    axial force         F   = 4 pi eps0 sum_i i r^(2i-1) b_i b_{i+1}

Each of those is also evaluated a second, independent way by exact
polynomial integration of its defining integral (2 pi r int z^m sigma dz
for the moments, (pi/eps0) int z sigma^2 dz for the force on the surface),
and the two results are required to match identically.  A mismatch raises
ConsistencyError and indicates a bug, never bad input.

Every quantity takes the density ``solve_charge_density`` returns: its
closed form reads the b the density was solved from, its integrated path c.

The charge and the dipole are the multipole moments of orders 0 and 1;
the order-m sum gives their closed forms above.

Every exact path sums plain ints over one common denominator, by Horner's
rule in p^2 for r = p/s, and builds one reduced Fraction per value; every
path but the solve sums through ``_in_r2``.  The solve sums row i of
G = B D^{-1} from the integers 2^(j-1) B_ij as they stand in
``moment_matrix._b_rows``, the one process-wide table of the row walks,
which only grows, with the factor 2j - 1 of 1/D_jj folded into b_j's
weight.  ``multipole_moments`` takes the numerators of b and of c once for
all its orders, and ``build_report`` once for its moments and its force:
the closed sum of order m reads column m+1 of F as the integers
``moment_matrix._f_column`` walks over one denominator, and the integrated
path runs through the private ``_integral``, which no closed form uses.
The force's closed sum is one integer over b's numerators; its integral
squares c's numerator polynomial as one big-int product (Kronecker
substitution, ``_product``), so CPython's Karatsuba multiplies the pairs.

The value classes (ExactPhysical, PotentialSpec, ChargeDensity, BallReport,
and the oracle's two) are plain immutable classes on one base, ``_Value``:
equal within one class and hashed by their fields, pickled and copied
through their constructors, which also build a changed copy.  Assigning or
deleting a field raises AttributeError.

Exact results are rational multiples of pi*eps0 (ExactPhysical); the
numeric permittivity enters only when rendering floats, each the exact
product rounded once.  The two float samplers, ``ChargeDensity.sigma`` and
``induced_axis_potential``, take a sequence of axial coordinates and
return a list of floats, floating their coefficients once per call.  A
float stage that cannot run on its input raises ``OutOfRangeError``, bad
input rather than a bug; its ``guard`` maps the float errors of a stage
to it.
"""

import contextlib
import math
from fractions import Fraction

from .moment_matrix import _b_rows, _f_column, f_entry_closed_form
from .rational import parse_rational

# CODATA 2018 vacuum permittivity, F/m; rendering only, never exact math
VACUUM_PERMITTIVITY = 8.8541878128e-12


class ConsistencyError(ArithmeticError):
    """Two independent exact evaluation paths for one quantity disagreed.

    ``quantity`` is "moment" or "force", ``order`` the moment's order (None
    for the force), and ``integrated`` and ``closed`` the two exact values
    in units of pi*eps0.
    """

    def __init__(
        self, message, quantity=None, order=None, integrated=None, closed=None
    ):
        super().__init__(message)
        self.quantity = quantity
        self.order = order
        self.integrated = integrated
        self.closed = closed


class _Value:
    """Base of the value classes: ``__init__`` takes one value per field,
    by position or by name, and sets each field once; see the module
    docstring."""

    __slots__ = ()
    # the fields: the ``__slots__`` of the class that declares them, which
    # a subclass with empty ``__slots__`` inherits
    _names = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._names = cls.__slots__ or cls._names

    def __init__(self, *fields, **named):
        names = self._names
        if named:
            rest = names[len(fields) :]
            fields += tuple(named.pop(name) for name in rest if name in named)
        if named or len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class ExactPhysical(_Value):
    """An exact rational multiple of the symbolic unit factor pi*eps0.

    The rational coefficient is the truth.  ``float(x)`` is the exact
    product of coeff, ``math.pi`` and the stored permittivity, rounded once
    by one int true division: 0.0 or a subnormal where it underflows, and
    OverflowError only where the product itself overflows.
    """

    __slots__ = ("coeff", "epsilon0")

    def __init__(self, coeff, epsilon0=VACUUM_PERMITTIVITY):
        super().__init__(coeff, epsilon0)

    def __float__(self):
        pi_num, pi_den = math.pi.as_integer_ratio()
        eps_num, eps_den = self.epsilon0.as_integer_ratio()
        return (self.coeff.numerator * pi_num * eps_num) / (
            self.coeff.denominator * pi_den * eps_den
        )


class PotentialSpec(_Value):
    """Ball radius and the coefficients b of the negated axial potential.

    ``coeffs_b`` holds b_1..b_{n+1} with -phi0(s) = sum b_i s^(i-1).
    Entries pass through ``parse_rational``, so ints, Fractions and strings
    are accepted and binary floats are rejected.  Trailing zeros are
    normalized away (the degree is the index of the last nonzero
    coefficient); the all-zero potential collapses to a single 0.

    ``epsilon0`` is a plain float used only for float rendering.
    """

    __slots__ = ("radius", "coeffs_b", "epsilon0")

    def __init__(self, radius, coeffs_b, epsilon0=VACUUM_PERMITTIVITY):
        radius = parse_rational(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        coeffs = [parse_rational(b) for b in coeffs_b]
        if not coeffs:
            raise ValueError("coeffs_b must not be empty")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        try:
            eps = float(epsilon0)
        except OverflowError:
            eps = math.inf
        if not 0 < eps < math.inf:
            raise ValueError(
                "field 'epsilon0': must be positive and within float range"
            )
        super().__init__(radius, tuple(coeffs), eps)

    @property
    def degree(self):
        return len(self.coeffs_b) - 1


class ChargeDensity(_Value):
    """A solved problem: the spec and the coefficients c of its induced
    density sigma(z) = (2 eps0 / r) sum_j c_j z^(j-1).  Built by
    ``solve_charge_density``; radius, permittivity and b come from spec.
    The constructor checks nothing, so ``ChargeDensity(spec, coeffs_c)``
    also builds a density that does not solve its spec."""

    __slots__ = ("spec", "coeffs_c")

    @property
    def radius(self):
        return self.spec.radius

    @property
    def epsilon0(self):
        return self.spec.epsilon0

    @property
    def coeffs_b(self):
        return self.spec.coeffs_b

    @property
    def degree(self):
        return len(self.coeffs_c) - 1

    def sigma(self, points):
        """Density at each axial coordinate in ``points``, in SI units
        (floats); c is floated once per call.

        Meaningful for |z| <= r, the axial range covered by the surface.
        Raises OverflowError, ZeroDivisionError or FloatingPointError when
        a value leaves float range, the errors ``OutOfRangeError.guard`` maps.
        """
        coeffs = [float(c) for c in self.coeffs_c]
        prefactor = 2.0 * self.epsilon0 / float(self.radius)
        return [_finite(prefactor * _horner(coeffs, float(z))) for z in points]


class BallReport(_Value):
    """A solved density with its charge, dipole, multipoles and force."""

    __slots__ = ("density", "charge_Q", "dipole_D", "multipoles", "force_F")


def solve_charge_density(spec):
    """Induced surface density for the given potential.

    c_i = sum_j r^(j-i) G_ij b_j.  The system behind this is triangular
    with nonzero diagonal, so it is always solvable and the solution is
    exact.  With r = p/s, b_j = B_j / L over the least common denominator
    L of b, and 2^j G_ij = (2j-1) h_j for the integers h_j = 2^(j-1) B_ij
    of row i of the table ``_b_rows``, each c_i is one integer sum over the
    denominator 2^n s^(n-i) L, n = len(b).
    """
    p, s = spec.radius.numerator, spec.radius.denominator
    big_b, lcd = _numerators(spec.coeffs_b)
    n1 = len(big_b)
    # b_j's factor over the common denominator with G's (2j - 1), all but
    # the power of p
    weight = [
        (2 * j - 1) * (2 * s) ** (n1 - j) * big_b[j - 1] for j in range(1, n1 + 1)
    ]
    p2 = p * p
    table = _b_rows(n1)
    coeffs = []
    for i in range(1, n1 + 1):
        terms = [h * w for h, w in zip(table[i - 1], weight[i - 1 :: 2])]
        # Horner in p^2, not _in_r2: s's powers sit in weights every row shares
        acc = 0
        for term in reversed(terms):
            acc = acc * p2 + term
        coeffs.append(Fraction(acc, 2**n1 * s ** (n1 - i) * lcd))
    return ChargeDensity(spec, tuple(coeffs))


# kept for the benchmark's per-layer metrics, which name it
def reconstruct_potential(density):
    """Invert the density map: b_k = sum_j r^(j-k) F_kj c_j.

    Exact because F and G are exact inverses; round-trips with
    ``solve_charge_density`` bit for bit (up to trailing-zero
    normalization).
    """
    r = density.radius
    c = density.coeffs_c
    n1 = len(c)
    coeffs = []
    for k in range(1, n1 + 1):
        acc = Fraction(0)
        for j in range(k, n1 + 1, 2):
            acc += r ** (j - k) * f_entry_closed_form(k, j) * c[j - 1]
        coeffs.append(acc)
    return PotentialSpec(r, tuple(coeffs), density.epsilon0)


def charge_legendre_moments(density):
    """Legendre projections of the dimensionless density.

    m_k = integral of (r/(2 eps0)) sigma(r eta) P_{k-1}(eta) d eta
    = sum_j F_kj c_j r^(j-1), which is identically r^(k-1) b_k (the F c
    sum is ``reconstruct_potential``).  These drive the axis potential of
    the induced charge.
    """
    r = density.radius
    return [r**k * b for k, b in enumerate(density.coeffs_b)]


def _numerators(values):
    """Integer numerators of exact values over their least common
    denominator, and that denominator."""
    lcd = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcd // v.denominator) for v in values], lcd


def _in_r2(terms, p, s):
    """sum_k terms[k] p^(2k) s^(2(K-1-k)) for K integers terms[k], that is
    s^(2K-2) sum_k terms[k] r^(2k) for r = p/s, by Horner's rule in p^2."""
    p2, s2 = p * p, s * s
    acc, s_power = 0, 1
    for term in reversed(terms):
        acc = acc * p2 + term * s_power
        s_power *= s2
    return acc


def _integral(a, r, m):
    """int_{-r}^{r} z^m sum_d a[d] z^d dz for integers a[d], as an
    unreduced numerator and denominator: the sum over d with d + m even of
    2 a[d] r^e / e, e = d + m + 1.  With r = p/s it is one integer over
    s^top M (top the largest e, M the lcm of the e), summed by ``_in_r2``."""
    p, s = r.numerator, r.denominator
    degrees = range(m % 2, len(a), 2)
    if not degrees:
        return 0, 1
    lcm_e = math.lcm(*(d + m + 1 for d in degrees))
    acc = _in_r2([a[d] * (lcm_e // (d + m + 1)) for d in degrees], p, s)
    first, top = degrees[0] + m + 1, degrees[-1] + m + 1
    return 2 * acc * p**first, s**top * lcm_e


def _integrated_moment(c, lcd, r, m):
    """2 pi r int z^m sigma dz over [-r, r], in units of pi eps0, from the
    numerators c of sigma's coefficients over their denominator lcd:
    8 sum over j with m + j odd of c_j r^(m+j) / (m+j)."""
    num, den = _integral(c, r, m)
    return Fraction(4 * num, den * lcd)


def _closed_moment(b, lcd, r, m):
    """2 r^(m+1) sum over i = delta, delta+2, ..., min(m+1, n) of
    (2i-1) r^(i-1) F_{i,m+1} b_i, from the numerators b of the potential's
    coefficients over their denominator lcd: with r = p/s and column m+1 of
    F as ``_f_column``'s integers over M, one integer over s^(top-1) M lcd
    (top the last i), summed by ``_in_r2``."""
    rows = range(1 + m % 2, min(m + 1, len(b)) + 1, 2)
    if not rows:
        return Fraction(0)
    nums, den = _f_column(m + 1, len(b))
    p, s = r.numerator, r.denominator
    acc = _in_r2([(2 * i - 1) * b[i - 1] * f for i, f in zip(rows, nums)], p, s)
    return Fraction(2 * p ** (m + rows[0]) * acc, s ** (m + rows[-1]) * den * lcd)


def _integrated_force(c, lcd, r):
    """(pi/eps0) int z sigma^2 dz over [-r, r], in units of pi eps0, from the
    numerators c of sigma's coefficients over their denominator lcd.

    Only the odd coefficients of (sum c_j z^j)^2 survive the integral, and
    they are those of 2 z E(z^2) O(z^2), with E and O the polynomials of the
    even- and the odd-index numerators; ``_product`` multiplies E and O."""
    q = [0] * (2 * len(c) - 1)
    q[1::2] = _product(c[0::2], c[1::2])
    num, den = _integral(q, r, 1)
    p, s = r.numerator, r.denominator
    return Fraction(8 * num * s * s, den * p * p * lcd * lcd)


def _closed_force(b, lcd, r):
    """4 sum_i i r^(2i-1) b_i b_{i+1}, from the numerators b of the
    potential's coefficients over their denominator lcd: with r = p/s, one
    integer over s^(2n-3) lcd^2, summed by ``_in_r2``."""
    if len(b) < 2:
        return Fraction(0)
    p, s = r.numerator, r.denominator
    acc = _in_r2([i * b[i - 1] * b[i] for i in range(1, len(b))], p, s)
    return Fraction(4 * p * acc, s ** (2 * len(b) - 3) * lcd * lcd)


def _field_width(u, v):
    """Bits per field that hold every coefficient of the product of the
    integer polynomials u and v as a signed value: each is a sum of at most
    n = min(len(u), len(v)) products below 2^(2 maxbits) in magnitude."""
    bits = max(abs(x).bit_length() for x in (*u, *v))
    return 2 * bits + min(len(u), len(v)).bit_length() + 2


def _product(u, v):
    """The coefficients of (sum u_k x^k)(sum v_k x^k) for integers u_k, v_k,
    by Kronecker substitution: u and v are evaluated at x = 2^w, one field
    of w = ``_field_width(u, v)`` bits per coefficient, the two integers
    are multiplied once, and the product's fields are read back as signed
    values.  Packing and unpacking split in halves, so each level touches
    every bit once."""
    if not u or not v:
        return []
    width = _field_width(u, v)
    return _unpack(_pack(u, width) * _pack(v, width), width, len(u) + len(v) - 1)


def _pack(values, width):
    """sum_k values[k] 2^(width k) for signed integers values[k]."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return _pack(values[:half], width) + (
        _pack(values[half:], width) << (width * half)
    )


def _unpack(z, width, count):
    """The count signed fields of z = sum_k f_k 2^(width k), each with
    -2^(width-1) <= f_k < 2^(width-1): the low half of the fields is the
    signed residue of z modulo 2^(width half), the high half the exact
    quotient."""
    if count == 1:
        return [z]
    half = count // 2
    shift = width * half
    low = z & ((1 << shift) - 1)
    if low >> (shift - 1):
        low -= 1 << shift
    return _unpack(low, width, half) + _unpack((z - low) >> shift, width, count - half)


def _agreed(quantity, order, integrated, closed, density):
    """The closed form as an ExactPhysical, once both exact paths agree."""
    if integrated != closed:
        label = quantity if order is None else f"order-{order} {quantity}"
        raise ConsistencyError(
            f"{label} paths disagree: integrated {integrated}, closed {closed}",
            quantity,
            order,
            integrated,
            closed,
        )
    return ExactPhysical(closed, density.epsilon0)


# total_charge, dipole_moment and multipole_moment are kept for the
# benchmark's per-layer metrics, which name them
def total_charge(density):
    """Total induced charge Q = 2 pi r int sigma dz = 4 pi eps0 r b_1, the
    multipole moment of order 0."""
    return multipole_moment(density, 0)


def dipole_moment(density):
    """Dipole moment D = 2 pi r int z sigma dz = 4 pi eps0 r^3 b_2, the
    multipole moment of order 1."""
    return multipole_moment(density, 1)


def multipole_moment(density, m):
    """Multipole moment of order m, D_m = 2 pi r int z^m sigma dz, by
    ``multipole_moments`` of the one order.

    Closed form: 2 pi eps0 r^(m+1) sum over i = delta, delta+2, ..., m+1 of
    (2i-1) r^(i-1) F_{i,m+1} b_i, with delta = 1 for even m and 2 for odd
    m, and b_i = 0 past the end of the coefficient vector.  Orders 0 and 1
    collapse to the charge 4 pi eps0 r b_1 and the dipole 4 pi eps0 r^3 b_2.
    """
    return multipole_moments(density, (m,))[m]


def multipole_moments(density, orders):
    """The multipole moments of the given orders, as a dict from each order
    to its ExactPhysical, in the order requested.

    The numerators of b and of c over their common denominators are taken
    once; each order then sums its closed form from b and its defining
    integral from c as one integer each.  The orders are evaluated in turn,
    so the first order whose two paths disagree raises ConsistencyError.
    """
    orders = _orders(orders)
    b, c = _numerators(density.coeffs_b), _numerators(density.coeffs_c)
    return _moments(density, b, c, orders)


def _orders(orders):
    """The moment orders as a list, once each is a non-negative int."""
    orders = list(orders)
    for m in orders:
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise ValueError("moment order must be a non-negative integer")
    return orders


def _moments(density, b, c, orders):
    """``multipole_moments`` from the numerators b and c of the density's
    b and c, each with its denominator, as ``_numerators`` gives them."""
    r = density.radius
    return {
        m: _agreed(
            "moment",
            m,
            _integrated_moment(*c, r, m),
            _closed_moment(*b, r, m),
            density,
        )
        for m in orders
    }


def axial_force(density):
    """Net force on the ball along the axis.

    The electric pressure sigma^2 / (2 eps0) acts along the outward normal;
    its axial component integrates to F = (pi/eps0) int z sigma^2 dz, which
    has the closed form 4 pi eps0 sum_i i r^(2i-1) b_i b_{i+1}.  Positive
    values point along +z (increasing s).  The closed form is one integer
    sum over b's numerators; the integral squares sigma's numerator
    polynomial by one big-int product (``_product``).  Both paths are exact
    and must agree.
    """
    b, c = _numerators(density.coeffs_b), _numerators(density.coeffs_c)
    return _force(density, b, c)


def _force(density, b, c):
    """``axial_force`` from the numerators b and c, as for ``_moments``."""
    r = density.radius
    return _agreed(
        "force", None, _integrated_force(*c, r), _closed_force(*b, r), density
    )


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k in floats, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class OutOfRangeError(ValueError):
    """A float stage this input cannot run: its floats leave their range
    (a profile, or an oracle check), or the oracle is asked for a moment
    order past 0..40.  This is bad input, not a bug: the exact results
    still hold."""

    @classmethod
    @contextlib.contextmanager
    def guard(cls, task):
        """Floats cannot hold every exact value: an overflow, an underflow
        to a zero divisor, and an inf, a NaN or an underflow that merges
        distinct values (raised as FloatingPointError) inside a float stage
        are reported by the task that hit it."""
        try:
            yield
        except (OverflowError, ZeroDivisionError, FloatingPointError):
            raise cls(f"floats leave their range {task}") from None


def _finite(value):
    """A float sample or measurement, once it is finite: float arithmetic
    overflows to inf and NaN without raising, and max() drops a NaN, so
    the samplers and the oracle raise FloatingPointError themselves."""
    if not math.isfinite(value):
        raise FloatingPointError(f"float {value} left its range")
    return value


def induced_axis_potential(density, points):
    """Axis potential of the induced charge alone, at each axial
    coordinate s in ``points``; a list of floats.

    Inside the ball (|s| <= r) the induced charge cancels the external
    potential, so u(s) = -phi0(s) = sum m_k (s/r)^(k-1) with m_k the
    Legendre charge moments.  Outside, expanding the Coulomb kernel in the
    Legendre generating function gives the finite series

        u(s) = (1/|xi|) sum_k m_k xi^-(k-1),    xi = s/r, |xi| > 1,

    finite because the moment matrix is triangular.  The two branches agree
    exactly at |s| = r.  The moments are derived and floated once per call;
    evaluation is in floats, for physical sanity checks, not exact results.
    Raises OverflowError, ZeroDivisionError or FloatingPointError when a
    value leaves float range, the errors ``OutOfRangeError.guard`` maps.
    """
    xs = [float(s) for s in points]
    if not all(map(math.isfinite, xs)):
        raise ValueError("axial coordinate must be finite")
    moments = [float(m) for m in charge_legendre_moments(density)]
    r = float(density.radius)
    values = []
    for sf in xs:
        xi = sf / r
        if abs(xi) <= 1.0:
            values.append(_finite(_horner(moments, xi)))
        else:
            values.append(_finite(_horner(moments, 1.0 / xi) / abs(xi)))
    return values


def build_report(spec, moments=(0, 1, 2, 3)):
    """Solve once; collect the density, charge, dipole, multipoles, force.

    The charge and the dipole are the moments of orders 0 and 1, so each
    order in {0, 1} and ``moments`` is evaluated once; ``multipoles`` keeps
    the requested orders in their order.  The numerators of b and c are
    taken once, for the moments and the force alike.
    """
    density = solve_charge_density(spec)
    orders = _orders(dict.fromkeys([*moments, 0, 1]))
    b, c = _numerators(density.coeffs_b), _numerators(density.coeffs_c)
    values = _moments(density, b, c, orders)
    multipoles = {m: values[m] for m in moments}
    force = _force(density, b, c)
    return BallReport(density, values[0], values[1], multipoles, force)
