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

Construction and verification are two separate paths.  The solve and
those closed forms construct a report: ``build_report`` is
``solve_charge_density``, then ``multipole_moments`` and ``axial_force``,
and each quantity reads only the b its density was solved from.
``check_exact(report)`` verifies it: it evaluates each value the report
holds a second, independent way, by exact polynomial integration of its
defining integral from c (2 pi r int z^m sigma dz for the moments,
(pi/eps0) int z sigma^2 dz for the force on the surface), and requires
the two to match identically.  A mismatch raises ConsistencyError and
indicates a bug, never bad input.  The CLI constructs a report, turns
every value into text, and only then verifies it, so an unprintable
report is refused before its integrals run.

The charge and the dipole are the multipole moments of orders 0 and 1;
the order-m sum gives their closed forms above.

Every exact path sums plain ints over one common denominator, by Horner's
rule in p^2 for r = p/s; every path but the solve sums through
``_in_r2``.  Construction builds one reduced Fraction per value.  The
solve sums row i of G = B D^{-1} from the integers 2^(j-1) B_ij as they
stand in ``moment_matrix._b_rows``, the one process-wide table of the row
walks, which only grows, with the factor 2j - 1 of 1/D_jj folded into
b_j's weight.  Only a PotentialSpec keeps integers: the numerators of its
b over their least common denominator are taken when the solve, a closed
form or the moments' float view first reads them, never by the
constructor, and kept in a private slot that is no field.  The closed sum
of order m reads column m+1 of F as the integers
``moment_matrix._f_column`` walks over one denominator.  ``check_exact``
takes c's numerators on each call and keeps nothing; its integrated paths
run through the private ``_integral``, which no closed form uses, and
stay unreduced integer pairs (num, den), compared with the report's
Fraction by cross-multiplication: a Fraction of the integral is built only
to raise.  The force's closed sum is one integer over b's numerators; its
integral squares c's numerator polynomial as one big-int product
(Kronecker substitution, ``_product``), so CPython's Karatsuba multiplies
the pairs: each coefficient, biased by half a field to an unsigned digit,
is one fixed-width field of ``int.to_bytes``, and ``int.from_bytes``
reads the packed factors and the product's fields in linear time.  The
bias over k fields is one field's bytes repeated k times.
``admit(spec, orders)`` prices those paths for a problem before any of its
integers is taken, and refuses one too large to solve; nothing in the
library calls it, so the library caps nothing unless a caller asks.

The value classes (ExactPhysical, PotentialSpec, ChargeDensity, BallReport,
and the oracle's QuadratureRule) are plain immutable classes on one base,
``_Value``: equal within one class and hashed by their fields, pickled and
copied through their constructors, which also build a changed copy.
Assigning or deleting a field raises AttributeError.  A slot named with a
leading underscore is no field: it holds what a value derives from its
fields, and equality, hashing, repr and copies ignore it.

Exact results are rational multiples of pi*eps0 (ExactPhysical); the
numeric permittivity enters only when rendering floats, each the exact
product rounded once.  The two float samplers, ``ChargeDensity.sigma`` and
``induced_axis_potential``, take a sequence of finite axial coordinates,
not text, and return a list of floats.  They, and the oracle, read a
density's two float views, c and the Legendre charge moments: each is
taken on the first float read, ``float(c_j)`` for c and one correctly
rounded int true division of b's integers per moment, and kept in a
private slot; a view whose division raises is not kept.  ``profile(density, samples,
span)`` is the CLI's profile: it owns the sample grids, checks that
distinct points stay distinct, and calls both samplers; it takes an int
``samples`` of at least 2 and a positive exact ``span``.  A float stage
that cannot run on its input raises ``OutOfRangeError``, bad input
rather than a bug; its ``guard`` maps the float errors of a stage to it.
"""

import contextlib
import math
from collections.abc import Mapping, Set
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
    # the fields: the public ``__slots__`` of the class that declares them,
    # which a subclass with empty ``__slots__`` inherits
    _names = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._names = tuple(n for n in cls.__slots__ if n[0] != "_") or cls._names

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

    def _kept(self, slot, derive):
        """``derive(self)``, taken on the first call and kept in the private
        slot ``slot``.  A derive that raises keeps nothing, so the next call
        derives, and raises, again."""
        if not hasattr(self, slot):
            object.__setattr__(self, slot, derive(self))
        return getattr(self, slot)

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
    in its ASCII grammar (``"-7/2"``, ``"0.25"``, ``"2e-3"``; no whitespace
    or underscores) are accepted and binary floats are rejected; a text
    ``coeffs_b`` is refused, not read one character at a time, and so is
    a mapping or a set, which has no order of its own.  Trailing
    zeros are normalized away (the degree is the index of the last nonzero
    coefficient); the all-zero potential collapses to a single 0.

    ``epsilon0`` is a plain float used only for float rendering; a value
    that is not a float is read by ``parse_rational`` first, so ``"1/2"``
    gives 0.5 and text outside its grammar is refused.  The
    constructor takes no integers from b: its numerators over their least
    common denominator are taken when the solve first reads them.
    """

    __slots__ = ("radius", "coeffs_b", "epsilon0", "_ints")

    def __init__(self, radius, coeffs_b, epsilon0=VACUUM_PERMITTIVITY):
        radius = parse_rational(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        if isinstance(coeffs_b, (str, bytes)):
            raise ValueError("coeffs_b must be a sequence of coefficients, not text")
        if isinstance(coeffs_b, (Mapping, Set)):
            raise ValueError("coeffs_b must be ordered, not a mapping or a set")
        coeffs = [parse_rational(b) for b in coeffs_b]
        if not coeffs:
            raise ValueError("coeffs_b must not be empty")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        eps = epsilon0 if isinstance(epsilon0, float) else parse_rational(epsilon0)
        try:
            eps = float(eps)
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

    def _integers(self):
        """The numerators of b over their least common denominator, and that
        denominator: taken on the first call and kept in the slot ``_ints``
        for the solve, the closed forms and the moments' float view."""
        return self._kept("_ints", lambda v: _numerators(v.coeffs_b))


class ChargeDensity(_Value):
    """A solved problem: the spec and the coefficients c of its induced
    density sigma(z) = (2 eps0 / r) sum_j c_j z^(j-1).  Built by
    ``solve_charge_density``; radius, permittivity and b come from spec.
    The constructor checks nothing, so ``ChargeDensity(spec, coeffs_c)``
    also builds a density that does not solve its spec."""

    __slots__ = ("spec", "coeffs_c", "_c_floats", "_m_floats")

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

    def _c_view(self):
        """c in floats, ``float(c_j)`` each, correctly rounded: taken on the
        first float read and kept in the slot ``_c_floats``."""
        return self._kept("_c_floats", lambda v: tuple(map(float, v.coeffs_c)))

    def _m_view(self):
        """The Legendre charge moments in floats, ``_float_moments``: taken
        on the first float read and kept in the slot ``_m_floats``."""
        return self._kept("_m_floats", _float_moments)

    def sigma(self, points):
        """Density at each axial coordinate in ``points``, in SI units
        (floats), from c's float view, taken once per density.

        Meaningful for |z| <= r, the axial range covered by the surface.
        Text, or a point that is not finite, raises ValueError.
        Raises OverflowError, ZeroDivisionError or FloatingPointError when
        a value leaves float range, the errors ``OutOfRangeError.guard`` maps.
        """
        zs = _points(points)
        coeffs = self._c_view()
        prefactor = 2.0 * self.epsilon0 / float(self.radius)
        return [_finite(prefactor * _horner(coeffs, z)) for z in zs]


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

    The table only grows, and the solve caps nothing: ``admit`` prices a
    problem only for a caller that asks, and the CLI, which asks, also caps
    the degree at 400.  401 rows hold about 4.1 MiB and 1001 rows about
    50.6 MiB (tracemalloc), kept for the rest of the process.
    """
    p, s = spec.radius.numerator, spec.radius.denominator
    big_b, lcd = spec._integers()
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
    sum is ``reconstruct_potential``).  Exact; the axis potential and the
    oracle read them as the density's float view, ``_float_moments``,
    which takes them from b's integers and never calls this.
    """
    r = density.radius
    return [r**k * b for k, b in enumerate(density.coeffs_b)]


def _float_moments(density):
    """The Legendre charge moments m_k = r^(k-1) b_k in floats: for r = p/s
    and the numerators B_k of b over their denominator L_b, m_k =
    p^(k-1) B_k / (s^(k-1) L_b), one int true division each, so each is
    ``float`` of ``charge_legendre_moments``' entry bit for bit and raises
    where it raises."""
    p, s = density.radius.numerator, density.radius.denominator
    big_b, den = density.spec._integers()
    num, moments = 1, []
    for b in big_b:
        moments.append(num * b / den)
        num, den = num * p, den * s
    return tuple(moments)


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
    unreduced numerator and positive denominator: the sum over d with d + m
    even of 2 a[d] r^e / e, e = d + m + 1.  With r = p/s it is one integer
    over s^top M (top the largest e, M the lcm of the e), summed by
    ``_in_r2``.  ``check_exact`` compares the pair as it stands: order m's
    multipole moment, in units of pi eps0, is 4 num / (den lcd) for the
    numerators a of c over their denominator lcd."""
    p, s = r.numerator, r.denominator
    degrees = range(m % 2, len(a), 2)
    if not degrees:
        return 0, 1
    lcm_e = math.lcm(*(d + m + 1 for d in degrees))
    acc = _in_r2([a[d] * (lcm_e // (d + m + 1)) for d in degrees], p, s)
    first, top = degrees[0] + m + 1, degrees[-1] + m + 1
    return 2 * acc * p**first, s**top * lcm_e


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
    numerators c of sigma's coefficients over their denominator lcd, as an
    unreduced numerator and positive denominator.

    Only the odd coefficients of (sum c_j z^j)^2 survive the integral, and
    they are those of 2 z E(z^2) O(z^2), with E and O the polynomials of the
    even- and the odd-index numerators; ``_product`` multiplies E and O."""
    q = [0] * (2 * len(c) - 1)
    q[1::2] = _product(c[0::2], c[1::2])
    num, den = _integral(q, r, 1)
    p, s = r.numerator, r.denominator
    return 8 * num * s * s, den * p * p * lcd * lcd


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
    by Kronecker substitution: u and v are evaluated at x = 2^(8 size), one
    little-endian field of size = ``_field_width(u, v) // 8 + 1`` bytes per
    coefficient, the two integers are multiplied once, and the product's
    fields are read back.  Each field holds its coefficient plus the bias
    half = 2^(8 size - 1), an unsigned digit; ``bias(k)`` is that bias over
    k fields, one field's bytes repeated k times, which each factor
    subtracts and the product adds back before it is read.
    ``int.to_bytes`` and ``int.from_bytes`` take every field in linear
    time."""
    if not u or not v:
        return []
    size = _field_width(u, v) // 8 + 1
    half = 1 << (8 * size - 1)
    count = len(u) + len(v) - 1
    field = half.to_bytes(size, "little")

    def bias(k):
        return int.from_bytes(field * k, "little")

    def pack(values):
        fields = b"".join((x + half).to_bytes(size, "little") for x in values)
        return int.from_bytes(fields, "little") - bias(len(values))

    data = (pack(u) * pack(v) + bias(count)).to_bytes(size * count, "little")
    return [
        int.from_bytes(data[k : k + size], "little") - half
        for k in range(0, len(data), size)
    ]


# The work bounds of a problem, read from its parsed values before any of
# their integers is taken.  Let bits = max(bitlen p, bitlen s) for the
# radius p/s, and coeff_bits = the largest bit length of a coefficient's
# numerator plus bitlen(d) - 1 for the largest denominator and for each
# other that does not divide it: the bits of b's numerators over their
# least common denominator, to within a bit per denominator counted, found
# with no lcm.  The problem's exact values have up to size = (degree + max
# order) x bits + 2 x coeff_bits bits: the force's closed sum and its
# integral carry the coefficients' bits twice.  Each of its values, the
# degree + 1 density coefficients and the evaluated moments, costs about
# size x (degree + 1 + size / 2^10): a sum of up to degree + 1 terms of
# that size, and a gcd whose cost grows as the square of the size.  A
# problem whose values times that cost pass WORK_BOUND is refused before
# it is solved.  So is one whose force integral multiplies two integers of
# more than PRODUCT_BOUND bits, (degree + 1) x (degree x bits +
# coeff_bits), whatever its orders: Karatsuba's time grows as that to the
# power 1.58.  The slowest input the CLI accepts, degree 400 with every
# order 0..1000 and the radius 7/3, exits 0 in 1.4-1.5 s cold (10 runs,
# 2-core Xeon, CPython 3.11.7).  A report with more digits than Python
# prints is refused once its closed forms are built, before check_exact
# integrates: degree 400 with one order and a 31-bit radius exits 2 in
# 0.34-0.38 s, "the force has too many digits to print", and degree 12
# with coefficients 1/d for thirteen 4300-digit d in 0.9-1.1 s, "the
# charge density has too many digits to print".
WORK_BOUND = 25 * 10**8
PRODUCT_BOUND = 5 * 10**6


def admit(spec, orders):
    """Refuse a problem too large to solve: raise ValueError, "too large to
    solve: ..." naming the radius or the coefficients, where
    ``build_report(spec, orders)`` and its ``check_exact`` would pass
    ``WORK_BOUND`` or ``PRODUCT_BOUND``, and return None otherwise.

    ``orders`` is read once and checked by ``multipole_moments``' rule.
    The orders priced are the evaluated ones, ``_evaluated(orders)``: the
    requested orders, each once, and 0 and 1.  Only the radius, b and the
    degree of ``spec`` are read, and none of b's integers is taken, so a
    problem is priced before any of its work starts.  Nothing in the
    library calls it: a caller that wants the cap asks for it, as the CLI
    does."""
    orders = _evaluated(orders)
    degree, radius = spec.degree, spec.radius
    bits = max(radius.numerator.bit_length(), radius.denominator.bit_length())
    dens = {b.denominator for b in spec.coeffs_b}
    largest = max(dens)
    coeff_bits = max(abs(b.numerator).bit_length() for b in spec.coeffs_b) + sum(
        d.bit_length() - 1 for d in dens if d == largest or largest % d
    )
    top = degree + max(orders)
    size = top * bits + 2 * coeff_bits
    cost = size * (degree + 1 + size // 2**10)
    product = (degree + 1) * (degree * bits + coeff_bits)
    if (degree + 1 + len(orders)) * cost > WORK_BOUND or product > PRODUCT_BOUND:
        if 2 * coeff_bits > top * bits:
            which = f"the coefficients have {coeff_bits} bits, and degree {degree}"
        else:
            which = f"the radius has {bits} bits, and degree + max order is {top}"
        raise ValueError(f"too large to solve: {which}")


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

    Each order sums its closed form from the numerators of b as one
    integer; they are read through ``_integers``, which takes them once
    per spec.  ``check_exact`` integrates the same moments from c.
    """
    orders = _orders(orders)
    r, b, eps = density.radius, density.spec._integers(), density.epsilon0
    return {m: ExactPhysical(_closed_moment(*b, r, m), eps) for m in orders}


def _orders(orders):
    """The moment orders as a list, read once: any iterable of them.  Each
    must be a non-negative int, and a bool is none; ValueError otherwise."""
    orders = list(orders)
    for m in orders:
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise ValueError("moment order must be a non-negative integer")
    return orders


def _evaluated(orders):
    """The orders a report evaluates: each order ``_orders`` accepts, once,
    in the order requested, then 0 and 1, the charge and the dipole, if
    not requested."""
    return list(dict.fromkeys([*_orders(orders), 0, 1]))


def axial_force(density):
    """Net force on the ball along the axis.

    The electric pressure sigma^2 / (2 eps0) acts along the outward normal;
    its axial component integrates to F = (pi/eps0) int z sigma^2 dz, which
    has the closed form 4 pi eps0 sum_i i r^(2i-1) b_i b_{i+1}.  Positive
    values point along +z (increasing s).  The closed form is one integer
    sum over b's numerators; ``check_exact`` integrates the same force
    from c.
    """
    b = density.spec._integers()
    return ExactPhysical(_closed_force(*b, density.radius), density.epsilon0)


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


def _points(points):
    """The samplers' axial coordinates as floats, each finite.  Text is
    refused, not read one character at a time."""
    if isinstance(points, (str, bytes)):
        raise ValueError("points must be a sequence of coordinates, not text")
    xs = [float(z) for z in points]
    if not all(map(math.isfinite, xs)):
        raise ValueError("axial coordinate must be finite")
    return xs


def induced_axis_potential(density, points):
    """Axis potential of the induced charge alone, at each axial
    coordinate s in ``points``; a list of floats.

    Inside the ball (|s| <= r) the induced charge cancels the external
    potential, so u(s) = -phi0(s) = sum m_k (s/r)^(k-1) with m_k the
    Legendre charge moments.  Outside, expanding the Coulomb kernel in the
    Legendre generating function gives the finite series

        u(s) = (1/|xi|) sum_k m_k xi^-(k-1),    xi = s/r, |xi| > 1,

    finite because the moment matrix is triangular.  The two branches agree
    exactly at |s| = r.  The moments are the density's float view, taken
    once per density; evaluation is in floats, for physical sanity checks,
    not exact results.
    Text, or a point that is not finite, raises ValueError.
    Raises OverflowError, ZeroDivisionError or FloatingPointError when a
    value leaves float range, the errors ``OutOfRangeError.guard`` maps.
    """
    xs = _points(points)
    moments = density._m_view()
    r = float(density.radius)
    values = []
    for sf in xs:
        xi = sf / r
        if abs(xi) <= 1.0:
            values.append(_finite(_horner(moments, xi)))
        else:
            values.append(_finite(_horner(moments, 1.0 / xi) / abs(xi)))
    return values


def _grid(half_width, samples):
    """The samples points half_width (2k - m) / m, k = 0..m, m = samples - 1,
    of an exact positive half-width: each is one correctly rounded int true
    division, so the endpoints land exactly on -+half_width.  Distinct
    points that float to one value raise FloatingPointError."""
    p, q = half_width.numerator, half_width.denominator
    m = samples - 1
    points = [p * (2 * k - m) / (q * m) for k in range(samples)]
    if len(set(points)) < samples:
        raise FloatingPointError("distinct sample points float to one value")
    return points


def profile(density, samples, span):
    """The profile of a density, as four columns of ``samples`` floats: the
    density sigma at z over [-r, r] and the induced axis potential u at s
    over span * [-r, r], each on its grid of equally spaced points (see
    ``_grid``).  ``samples`` is an int of at least 2, and ``span`` is read
    by ``parse_rational`` and must be positive; either raises ValueError
    otherwise.  Floats that leave their range, or distinct points that
    float to one value, raise ``OutOfRangeError``."""
    if not isinstance(samples, int) or samples < 2:  # a bool is below 2
        raise ValueError("samples must be an integer >= 2")
    span = parse_rational(span)
    if span <= 0:
        raise ValueError("span must be positive")
    with OutOfRangeError.guard("sampling the profile"):
        z = _grid(density.radius, samples)
        s = _grid(density.radius * span, samples)
        sigma, u = density.sigma(z), induced_axis_potential(density, s)
        return {"z": z, "sigma": sigma, "s": s, "u": u}


def build_report(spec, moments=(0, 1, 2, 3)):
    """Solve once; collect the density, charge, dipole, multipoles, force.

    The orders ``_evaluated`` gives are evaluated once each;
    ``multipoles`` keeps the requested orders in their order.  ``moments``
    is read once, so any iterable of orders will do, and a bad order is
    refused before the solve.  Every value is a closed form: the solve
    takes the numerators of b, and the moments and the force read them as
    kept.  ``check_exact`` checks the report from c.
    """
    moments = _orders(moments)
    density = solve_charge_density(spec)
    values = multipole_moments(density, _evaluated(moments))
    multipoles = {m: values[m] for m in moments}
    force = axial_force(density)
    return BallReport(density, values[0], values[1], multipoles, force)


def check_exact(report):
    """Check every exact value of a report against the integral that
    defines it, summed exactly from the numerators of c; return None.

    c's numerators are taken on each call, and nothing is kept on the
    report or its density.  Each order ``_evaluated`` gives is integrated
    once, as an unreduced integer pair.  Each value the report holds is
    then compared with its integral by ``_compare``: the multipoles in
    their order, the charge, the dipole, and then the force, whose integral
    is taken last.  The first value that differs raises ConsistencyError,
    whose ``integrated`` is the integral, reduced to a Fraction, and
    ``closed`` the report's value.  A report of ``build_report`` holds the
    closed forms in b, so a disagreement is a bug, never bad input.
    """
    r, (c, lcd) = report.density.radius, _numerators(report.density.coeffs_c)
    integrals = {m: _integral(c, r, m) for m in _evaluated(report.multipoles)}
    held = [*report.multipoles.items(), (0, report.charge_Q), (1, report.dipole_D)]
    for m, value in held:
        num, den = integrals[m]
        _compare("moment", m, 4 * num, den * lcd, value.coeff)
    _compare("force", None, *_integrated_force(c, lcd, r), report.force_F.coeff)


def _compare(quantity, order, num, den, closed):
    """Raise ConsistencyError unless the integral num / den equals the
    Fraction closed.  Equality is decided by cross-multiplication, so the
    integral is reduced to a Fraction only to raise."""
    if num * closed.denominator != closed.numerator * den:
        integrated = Fraction(num, den)
        label = quantity if order is None else f"order-{order} {quantity}"
        message = f"{label} paths disagree: integrated {integrated}, closed {closed}"
        raise ConsistencyError(message, quantity, order, integrated, closed)
