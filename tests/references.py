"""Reference paths for the moment matrix, the exact quantities and the
oracle that only the tests run.

``f_entry`` is the product formula of every F entry, the cell-by-cell
reference for the library's column walks.  The paper's Appendix proves a
row recurrence for F, factorial formulas for its diagonal and second
superdiagonal, and F G = G F = I.  These are checks of the entries
``axoball.moment_matrix`` builds from, not steps of any construction, so
they live here with the exact matrix product and the alpha coefficients
of the shifted first row.  ``closed_form`` gives every entry of F, B and
G from its closed form, the cell-by-cell reference for all three walks.
``check_f``, ``check_inverse``, ``check_closed_forms`` and
``check_row_table`` run the checks on built rows, or on the row table,
and raise ArithmeticError on the first disagreement.
``solve_by_entries`` solves for the density from one G entry at a time,
the reference for the library's row walks.
Entry functions are 1-based, as in the library; entries of
``moment_matrix`` are looked up on the module, so a test can corrupt one.

Each exact path of the moments and the force has its own reference here,
summed term by term in Fractions: the closed multipole sum, the
integrated moment, the closed force sum and the integrated force from the
pair products of the density's numerators.  ``schoolbook_product`` is the
pair loop whose force residue the library's Kronecker product of
residues must equal.

The grounded ball in the field of a point charge is a third path that
shares no code with the library: no F, no G and no Legendre moment.  A
charge q at s = a > r on the axis has phi0(s) = q / (4 pi eps0 (a - s)),
so b_k = -a^(-k) in units where q / (4 pi eps0) = 1, and each truncation
to degree n is a valid input.  The untruncated field has Kelvin's image,
a charge -q r / a at r^2 / a (Jackson, *Classical Electrodynamics*,
section 2.2).  Every moment of order m <= n reads only b_1..b_{m+1}, so it
equals the image density's moment exactly; the force is the image force's
partial sum.  In floats the truncation is (r / a)^n off, relative, which
is below roundoff at the degrees the tests use.

The float references below them are built from the oracle's Legendre
recurrence, Gauss-Legendre rules and axis kernel: Legendre values, the
moment integrals F_ij by quadrature, the recursive one-value-at-a-time
kernel rule that the oracle's batched kernel table must equal bit for
bit, and the axis potential of the induced charge by direct Coulomb
quadrature.
"""

from fractions import Fraction
from math import comb, factorial, lcm, sqrt

from axoball import electrostatics, moment_matrix, oracle


def f_entry(i, j):
    """Moment F_ij as one product (Gradshteyn & Ryzhik 7.126):

        F_ij = 2**i (j-1)! ((i+j-2)/2)! / (((j-i)/2)! (i+j-1)!)

    for i <= j with i + j even; structurally zero otherwise.  The library's
    column walks step down the same product; this is their cell-by-cell
    reference.
    """
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    if i > j or (i + j) % 2:
        return Fraction(0)
    return Fraction(
        2**i * factorial(j - 1) * factorial((i + j) // 2 - 1),
        factorial((j - i) // 2) * factorial(i + j - 1),
    )


def f_entry_recurrence(i, j):
    """F_ij from the row recurrence

        (i - 1) F_ij = (2i - 3) F_{i-1, j+1} - (i - 2) F_{i-2, j},

    valid for i >= 3, with the two lower-order entries taken from the
    alternating sum.  Structural zeros are returned directly.
    """
    closed_form = moment_matrix.f_entry_closed_form
    if i > j or (i + j) % 2:
        return Fraction(0)
    if i < 3:
        return closed_form(i, j)
    upper = closed_form(i - 1, j + 1)
    lower = closed_form(i - 2, j)
    return ((2 * i - 3) * upper - (i - 2) * lower) / (i - 1)


def f_diagonal(i):
    """Diagonal entry F_ii = 2**(i+1) * i! * (i-1)! / (2i)!."""
    if i < 1:
        raise ValueError("indices are 1-based")
    return Fraction(2 ** (i + 1) * factorial(i) * factorial(i - 1), factorial(2 * i))


def f_second_superdiagonal(i):
    """Second superdiagonal entry F_{i-2, i} = 2**(i-1) * ((i-1)!)**2 / (2i-2)!,
    for i >= 3."""
    if i < 3:
        raise ValueError("second superdiagonal starts at column 3")
    return Fraction(2 ** (i - 1) * factorial(i - 1) ** 2, factorial(2 * i - 2))


def alpha_coefficients(m, count=None):
    """Coefficients expanding the shifted first-row window of F over rows
    delta, delta+2, ..., m+1 (delta = 1 for even m, 2 for odd m):

        alpha_i = (2i - 1)/2 * F_{i, m+1},    i = 1..count.

    Parity-forbidden positions are zero, as are positions i > m + 1 (below
    the diagonal of F).  ``count`` defaults to m + 1.  The vector solves
    B a = e with e = (0, ..., 0, 1) of length m + 1.
    """
    if m < 0:
        raise ValueError("order m must be >= 0")
    if count is None:
        count = m + 1
    return [
        Fraction(2 * i - 1, 2) * moment_matrix.f_entry_closed_form(i, m + 1)
        for i in range(1, count + 1)
    ]


def multiply(a, b):
    """Exact product of two square row matrices of the same order."""
    if len(a) != len(b):
        raise ValueError("orders differ")
    columns = list(zip(*b))
    return [
        [
            sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
            for col in columns
        ]
        for row in a
    ]


def check_f(rows):
    """Recompute every triangle entry of built F rows through the
    alternating sum, the row recurrence and the factorial formulas for the
    diagonal and second superdiagonal."""
    for i in range(1, len(rows) + 1):
        for j in range(i, len(rows) + 1, 2):
            val = rows[i - 1][j - 1]
            if val != moment_matrix.f_entry_closed_form(i, j):
                raise ArithmeticError(f"alternating sum mismatch at ({i}, {j})")
            if i >= 3 and val != f_entry_recurrence(i, j):
                raise ArithmeticError(f"recurrence mismatch at ({i}, {j})")
            if i == j and val != f_diagonal(i):
                raise ArithmeticError(f"diagonal mismatch at ({i}, {i})")
            if j - i == 2 and val != f_second_superdiagonal(j):
                raise ArithmeticError(f"superdiagonal mismatch at ({i}, {j})")


def check_inverse(g):
    """Form F G and G F for built G rows, with F from ``build_f``, and
    compare both with the identity (cubic in the order)."""
    order = len(g)
    f = moment_matrix.build_f(order)
    eye = [[int(i == j) for j in range(order)] for i in range(order)]
    if multiply(f, g) != eye or multiply(g, f) != eye:
        raise ArithmeticError("F G or G F is not the identity")


def closed_form(which, i, j):
    """Entry (i, j) of F, B or G from its closed form: ``f_entry`` for F,
    ``beta_numerator(i, j) / 2**(j-1)`` for B and ``g_entry`` for G."""
    if which == "F":
        return f_entry(i, j)
    if which == "G":
        return moment_matrix.g_entry(i, j)
    return Fraction(moment_matrix.beta_numerator(i, j), 2 ** (j - 1))


def closed_form_cells(which, order):
    """The cells that ``matrix_cells(which, order)`` must give, from
    ``closed_form``: every triangle cell (i, j, num, den), column by
    column."""
    cells = []
    for j in range(1, order + 1):
        for i in range(2 - j % 2, j + 1, 2):
            entry = closed_form(which, i, j)
            cells.append((i, j, entry.numerator, entry.denominator))
    return cells


def check_closed_forms(which, rows):
    """Compare every entry of built rows of B or G with ``closed_form``,
    row by row."""
    for i, row in enumerate(rows, 1):
        for j, value in enumerate(row, 1):
            if value != closed_form(which, i, j):
                at = (i, j)
                raise ArithmeticError(f"{which} disagrees with beta_numerator at {at}")


def check_row_table(table):
    """Compare every integer of a table of ``moment_matrix._b_rows``, entry
    k of row i - 1 being 2**(j-1) B_ij at j = i + 2k, with
    ``beta_numerator``, row by row."""
    for i, row in enumerate(table, 1):
        for k, h in enumerate(row):
            at = (i, i + 2 * k)
            if h != moment_matrix.beta_numerator(*at):
                raise ArithmeticError(f"table disagrees with beta_numerator at {at}")


def solve_by_entries(spec):
    """The coefficients c of ``solve_charge_density(spec)``, from one
    ``beta_numerator`` call per entry instead of the row walks, as
    2^j G_ij = (2j-1) ``beta_numerator(i, j)``: with r = p/s
    and b_j = B_j / L over the least common denominator L of b, each c_i
    is one integer sum over the denominator 2^n s^(n-i) L, n = len(b)."""
    p, s = spec.radius.numerator, spec.radius.denominator
    big_b, lcd = electrostatics._numerators(spec.coeffs_b)
    n1 = len(big_b)
    weight = [(2 * s) ** (n1 - j) * big_b[j - 1] for j in range(1, n1 + 1)]
    coeffs = []
    for i in range(1, n1 + 1):
        acc = sum(
            p ** (j - i)
            * (2 * j - 1)
            * moment_matrix.beta_numerator(i, j)
            * weight[j - 1]
            for j in range(i, n1 + 1, 2)
        )
        coeffs.append(Fraction(acc, 2**n1 * s ** (n1 - i) * lcd))
    return tuple(coeffs)


def closed_moment(b, r, m):
    """2 r^(m+1) sum over i = delta, delta+2, ..., m+1 of
    (2i-1) r^(i-1) F_{i,m+1} b_i for the potential's coefficients b, one
    Fraction term at a time, with each F entry from ``f_entry``'s product
    rather than the column walk."""
    delta = 1 if m % 2 == 0 else 2
    acc = Fraction(0)
    for i in range(delta, min(m + 1, len(b)) + 1, 2):
        f = f_entry(i, m + 1)
        acc += (2 * i - 1) * r ** (i - 1) * f * b[i - 1]
    return 2 * r ** (m + 1) * acc


def integral(a, r, m):
    """int_{-r}^{r} z^m sum_d a[d] z^d dz for integers a[d]: the sum over
    d with d + m even of 2 a[d] r^e / e, e = d + m + 1, with every power of
    p and s of r = p/s taken on its own, reduced once."""
    p, s = r.numerator, r.denominator
    degrees = range(m % 2, len(a), 2)
    if not degrees:
        return Fraction(0)
    top = degrees[-1] + m + 1
    lcm_e = lcm(*(d + m + 1 for d in degrees))
    acc = 0
    for d in degrees:
        e = d + m + 1
        acc += a[d] * p**e * s ** (top - e) * (lcm_e // e)
    return Fraction(2 * acc, s**top * lcm_e)


def integrated_moment(c, r, m):
    """2 r int z^m sum_j c_j z^(j-1) dz over [-r, r] for the density's
    coefficients c."""
    numerators, lcd = electrostatics._numerators(c)
    return 4 * integral(numerators, r, m) / lcd


def closed_force(b, r):
    """4 sum_i i r^(2i-1) b_i b_{i+1}, one Fraction term at a time."""
    return Fraction(
        4 * sum(i * r ** (2 * i - 1) * b[i - 1] * b[i] for i in range(1, len(b)))
    )


def integrated_force(c, r):
    """int z (sum_j c_j z^(j-1))^2 dz over [-r, r] times 4 / r^2, from the
    pair products of the numerators of c with an odd index sum."""
    numerators, lcd = electrostatics._numerators(c)
    q = [0] * (2 * len(numerators) - 1)
    for a, na in enumerate(numerators):
        for e in range(1 - a % 2, len(numerators), 2):
            q[a + e] += na * numerators[e]
    return 4 * integral(q, r, 1) / (r * r * lcd * lcd)


def schoolbook_product(u, v):
    """The coefficients of (sum u_k x^k)(sum v_k x^k), pair by pair."""
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for a, x in enumerate(u):
        for e, y in enumerate(v):
            out[a + e] += x * y
    return out


def point_charge_field(a, n):
    """b_1..b_{n+1} of a unit point charge's field at s = a: -a^(-k)."""
    return tuple(-(Fraction(a) ** -k) for k in range(1, n + 2))


def image_charge(r, a):
    """The induced charge -4 r / a, in units of pi eps0."""
    return -4 * Fraction(r) / a


def image_dipole(r, a):
    """The induced dipole -4 r^3 / a^2, in units of pi eps0."""
    return -4 * Fraction(r) ** 3 / Fraction(a) ** 2


def image_moment(r, a, m):
    """The order-m moment of the image density, in units of pi eps0:

        -2 r^(m+1) (a^2 - r^2) int_{-1}^{1} eta^m (a^2 + r^2 - 2 a r eta)^(-3/2) d eta.

    With w^2 = a^2 + r^2 - 2 a r eta the integral is (1 / (a r)) times
    int_{a-r}^{a+r} eta(w)^m w^(-2) dw, eta(w) = (a^2 + r^2 - w^2) / (2 a r);
    expanding eta(w)^m binomially leaves the powers w^(2k-2), each
    integrated in closed form, the k = 0 term included."""
    r, a = Fraction(r), Fraction(a)
    total = Fraction(0)
    for k in range(m + 1):
        e = 2 * k - 1
        power = ((a + r) ** e - (a - r) ** e) / e
        total += comb(m, k) * (-1) ** k * (a * a + r * r) ** (m - k) * power
    integral = total / ((2 * a * r) ** m * a * r)
    return -2 * r ** (m + 1) * (a * a - r * r) * integral


def image_force(r, a, n):
    """The closed force sum of the degree-n truncation, in units of pi eps0:
    4 r a^(-3) (1 - (n+1) x^n + n x^(n+1)) / (1 - x)^2, x = r^2 / a^2."""
    r, a = Fraction(r), Fraction(a)
    x = r * r / (a * a)
    return 4 * r / a**3 * (1 - (n + 1) * x**n + n * x ** (n + 1)) / (1 - x) ** 2


def source_charges(b, r):
    """Point charges whose field, truncated to degree n = len(b) - 1, is b:
    (a_l, q_l) pairs at s = a_l = r + l, l = 1..n+1.  The field of q at a
    has b_k = -q a^(-k), so with x_l = 1/a_l and y_l = q_l x_l the
    strengths solve the Vandermonde system sum_l y_l x_l^(k-1) = -b_k,
    k = 1..n+1, whose inverse holds the coefficients of the Lagrange
    polynomials of the nodes x_l."""
    r = Fraction(r)
    spots = [r + l for l in range(1, len(b) + 1)]
    nodes = [1 / a for a in spots]
    charges = []
    for a, x in zip(spots, nodes):
        # prod over the other nodes of (t - x_j) / (x - x_j), low order first
        poly, scale = [Fraction(1)], Fraction(1)
        for other in nodes:
            if other != x:
                poly = [lo - other * hi for lo, hi in zip([0, *poly], [*poly, 0])]
                scale *= x - other
        y = -sum(c * bk for c, bk in zip(poly, b)) / scale
        charges.append((a, y / x))
    return charges


def image_axis_potential(r, a, s):
    """The untruncated induced axis potential at s, a float: -1 / (a - s)
    inside the ball, which cancels phi0 there, and the image charge's
    -(r / a) / |s - r^2 / a| outside it."""
    if abs(s) <= r:
        return -1.0 / (a - s)
    return -(r / a) / abs(s - r * r / a)


def image_density(r, a, z, epsilon0):
    """The untruncated induced density at z, a float, in SI units:
    -eps0 (a^2 - r^2) / (r (a^2 + r^2 - 2 a z)^(3/2))."""
    return -epsilon0 * (a * a - r * r) / (r * (a * a + r * r - 2 * a * z) ** 1.5)


def legendre_eval(n, x):
    """P_n(x) via the three-term recurrence; domain [-1, 1] (tiny slack)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if abs(x) > 1.0 + 1e-12:
        raise ValueError(f"x = {x} outside [-1, 1]")
    return oracle._legendre_pair(n, float(x))[0]


def moment_quadrature(i, j):
    """Numeric moment integral of P_{i-1} against eta^(j-1) on [-1, 1].

    The integrand is a polynomial of degree i + j - 2, so a rule with
    (i+j)//2 + 1 nodes integrates it exactly up to roundoff.
    """
    if not (1 <= i <= 60 and 1 <= j <= 60):
        raise ValueError("indices must lie in 1..60")
    rule = oracle.gauss_legendre((i + j) // 2 + 1)
    return rule.integrate([legendre_eval(i - 1, x) * x ** (j - 1) for x in rule.nodes])


_PANEL_RULE = oracle.gauss_legendre(16)


def _kernel_panel(power, xi, a, b):
    # fixed 16-node panel for int_a^b eta^power / sqrt(xi^2+1-2 xi eta) d eta
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for x, w in zip(_PANEL_RULE.nodes, _PANEL_RULE.weights):
        eta = mid + half * x
        den = xi * xi + 1.0 - 2.0 * xi * eta
        assert den > 0.0, "kernel lost positivity"
        total += w * eta**power / sqrt(den)
    return half * total


def _kernel_adaptive(power, xi, a, b, estimate, scale, depth):
    mid = 0.5 * (a + b)
    left = _kernel_panel(power, xi, a, mid)
    right = _kernel_panel(power, xi, mid, b)
    err = abs(left + right - estimate)
    if err <= max(oracle.KERNEL_TOL * (b - a) / 2.0, 1e-16) * scale or depth >= 30:
        return left + right
    return _kernel_adaptive(
        power, xi, a, mid, left, scale, depth + 1
    ) + _kernel_adaptive(power, xi, mid, b, right, scale, depth + 1)


def axis_kernel(j, xi):
    """K_j(xi) by the recursive adaptive rule, one (j, xi) at a time: the
    bit-for-bit reference for the oracle's batched
    ``axis_kernel_integral(count, xis)[row, j - 1]``."""
    if j < 1:
        raise ValueError("indices are 1-based")
    whole = _kernel_panel(j - 1, xi, -1.0, 1.0)
    scale = max(1.0, abs(whole))
    return _kernel_adaptive(j - 1, xi, -1.0, 1.0, whole, scale, 0)


def brute_force_axis_potential(density, points):
    """Axis potential of the induced charge by direct Coulomb quadrature,
    at each axial coordinate s of ``points``, from one kernel table.

    u(s) = sum_j c_j r^(j-1) K_j(s/r); valid inside and outside the ball
    (|s| = r excluded, where the kernel touches zero).
    """
    r = float(density.spec.radius)
    xis = tuple(float(s) / r for s in points)
    if any(abs(abs(xi) - 1.0) < 1e-12 for xi in xis):
        raise ValueError("|s| = r sits on the surface; kernel is singular")
    kernel = oracle.axis_kernel_integral(len(density.coeffs_c), xis)
    return [
        sum(float(c) * r**j * k for j, (c, k) in enumerate(zip(density.coeffs_c, row)))
        for row in kernel.tolist()
    ]
