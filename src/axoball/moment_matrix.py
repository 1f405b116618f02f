"""Moment matrix of the Legendre polynomials, in exact rational arithmetic.

The central object is the matrix of moments

    F[i][j] = integral_{-1}^{1} P_{i-1}(eta) * eta**(j-1) d(eta),

for 1-based indices i, j.  Orthogonality of P_{i-1} against lower-degree
monomials makes F upper triangular, and the parity of the Legendre
polynomials zeroes every entry with i + j odd.  Three companion matrices
share that rarefied triangle:

  * B, whose column i holds the monomial coefficients of P_{i-1}
    (entries ``beta_entry``), so that F B pairs P_{i-1} with P_{j-1},
  * D = F B, diagonal with D_ii = 2/(2i - 1),
  * G = F^{-1} = B D^{-1}, with an explicit entry formula (``g_entry``).

All quantities are Fractions or ints; there is no floating point in this
module.  Entry functions are 1-based to match the usual F_11, G_13, ...
convention.  The builders return plain dense rows, ``list[list[Fraction]]``,
so entry (i, j) sits at ``rows[i - 1][j - 1]``.

Construction and verification use different entries:

  * construction: F from the single-product moment ``f_entry``, G from
    the integer ``g_numerator`` = 2**j G_ij (``g_entry`` divides it by
    2**j; ``solve_charge_density`` sums it in integers);
  * verification: the Rodrigues alternating sum ``f_entry_closed_form``,
    the row recurrence and the diagonal/superdiagonal factorial formulas
    for F, and B D^{-1} for G.

Every construction entry is total and order-independent.
"""

from fractions import Fraction
from math import comb, factorial


def f_entry(i, j):
    """Moment F_ij as one product (Gradshteyn & Ryzhik 7.126):

        F_ij = 2**i (j-1)! ((i+j-2)/2)! / (((j-i)/2)! (i+j-1)!)

    for i <= j with i + j even; structurally zero otherwise.  This is the
    entry F is built from.
    """
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    if i > j or (i + j) % 2:
        return Fraction(0)
    return Fraction(
        2**i * factorial(j - 1) * factorial((i + j) // 2 - 1),
        factorial((j - i) // 2) * factorial(i + j - 1),
    )


def f_entry_closed_form(i, j):
    """Moment F_ij as a finite alternating sum; a verification path for
    ``f_entry``.

    The sum comes from expanding P_{i-1} through the Rodrigues formula and
    integrating each monomial.  Total over all i, j >= 1: structural zeros
    (i > j, or i + j odd) are returned as Fraction(0).
    """
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    if i > j or (i + j) % 2:
        return Fraction(0)
    total = Fraction(0)
    for k in range((i - 1) // 2 + 1):
        num = factorial(2 * i - 2 * k - 2)
        den = (
            factorial(k)
            * factorial(i - k - 1)
            * factorial(i - 2 * k - 1)
            * (i - 2 * k - 1 + j)
        )
        term = Fraction(num, den)
        total += -term if k % 2 else term
    return total / Fraction(2) ** (i - 2)


def f_entry_recurrence(i, j):
    """F_ij from the row recurrence

        (i - 1) F_ij = (2i - 3) F_{i-1, j+1} - (i - 2) F_{i-2, j},

    valid for i >= 3, with the two lower-order entries taken from the
    closed form.  Must agree exactly with ``f_entry_closed_form``; this is
    a verification path.  Structural zeros are returned directly.
    """
    if i > j or (i + j) % 2:
        return Fraction(0)
    if i < 3:
        return f_entry_closed_form(i, j)
    upper = f_entry_closed_form(i - 1, j + 1)
    lower = f_entry_closed_form(i - 2, j)
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


def beta_entry(k, i):
    """Coefficient of eta**(k-1) in the Legendre polynomial P_{i-1}:

        beta_ki = (-1)**((i-k)/2) (i+k-2)!
                  / (2**(i-1) (k-1)! ((i-k)/2)! ((i+k)/2 - 1)!)

    for k <= i with k + i even; structurally zero otherwise.
    """
    if k < 1 or i < 1:
        raise ValueError("indices are 1-based")
    if k > i or (k + i) % 2:
        return Fraction(0)
    sign = -1 if ((i - k) // 2) % 2 else 1
    num = sign * factorial(i + k - 2)
    den = (
        2 ** (i - 1)
        * factorial(k - 1)
        * factorial((i - k) // 2)
        * factorial((i + k) // 2 - 1)
    )
    return Fraction(num, den)


def d_diagonal(i):
    """Diagonal entry D_ii = 2/(2i - 1) of D = F B (the squared Legendre
    norm on [-1, 1])."""
    if i < 1:
        raise ValueError("indices are 1-based")
    return Fraction(2, 2 * i - 1)


def g_numerator(i, j):
    """The integer 2**j G_ij = (-1)**k (2j-1) C(2m, m) C(m, k), with
    k = (j-i)/2 and m = (i+j)/2 - 1, for i <= j with i + j even; zero
    otherwise.  Indices are 1-based and not checked."""
    if i > j or (i + j) % 2:
        return 0
    k = (j - i) // 2
    m = (i + j) // 2 - 1
    value = (2 * j - 1) * comb(2 * m, m) * comb(m, k)
    return -value if k % 2 else value


def g_entry(i, j):
    """Entry of the inverse matrix G = F^{-1}:

        G_ij = (-1)**((j-i)/2) (2j-1)(j+i-2)!
               / (2**j (i-1)! ((j-i)/2)! ((j+i)/2 - 1)!),

    that is ``g_numerator(i, j) / 2**j``, for i <= j with i + j even;
    structurally zero otherwise.
    """
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    return Fraction(g_numerator(i, j), 2**j)


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
        Fraction(2 * i - 1, 2) * f_entry_closed_form(i, m + 1)
        for i in range(1, count + 1)
    ]


def _triangle(order, entry):
    """Dense rows of the order x order matrix with 1-based entries
    ``entry(i, j)`` on the parity triangle (i <= j, i + j even) and zeros
    elsewhere; ``entry`` is never called on a structural zero."""
    if order < 1:
        raise ValueError("order must be >= 1")
    zero = Fraction(0)
    return [
        [
            entry(i, j) if i <= j and (i + j) % 2 == 0 else zero
            for j in range(1, order + 1)
        ]
        for i in range(1, order + 1)
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


def build_f(order, verify=False):
    """The moment matrix F of the given order, from ``f_entry``.

    With ``verify=True`` every entry is additionally recomputed through the
    alternating sum, the row recurrence and the factorial formulas for the
    diagonal and second superdiagonal, and construction fails if any pair
    disagrees.
    """
    rows = _triangle(order, f_entry)
    if verify:
        for i in range(1, order + 1):
            for j in range(i, order + 1, 2):
                val = rows[i - 1][j - 1]
                if val != f_entry_closed_form(i, j):
                    raise ArithmeticError(f"alternating sum mismatch at ({i}, {j})")
                if i >= 3 and val != f_entry_recurrence(i, j):
                    raise ArithmeticError(f"recurrence mismatch at ({i}, {j})")
                if i == j and val != f_diagonal(i):
                    raise ArithmeticError(f"diagonal mismatch at ({i}, {i})")
                if j - i == 2 and val != f_second_superdiagonal(j):
                    raise ArithmeticError(f"superdiagonal mismatch at ({i}, {j})")
    return rows


def build_b(order):
    """The Legendre basis matrix B: column i holds the monomial
    coefficients of P_{i-1}."""
    return _triangle(order, beta_entry)


def build_d(order):
    """The diagonal matrix D = F B with D_ii = 2/(2i - 1)."""
    return _triangle(order, lambda i, j: d_diagonal(i) if i == j else Fraction(0))


def build_g(order, verify=False):
    """The inverse matrix G = F^{-1}.

    G is always built twice, from the explicit entry formula and as
    B D^{-1}, and the two must agree entry by entry.  With ``verify=True``
    the full products F G and G F are also formed and checked against the
    identity (cubic in the order, so left to verification contexts).
    """
    rows = _triangle(order, g_entry)
    via_b = _triangle(order, lambda i, j: beta_entry(i, j) / d_diagonal(j))
    if rows != via_b:
        raise ArithmeticError("inverse entry formula disagrees with B D^-1")
    if verify:
        f = build_f(order)
        eye = [[int(i == j) for j in range(order)] for i in range(order)]
        if multiply(f, rows) != eye or multiply(rows, f) != eye:
            raise ArithmeticError("F G or G F is not the identity")
    return rows
