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
  * verification: ``build_g`` always compares its rows with B D^{-1},
    and the Rodrigues alternating sum ``f_entry_closed_form`` is an
    independent path to every F entry.

The row recurrence, the diagonal and superdiagonal factorial formulas and
F G = G F = I are proofs about these entries, not construction steps;
the tests check them (``tests/references.py``).

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


def build_f(order):
    """The moment matrix F of the given order, from ``f_entry``."""
    return _triangle(order, f_entry)


def build_b(order):
    """The Legendre basis matrix B: column i holds the monomial
    coefficients of P_{i-1}."""
    return _triangle(order, beta_entry)


def build_d(order):
    """The diagonal matrix D = F B with D_ii = 2/(2i - 1)."""
    return _triangle(order, lambda i, j: d_diagonal(i) if i == j else Fraction(0))


def build_g(order):
    """The inverse matrix G = F^{-1}.

    G is built twice, from the explicit entry formula and as B D^{-1}, and
    the two must agree entry by entry.
    """
    rows = _triangle(order, g_entry)
    via_b = _triangle(order, lambda i, j: beta_entry(i, j) / d_diagonal(j))
    if rows != via_b:
        raise ArithmeticError("inverse entry formula disagrees with B D^-1")
    return rows
