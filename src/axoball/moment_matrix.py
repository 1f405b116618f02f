"""Moment matrix of the Legendre polynomials, in exact rational arithmetic.

The central object is the matrix of moments

    F[i][j] = integral_{-1}^{1} P_{i-1}(eta) * eta**(j-1) d(eta),

for 1-based indices i, j.  Orthogonality of P_{i-1} against lower-degree
monomials makes F upper triangular, and the parity of the Legendre
polynomials zeroes every entry with i + j odd.  Three companion matrices
share that rarefied triangle:

  * B, whose column i holds the monomial coefficients of P_{i-1}, so that
    F B pairs P_{i-1} with P_{j-1}; its entries are
    ``beta_numerator(i, j) / 2**(j-1)``,
  * D = F B, diagonal with D_ii = 2/(2i - 1),
  * G = F^{-1} = B D^{-1} (entries ``g_entry``).

There is no floating point in this module.  Indices are 1-based to match
the usual F_11, G_13, ... convention.  ``matrix_cells(which, order)``
gives the nonzero cells of F, G, B or D as integers (i, j, num, den) in
lowest terms, from one walk per matrix, and ``axoball matrix`` prints
them as text with no gcd and no Fraction.  Only the functions that return
Fractions import ``fractions``, inside themselves, so ``axoball matrix``
starts without it and the ``decimal`` and ``numbers`` it loads.

Construction walks, verification evaluates entries:

  * construction: each column of F is walked down by its term ratio,
    cross-cancelled so that every cell stays in lowest terms (``_f_cells``,
    for the matrix), or as integers over one denominator (``_f_column``,
    for the integer moment sums of ``electrostatics``); each row of the
    integers 2**(j-1) B_ij is walked by the integer ratio of its neighbours
    (``_b_row``): one small multiply and one exact division per entry.
    The integers depend on (i, j) alone, so the walked rows are kept in
    one process-wide table, ``_b_rows``, grown by the columns a call adds
    when it needs it wider: each kept row continues from its last integer,
    and only a new row is walked from its diagonal; it only grows, to
    about 4 MB at the CLI's cap of 401 rows.  The
    cells of B and G = B D^{-1} both come from the table, each with the
    power of two that Kummer's theorem counts in its binomials,
    popcount(i-1) + popcount((j-i)/2), shifted out of num and den;
    ``solve_charge_density`` reads the table, and the closed multipole sum
    the column walk;
  * verification: ``matrix_cells`` compares every integer of B and G that
    it reads from the table with ``beta_numerator``, its binomial closed
    form, in ints, a column at a time as one list comparison, before it
    builds any cell of that column, and names the first cell of the first
    column that disagrees.  The Rodrigues alternating sum
    ``f_entry_closed_form`` is an independent path to every F entry.

The row recurrence, the diagonal and superdiagonal factorial formulas,
the product formula of every F entry and F G = G F = I are proofs about
these entries, not construction steps; the tests check them
(``tests/references.py``).

Every entry and every walk is order-independent, and F, B and G share one
triangle, so the cells of columns first..order are those of any wider
print in those columns.  ``matrix_cells(which, order, first)`` keeps no
cells: each call walks, and for B and G compares, the columns it asks
for, so a caller that has the cells of columns 1..w asks for only the
columns past w.  ``axoball matrix`` does (``cli``): it keeps the text of
each matrix's widest print, and a wider print asks for, and turns into
text, only the columns it adds.
"""

from functools import lru_cache
from math import comb, factorial, gcd, prod


def _f_column(j, n):
    """Column j of F down to row min(j, n): its nonzero entries, for
    i = 2 - j % 2 in steps of 2, as integers over one denominator, and that
    denominator.  From F_1j = 2/j (j odd) or F_2j = 2/(j+1) (j even), by
    F_{i+2,j} = F_ij (j-i)/(i+j+1): the denominator holds every i+j+1, so
    each step is one small multiply and one exact integer division."""
    first = 2 - j % 2
    steps = range(first, min(j, n) - 1, 2)
    tail = prod(i + j + 1 for i in steps)
    nums = [2 * tail]
    for i in steps:
        nums.append(nums[-1] * (j - i) // (i + j + 1))
    return nums, (j + first - 1) * tail


def f_entry_closed_form(i, j):
    """Moment F_ij as a finite alternating sum, a path to every F entry
    independent of the walks.

    The sum comes from expanding P_{i-1} through the Rodrigues formula and
    integrating each monomial.  Total over all i, j >= 1: structural zeros
    (i > j, or i + j odd) are returned as Fraction(0).
    """
    from fractions import Fraction

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


# 256 entries hold every m that a matrix of order up to 200 reads.  Its
# measured consumer is one B or G print, which reads each m for up to
# order / 2 cells: it took the check of an order-200 print from 35 to 8 ms
# on a 2-CPU Xeon, so a one-shot ``axoball matrix`` gains it in full
@lru_cache(maxsize=256)
def _central_binomial(m):
    """C(2m, m), kept for the most recent m."""
    return comb(2 * m, m)


def beta_numerator(k, i):
    """The integer 2**(i-1) beta_ki = (-1)**q C(2m, m) C(m, q), with
    q = (i-k)/2 and m = (i+k)/2 - 1, for k <= i with k + i even; zero
    otherwise.  Indices are 1-based and not checked."""
    if k > i or (k + i) % 2:
        return 0
    q = (i - k) // 2
    m = (i + k) // 2 - 1
    value = _central_binomial(m) * comb(m, q)
    return -value if q % 2 else value


def _b_row(i, n, kept=()):
    """The nonzero integers h_j = 2**(j-1) B_ij = ``beta_numerator(i, j)``
    of row i that follow its ``kept`` ones, for j = i + 2q up to n with
    q = len(kept), len(kept) + 1, ...: from h_i = C(2i-2, i-1), or from
    the last kept one, by the ratio h_{j+2} = -2 h_j (i+j-1)/(q+1) with
    q = (j-i)/2, an exact integer division."""
    h = kept[-1] if kept else None
    for q in range(len(kept), (n - i) // 2 + 1):
        h = -2 * h * (2 * i + 2 * q - 3) // q if q else comb(2 * i - 2, i - 1)
        yield h


# the widest table of the row integers built so far; see ``_b_rows``.  Its
# measured consumer is a process that solves more than once: on a 2-CPU
# Xeon a solve that finds it wide enough took 0.07 / 3.5 / 18.5 ms at
# degrees 24 / 200 / 400, against 0.11 / 6.4 / 36.1 ms with the walk; a
# one-shot ``axoball solve`` builds it once and gains nothing from it.  A
# wider call grows it by the columns it adds: each kept row continues from
# its last integer, and only the new rows are walked from their diagonal.
# G printed at orders 20, 40, ..., 200 in one process grows it in 3.3 ms,
# against 10 ms when each widening walked every row from its diagonal
_B_ROWS = ()


def _b_rows(n):
    """The widest table of the row integers built so far, grown first to
    width n when it is narrower: a tuple of N >= n rows, row i - 1 the
    tuple ``_b_row(i, N)``, so entry k of it is h_j at j = i + 2k.  The
    integers depend on (i, j) alone, so one table serves every later call
    in the process; it only grows, to 40401 ints (about 4 MB) at order
    401.  A grown table is published by one assignment and returned from a
    local, with no lock: two threads that widen it at once each build a
    table, and the narrower may be published last, but no caller ever
    gets a table narrower than it asked for.

    Reading the table does not compare it with ``beta_numerator``: the
    solve reads it unchecked, and ``_b_cells`` compares each column it
    reads, before it builds any cell of that column."""
    global _B_ROWS
    table = _B_ROWS
    if len(table) < n:
        rows = table + ((),) * (n - len(table))
        table = tuple(row + tuple(_b_row(i, n, row)) for i, row in enumerate(rows, 1))
        _B_ROWS = table
    return table


# kept for the benchmark's per-layer metrics, which name it
def g_entry(i, j):
    """Entry of the inverse matrix G = F^{-1} = B D^{-1}:

        G_ij = beta_ij / D_jj = (2j-1) beta_numerator(i, j) / 2**j,

    structurally zero unless i <= j with i + j even.
    """
    from fractions import Fraction

    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    return Fraction((2 * j - 1) * beta_numerator(i, j), 2**j)


def _f_cells(first, last):
    """F's triangle cells in columns first..last, as (i, j, num, den) in
    lowest terms, column by column.  Column j starts from F_1j = 2/j (j odd)
    or F_2j = 2/(j+1) (j even), both reduced, and steps down by
    F_{i+2,j} = F_ij a/b with a/b = (j-i)/(i+j+1), after cancelling
    gcd(a, b), then gcd(a, den) and gcd(num, b) (Knuth, TAOCP 2, 4.5.1):
    each product stays in lowest terms, and every gcd has one small
    operand.  No column depends on another."""
    cells = []
    for j in range(first, last + 1):
        num, den = 2, j + 1 - j % 2
        for i in range(2 - j % 2, j, 2):
            cells.append((i, j, num, den))
            a, b = j - i, i + j + 1
            g = gcd(a, b)
            a, b = a // g, b // g
            g, h = gcd(a, den), gcd(num, b)
            num, den = num // h * (a // g), den // g * (b // h)
        cells.append((j, j, num, den))
    return cells


def _b_cells(first, last, inverse):
    """Yield the triangle cells of B, or of G = B D^{-1} when ``inverse``,
    in columns first..last, as (i, j, num, den) in lowest terms, column by
    column from the table ``_b_rows(last)``: h / 2**(j-1) for B and
    (2j - 1) h / 2**j for G, where h = 2**(j-1) B_ij = +-C(2m, m) C(m, q)
    with q = (j-i)/2 and m = (i+j)/2 - 1.  By Kummer's theorem the power
    of two in C(a+b, a) is the number of carries in adding a and b in
    base 2: popcount(m) for C(2m, m), and popcount(q) + popcount(i-1) -
    popcount(m) for C(m, q), as m - q = i - 1.  So h, and (2j - 1) h, hold
    exactly k = popcount(i-1) + popcount(q) factors of two; k never
    exceeds j - 1, so num and den lose 2**k whole.

    Each column must equal ``beta_numerator`` at every cell, compared in
    ints as one list before any cell of it is built; a column that does
    not names its first bad cell, and a row too short to reach the column
    disagrees there."""
    table = _b_rows(last)
    popcount = [m.bit_count() for m in range(last)]
    powers = [1 << e for e in range(last + 1)]
    for j in range(first, last + 1):
        rows = range(2 - j % 2, j + 1, 2)
        # row i holds column j at entry q = (j - i) / 2; a row too short to
        # reach the column reads None, which is no int
        qs = range(len(rows) - 1, -1, -1)
        reads = zip(table[1 - j % 2 : j : 2], qs)
        column = [row[q] if q < len(row) else None for row, q in reads]
        closed = [beta_numerator(i, j) for i in rows]
        if column != closed:
            at = next((i, j) for i, h, c in zip(rows, column, closed) if h != c)
            raise ArithmeticError(f"row walk disagrees with beta_numerator at {at}")
        odd, top = (2 * j - 1, j) if inverse else (1, j - 1)
        for i, q, h in zip(rows, qs, column):
            k = popcount[i - 1] + popcount[q]
            yield i, j, odd * h >> k, powers[top - k]


def matrix_cells(which, order, first=1):
    """The nonzero cells of the matrix ``which`` (``"F"``, ``"G"``, ``"B"``
    or ``"D"``) of the given order in columns first..order, as tuples
    (i, j, num, den) with entry (i, j) = num/den in lowest terms, den > 0,
    column by column; every other cell is zero.  Each call walks those
    columns afresh, and checks those of B and G as it walks them."""
    if isinstance(order, bool) or not isinstance(order, int):
        raise ValueError("order must be an integer")
    if order < 1:
        raise ValueError("order must be >= 1")
    if isinstance(first, bool) or not isinstance(first, int):
        raise ValueError("first must be an integer")
    if not 1 <= first <= order:
        raise ValueError("first must lie in 1..order")
    if which == "D":
        return [(i, i, 2, 2 * i - 1) for i in range(first, order + 1)]
    if which == "F":
        return _f_cells(first, order)
    if which not in ("B", "G"):
        raise ValueError(f"no matrix named {which!r}")
    return list(_b_cells(first, order, which == "G"))


def _dense(which, order):
    """Dense Fraction rows of ``matrix_cells(which, order)``, entry (i, j)
    at ``rows[i - 1][j - 1]``."""
    from fractions import Fraction

    zero = Fraction(0)
    rows = [[zero] * order for _ in range(order)]
    for i, j, num, den in matrix_cells(which, order):
        rows[i - 1][j - 1] = Fraction(num, den)
    return rows


# build_f and build_g are kept for the benchmark's per-layer metrics,
# which name them
def build_f(order):
    """The moment matrix F of the given order, column by column from
    ``_f_cells``."""
    return _dense("F", order)


def build_g(order):
    """The inverse matrix G = F^{-1} = B D^{-1}: entry (i, j) is
    (2j - 1) h / 2**j for the integer h = 2**(j-1) B_ij, row by row from
    the table of ``_b_row``'s rows, checked."""
    return _dense("G", order)
