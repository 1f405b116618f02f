import argparse
import random
import re
import sys
import threading
import time
from fractions import Fraction
from math import factorial, gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from axoball import PotentialSpec, cli, moment_matrix, solve_charge_density
from axoball.cli import main
from axoball.moment_matrix import (
    beta_numerator,
    build_f,
    build_g,
    f_entry_closed_form,
    g_entry,
)
from references import (
    alpha_coefficients,
    f_diagonal,
    f_entry,
    f_entry_recurrence,
    f_second_superdiagonal,
    moment_quadrature,
    multiply,
)

indices = st.integers(min_value=1, max_value=25)


def beta(k, i):
    """B_ki, the coefficient of eta**(k-1) in P_{i-1}."""
    return Fraction(beta_numerator(k, i), 2 ** (i - 1))


def test_known_entries():
    assert f_entry_closed_form(1, 1) == 2
    assert f_entry_closed_form(1, 3) == Fraction(2, 3)
    assert f_entry_closed_form(2, 2) == Fraction(2, 3)
    assert f_entry_closed_form(2, 4) == Fraction(2, 5)
    assert f_entry_closed_form(3, 3) == Fraction(4, 15)


def test_first_two_rows_are_simple_reciprocals():
    for j in range(1, 51):
        expected_1 = Fraction(2, j) if j % 2 else Fraction(0)
        assert f_entry_closed_form(1, j) == expected_1
        expected_2 = Fraction(2, j + 1) if j % 2 == 0 else Fraction(0)
        assert f_entry_closed_form(2, j) == expected_2


def test_structural_zeros():
    assert f_entry_closed_form(4, 2) == 0  # below diagonal
    assert f_entry_closed_form(3, 4) == 0  # parity
    assert f_entry_recurrence(4, 2) == 0
    assert f_entry_recurrence(3, 4) == 0
    assert g_entry(4, 2) == 0
    assert g_entry(3, 4) == 0
    assert beta(4, 2) == 0
    assert beta(3, 4) == 0


def test_index_validation():
    with pytest.raises(ValueError):
        f_entry_closed_form(0, 1)
    with pytest.raises(ValueError):
        g_entry(0, 1)
    with pytest.raises(ValueError):
        f_diagonal(0)
    with pytest.raises(ValueError):
        f_second_superdiagonal(2)
    with pytest.raises(ValueError):
        alpha_coefficients(-1)
    for which in "FGBD":
        with pytest.raises(ValueError, match="order must be >= 1"):
            moment_matrix.matrix_cells(which, 0)
    with pytest.raises(ValueError, match="no matrix named 'X'"):
        moment_matrix.matrix_cells("X", 3)
    with pytest.raises(ValueError, match=re.escape("no matrix named ['F']")):
        moment_matrix.matrix_cells(["F"], 3)
    # a bool or a float is no order: True would print order 1
    for which in "FGBD":
        for order in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="order must be an integer"):
                moment_matrix.matrix_cells(which, order)


def test_construction_entry_equals_alternating_sum_to_order_80():
    for i in range(1, 81):
        for j in range(1, 81):
            assert f_entry(i, j) == f_entry_closed_form(i, j)


def test_recurrence_example():
    # (3*F_{2,4} - 1*F_{1,3}) / 2
    assert f_entry_recurrence(3, 3) == (3 * Fraction(2, 5) - Fraction(2, 3)) / 2
    assert f_entry_recurrence(3, 3) == Fraction(4, 15)


@given(i=indices, j=indices)
def test_closed_form_matches_recurrence(i, j):
    assert f_entry_closed_form(i, j) == f_entry_recurrence(i, j)


@given(i=indices)
def test_diagonal_formula(i):
    assert f_entry_closed_form(i, i) == f_diagonal(i)
    assert f_diagonal(i) == Fraction(
        2 ** (i + 1) * factorial(i) * factorial(i - 1), factorial(2 * i)
    )


@given(i=st.integers(min_value=3, max_value=30))
def test_second_superdiagonal_formula(i):
    assert f_entry_closed_form(i - 2, i) == f_second_superdiagonal(i)


def test_beta_entries():
    assert beta(1, 1) == 1
    assert beta(2, 2) == 1
    assert beta(1, 3) == Fraction(-1, 2)
    for i in range(1, 12):
        expected = Fraction(factorial(2 * i - 2), 2 ** (i - 1) * factorial(i - 1) ** 2)
        assert beta(i, i) == expected


def test_d_is_product_of_f_and_b_diagonals():
    for i, _, num, den in moment_matrix.matrix_cells("D", 19):
        assert Fraction(num, den) == Fraction(2, 2 * i - 1)
        assert Fraction(num, den) == f_diagonal(i) * beta(i, i)


def test_g_known_entries():
    assert g_entry(1, 1) == Fraction(1, 2)
    assert g_entry(2, 2) == Fraction(3, 2)
    assert g_entry(1, 3) == Fraction(-5, 4)
    assert g_entry(3, 3) == Fraction(15, 4)
    # row-1 inverse identity by hand
    assert (
        f_entry_closed_form(1, 1) * g_entry(1, 3)
        + f_entry_closed_form(1, 3) * g_entry(3, 3)
        == 0
    )


def test_matrix_identities_order_20():
    f = build_f(20)
    references.check_f(f)
    g = build_g(20)
    b = moment_matrix._dense("B", 20)
    d = moment_matrix._dense("D", 20)
    eye = [[int(i == j) for j in range(20)] for i in range(20)]
    assert multiply(f, g) == eye
    assert multiply(g, f) == eye
    assert multiply(f, b) == d
    assert all(v == 0 for i, row in enumerate(d) for j, v in enumerate(row) if i != j)


def test_zero_pattern_is_structural(monkeypatch):
    # each parity-triangle cell is walked once, column by column, and no
    # other cell is walked
    walked = []
    walk = moment_matrix._f_cells

    def cells(*columns):
        result = walk(*columns)
        walked.extend((i, j) for i, j, _, _ in result)
        return result

    monkeypatch.setattr(moment_matrix, "_f_cells", cells)
    f = build_f(8)
    for i in range(1, 9):
        for j in range(1, 9):
            if i > j or (i + j) % 2:
                assert f[i - 1][j - 1] == 0
    # column j holds (j + 1) // 2 triangle cells: 20 in all at order 8
    assert walked == [(i, j) for j in range(1, 9) for i in range(2 - j % 2, j + 1, 2)]
    assert len(walked) == 20


def test_walked_matrices_equal_the_entries_at_order_200():
    # entries do not depend on the order, so this covers every smaller order
    order = 200
    f = build_f(order)
    g = build_g(order)
    b = moment_matrix._dense("B", order)
    d = moment_matrix._dense("D", order)
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            assert f[i - 1][j - 1] == f_entry(i, j)
            assert g[i - 1][j - 1] == g_entry(i, j)
            assert b[i - 1][j - 1] == beta(i, j)
            assert d[i - 1][j - 1] == (Fraction(2, 2 * i - 1) if i == j else 0)


# the cells ``axoball matrix`` prints as "p" or "p/q" with no gcd
@pytest.mark.parametrize("order", [*range(1, 65), 200])
def test_matrix_cells_are_the_entries_in_lowest_terms(order):
    triangle = [(i, j) for j in range(1, order + 1) for i in range(2 - j % 2, j + 1, 2)]
    entries = {
        "F": f_entry,
        "G": g_entry,
        "B": beta,
        "D": lambda i, j: Fraction(2, 2 * i - 1),
    }
    for which, entry in entries.items():
        cells = moment_matrix.matrix_cells(which, order)
        expected = [(i, i) for i in range(1, order + 1)] if which == "D" else triangle
        assert sorted((i, j) for i, j, _, _ in cells) == sorted(expected)
        for i, j, num, den in cells:
            assert den > 0 and gcd(num, den) == 1, (which, i, j)
            assert Fraction(num, den) == entry(i, j), (which, i, j)


# every n in 1..200 takes about 4 s on a 2-CPU host; a stride of 3 takes
# about 1.2 s and still meets odd and even n alike
@pytest.mark.parametrize("which", ["F", "G", "B", "D"])
def test_matrix_cells_do_not_depend_on_the_order(which):
    # so the order-200 case above holds every cell any --order prints
    full = moment_matrix.matrix_cells(which, 200)
    for n in range(1, 201, 3):
        assert moment_matrix.matrix_cells(which, n) == [c for c in full if c[1] <= n], n


@pytest.mark.parametrize("which", ["F", "B", "G", "D"])
def test_cells_from_a_first_column_are_those_of_the_whole_order(which):
    for order in range(1, 13):
        cells = moment_matrix.matrix_cells(which, order)
        for first in range(1, order + 1):
            expected = [c for c in cells if c[1] >= first]
            assert moment_matrix.matrix_cells(which, order, first) == expected
            assert moment_matrix.matrix_cells(which, order, first=first) == expected
        # a bool or a float is no column, and the first column lies in
        # 1..order
        for first in (True, False, 2.0, "2", None):
            with pytest.raises(ValueError, match="first must be an integer"):
                moment_matrix.matrix_cells(which, order, first)
        for first in (0, order + 1, -1):
            match = re.escape("first must lie in 1..order")
            with pytest.raises(ValueError, match=match):
                moment_matrix.matrix_cells(which, order, first)


def test_binomial_valuation_is_kummers_count():
    # 2**(j-1) B_ij and 2**j G_ij = (2j-1) 2**(j-1) B_ij hold exactly
    # popcount(i-1) + popcount((j-i)/2) factors of two, at most j - 1:
    # what matrix_cells shifts out of B's and G's cells
    for j in range(1, 201):
        for i in range(2 - j % 2, j + 1, 2):
            k = bin(i - 1).count("1") + bin((j - i) // 2).count("1")
            for num in (beta_numerator(i, j), (2 * j - 1) * beta_numerator(i, j)):
                assert (num & -num).bit_length() - 1 == k <= j - 1, (i, j)


def test_the_row_table_only_grows(monkeypatch):
    monkeypatch.setattr(moment_matrix, "_B_ROWS", ())
    table = moment_matrix._b_rows(10)
    assert table is moment_matrix._B_ROWS
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    assert table == tuple(tuple(moment_matrix._b_row(i, 10)) for i in range(1, 11))
    # a narrower call, or one as wide, returns the same table
    assert moment_matrix._b_rows(3) is table and moment_matrix._b_rows(10) is table
    # a wider call publishes a wider table, whose rows extend the old ones
    wider = moment_matrix._b_rows(13)
    assert wider is moment_matrix._B_ROWS and len(wider) == 13
    assert all(type(row) is tuple for row in wider)
    assert all(new[: len(old)] == old for new, old in zip(wider, table))
    assert moment_matrix._b_rows(10) is wider


@pytest.mark.parametrize("seed", range(6))
def test_the_row_table_grows_by_the_columns_a_call_adds(monkeypatch, seed):
    # seeded widths, with repeats and narrower calls: each widening
    # continues every kept row from its last integer, and walks only each
    # new row from its diagonal, so no entry of an earlier row changes
    monkeypatch.setattr(moment_matrix, "_B_ROWS", ())
    walks = []
    walk = moment_matrix._b_row

    def counted(i, n, kept=()):
        walks.append((i, n, len(kept)))
        return walk(i, n, kept)

    monkeypatch.setattr(moment_matrix, "_b_row", counted)
    rng = random.Random(seed)
    widths = rng.choices(range(0, 71), k=10)
    widths += rng.choices(widths, k=5)
    rng.shuffle(widths)
    before = ()
    for n in widths:
        walks.clear()
        table = moment_matrix._b_rows(n)
        if n <= len(before):
            assert table is before and walks == [], n
            continue
        assert len(table) == n, n
        kept = [len(row) for row in before] + [0] * (n - len(before))
        assert walks == [(i, n, k) for i, k in enumerate(kept, 1)], n
        # a kept row keeps its very integers
        for row, old in zip(table, before):
            assert all(x is y for x, y in zip(row, old))
        before = table
    widest = max(widths)
    assert table == tuple(tuple(walk(i, widest)) for i in range(1, widest + 1))


def test_threads_widening_the_row_table_each_get_their_width(monkeypatch):
    monkeypatch.setattr(moment_matrix, "_B_ROWS", ())
    full = tuple(tuple(moment_matrix._b_row(i, 40)) for i in range(1, 41))
    printed = {which: _cells_from_an_empty_table(which, 40) for which in "BG"}
    failures = []

    def widen(seed):
        # each step widens the table, or prints B or G from it, which
        # widens and compares it
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(1, 40)
            step = rng.choice(["widen", "B", "G"])
            if step != "widen":
                cells = moment_matrix.matrix_cells(step, n)
                if cells != [c for c in printed[step] if c[1] <= n]:
                    failures.append((seed, step, n))
                continue
            table = moment_matrix._b_rows(n)
            if len(table) < n or any(
                row != whole[: len(row)] for row, whole in zip(table, full)
            ):
                failures.append((seed, n, len(table)))

    _run_threads(widen, 4)
    assert failures == []


def _run_threads(work, count):
    """Run ``work(k)`` for k in range(count) on as many threads at once,
    switching between them as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _empty_kept():
    return {which: (0, (), None) for which in "FBG"}


def _cells_from_an_empty_table(which, order):
    """The cells of ``which`` at ``order`` from an empty row table, leaving
    the table as it was."""
    with mock.patch.object(moment_matrix, "_B_ROWS", ()):
        return moment_matrix.matrix_cells(which, order)


def _no_kept_cells(monkeypatch):
    """Start from no kept cell text of the CLI, of any matrix, and put back
    the text of before when the test ends, so that no text of a corrupted
    walk outlives it."""
    monkeypatch.setattr(cli, "_KEPT_TEXT", _empty_kept())


def _from_an_empty_table(monkeypatch):
    """Start from an empty row table and no kept cell text."""
    monkeypatch.setattr(moment_matrix, "_B_ROWS", ())
    _no_kept_cells(monkeypatch)


def _count_closed_forms(monkeypatch):
    """The (i, j) of every ``beta_numerator`` call from here on."""
    calls = []
    right = moment_matrix.beta_numerator

    def counted(i, j):
        calls.append((i, j))
        return right(i, j)

    monkeypatch.setattr(moment_matrix, "beta_numerator", counted)
    return calls


def _cut(cells, order):
    """The cells of ``cells``, column by column, in columns 1..order."""
    return cells[: (order + 1) ** 2 // 4]


def test_each_matrix_compares_each_cell_once(monkeypatch, capsys):
    printed = {which: _cells_from_an_empty_table(which, 14) for which in "BG"}
    fresh = {(w, n): _fresh_text(w, n, " ") for w in "BG" for n in (1, 4, 10, 12, 14)}
    _from_an_empty_table(monkeypatch)
    calls = _count_closed_forms(monkeypatch)
    # the first print compares every cell of its order, once, column by
    # column
    assert _printed(capsys, "G", 10) == fresh["G", 10]
    assert calls == [(i, j) for i, j, _, _ in _cut(printed["G"], 10)]
    # a repeat or narrower print compares nothing
    calls.clear()
    for order in (10, 4, 1):
        assert _printed(capsys, "G", order) == fresh["G", order]
    assert calls == []
    # B keeps and compares its own cells, after G as before it
    assert _printed(capsys, "B", 10) == fresh["B", 10]
    assert calls == [(i, j) for i, j, _, _ in _cut(printed["B"], 10)]
    # a wider print compares only the cells of the columns it adds, then
    # none again
    for which in "BG":
        calls.clear()
        assert _printed(capsys, which, 14) == fresh[which, 14]
        assert calls == [(i, j) for i, j, _, _ in printed[which] if j > 10]
        calls.clear()
        for order in (14, 12, 10):
            assert _printed(capsys, which, order) == fresh[which, order]
        assert calls == []


# a solve may have widened the table past both prints: the wider print
# reads the same table, compared only to the narrower width
@pytest.mark.parametrize("solved", [0, 20])
@pytest.mark.parametrize("which", ["B", "G"])
def test_a_wider_print_compares_the_cells_it_adds(monkeypatch, solved, which):
    printed = _cells_from_an_empty_table(which, 6)
    _from_an_empty_table(monkeypatch)
    moment_matrix._b_rows(solved)
    moment_matrix.matrix_cells("G", 6)
    right = moment_matrix.beta_numerator
    wrong = lambda *args: right(*args) - (args == (2, 10))  # noqa: E731
    monkeypatch.setattr(moment_matrix, "beta_numerator", wrong)
    # (2, 10) lies past order 6: the cells of order 6 still print
    assert moment_matrix.matrix_cells(which, 6) == printed
    bad_cell = re.escape("beta_numerator at (2, 10)")
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=bad_cell):
            moment_matrix.matrix_cells(which, 12)


def test_a_wrong_integer_past_the_kept_width_is_refused(monkeypatch, capsys):
    fresh = {(w, n): _fresh_text(w, n, " ") for w in "BG" for n in (8, 9, 10)}
    _from_an_empty_table(monkeypatch)
    for which in "BG":
        assert _printed(capsys, which, 8) == fresh[which, 8]
    # the same integers in a new table, one of them wrong past the kept
    # width: row 3 at j = 11
    table = [list(row) for row in moment_matrix._b_rows(12)]
    table[2][4] += 1
    monkeypatch.setattr(moment_matrix, "_B_ROWS", tuple(map(tuple, table)))
    bad_cell = re.escape("beta_numerator at (3, 11)")
    for which in "BG":
        # a print the kept text covers, or one that adds only right
        # columns, is unaffected
        assert _printed(capsys, which, 8) == fresh[which, 8]
        assert _printed(capsys, which, 10) == fresh[which, 10]
        # the first print that reads column 11 is refused, and so is every
        # later one: a refused column is not kept
        for order in (12, 11):
            with pytest.raises(ArithmeticError, match=bad_cell):
                main(["matrix", "--order", str(order), "--which", which])
            assert capsys.readouterr().out == ""
        assert _printed(capsys, which, 9) == fresh[which, 9]


def test_a_solve_that_widens_the_table_leaves_the_kept_cells_serving(
    monkeypatch, capsys
):
    fresh = {(w, n): _fresh_text(w, n, " ") for w in "BG" for n in (12, 7, 1)}
    _from_an_empty_table(monkeypatch)
    for which in "BG":
        assert _printed(capsys, which, 12) == fresh[which, 12]
    calls = _count_closed_forms(monkeypatch)
    coeffs = [Fraction(k % 5 - 2, k + 1) for k in range(40)]
    solve_charge_density(PotentialSpec(Fraction(3, 2), coeffs, epsilon0=1.0))
    assert len(moment_matrix._B_ROWS) >= 40
    # a covered print takes no cells, so it walks and compares nothing
    monkeypatch.setattr(moment_matrix, "matrix_cells", None)
    for which in "BG":
        for order in (12, 7, 1):
            assert _printed(capsys, which, order) == fresh[which, order]
    assert calls == []


def test_the_solve_compares_nothing(monkeypatch):
    # the solve reads the table unchecked, to any width; the report's
    # second exact paths check what it gives
    _from_an_empty_table(monkeypatch)
    calls = _count_closed_forms(monkeypatch)
    coeffs = [Fraction(k % 5 - 2, k + 1) for k in range(40)]
    solve_charge_density(PotentialSpec(Fraction(3, 2), coeffs, epsilon0=1.0))
    assert len(moment_matrix._B_ROWS) >= 40
    assert calls == []


def test_concurrent_prints_return_only_compared_cells(monkeypatch):
    # while three threads print, a fourth keeps replacing the table, now by
    # one with a wrong integer at (5, 11), as a monkeypatch of _B_ROWS
    # would, now by an empty one: as every print reads the table, a print
    # either raises, naming that cell, or returns the right cells.  The
    # printers run until the fourth thread has replaced the table 60 times
    printed = {which: _cells_from_an_empty_table(which, 30) for which in "BG"}
    _from_an_empty_table(monkeypatch)
    rows = [list(row) for row in moment_matrix._b_rows(30)]
    rows[4][3] += 1
    corrupt = tuple(map(tuple, rows))
    failures, raised, finished = [], [], []

    def work(seed):
        rng = random.Random(seed)
        if seed == 0:
            try:
                for _ in range(60):
                    moment_matrix._B_ROWS = rng.choice([corrupt, ()])
                    time.sleep(1e-4)
            finally:
                finished.append(seed)
            return
        while not finished:
            which, n = rng.choice("BG"), rng.randint(1, 30)
            try:
                cells = moment_matrix.matrix_cells(which, n)
            except ArithmeticError as exc:
                raised.append(n)
                if n < 11 or "beta_numerator at (5, 11)" not in str(exc):
                    failures.append((seed, which, n, str(exc)))
                continue
            if cells != [c for c in printed[which] if c[1] <= n]:
                failures.append((seed, which, n))

    _run_threads(work, 4)
    assert failures == []
    assert raised, "no print read the wrong table"


def _fresh_walk(which, order):
    """The cells of ``which`` at ``order`` from a walk of their own, from
    an empty row table."""
    if which == "F":
        return moment_matrix._f_cells(1, order)
    with mock.patch.object(moment_matrix, "_B_ROWS", ()):
        return list(moment_matrix._b_cells(1, order, which == "G"))


@pytest.mark.parametrize("which", ["F", "B", "G"])
def test_a_narrower_print_is_a_fresh_list_cut_from_the_kept_cells(
    monkeypatch, capsys, which
):
    _from_an_empty_table(monkeypatch)
    fresh = {order: _fresh_text(which, order, " ") for order in range(1, 41)}
    assert _printed(capsys, which, 40) == fresh[40]
    width, rows, ends = cli._KEPT_TEXT[which]
    # no print below takes cells or changes the kept rows; the first one
    # the text covers counts their ends, and the others reuse them
    monkeypatch.setattr(moment_matrix, "matrix_cells", None)
    assert _printed(capsys, which, 39) == fresh[39]
    kept = cli._KEPT_TEXT[which]
    assert (width, ends) == (40, None) and kept[:2] == (40, rows)
    assert kept[1] is rows
    for order in [*range(40, 0, -1), *range(1, 41)]:
        assert _printed(capsys, which, order) == fresh[order], order
    assert cli._KEPT_TEXT[which] is kept


def test_a_wider_f_print_walks_only_the_columns_it_adds(monkeypatch, capsys):
    _no_kept_cells(monkeypatch)
    orders = [10, 4, 10, 17, 1, 12, 30]
    fresh = {order: _fresh_text("F", order, " ") for order in orders}
    walked = []
    walk = moment_matrix._f_cells

    def cells(first, last):
        walked.append((first, last))
        return walk(first, last)

    monkeypatch.setattr(moment_matrix, "_f_cells", cells)
    for order in orders:
        assert _printed(capsys, "F", order) == fresh[order], order
    assert walked == [(1, 10), (11, 17), (18, 30)]


@pytest.mark.parametrize("which", ["B", "G"])
def test_a_wider_b_or_g_print_compares_only_the_columns_it_adds(
    monkeypatch, capsys, which
):
    orders = [10, 4, 10, 17, 1, 12, 30]
    fresh = {order: _fresh_text(which, order, " ") for order in orders}
    _from_an_empty_table(monkeypatch)
    full = _fresh_walk(which, 30)
    walked = []
    walk = moment_matrix._b_cells

    def cells(first, last, inverse):
        walked.append((first, last))
        return walk(first, last, inverse)

    monkeypatch.setattr(moment_matrix, "_b_cells", cells)
    calls = _count_closed_forms(monkeypatch)
    compared = 0
    for order in orders:
        assert _printed(capsys, which, order) == fresh[order], order
        # the closed forms compared are the cells of the added columns
        added = [(i, j) for i, j, _, _ in _cut(full, order)[compared:]]
        assert calls == added, order
        compared += len(added)
        calls.clear()
    assert walked == [(1, 10), (11, 17), (18, 30)]


@pytest.mark.parametrize("which", ["F", "B", "G"])
def test_threads_print_while_the_kept_cells_are_emptied(monkeypatch, which):
    # three threads print ``which`` at random orders, as a table or as csv,
    # each widening the kept text or covered by it, while a fourth empties
    # that text and the row table 60 times: every print is right
    _from_an_empty_table(monkeypatch)
    fresh = {(n, sep): _fresh_text(which, n, sep) for n in range(1, 61) for sep in " ,"}
    printed = threading.local()
    monkeypatch.setattr(cli, "_emit", lambda text, _: setattr(printed, "text", text))
    failures, finished = [], []

    def work(seed):
        rng = random.Random(seed)
        if seed == 0:
            try:
                for _ in range(60):
                    cli._KEPT_TEXT[which] = (0, (), None)
                    moment_matrix._B_ROWS = ()
                    time.sleep(1e-4)
            finally:
                finished.append(seed)
            return
        while not finished:
            n = rng.randint(1, 60)
            fmt, sep = rng.choice([("table", " "), ("csv", ",")])
            try:
                cli.cmd_matrix(argparse.Namespace(order=n, which=which, format=fmt))
            except Exception as exc:  # a print that raises fails, as a wrong one does
                failures.append((seed, n, repr(exc)))
                continue
            if printed.text != fresh[n, sep]:
                failures.append((seed, n, fmt))

    _run_threads(work, 4)
    assert failures == []


nonzero_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
).filter(bool)
radii = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["solve", "B", "G"]), st.integers(0, 64)),
        min_size=1,
        max_size=8,
    ),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_one_table_serves_solves_and_prints_in_any_order(steps, data):
    # in one process, from an empty table: whatever width each call finds
    # the table at, it gives what it gives from an empty table
    with mock.patch.object(moment_matrix, "_B_ROWS", ()):
        for step, degree in steps:
            if step == "solve":
                size = degree + 1
                coeffs = data.draw(
                    st.lists(nonzero_fractions, min_size=size, max_size=size)
                )
                spec = PotentialSpec(data.draw(radii), coeffs, epsilon0=1.0)
                c = solve_charge_density(spec).coeffs_c
                assert c == references.solve_by_entries(spec)
            else:
                cells = moment_matrix.matrix_cells(step, degree + 1)
                assert cells == _cells_from_an_empty_table(step, degree + 1)


# multipole_moments reads columns up to 1001 (moment orders up to 1000),
# past build_f(200), which the test above holds to f_entry
@pytest.mark.parametrize("j", [*range(1, 65), 201, 202, 500, 999, 1000, 1001])
def test_column_walk_equals_f_entry(j):
    rows = range(2 - j % 2, j + 1, 2)
    nums, den = moment_matrix._f_column(j, j)
    assert [Fraction(num, den) for num in nums] == [f_entry(i, j) for i in rows]
    # a walk cut at row n gives the column's entries down to row n
    for n in {2, 3, j // 2 + 1, j + 5}:
        cut = [i for i in rows if i <= n]
        nums, den = moment_matrix._f_column(j, n)
        assert [Fraction(num, den) for num in nums] == [f_entry(i, j) for i in cut]


def test_multiply_requires_same_order():
    with pytest.raises(ValueError):
        multiply(build_f(3), build_f(4))


def test_small_matrices_match_examples():
    assert build_f(2) == [[2, 0], [0, Fraction(2, 3)]]
    assert build_g(2) == [[Fraction(1, 2), 0], [0, Fraction(3, 2)]]
    assert build_f(3)[0] == [2, 0, Fraction(2, 3)]


def test_order_3_rows():
    assert build_f(3) == [
        [2, 0, Fraction(2, 3)],
        [0, Fraction(2, 3), 0],
        [0, 0, Fraction(4, 15)],
    ]


def test_identity_matrix():
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    f = build_f(4)
    assert multiply(f, eye) == f
    assert multiply(eye, f) == f


def _off_by_one(walk, at):
    """The row walk ``walk`` with its integer at cell ``at`` one too large,
    and the rest of the walk, below and beyond that cell, unchanged: the
    k-th integer of ``walk(i, n, kept)``, counting the kept ones, is cell
    (i, i + 2k)."""

    def corrupted(i, n, kept=()):
        for k, value in enumerate(walk(i, n, kept), start=len(kept)):
            yield value + ((i, i + 2 * k) == at)

    return corrupted


def _cell_off_by_one(walk, at):
    """The cell walk ``walk`` with the numerator of cell ``at`` one too
    large over its denominator, and every other cell unchanged."""

    def corrupted(*columns):
        return [(i, j, num + ((i, j) == at), den) for i, j, num, den in walk(*columns)]

    return corrupted


# the walk that gives each matrix's entries, and how to make it give one
# cell one too large
WALKS = {
    "f_entry": ("_f_cells", _cell_off_by_one),
    "g_entry": ("_b_row", _off_by_one),
}


def _assert_catches_off_by_one(monkeypatch, builder, name, at):
    right = getattr(moment_matrix, name)
    if name == "_b_row":
        wrong = _off_by_one(right, at)
    else:
        wrong = lambda *args: right(*args) - (args == at)  # noqa: E731
    monkeypatch.setattr(moment_matrix, name, wrong)
    # from an empty table and no kept text, so that the walk above builds
    # the one the builder reads, and the builder compares every cell
    _from_an_empty_table(monkeypatch)
    with pytest.raises(ArithmeticError, match=re.escape(f"beta_numerator at {at}")):
        builder(6)


# B and G read one checked walk: an off-by-one on either side of the check,
# at any triangle cell of order 6, must fail both builders
TRIANGLE_6 = [(i, j) for i in range(1, 7) for j in range(i, 7, 2)]


@pytest.mark.parametrize("at", TRIANGLE_6)
@pytest.mark.parametrize("name", ["_b_row", "beta_numerator"])
def test_build_g_catches_any_off_by_one_numerator(monkeypatch, name, at):
    _assert_catches_off_by_one(monkeypatch, build_g, name, at)


@pytest.mark.parametrize("at", TRIANGLE_6)
@pytest.mark.parametrize("name", ["_b_row", "beta_numerator"])
def test_build_b_catches_any_off_by_one_numerator(monkeypatch, name, at):
    def build_b(order):
        return moment_matrix._dense("B", order)

    _assert_catches_off_by_one(monkeypatch, build_b, name, at)


# the CLI prints B and G from the same checked walk, without the builders
@pytest.mark.parametrize("at", TRIANGLE_6)
@pytest.mark.parametrize("name", ["_b_row", "beta_numerator"])
@pytest.mark.parametrize("which", ["B", "G"])
def test_matrix_command_catches_any_off_by_one_numerator(monkeypatch, which, name, at):
    def command(order):
        return main(["matrix", "--order", str(order), "--which", which])

    _assert_catches_off_by_one(monkeypatch, command, name, at)


def _printed(capsys, which, order, fmt="table"):
    """What ``axoball matrix`` prints for ``which`` at ``order``, in this
    process."""
    argv = ["matrix", "--order", str(order), "--which", which, "--format", fmt]
    assert main(argv) == 0
    return capsys.readouterr().out


def _fresh_text(which, order, sep):
    """The text of ``which`` at ``order``, formatted afresh from a walk of
    its own from empty keeps: each nonzero cell through ``Fraction``'s
    str, every other cell "0"."""
    rows = [["0"] * order for _ in range(order)]
    for i, j, num, den in _fresh_walk(which, order):
        rows[i - 1][j - 1] = str(Fraction(num, den))
    return "".join(sep.join(row) + "\n" for row in rows)


def test_many_prints_in_one_process_print_what_fresh_walks_give(monkeypatch, capsys):
    # every order 1..60, 120, 199 and 200, and 30 repeats, shuffled, each
    # printed as F, G and B, table and csv alternating: each print widens
    # the kept text or is covered by it, and prints what a fresh walk
    # formats; past order 60 the cuts meet rows thousands of characters long
    _from_an_empty_table(monkeypatch)
    rng = random.Random(46)
    orders = [*range(1, 61), 120, 199, 200, *rng.choices(range(1, 61), k=30)]
    rng.shuffle(orders)
    fresh = {}
    for k, (order, which) in enumerate((n, w) for n in orders for w in "FGB"):
        fmt, sep = (("table", " "), ("csv", ","))[k % 2]
        if (which, order, sep) not in fresh:
            fresh[which, order, sep] = _fresh_text(which, order, sep)
        out = _printed(capsys, which, order, fmt)
        assert out == fresh[which, order, sep], (which, order, fmt)
    assert {cli._KEPT_TEXT[which][0] for which in "FGB"} == {200}


@pytest.mark.parametrize("which", ["B", "G"])
def test_a_failed_widening_keeps_no_text(monkeypatch, capsys, which):
    _from_an_empty_table(monkeypatch)
    right = moment_matrix._b_row
    fresh = {order: _fresh_text(which, order, " ") for order in (7, 12, 20)}
    assert _printed(capsys, which, 12) == fresh[12]
    kept = dict(cli._KEPT_TEXT)
    # a new table, wrong at (3, 15), past the kept width
    monkeypatch.setattr(moment_matrix, "_b_row", _off_by_one(right, (3, 15)))
    monkeypatch.setattr(moment_matrix, "_B_ROWS", ())
    for order in (20, 15):
        bad_cell = re.escape("beta_numerator at (3, 15)")
        with pytest.raises(ArithmeticError, match=bad_cell):
            main(["matrix", "--order", str(order), "--which", which])
        assert capsys.readouterr().out == ""
        assert all(cli._KEPT_TEXT[w] is kept[w] for w in "FBG")
    # a covered print prints the old text, and takes no cells
    with monkeypatch.context() as patch:
        patch.setattr(moment_matrix, "matrix_cells", None)
        for order in (12, 7):
            assert _printed(capsys, which, order) == fresh[order]
    # a print with a right walk widens the text, right
    monkeypatch.setattr(moment_matrix, "_b_row", right)
    monkeypatch.setattr(moment_matrix, "_B_ROWS", ())
    assert _printed(capsys, which, 20) == fresh[20]
    assert _printed(capsys, which, 12) == fresh[12]


@pytest.mark.parametrize("which", ["F", "B", "G"])
def test_a_print_uses_only_the_kept_text_it_read(monkeypatch, capsys, which):
    # another print publishes a wider text right after this one reads the
    # kept text, as a thread may: this print widens, or cuts, the text it
    # read, and prints what a fresh walk formats
    _from_an_empty_table(monkeypatch)
    fresh = {order: _fresh_text(which, order, " ") for order in (5, 12, 30)}
    racing = []

    class Kept(dict):
        def __getitem__(self, key):
            value = super().__getitem__(key)
            if racing:
                _printed(capsys, which, racing.pop())
            return value

    monkeypatch.setattr(cli, "_KEPT_TEXT", Kept(_empty_kept()))
    for order in (12, 5):  # widening from width 0, then covered by 12
        racing.append(30)
        assert _printed(capsys, which, order) == fresh[order], order
        assert cli._KEPT_TEXT[which][0] == 12


def test_threads_print_while_the_kept_text_is_emptied(monkeypatch):
    # three threads print F, B and G at random orders, each widening the
    # kept text or covered by it, while a fourth empties it 200 times:
    # every print is right, so no print reads text another has published
    # before it was whole
    _no_kept_cells(monkeypatch)
    fresh = {(w, n): _fresh_text(w, n, " ") for w in "FBG" for n in range(1, 61)}
    printed = threading.local()
    monkeypatch.setattr(cli, "_emit", lambda text, _: setattr(printed, "text", text))
    failures, finished = [], []

    def work(seed):
        rng = random.Random(seed)
        if seed == 0:
            try:
                for _ in range(200):
                    for which in "FBG":
                        cli._KEPT_TEXT[which] = (0, (), None)
                    time.sleep(1e-4)
            finally:
                finished.append(seed)
            return
        while not finished:
            which, n = rng.choice("FBG"), rng.randint(1, 60)
            try:
                cli.cmd_matrix(argparse.Namespace(order=n, which=which, format="table"))
            except Exception as exc:  # a print that raises fails, as a wrong one does
                failures.append((seed, which, n, repr(exc)))
                continue
            if printed.text != fresh[which, n]:
                failures.append((seed, which, n))

    _run_threads(work, 4)
    assert failures == []


def _short_row(walk, i):
    """The row walk ``walk`` with row ``i`` one cell short."""
    return lambda row, n, kept=(): list(walk(row, n, kept))[: -1 if row == i else None]


@pytest.mark.parametrize(
    "corrupt, at",
    [
        # two bad cells in one row: the error names the first
        (lambda walk: _off_by_one(_off_by_one(walk, (2, 6)), (2, 4)), (2, 4)),
        # a row that stops early: the error names the cell it left out
        (lambda walk: _short_row(walk, 2), (2, 6)),
        # two bad cells in one column: the error names the first
        (lambda walk: _off_by_one(_off_by_one(walk, (4, 6)), (2, 6)), (2, 6)),
    ],
)
def test_row_check_names_the_first_bad_cell(monkeypatch, corrupt, at):
    monkeypatch.setattr(moment_matrix, "_b_row", corrupt(moment_matrix._b_row))
    _from_an_empty_table(monkeypatch)
    for which in ("B", "G"):
        with pytest.raises(ArithmeticError, match=re.escape(f"beta_numerator at {at}")):
            moment_matrix.matrix_cells(which, 6)


@pytest.mark.parametrize(
    "name, at, builder, verify, message",
    [
        ("g_entry", (1, 3), build_g, False, "disagrees with beta_numerator"),
        ("f_entry_recurrence", (3, 5), build_f, True, "recurrence"),
        ("f_diagonal", (4,), build_f, True, "diagonal"),
        ("f_second_superdiagonal", (5,), build_f, True, "superdiagonal"),
        ("f_entry", (2, 4), build_g, True, "identity"),
        ("f_entry", (3, 5), build_f, True, r"alternating sum mismatch at \(3, 5\)"),
        ("f_entry_closed_form", (2, 4), build_f, True, "alternating sum"),
        ("beta_numerator", (1, 3), build_g, False, "disagrees with beta_numerator"),
    ],
)
def test_checks_catch_a_corrupted_entry(
    monkeypatch, name, at, builder, verify, message
):
    # one wrong entry on one side of a cross-check must make the build, or
    # with verify the reference checks of the tests, fail; from an empty
    # table, so that the build walks and compares every cell it reads
    _from_an_empty_table(monkeypatch)
    if name in WALKS:
        # the builders read F and G from the walks: corrupt the walked value
        name, off_by_one = WALKS[name]
        right = getattr(moment_matrix, name)
        monkeypatch.setattr(moment_matrix, name, off_by_one(right, at))
    else:
        module = moment_matrix if hasattr(moment_matrix, name) else references
        right = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: right(*args) + (args == at))
    with pytest.raises(ArithmeticError, match=message):
        rows = builder(6)
        if verify and builder is build_f:
            references.check_f(rows)
        elif verify:
            references.check_inverse(rows)


def test_alpha_small_orders():
    assert alpha_coefficients(0) == [Fraction(1)]
    assert alpha_coefficients(1) == [Fraction(0), Fraction(1)]
    assert alpha_coefficients(2) == [Fraction(1, 3), 0, Fraction(2, 3)]
    # explicit count beyond m+1 pads with zeros (below-diagonal F entries)
    assert alpha_coefficients(1, count=4) == [0, 1, 0, 0]


@given(m=st.integers(min_value=0, max_value=15))
def test_alpha_solves_the_expansion_system(m):
    alpha = alpha_coefficients(m)
    for k in range(1, m + 2):
        dot = sum(beta(k, i) * a for i, a in enumerate(alpha, start=1))
        assert dot == (1 if k == m + 1 else 0)


@given(
    m=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=40)
def test_alpha_reproduces_shifted_first_row(m, n):
    alpha = alpha_coefficients(m)
    for j in range(1, n + 2):
        combo = sum(
            a * f_entry_closed_form(k, j) for k, a in enumerate(alpha, start=1)
        )
        assert combo == f_entry_closed_form(1, m + j)


def test_entries_match_quadrature_to_1e12():
    for i in range(1, 21):
        for j in range(1, 21):
            exact = float(f_entry_closed_form(i, j))
            assert abs(moment_quadrature(i, j) - exact) < 1e-12
