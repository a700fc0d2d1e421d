from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclicfiber.linalg import echelon, frac, nullspace, primitive_ints, rank
from oracles import dot, fraction_nullspace, fraction_rref, fraction_solve

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def echelon_rref(rows):
    """The reduced row echelon form and pivots read off `echelon`: its rows over D."""
    m, pivots, den = echelon(rows)
    return [[Fraction(x, den) for x in row] for row in m], pivots


def echelon_solve(rows, rhs):
    """The solution of a square system, the last column of `echelon` of [rows | rhs] over D."""
    n = len(rows)
    m, pivots, den = echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(Fraction(m[i][n], den) for i in range(n))


def test_rref_pivots():
    red, pivots = echelon_rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pivots == [0, 1]
    assert red[0][:3] == [1, 0, 1] and not any(red[2])


def test_nullspace_annihilates():
    rows = [[1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 9, 16]]
    basis = nullspace(rows, 4)
    assert basis == [(1, -3, 3, -1)]
    for b in basis:
        assert all(dot(r, b) == 0 for r in [tuple(map(Fraction, r)) for r in rows])


def test_nullspace_of_empty_is_standard_basis():
    basis = nullspace([], 3)
    assert len(basis) == 3 and basis[0][0] == 1


def test_primitive_scaling():
    # the free vector (-2/3, 1) scales to coprime ints with a positive leading entry
    assert nullspace([[Fraction(3, 2), 1]], 2) == [(2, -3)]
    assert nullspace([[Fraction(-1, 3), Fraction(2, 3)]], 2) == [(2, 1)]


@given(st.lists(st.integers(-60, 60), max_size=6))
def test_primitive_ints_of_int_rows_matches_fraction_rows(row):
    ints, (p, q) = primitive_ints(row)
    assert (ints, (p, q)) == primitive_ints([Fraction(v) for v in row])
    assert type(p) is int and type(q) is int and all(type(v) is int for v in ints)


def test_primitive_ints_scale_of_fraction_rows():
    # (1/2, 1/3) times 6/1 is (3, 2); (4/3, 2/3) times 3/2 is (2, 1)
    assert primitive_ints([Fraction(1, 2), Fraction(1, 3)]) == ([3, 2], (6, 1))
    assert primitive_ints([Fraction(4, 3), Fraction(2, 3)]) == ([2, 1], (3, 2))
    assert primitive_ints([4, -6]) == ([2, -3], (1, 2))


def test_solve_exact_and_singular():
    rows = [[2, 0], [1, 3]]
    assert echelon_solve(rows, [4, 7]) == (Fraction(2), Fraction(5, 3))
    assert echelon_solve([[1, 2], [2, 4]], [1, 1]) is None


@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=3, max_size=3))
def test_solve_round_trip(rows):
    if rank(rows) < 3:
        return
    rhs = [Fraction(1), Fraction(-2), Fraction(3)]
    x = echelon_solve(rows, rhs)
    assert [dot(tuple(map(Fraction, r)), x) for r in rows] == rhs


@given(st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=2, max_size=3))
def test_nullspace_dimension(rows):
    basis = nullspace(rows, 4)
    assert len(basis) == 4 - rank(rows)
    for b in basis:
        assert all(type(x) is int for x in b)
        assert all(dot(tuple(map(Fraction, r)), b) == 0 for r in rows)


def test_shape_errors_raise_value_error():
    with pytest.raises(ValueError):
        dot([1, 2], [1])


@st.composite
def rational_matrices(draw):
    """(rows, ncols): dependent rows, zero rows and zero columns; possibly no rows."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(fractions), draw(fractions)
            r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(r, s)])
        else:
            rows.append(draw(st.lists(fractions, min_size=ncols, max_size=ncols)))
    zero_cols = draw(st.sets(st.integers(0, 5))) if ncols else set()
    return [[Fraction(0) if c in zero_cols else x for c, x in enumerate(r)] for r in rows], ncols


@settings(max_examples=400, deadline=None)
@given(rational_matrices())
def test_elimination_matches_fraction_reference(case):
    """echelon's rows over D and pivots, rank, nullspace and the solution column
    of an augmented echelon agree with the Fraction Gauss-Jordan reference."""
    rows, ncols = case
    red, pivots = fraction_rref(rows)
    assert echelon_rref(rows) == (red, pivots)
    assert rank(rows) == len(pivots)
    assert nullspace(rows, ncols) == fraction_nullspace(rows, ncols)
    if len(rows) <= ncols:
        square = [r[: len(rows)] for r in rows]
        rhs = [r[-1] + i for i, r in enumerate(rows)]
        assert echelon_solve(square, rhs) == fraction_solve(square, rhs)
