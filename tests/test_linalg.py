from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclicfiber.linalg import det, dot, frac, nullspace, primitive, rank, rref, solve

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_pivots():
    red, pivots = rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pivots == [0, 1]
    assert red[0][:3] == [1, 0, 1]


def test_nullspace_annihilates():
    rows = [[1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 9, 16]]
    basis = nullspace(rows, 4)
    assert basis == [(Fraction(1), Fraction(-3), Fraction(3), Fraction(-1))]
    for b in basis:
        assert all(dot(r, b) == 0 for r in [tuple(map(Fraction, r)) for r in rows])


def test_nullspace_of_empty_is_standard_basis():
    basis = nullspace([], 3)
    assert len(basis) == 3 and basis[0][0] == 1


def test_primitive_scaling():
    assert primitive([Fraction(-2, 6), Fraction(4, 6)]) == (Fraction(1), Fraction(-2))


def test_solve_and_det():
    rows = [[2, 0], [1, 3]]
    assert solve(rows, [4, 7]) == (Fraction(2), Fraction(5, 3))
    assert det(rows) == 6
    assert det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        solve([[1, 2], [2, 4]], [1, 1])


@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=3, max_size=3))
def test_solve_round_trip(rows):
    if det(rows) == 0:
        return
    rhs = [Fraction(1), Fraction(-2), Fraction(3)]
    x = solve(rows, rhs)
    assert [dot(tuple(map(Fraction, r)), x) for r in rows] == rhs


@given(st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=2, max_size=3))
def test_nullspace_dimension(rows):
    basis = nullspace(rows, 4)
    assert len(basis) == 4 - rank(rows)
    for b in basis:
        assert all(dot(tuple(map(Fraction, r)), b) == 0 for r in rows)


def test_shape_errors_raise_value_error():
    with pytest.raises(ValueError):
        dot([1, 2], [1])
    with pytest.raises(ValueError):
        solve([[1, 0], [0]], [1, 1])
    with pytest.raises(ValueError):
        solve([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError):
        det([[1, 2], [3]])
