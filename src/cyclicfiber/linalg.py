"""Exact rational linear algebra on small dense matrices.

Inputs are rows of ints, Fractions or strings like '10/3'; no floats ever
enter a decision path.  Matrices are lists of row tuples.

Every elimination goes through `echelon`, one fraction-free Gauss-Jordan
routine on primitive integer rows (Bareiss, Math. Comp. 22, 1968): every
update is an exact integer division, and the rank and the canonical
nullspace basis are read off its integer rows, which hold D times the
reduced row echelon form.  Integer vectors, such as the nullspace basis,
come back as tuples of ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[int | Fraction, ...]  # integer results, such as nullspace vectors, are ints


def frac(x) -> Fraction:
    """Coerce ints, strings like '10/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations: %r" % (x,))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def vec(xs: Iterable) -> Vector:
    return tuple(frac(x) for x in xs)


def primitive_ints(row: Sequence[Fraction]) -> tuple[list[int], tuple[int, int]]:
    """(c * row as coprime integers, (p, q)) for a row of ints or Fractions.

    The scale c = p / q is positive, with p and q coprime ints.
    """
    try:
        g = gcd(*row)  # a TypeError unless every entry is an int
    except TypeError:
        denom = lcm(*(v.denominator for v in row))
        ints = [v.numerator * (denom // v.denominator) for v in row]
        g = gcd(*ints) or 1
        return [v // g for v in ints], (denom, g)
    return ([v // g for v in row], (1, g)) if g > 1 else (list(row), (1, 1))


def echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination with leftmost pivoting.

    Each row is first scaled to a primitive integer row.  In each column the
    first unfinished row with a nonzero entry becomes the pivot row, and
    every other row b is replaced by (piv * b - b[c] * prow) // prev, where
    prev is the previous pivot; the division is exact.  Returns
    (ints, pivot_columns, D): afterwards every pivot row holds D at its
    pivot column, the rows below the rank are zero, and ints[i] / D is row i
    of the reduced row echelon form.
    """
    m = [primitive_ints(row)[0] for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        top = len(pivots)
        p = next((i for i in range(top, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[top], m[p] = m[p], m[top]
        prow = m[top]
        piv = prow[c]
        for i, row in enumerate(m):
            if i != top:
                f = row[c]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
        prev = piv
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots, prev


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(echelon(_exact(rows))[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : rows @ x = 0}, one vector per free column.

    The basis is canonical: compute the RREF, set each free variable to 1 in
    turn, then scale each vector to a primitive integer vector whose first
    nonzero entry is positive.
    """
    m, pivots, den = echelon(_exact(rows))
    pivot_set = set(pivots)
    basis = []
    for fcol in range(ncols):
        if fcol in pivot_set:
            continue
        # den times the RREF vector with free variable fcol set to 1
        v = [0] * ncols
        v[fcol] = den
        for prow, pcol in enumerate(pivots):
            v[pcol] = -m[prow][fcol]
        basis.append(_canonical(v))
    return basis


def _exact(rows) -> list:
    """The rows of ints as they are, every other row as Fractions."""
    return [r if all(type(v) is int for v in r) else vec(r) for r in rows]


def _canonical(row: list[int]) -> tuple[int, ...]:
    """The int row scaled to coprime ints with positive leading entry."""
    ints = primitive_ints(row)[0]
    if next((x for x in ints if x != 0), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)
