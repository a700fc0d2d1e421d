"""Exact rational linear algebra on small dense matrices.

Everything operates on lists/tuples of fractions.Fraction; no floats ever
enter a decision path.  Matrices are lists of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '10/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations: %r" % (x,))
    return Fraction(x)


def vec(xs: Iterable) -> Vector:
    return tuple(frac(x) for x in xs)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat_vec(rows: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vector:
    return tuple(dot(r, x) for r in rows)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with leftmost pivoting.

    Returns (rref_rows, pivot_columns).  Deterministic: pivots are chosen as
    the first nonzero entry in the leftmost unfinished column, scanning rows
    top to bottom.
    """
    m = [[frac(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of {x : rows @ x = 0}, one vector per free column.

    The basis is canonical: compute the RREF, set each free variable to 1 in
    turn, then scale each vector to a primitive integer vector whose first
    nonzero entry is positive.
    """
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -red[prow][fcol]
        basis.append(primitive(v))
    return basis


def primitive(v: Sequence[Fraction]) -> Vector:
    """Scale a rational vector to coprime integers with positive leading entry."""
    v = [frac(x) for x in v]
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector:
    """Solve a square nonsingular system exactly."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("system is not square")
    aug = [[frac(x) for x in row] + [frac(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return tuple(red[i][n] for i in range(n))


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    m = [[frac(x) for x in row] for row in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result
