"""Gale transforms and affine dependences.

The kernel of the homogenized point matrix of C(n,d) carries every affine
dependence of the vertices; its canonical basis (reduced echelon pivoting on
leftmost columns, primitive integer scaling, positive leading entry) doubles
as the Gale transform via its columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Sequence

from .cyclic import ParamVector, homogenized_matrix
from .linalg import Vector, nullspace, vec

ONE = Fraction(1)


def kernel_basis(matrix: Sequence[Sequence]) -> list[Vector]:
    """Canonical basis of ker(M) for a full-row-rank homogenized matrix."""
    rows = [vec(r) for r in matrix]
    if not rows:
        raise ValueError("empty matrix")
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    if len(basis) != ncols - len(rows):
        raise ValueError("matrix is not of full row rank")
    return basis


@lru_cache(maxsize=64)
def dependence_basis(pv: ParamVector) -> tuple[Vector, ...]:
    """Basis of the affine dependences of the n moment-curve points.

    Cached per realization: the key is the whole parameter vector (n, d and
    every t), and the basis is a tuple of tuples, so no caller can change it.
    """
    return tuple(kernel_basis(homogenized_matrix(pv)))


def gale_transform(pv: ParamVector) -> list[Vector]:
    """Columns q*_i of the kernel-basis matrix, one (n-d-1)-vector per point."""
    basis = dependence_basis(pv)
    return [tuple(row[i] for row in basis) for i in range(pv.n)]


def unique_dependence_coeffs(pv: ParamVector) -> Vector:
    """c_i = prod_{j != i} 1/(t_j - t_i), the unique dependence when n = d+2."""
    if pv.n != pv.d + 2:
        raise ValueError("closed form requires n = d+2")
    return circuit_coeffs(pv, range(1, pv.n + 1))


def circuit_coeffs(pv: ParamVector, subset: Sequence[int]) -> Vector:
    """Affine dependence of the d+2 moment points indexed by `subset`.

    Coefficient i is prod_{j != i} 1/(t_j - t_i), so the signs alternate
    (+,-,+,...) along the sorted subset.  The formula holds for every
    (d+2)-subset, since these are exactly the circuits of C(n,d).
    """
    idx = sorted(subset)
    if len(idx) != pv.d + 2:
        raise ValueError(f"a circuit of C(n,{pv.d}) has {pv.d + 2} elements")
    t = [pv.param(i) for i in idx]
    return tuple(
        ONE / prod(tj - ti for j, tj in enumerate(t) if j != i) for i, ti in enumerate(t)
    )
