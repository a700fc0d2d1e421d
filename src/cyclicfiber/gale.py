"""Gale transforms, affine dependences and the single-element lifting maps.

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

from . import lp
from .cyclic import ParamVector, homogenized_matrix
from .linalg import Vector, dot, nullspace, vec

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


def in_relint_pos_cone(f: Sequence, generators: Sequence[Sequence]) -> bool:
    """Is f in the relative interior of pos(generators)?

    Equivalent to solvability of f = sum lambda_i g_i with every lambda_i > 0,
    decided by the strict-feasibility kernel on the homogeneous system
    sum lambda_i g_i - s f = 0, lambda > 0, s > 0.
    """
    f = vec(f)
    gens = [vec(g) for g in generators]
    if any(len(g) != len(f) for g in gens):
        raise ValueError("dimension mismatch between f and generators")
    if not gens:
        return all(x == 0 for x in f)
    m = len(gens)
    dim = m + 1
    eqs = []
    for coord in range(len(f)):
        eqs.append(tuple(g[coord] for g in gens) + (-f[coord],))
    strict = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    system = lp.StrictSystem.build(strict, eqs, dim)
    return isinstance(lp.solve_strict(system), lp.Witness)


def lift_params(pv: ParamVector) -> ParamVector:
    """Append t_{n+1} = 0 and raise the dimension: C(n,d) -> C(n+1,d+1)."""
    if pv.t[-1] >= 0:
        raise ValueError("single-element lifting needs all parameters < 0")
    return ParamVector(pv.n + 1, pv.d + 1, pv.t + (Fraction(0),))


def tau_star_heights(w: Sequence, pv: ParamVector) -> Vector:
    """Transport heights across the lifting: w'_i = -t_i w_i, w'_{n+1} = 0."""
    w = vec(w)
    if len(w) != pv.n:
        raise ValueError("height vector length != n")
    if pv.t[-1] >= 0:
        raise ValueError("tau* transport needs the t_{n+1} = 0 normalization")
    return tuple(-ti * wi for ti, wi in zip(pv.t, w)) + (Fraction(0),)


def reduced_functional(w: Sequence, pv: ParamVector) -> Vector:
    """Image of the height functional in ker(phi_Q)^*: G_Q w."""
    w = vec(w)
    return tuple(dot(row, w) for row in dependence_basis(pv))
