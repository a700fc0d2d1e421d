"""Exact strict-feasibility kernel.

Decides systems of the form

    a_i . x > 0   for every strict row a_i,
    e_j . x = 0   for every equality row e_j,

over the rationals and returns either a witness x or a Farkas certificate
y >= 0 with sum(y) > 0 supported on the strict rows such that y^T A lies in
the span of the equality rows.  The decision is made by maximizing a slack
bound eps subject to a_i . x >= eps, eps <= 1, with exact rational pivoting
and Bland's anti-cycling rule; the dual solution at eps* = 0 furnishes y.

Every returned object is re-verified exactly before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Vector, dot, frac, nullspace, primitive, vec

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class StrictSystem:
    """Rows demanding row.x > 0 plus homogeneous equality rows row.x = 0."""

    strict: tuple[Vector, ...]
    equalities: tuple[Vector, ...]
    dimension: int

    def __post_init__(self):
        for row in self.strict + self.equalities:
            if len(row) != self.dimension:
                raise ValueError("row does not match declared dimension")

    @staticmethod
    def build(strict, equalities, dimension) -> "StrictSystem":
        return StrictSystem(
            tuple(vec(r) for r in strict),
            tuple(vec(r) for r in equalities),
            dimension,
        )


@dataclass(frozen=True)
class Witness:
    x: Vector


@dataclass(frozen=True)
class Certificate:
    y: Vector  # one entry per strict row


FeasibilityResult = Witness | Certificate


class SolverError(RuntimeError):
    """Raised when an internal consistency check fails (never expected)."""


def verify(system: StrictSystem, result: FeasibilityResult) -> bool:
    """Exact re-verification of a witness or certificate."""
    if isinstance(result, Witness):
        x = result.x
        return all(dot(r, x) > 0 for r in system.strict) and all(
            dot(r, x) == 0 for r in system.equalities
        )
    y = result.y
    if len(y) != len(system.strict):
        return False
    if any(v < 0 for v in y) or sum(y) <= 0:
        return False
    combo = [ZERO] * system.dimension
    for coef, row in zip(y, system.strict):
        if coef:
            combo = [c + coef * r for c, r in zip(combo, row)]
    # y^T A must vanish on the solution space of the equality rows.
    basis = nullspace(system.equalities, system.dimension)
    return all(dot(combo, b) == 0 for b in basis)


def solve_strict(system: StrictSystem) -> FeasibilityResult:
    """Exact decision: Witness(x) or Certificate(y), mutually exclusive."""
    dim = system.dimension
    if not system.strict:
        res: FeasibilityResult = Witness(tuple([ZERO] * dim))
        if not verify(system, res):
            raise SolverError("zero witness of a system without strict rows failed verification")
        return res
    basis = nullspace(system.equalities, dim)
    reduced = [tuple(dot(a, b) for b in basis) for a in system.strict]
    for i, row in enumerate(reduced):
        if all(v == 0 for v in row):
            # a_i is forced to zero by the equalities: immediately infeasible.
            y = tuple(ONE if j == i else ZERO for j in range(len(system.strict)))
            res = Certificate(y)
            if not verify(system, res):
                raise SolverError("degenerate certificate failed verification")
            return res
    value, z, duals = _max_slack(reduced)
    k = len(basis)
    if value > 0:
        u = [z[j] - z[k + j] for j in range(k)]
        x = [ZERO] * dim
        for coef, b in zip(u, basis):
            if coef:
                x = [xx + coef * bb for xx, bb in zip(x, b)]
        res = Witness(tuple(x))
    else:
        res = Certificate(primitive(duals[: len(reduced)]))
    if not verify(system, res):
        raise SolverError("solver result failed exact verification")
    return res


def feasible(
    strict: Sequence[Sequence],
    nonneg: Sequence[Sequence],
    equalities: Sequence[Sequence],
    dimension: int,
) -> Vector | None:
    """Witness for {strict > 0, nonneg >= 0, eq = 0}, or None.

    Mixed-sign systems appear in interior/face geometry tests; no certificate
    is produced for them.
    """
    strict_rows = [vec(r) for r in strict]
    nonneg_rows = [vec(r) for r in nonneg]
    eq_rows = [vec(r) for r in equalities]
    if not strict_rows:
        raise ValueError("mixed feasibility requires at least one strict row")
    basis = nullspace(eq_rows, dimension)
    red_strict = [tuple(dot(a, b) for b in basis) for a in strict_rows]
    if any(all(v == 0 for v in row) for row in red_strict):
        return None
    red_nonneg = [tuple(dot(a, b) for b in basis) for a in nonneg_rows]
    value, z, _ = _max_slack(red_strict, red_nonneg)
    if value <= 0:
        return None
    k = len(basis)
    u = [z[j] - z[k + j] for j in range(k)]
    x = [ZERO] * dimension
    for coef, b in zip(u, basis):
        if coef:
            x = [xx + coef * bb for xx, bb in zip(x, b)]
    if not all(dot(r, x) > 0 for r in strict_rows):
        raise SolverError("mixed witness violates a strict row")
    if not all(dot(r, x) >= 0 for r in nonneg_rows):
        raise SolverError("mixed witness violates a nonnegative row")
    if not all(dot(r, x) == 0 for r in eq_rows):
        raise SolverError("mixed witness violates an equality row")
    return tuple(x)


def _max_slack(strict_rows, nonneg_rows=()):
    """max eps s.t. strict.u >= eps, nonneg.u >= 0, eps <= 1, u free.

    Free variables are split as u = u+ - u-.  Returns (eps*, z, duals) where
    z = (u+, u-, eps) and duals has one entry per constraint row in order
    (strict rows, nonneg rows, the eps <= 1 bound).
    """
    k = len(strict_rows[0]) if strict_rows else 0
    nvars = 2 * k + 1
    rows = []
    for a in strict_rows:
        rows.append([-x for x in a] + [x for x in a] + [ONE])
    for g in nonneg_rows:
        rows.append([-x for x in g] + [x for x in g] + [ZERO])
    rows.append([ZERO] * (2 * k) + [ONE])
    rhs = [ZERO] * (len(rows) - 1) + [ONE]
    cost = [ZERO] * (2 * k) + [ONE]
    return _simplex_max(cost, rows, rhs)


def _simplex_max(cost, rows, rhs):
    """Tableau simplex for max c.z s.t. rows.z <= rhs, z >= 0, rhs >= 0.

    Bland's rule throughout (entering: lowest index with negative reduced
    cost; leaving: lowest basic index among minimal ratios), which guarantees
    termination under the heavy degeneracy these systems have.
    """
    m, n = len(rows), len(cost)
    tab = [list(rows[i]) + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]] for i in range(m)]
    red = [-c for c in cost] + [ZERO] * m + [ZERO]
    basis = list(range(n, n + m))
    total = n + m
    while True:
        enter = next((j for j in range(total) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise SolverError("unbounded slack LP; the formulation bounds eps <= 1")
        _pivot(tab, red, leave, enter)
        basis[leave] = enter
    z = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            z[b] = tab[i][-1]
    duals = red[n : n + m]
    return red[-1], z, duals


def _pivot(tab, red, r, c):
    pv = tab[r][c]
    tab[r] = [x / pv for x in tab[r]]
    prow = tab[r]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            f = tab[i][c]
            tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
    if red[c] != 0:
        f = red[c]
        for j in range(len(red)):
            red[j] -= f * prow[j]


def format_result(system: StrictSystem, result: FeasibilityResult) -> str:
    """Text block with the system rows and the witness/certificate entries."""
    lines = [f"dimension {system.dimension}"]
    for row in system.equalities:
        lines.append("eq  " + " ".join(str(x) for x in row))
    for row in system.strict:
        lines.append("gt0 " + " ".join(str(x) for x in row))
    if isinstance(result, Witness):
        lines.append("WITNESS " + " ".join(str(x) for x in result.x))
    else:
        lines.append("CERTIFICATE " + " ".join(str(x) for x in result.y))
    return "\n".join(lines)
