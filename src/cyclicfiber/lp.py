"""Exact strict-feasibility kernel.

Decides systems of the form

    a_i . x > 0   for every strict row a_i,
    e_j . x = 0   for every equality row e_j,

over the rationals and returns either a witness x or a Farkas certificate
y >= 0 with sum(y) > 0 supported on the strict rows such that y^T A lies in
the span of the equality rows.

The kernel computes with integers only.  Each strict row is scaled by a
positive factor p/q, kept as the int pair (p, q), to a primitive integer
row.  When there are equality rows, that row is replaced by its dot
products with the integer nullspace basis of the equalities, made
primitive again, and the two factors are multiplied.  The basis is
memoized by the equality rows themselves, in an LRU of 4096 that returns
tuples, so systems that share their equalities, and the check of their
certificates, take one nullspace.  The distinct rows are reduced in order,
an exact repeat of a row is not reduced again, and a row that the
equalities force to zero ends the reduction at once, with the unit vector
of its first copy as the certificate.  Rows repeat often: the interior
walls of one flippable circuit fold along one circuit row.  Rows whose
reductions are equal share one phase-1 column, with or without
equalities, and the column's certificate entry goes on the first of them;
this is exact (below).  On the nullspace of the equalities distinct rows
can reduce alike, and without equalities a row reduces as its positive
multiples do: the vertex test of a general polytope with three collinear
input points v, u, u' has rows v - u and v - u' that are positive
multiples.  The distinct reductions go to phase 1 as they are, with r
columns, dependent or not.

By Gordan's alternative, A x > 0 has no solution exactly when

    y >= 0,  A^T y = 0,  sum(y) = 1

has one.  Phase 1 of the simplex method decides this dual with one
artificial variable per row and Bland's anti-cycling rule (entering: lowest
index with negative reduced cost; leaving: lowest basic index among minimal
ratios).  Pivots are Edmonds/Bareiss integer pivots, as in lrs: the tableau,
objective row included, is an integer matrix over the determinant of the
current basis, so every update is an exact integer division and no gcd or
Fraction is taken.  The tableau is compact: a basic column is det times a
unit vector, so only the nonbasic columns and the right-hand side are
kept, each column named by its variable.  After a pivot the leaving
variable takes the entering column's place, holding minus its old entries
and the old det in the pivot row.  A row whose entry in the entering column
is zero is only rescaled by the new det over the old, and is left alone
when the two are equal; while det is 1 no division is made.  At optimum 0
the dual solution y is the certificate.
Otherwise the multipliers pi of the final basis are dual feasible: the
reduced cost -pi . (a_i, 1) of each y_i is >= 0, and pi_{r+1} is the
phase-1 optimum z.  So x = -pi_1..r satisfies a_i . x >= z > 0 for every
row, and it is mapped back through the nullspace basis to a witness with
coprime integer entries.

Neither argument needs independent columns of A.  The witness bound holds
at any phase-1 optimum z > 0, whatever the rank of A, and a certificate is
a feasible y in either case.  A constraint row of A^T that depends on the
others only keeps an artificial basic at level zero.

Nor does phase 1 need the copies of a row (Bland, "New finite pivoting
rules for the simplex method", Math. Oper. Res. 1977).  Two equal rows of
A give two equal columns y_i, y_j, i < j, of the tableau, and a pivot
updates every column by the same rule, so the columns stay equal while both
are nonbasic, with equal reduced costs; Bland's rule enters the lower index
i first.  While y_i is basic, y_j's column is that of a basic variable, with
reduced cost 0, so it does not enter; when y_i leaves, the two are equal
again.  So y_j never enters, and the LP without it makes the same pivots,
with the same det, final basis, multipliers and y, since the other
variables keep their relative order and the artificials stay numbered after
every y.  The witness is therefore the same, and the certificate is that of
the full LP: each kept column's entry on its first row and 0 on every copy.

`feasible` decides mixed systems, with rows g_j . x >= 0, by `solve_strict`
with the rows g_j strict.  A witness solves the mixed system, and a
certificate that uses a strict row refutes it.  One supported on rows g_j
alone forces them to zero on every solution: they become equalities, and
the system is solved again, at most once per row g_j.

Witnesses and certificates are tuples of ints with no common factor.  Every
returned object is re-verified exactly before it leaves this module.
`verify` replaces a witness by its primitive integer multiple, which keeps
the sign of every row . x, and dots each row with it directly: integer
rows stay in integers, and rows of Fractions give exact Fractions.  A
certificate is replaced by its primitive integer multiple, so that its
combination of integer rows stays in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Sequence

from .linalg import Vector, nullspace, primitive_ints, vec


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
        if len(result.x) != system.dimension:
            raise ValueError("witness length does not match the system dimension")
        # a positive multiple of x keeps the sign of row . x, which is exact
        # for rows of ints and of Fractions alike
        x = primitive_ints(result.x)[0]
        return all(sum(map(mul, r, x)) > 0 for r in system.strict) and all(
            sum(map(mul, r, x)) == 0 for r in system.equalities
        )
    y = result.y
    if len(y) != len(system.strict):
        return False
    # a positive multiple of y in integers keeps the combination of int rows in ints
    y = primitive_ints(y)[0]
    if any(v < 0 for v in y) or not any(y):  # y >= 0 and sum(y) > 0
        return False
    combo = [0] * system.dimension
    for coef, row in zip(y, system.strict):
        if coef:
            combo = [c + coef * r for c, r in zip(combo, row)]
    # y^T A must vanish on the solution space of the equality rows.
    basis = _equality_basis(system.equalities, system.dimension)
    if basis is None:
        return not any(combo)
    return all(sum(c * b for c, b in zip(combo, col)) == 0 for col in basis)


def solve_strict(system: StrictSystem) -> FeasibilityResult:
    """Exact decision: Witness(x) or Certificate(y), mutually exclusive.

    Every result passes `verify` on the system before it is returned, and
    SolverError is raised when one does not.
    """
    res = _decide(system)
    if not verify(system, res):
        raise SolverError(f"{type(res).__name__.lower()} of the solver failed exact verification")
    return res


def _decide(system: StrictSystem) -> FeasibilityResult:
    """The result of `solve_strict`, not yet verified.

    Each distinct row is reduced once, and phase 1 gets one column per
    distinct reduction.  By Bland's rule (see the module docstring) this
    changes no pivot: the result is the one of the LP with a column per
    row, whose certificate is 0 on every row after the first of its column.
    """
    dim = system.dimension
    if not system.strict:
        return Witness((0,) * dim)
    basis = _equality_basis(system.equalities, dim)
    strict = system.strict
    first = {}  # each distinct reduction -> its first row and that row's scale
    for row in dict.fromkeys(strict):  # an exact repeat is not reduced again
        ints, s = _reduce(row, basis)
        if not any(ints):
            # a_i is forced to zero by the equalities: immediately infeasible.
            i = strict.index(row)
            return Certificate(tuple(int(j == i) for j in range(len(strict))))
        first.setdefault(ints, (row, s))
    x, y = _gordan_phase1(list(first))
    if x is not None:
        return Witness(_lift(x, basis, dim))
    # y_c times the scale p / q of the first row of column c, over the
    # common denominator of the scales; every other row keeps 0
    den = lcm(*(q for _, (_, q) in first.values()))
    full = [0] * len(strict)
    for (row, (p, q)), v in zip(first.values(), y):
        if v:
            full[strict.index(row)] = v * p * (den // q)
    return Certificate(tuple(primitive_ints(full)[0]))


def feasible(
    strict: Sequence[Sequence],
    nonneg: Sequence[Sequence],
    equalities: Sequence[Sequence],
    dimension: int,
) -> Vector | None:
    """Witness for {strict > 0, nonneg >= 0, eq = 0}, or None; no certificate is returned."""
    strict, open_rows = [vec(r) for r in strict], [vec(r) for r in nonneg]
    zero_rows = [vec(r) for r in equalities]
    if not strict:
        raise ValueError("mixed feasibility requires at least one strict row")
    while True:  # open_rows: the nonnegative rows not yet forced to zero
        res = solve_strict(StrictSystem(tuple(strict + open_rows), tuple(zero_rows), dimension))
        if isinstance(res, Witness):
            return res.x
        if any(res.y[: len(strict)]):
            return None
        forced = res.y[len(strict) :]
        zero_rows += [r for r, v in zip(open_rows, forced) if v]
        open_rows = [r for r, v in zip(open_rows, forced) if not v]


def _reduce(row, basis) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Primitive integer coordinates of the row on the equality nullspace.

    Returns (ints, (p, q)): ints is p / q > 0 times the dot products of the
    row with the integer nullspace basis, or times the row itself when
    basis is None, there being no equalities.
    """
    ints, s = primitive_ints(row)
    if basis is None:
        return tuple(ints), s
    ints, t = primitive_ints([sum(a * b for a, b in zip(ints, col)) for col in basis])
    return tuple(ints), (s[0] * t[0], s[1] * t[1])


def _equality_basis(equalities, dimension) -> tuple[tuple[int, ...], ...] | None:
    """The integer nullspace basis of the equality rows; None when there are none."""
    if not equalities:
        return None
    return _nullspace_of(tuple(map(tuple, equalities)), dimension)


@lru_cache(maxsize=4096)
def _nullspace_of(equalities: tuple[Vector, ...], dimension: int) -> tuple[tuple[int, ...], ...]:
    """`nullspace` memoized by the rows themselves, which fix the basis."""
    return tuple(nullspace(equalities, dimension))


def _gordan_phase1(rows: Sequence[Sequence[int]]):
    """Phase 1 of {y >= 0, A^T y = 0, sum(y) = 1} in integer pivots.

    rows holds the rows of A, all of one length; its columns need not be
    independent (see the module docstring).  Returns (x, None) with
    A x > 0, or (None, y) with y >= 0 an integer multiple of a solution.

    The tableau is compact (see the module docstring): `nonbasic` names
    its columns before the right-hand side, and `basis` its rows.
    """
    m, r = len(rows), len(rows[0])
    # r + 1 constraint rows over the columns y (m), then the rhs; the
    # artificials (m .. m + r) start basic; the objective row of
    # min sum(artificials) comes last
    tab = [[row[k] for row in rows] + [0] for k in range(r)]
    tab.append([1] * m + [1])
    tab.append([-1 - sum(row) for row in rows] + [-1])  # y: minus its column sums
    nonbasic = list(range(m))
    basis = list(range(m, m + r + 1))
    det = 1  # every actual entry is tab[i][j] / det
    obj = tab[-1]
    while True:
        # Bland: the lowest y variable with a negative reduced cost enters;
        # artificials, numbered after every y, never re-enter
        enter = min([j for j, v in zip(nonbasic, obj) if v < 0], default=m)
        if enter >= m:
            break
        q = nonbasic.index(enter)
        leave = None
        for i in range(r + 1):
            a = tab[i][q]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][q]
                best = tab[leave][-1] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise SolverError("unbounded phase 1, whose objective is bounded below by 0")
        prow = tab[leave]
        piv = prow[q]
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[q]
            if f:
                if det == 1:
                    row = [a * piv - f * b for a, b in zip(row, prow)]
                else:
                    row = [(a * piv - f * b) // det for a, b in zip(row, prow)]
                row[q] = -f
            elif piv != det:
                row = [a * piv for a in row] if det == 1 else [a * piv // det for a in row]
            tab[i] = row
        prow[q] = det
        nonbasic[q], basis[leave] = basis[leave], nonbasic[q]
        det = piv
        obj = tab[-1]
    if obj[-1] == 0:
        y = [0] * m
        for i, b in enumerate(basis):
            if b < m:
                y[b] = tab[i][-1]
        return None, y
    # reduced cost of artificial k is 1 - pi_k, 0 while it is basic, so
    # x = -pi_1..r scaled by det
    cost = [0] * (r + 1)
    for c, v in enumerate(nonbasic):
        if v >= m:
            cost[v - m] = obj[c]
    return [cost[k] - det for k in range(r)], None


def _lift(x, basis, dimension) -> tuple[int, ...]:
    """The witness of the reduced rows in full coordinates, as coprime integers."""
    if basis is not None:
        x = [sum(c * b[i] for c, b in zip(x, basis)) for i in range(dimension)]
    return tuple(primitive_ints(x)[0])


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
