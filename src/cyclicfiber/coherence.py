"""Regularity and pi-coherence decisions with exact certificates.

A subdivision of C(n,d) is regular when some height vector lifts it to the
lower hull of the lifted configuration; it is pi-coherent for the projection
C(n,d') -> C(n,d) when the heights can additionally be chosen orthogonal to
every affine dependence of the C(n,d') vertices.  Both questions reduce to
strict rational feasibility.

Two formulations of the regularity system are provided and must agree:

* "walls" (default): one strict row per interior wall, demanding a strict
  fold, plus coplanarity equalities inside non-simplex cells; when d = 1,
  where an interior point need not be a vertex, also one strict row per
  point in no cell, lifting it above the cell that spans it;
* "bmatrix": one strict row per (cell, non-member point) pair, demanding the
  point lie strictly above the cell's lifted hyperplane.

Every row of either system is a circuit of C(n,d) scattered into Q^n, and
depends only on the realization.  A system fetches the row table of its
realization once.  The table is keyed by the whole parameter vector and
bounded, so systems at the same realization share their rows and a new
realization never reads another's.

The independent oracle `regular_subdivision_from_heights` computes the lower
hull of a lifted configuration directly and never touches the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from . import lp
from .lp import Certificate, FeasibilityResult, StrictSystem, Witness, solve_strict
from .cyclic import (
    FaceClass,
    ParamVector,
    as_face,
    classify_face,
    gale_evenness_is_face,
    homogenized_matrix,
    standard_params,
)
from .gale import circuit_coeffs, dependence_basis, unique_dependence_coeffs
from .linalg import Vector, dot, solve, vec
from .subdiv import (
    BauesPoset,
    Cell,
    Subdivision,
    enumerate_baues_poset,
    pi_induced_violating_cell,
    wall_owners,
)

ZERO = Fraction(0)


def _sorted_cells(cells: Iterable[Iterable[int]], n: int) -> list[Cell]:
    out = sorted(as_face(c, n) for c in cells)
    if len(set(out)) != len(out):
        raise ValueError("repeated cells")
    return out


def _coplanarity_rows(cells: Sequence[Cell], pv: ParamVector, table: dict) -> list[Vector]:
    """The circuit row of base + v for each further vertex v of a non-simplex cell."""
    rows = []
    for c in cells:
        if len(c) > pv.d + 1:
            base = c[: pv.d + 1]
            for v in c[pv.d + 1 :]:
                rows.append(_circuit_row(table, pv, base + (v,), 0))
    return rows


@lru_cache(maxsize=64)
def _row_table(pv: ParamVector) -> dict:
    """The signed, scattered circuit rows of one realization, filled by `_circuit_row`."""
    return {}


def _circuit_row(table: dict, pv: ParamVector, z: Cell, k: int) -> Vector:
    """The circuit row of the sorted z, signed positive at z[k] and scattered into Q^n.

    The signs of a circuit alternate, so the row depends on k only through
    its parity; `table`, the row table of pv, holds it under (z, k % 2).
    """
    row = table.get((z, k % 2))
    if row is None:
        coeffs = circuit_coeffs(pv, z)
        if coeffs[k] < 0:
            coeffs = tuple(-c for c in coeffs)
        row = table[z, k % 2] = _scatter(z, coeffs, pv.n)
    return row


def _above_row(table: dict, pv: ParamVector, base: Cell, j: int) -> Vector:
    """Point j strictly above the hyperplane lifted through `base`.

    The circuit row of base + j, signed positive at j.  Across a wall w
    between the cells w + u and w + v, the strict fold is the row of
    (w + u, v).
    """
    z = tuple(sorted(base + (j,)))
    return _circuit_row(table, pv, z, z.index(j))


def _scatter(z: Cell, coeffs: Vector, n: int) -> Vector:
    """The n-vector with coeffs at the (1-based) indices z and zeros elsewhere."""
    row = [ZERO] * n
    for i, cf in zip(z, coeffs):
        row[i - 1] = cf
    return tuple(row)


def regularity_system(
    cells: Iterable[Iterable[int]], pv: ParamVector, style: str = "walls"
) -> lp.StrictSystem:
    """Strict system over heights w in Q^n whose witnesses induce the subdivision."""
    n, d = pv.n, pv.d
    cs = _sorted_cells(cells, n)
    for c in cs:
        if len(c) <= d:
            raise ValueError(f"cell {c} is lower-dimensional (needs > d = {d} vertices)")
    table = _row_table(pv)
    eqs = _coplanarity_rows(cs, pv, table)
    strict: list[Vector] = []
    if style == "walls":
        wall_map = wall_owners(cs, d)
        for w in sorted(wall_map):
            owners = wall_map[w]
            if len(owners) == 1:
                if not gale_evenness_is_face(w, n, d):
                    raise ValueError(f"wall {w} is neither interior nor boundary")
                continue
            if len(owners) != 2:
                raise ValueError(f"wall {w} lies in {len(owners)} cells")
            u = min(v for v in owners[0] if v not in w)
            v = min(x for x in owners[1] if x not in w)
            strict.append(_above_row(table, pv, w + (u,), v))
        covered = {v for c in cs for v in c}
        for j in range(1, n + 1):
            if j not in covered:  # only for d = 1: an interior point need not be a vertex
                c = next((c for c in cs if c[0] < j < c[-1]), None)
                if c is None:
                    raise ValueError(f"point {j} lies in no cell and between the ends of none")
                strict.append(_above_row(table, pv, c[: d + 1], j))
    elif style == "bmatrix":
        for c in cs:
            base = c[: d + 1]
            for j in range(1, n + 1):
                if j not in c:
                    strict.append(_above_row(table, pv, base, j))
    else:
        raise ValueError(f"unknown system style {style!r}")
    return lp.StrictSystem(tuple(strict), tuple(eqs), n)


def is_regular(
    cells: Iterable[Iterable[int]], pv: ParamVector, style: str = "walls"
) -> lp.FeasibilityResult:
    """Witness heights or a Farkas certificate of non-regularity."""
    return lp.solve_strict(regularity_system(cells, pv, style))


def pi_coherence_system(
    cells: Iterable[Iterable[int]], pv: ParamVector, d_prime: int
) -> lp.StrictSystem:
    """Regularity system plus one equality per affine dependence upstairs."""
    kernel_rows = dependence_basis(pv.with_dimension(d_prime))
    bad = pi_induced_violating_cell(cells, pv.n, pv.d, d_prime)
    if bad is not None:
        raise ValueError(f"not pi-induced: cell {bad} is a non-face of C({pv.n},{d_prime})")
    base = regularity_system(cells, pv)
    return lp.StrictSystem(base.strict, base.equalities + kernel_rows, pv.n)


def is_pi_coherent(
    cells: Iterable[Iterable[int]], pv: ParamVector, d_prime: int
) -> lp.FeasibilityResult:
    return lp.solve_strict(pi_coherence_system(cells, pv, d_prime))


def has_upper_and_lower_cells(cells: Iterable[Iterable[int]], n: int, d_prime: int) -> bool:
    """Parameter-free incoherence witness: cells on both sides of C(n,d').

    Only proper boundary faces are classified; the full vertex set is neither
    upper nor lower.
    """
    seen: set[FaceClass] = set()
    for c in cells:
        c = as_face(c, n)
        if len(c) == n:
            continue
        seen.add(classify_face(c, n, d_prime))
    return FaceClass.UPPER in seen and FaceClass.LOWER in seen


# ---------------------------------------------------------------------------
# the independent lower-hull oracle
# ---------------------------------------------------------------------------


def regular_subdivision_from_heights(pv: ParamVector, w: Sequence) -> Subdivision:
    """Lower-hull cells of the lifted configuration {(q_i, w_i)}, exactly.

    For every affinely spanning (d+1)-subset, solve for the affine function
    interpolating the lifted points; when every other point lies weakly above,
    the equality set is a lower-hull cell.
    """
    n, d = pv.n, pv.d
    w = vec(w)
    if len(w) != n:
        raise ValueError("height vector length != n")
    homog = list(zip(*homogenized_matrix(pv)))  # point i is homog[i - 1]
    cells: set[Cell] = set()
    for base in combinations(range(1, n + 1), d + 1):
        rows = [homog[i - 1] for i in base]
        rhs = [w[i - 1] for i in base]
        affine = solve(rows, rhs)
        values = [dot(homog[i], affine) for i in range(n)]
        if all(values[i] <= w[i] for i in range(n)):
            cells.add(tuple(i + 1 for i in range(n) if values[i] == w[i]))
    return Subdivision.make(cells, n, d)


# ---------------------------------------------------------------------------
# fiber polytope face posets
# ---------------------------------------------------------------------------


@dataclass
class FiberReport:
    """Coherence flags over a Baues poset at one parameter vector."""

    poset: BauesPoset
    pv: ParamVector
    results: list[lp.FeasibilityResult | None]

    @property
    def coherent_indices(self) -> list[int]:
        return [
            i
            for i, (s, r) in enumerate(zip(self.poset.elements, self.results))
            if not s.is_trivial and isinstance(r, lp.Witness)
        ]

    def coherent_counts_by_ranking(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i in self.coherent_indices:
            r = self.poset.elements[i].ranking()
            out[r] = out.get(r, 0) + 1
        return out

    def coherent_f_vector(self) -> tuple[int, int]:
        """(#minimal coherent elements, #non-minimal proper coherent elements).

        For d' - d = 2 these are the vertex and edge counts of the fiber
        polygon.
        """
        coh = self.coherent_indices
        minimal = self.poset.minimal(coh)
        return len(minimal), len(coh) - len(minimal)

    def polygon_name(self, f_vector: tuple[int, int] | None = None) -> str | None:
        """The polygon's name, such as "14-gon", if the fiber polytope is one.

        A caller that holds the coherent f-vector already passes it.
        """
        if self.poset.d_prime - self.poset.d != 2:
            return None
        v, e = f_vector or self.coherent_f_vector()
        if v != e:
            return None
        return f"{v}-gon"


def fiber_face_poset(
    n: int, d: int, d_prime: int, pv: ParamVector | None = None
) -> FiberReport:
    """Baues poset with each proper element flagged coherent/incoherent."""
    pv = pv or standard_params(n, d)
    if pv.d != d or pv.n != n:
        raise ValueError("parameter vector does not match (n, d)")
    poset = enumerate_baues_poset(n, d, d_prime)
    results: list[lp.FeasibilityResult | None] = [
        None if s.is_trivial else lp.solve_strict(pi_coherence_system(s.cells, pv, d_prime))
        for s in poset.elements
    ]
    return FiberReport(poset, pv, results)


# ---------------------------------------------------------------------------
# parameter scans along the n = d'+2 family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSample:
    pv: ParamVector
    coherent: bool
    dependence: Vector | None  # the unique dependence when n = d'+2
    ratio_c4_c3: Fraction | None  # |c4|/|c3|, the decisive quantity of the
    # two-polygon subdivision of C(n,2)


def parameter_scan(
    cells: Iterable[Iterable[int]],
    d_prime: int,
    samples: Sequence[ParamVector],
) -> list[ScanSample]:
    """Coherence verdict per exact rational sample, with c-ratio tracking."""
    cells = [tuple(c) for c in cells]
    out = []
    for pv in samples:
        res = is_pi_coherent(cells, pv, d_prime)
        dep = ratio = None
        if pv.n == d_prime + 2:
            dep = unique_dependence_coeffs(pv.with_dimension(d_prime))
            ratio = abs(dep[3]) / abs(dep[2])
        out.append(ScanSample(pv, isinstance(res, lp.Witness), dep, ratio))
    return out


def find_coherent_on_path(
    cells: Iterable[Iterable[int]],
    d_prime: int,
    path: Callable[[Fraction], ParamVector],
    lo: Fraction,
    hi: Fraction,
    max_iter: int = 64,
) -> ParamVector | tuple[Fraction, Fraction]:
    """Bisect c3 + c4 along a rational path of parameter vectors.

    Returns the first sample where the decisive quantity vanishes (an exactly
    coherent parameter vector for the two-polygon subdivision), or the final
    sign-change bracket if no exact zero is hit within `max_iter` steps.
    """
    cells = [tuple(c) for c in cells]

    def decisive(s: Fraction) -> Fraction:
        pv = path(s)
        if pv.n != d_prime + 2:
            raise ValueError("path must stay in the n = d'+2 family")
        dep = unique_dependence_coeffs(pv.with_dimension(d_prime))
        return dep[2] + dep[3]

    lo, hi = Fraction(lo), Fraction(hi)
    glo, ghi = decisive(lo), decisive(hi)
    for s, g in ((lo, glo), (hi, ghi)):
        if g == 0:
            return path(s)
    if (glo > 0) == (ghi > 0):
        raise ValueError("decisive quantity does not change sign on [lo, hi]")
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        g = decisive(mid)
        if g == 0:
            pv = path(mid)
            if not isinstance(is_pi_coherent(cells, pv, d_prime), lp.Witness):
                raise RuntimeError(f"c3 + c4 = 0 at {pv.t} but the LP finds no coherent heights")
            return pv
        if (g > 0) == (glo > 0):
            lo, glo = mid, g
        else:
            hi, ghi = mid, g
    return lo, hi
