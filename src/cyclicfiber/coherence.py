"""Regularity and pi-coherence decisions with exact certificates.

A subdivision of C(n,d) is regular when some height vector lifts it to the
lower hull of the lifted configuration; it is pi-coherent for the projection
C(n,d') -> C(n,d) when the heights can be chosen as a linear functional on
the coordinates of C(n,d') (Billera and Sturmfels, "Fiber polytopes"), that
is w_i = p(t_i) for a polynomial p of degree at most d'.  Both questions
reduce to strict rational feasibility.

The system has one strict row per interior wall, demanding a strict fold,
plus coplanarity equalities inside non-simplex cells; when d = 1, where an
interior point need not be a vertex, also one strict row per point in no
cell, lifting it above the cell that spans it.  Heights that fold every
interior wall are locally convex on the subdivision, hence convex, so
their lower hull is the subdivision.

Every row of the system is a circuit z of C(n,d), signed positive at one
of its points.  One combinatorial pass lists these as keys (z, k), and two
encodings turn the keys into rows, in the same order:

* The decision runs in a-coordinates.  The part of p of degree at most d
  is affine and changes no verdict, so the unknowns are the D = d' - d
  coefficients a_m of (L t)^(d+1+m), where L is the lcm of the denominators
  of t.  By the divided-difference identity, the circuit row of z applied
  to these heights is L^(d+1) (-1)^(k+d+1) sum_m a_m h_m(L t_z), with h_m
  the complete homogeneous symmetric polynomial.  So the a-row is the
  integer vector (-1)^(k+d+1) (h_0, ..., h_(D-1)) at L t_z: no division,
  no dependence equality, and D unknowns instead of n.  Regularity is the
  case d' = n - 1, since the Vandermonde matrix of t is invertible.  A
  witness a maps back to integer heights w_i = sum_m a_m x_i^(d+1+m) at
  x = L t, less their interpolant of degree at most d at x_1..x_(d+1),
  divided by their gcd.  That is, e_m goes to omega(x_i) h_m(x_1..x_(d+1),
  x_i) with omega(x) = prod_(j <= d+1) (x - x_j): an affine change that
  keeps the subdivision, vanishes at the first d+1 points and keeps the
  heights small.  A certificate y of the a-system is one of the Q^n system
  unchanged, because the rows differ by the map a -> w and the common
  factor L^-(d+1) > 0.
* `regularity_system` and `pi_coherence_system` scatter the same circuits
  into Q^n, with the C(n,d') dependences as extra equalities, for printing
  certificates and for checks from outside the decision.

One builder, `_CellTable.system`, turns a subdivision into the system in
either encoding.  The cells, walls and apexes of a subdivision depend on
(n, d) alone, through Gale evenness; only the rows depend on t.  So the
table is combinatorial: it holds the facets of C(n,d) as one set, numbers
the cells it meets and keeps, per cell id, the walls with their apexes and
sides, the count of those walls outside the facet set, the coplanarity
circuits and the vertex mask, and `system` reads
the rows of these keys from the row source of one realization and
encoding.  The side of a wall in a cell is the parity of the wall's
vertices above the apex.  For increasing parameters two cells of a wall
lie on opposite sides of it exactly when their sides differ (the sign
argument is in the `shape` docstring), so the side is read once per cell
and wall.

The table validates every subdivision in the one pass that builds its
system.  The apexes of each wall are paired across the subdivision's cells
in one dict pass, with one XOR of the sides per paired wall and a count of
the walls that are no faces of C(n,d) (the argument is in the `shape`
docstring).  Only the interior walls, which give the rows, are sorted, and
the fold row of each is read from a memo keyed (wall, apex, apex).  A wall
in three cells, one in a single cell that is no face of C(n,d), or one
whose two cells lie on the same side of it, as when two cells overlap,
makes the subdivision invalid; only then are all its walls sorted, so that
the error names the first bad one.  When d = 1 the points in no cell are
scanned after this test, and each lies between the ends of a cell.  A
segment (a, b) with a > 1 meets, across the interior wall (a,), a segment
that ends at a on the other side, and likewise at b < n, so the segments
form one chain from 1 to n.  A second chain would put two cells on one
side of (1,), so the chain is the only one, and it spans every point.

Every public entry point validates its cells in one function, `_numbered`,
before the table numbers them: it rejects an empty set, repeated and
lower-dimensional cells and, for a projection to C(n,d'), checks
d < d' < n and that each cell is a face of C(n,d') or the whole vertex
set.  `fiber_face_poset` hands the table the census cells, which are
canonical and pi-induced already, so `_numbered` skips them.  A cell tuple
that the table has numbered already is canonical, so only new or malformed
cells are canonicalized, whichever entry point meets them; repeated cells
are still rejected.

The memos, their keys and their bounds:

* `_cell_table(n, d)`: the one `_CellTable` of C(n,d), in an LRU of 32.
  Every entry point numbers its cells there, whatever the realization,
  d' or encoding, so each cell of C(n,d) asked about is numbered once.
  It holds vertex tuples, with the facet set of C(n,d), and no row, so no
  realization reads another's rows through it.
* `_coordinates(pv, d')` and `_scattered(pv)`: one row source per
  realization (and d'), in an LRU of 64 keyed by the whole `ParamVector`,
  which computes its hash once.  Each holds only rows: its circuit rows
  under (z, k % 2) and its fold rows under (wall, apex, apex), so a new
  realization never reads another's rows; a source holds at most
  2 C(n, d+2) circuit rows and n^2 C(n, d) folds.

When d' - d = 2 the fiber polytope is a polygon, and every a-row is
sigma (1, s), with sigma = +-1 and s the sum of L t over the circuit.  A
nonzero a = (a_0, a_1) lifts a circuit z flat exactly when a_0 + a_1 s_z = 0.
Turning a once around the origin from e_0 = (1, 0) crosses the line
a_0 + a_1 s = 0 twice for each distinct sum s, in increasing order of s both
times.  Between two crossings S(a) is one coherent triangulation, and on a
crossing S(a) is an edge of the polygon.  `fiber_face_poset` groups the
circuits by sum and walks this turn with `subdiv.circuit_turn`:

* The start.  S(e_0) is the placing triangulation in the order 1..n.  At
  e_0 the row of a circuit signed positive at its last point is
  (-1)^(2d+2) = +1, so each point p lies strictly above the hyperplane
  lifted through any d+1 points before it.  The lower hull of the points
  1..p therefore keeps every cell of the points 1..p-1 and joins p to the
  boundary walls it sees, which is placing p.  `subdiv.triangulate_cell`
  reads these lower facets off their signs.  A test pins this start for
  3 <= n <= 9.
* The crossing.  On the line, where a_1 != 0, a flat cell holds at most
  d + 2 points: two (d+2)-subsets of d + 3 points differ in one point, so
  their sums differ.  Let T be S(a) just before the line.  S(a) on the line
  is refined by T, so its non-simplex cells are circuits of sum s, each the
  union of one of its halves in T; and a circuit of sum s with a half in T
  is such a cell, since the simplices of its half lift into one hyperplane
  and so lie in one cell, which holds the circuit and no more.  A simplex
  and the sum fix a circuit, so these circuits share no cell and their
  flips commute: past the line S(a) is T with each of them flipped, and
  the edge is T with each flipped half merged into its circuit.
* The witnesses.  With s_0 < ... < s_(k-1) the sorted sums, the turn
  crosses the line of the group at position g of the doubled group list
  at (-s_g, 1) in its first half and at (s_(g-k), -1) in its second.  An
  edge met at g, which has a non-simplex cell, lies on that line and gets
  its crossing point.  The triangulation met before the flips at g is
  S(a) on the open sector between the lines g - 1 (cyclically) and g, so
  it gets the sum of their crossing points: two points less than a
  half-turn apart add up to one strictly between them.  At g = 0 and
  g = k the sum is a positive multiple of e_0 and of -e_0, since n > d + 2
  points have at least two sums.  No LP is solved: `lp.verify` checks
  each a on the a-system of its element, which the table validates as it
  builds it, and only then are the heights of a kept as the witness.
* The checks.  The turn must end where it started, and every subdivision
  it meets must be in the census and hold the point of the turn as a
  witness; SolverError is raised otherwise.  Every other proper element is
  incoherent, since the turn meets S(a) for every a != 0; that verdict
  rests on the closed turn, and the element gets None in
  `FiberReport.verdicts`.  The LP runs only for its certificate, which
  only `fiber --certify` prints, computed on first read of
  `FiberReport.results`.

The independent oracle `regular_subdivision_from_heights` computes the lower
hull of a lifted configuration directly and never touches the LP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm, prod
from operator import add
from typing import Callable, Iterable, Sequence

from . import lp
from .cyclic import ParamVector, as_face, enumerate_facets, gale_evenness_is_face, standard_params
from .gale import circuit_coeffs, dependence_basis, unique_dependence_coeffs
from .linalg import Vector, echelon, primitive_ints, vec
from .subdiv import BauesPoset, Cell, Subdivision, cell_walls, circuit_turn, enumerate_baues_poset

ZERO = Fraction(0)

Key = tuple[Cell, int]  # a sorted circuit z and the index k of its positive point


def _above(base: Cell, j: int) -> Key:
    """Point j strictly above the hyperplane lifted through `base`.

    The circuit base + j, signed positive at j.  Across a wall w between the
    cells w + u and w + v, the strict fold is (w + u, v).
    """
    z = tuple(sorted(base + (j,)))
    return z, z.index(j)


# ---------------------------------------------------------------------------
# circuit rows and the one skeleton builder
# ---------------------------------------------------------------------------


class _Rows:
    """The signed circuit rows of one realization in one encoding, memoized.

    `row(z, k)` is held under (z, k % 2), since the signs of a circuit
    alternate, and `fold(w, u, v)` under the wall and its two apexes.  Each
    encoding makes a missing row with its `_make(z, k)`.
    """

    dim: int

    def __init__(self):
        self.rows: dict[Key, Vector] = {}
        self.folds: dict[tuple[Cell, int, int], Vector] = {}

    def row(self, z: Cell, k: int) -> Vector:
        """The row of the sorted circuit z, signed positive at z[k]."""
        row = self.rows.get((z, k % 2))
        if row is None:
            row = self.rows[z, k % 2] = self._make(z, k)
        return row

    def fold(self, w: Cell, u: int, v: int) -> Vector:
        """The strict fold across the wall w between the cells w + u and w + v."""
        row = self.folds.get((w, u, v))
        if row is None:
            row = self.folds[w, u, v] = self.row(*_above(w + (u,), v))
        return row


class _CellTable:
    """Numbered cells of C(n,d), each with its walls and its coplanarity circuits.

    The table is combinatorial: it holds vertex tuples, among them the
    facets of C(n,d) as one set, and no row.
    `system` builds the strict system of a subdivision from the ids of its
    cells, which must be sorted, full-dimensional and in sorted order, and
    the rows of one realization.
    """

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.ids: dict[Cell, int] = {}
        self.cells: list[Cell] = []
        self.walls: list[tuple[tuple[Cell, int, int], ...]] = []  # (wall, apex, side) per cell id
        self.inner: list[int] = []  # how many of the walls are no faces of C(n,d)
        self.coplanar: list[tuple[Cell, ...]] = []  # base + (v,) for each further vertex v
        self.masks: list[int] = []  # bit v set for each vertex v
        self.every = sum(1 << v for v in range(1, n + 1))
        self.facets = frozenset(enumerate_facets(n, d))

    def number(self, cells: Iterable[Cell]) -> list[int]:
        """The ids of the cells, numbering each new one.

        Each wall of a cell comes with its apex, the least vertex of the
        cell off it, and its side, the parity of the wall's vertices above
        the apex.
        """
        out = []
        for c in cells:
            i = self.ids.get(c)
            if i is None:
                i = self.ids[c] = len(self.cells)
                base = c[: self.d + 1]
                self.cells.append(c)
                walls = []
                for w in cell_walls(c, self.d):
                    apex = min(v for v in c if v not in w)
                    walls.append((w, apex, sum(g > apex for g in w) % 2))
                self.walls.append(tuple(walls))
                self.inner.append(sum(w not in self.facets for w, _, _ in walls))
                self.coplanar.append(tuple(base + (v,) for v in c[self.d + 1 :]))
                self.masks.append(sum(1 << v for v in c))
            out.append(i)
        return out

    def shape(
        self, ids: Sequence[int]
    ) -> tuple[list[tuple[Cell, int, int]], list[tuple[Cell, int]]]:
        """The strict keys of the system: (wall, apex, apex) and (base, point).

        The interior walls come sorted, each with the apexes of its two
        cells in the order of `ids`; for d = 1 each point in no cell comes
        with the base of the first cell whose ends it lies between.  Raises
        ValueError when the cells are no subdivision the system can
        describe, naming the first bad wall in sorted order: a wall in three
        cells, one in a single cell that is no face of C(n,d), or one whose
        two cells lie on the same side of it.

        A point p lies on the side of aff(W) given by the sign of
        prod_(g in W) (t_p - t_g), up to a sign fixed by the wall W, and for
        increasing parameters that sign is (-1)^#{g in W : g > p}.  So the
        apexes u < v of W lie on opposite sides of aff(W) exactly when an
        odd number of W's vertices lie strictly between them, that is when
        the sides of the two cells, the parities of the wall's vertices
        above u and above v, differ.
        A face of C(n,d) has all of C(n,d) on one side, so when the sides of
        every paired wall differ, no paired wall is a face.  Then every wall
        that is no face lies in two cells exactly when the cells count
        twice as many incidences of such walls as there are paired walls.
        """
        ends: dict[Cell, tuple[Cell, int, int]] = {}  # wall -> its entry in its first cell
        folds: dict[Cell, tuple[int, int]] = {}  # wall -> both apexes
        incidences = inner = covered = 0
        opposite = 1  # stays 1 while the two cells of every wall have different sides
        for i in ids:
            walls = self.walls[i]
            incidences += len(walls)
            inner += self.inner[i]
            covered |= self.masks[i]
            for entry in walls:  # (wall, apex, side)
                w = entry[0]
                first = ends.get(w)
                if first is None:
                    ends[w] = entry
                else:
                    folds[w] = (first[1], entry[1])
                    opposite &= first[2] ^ entry[2]
        # valid when the two cells of each paired wall lie on opposite sides
        # of it, no wall lies in three cells and every wall that is no face
        # of C(n,d) lies in two
        if not opposite or incidences != len(ends) + len(folds) or inner != 2 * len(folds):
            self._reject(ids)
        walls = [(w, *folds[w]) for w in sorted(folds)]
        points = []
        if covered != self.every:  # only for d = 1: a point need not be a vertex
            # the cells are one chain of segments from 1 to n (module docstring)
            cells = [self.cells[i] for i in ids]
            for j in range(1, self.n + 1):
                if not covered >> j & 1:
                    c = next(c for c in cells if c[0] < j < c[-1])
                    points.append((c[: self.d + 1], j))
        return walls, points

    def system(self, ids: Sequence[int], rows: _Rows) -> lp.StrictSystem:
        """The strict wall folds and lifted points, and the coplanarity
        equalities, in the rows of one realization and encoding.

        Raises ValueError when the cells are no subdivision the system can
        describe.
        """
        walls, points = self.shape(ids)
        strict = [rows.fold(*key) for key in walls]
        strict.extend(rows.row(*_above(base, j)) for base, j in points)
        eqs = tuple(rows.row(z, 0) for i in ids for z in self.coplanar[i])
        return lp.StrictSystem(tuple(strict), eqs, rows.dim)

    def _reject(self, ids: Sequence[int]):
        """Raise the ValueError for the first bad wall in sorted order."""
        sides: dict[Cell, list[int]] = {}
        for i in ids:
            for w, _, side in self.walls[i]:
                sides.setdefault(w, []).append(side)
        for w in sorted(sides):
            count = len(sides[w])
            if count > 2:
                raise ValueError(f"wall {w} lies in {count} cells")
            if count == 1 and w not in self.facets:
                raise ValueError(f"wall {w} is neither interior nor boundary")
            if count == 2 and sides[w][0] == sides[w][1]:
                raise ValueError(f"the two cells of wall {w} lie on one side of it")
        raise RuntimeError("the wall check rejected a valid subdivision")


@lru_cache(maxsize=32)
def _cell_table(n: int, d: int) -> _CellTable:
    return _CellTable(n, d)


def _numbered(
    cells: Iterable[Iterable[int]], pv: ParamVector, d_prime: int | None = None
) -> tuple[_CellTable, list[int]]:
    """The cell table of C(n,d) and the ids of the validated cells, in sorted order.

    The cells, at least one, are canonicalized and checked to be distinct
    and full-dimensional and, when d' is given, to be faces of C(n,d') or the
    whole vertex set.  A tuple that the table has numbered already is
    canonical and is kept as it is.
    """
    n, d = pv.n, pv.d
    if d_prime is not None and not d < d_prime < n:
        raise ValueError("need d < d' < n")
    table = _cell_table(n, d)
    out = sorted(c if type(c) is tuple and c in table.ids else as_face(c, n) for c in cells)
    if not out:
        raise ValueError("no cells")
    if len(set(out)) != len(out):
        raise ValueError("repeated cells")
    for c in out:
        if len(c) <= d:
            raise ValueError(f"cell {c} is lower-dimensional (needs > d = {d} vertices)")
    if d_prime is not None:
        for c in out:
            if len(c) < n and not gale_evenness_is_face(c, n, d_prime):
                raise ValueError(f"not pi-induced: cell {c} is a non-face of C({n},{d_prime})")
    return table, table.number(out)


# ---------------------------------------------------------------------------
# the decision, in a-coordinates
# ---------------------------------------------------------------------------


class _Coordinates(_Rows):
    """The a-coordinates of one realization and d': scaled parameters and rows."""

    def __init__(self, pv: ParamVector, d_prime: int):
        super().__init__()
        scale = lcm(*(x.denominator for x in pv.t))
        self.lt = [int(x * scale) for x in pv.t]
        self.d = pv.d
        self.dim = d_prime - pv.d
        # powers[m][i] = omega(x_i) h_m(x_1..x_(d+1), x_i) at x = L t, the heights
        # x_i^(d+1+m) of the unit vector a = e_m less their interpolant at x_1..x_(d+1)
        first = self.lt[: pv.d + 1]
        base = self._h(first)
        by_point = [[prod(x - y for y in first) * h for h in self._h([x], base)] for x in self.lt]
        self.powers = [list(column) for column in zip(*by_point)]

    def _h(self, xs: Sequence[int], h: list[int] | None = None) -> list[int]:
        """(h_0, ..., h_(D-1)) at xs, or at the points of h together with xs.

        Adding a point x updates h_m to h_m + x h_(m-1), the new h_(m-1).
        """
        h = list(h or [1] + [0] * (self.dim - 1))
        for x in xs:
            for m in range(1, self.dim):
                h[m] += x * h[m - 1]
        return h[: self.dim]

    def _make(self, z: Cell, k: int) -> tuple[int, ...]:
        """(-1)^(k+d+1) (h_0, ..., h_(D-1)) at L t_z."""
        h = self._h([self.lt[i - 1] for i in z])
        if (k + self.d) % 2 == 0:
            h = [-v for v in h]
        return tuple(h)

    def heights(self, a: Sequence[int]) -> tuple[int, ...]:
        """w_i = sum_m a_m powers[m][i] as coprime integers."""
        w = [0] * len(self.lt)
        for am, column in zip(a, self.powers):
            if am:
                w = [wi + am * p for wi, p in zip(w, column)]
        return tuple(primitive_ints(w)[0])


@lru_cache(maxsize=64)
def _coordinates(pv: ParamVector, d_prime: int) -> _Coordinates:
    return _Coordinates(pv, d_prime)


def _flag(system: lp.StrictSystem, rows: _Coordinates) -> lp.FeasibilityResult:
    """Heights of degree at most d' inducing the subdivision, or a certificate.

    `system` is built in `rows`, the a-coordinates of one realization and d'.
    """
    res = lp.solve_strict(system)
    if isinstance(res, lp.Witness):
        return lp.Witness(rows.heights(res.x))
    return res


def is_regular(cells: Iterable[Iterable[int]], pv: ParamVector) -> lp.FeasibilityResult:
    """Witness heights or a Farkas certificate of non-regularity."""
    table, ids = _numbered(cells, pv)
    rows = _coordinates(pv, pv.n - 1)
    return _flag(table.system(ids, rows), rows)


def is_pi_coherent(
    cells: Iterable[Iterable[int]], pv: ParamVector, d_prime: int
) -> lp.FeasibilityResult:
    """Heights of degree at most d' inducing the subdivision, or a certificate."""
    table, ids = _numbered(cells, pv, d_prime)
    rows = _coordinates(pv, d_prime)
    return _flag(table.system(ids, rows), rows)


# ---------------------------------------------------------------------------
# the same systems in Q^n, for printing and outside checks
# ---------------------------------------------------------------------------


class _Scattered(_Rows):
    """The circuit rows of one realization, scattered into Q^n."""

    def __init__(self, pv: ParamVector):
        super().__init__()
        self.pv = pv
        self.dim = pv.n

    def _make(self, z: Cell, k: int) -> Vector:
        coeffs = circuit_coeffs(self.pv, z)
        if coeffs[k] < 0:
            coeffs = tuple(-c for c in coeffs)
        full = [ZERO] * self.pv.n
        for i, cf in zip(z, coeffs):
            full[i - 1] = cf
        return tuple(full)


@lru_cache(maxsize=64)
def _scattered(pv: ParamVector) -> _Scattered:
    return _Scattered(pv)


def regularity_system(cells: Iterable[Iterable[int]], pv: ParamVector) -> lp.StrictSystem:
    """Strict system over heights w in Q^n whose witnesses induce the subdivision."""
    table, ids = _numbered(cells, pv)
    return table.system(ids, _scattered(pv))


def pi_coherence_system(
    cells: Iterable[Iterable[int]], pv: ParamVector, d_prime: int
) -> lp.StrictSystem:
    """Regularity system plus one equality per affine dependence upstairs."""
    table, ids = _numbered(cells, pv, d_prime)
    base = table.system(ids, _scattered(pv))
    kernel_rows = dependence_basis(pv.with_dimension(d_prime))
    return lp.StrictSystem(base.strict, base.equalities + kernel_rows, pv.n)


# ---------------------------------------------------------------------------
# the independent lower-hull oracle
# ---------------------------------------------------------------------------


def regular_subdivision_from_heights(pv: ParamVector, w: Sequence) -> Subdivision:
    """Lower-hull cells of the lifted configuration {(q_i, w_i)}, exactly.

    For every affinely spanning (d+1)-subset, solve for the affine function
    interpolating the lifted points; when every other point lies weakly above,
    the equality set is a lower-hull cell.  The work is in integers: t is
    scaled by the lcm of its denominators, an invertible change of the
    affine functions, and w by the lcm of its own, a positive factor on every
    comparison.  `linalg.echelon` of the base rows (1, x, ..., x^d, w) holds
    den times the affine function in its last column, so a point lies weakly
    above when its height times den is at least its value there.  The rows
    come in increasing x and need no swap, so den is their Vandermonde
    determinant, which is positive.
    """
    n, d = pv.n, pv.d
    w = vec(w)
    if len(w) != n:
        raise ValueError("height vector length != n")
    tden = lcm(*(t.denominator for t in pv.t))
    wden = lcm(*(h.denominator for h in w))
    points = [[(t.numerator * (tden // t.denominator)) ** k for k in range(d + 1)] for t in pv.t]
    heights = [h.numerator * (wden // h.denominator) for h in w]
    cells: set[Cell] = set()
    for base in combinations(range(n), d + 1):
        m, _, den = echelon([points[i] + [heights[i]] for i in base])
        affine = [row[d + 1] for row in m]
        gaps = [den * h - sum(a * b for a, b in zip(p, affine)) for p, h in zip(points, heights)]
        if min(gaps) >= 0:
            cells.add(tuple(i + 1 for i, g in enumerate(gaps) if g == 0))
    return Subdivision.make(cells, n, d)


# ---------------------------------------------------------------------------
# fiber polytope face posets
# ---------------------------------------------------------------------------


@dataclass
class FiberReport:
    """Coherence flags over a Baues poset at one parameter vector.

    `verdicts` holds per element a Witness or a Certificate, or None: for
    the trivial subdivision and, when d' - d = 2, for every proper element
    that the circuit turn does not meet, which is incoherent (module
    docstring).  When d' - d = 2 each witness is a point of the turn that
    `lp.verify` checked, and the LP has run for no element; `results`
    holds the LP's certificates of the others too.
    """

    poset: BauesPoset
    pv: ParamVector
    verdicts: list[lp.FeasibilityResult | None]

    @cached_property
    def results(self) -> list[lp.FeasibilityResult | None]:
        """The verdicts, with the LP's Farkas certificate of every proper
        element without one, computed on first read.

        Raises SolverError when the LP solves such an element.
        """
        table, rows = _cell_table(self.pv.n, self.pv.d), _coordinates(self.pv, self.poset.d_prime)
        out = []
        for s, res in zip(self.poset.elements, self.verdicts):
            if res is None and not s.is_trivial:
                res = _flag(table.system(table.number(s.cells), rows), rows)
                if isinstance(res, lp.Witness):
                    raise lp.SolverError(f"the LP solves {s}, which the circuit turn does not meet")
            out.append(res)
        return out

    @property
    def coherent_indices(self) -> list[int]:
        return [
            i
            for i, (s, r) in enumerate(zip(self.poset.elements, self.verdicts))
            if not s.is_trivial and isinstance(r, lp.Witness)
        ]

    def coherent_counts_by_ranking(self) -> Counter[int]:
        return Counter(self.poset.elements[i].ranking() for i in self.coherent_indices)

    def coherent_f_vector(self) -> tuple[int, int]:
        """(#minimal coherent elements, #non-minimal proper coherent elements).

        For d' - d = 2 these are the vertex and edge counts of the fiber
        polygon.  The minimal coherent elements are the coherent ones of
        ranking 0, the coherent triangulations, so no order is built:

        * A triangulation has nothing strictly below it: a full-dimensional
          cell inside a (d+1)-vertex cell is that cell.
        * A coherent s with a non-simplex cell is not minimal.  Its witness
          a satisfies a nonzero equality, because every a-row is
          +-(1, h_1, ...).  Heights near those of a induce a refinement of
          s, and a generic a' near a avoids every circuit hyperplane, so no
          d+2 points lift onto one hyperplane and S(a') is a triangulation.
          It is a coherent triangulation that refines S(a) = s; it is
          pi-induced, so it is in the census, and flagged coherent.
        """
        counts = self.coherent_counts_by_ranking()
        minimal = counts.get(0, 0)
        return minimal, sum(counts.values()) - minimal

    def polygon_name(self) -> str | None:
        """The polygon's name, such as "14-gon", if the fiber polytope is one."""
        if self.poset.d_prime - self.poset.d != 2:
            return None
        v, e = self.coherent_f_vector()
        if v != e:
            return None
        return f"{v}-gon"


def fiber_face_poset(
    n: int, d: int, d_prime: int, pv: ParamVector | None = None
) -> FiberReport:
    """Baues poset with each proper element flagged coherent/incoherent.

    The LP decides each proper element, except when d' - d = 2: then the
    circuit turn, which crosses the circuit sums in increasing order, twice,
    gives each element it meets a point a of the a-plane, `lp.verify`
    checks it on the element's system, and the heights of a are the
    witness.  No LP is solved, and the other proper elements get no verdict
    (module docstring).  Raises SolverError when the turn meets a
    subdivision that is not in the census or that its point does not
    induce.
    """
    pv = pv or standard_params(n, d)
    if pv.d != d or pv.n != n:
        raise ValueError("parameter vector does not match (n, d)")
    poset = enumerate_baues_poset(n, d, d_prime)
    # the census hands out full-dimensional, sorted cells in sorted order,
    # all of them faces of C(n,d') and so pi-induced
    table, rows = _cell_table(n, d), _coordinates(pv, d_prime)
    verdicts: list[lp.FeasibilityResult | None] = [None] * len(poset.elements)
    if d_prime - d != 2:
        for i, s in enumerate(poset.elements):
            if not s.is_trivial:
                verdicts[i] = _flag(table.system(table.number(s.cells), rows), rows)
        return FiberReport(poset, pv, verdicts)
    by_sum: dict[int, list[int]] = {}
    for i, z in enumerate(combinations(range(1, n + 1), d + 2)):
        by_sum.setdefault(sum(rows.lt[v - 1] for v in z), []).append(i)
    sums = sorted(by_sum)
    crossing = [(-v, 1) for v in sums] + [(v, -1) for v in sums]  # the line at each position
    index = {s: i for i, s in enumerate(poset.elements)}
    for g, s in circuit_turn(n, d, [by_sum[v] for v in sums]):
        i = index.get(s)
        if i is None:
            raise lp.SolverError(f"the circuit turn meets {s}, which is not in the census")
        # an edge lies on its crossing line, a triangulation between the line
        # before it and its own
        a = crossing[g] if s.ranking() else tuple(map(add, crossing[g - 1], crossing[g]))
        if not lp.verify(table.system(table.number(s.cells), rows), lp.Witness(a)):
            raise lp.SolverError(f"the point {a} of the circuit turn does not induce {s}")
        verdicts[i] = lp.Witness(rows.heights(a))
    return FiberReport(poset, pv, verdicts)


# ---------------------------------------------------------------------------
# parameter scans along the n = d'+2 family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSample:
    pv: ParamVector
    coherent: bool
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
        ratio = None
        if pv.n == d_prime + 2:
            dep = unique_dependence_coeffs(pv.with_dimension(d_prime))
            ratio = abs(dep[3]) / abs(dep[2])
        out.append(ScanSample(pv, isinstance(res, lp.Witness), ratio))
    return out


def find_coherent_on_path(
    cells: Iterable[Iterable[int]],
    d_prime: int,
    path: Callable[[Fraction], ParamVector],
    lo: Fraction,
    hi: Fraction,
) -> ParamVector | tuple[Fraction, Fraction]:
    """Bisect c3 + c4 along a rational path of parameter vectors.

    Returns the first sample where the decisive quantity vanishes (an exactly
    coherent parameter vector for the two-polygon subdivision), or the final
    sign-change bracket if no exact zero is hit within 64 steps.
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
    for _ in range(64):
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
