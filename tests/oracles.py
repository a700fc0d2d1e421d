"""Slow reference implementations that the library's fast paths are tested against.

The cell-compatibility oracles decide geometric conditions with an exact
mixed LP instead of the alternating circuits of C(n,d), so they depend on
nothing the combinatorial versions assume.  That LP is the slack-maximizing
Fraction simplex the library used before its integer kernel, kept here as the
reference for the kernel's differential tests.  The Fraction Gauss-Jordan
elimination that `linalg` used before its fraction-free routine is the
reference for the `linalg` differential tests.  The flips on frozensets
of cell tuples, which the library used before it moved to cell bitmasks,
are the reference for `bistellar_flips`.  The breadth-first bitmask closure
that rescanned every cell of each triangulation for its flips, before the
library carried its flippable circuits and then replaced the closure by a
reverse search, is the reference for the masks and the degree sum of that
search, and the parent of a triangulation, read off its cells with each
circuit's halves oriented by geometric placing, for its tree.  The
reverse search that tested every increasing flip of a triangulation as a
child, before the search skipped the flips that cannot be children, is
the reference for the stream of that search.  The
placing triangulation built by inserting the points one at a time, each
joined to the boundary walls it sees by the signs of products of parameter
differences at a realization (`place_point`), is the reference for the
placing differential tests, where the library reads the lower facets of the
lifted cell off a parity rule, and seeds the reference flip search.  Facet
orientation and rank are likewise read off a realization here, for the
tests of the combinatorial face classification.
The subdivision census that the library ran type by type, over integer
partitions and ranking levels, with its Baues posets filtered afterwards by
`is_pi_induced` and the polygon dissections for d = 2, is the reference for
the census differential tests.  The chain enumerator that composed cellular
strings from boundary faces of C(n,d), before strings became the Baues
poset of C(n,d) -> C(n,1), is the reference for the string tests.  The
circuit dependence computed on every call, before `gale` kept one circuit
table per realization, is the reference for the table tests, and the
witness check in Fraction dot products, before `lp.verify` checked integer
witnesses in integers, is the reference for the verification tests.  The
Baues order that a poset read pair by pair from `refines`,
before it kept below-sets on cell bitsets, is the reference for the order
tests: the chain-count oracle gives the Euler characteristic of an order
complex from its chains counted by length, and the pairwise-minimal oracle
finds minimal elements by comparing every pair.  The path system that
lifted every vertex off a path edge above that edge's line, with the
trivial equality f_direction = 0, before the walls system of a path, is the
reference for the general-polytope path tests, and the vertex test as a
mixed system in convex-combination weights, before it became a strict
system in the dimension of the polytope, is the reference for the vertex
checks.  The edge test with its equality row c . (u - v) = 0 in the
polytope's own rational coordinates, before the equality was projected out
and the rows were built from integer coordinates, is the reference for the
edge tests.  The lower hull read off one `fraction_solve` per base, before
it was computed in integers, is the reference for the lower-hull tests; it
shares no elimination with the code it checks.  The per-element decision
that re-validated and re-sorted each subdivision's cells, sorted each fold
circuit and looked up its rows by circuit key, before the flagging built its
systems from numbered cells and memoized fold rows, is the reference for the
flagging tests.  The plane test that decided each system of a fiber
polygon (d' = d + 2) on a line, before the circuit turn found the coherent
elements, is kept as an LP-free decision of those systems for the kernel's
tests.  The point-above-cell formulation, one strict row per cell
and point outside it, is the reference for the walls system.  The volume
and validity checks of triangulations and subdivisions at a realization,
which the combinatorial layer never needs, are the ground truth of the
validity tests.  The Baues order that walked, for each element, every cell
outside U(t) and removed the elements holding it, before candidates came
from filters, is the reference for every order test; `leq` reads it.  The
candidate filter that the library ran, before its minimal coherent
elements became the coherent elements of ranking 0, is kept beside it and
compared with it.  The phase-1 kernel that pivoted a full tableau, basic
columns included, before the tableau kept only the nonbasic columns, is
the reference for the kernel's differential tests.

The helpers at the end are code that several test modules call and the
library does not: simplex volumes, subconfiguration parameters, the
upper/lower face classification, the pi-induced and triangulation tests, the
Baues order and the sign-vector order pair by pair, placing one more point,
the single-element lifting of heights, moment points and Fraction dot
products.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from cyclicfiber import coherence, lp
from cyclicfiber.cyclic import (
    ParamVector,
    _blocks,
    as_face,
    enumerate_faces,
    enumerate_facets,
    gale_evenness_is_face,
    homogenized_matrix,
    standard_params,
)
from cyclicfiber.linalg import nullspace, primitive_ints, rank, vec
from cyclicfiber.paths import NULL
from cyclicfiber.subdiv import (
    BauesPoset,
    _bits,
    _encode,
    _flip_table,
    _present,
    Subdivision,
    cell_walls,
    cells_compatible,
    enumerate_baues_poset,
    enumerate_triangulations,
    placing_triangulation,
    subconfig_face,
    triangulate_cell,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with leftmost pivoting, in Fraction arithmetic."""
    m = [[Fraction(x) for x in row] for row in rows]
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


def fraction_nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """The canonical nullspace basis of `linalg.nullspace`, from `fraction_rref`.

    Each free variable is set to 1 in turn, the pivot variables are read off
    the RREF, and the vector is scaled to coprime integers with a positive
    leading entry.
    """
    red, pivots = fraction_rref(rows) if rows else ([], [])
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fcol] = ONE
        for prow, pcol in enumerate(pivots):
            v[pcol] = -red[prow][fcol]
        basis.append(primitive(v))
    return basis


def primitive(v) -> tuple[int, ...]:
    """A rational vector scaled to coprime integers with positive leading entry."""
    v = vec(v)
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) or 1
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return tuple(x // g for x in ints)


def fraction_solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """The solution of a square system by `fraction_rref`, or None when singular."""
    n = len(rows)
    red, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(red[i][n] for i in range(n))


def reference_circuit_coeffs(pv: ParamVector, subset) -> tuple[Fraction, ...]:
    """Affine dependence of the d+2 moment points indexed by `subset`, computed anew."""
    idx = sorted(subset)
    if len(idx) != pv.d + 2:
        raise ValueError(f"a circuit of C(n,{pv.d}) has {pv.d + 2} elements")
    coeffs = []
    for i in idx:
        c = Fraction(1)
        for j in idx:
            if j != i:
                c /= pv.param(j) - pv.param(i)
        coeffs.append(c)
    return tuple(coeffs)


def fraction_verify_witness(system: lp.StrictSystem, x) -> bool:
    """Does x satisfy every row of the system?  Decided by Fraction dot products."""
    return all(dot(r, x) > 0 for r in system.strict) and all(
        dot(r, x) == 0 for r in system.equalities
    )


def slack_solve_strict(system: lp.StrictSystem) -> bool:
    """Does the strict system have a witness?  Decided by the slack simplex."""
    if not system.strict:
        return True
    basis = nullspace(system.equalities, system.dimension)
    reduced = [tuple(dot(a, b) for b in basis) for a in system.strict]
    if any(all(v == 0 for v in row) for row in reduced):
        return False
    value, _, _ = _max_slack(reduced)
    return value > 0


def reference_gordan_phase1(rows: list[list[int]]):
    """`lp._gordan_phase1` on the full integer tableau, basic columns included."""
    m, r = len(rows), len(rows[0])
    rhs = m + r + 1
    tab = [[row[k] for row in rows] + [int(j == k) for j in range(r + 1)] + [0] for k in range(r)]
    tab.append([1] * m + [0] * r + [1, 1])
    tab.append([-1 - sum(row) for row in rows] + [0] * (r + 1) + [-1])
    basis = list(range(m, m + r + 1))
    det = 1
    while True:
        obj = tab[-1]
        enter = next((j for j in range(m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(r + 1):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tab[i][rhs] * tab[leave][enter]
                best = tab[leave][rhs] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise lp.SolverError("unbounded phase 1, whose objective is bounded below by 0")
        prow = tab[leave]
        piv = prow[enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                tab[i] = [(a * piv - f * b) // det for a, b in zip(row, prow)]
        det = piv
        basis[leave] = enter
    obj = tab[-1]
    if obj[rhs] == 0:
        y = [0] * m
        for i, b in enumerate(basis):
            if b < m:
                y[b] = tab[i][rhs]
        return None, y
    return [obj[m + k] - det for k in range(r)], None


def every_row_solve_strict(system: lp.StrictSystem) -> lp.FeasibilityResult:
    """`lp.solve_strict` with one phase-1 column per strict row, copies included."""
    dim = system.dimension
    if not system.strict:
        return lp.Witness((0,) * dim)
    basis = lp._equality_basis(system.equalities, dim)
    reduced, scale = [], []
    for i, row in enumerate(system.strict):
        ints, s = lp._reduce(row, basis)
        if not any(ints):
            return lp.Certificate(tuple(int(j == i) for j in range(len(system.strict))))
        reduced.append(list(ints))
        scale.append(s)
    x, y = lp._gordan_phase1(reduced)
    if x is not None:
        return lp.Witness(lp._lift(x, basis, dim))
    den = lcm(*(q for _, q in scale))
    y = [v * p * (den // q) for v, (p, q) in zip(y, scale)]
    return lp.Certificate(tuple(primitive_ints(y)[0]))


def slack_feasible(strict, nonneg, equalities, dimension):
    """Witness for {strict > 0, nonneg >= 0, eq = 0}, or None, by the slack simplex."""
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
        raise lp.SolverError("mixed witness violates a strict row")
    if not all(dot(r, x) >= 0 for r in nonneg_rows):
        raise lp.SolverError("mixed witness violates a nonnegative row")
    if not all(dot(r, x) == 0 for r in eq_rows):
        raise lp.SolverError("mixed witness violates an equality row")
    return tuple(x)


def _max_slack(strict_rows, nonneg_rows=()):
    """max eps s.t. strict.u >= eps, nonneg.u >= 0, eps <= 1, u free.

    Free variables are split as u = u+ - u-.  Returns (eps*, z, duals) where
    z = (u+, u-, eps) and duals has one entry per constraint row in order
    (strict rows, nonneg rows, the eps <= 1 bound).
    """
    k = len(strict_rows[0]) if strict_rows else 0
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
            raise lp.SolverError("unbounded slack LP; the formulation bounds eps <= 1")
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


def _weight_outside(c, w, pv: ParamVector) -> bool:
    """Is there a point of conv(c) n conv(w) with positive weight on c - w?

    Searches for lambda >= 0 on c and mu >= 0 on w with the same homogenized
    image and sum of lambda outside w positive.
    """
    dim = len(c) + len(w)
    homog = lambda i: [Fraction(1)] + [pv.param(i) ** k for k in range(1, pv.d + 1)]
    eqs = []
    for coord in range(pv.d + 1):
        eqs.append(tuple(homog(i)[coord] for i in c) + tuple(-homog(j)[coord] for j in w))
    nonneg = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    outside = tuple(Fraction(int(i not in w)) for i in c) + (Fraction(0),) * len(w)
    return slack_feasible([outside], nonneg, eqs, dim) is not None


def lp_cells_compatible(a, b, pv: ParamVector) -> bool:
    """`subdiv.cells_compatible` decided by the mixed LP, without circuits."""
    a = as_face(a, pv.n)
    b = as_face(b, pv.n)
    shared = tuple(sorted(set(a) & set(b)))
    if set(a) <= set(b) or set(b) <= set(a):
        return False
    if pv.param(a[-1]) < pv.param(b[0]) or pv.param(b[-1]) < pv.param(a[0]):
        return True  # hulls live over disjoint parameter ranges
    if shared:
        if not subconfig_face(shared, a, pv.d) or not subconfig_face(shared, b, pv.d):
            return False
    # a common point of the hulls that puts weight on a outside the shared
    # face shows conv(a) n conv(b) != conv(shared)
    return not _weight_outside(a, b, pv)


def pi_compatibility_holds(sub: Subdivision, pv: ParamVector, d_prime: int) -> bool:
    """Literal fiber-compatibility condition on the face family, exactly.

    For every cell c and every face w of the subdivision complex inside c,
    no point of the upstairs face over c may project into conv(w) while
    carrying weight outside w.  Faces of cyclic polytopes are simplices with
    unique barycentric coordinates, which reduces the condition to a strict
    feasibility question downstairs.
    """
    faces: set = set()
    for c in sub.cells:
        if len(c) == sub.n:
            return True  # trivial subdivision: nothing to check
        for k in range(1, min(len(c), pv.d) + 1):
            for w in combinations(c, k):
                if subconfig_face(w, c, pv.d):
                    faces.add(w)
    for c in sub.cells:
        for w in faces:
            if set(w) <= set(c) and _weight_outside(c, w, pv):
                return False
    return True


@lru_cache(maxsize=16)
def _circuit_triangulations(n: int, d: int):
    """For each (d+2)-subset, the two triangulations of the circuit.

    The affine dependence alternates sign along the sorted subset, so the
    positive part sits at even positions and the negative at odd ones (0-based).
    A side's triangulation drops one element of that side from the subset.
    """
    out = []
    for z in combinations(range(1, n + 1), d + 2):
        plus = frozenset(z[:i] + z[i + 1 :] for i in range(0, d + 2, 2))
        minus = frozenset(z[:i] + z[i + 1 :] for i in range(1, d + 2, 2))
        out.append((plus, minus))
    return tuple(out)


def reference_bistellar_flips(tri, n: int, d: int) -> list[frozenset]:
    """`subdiv.bistellar_flips` on frozensets of cell tuples."""
    tri = frozenset(tuple(sorted(c)) for c in tri)
    out = []
    for plus, minus in _circuit_triangulations(n, d):
        if plus <= tri:
            out.append(tri - plus | minus)
        elif minus <= tri:
            out.append(tri - minus | plus)
    return out


@lru_cache(maxsize=16)
def _oriented_circuits(n: int, d: int):
    """For each (d+2)-subset z, (lower, upper): its two triangulations, the
    lower one the placing triangulation of z in increasing order, read off
    C(d+2, d) at t = 1..d+2 by `geometric_placing_triangulation`."""
    lower = geometric_placing_triangulation(standard_params(d + 2, d))
    out = []
    for z, halves in zip(combinations(range(1, n + 1), d + 2), _circuit_triangulations(n, d)):
        relabelled = frozenset(tuple(z[i - 1] for i in c) for c in lower)
        assert relabelled in halves, z
        out.append(halves if relabelled == halves[0] else halves[::-1])
    return tuple(out)


def reverse_search_parent(tri: frozenset, n: int, d: int) -> frozenset | None:
    """tri flipped from the upper to the lower half of its lowest circuit whose
    upper half it holds, or None when it holds no upper half."""
    for lower, upper in _oriented_circuits(n, d):
        if upper <= tri:
            return tri - upper | lower
    return None


def cell_param_sign(pv: ParamVector, wall, j: int) -> int:
    """Sign of prod_{g in wall}(t_j - t_g): which side of aff(wall) is j on."""
    val = Fraction(1)
    for g in wall:
        val *= pv.param(j) - pv.param(g)
    return (val > 0) - (val < 0)


def wall_owners(cells, d: int) -> dict:
    """Each wall -> the cells it bounds, walls and owners in the order of `cells`."""
    owners: dict = {}
    for c in cells:
        for w in cell_walls(c, d):
            owners.setdefault(w, []).append(c)
    return owners


def place_point(cells, pv: ParamVector, p: int) -> set:
    """The simplices `cells` with point p joined to every boundary wall it sees.

    p sees a wall W in one cell when p and the cell's apex lie on opposite
    sides of aff(W), by `cell_param_sign` on the realization pv.
    """
    out = set(cells)
    for wall, owners in wall_owners(cells, pv.d).items():
        if len(owners) == 1:
            apex = next(v for v in owners[0] if v not in wall)
            if cell_param_sign(pv, wall, p) == -cell_param_sign(pv, wall, apex):
                out.add(tuple(sorted(wall + (p,))))
    return out


def cell_volume(cell, pv: ParamVector) -> Fraction:
    """d!-scaled volume of conv(cell)."""
    return sum(
        (vandermonde_volume(s, pv) for s in triangulate_cell(cell, pv.n, pv.d)),
        Fraction(0),
    )


@lru_cache(maxsize=64)
def _total_volume_cached(n: int, d: int, t: tuple) -> Fraction:
    pv = ParamVector(n, d, t)
    return cell_volume(tuple(range(1, n + 1)), pv)


def total_volume(pv: ParamVector) -> Fraction:
    return _total_volume_cached(pv.n, pv.d, pv.t)


def is_valid_triangulation(tri, pv: ParamVector) -> bool:
    """Exact check: simplex cells, volume additivity, matching walls."""
    n, d = pv.n, pv.d
    cells = {tuple(sorted(c)) for c in tri}
    if not cells or any(len(c) != d + 1 for c in cells):
        return False
    vol = sum((vandermonde_volume(c, pv) for c in cells), Fraction(0))
    if vol != total_volume(pv):
        return False
    for wall, owners in wall_owners(cells, d).items():
        if len(owners) == 1:
            if not gale_evenness_is_face(wall, n, d):
                return False
        elif len(owners) == 2:
            a = next(v for v in owners[0] if v not in wall)
            b = next(v for v in owners[1] if v not in wall)
            if cell_param_sign(pv, wall, a) != -cell_param_sign(pv, wall, b):
                return False
        else:
            return False
    return True


def is_valid_subdivision(cells, pv: ParamVector) -> bool:
    """Exact validity: pairwise face-to-face cells covering C(n,d) once."""
    n, d = pv.n, pv.d
    cs = [as_face(c, n) for c in cells]
    if len(set(cs)) != len(cs) or not cs:
        return False
    for c in cs:
        if len(c) <= d:
            raise ValueError(f"cell {c} is lower-dimensional (needs > d = {d} vertices)")
    if sum((cell_volume(c, pv) for c in cs), Fraction(0)) != total_volume(pv):
        return False
    for x, y in combinations(cs, 2):
        if not cells_compatible(x, y, n, d):
            return False
    return True


def geometric_placing_triangulation(pv: ParamVector, order=None) -> frozenset:
    """The placing triangulation in `order` (default 1..n), with visibility
    read off the realization by `place_point`."""
    n, d = pv.n, pv.d
    order = list(order) if order is not None else list(range(1, n + 1))
    cells = {tuple(sorted(order[: d + 1]))}
    for p in order[d + 1 :]:
        cells = place_point(cells, pv, p)
    return frozenset(cells)


@lru_cache(maxsize=16)
def _rescan_heads(n: int, d: int):
    """(index, heads) of the rescan flip search: heads[k] lists (i, half,
    both) for every half of circuit i whose lowest cell is k, as masks over
    the lexicographic cell indices, both = the union of the two halves."""
    index = {c: k for k, c in enumerate(combinations(range(1, n + 1), d + 1))}
    heads = [[] for _ in index]
    for i, halves in enumerate(_circuit_triangulations(n, d)):
        plus, minus = (sum(1 << index[c] for c in half) for half in halves)
        for half in (plus, minus):
            heads[(half & -half).bit_length() - 1].append((i, half, plus | minus))
    return index, heads


def _rescan_flips(tri: int, heads) -> list[int]:
    """The masks one flip away from the mask tri, by circuit id, from a scan
    of every cell of tri against the halves listed under it."""
    found = []
    rest = tri
    while rest:
        low = rest & -rest
        for i, half, both in heads[low.bit_length() - 1]:
            if tri & half == half:
                found.append((i, tri ^ both))
        rest ^= low
    found.sort()
    return [t for _, t in found]


@lru_cache(maxsize=64)
def rescan_flip_closure(n: int, d: int) -> tuple[tuple[int, ...], int]:
    """(masks, degree sum) of the breadth-first flip closure of C(n,d) that
    rescans every triangulation's cells for its flips, as
    `subdiv.enumerate_triangulations` did before each queued mask carried
    its flippable circuits.  The masks come in discovery order, the placing
    triangulation first and each mask's flips in circuit order."""
    index, heads = _rescan_heads(n, d)
    seed = sum(1 << index[c] for c in geometric_placing_triangulation(standard_params(n, d)))
    seen = {seed}
    order = [seed]
    degree_sum = 0
    for tri in order:
        flips = _rescan_flips(tri, heads)
        degree_sum += len(flips)
        for other in flips:
            if other not in seen:
                seen.add(other)
                order.append(other)
    return tuple(order), degree_sum


def unfiltered_reverse_search(n: int, d: int):
    """The stream (mask, L, U) of `subdiv._reverse_search` from a child rule
    that tests every circuit of L against the flipped mask, with no
    prefilter (the search tests only the circuits of L below the lowest
    circuit of U or among its killers) and no memo of the tests."""
    cells, index, circuits, _ = _flip_table(n, d)
    seed = _encode(placing_triangulation(n, d), index)
    stack = [(seed, _present(seed, cells, circuits), 0)]
    while stack:
        entry = stack.pop()
        yield entry
        tri, lower, upper = entry
        for i in _bits(lower):
            _, _, both, keep, below, bars, lowers, uppers, _ = circuits[i]
            if upper & below:
                continue
            child = tri ^ both
            if any(child & half == half for half in bars):
                continue
            child_lower = (lower & keep) ^ 1 << i
            child_upper = (upper & keep) | 1 << i
            child_lower |= sum(bit for bit, half in lowers if child & half == half)
            child_upper |= sum(bit for bit, half in uppers if child & half == half)
            stack.append((child, child_lower, child_upper))


def facet_upper_by_geometry(s, pv: ParamVector) -> bool:
    """Geometric ground truth for `cyclic.classify_facet`, from any realization.

    The supporting hyperplane of facet S is the graph of h(t) = prod(t - t_i),
    i in S; the outer normal has positive last coordinate exactly when h is
    negative at the remaining parameters.
    """
    s = as_face(s, pv.n)
    others = [i for i in range(1, pv.n + 1) if i not in s]
    signs = set()
    for j in others:
        val = Fraction(1)
        for i in s:
            val *= pv.param(j) - pv.param(i)
        signs.add(val > 0)
    if len(signs) != 1:
        raise ValueError(f"{s} is not a facet: points on both sides")
    return not signs.pop()


def homogenized_rank(pv: ParamVector) -> int:
    return rank(homogenized_matrix(pv))


def _tuples_of_copies(candidates, sizes, compat):
    """All pairwise-compatible choices of one vertex set per requested size."""

    def extend(chosen, remaining):
        if not remaining:
            yield list(chosen)
            return
        s = remaining[0]
        pool = candidates[s]
        start = 0
        if chosen and len(chosen[-1]) == s:
            start = pool.index(chosen[-1]) + 1  # same-size copies chosen in order
        for v in pool[start:]:
            if all(compat(v, c) for c in chosen):
                chosen.append(v)
                yield from extend(chosen, remaining[1:])
                chosen.pop()

    yield from extend([], sorted(sizes, reverse=True))


def reference_subdivisions_by_type(n: int, d: int, sizes) -> list[Subdivision]:
    """The census of one type: fix the placing triangulation of every copy,
    then keep the triangulations of C(n,d) that contain all of them."""
    sizes = sorted(sizes)
    tris = enumerate_triangulations(n, d)
    candidates = {s: list(combinations(range(1, n + 1), s)) for s in set(sizes)}
    compat = lambda x, y: cells_compatible(x, y, n, d)
    out = []
    for copies in _tuples_of_copies(candidates, sizes, compat):
        fixed = set()
        for v in copies:
            fixed |= triangulate_cell(v, n, d)
        fixed_f = frozenset(fixed)
        for tri in tris:
            if fixed_f <= tri:
                rest = [c for c in tri if c not in fixed_f]
                out.append(Subdivision.make(list(copies) + rest, n, d))
    return out


def _partitions_as_sizes(r: int, max_part: int, d: int):
    """Multisets of cell sizes with total ranking r (parts s-d-1 <= max_part)."""

    def parts(rem, biggest):
        if rem == 0:
            yield []
            return
        for p in range(min(rem, biggest), 0, -1):
            for rest in parts(rem - p, p):
                yield [p] + rest

    for partition in parts(r, max_part):
        yield [p + d + 1 for p in partition]


def reference_proper_subdivisions(n: int, d: int) -> list[Subdivision]:
    """Triangulations plus the type census, ranking level by ranking level.

    The scan stops at the first empty level, since any coarser subdivision
    refines into that level.  The trivial subdivision is left out: at
    d = n - 1 it is the one triangulation, and the list is empty.
    """
    out = [Subdivision.make(t, n, d) for t in enumerate_triangulations(n, d)]
    out = [s for s in out if not s.is_trivial]
    r = 1
    max_part = n - d - 2
    while max_part >= 1:
        level = 0
        for sizes in _partitions_as_sizes(r, max_part, d):
            subs = reference_subdivisions_by_type(n, d, sizes)
            out.extend(subs)
            level += len(subs)
        if level == 0:
            break
        r += 1
    return out


def polygon_dissections(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All dissections of the convex n-gon by non-crossing diagonals."""
    diagonals = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]

    def crossing(p, q):
        (a, b), (c, d2) = sorted((p, q))
        return a < c < b < d2

    out = []

    def split(regions, diag):
        a, b = diag
        for k, reg in enumerate(regions):
            if a in reg and b in reg:
                inner = tuple(v for v in reg if a <= v <= b)
                outer = tuple(v for v in reg if v <= a or v >= b)
                return regions[:k] + [inner, outer] + regions[k + 1 :]
        raise AssertionError("diagonal endpoints not in one region")

    def rec(start, chosen, regions):
        out.append(tuple(sorted(regions)))
        for k in range(start, len(diagonals)):
            dk = diagonals[k]
            if all(not crossing(dk, c) for c in chosen):
                chosen.append(dk)
                rec(k + 1, chosen, split(regions, dk))
                chosen.pop()

    rec(0, [], [tuple(range(1, n + 1))])
    return out


def reference_baues_poset(n: int, d: int, d_prime: int) -> BauesPoset:
    """Every subdivision (the polygon dissections for d = 2), then the
    pi-induced ones sorted by ranking, cell count and cells, the top last."""
    if d == 2:
        families = [Subdivision.make(c, n, d) for c in polygon_dissections(n)]
    else:
        families = reference_proper_subdivisions(n, d)
        families.append(Subdivision.make([range(1, n + 1)], n, d))
    kept = [s for s in families if is_pi_induced(s.cells, n, d, d_prime)]
    kept.sort(key=lambda s: (s.ranking(), len(s.cells), s.cells))
    trivial = [s for s in kept if s.is_trivial]
    proper = [s for s in kept if not s.is_trivial]
    return BauesPoset(n, d, d_prime, tuple(proper + trivial))


def _numbered_cells(poset: BauesPoset) -> tuple[list[list[int]], list[int], list[int]]:
    """(held, inside, holders) over the distinct cells of the elements,
    numbered: the cell ids of each element, the bitset of the ids of the
    cells inside each cell, and the bitset of the elements holding each."""
    ids: dict = {}
    held = [[ids.setdefault(c, len(ids)) for c in s.cells] for s in poset.elements]
    masks = [sum(1 << v for v in c) for c in ids]
    inside = [sum(1 << k for k, m in enumerate(masks) if m & big == m) for big in masks]
    holders = [0] * len(ids)
    for i, cells in enumerate(held):
        for k in cells:
            holders[k] |= 1 << i
    return held, inside, holders


def reference_below(poset: BauesPoset) -> tuple[int, ...]:
    """below[t]: the bitset of the indices of the elements strictly below t.

    The distinct cells of all elements are numbered, and U(t) is the set of
    cell ids that lie inside some cell of t, so s <= t exactly when every
    cell id of s is in U(t).  The walk removes, for each cell outside U(t),
    the elements holding it.  Raises RuntimeError when some element below t
    has an index at or above t's: index order must be a linear extension.
    """
    held, inside, holders = _numbered_cells(poset)
    every_cell = (1 << len(inside)) - 1
    every_element = (1 << len(held)) - 1
    out = []
    for t, cells in enumerate(held):
        u = 0
        for k in cells:
            u |= inside[k]
        not_below = 1 << t
        for k in _bits(every_cell & ~u):
            not_below |= holders[k]
        strict = every_element & ~not_below
        if strict >> t:
            raise RuntimeError(
                f"Baues element {t} has element {strict.bit_length() - 1} below it; "
                "index order is not a linear extension"
            )
        out.append(strict)
    return tuple(out)


def filtered_below(poset: BauesPoset) -> list[int]:
    """The order of `reference_below` by candidate filters, for any index order.

    The cells of an s <= t inside a cell C of t cover C, so s has one of
    them: with near[C] the bitset of the elements holding some cell inside
    C, every element below t lies in the AND of near[C] over the cells C of
    t, and only these candidates are tested against U(t).
    """
    held, inside, holders = _numbered_cells(poset)
    near = [0] * len(inside)  # near[k]: the elements with a cell inside cell k
    for k, cells in enumerate(inside):
        for j in _bits(cells):
            near[k] |= holders[j]
    own = [sum(1 << k for k in cells) for cells in held]
    out = []
    for t, cells in enumerate(held):
        u = 0
        candidates = near[cells[0]]
        for k in cells:
            u |= inside[k]
            candidates &= near[k]
        out.append(sum(1 << s for s in _bits(candidates & ~(1 << t)) if not own[s] & ~u))
    return out


def reference_cellular_strings(n: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every cellular string on C(n,d) as its tuple of faces, from vertex 1 to n.

    A depth-first search chains boundary faces with at least two vertices,
    each starting where the last one ended; faces are bucketed by their
    first vertex in `enumerate_faces` order.
    """
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for f in enumerate_faces(n, d, min_size=2):
        buckets.setdefault(f[0], []).append(f)
    out: list[tuple[tuple[int, ...], ...]] = []

    def grow(chain: list[tuple[int, ...]]):
        last = chain[-1][-1]
        if last == n:
            out.append(tuple(chain))
            return
        for f in buckets.get(last, ()):
            chain.append(f)
            grow(chain)
            chain.pop()

    for f in buckets.get(1, ()):
        grow([f])
    return out


def chain_count_euler(strictly_below: list[list[int]]) -> int:
    """Euler characteristic of the order complex: sum (-1)^k (#k-chains).

    strictly_below[i] lists the indices strictly below i, in any order;
    the chains are counted by dynamic programming over their length.
    """
    chi = 0
    counts = [1] * len(strictly_below)  # chains of a given length ending at each element
    sign = 1
    while any(counts):
        chi += sign * sum(counts)
        sign = -sign
        counts = [sum(counts[j] for j in below) for below in strictly_below]
    return chi


def pairwise_minimal(indices, leq) -> list[int]:
    """The indices with no other index of `indices` below them, pair by pair."""
    indices = list(indices)
    return [i for i in indices if not any(j != i and leq(j, i) for j in indices)]


def reference_path_coherence_system(p, path, direction: int) -> lp.StrictSystem:
    """Every non-edge vertex strictly above every path edge's lifted line.

    Unknowns are the coefficients of a functional f with f_direction = 0.
    """
    d = p.dim
    strict = []
    for u_i, v_i in zip(path, path[1:]):
        u, v = p.vertices[u_i - 1], p.vertices[v_i - 1]
        a, b = u[direction - 1], v[direction - 1]
        for j in range(1, len(p.vertices) + 1):
            if j in (u_i, v_i):
                continue
            x = p.vertices[j - 1]
            xi = x[direction - 1]
            row = tuple(
                (b - a) * x[k] - (b - xi) * u[k] - (xi - a) * v[k] for k in range(d)
            )
            strict.append(row)
    eqs = [tuple(Fraction(int(k == direction - 1)) for k in range(d))]
    return lp.StrictSystem(tuple(strict), tuple(eqs), d)


def reference_non_extreme_vertices(vertices) -> list[int]:
    """The 1-based vertices that are convex combinations of the others.

    Vertex v is one when lambda >= 0 and s > 0 exist with
    sum_u lambda_u u = s v and sum_u lambda_u = s, decided by the slack simplex.
    """
    out = []
    for j, v in enumerate(vertices):
        others = [u for i, u in enumerate(vertices) if i != j]
        m = len(others)
        eqs = [tuple(u[k] for u in others) + (-v[k],) for k in range(len(v))]
        eqs.append((ONE,) * m + (-ONE,))
        nonneg = [tuple(int(i == r) for i in range(m + 1)) for r in range(m)]
        if slack_feasible([(0,) * m + (1,)], nonneg, eqs, m + 1) is not None:
            out.append(j + 1)
    return out


def reference_edge_system(p, a: int, b: int) -> lp.StrictSystem:
    """c . (u - v) = 0 and c . (u - x) > 0 for every other vertex x, in p.vertices."""
    u, v = p.vertices[a - 1], p.vertices[b - 1]
    eq = [tuple(s - t for s, t in zip(u, v))]
    strict = [tuple(s - t for s, t in zip(u, x))
              for j, x in enumerate(p.vertices, 1) if j not in (a, b)]
    return lp.StrictSystem(tuple(strict), tuple(eq), p.dim)


def reference_polytope_edges(p) -> list[tuple[int, int]]:
    """The 1-based vertex pairs whose equality-form edge system is feasible."""
    return [
        (a, b)
        for a, b in combinations(range(1, len(p.vertices) + 1), 2)
        if isinstance(lp.solve_strict(reference_edge_system(p, a, b)), lp.Witness)
    ]


def reference_regular_subdivision_from_heights(pv: ParamVector, w) -> Subdivision:
    """Lower-hull cells from one `fraction_solve` per (d+1)-subset of points."""
    n, d = pv.n, pv.d
    w = vec(w)
    homog = list(zip(*homogenized_matrix(pv)))  # point i is homog[i - 1]
    cells = set()
    for base in combinations(range(1, n + 1), d + 1):
        affine = fraction_solve([homog[i - 1] for i in base], [w[i - 1] for i in base])
        values = [dot(homog[i], affine) for i in range(n)]
        if all(values[i] <= w[i] for i in range(n)):
            cells.add(tuple(i + 1 for i in range(n) if values[i] == w[i]))
    return Subdivision.make(cells, n, d)


def _reference_skeleton(cells, n: int, d: int, style: str):
    """The strict and coplanarity circuit keys (z, k) of a subdivision's system.

    z is a sorted circuit and k the index of the point it is signed positive
    at; the keys come in the order of the library's rows.
    """
    cs = sorted(as_face(c, n) for c in cells)
    if len(set(cs)) != len(cs):
        raise ValueError("repeated cells")
    for c in cs:
        if len(c) <= d:
            raise ValueError(f"cell {c} is lower-dimensional (needs > d = {d} vertices)")

    def above(base, j):
        z = tuple(sorted(base + (j,)))
        return z, z.index(j)

    eqs = [(c[: d + 1] + (v,), 0) for c in cs if len(c) > d + 1 for v in c[d + 1 :]]
    strict = []
    if style == "walls":
        apexes: dict = {}
        for c in cs:
            for w in cell_walls(c, d):
                apexes.setdefault(w, []).append(min(v for v in c if v not in w))
        for w in sorted(apexes):
            ends = apexes[w]
            if len(ends) == 1:
                if not gale_evenness_is_face(w, n, d):
                    raise ValueError(f"wall {w} is neither interior nor boundary")
                continue
            if len(ends) != 2:
                raise ValueError(f"wall {w} lies in {len(ends)} cells")
            strict.append(above(w + (ends[0],), ends[1]))
        covered = {v for c in cs for v in c}
        for j in range(1, n + 1):
            if j not in covered:
                c = next((c for c in cs if c[0] < j < c[-1]), None)
                if c is None:
                    raise ValueError(f"point {j} lies in no cell and between the ends of none")
                strict.append(above(c[: d + 1], j))
    elif style == "bmatrix":
        for c in cs:
            strict.extend(above(c[: d + 1], j) for j in range(1, n + 1) if j not in c)
    else:
        raise ValueError(f"unknown system style {style!r}")
    return strict, eqs


def reference_decide(cells, pv: ParamVector, d_prime: int, style: str = "walls", coords=None):
    """The a-coordinate decision of one subdivision, its rows looked up by key.

    `coords` is the `coherence._Coordinates` of (pv, d'); a fresh one, whose
    memos the library never touched, when None.
    """
    coords = coords or coherence._Coordinates(pv, d_prime)
    strict, eqs = _reference_skeleton(cells, pv.n, pv.d, style)
    res = lp.solve_strict(
        lp.StrictSystem(
            tuple(coords.row(*key) for key in strict),
            tuple(coords.row(*key) for key in eqs),
            coords.dim,
        )
    )
    if isinstance(res, lp.Witness):
        return lp.Witness(coords.heights(res.x))
    return res


def reference_fiber_results(n: int, d: int, d_prime: int, pv: ParamVector) -> list:
    """The per-element results of `fiber_face_poset`, one `reference_decide` each."""
    coords = coherence._Coordinates(pv, d_prime)
    return [
        None if s.is_trivial else reference_decide(s.cells, pv, d_prime, coords=coords)
        for s in enumerate_baues_poset(n, d, d_prime).elements
    ]


def reference_plane_refutation(system: lp.StrictSystem) -> list[int] | None:
    """None when the D = 2 system is feasible, else a refutation y >= 0.

    Every row is sigma (1, s), with sigma = +-1 and s the sum of L t over
    its circuit, so the system is decided on a line.  Two distinct equality
    sums force a = 0.  One, s_e, leaves a = a_1 (-s_e, 1), on which row i is
    a_1 sigma_i (s_i - s_e): feasible exactly when these are nonzero and of
    one sign.  Without equalities the system is feasible exactly when the
    sums of the rows with sigma = +1 all lie on one side of those with
    sigma = -1, the threshold being -a_0 / a_1, or when one of the two sets
    is empty.  Otherwise one or two rows per side combine to a refutation.
    """
    sums = [r[0] * r[1] for r in system.strict]
    y = [0] * len(sums)
    eqs = {r[0] * r[1] for r in system.equalities}
    if len(eqs) > 1:  # the equalities force a = 0
        y[0] = 1
        return y
    if eqs:  # a = a_1 (-s_e, 1), on which row i is a_1 c_i
        (s_e,) = eqs
        c = [r[0] * (s - s_e) for r, s in zip(system.strict, sums)]
        if 0 in c:
            y[c.index(0)] = 1
        elif min(c) > 0 or max(c) < 0:
            return None
        else:
            i = next(k for k, v in enumerate(c) if v > 0)
            j = next(k for k, v in enumerate(c) if v < 0)
            y[i], y[j] = -c[j], c[i]
        return y
    # a_0 + a_1 s is positive on S+ and negative on S-: a threshold between them
    sides = [[i for i, r in enumerate(system.strict) if r[0] == sign] for sign in (1, -1)]
    if not all(sides):
        return None
    ends = [(min(side, key=sums.__getitem__), max(side, key=sums.__getitem__)) for side in sides]
    (lo_plus, hi_plus), (lo_minus, hi_minus) = [(sums[i], sums[j]) for i, j in ends]
    if hi_minus < lo_plus or hi_plus < lo_minus:
        return None
    # p lies in both ranges; each side's weights sum its rows to (hi - lo or 1) sigma (1, p)
    p = max(lo_plus, lo_minus)
    totals = [sums[j] - sums[i] or 1 for i, j in ends]
    for (i, j), scale in zip(ends, reversed(totals)):
        if sums[i] == sums[j]:
            y[i] = scale
        else:
            y[i], y[j] = (sums[j] - p) * scale, (p - sums[i]) * scale
    return y


# ---------------------------------------------------------------------------
# helpers that several test modules call and the library does not
# ---------------------------------------------------------------------------


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def moment_points(pv: ParamVector) -> list[tuple]:
    """Point i is (t_i, t_i^2, ..., t_i^d); returned as n columns."""
    return [tuple(ti**k for k in range(1, pv.d + 1)) for ti in pv.t]


def sub_params(pv: ParamVector, indices) -> ParamVector:
    """Parameter vector of the subconfiguration spanned by `indices`."""
    idx = sorted(indices)
    return ParamVector(len(idx), pv.d, tuple(pv.t[i - 1] for i in idx))


def vandermonde_volume(s, pv: ParamVector) -> Fraction:
    """d!-scaled simplex volume prod_{i<j in S}(t_j - t_i); |S| must be d+1."""
    s = as_face(s, pv.n)
    if len(s) != pv.d + 1:
        raise ValueError(f"need d+1 = {pv.d + 1} distinct indices, got {s}")
    vol = Fraction(1)
    for a, b in combinations(s, 2):
        vol *= pv.param(b) - pv.param(a)
    return vol


class FaceClass(Enum):
    """Upper/lower convention: a facet is upper when the outer normal of its
    supporting hyperplane has positive last coordinate, equivalently when the
    trailing contiguous block containing n has odd length.  Under this
    convention the only upper facet of the polygon C(n,2) is the top chord
    {1,n}."""

    UPPER = "upper"
    LOWER = "lower"
    CONTOUR = "contour"


def classify_facet(s, n: int, d: int) -> FaceClass:
    """Upper iff the trailing block containing n has odd length (empty = even)."""
    s = as_face(s, n)
    if len(s) != d or not gale_evenness_is_face(s, n, d):
        raise ValueError(f"{s} is not a facet of C({n},{d})")
    tail = _blocks(s)[-1] if s else []
    tail_len = len(tail) if tail and tail[-1] == n else 0
    return FaceClass.UPPER if tail_len % 2 == 1 else FaceClass.LOWER


def classify_face(s, n: int, d: int) -> FaceClass:
    """Upper/Lower if all containing facets agree, Contour otherwise."""
    s = as_face(s, n)
    if not gale_evenness_is_face(s, n, d):
        raise ValueError(f"{s} is not a face of C({n},{d})")
    classes = {
        classify_facet(f, n, d) for f in enumerate_facets(n, d) if set(s) <= set(f)
    }
    if len(classes) == 1:
        return classes.pop()
    return FaceClass.CONTOUR


def has_upper_and_lower_cells(cells, n: int, d_prime: int) -> bool:
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


def is_pi_induced(cells, n: int, d: int, d_prime: int) -> bool:
    """Does every proper cell span a boundary face of C(n,d')?"""
    if not d < d_prime < n:
        raise ValueError("need d < d' < n")
    for c in cells:
        c = as_face(c, n)
        if len(c) < n and not gale_evenness_is_face(c, n, d_prime):
            return False
    return True


def is_triangulation(sub: Subdivision) -> bool:
    return all(len(c) == sub.d + 1 for c in sub.cells)


def refines(finer: Subdivision, coarser: Subdivision) -> bool:
    """Baues order: every cell of `finer` is contained in a cell of `coarser`."""
    big = _cell_masks(coarser)
    return all(any(c & b == c for b in big) for c in _cell_masks(finer))


def _cell_masks(sub: Subdivision) -> tuple[int, ...]:
    """Each cell as the bitmask with bit v set for each vertex v, kept on the
    instance as `functools.cached_property` would keep it."""
    masks = sub.__dict__.get("_cell_masks")
    if masks is None:
        masks = sub.__dict__["_cell_masks"] = tuple(sum(1 << v for v in c) for c in sub.cells)
    return masks


def leq(poset: BauesPoset, i: int, j: int) -> bool:
    """Is element i at or below element j, read off `reference_below`?

    The below-sets are computed once per poset and kept on the instance.
    """
    below = poset.__dict__.get("_reference_below")
    if below is None:
        below = poset.__dict__["_reference_below"] = reference_below(poset)
    return i == j or bool(below[j] >> i & 1)


def sign_leq(a, b) -> bool:
    """Componentwise order generated by + < 0 and - < 0."""
    return all(x == y or y == NULL for x, y in zip(a, b)) and len(a) == len(b)


def extend_by_placing(tri, n: int, d: int) -> frozenset:
    """Extend a triangulation of the first n-1 points by placing point n, at t = 1..n."""
    cells = set(tuple(sorted(c)) for c in tri)
    if any(n in c for c in cells):
        raise ValueError("triangulation already uses the new point")
    return frozenset(place_point(cells, standard_params(n, d), n))


def tau_star_heights(w, pv: ParamVector) -> tuple:
    """Transport heights across the lifting: w'_i = -t_i w_i, w'_{n+1} = 0."""
    w = vec(w)
    if len(w) != pv.n:
        raise ValueError("height vector length != n")
    if pv.t[-1] >= 0:
        raise ValueError("tau* transport needs the t_{n+1} = 0 normalization")
    return tuple(-ti * wi for ti, wi in zip(pv.t, w)) + (Fraction(0),)
