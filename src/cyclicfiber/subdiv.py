"""Subdivisions and triangulations of C(n,d).

Triangulations are frozensets of cells; a cell is a sorted tuple of vertex
indices.  The combinatorial layer (placing, flips, cell compatibility, the
type census and Baues posets) takes (n, d) alone: the circuits of C(n,d) are
exactly the (d+2)-subsets with alternating signs along the sorted order, so
a bistellar flip swaps one alternating half for the other whenever a half is
fully present, two cells meet properly unless a circuit splits between them,
and a (d+1)-subset of a cell is a simplex of the cell's placing
triangulation when every other point of the cell has as many of the
subset's points below it as d + 1, mod 2 (`triangulate_cell`).  No
realization t enters here: the exact volume and validity checks that the
tests hold the combinatorics against are test oracles, and `coherence`
reads t.

The flip search encodes a triangulation as one int, bit k set when the k-th
(d+1)-subset in lexicographic order is a cell (the bitset encoding of
TOPCOM, Rambau 2002).  A per-(n, d) table holds the two halves of each
circuit as masks, lower and upper, so a half is present when
tri & half == half and the flip is one xor.  The search is one generator,
`_reverse_search` (Avis and Fukuda 1996), over the increasing flips, from
the lower half of a circuit to its upper half: their order is bounded and
its minimum is the placing triangulation (Rambau 1997), so each
triangulation but that one has one parent, and the search keeps only a
stack, no set of the masks seen.  It scans no triangulation's cells for
its flips: each stacked mask carries the bitsets of its increasing and
decreasing flips, and a flip updates them from the circuits that share a
cell with the two halves it swaps.  The search has three consumers.
`enumerate_triangulations` packs the masks into one byte buffer, a
`TriangulationSet`, which decodes a mask into a frozenset of shared cell
tuples only when it is iterated.  `flip_graph_stats` counts the masks and
their flips, and `pi_induced_masks` filters the masks for the census, Baues
posets and monotone paths; neither packs, so a count runs in the memory of
the stack.  No set is cached: a caller that reads one set twice keeps it.

One census, `enumerate_baues_poset`, serves every subdivision count.  The
subdivisions of every type are its elements at d' = n - 1: C(n, n-1) is a
simplex, so every proper subset of 1..n is a face of it and every
subdivision of C(n,d) is pi-induced there; `enumerate_subdivisions_by_type`
filters them.

A Baues poset holds its elements and builds no refinement order.  `fiber`
reads its counts off the rankings, the sums of |C| - d - 1 over the cells
C, and the coherence verdicts: chi is the alternating sum of the proper
elements by ranking (`proper_euler_characteristic`), and the minimal
coherent elements are the coherent ones of ranking 0
(`FiberReport.coherent_f_vector`).  So `fiber` depends on no index order.
The census sorts the elements by ranking, but the ranking need not drop
strictly under refinement: the C(9,4) subdivision 123456,12367,123789,
134679,14569,34789,456789 is regular at t = 1..9 and has ranking 4, as
C(9,4) has.  Only `order_complex_euler`, which the test oracles call on
their below-sets, needs index order to be a linear extension, and it
raises RuntimeError when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .cyclic import (
    as_face,
    enumerate_faces,
    enumerate_facets,
    format_face,
    gale_evenness_is_face,
    parse_face,
)

Cell = tuple[int, ...]
Triangulation = frozenset[Cell]


# ---------------------------------------------------------------------------
# placing triangulations and cell geometry
# ---------------------------------------------------------------------------


def triangulate_cell(cell: Sequence[int], n: int, d: int) -> Triangulation:
    """Placing triangulation of the subconfiguration, in increasing order.

    Its simplices are the (d+1)-subsets F of the sorted cell such that every
    other point j of the cell has #{g in F : g < j} = d + 1 (mod 2).  Lift
    the point of each parameter t_i of the cell to the height t_i^(d+1), for
    any increasing t.  The height less its interpolant of degree at most d
    at the points of F is prod_(g in F) (t - t_g), whose sign at t_j is
    (-1)^(d+1-k) with k = #{g in F : g < j}.  So the rule lists the F with
    every other point strictly above the hyperplane lifted through F: the
    lower facets of the lifted cell.  That lower hull is the placing
    triangulation in increasing order, as the `coherence` docstring proves
    ("The start").  Raises ValueError unless 1 <= d < |cell|.
    """
    cell = as_face(cell, n)
    if not 1 <= d < len(cell):
        raise ValueError("need 1 <= d < |cell|")
    return frozenset(
        f for f in combinations(cell, d + 1)
        if all(sum(g < j for g in f) % 2 == (d + 1) % 2 for j in cell if j not in f)
    )


def placing_triangulation(n: int, d: int) -> Triangulation:
    """The placing triangulation of C(n,d) in the order 1..n (`triangulate_cell`)."""
    return triangulate_cell(range(1, n + 1), n, d)


def subconfig_face(subset: Iterable[int], cell: Sequence[int], d: int) -> bool:
    """Does `subset` span a proper face of the cyclic subpolytope conv(cell)?"""
    cell = tuple(sorted(cell))
    pos = {v: i + 1 for i, v in enumerate(cell)}
    subset = tuple(sorted(subset))
    if any(v not in pos for v in subset):
        raise ValueError("subset not within cell")
    return gale_evenness_is_face([pos[v] for v in subset], len(cell), d)


def cell_walls(c: Cell, d: int) -> list[Cell]:
    """The walls (d-vertex facets) of the sorted cell c.

    They are the Gale facets of its cyclic subpolytope, read off the facets
    of C(|c|, d), which are cached per (|c|, d); a simplex, C(d+1, d), has
    all d+1 of its d-subsets.
    """
    return [tuple(c[i - 1] for i in f) for f in enumerate_facets(len(c), d)]


# ---------------------------------------------------------------------------
# bistellar flips and exhaustive enumeration
# ---------------------------------------------------------------------------


# the update of the increasing flip of circuit i: (keep, below, bars, lowers, uppers)
Step = tuple[int, int, tuple[int, ...], tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]
Circuit = tuple[int, int, int, Step]


@lru_cache(maxsize=16)
def _flip_table(n: int, d: int) -> tuple[tuple[Cell, ...], dict[Cell, int], tuple[Circuit, ...]]:
    """(cells, index, circuits): the flip data of C(n,d) on cell bitmasks.

    cells[k] is the k-th (d+1)-subset in lexicographic order and index its
    inverse.  Circuit i is the i-th (d+2)-subset z; its alternating sign
    splits it into the points at even and at odd positions (0-based), and
    each side's triangulation (half) drops one point of that side.  The
    lower half drops the z_j with j = d + 1 (mod 2): it is
    `triangulate_cell(z, n, d)`, the lower facets of z lifted by t^(d+1).
    The other half is the upper one, and the increasing flip of i swaps
    the lower half for the upper.  circuits[i] = (lower, upper, both, up):
    the halves as masks over cell indices, both = their union, and up the
    update of the increasing flip.  There keep is every bit except those
    of the circuits with a cell of the lower half in some half, bit i
    excepted, and below = keep & (2^i - 1).  Of the halves of the other
    circuits j that hold a cell of the upper half and none of the lower
    one, bars lists the upper halves with j < i, lowers lists (1 << j, half)
    for the lower halves, and uppers for the upper halves with j > i.
    """
    cells = tuple(combinations(range(1, n + 1), d + 1))
    index = {c: k for k, c in enumerate(cells)}
    halves = []
    holders: list[list[tuple[int, int, bool]]] = [[] for _ in cells]  # (j, half, is upper)
    for i, z in enumerate(combinations(range(1, n + 1), d + 2)):
        lower, upper = (
            sum(1 << index[z[:j] + z[j + 1 :]] for j in range(side, d + 2, 2))
            for side in ((d + 1) % 2, d % 2)
        )
        halves.append((lower, upper))
        for half, is_upper in ((lower, False), (upper, True)):
            for k in _bits(half):
                holders[k].append((i, half, is_upper))

    def up(i: int) -> Step:
        gone, added = halves[i]
        kill = 0
        for k in _bits(gone):
            for j, _, _ in holders[k]:
                kill |= 1 << j
        keep = ~kill | 1 << i
        tests = {e: None for k in _bits(added) for e in holders[k] if e[0] != i and not e[1] & gone}
        bars = tuple(half for j, half, is_upper in tests if is_upper and j < i)
        lowers = tuple((1 << j, half) for j, half, is_upper in tests if not is_upper)
        uppers = tuple((1 << j, half) for j, half, is_upper in tests if is_upper and j > i)
        return keep, keep & ((1 << i) - 1), bars, lowers, uppers

    circuits = tuple(
        (lower, upper, lower | upper, up(i)) for i, (lower, upper) in enumerate(halves)
    )
    return cells, index, circuits


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _present(tri: int, cells: tuple[Cell, ...], circuits: tuple[Circuit, ...]) -> int:
    """The circuits with a half inside the mask tri, as a bitset of circuit ids.

    Raises ValueError when tri holds one half of a circuit and any cell of
    the other: both halves triangulate the same polytope, so that cell would
    overlap a cell of the whole half, and no triangulation holds both.
    """
    found = 0
    for i, (lower, upper, both, _) in enumerate(circuits):
        if tri & lower == lower or tri & upper == upper:
            if tri & both not in (lower, upper):
                z = tuple(sorted(set().union(*(cells[k] for k in _bits(both)))))
                raise ValueError(f"cells of both halves of the circuit {z}")
            found |= 1 << i
    return found


def _encode(tri: Iterable[Cell], index: dict[Cell, int]) -> int:
    mask = 0
    for c in tri:
        k = index.get(tuple(sorted(c)))
        if k is None:
            raise ValueError(f"cell {tuple(c)} is not a (d+1)-subset of 1..n")
        mask |= 1 << k
    return mask


def _decode(mask: int, cells: tuple[Cell, ...]) -> Triangulation:
    # frozenset of a set: its table is sized for the set, about half the
    # memory of one grown from a generator
    return frozenset({cells[k] for k in _bits(mask)})


def bistellar_flips(tri: Iterable[Cell], n: int, d: int) -> list[Triangulation]:
    """All triangulations one flip away, in the lexicographic order of circuits.

    Raises ValueError for a cell that is not a (d+1)-subset of 1..n and for
    a tri that holds one half of a circuit and a cell of the other.
    """
    cells, index, circuits = _flip_table(n, d)
    mask = _encode(tri, index)
    return [_decode(mask ^ circuits[i][2], cells) for i in _bits(_present(mask, cells, circuits))]


class TriangulationSet:
    """The triangulations of C(n,d) as flip-search masks, decoded on demand.

    The masks are packed in one bytearray in the preorder of the reverse
    search (`_reverse_search`), the placing triangulation first and every
    other mask after its parent: mask k takes the `width` bytes from
    k * width on, little-endian, where width = ceil(C(n, d+1) / 8) holds
    one bit per (d+1)-subset.  `masks()` unpacks them into ints in that
    order, and iteration decodes them in that order into frozensets of the
    shared cell tuples of the flip table, so `in` decodes one triangulation
    after another.  A set is storage and nothing else: the counts, the
    flip-graph statistics and the census read the search itself and never
    pack one.
    """

    __slots__ = ("n", "d", "_packed", "_width")

    def __init__(self, n: int, d: int, packed: bytearray, width: int):
        self.n, self.d = n, d
        self._packed, self._width = packed, width

    def __len__(self) -> int:
        return len(self._packed) // self._width

    def __iter__(self):
        cells = _flip_table(self.n, self.d)[0]
        return (_decode(t, cells) for t in self.masks())

    def masks(self):
        """The masks as ints, in search order."""
        packed, width = self._packed, self._width
        return (int.from_bytes(packed[k : k + width], "little") for k in range(0, len(packed), width))


def _reverse_search(n: int, d: int):
    """Every triangulation of C(n,d), 1 <= d < n, by reverse search over
    increasing flips from the placing triangulation, as the stack entries
    (mask, L, U) in preorder of the search tree, each yielded as popped.

    The mask is the triangulation's cells as bits (see the module
    docstring), and L and U are the bitsets of the circuits of its
    increasing and decreasing flips.  The search keeps no set of the masks
    seen, and it looks at each flip edge once, from its lower end.  This is
    the one search of the module: `enumerate_triangulations` packs it,
    `flip_graph_stats` counts it and `pi_induced_masks` filters it.

    The tree.  Call a triangulation's circuits with their lower half inside
    it its increasing flips, and those with their upper half inside it its
    decreasing flips (`_flip_table`).  The first higher Stasheff-Tamari
    order of C(n,d), the transitive closure of the increasing flips, is
    bounded, and its minimum is the triangulation by the lower facets of
    C(n,d+1) (Rambau, Mathematika 1997), which is the placing triangulation
    in the order 1..n (the `coherence` docstring, "The start").  So every
    other triangulation has a decreasing flip.  The parent of such a
    triangulation is its decreasing flip at the lowest circuit whose upper
    half it holds.  An increasing flip never returns to where it started:
    lift each triangulation by the heights t^(d+1) to the piecewise linear
    function that interpolates them on each cell; the flip replaces the
    lower hull of the lifted circuit by its upper hull, so the integral of
    the function over C(n,d) grows.  So following parents ends, and it ends at
    the placing triangulation, the only one with no decreasing flip.  The
    parents form a tree rooted there, and the search walks it from the
    root with a stack of masks.

    The child rule.  The increasing flip of circuit i takes T to a child
    of T exactly when the flipped triangulation has no decreasing flip at
    a circuit j < i: it has one at i, so then i is its lowest, and its
    parent is T.  Each stacked mask carries L and U.  The flip of i removes
    the lower half R of i and adds its upper half A.  The neighbour keeps
    every circuit of L and of U that has no cell of R in either half, i
    moves from L to U, and a circuit j gains a half that holds a cell of A
    and no cell of R exactly when that half lies in the neighbour.  That is
    exact.  A circuit with a cell of R in a half cannot keep a present
    half: a cell of a triangulation never lies in the absent half of a
    present circuit, since both halves triangulate conv(Z) and the cell
    would overlap a cell of the present half, so the cell lies in the
    present half, which then loses it.  And a half that becomes present
    must hold a cell that was absent, a cell of A.  So the rule is one AND
    of U with the kept bits below i, then a test of the upper halves of the
    circuits j < i that the flip can complete.  Only an accepted child gets
    its L and U.

    Raises ValueError unless 1 <= d < n, and RuntimeError if the placing
    triangulation holds the upper half of a circuit, which would make the
    orientation wrong; both when the first entry is asked for.
    """
    if not 1 <= d < n:
        raise ValueError("enumeration supports 1 <= d < n")
    cells, index, circuits = _flip_table(n, d)
    seed = _encode(placing_triangulation(n, d), index)
    present = _present(seed, cells, circuits)
    if any(seed & circuits[i][1] == circuits[i][1] for i in _bits(present)):
        raise RuntimeError(f"the placing triangulation of C({n},{d}) holds an upper half of a circuit")
    stack = [(seed, present, 0)]  # (mask, L, U)
    while stack:
        entry = stack.pop()
        yield entry
        tri, lower, upper = entry
        rest = lower
        while rest:  # the circuits of L ascending, as in _bits but without a generator
            low = rest & -rest
            rest ^= low
            _, _, both, (keep, below, bars, lowers, uppers) = circuits[low.bit_length() - 1]
            if upper & below:
                continue
            child = tri ^ both
            for half in bars:
                if child & half == half:
                    break
            else:
                child_lower = (lower & keep) ^ low
                child_upper = (upper & keep) | low
                for bit, half in lowers:
                    if child & half == half:
                        child_lower |= bit
                for bit, half in uppers:
                    if child & half == half:
                        child_upper |= bit
                stack.append((child, child_lower, child_upper))


def enumerate_triangulations(n: int, d: int) -> TriangulationSet:
    """Every triangulation of C(n,d), 1 <= d < n, packed (`TriangulationSet`)
    in preorder of the reverse search (`_reverse_search`), the placing
    triangulation first.

    For d = 1 the triangulations are the 2^(n-2) edge paths 1 -> n through
    any subset of the interior points.  No set is cached: each call runs
    the search again.  C(11,3), 89,405 triangulations, takes about 0.25 s
    in-process on a 2-vCPU x86-64 VM with CPython 3.11.  Raises ValueError
    unless 1 <= d < n.
    """
    width = (comb(n, d + 1) + 7) // 8
    packed = bytearray()
    for tri, _, _ in _reverse_search(n, d):
        packed += tri.to_bytes(width, "little")
    return TriangulationSet(n, d, packed, width)


def flip_graph_stats(n: int, d: int) -> tuple[int, int]:
    """(number of triangulations, number of flip edges) of C(n,d), counted
    off the reverse search without packing, so in the memory of its stack.

    A flip edge is an increasing flip of its lower end and a decreasing
    flip of its upper end, so the edges are the sum of |L| over the masks,
    and RuntimeError is raised unless the sum of |U| equals it.
    """
    count = increasing = decreasing = 0
    for _, lower, upper in _reverse_search(n, d):
        count += 1
        increasing += lower.bit_count()
        decreasing += upper.bit_count()
    if increasing != decreasing:
        raise RuntimeError(f"C({n},{d}): {increasing} increasing flips but {decreasing} decreasing ones")
    return count, increasing


def circuit_turn(n: int, d: int, groups: Sequence[Sequence[int]]) -> list[tuple[int, Subdivision]]:
    """The triangulations of a walk of flips and the subdivisions between them.

    Circuit i is the i-th (d+2)-subset of 1..n in lexicographic order.  The
    walk starts at the placing triangulation and goes through `groups`
    twice, in order.  At each group it flips at once every circuit of the
    group that has a half in the current triangulation, so these circuits
    must share no cell.  Each group that flips adds two subdivisions, each
    with the group's position g in the doubled list of groups: the
    triangulation before the flips, and that triangulation with each
    flipped half merged into its circuit, one cell.  Raises RuntimeError
    unless the walk ends at the placing triangulation.  `coherence` groups
    the circuits by their sums of L t, which makes the walk one turn of the
    a-plane when d' = d + 2, and g names the line that the turn crosses.
    """
    cells, index, circuits = _flip_table(n, d)
    vertices = list(combinations(range(1, n + 1), d + 2))
    start = tri = _encode(placing_triangulation(n, d), index)
    out: list[tuple[int, Subdivision]] = []
    for g, group in enumerate(list(groups) * 2):
        flips = [i for i in group if tri & circuits[i][2] in circuits[i][:2]]
        if flips:
            both = sum(circuits[i][2] for i in flips)
            merged = [cells[k] for k in _bits(tri & ~both)] + [vertices[i] for i in flips]
            edge = Subdivision(n, d, tuple(sorted(merged)))
            out += [(g, Subdivision.of_mask(tri, n, d)), (g, edge)]
            tri ^= both
    if tri != start:
        raise RuntimeError(f"the circuit turn of C({n},{d}) does not close")
    return out


def cells_compatible(a: Sequence[int], b: Sequence[int], n: int, d: int) -> bool:
    """Can conv(a) and conv(b) be distinct cells of one subdivision?

    True iff neither cell contains the other, the shared index set is a Gale
    face of each cell, and conv(a) n conv(b) = conv(a n b).  The last part is
    decided by the alternating circuits of C(n,d): the hulls meet improperly
    exactly when some (d+2)-subset Z of a u b, not inside a n b, has one
    alternating half (even or odd positions of sorted Z) inside a and the
    other inside b.  No realization enters, so the answer is parameter-free.
    """
    a = as_face(a, n)
    b = as_face(b, n)
    sa, sb = set(a), set(b)
    if sa <= sb or sb <= sa:
        return False
    shared = sa & sb
    if shared:
        if not subconfig_face(shared, a, d) or not subconfig_face(shared, b, d):
            return False
    for z in combinations(sorted(sa | sb), d + 2):
        if shared.issuperset(z):
            continue
        even, odd = z[0::2], z[1::2]
        if sa.issuperset(even) and sb.issuperset(odd):
            return False
        if sb.issuperset(even) and sa.issuperset(odd):
            return False
    return True


# ---------------------------------------------------------------------------
# ranking, type, census
# ---------------------------------------------------------------------------


def format_type(sizes: Sequence[int], d: int) -> str:
    from collections import Counter

    if not sizes:
        return "[]"
    parts = []
    for s, r in sorted(Counter(sizes).items(), reverse=True):
        parts.append(f"{r}C({s},{d})" if r > 1 else f"C({s},{d})")
    return "[" + ",".join(parts) + "]"


@dataclass(frozen=True)
class Subdivision:
    """A polytopal subdivision of C(n,d) as a canonical tuple of cells."""

    n: int
    d: int
    cells: tuple[Cell, ...]

    @staticmethod
    def make(cells: Iterable[Iterable[int]], n: int, d: int) -> "Subdivision":
        return Subdivision(n, d, tuple(sorted(as_face(c, n) for c in cells)))

    @staticmethod
    def of_mask(mask: int, n: int, d: int) -> "Subdivision":
        """The triangulation with flip-search mask `mask`, cells in index order."""
        cells = _flip_table(n, d)[0]
        return Subdivision(n, d, tuple(cells[k] for k in _bits(mask)))

    @property
    def is_trivial(self) -> bool:
        return len(self.cells) == 1 and len(self.cells[0]) == self.n

    def ranking(self) -> int:
        """The sum of |C| - d - 1 over the cells C; a simplex adds 0."""
        return sum(map(len, self.cells)) - (self.d + 1) * len(self.cells)

    def type_sizes(self) -> tuple[int, ...]:
        """Sorted sizes of the non-simplex cells; () for a triangulation."""
        return tuple(sorted(len(c) for c in self.cells if len(c) > self.d + 1))

    def __str__(self) -> str:
        return format_triangulation(self.cells, self.n)


def _census(n: int, d: int, candidates: Sequence[Cell], tris: Sequence[int]) -> list[Subdivision]:
    """The subdivisions with non-simplex cells from `candidates`, once each.

    A subdivision is found when placing each non-simplex cell refines it to
    one of the triangulation masks `tris`.  A backtracking adds candidates
    in index order and carries the masks `live` of the triangulations that
    contain the placing triangulations of all chosen cells, and `need`, the
    OR of those placing triangulations.  More cells only shrink `live`, so
    a node with an empty list is pruned.  Each triangulation left at a node
    gives one subdivision: the chosen cells plus its remaining simplices.
    Candidates and flip-table cells are sorted tuples already, so the
    output is not re-validated.

    Compatibility of cells is read off the masks.  Let P(c) be the placing
    triangulation of a cell c, and let P(a) and P(b) lie in one
    triangulation T.  Then a and b are compatible exactly when P(a) and
    P(b) share no simplex.  Compatible cells have disjoint interiors, so
    no full-dimensional simplex lies in both.  Conversely, disjoint
    simplices of T have disjoint interiors, so the hulls of a and b do,
    and neither contains the other; their intersection is a union of
    common faces of T, each spanned by points of a n b, so it is
    conv(a n b).  For d >= 2 a hyperplane holds at most d points of the
    moment curve, so conv(a n b) is a face of a simplex face of each cell;
    for d = 1 the two segments share at most an endpoint.  So when some
    live triangulation also holds the placing triangulation of a candidate,
    the candidate is compatible with every chosen cell exactly when its
    mask misses `need`.  A candidate is skipped when its placing
    triangulation meets `need` or has a simplex in no live triangulation,
    one AND before the list is filtered.
    """
    cells, index, _ = _flip_table(n, d)
    fixed = [_encode(triangulate_cell(c, n, d), index) for c in candidates]
    out: list[Subdivision] = []

    def extend(start: int, chosen: list[Cell], need: int, live: list[int]):
        union = 0
        for t in live:
            union |= t
            rest = [cells[k] for k in _bits(t & ~need)]
            out.append(Subdivision(n, d, tuple(sorted(chosen + rest))))
        for i in range(start, len(candidates)):
            if fixed[i] & (need | ~union):
                continue
            req = need | fixed[i]
            sub = [t for t in live if t & req == req]
            if sub:
                chosen.append(candidates[i])
                extend(i + 1, chosen, req, sub)
                chosen.pop()

    extend(0, [], 0, tris)
    if len(set(out)) != len(out):
        raise RuntimeError(f"census of C({n},{d}) produced a subdivision twice")
    return out


def enumerate_subdivisions_by_type(
    n: int,
    d: int,
    sizes: Sequence[int],
) -> list[Subdivision]:
    """All proper subdivisions whose non-simplex cells are cyclic copies of
    `sizes`, by ranking.

    They are read off the Baues census at d' = n - 1: C(n, n-1) is a
    simplex, so every subset of 1..n but the whole is a face of it, and
    every subdivision of C(n,d) is pi-induced there.  Raises ValueError
    unless d <= n - 2: C(n, n-1) is a simplex with no proper subdivision.
    """
    if not d <= n - 2:
        raise ValueError(f"need d <= n - 2: C({n},{n - 1}) is a simplex and has no proper subdivision")
    sizes = tuple(sorted(sizes))
    if any(not d + 2 <= s <= n - 1 for s in sizes):
        raise ValueError("type sizes must lie in d+2 .. n-1")
    return [s for s in enumerate_baues_poset(n, d, n - 1).proper if s.type_sizes() == sizes]


# ---------------------------------------------------------------------------
# Baues posets
# ---------------------------------------------------------------------------


def pi_induced_masks(n: int, d: int, d_prime: int) -> list[int]:
    """The masks of the pi-induced triangulations of C(n,d), filtered off
    the reverse search in its order (`_reverse_search`), with no set packed.

    Every cell of a triangulation is a simplex with d+1 < n vertices, so the
    triangulation is pi-induced exactly when each cell is a face of
    C(n,d'): when the mask has no bit outside the mask of those faces.
    """
    if not d < d_prime < n:
        raise ValueError("need d < d' < n")
    cells = _flip_table(n, d)[0]
    faces = sum(1 << k for k, c in enumerate(cells) if gale_evenness_is_face(c, n, d_prime))
    return [t for t, _, _ in _reverse_search(n, d) if t & ~faces == 0]


@dataclass
class BauesPoset:
    """pi-induced subdivisions of C(n,d) under refinement, top included last."""

    n: int
    d: int
    d_prime: int
    elements: tuple[Subdivision, ...]

    @property
    def proper(self) -> tuple[Subdivision, ...]:
        return tuple(s for s in self.elements if not s.is_trivial)

    def proper_euler_characteristic(self) -> int:
        """Euler characteristic of the order complex of the proper part:
        the sum of (-1)^ranking(t) over the proper elements t.

        Let t have the cells C_1, ..., C_k.  The elements at or below t are
        the tuples of subdivisions of its cells: any choice glues, since
        cells of t meet in simplices with no other point, and is pi-induced,
        since every subset of a face of C(n,d') is a face.  The part of a
        product below its top is the join of the factors' parts below their
        tops (Quillen, Adv. Math. 1978, Prop. 1.9).  With Philip Hall's
        theorem, mu(0, t) is the reduced Euler characteristic of the part
        below t, so mu(0, t) = (-1)^(k-1) times the product of m(|C_i|, d),
        where m(j, d) is that of the proper part of the poset of all
        subdivisions of C(j,d).  Rambau and Santos (Europ. J. Combin. 2000)
        proved that proper part homotopy equivalent to a (j-d-2)-sphere, so
        m(j, d) = (-1)^(j-d) and mu(0, t) = -(-1)^ranking(t).  By Hall's
        theorem again the reduced Euler characteristic of the proper part
        is mu(0, 1) = -1 - sum mu(0, t), and chi is one more.
        """
        return sum(-1 if s.ranking() % 2 else 1 for s in self.proper)


def enumerate_baues_poset(n: int, d: int, d_prime: int) -> BauesPoset:
    """All pi-induced subdivisions for C(n,d') -> C(n,d), proper ones by ranking.

    The census runs on the faces of C(n,d') with at least d+2 vertices and
    the pi-induced triangulations, and this is exact: C(n,d') is simplicial,
    so every subset of a face is a face, and the placing triangulations of
    the cells of a pi-induced subdivision refine it to a pi-induced
    triangulation.  The trivial subdivision comes last.
    """
    if not d < d_prime < n:
        raise ValueError("need d < d' < n")
    proper = _census(n, d, enumerate_faces(n, d_prime, d + 2), pi_induced_masks(n, d, d_prime))
    proper.sort(key=lambda s: (s.ranking(), len(s.cells), s.cells))
    trivial = Subdivision.make([range(1, n + 1)], n, d)
    return BauesPoset(n, d, d_prime, tuple(proper) + (trivial,))


def order_complex_euler(below: Sequence[int]) -> int:
    """Euler characteristic of the order complex of a finite poset.

    below[i] is the bitset of the indices strictly below i, and all of them
    must be smaller than i: index order is a linear extension.  One pass of
    the Moebius function from an adjoined bottom, mu(i) = -1 - sum of mu(j)
    over j < i, gives chi = -sum mu (Philip Hall: the reduced Euler
    characteristic is mu of the bottom and an adjoined top).  The indices
    are kept in one bitset per value of mu, so each sum is a few popcounts.
    """
    with_value: dict[int, int] = {}  # value of mu -> bitset of the indices with it
    total = 0
    for i, b in enumerate(below):
        if b >> i:
            raise RuntimeError(f"element {i} has element {b.bit_length() - 1} below it")
        mu = -1 - sum(v * (b & s).bit_count() for v, s in with_value.items())
        with_value[mu] = with_value.get(mu, 0) | 1 << i
        total += mu
    return -total


# ---------------------------------------------------------------------------
# links, I/O
# ---------------------------------------------------------------------------


def link_of_vertex(cells: Iterable[Cell], v: int) -> list[Cell]:
    return sorted(tuple(x for x in c if x != v) for c in cells if v in c)


def good_link_vertex(tri: Iterable[Cell], n: int, d: int, v: int) -> bool:
    """Is the link of v contained in the boundary complex of C(n-1,d)?"""
    relabel = {i: (i if i < v else i - 1) for i in range(1, n + 1) if i != v}
    for c in link_of_vertex(tri, v):
        if not gale_evenness_is_face([relabel[x] for x in c], n - 1, d):
            return False
    return True


def format_triangulation(cells: Iterable[Cell], n: int) -> str:
    """The text of a set of cells, in sorted order, a repeated cell kept.

    Each cell is written by `format_face`: as digits for n <= 9, with the
    cells separated by ",", and as comma-separated indices for n >= 10,
    with the cells separated by ";", so that the text splits back into its
    cells.  `Subdivision.__str__` and the digit lines of a triangulation
    file are this text.
    """
    return ("," if n <= 9 else ";").join(format_face(c, n) for c in sorted(cells))


def parse_triangulation_line(line: str, n: int) -> tuple[Cell, ...]:
    """The cells of a digit line (n <= 9), in line order, a repeated cell kept."""
    return tuple(parse_face(tok, n) for tok in line.strip().split(",") if tok)


def format_triangulation_file(tris: Iterable[Iterable[Cell]], n: int, d: int) -> str:
    """The text of a triangulation file, in the format `read_triangulation_file`
    reads, with the triangulations in the order given.

    For n <= 9 it has one digit line per triangulation
    (`format_triangulation`); for n >= 10, where a cell has no digit
    string, it is the JSON export: a list of objects {"n", "d", "cells"},
    each cell a list of indices, the cells of each object sorted.
    """
    import json

    if n <= 9:
        return "".join(format_triangulation(t, n) + "\n" for t in tris)
    return json.dumps([{"n": n, "d": d, "cells": [list(c) for c in sorted(t)]} for t in tris])


def read_triangulation_file(text: str, n: int, d: int) -> tuple[str, list[tuple[int, tuple[Cell, ...]]]]:
    """The numbered triangulations of a file, and the word that numbers them.

    A text that starts with "[" or "{" is the JSON export (a list of
    objects, or one object), whose entries are numbered by position under
    the word "entry"; any other text has digit lines (n <= 9), numbered by
    file line under the word "line", blank lines counted and skipped.  A
    JSON entry must give n, and may give d; an entry written for another
    C(n,d) is rejected for its n or d, not for a cell check it would fail.
    Each triangulation is a tuple of its cells in file order, and a cell
    listed twice is kept twice, so that the checks of `coherence` reject
    it.  A ValueError names the line or entry it rejects.
    """
    import json

    stripped = text.lstrip()
    if not (stripped.startswith("[") or stripped.startswith("{")):
        tris = []
        for k, line in enumerate(text.splitlines(), 1):
            if line.strip():
                try:
                    tris.append((k, parse_triangulation_line(line, n)))
                except ValueError as exc:
                    raise ValueError(f"line {k}: parse error: {exc}") from None
        return "line", tris
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload = [payload]
    tris = []
    for k, entry in enumerate(payload, 1):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {k}: expected an object with \"n\" and \"cells\"")
        for key in ("n", "cells"):
            if key not in entry:
                raise ValueError(f"entry {k}: missing \"{key}\"")
        if entry["n"] != n:
            raise ValueError(f"entry {k}: n = {entry['n']}, expected {n}")
        if entry.get("d", d) != d:
            raise ValueError(f"entry {k}: d = {entry['d']}, expected {d}")
        cells = entry["cells"]
        if not isinstance(cells, list) or not all(
            isinstance(c, list) and all(type(v) is int for v in c) for c in cells
        ):
            raise ValueError(f"entry {k}: malformed cells")
        try:
            tris.append((k, tuple(as_face(c, n) for c in cells)))
        except ValueError as exc:
            raise ValueError(f"entry {k}: {exc}") from None
    return "entry", tris
