"""Cellular strings, monotone edge paths and cyclic zonotopes.

A cellular string on C(n,d) for the projection to the first coordinate is a
pi-induced subdivision of the segment C(n,1): a `subdiv.Subdivision` with
d = 1 whose cells are faces of C(n,d).  The strings are the proper part of
`subdiv.enumerate_baues_poset(n, 1, d)`, ordered by `Subdivision.refines`,
and the monotone edge paths are its triangulations.

Sign vectors over {+, 0, -} encode both the faces of the cyclic zonotope
Z(n,d) and the cellular strings.  The statistic m(lambda) = even gaps + odd
gaps + zeros controls everything: proper zonotope faces satisfy m <= d-1,
coherent strings m <= d-2.  String coherence is decided two independent
ways: the m-statistic criterion and the LP, which is
`coherence.is_pi_coherent` for C(n,d) -> C(n,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, lcm
from typing import Sequence

from . import lp
from .coherence import is_pi_coherent
from .cyclic import ParamVector
from .linalg import Vector, frac, rank, vec
from .subdiv import Subdivision, pi_induced_masks

PLUS, MINUS, NULL = 1, -1, 0

SignVector = tuple[int, ...]


def sign_vector(text: str) -> SignVector:
    table = {"+": PLUS, "-": MINUS, "0": NULL}
    return tuple(table[c] for c in text.strip())


def format_sign_vector(lam: Sequence[int]) -> str:
    table = {PLUS: "+", MINUS: "-", NULL: "0"}
    return "".join(table[x] for x in lam)


def m_stat(lam: Sequence[int]) -> int:
    """Even gaps + odd gaps + zero entries.

    A gap is a pair of consecutive nonzero entries: an even gap has opposite
    signs separated by an even number of zeros (possibly none), an odd gap
    equal signs separated by an odd number.
    """
    lam = tuple(lam)
    zeros = sum(1 for x in lam if x == NULL)
    gaps = 0
    nz = [(i, x) for i, x in enumerate(lam) if x != NULL]
    for (i, a), (j, b) in zip(nz, nz[1:]):
        between = j - i - 1
        if (a != b and between % 2 == 0) or (a == b and between % 2 == 1):
            gaps += 1
    return gaps + zeros


def run_count(lam: Sequence[int]) -> int:
    """Number of maximal constant runs of a zero-free sign vector."""
    lam = tuple(lam)
    if NULL in lam:
        raise ValueError("run count is defined for zero-free vectors")
    return 1 + sum(1 for a, b in zip(lam, lam[1:]) if a != b)


def sign_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise order generated by + < 0 and - < 0."""
    return all(x == y or y == NULL for x, y in zip(a, b)) and len(a) == len(b)


@lru_cache(maxsize=32)
def zonotope_face_poset(n: int, d: int) -> tuple[SignVector, ...]:
    """Proper faces of Z(n,d): nonzero sign vectors with m(lambda) <= d-1."""
    from itertools import product

    return tuple(
        sorted(
            lam
            for lam in product((PLUS, NULL, MINUS), repeat=n)
            if any(lam) and m_stat(lam) <= d - 1
        )
    )


# ---------------------------------------------------------------------------
# cellular strings: the pi-induced subdivisions of C(n,1)
# ---------------------------------------------------------------------------


def lambda_of_string(sigma: Subdivision) -> SignVector:
    """The length n-2 encoding over interior vertices 2..n-1.

    + when the vertex appears in no face, - when it is the initial or
    terminal vertex of some face, 0 otherwise.
    """
    n = sigma.n
    ends = set()
    members = set()
    for f in sigma.cells:
        ends.add(f[0])
        ends.add(f[-1])
        members.update(f)
    out = []
    for i in range(2, n):
        if i not in members:
            out.append(PLUS)
        elif i in ends:
            out.append(MINUS)
        else:
            out.append(NULL)
    return tuple(out)


def string_of_lambda(lam: Sequence[int], n: int) -> Subdivision:
    """Reconstruct the string with a given encoding (inverse of lambda_of_string)."""
    lam = tuple(lam)
    if len(lam) != n - 2:
        raise ValueError("encoding must have length n-2")
    junctions = [1] + [i for i in range(2, n) if lam[i - 2] == MINUS] + [n]
    faces = []
    for a, b in zip(junctions, junctions[1:]):
        faces.append([a] + [i for i in range(a + 1, b) if lam[i - 2] == NULL] + [b])
    return Subdivision.make(faces, n, 1)


def enumerate_monotone_paths(n: int, d: int) -> tuple[Subdivision, ...]:
    """The pi-induced triangulations of C(n,1), sorted by cells.

    These are the monotone edge paths of C(n,d) from vertex 1 to vertex n.
    The cellular strings are `subdiv.enumerate_baues_poset(n, 1, d).proper`.
    """
    tris = (Subdivision.of_mask(t, n, 1) for t in pi_induced_masks(n, 1, d))
    return tuple(sorted(tris, key=lambda s: s.cells))


def format_path(sigma: Subdivision) -> str:
    """A monotone path as its vertices joined by dashes, e.g. 1-3-5-8."""
    return "-".join(str(c[0]) for c in sigma.cells) + f"-{sigma.n}"


def is_coherent_string(lam: Sequence[int], d: int) -> bool:
    """The m-statistic criterion: coherent iff m(lambda) <= d-2."""
    return m_stat(lam) <= d - 2


def is_coherent_string_lp(sigma: Subdivision, pv: ParamVector) -> lp.FeasibilityResult:
    """Heights in Q^n lifting the string's faces, or a Farkas certificate."""
    if sigma.n != pv.n or sigma.d != 1:
        raise ValueError("string does not match the parameter vector")
    return is_pi_coherent(sigma.cells, pv.with_dimension(1), pv.d)


def count_coherent_paths(n: int, d: int) -> int:
    """Closed form 2 * sum_{j<=d-2} C(n-3, j)."""
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    return 2 * sum(comb(n - 3, j) for j in range(0, d - 1))


def path_count_upper_bound(n: int, d: int) -> int:
    """2 * q_{d-2}(C(n,3) - 1), the hyperplane-arrangement region bound."""
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    m = comb(n, 3) - 1
    return 2 * sum(comb(m, j) for j in range(0, d - 1))


# ---------------------------------------------------------------------------
# monotone paths of a general polytope (the UBC counterexample machinery)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralPolytope:
    """Full-dimensional polytope given by exact vertex columns.

    `vertices` holds the input values.  Every decision reads `int_vertices`
    instead, the vertices times the lcm of all their denominators: a positive
    scaling changes no edge, monotone path or verdict, and integer rows keep
    the LP kernel on its integer path.
    """

    vertices: tuple[Vector, ...]
    dim: int

    @staticmethod
    def from_columns(matrix: Sequence[Sequence]) -> "GeneralPolytope":
        rows = [vec(r) for r in matrix]
        d = len(rows)
        nv = len(rows[0])
        verts = tuple(tuple(rows[k][j] for k in range(d)) for j in range(nv))
        p = GeneralPolytope(verts, d)
        p.validate()
        return p

    @cached_property
    def int_vertices(self) -> tuple[tuple[int, ...], ...]:
        """The vertices scaled by the lcm of all their denominators, as integers."""
        den = lcm(*(x.denominator for v in self.vertices for x in v))
        return tuple(tuple(x.numerator * (den // x.denominator) for x in v) for v in self.vertices)

    def validate(self):
        """Full dimension, and for each vertex v some c with c . (v - u) > 0 for every other u."""
        d, verts = self.dim, self.int_vertices
        if rank([tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]) != d:
            raise ValueError("vertex set is not full-dimensional")
        for j, v in enumerate(verts):
            rows = tuple(tuple(a - b for a, b in zip(v, u)) for i, u in enumerate(verts) if i != j)
            if isinstance(lp.solve_strict(lp.StrictSystem(rows, (), d)), lp.Certificate):
                raise ValueError(f"vertex {j + 1} is not extreme")

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """`polytope_edges`, computed once per polytope."""
        return tuple(polytope_edges(self))


def edge_system(p: GeneralPolytope, a: int, b: int) -> lp.StrictSystem:
    """The functionals that single out the segment from vertex a to vertex b.

    The segment is an edge when some c has c . e = 0 for e = u - v and
    c . (u - x) > 0 for every other vertex x, where u and v are vertices a
    and b (1-based).  The equality is projected out: orient e so that
    e_k > 0 at the first coordinate k with e_k != 0; then
    c_k = -(sum_(i != k) c_i e_i) / e_k, and c . r has the sign of
    sum_(i != k) c_i (e_k r_i - r_k e_i).  That leaves one strict integer row
    per other vertex in the d - 1 unknowns c_i, i != k.  A witness c' maps
    back to c_i = e_k c'_i for i != k and c_k = -sum_(i != k) c'_i e_i.
    """
    verts = p.int_vertices
    u = verts[a - 1]
    e = [s - t for s, t in zip(u, verts[b - 1])]
    k = next(i for i, x in enumerate(e) if x)
    if e[k] < 0:
        e = [-x for x in e]
    rest = [i for i in range(p.dim) if i != k]
    strict = []
    for j, x in enumerate(verts, 1):
        if j not in (a, b):
            r = [s - t for s, t in zip(u, x)]
            strict.append(tuple(e[k] * r[i] - r[k] * e[i] for i in rest))
    return lp.StrictSystem(tuple(strict), (), p.dim - 1)


def polytope_edges(p: GeneralPolytope) -> list[tuple[int, int]]:
    """1-based vertex pairs spanning edges, by exact supporting-functional LPs.

    Each pair is decided by `edge_system`, a strict system in d - 1 unknowns.
    A 1-polytope leaves no unknown: its only edge joins its two vertices.
    """
    n = len(p.vertices)
    if p.dim == 1:
        return [(1, 2)] if n == 2 else []
    return [
        (a, b)
        for a, b in combinations(range(1, n + 1), 2)
        if isinstance(lp.solve_strict(edge_system(p, a, b)), lp.Witness)
    ]


def monotone_edge_paths(p: GeneralPolytope, direction: int) -> list[tuple[int, ...]]:
    """Vertex index paths from the direction-min to the direction-max vertex."""
    _check_direction(p, direction)
    n = len(p.vertices)
    key = [v[direction - 1] for v in p.int_vertices]
    if len(set(key)) != n:
        raise ValueError("direction is not generic: tied coordinate values")
    lo = min(range(n), key=lambda j: key[j]) + 1
    hi = max(range(n), key=lambda j: key[j]) + 1
    adj: dict[int, list[int]] = {j: [] for j in range(1, n + 1)}
    for a, b in p.edges:
        if key[a - 1] < key[b - 1]:
            adj[a].append(b)
        else:
            adj[b].append(a)
    out: list[tuple[int, ...]] = []

    def dfs(v: int, acc: list[int]):
        if v == hi:
            out.append(tuple(acc))
            return
        for w in sorted(adj[v], key=lambda j: key[j - 1]):
            acc.append(w)
            dfs(w, acc)
            acc.pop()

    dfs(lo, [lo])
    return out


def path_coherence_system(
    p: GeneralPolytope, path: Sequence[int], direction: int
) -> lp.StrictSystem:
    """The walls system: the lower hull of {(x_direction, f(x))} is the path.

    The unknowns are the coefficients of f other than f_direction, which
    changes no verdict.  One strict row per inner path vertex folds the
    lifted path up there, lifting the next vertex above the line of the
    previous edge; one per vertex off the path lifts it above the path edge
    that spans it in x_direction.  By convexity every vertex then lies
    strictly above the line of each path edge it is not on.  The path must
    rise from the unique lowest vertex to the unique highest one.  The rows
    are integers, built from `GeneralPolytope.int_vertices`.
    """
    _check_direction(p, direction)
    verts = p.int_vertices
    n, key = len(verts), [v[direction - 1] for v in verts]
    steps = list(zip(path, path[1:]))
    if (
        not path
        or not set(path) <= set(range(1, n + 1))
        or any(key[u - 1] >= key[v - 1] for u, v in steps)
        or sum(k <= key[path[0] - 1] for k in key) + sum(k >= key[path[-1] - 1] for k in key) != 2
    ):
        raise ValueError("path does not rise in x_direction from the lowest to the highest vertex")
    keep = [k for k in range(p.dim) if k != direction - 1]

    def above(u: int, v: int, j: int) -> Vector:
        """Vertex j strictly above the lifted line through vertices u and v."""
        a, b, c = key[u - 1], key[v - 1], key[j - 1]
        pu, pv, x = verts[u - 1], verts[v - 1], verts[j - 1]
        return tuple((b - a) * x[k] - (b - c) * pu[k] - (c - a) * pv[k] for k in keep)

    strict = [above(u, v, w) for (u, v), (_, w) in zip(steps, steps[1:])]
    strict += [  # the first edge reaching vertex j: ties with a path vertex end there
        above(*next(s for s in steps if key[j - 1] <= key[s[1] - 1]), j)
        for j in range(1, n + 1)
        if j not in path
    ]
    return lp.StrictSystem(tuple(strict), (), p.dim - 1)


def _check_direction(p: GeneralPolytope, direction: int) -> None:
    if not 1 <= direction <= p.dim:
        raise ValueError(f"direction x{direction} is not a coordinate of a {p.dim}-polytope")


def coherent_paths_of_general_polytope(
    p: GeneralPolytope, direction: int
) -> list[tuple[int, ...]]:
    out = []
    for path in monotone_edge_paths(p, direction):
        res = lp.solve_strict(path_coherence_system(p, path, direction))
        if isinstance(res, lp.Witness):
            out.append(path)
    return out


def cyclic_as_general_polytope(pv: ParamVector) -> GeneralPolytope:
    from .cyclic import moment_points

    return GeneralPolytope(tuple(moment_points(pv)), pv.d)


def parse_matrix(text: str) -> GeneralPolytope:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([frac(tok) for tok in line.replace(",", " ").split()])
    if not any(rows):
        raise ValueError("empty matrix")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged matrix")
    return GeneralPolytope.from_columns(rows)
