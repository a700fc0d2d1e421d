"""The four benchmark workloads: seeded inputs, the timed calls, and the checks.

Each workload has three parts:

* ``setup(seed)`` builds the inputs from the seed (seed 0 gives the paper's
  reference inputs) and does any enumeration the timed part needs;
* ``run(inputs)`` makes the same library calls the CLI subcommand makes and
  returns one outcome per unit, plus the start and end of each decision call;
* ``check(inputs, outcome, seed)`` compares the outcome with references that
  do not come from the code under test, outside the timed region.

The reference numbers live in ``workloads.json`` beside this file.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

from cyclicfiber import catalog, coherence, cyclic, lp, paths, subdiv

REFERENCE = json.loads((Path(__file__).with_name("workloads.json")).read_text())["workloads"]

ORACLE_SAMPLE = 6  # lower-hull oracle calls per regularity repetition (~0.14 s each)
VOLUME_SAMPLE = 2000  # C(11,3) triangulations whose volumes are re-added
PATHS_IMAGES = 4  # affine images of the UBC polytope per paths-ubc repetition at seeds other than 0


class Outcome:
    """What a repetition produced: per-unit results, failures and call times."""

    def __init__(self):
        self.units = 0
        self.failed: set[int] = set()  # indices of units that raised or failed a check
        self.failed_all = False  # an aggregate reference failed: every unit counts
        self.notes: list[str] = []
        self.calls: list[tuple[float, float]] = []  # perf_counter (start, end) per decision call
        self.results: list = []

    def fail(self, unit: int | None, note: str):
        if unit is None:
            self.failed_all = True
        else:
            self.failed.add(unit)
        if len(self.notes) < 20:
            self.notes.append(note)

    @property
    def failed_count(self) -> int:
        return self.units if self.failed_all else len(self.failed)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def realization(n: int, seed: int) -> list[Fraction]:
    """Seed 0: t = 1..n.  Otherwise strictly increasing thirds with gaps 1/3..2."""
    if seed == 0:
        return [Fraction(i) for i in range(1, n + 1)]
    rng = random.Random(seed)
    ts, t = [], Fraction(0)
    for _ in range(n):
        t += Fraction(rng.randint(1, 6), 3)
        ts.append(t)
    return ts


def ubc_image_columns(ubc, seed: int) -> list[list[int]]:
    """Integer image of the UBC polytope under an affine map that keeps x1.

    x2..x4 are permuted with random signs and sheared by a random multiple
    (-1, 0 or 1) of x1, and every coordinate is shifted by an integer in
    -20..20.  Such a map preserves the monotone paths in direction 1 and
    their coherence, so every image has the paper's 34 coherent of 60
    monotone paths, while the numbers and hence the pivots differ.  The
    vertex order is kept, so that images differ only in the numbers.
    """
    rng = random.Random(seed)
    axes = rng.sample(range(1, 4), 3)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    shears = [rng.randint(-1, 1) for _ in range(3)]
    shifts = [rng.randint(-20, 20) for _ in range(4)]
    x1 = ubc[0]
    rows = [[x + shifts[0] for x in x1]]
    for axis, sign, shear, shift in zip(axes, signs, shears, shifts[1:]):
        rows.append([sign * a + shear * x + shift for a, x in zip(ubc[axis], x1)])
    return rows


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks
# ---------------------------------------------------------------------------


def moment_dependence(ts: list[Fraction]) -> list[Fraction]:
    """Affine dependence of len(ts) moment-curve points in dimension len(ts)-2.

    lambda_i = 1 / prod_{j != i} (t_j - t_i), the divided-difference weights;
    they sum to zero against every polynomial of degree <= len(ts) - 2.
    """
    return [
        1 / prod((tj - ti for j, tj in enumerate(ts) if j != i), start=Fraction(1))
        for i, ti in enumerate(ts)
    ]


def interior_walls(cells, d: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(wall, u, v) for every d-subset shared by two simplices c = wall + u, wall + v."""
    owners: dict[tuple[int, ...], list[int]] = {}
    for c in cells:
        c = tuple(sorted(c))
        for i in range(len(c)):
            owners.setdefault(c[:i] + c[i + 1 :], []).append(c[i])
    return [(w, a[0], a[1]) for w, a in sorted(owners.items()) if len(a) == 2]


def fold_row(ts: list[Fraction], n: int, wall, u: int, v: int) -> list[Fraction]:
    """Row r with r.h > 0 iff heights h fold strictly convex across the wall."""
    z = sorted(wall + (u, v))
    lam = moment_dependence([ts[i - 1] for i in z])
    if lam[z.index(v)] < 0:
        lam = [-x for x in lam]
    row = [Fraction(0)] * n
    for i, x in zip(z, lam):
        row[i - 1] = x
    return row


def scaled_direction(row) -> tuple:
    """The row divided by the absolute value of its first nonzero entry."""
    lead = next((abs(x) for x in row if x != 0), None)
    return tuple(x / lead for x in row) if lead else tuple(row)


def check_regularity_witness(tri, ts, h) -> str | None:
    """None when heights h fold strictly at every interior wall of tri."""
    n, d = len(ts), len(next(iter(tri))) - 1
    if len(h) != n:
        return "witness has the wrong length"
    for wall, u, v in interior_walls(tri, d):
        if sum(r * x for r, x in zip(fold_row(ts, n, wall, u, v), h)) <= 0:
            return f"witness does not fold at wall {wall}"
    return None


def check_regularity_certificate(tri, ts, strict_rows, equalities, y) -> str | None:
    """None when y >= 0, y != 0 combines fold rows of tri to zero.

    Each row the program handed its solver must be a positive multiple of a
    fold row the benchmark computed itself, and every fold row must appear,
    so the certificate proves by Gordan's alternative that no heights fold
    at every wall.
    """
    n, d = len(ts), len(next(iter(tri))) - 1
    if equalities:
        return "a triangulation's regularity system has no equalities"
    mine = sorted(scaled_direction(fold_row(ts, n, *w)) for w in interior_walls(tri, d))
    if sorted(scaled_direction(r) for r in strict_rows) != mine:
        return "solver rows are not the triangulation's fold rows"
    if len(y) != len(strict_rows) or any(c < 0 for c in y) or sum(y) <= 0:
        return "certificate is not a nonnegative nonzero vector"
    combo = [sum((c * r[k] for c, r in zip(y, strict_rows)), Fraction(0)) for k in range(n)]
    if any(combo):
        return "certificate does not combine the rows to zero"
    return None


def is_degree_at_most(ts: list[Fraction], h, degree: int) -> bool:
    """Do the heights interpolate a polynomial of the given degree in t?"""
    k = degree + 2
    return all(
        sum((lam * x for lam, x in zip(moment_dependence(ts[i : i + k]), h[i : i + k])), Fraction(0)) == 0
        for i in range(len(ts) - k + 1)
    )


def simplex_volume(ts: list[Fraction], cell) -> Fraction:
    """Vandermonde volume of a simplex on the moment curve (up to d!)."""
    return abs(prod((ts[b - 1] - ts[a - 1] for a, b in combinations(sorted(cell), 2)), start=Fraction(1)))


# ---------------------------------------------------------------------------
# regularity-c94
# ---------------------------------------------------------------------------


def regularity_setup(seed: int):
    pv = cyclic.params(realization(9, seed), 4)
    tris = sorted(subdiv.enumerate_triangulations(9, 4), key=sorted)
    return {"pv": pv, "tris": tris}


def regularity_run(inputs) -> Outcome:
    out = Outcome()
    pv = inputs["pv"]
    clock = time.perf_counter
    for i, tri in enumerate(inputs["tris"]):
        start = clock()
        try:
            res = coherence.is_regular(tri, pv)
        except Exception as exc:  # a raising unit is a failed unit
            res = exc
        out.calls.append((start, clock()))
        out.results.append(res)
    out.units = len(inputs["tris"])
    return out


def regularity_check(inputs, out: Outcome, seed: int) -> None:
    ref = REFERENCE["regularity-c94"]["reference"]
    pv, tris = inputs["pv"], inputs["tris"]
    ts = list(pv.t)
    if len(tris) != ref["triangulations"]:
        out.fail(None, f"{len(tris)} triangulations of C(9,4), expected {ref['triangulations']}")
    witnesses, nonregular = [], 0
    for i, (tri, res) in enumerate(zip(tris, out.results)):
        if isinstance(res, lp.Witness):
            problem = check_regularity_witness(tri, ts, res.x)
            witnesses.append(i)
        elif isinstance(res, lp.Certificate):
            nonregular += 1
            system = coherence.regularity_system(tri, pv)
            problem = check_regularity_certificate(tri, ts, system.strict, system.equalities, res.y)
        else:
            problem = f"raised {res!r}"
        if problem:
            out.fail(i, f"triangulation {i}: {problem}")
    for i in random.Random(seed).sample(witnesses, min(ORACLE_SAMPLE, len(witnesses))):
        got = set(coherence.regular_subdivision_from_heights(pv, out.results[i].x).cells)
        if got != set(tris[i]):
            out.fail(i, f"triangulation {i}: lower hull of the witness is another subdivision")
    if seed == 0 and nonregular != ref["nonregular_seed0"]:
        out.fail(None, f"{nonregular} nonregular at t = 1..9, expected {ref['nonregular_seed0']}")


# ---------------------------------------------------------------------------
# fiber-c83
# ---------------------------------------------------------------------------


def fiber_setup(seed: int):
    return {"pv": cyclic.params(realization(8, seed), 3)}


def fiber_run(inputs) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    report = coherence.fiber_face_poset(8, 3, 5, inputs["pv"])
    f_vector = report.coherent_f_vector()
    chi = report.poset.proper_euler_characteristic()
    out.calls.append((start, time.perf_counter()))
    out.results = [report, f_vector, chi]
    out.units = len(report.poset.proper)
    return out


def fiber_check(inputs, out: Outcome, seed: int) -> None:
    ref = REFERENCE["fiber-c83"]["reference"]
    report, (v, e), chi = out.results
    pv = inputs["pv"]
    ts = list(pv.t)
    if out.units != ref["proper_elements"]:
        out.fail(None, f"{out.units} proper elements, expected {ref['proper_elements']}")
    if chi != ref["euler_characteristic"]:
        out.fail(None, f"Euler characteristic {chi}, expected {ref['euler_characteristic']}")
    if v != e or v < 3:
        out.fail(None, f"coherent f-vector ({v}, {e}) is not a polygon")
    if seed == 0 and v != ref["polygon_vertices_seed0"]:
        out.fail(None, f"{v}-gon at t = 1..8, expected {ref['polygon_vertices_seed0']}-gon")
    proper = [i for i, s in enumerate(report.poset.elements) if not s.is_trivial]
    for unit, i in enumerate(proper):
        res = report.results[i]
        if isinstance(res, lp.Witness):
            if not is_degree_at_most(ts, res.x, 5):
                out.fail(unit, f"element {i}: witness heights are not lifted from C(8,5)")
            elif set(coherence.regular_subdivision_from_heights(pv, res.x).cells) != set(
                report.poset.elements[i].cells
            ):
                out.fail(unit, f"element {i}: lower hull of the witness is another subdivision")
        elif not isinstance(res, lp.Certificate):
            out.fail(unit, f"element {i}: no verdict")


# ---------------------------------------------------------------------------
# paths-ubc
# ---------------------------------------------------------------------------


def paths_setup(seed: int):
    ubc = [list(r) for r in catalog.UBC_COUNTEREXAMPLE_MATRIX]
    if seed == 0:
        return {"instances": [ubc]}
    # the cost of one image varies by about a tenth between maps, so a run
    # averages over several of them
    return {"instances": [ubc_image_columns(ubc, PATHS_IMAGES * seed + j) for j in range(PATHS_IMAGES)]}


def paths_run(inputs) -> Outcome:
    out = Outcome()
    for columns in inputs["instances"]:
        start = time.perf_counter()
        poly = paths.GeneralPolytope.from_columns(columns)
        coherent = paths.coherent_paths_of_general_polytope(poly, 1)
        monotone = paths.monotone_edge_paths(poly, 1)
        out.calls.append((start, time.perf_counter()))
        out.results.append((coherent, monotone))
        out.units += len(monotone)
    return out


def paths_check(inputs, out: Outcome, seed: int) -> None:
    ref = REFERENCE["paths-ubc"]["reference"]
    if len(out.results) != len(inputs["instances"]):
        out.fail(None, f"{len(out.results)} results for {len(inputs['instances'])} polytopes")
    first = 0  # index of the instance's first unit
    for columns, (coherent, monotone) in zip(inputs["instances"], out.results):
        x1 = columns[0]
        lo = 1 + min(range(len(x1)), key=x1.__getitem__)
        hi = 1 + max(range(len(x1)), key=x1.__getitem__)
        known = set(monotone)
        for unit, p in enumerate(monotone, first):
            keys = [x1[v - 1] for v in p]
            if p[0] != lo or p[-1] != hi or any(a >= b for a, b in zip(keys, keys[1:])):
                out.fail(unit, f"path {p} is not x1-monotone from vertex {lo} to {hi}")
        for p in coherent:
            if p not in known:
                out.fail(None, f"coherent path {p} is not a monotone path")
        if (len(coherent), len(monotone)) != (ref["coherent"], ref["monotone"]):
            out.fail(None, f"{len(coherent)} coherent of {len(monotone)}, expected "
                     f"{ref['coherent']} of {ref['monotone']}")
        first += len(monotone)


# ---------------------------------------------------------------------------
# flips-c11
# ---------------------------------------------------------------------------


def flips_setup(seed: int):
    return {}


def flips_run(inputs) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    tris = subdiv.enumerate_triangulations(11, 3)
    out.calls.append((start, time.perf_counter()))
    out.results = [tris]
    out.units = len(tris)
    return out


def flips_check(inputs, out: Outcome, seed: int) -> None:
    ref = REFERENCE["flips-c11"]["reference"]
    (tris,) = out.results
    if len(tris) != ref["triangulations"]:
        out.fail(None, f"{len(tris)} triangulations of C(11,3), expected {ref['triangulations']}")
    ts = [Fraction(i) for i in range(1, 12)]
    # pulling vertex 1 over the facets {i, i+1, 11} not containing it
    total = sum(simplex_volume(ts, (1, i, i + 1, 11)) for i in range(2, 10))
    ordered = sorted(tris, key=sorted)
    for unit in random.Random(seed).sample(range(len(ordered)), min(VOLUME_SAMPLE, len(ordered))):
        cells = ordered[unit]
        if any(len(c) != 4 or not set(c) <= set(range(1, 12)) for c in cells):
            out.fail(unit, f"triangulation {unit} has a cell that is not a tetrahedron of C(11,3)")
        elif sum(simplex_volume(ts, c) for c in cells) != total:
            out.fail(unit, f"triangulation {unit}: cell volumes do not add up to C(11,3)")


WORKLOADS = {
    "regularity-c94": (regularity_setup, regularity_run, regularity_check),
    "fiber-c83": (fiber_setup, fiber_run, fiber_check),
    "paths-ubc": (paths_setup, paths_run, paths_check),
    "flips-c11": (flips_setup, flips_run, flips_check),
}
