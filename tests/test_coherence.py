import gc
import random
import re
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest

from conftest import random_heights, random_params
from cyclicfiber import catalog, coherence, lp
from cyclicfiber.coherence import (
    fiber_face_poset,
    find_coherent_on_path,
    is_pi_coherent,
    is_regular,
    parameter_scan,
    pi_coherence_system,
    regular_subdivision_from_heights,
    regularity_system,
)
from cyclicfiber.cyclic import params, parse_face, standard_params, symmetric_params
from cyclicfiber.gale import unique_dependence_coeffs
from cyclicfiber.paths import count_coherent_paths, is_coherent_string_lp
from cyclicfiber.subdiv import (
    Subdivision,
    circuit_turn,
    enumerate_baues_poset,
    enumerate_triangulations,
    parse_triangulation_line,
    placing_triangulation,
)
from oracles import (
    _reference_skeleton,
    chain_count_euler,
    dot,
    extend_by_placing,
    has_upper_and_lower_cells,
    is_triangulation,
    is_valid_triangulation,
    leq,
    pairwise_minimal,
    reference_below,
    reference_circuit_coeffs,
    reference_decide,
    reference_fiber_results,
    reference_plane_refutation,
    reference_regular_subdivision_from_heights,
    refines,
    sub_params,
    tau_star_heights,
)


def test_single_wall_system_c42():
    pv = standard_params(4, 2)
    system = regularity_system([(1, 2, 3), (1, 3, 4)], pv)
    assert len(system.strict) == 1 and not system.equalities
    row = system.strict[0]
    scale = row[3]
    assert tuple(x / scale for x in row) == (-1, 3, -3, 1)
    assert sum(r * w for r, w in zip(row, (0, 0, 0, 1))) > 0


def _reference_row(pv, z):
    row = [Fraction(0)] * pv.n
    for i, c in zip(z, reference_circuit_coeffs(pv, z)):
        row[i - 1] = c
    return tuple(row)


@pytest.mark.parametrize("n", range(3, 10))
def test_system_rows_match_reference_circuits(n):
    """Each (base, j) row, signed positive at j, and each coplanarity row, at two realizations."""
    rng = random.Random(n)
    for d in range(1, n - 1):
        for pv in (standard_params(n, d), random_params(n, d, rng)):
            rows = coherence._scattered(pv)
            for base in combinations(range(1, n + 1), d + 1):
                # one point-above-cell key per point j outside the cell, in order of j
                keys, _ = _reference_skeleton([base], n, d, "bmatrix")
                outside = [j for j in range(1, n + 1) if j not in base]
                for j, key in zip(outside, keys, strict=True):
                    ref = _reference_row(pv, tuple(sorted(base + (j,))))
                    want = ref if ref[j - 1] > 0 else tuple(-x for x in ref)
                    assert rows.row(*key) == want, (pv, base, j)
            for z in combinations(range(1, n + 1), d + 2):
                _, keys = _reference_skeleton([z], n, d, "bmatrix")
                assert [rows.row(*key) for key in keys] == [_reference_row(pv, z)]


@pytest.mark.parametrize("kind", ["standard", "symmetric", "random"])
@pytest.mark.parametrize("n, d", [(7, 2), (8, 3), (9, 4), (8, 1)])
def test_a_rows_are_the_mapped_circuit_rows(n, d, kind):
    """The a-row of (z, k) is the Q^n circuit row applied to the heights
    (L t_i)^(d+1+m) of each unit vector a = e_m, times L^-(d+1), exactly."""
    if kind == "random":
        pv = random_params(n, d, random.Random(n))
    else:
        pv = (standard_params if kind == "standard" else symmetric_params)(n, d)
    scale = lcm(*(t.denominator for t in pv.t))
    unknowns = n - 1 - d
    lifted = [[(scale * t) ** (d + 1 + m) for t in pv.t] for m in range(unknowns)]
    rows = coherence._coordinates(pv, n - 1)
    first = coherence._coordinates(pv, d + 1)  # d' = d + 1 keeps the first column
    for z in combinations(range(1, n + 1), d + 2):
        ref = _reference_row(pv, z)
        for k in range(d + 2):
            signed = ref if ref[z[k] - 1] > 0 else tuple(-x for x in ref)
            mapped = tuple(
                sum(r * h for r, h in zip(signed, heights)) / scale ** (d + 1)
                for heights in lifted
            )
            assert rows.row(z, k) == mapped, (pv, z, k)
            assert first.row(z, k) == mapped[:1]


def _assert_decisions_match_the_q_n_system(poset, pv, rng=None):
    """The a-coordinate verdicts equal the Q^n oracle's, and every result
    holds on the Q^n system: each witness is integer heights that satisfy
    it, and each certificate certifies it.  Every witness, or a seeded
    sample of four per poset when rng is given, must also reproduce its
    subdivision as a lower hull (the oracle takes about 17 ms a witness at
    n = 8, where some posets have 900 witnesses)."""
    witnesses = []
    for s in poset.proper:
        res = is_pi_coherent(s.cells, pv, poset.d_prime)
        system = pi_coherence_system(s.cells, pv, poset.d_prime)
        oracle = lp.solve_strict(system)
        assert type(res) is type(oracle), (pv, poset.d_prime, str(s))
        assert lp.verify(system, res), (pv, poset.d_prime, str(s))
        entries = res.x if isinstance(res, lp.Witness) else res.y
        assert all(type(v) is int for v in entries), (pv, poset.d_prime, str(s))
        if isinstance(res, lp.Witness):
            witnesses.append((s, res))
    if rng is not None:
        witnesses = rng.sample(witnesses, min(4, len(witnesses)))
    for s, res in witnesses:
        assert regular_subdivision_from_heights(pv, res.x).cells == s.cells, (pv, str(s))


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("n", range(4, 9))
def test_pi_coherence_decisions_match_the_q_n_system(n, kind):
    rng = random.Random(n)
    for d in range(1, n - 1):
        pv = standard_params(n, d) if kind == "standard" else random_params(n, d, rng)
        for d_prime in range(d + 1, n):
            poset = enumerate_baues_poset(n, d, d_prime)
            _assert_decisions_match_the_q_n_system(poset, pv, rng if n > 6 else None)


@pytest.mark.parametrize("d, d_prime", [(3, 5), (4, 6)])
def test_pi_coherence_decisions_match_the_q_n_system_at_nine_points(d, d_prime):
    poset = enumerate_baues_poset(9, d, d_prime)
    _assert_decisions_match_the_q_n_system(poset, standard_params(9, d))


def _assert_flags_match_the_oracle(report, want, rng):
    """`report.results` against `want`, the per-element oracle's results.

    They are equal entry for entry, except that at d' = d + 2 a witness is
    read off the circuit turn, not solved for.  There the verdict types and
    the certificates are equal, and each witness must hold on the Q^n
    system and reproduce its subdivision as a lower hull: every witness at
    n <= 7, a seeded sample of four beyond (the lower hull takes about 17
    ms a witness at n = 8)."""
    poset, pv = report.poset, report.pv
    got = report.results
    if poset.d_prime - poset.d != 2:
        assert got == want, (pv, poset.d_prime)
        return
    assert [type(r) for r in got] == [type(r) for r in want], (pv, poset.d_prime)
    assert [r for r in got if isinstance(r, lp.Certificate)] == [
        r for r in want if isinstance(r, lp.Certificate)
    ], (pv, poset.d_prime)
    witnesses = [(s, r) for s, r in zip(poset.elements, got) if isinstance(r, lp.Witness)]
    for s, res in witnesses:
        assert lp.verify(pi_coherence_system(s.cells, pv, poset.d_prime), res), (pv, str(s))
    if poset.n > 7:
        witnesses = rng.sample(witnesses, min(4, len(witnesses)))
    for s, res in witnesses:
        assert regular_subdivision_from_heights(pv, res.x).cells == s.cells, (pv, str(s))


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("n", range(4, 9))
def test_flagging_matches_the_per_element_oracle(n, kind):
    """Flagging from numbered cells and memoized fold rows gives the same
    Witness or Certificate, entry for entry, as one oracle decision per
    element, at every d < d' < n; at d' = d + 2 each witness comes from the
    circuit turn and is checked instead (`_assert_flags_match_the_oracle`)."""
    rng = random.Random(n)
    for d in range(1, n - 1):
        pv = standard_params(n, d) if kind == "standard" else random_params(n, d, rng)
        for d_prime in range(d + 1, n):
            report = fiber_face_poset(n, d, d_prime, pv)
            want = reference_fiber_results(n, d, d_prime, pv)
            _assert_flags_match_the_oracle(report, want, random.Random(d_prime))
            got = report.results
            # a verdict is None exactly where `results` holds a D = 2 certificate
            unread = [
                r is None or d_prime - d == 2 and isinstance(r, lp.Certificate) for r in got
            ]
            assert [v is None for v in report.verdicts] == unread, (pv, d_prime)
            assert all(v is None or v == r for v, r in zip(report.verdicts, got)), (pv, d_prime)


@pytest.mark.parametrize("d, d_prime", [(4, 6), (3, 5)])
def test_flagging_matches_the_per_element_oracle_at_nine_points(d, d_prime):
    pv = standard_params(9, d)
    report = fiber_face_poset(9, d, d_prime, pv)
    _assert_flags_match_the_oracle(report, reference_fiber_results(9, d, d_prime, pv), random.Random(d))


@pytest.mark.parametrize("kind", ["standard", "random"])
@pytest.mark.parametrize("n", range(4, 9))
def test_plane_test_matches_the_lp(n, kind):
    """For d' = d + 2 the plane test, which solves no LP, refutes exactly the
    systems that `solve_strict` refutes, every refutation passes
    `lp.verify`, and a unit refutation of a system with equalities is the
    LP's certificate."""
    rng = random.Random(n)
    for d in range(1, n - 2):
        pv = standard_params(n, d) if kind == "standard" else random_params(n, d, rng)
        table, rows = coherence._cell_table(n, d), coherence._coordinates(pv, d + 2)
        for s in enumerate_baues_poset(n, d, d + 2).proper:
            system = table.system(table.number(s.cells), rows)
            y = reference_plane_refutation(system)
            res = lp.solve_strict(system)
            assert (y is None) == isinstance(res, lp.Witness), (pv, str(s))
            if y is not None:
                assert lp.verify(system, lp.Certificate(tuple(y))), (pv, str(s))
                if system.equalities and sum(y) == 1:
                    assert tuple(y) == res.y, (pv, str(s))


@pytest.mark.parametrize(
    "strict, equalities, y",
    [
        # two distinct equality sums force a = 0: the first row refutes
        ([(1, 5), (-1, -3)], [(1, 2), (-1, -4)], (1, 0)),
        # one equality sum 2: c = (1, 0, -1), so the second row is forced to zero
        ([(1, 3), (-1, -2), (1, 1)], [(1, 2)], (0, 1, 0)),
        # one equality sum 0: c = (1, -2), one row of each sign
        ([(1, 1), (1, -2)], [(-1, 0)], (2, 1)),
        ([(1, 1), (-1, 1)], [(1, 0)], None),
        # rows of one sign only
        ([(1, 1), (1, 5), (1, -2)], [], None),
        ([(-1, 4), (-1, -7)], [], None),
        # every sum of S- below every sum of S+, and the other way round
        ([(1, 5), (1, 6), (-1, -1), (-1, -2)], [], None),
        ([(1, 1), (1, 2), (-1, -5), (-1, -6)], [], None),
        # S+ = {1, 5} around S- = {3}: p = 3, and 2 (1,1) + 2 (1,5) = 4 (1,3)
        ([(1, 1), (1, 5), (-1, -3)], [], (2, 2, 4)),
        # S+ = {1, 2} and S- = {2, 4} touch at p = 2: 2 (1,2) = 2 (1,2)
        ([(1, 1), (1, 2), (-1, -2), (-1, -4)], [], (0, 2, 2, 0)),
    ],
)
def test_plane_test_edge_cases(strict, equalities, y):
    system = lp.StrictSystem(tuple(strict), tuple(equalities), 2)
    got = reference_plane_refutation(system)
    assert got == (None if y is None else list(y))
    res = lp.solve_strict(system)
    assert isinstance(res, lp.Witness) == (y is None)
    if y is not None:
        assert lp.verify(system, lp.Certificate(y))
        if equalities and sum(y) == 1:
            assert res.y == y


def _realizations(n, d):
    """Standard, symmetric (many tied circuit sums), powers of two (no ties)
    and seeded random parameters."""
    rng = random.Random(100 * n + d)
    return [
        standard_params(n, d),
        symmetric_params(n, d),
        params([2**k for k in range(n)], d),
        random_params(n, d, rng),
    ]


@pytest.mark.parametrize("n", range(3, 10))
def test_the_circuit_turn_starts_at_the_placing_triangulation(n):
    """S(e_0), the lower hull of the heights of a = (1, 0), is the placing
    triangulation, the start of `subdiv.circuit_turn`."""
    for d in range(1, n - 1):
        for pv in _realizations(n, d):
            heights = coherence._coordinates(pv, d + 2).heights((1, 0))
            hull = regular_subdivision_from_heights(pv, heights)
            assert set(hull.cells) == set(placing_triangulation(n, d)), (pv, d)


@pytest.mark.parametrize("n", range(4, 10))
def test_the_circuit_turn_meets_exactly_the_coherent_elements(n, monkeypatch):
    """At every (n, d, d + 2), the turn meets each coherent element of the
    per-element oracle once and nothing else, and `results` matches the
    oracle (`_assert_flags_match_the_oracle`)."""
    met = []

    def recorded(*args):
        met[:] = circuit_turn(*args)
        return met

    monkeypatch.setattr(coherence, "circuit_turn", recorded)
    rng = random.Random(n)
    for d in range(1, n - 2):
        for pv in _realizations(n, d):
            report = fiber_face_poset(n, d, d + 2, pv)
            want = reference_fiber_results(n, d, d + 2, pv)
            coherent = [s for s, r in zip(report.poset.elements, want) if isinstance(r, lp.Witness)]
            seen = [s for _, s in met]
            assert len(seen) == len(set(seen)) and set(seen) == set(coherent), (pv, d)
            # per flipping group, in turn order: a triangulation, then an edge
            positions = [g for g, _ in met]
            assert positions[::2] == positions[1::2] == sorted(set(positions)), (pv, d)
            assert [s.ranking() > 0 for s in seen] == [False, True] * (len(seen) // 2), (pv, d)
            _assert_flags_match_the_oracle(report, want, rng)


def test_fiber_polygons_solve_only_the_incoherent_elements(monkeypatch):
    """At (8,3,5) flagging builds the systems of the 14 + 14 coherent
    elements and solves none; reading `results` solves the 256 others."""
    calls, built = [], []
    solve, build = lp.solve_strict, coherence._CellTable.system

    def counted(system):
        calls.append(system)
        return solve(system)

    def counted_build(self, ids, rows):
        built.append(ids)
        return build(self, ids, rows)

    monkeypatch.setattr(lp, "solve_strict", counted)
    monkeypatch.setattr(coherence._CellTable, "system", counted_build)
    report = fiber_face_poset(8, 3, 5)
    assert len(report.coherent_indices) == len(built) == 28 and not calls
    assert report.coherent_f_vector() == (14, 14)
    results = report.results
    assert len(calls) == 256 and len(built) == 284
    assert sum(isinstance(r, lp.Certificate) for r in results) == 256
    assert report.results is results


def test_fiber_polygons_raise_on_a_turn_that_misses_a_coherent_element(monkeypatch):
    monkeypatch.setattr(coherence, "circuit_turn", lambda *args: circuit_turn(*args)[1:])
    report = fiber_face_poset(6, 2, 4)
    assert report.coherent_f_vector() == (7, 8)
    with pytest.raises(lp.SolverError, match="does not meet"):
        report.results


def test_fiber_polygons_raise_on_a_turn_that_meets_an_incoherent_element(monkeypatch):
    report = fiber_face_poset(6, 2, 4)
    extra = next(
        s for s, r in zip(report.poset.elements, report.results) if isinstance(r, lp.Certificate)
    )
    monkeypatch.setattr(coherence, "circuit_turn", lambda *args: circuit_turn(*args) + [(0, extra)])
    with pytest.raises(lp.SolverError, match="does not induce"):
        fiber_face_poset(6, 2, 4)


def test_a_circuit_walk_that_does_not_close_raises():
    # in the pentagon, flipping 1234 and then 1245 leaves no half of 1234 to
    # flip back in the second pass
    with pytest.raises(RuntimeError, match="does not close"):
        circuit_turn(5, 2, [[0], [2]])


def test_fiber_at_10_6_9():
    """A d' = 9 triple, where cells of nine points occur: its counts at
    t = 1..10, and the minimal coherent elements read off the reference order."""
    report = fiber_face_poset(10, 6, 9)
    bp = report.poset
    assert len(bp.proper) == 372
    coherent = report.coherent_indices
    assert len(coherent) == 326
    assert bp.proper_euler_characteristic() == 2
    below = reference_below(bp)
    among = sum(1 << i for i in coherent)
    minimal = [i for i in coherent if not below[i] & among]
    assert report.coherent_f_vector() == (len(minimal), 326 - len(minimal)) == (96, 230)


def test_a_regular_proper_subdivision_with_the_ranking_of_the_whole():
    """The ranking of a subdivision need not drop under refinement."""
    cells = [parse_face(c, 9) for c in "123456,12367,123789,134679,14569,34789,456789".split(",")]
    s = Subdivision.make(cells, 9, 4)
    assert s.ranking() == Subdivision.make([range(1, 10)], 9, 4).ranking() == 4
    pv = standard_params(9, 4)
    res = is_regular(s.cells, pv)
    assert isinstance(res, lp.Witness)
    assert regular_subdivision_from_heights(pv, res.x) == s


@pytest.mark.parametrize("style", ["walls", "bmatrix"])
def test_regularity_matches_the_per_element_oracle(style):
    """The walls oracle gives the library's Witness or Certificate entry for
    entry; the point-above-cell oracle, with other rows, gives its verdict."""
    rng = random.Random(5)
    for n, d in [(6, 1), (7, 2), (7, 3), (8, 4)]:
        for pv in (standard_params(n, d), random_params(n, d, rng)):
            for tri in enumerate_triangulations(n, d):
                got = is_regular(tri, pv)
                expected = reference_decide(tri, pv, n - 1, style)
                if style == "bmatrix":
                    got, expected = type(got), type(expected)
                assert got == expected, (pv, tri)


def test_wall_rows_are_reference_circuits():
    rng = random.Random(4)
    for n, d in [(6, 1), (7, 2), (7, 3), (8, 4)]:
        pv = random_params(n, d, rng)
        for tri in enumerate_triangulations(n, d):
            for row in regularity_system(tri, pv).strict:
                ref = _reference_row(pv, tuple(i + 1 for i, x in enumerate(row) if x))
                assert row in (ref, tuple(-x for x in ref))


def test_rows_follow_the_realization():
    """Realizations that differ only in t_n share no row through vertex n."""
    a, b = standard_params(7, 3), params([1, 2, 3, 4, 5, 6, 8], 3)
    tri = placing_triangulation(7, 3)
    first = regularity_system(tri, a).strict
    other = regularity_system(tri, b).strict
    assert regularity_system(tri, a).strict == first
    assert any(row[-1] for row in first)
    for ra, rb in zip(first, other, strict=True):
        assert (ra == rb) == (ra[-1] == 0), (ra, rb)


def test_trivial_subdivision_regular_with_zero_heights():
    # C(4,3) is a simplex, where regularity leaves no unknown in a-coordinates
    for n, d, coplanarities in [(5, 2, 2), (4, 3, 0)]:
        pv = standard_params(n, d)
        cells = [tuple(range(1, n + 1))]
        system = regularity_system(cells, pv)
        assert not system.strict and len(system.equalities) == coplanarities
        res = is_regular(cells, pv)
        assert isinstance(res, lp.Witness) and res.x == (0,) * n


def test_oracle_examples():
    pv = standard_params(4, 2)
    assert regular_subdivision_from_heights(pv, (0, 0, 0, 0)).cells == ((1, 2, 3, 4),)
    assert regular_subdivision_from_heights(pv, (0, 0, 0, 1)).cells == (
        (1, 2, 3),
        (1, 3, 4),
    )


def test_oracle_round_trip_random_heights():
    rng = random.Random(13)
    for n, d in [(6, 2), (7, 3), (7, 4)]:
        pv = random_params(n, d, rng)
        for _ in range(8):
            w = random_heights(n, rng)
            sub = regular_subdivision_from_heights(pv, w)
            res = is_regular(sub.cells, pv)
            assert isinstance(res, lp.Witness)
            assert regular_subdivision_from_heights(pv, res.x) == sub


def _lower_hull_cases():
    """(pv, heights): LP witnesses of C(9,4), of (8,3,5) at two realizations
    and of d = 1 strings, and non-generic heights."""
    rng = random.Random(31)
    pv = standard_params(9, 4)
    results = (is_regular(tri, pv) for tri in enumerate_triangulations(9, 4))
    witnesses = [res.x for res in results if isinstance(res, lp.Witness)]
    yield from ((pv, w) for w in rng.sample(witnesses, 60))
    poset = enumerate_baues_poset(8, 3, 5)
    for pv in (standard_params(8, 3), random_params(8, 3, rng)):
        for s in poset.proper:
            res = is_pi_coherent(s.cells, pv, 5)
            if isinstance(res, lp.Witness):
                yield pv, res.x
    for n in range(3, 8):
        for d in range(2, n):
            pv = random_params(n, d, rng)
            for s in enumerate_baues_poset(n, 1, d).proper:
                res = is_coherent_string_lp(s, pv)
                if isinstance(res, lp.Witness):
                    yield pv.with_dimension(1), res.x
    pv = standard_params(4, 2)
    yield from ((pv, w) for w in [(0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1)])
    for pv in (random_params(6, 2, rng), random_params(7, 3, rng), symmetric_params(7, 4)):
        yield from ((pv, random_heights(pv.n, rng)) for _ in range(8))
        # affine heights lift no fold, and t^(d+1) on a part of the points ties many bases
        yield pv, tuple(3 - 2 * t for t in pv.t)
        yield pv, tuple(t ** (pv.d + 1) if i % 2 else 0 for i, t in enumerate(pv.t))


def test_lower_hull_matches_the_fraction_oracle():
    cases = 0
    for pv, w in _lower_hull_cases():
        got = regular_subdivision_from_heights(pv, w)
        assert got == reference_regular_subdivision_from_heights(pv, w), (pv, w)
        cases += 1
    assert cases > 200


@pytest.mark.parametrize("style", ["walls", "bmatrix"])
@pytest.mark.parametrize("line", ["13,35", "123,35", "15"])
def test_segment_witness_lifts_points_in_no_cell(style, line):
    # at d = 1 the interior points are no vertices, and points 2 and 4 of
    # these subdivisions lie in no cell: the witness must lift them too
    pv = standard_params(5, 1)
    cells = parse_triangulation_line(line, 5)
    for res in (is_regular(cells, pv), reference_decide(cells, pv, 4, style)):
        assert isinstance(res, lp.Witness)
        assert set(regular_subdivision_from_heights(pv, res.x).cells) == set(cells)


def test_numbered_cells_are_not_canonicalized_again(monkeypatch):
    # the cell table of C(7,3) is shared by every realization, so it starts
    # empty only after the memo is cleared
    coherence._cell_table.cache_clear()
    pv = params([Fraction(k, 3) + k * k for k in range(7)], 3)
    tris = list(enumerate_triangulations(7, 3))[:6]
    canonicalized = []
    real = coherence.as_face
    monkeypatch.setattr(coherence, "as_face", lambda c, n: canonicalized.append(c) or real(c, n))
    first = [is_regular(t, pv) for t in tris]
    assert len(canonicalized) == len({c for t in tris for c in t})
    canonicalized.clear()
    assert [is_regular(t, pv) for t in tris] == first
    assert canonicalized == []
    # a reordered or listed cell is new to the table and is canonicalized
    cells = sorted(tris[0])
    moved = [tuple(reversed(cells[0])), list(cells[1])] + cells[2:]
    assert is_regular(moved, pv) == first[0]
    assert canonicalized == [moved[0], moved[1]]
    # the pi-coherence entry points share the table and its fast path
    proper = enumerate_baues_poset(7, 3, 5).proper
    verdicts = [is_pi_coherent(s.cells, pv, 5) for s in proper]
    systems = [pi_coherence_system(s.cells, pv, 5) for s in proper[:10]]
    canonicalized.clear()
    assert [is_pi_coherent(s.cells, pv, 5) for s in proper] == verdicts
    assert [pi_coherence_system(s.cells, pv, 5) for s in proper[:10]] == systems
    assert canonicalized == []


def test_numbered_cells_keep_the_errors_of_new_cells():
    pv = params([Fraction(k, 5) + k * k for k in range(6)], 2)
    tri = sorted(placing_triangulation(6, 2))
    is_regular(tri, pv)  # every cell of tri is now numbered
    with pytest.raises(ValueError, match="repeated cells"):
        is_regular(tri + [tri[0]], pv)
    with pytest.raises(ValueError, match="repeated cells"):
        is_regular(tri + [tuple(reversed(tri[0]))], pv)
    with pytest.raises(ValueError, match="out of range"):
        is_regular(tri[1:] + [(0, 1, 2)], pv)
    with pytest.raises(ValueError, match="repeated indices"):
        is_regular(tri[1:] + [(1, 1, 2)], pv)
    with pytest.raises(ValueError, match="lower-dimensional"):
        is_regular(tri[1:] + [(1, 2)], pv)
    with pytest.raises(ValueError, match="lower-dimensional"):
        is_pi_coherent(tri[1:] + [(1, 2)], pv, 4)
    with pytest.raises(ValueError, match="neither interior nor boundary"):
        is_regular(tri[1:], pv)
    with pytest.raises(ValueError, match="no cells"):
        is_regular([], pv)


OVERLAPPING = [  # cells that pair every wall, two of them on one side
    (5, 3, "1234,1245,2345,1235,1345", "(1, 2, 3)"),  # both triangulations of one circuit
    (3, 1, "12,23,13", "(1,)"),
]


@pytest.mark.parametrize("n, d, line, wall", OVERLAPPING, ids=["c53", "c31"])
def test_overlapping_cells_are_rejected(n, d, line, wall):
    pv, cells = standard_params(n, d), sorted(parse_triangulation_line(line, n))
    message = re.escape(f"the two cells of wall {wall} lie on one side of it")
    with pytest.raises(ValueError, match=message):
        is_regular(cells, pv)
    with pytest.raises(ValueError, match=message):
        coherence.is_pi_coherent(cells, pv, n - 1)


def _compare_validity(n, d, sizes):
    """The number of sets of k simplices of C(n,d), k in `sizes`, on which
    `is_regular` raises ValueError exactly when the volume and sign oracle
    `is_valid_triangulation` rejects the set."""
    pv = random_params(n, d, random.Random(10 * n + d))
    simplices = list(combinations(range(1, n + 1), d + 1))
    compared = 0
    for k in sizes:
        for cells in combinations(simplices, k):
            try:
                is_regular(cells, pv)
            except ValueError:
                assert not is_valid_triangulation(cells, pv), cells
            else:
                assert is_valid_triangulation(cells, pv), cells
            compared += 1
    return compared


# every set of segments up to n = 5, those of at most 5 segments at n = 6
# (a chain from 1 to 6 has at most 5), the sets of 4 triangles of C(6,2),
# as many as a triangulation has, and the sets of 2 or 3 tetrahedra of
# C(6,3) and of 3 of C(7,3)
VALIDITY_SLICE = [(n, 1, range(comb(n, 2) + 1)) for n in range(2, 6)]
VALIDITY_SLICE += [(6, 1, range(6)), (6, 2, [4]), (6, 3, [2, 3]), (7, 3, [3])]


@pytest.mark.parametrize(
    "n, d, sizes", VALIDITY_SLICE, ids=[f"C({n},{d})" for n, d, _ in VALIDITY_SLICE]
)
def test_is_regular_rejects_exactly_the_invalid_simplex_sets(n, d, sizes):
    want = sum(comb(comb(n, d + 1), k) for k in sizes)
    assert _compare_validity(n, d, sizes) == want


def test_formulation_equivalence_spot():
    pv = standard_params(8, 3)
    fifth = parse_triangulation_line(catalog.C83_NONPLACING[4], 8)
    res_walls = is_regular(fifth, pv)
    res_b = reference_decide(fifth, pv, 7, "bmatrix")
    assert isinstance(res_walls, lp.Witness) and isinstance(res_b, lp.Witness)


def test_formulation_equivalence_everywhere():
    """Wall folds and the point-above-cell oracle agree on every
    triangulation of C(8,3) and C(8,4), including the non-regular C(9,*)
    examples."""
    for n, d in [(8, 3), (8, 4)]:
        pv = standard_params(n, d)
        coords = coherence._Coordinates(pv, n - 1)
        for tri in enumerate_triangulations(n, d):
            assert isinstance(is_regular(tri, pv), lp.Witness)
            assert isinstance(reference_decide(tri, pv, n - 1, "bmatrix", coords), lp.Witness)
    for (n, d), info in catalog.PARAM_DEPENDENT.items():
        tri = parse_triangulation_line(info["cells"], n)
        pv = standard_params(n, d)
        assert isinstance(is_regular(tri, pv), lp.Certificate)
        assert isinstance(reference_decide(tri, pv, n - 1, "bmatrix"), lp.Certificate)


def test_fifth_c83_triangulation_regular_at_random_parameters():
    fifth = parse_triangulation_line(catalog.C83_NONPLACING[4], 8)
    rng = random.Random(99)
    for _ in range(10):
        pv = random_params(8, 3, rng)
        assert isinstance(is_regular(fifth, pv), lp.Witness)


def test_lemma47_verdicts():
    for (n, d), info in catalog.PARAM_DEPENDENT.items():
        tri = parse_triangulation_line(info["cells"], n)
        std = standard_params(n, d)
        alt = catalog.preset_params(f"lemma47-c9{d}", n, d)
        assert isinstance(is_regular(tri, std), lp.Certificate)
        res = is_regular(tri, alt)
        assert isinstance(res, lp.Witness)
        assert regular_subdivision_from_heights(alt, res.x) == Subdivision.make(tri, n, d)


def test_entry_points_read_a_generator_of_cells_once():
    pv = standard_params(6, 2)
    cells = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)]
    assert isinstance(is_pi_coherent(cells, pv, 4), lp.Witness)
    assert is_pi_coherent((c for c in cells), pv, 4) == is_pi_coherent(cells, pv, 4)
    assert pi_coherence_system((c for c in cells), pv, 4) == pi_coherence_system(cells, pv, 4)
    assert is_regular((c for c in cells), pv) == is_regular(cells, pv)


def test_pi_coherence_rejects_non_induced():
    pv = standard_params(6, 2)
    with pytest.raises(ValueError, match="non-face"):
        pi_coherence_system([(1, 3, 5), (1, 2, 3), (3, 4, 5), (1, 5, 6)], pv, 4)


@pytest.mark.parametrize("d_prime", [1, 2, 6, 7])
def test_pi_coherence_rejects_d_prime_outside_d_to_n(d_prime):
    pv = standard_params(6, 2)
    for decide in (is_pi_coherent, pi_coherence_system):
        with pytest.raises(ValueError, match="need d < d' < n"):
            decide([(1, 2, 3, 4, 5, 6)], pv, d_prime)


def test_pi_coherence_simplex_reduces_to_regularity():
    pv = standard_params(6, 2)
    tri = placing_triangulation(6, 2)
    sys_reg = regularity_system(tri, pv)
    sys_pi = pi_coherence_system(tri, pv, 5)
    assert sys_pi.strict == sys_reg.strict
    assert len(sys_pi.equalities) == len(sys_reg.equalities)


def test_step1_subdivision_coherence_iff_c3_plus_c4_zero():
    for n in (6, 7, 8):
        cells = catalog.step1_subdivision(n)
        d_prime = n - 2
        rng = random.Random(n)
        for _ in range(6):
            pv = random_params(n, 2, rng)
            c = unique_dependence_coeffs(pv.with_dimension(d_prime))
            res = is_pi_coherent(cells, pv, d_prime)
            assert isinstance(res, lp.Witness) == (c[2] + c[3] == 0)
        # standard parameters are symmetric for n = 6: coherent there
        std = standard_params(n, 2)
        res = is_pi_coherent(cells, std, d_prime)
        assert isinstance(res, lp.Witness) == (n == 6)


def test_upper_lower_witness_examples():
    assert has_upper_and_lower_cells([(1, 2, 4), (2, 3, 4), (1, 4, 6), (4, 5, 6)], 6, 4)
    assert not has_upper_and_lower_cells([(1, 2, 5, 6), (2, 3, 4, 5)], 6, 4)
    assert not has_upper_and_lower_cells([(1, 2, 3, 4, 5, 6)], 6, 4)


def test_always_incoherent_list():
    rng = random.Random(31)
    for line in catalog.C624_ALWAYS_INCOHERENT:
        cells = parse_triangulation_line(line, 6)
        assert has_upper_and_lower_cells(cells, 6, 4), line
        for _ in range(3):
            pv = random_params(6, 2, rng)
            assert isinstance(is_pi_coherent(cells, pv, 4), lp.Certificate), line


def test_parameter_dependent_list_has_no_parameter_free_witness():
    for line in catalog.C624_PARAMETER_DEPENDENT:
        cells = parse_triangulation_line(line, 6)
        assert not has_upper_and_lower_cells(cells, 6, 4), line


def test_trichotomy():
    cases = [
        (symmetric_params(6, 2), "8-gon"),
        (catalog.preset_params("step1-regime1", 6, 2), "9-gon"),
        (catalog.preset_params("step1-regime2", 6, 2), "9-gon"),
    ]
    for pv, want in cases:
        rep = fiber_face_poset(6, 2, 4, pv)
        assert rep.polygon_name() == want
        assert rep.poset.proper_euler_characteristic() == 0


def test_always_coherent_triangulations():
    """Eight of the twelve pi-induced hexagon triangulations are coherent at
    every tested parameter vector."""
    rng = random.Random(77)
    unstable = {
        frozenset(parse_triangulation_line(c, 6))
        for c in catalog.C624_NOT_ALWAYS_COHERENT_TRIANGULATIONS
    }
    bp = enumerate_baues_poset(6, 2, 4)
    tris = [s for s in bp.proper if is_triangulation(s)]
    assert len(tris) == 12
    stable = [s for s in tris if frozenset(s.cells) not in unstable]
    assert len(stable) == 8
    for _ in range(4):
        pv = random_params(6, 2, rng)
        for s in stable:
            assert isinstance(is_pi_coherent(s.cells, pv, 4), lp.Witness)


def test_parameter_scan_regimes():
    cells = catalog.step1_subdivision(6)
    samples = [
        catalog.preset_params("step1-regime1", 6, 2),
        standard_params(6, 2),
        catalog.preset_params("step1-regime2", 6, 2),
    ]
    report = parameter_scan(cells, 4, samples)
    r1, mid, r2 = report
    assert not r1.coherent and mid.coherent and not r2.coherent
    assert abs(r1.ratio_c4_c3 - 2) < Fraction(1, 1000)
    assert abs(r2.ratio_c4_c3 - Fraction(1, 2)) < Fraction(1, 1000)
    assert mid.ratio_c4_c3 == 1


def test_parameter_scan_ratio_2_power_for_n7():
    cells = catalog.step1_subdivision(7)
    (sample,) = parameter_scan(
        cells, 5, [catalog.preset_params("step1-regime1", 7, 2)]
    )
    assert abs(sample.ratio_c4_c3 - 4) < Fraction(1, 500)


def test_bisection_finds_exact_crossing():
    cells = catalog.step1_subdivision(6)

    def path(s):
        # t6 walks from 21/4 to 27/4; the crossing t1 + t6 = 7 sits at s = 1/2
        t6 = Fraction(21, 4) + s * Fraction(3, 2)
        return params([1, 2, 3, 4, 5, t6], 2)

    found = find_coherent_on_path(cells, 4, path, Fraction(0), Fraction(1))
    assert found.t[-1] == 6
    assert isinstance(is_pi_coherent(cells, found, 4), lp.Witness)


def test_parameter_scan_rejects_bad_path():
    cells = catalog.step1_subdivision(6)

    def path(s):
        return params([s - 100, 2, 3, 4, 5, 6], 2)

    with pytest.raises(ValueError):
        find_coherent_on_path(cells, 4, path, Fraction(0), Fraction(1))


def test_placing_extension_preserves_regularity():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(5, 7)
        d = rng.randint(2, min(4, n - 2))
        pv = random_params(n + 1, d, rng)
        base = sub_params(pv, range(1, n + 1))
        tri = rng.choice(sorted(enumerate_triangulations(n, d), key=sorted))
        ext = extend_by_placing(tri, n + 1, d)
        verdict_base = isinstance(is_regular(tri, base), lp.Witness)
        verdict_ext = isinstance(is_regular(ext, pv), lp.Witness)
        assert verdict_base == verdict_ext


def test_nonregular_witness_extends_to_c10():
    info = catalog.PARAM_DEPENDENT[(9, 3)]
    tri = parse_triangulation_line(info["cells"], 9)
    pv10 = standard_params(10, 3)
    ext = extend_by_placing(tri, 10, 3)
    assert isinstance(is_regular(ext, pv10), lp.Certificate)


def test_affine_reparametrization_preserves_verdicts():
    rng = random.Random(63)
    for _ in range(20):
        n, d = 6, rng.choice([2, 3])
        pv = random_params(n, d, rng)
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-9, 9))
        mapped = params([a * t + b for t in pv.t], d)
        tri = rng.choice(sorted(enumerate_triangulations(n, d), key=sorted))
        assert isinstance(is_regular(tri, pv), lp.Witness) == isinstance(
            is_regular(tri, mapped), lp.Witness
        )


def test_lifting_transfer_of_coherent_subdivisions():
    """Coherent subdivisions of C(6,2) extend through tau* to pi-coherent
    subdivisions of C(7,3) whose link at the new vertex recovers them;
    incoherent ones never appear as such links."""
    from cyclicfiber.gale import dependence_basis
    from cyclicfiber.subdiv import link_of_vertex

    pv6 = params([-7, -6, -5, -4, -3, -1], 2)
    lifted = params([-7, -6, -5, -4, -3, -1, 0], 3)
    rep = fiber_face_poset(6, 2, 4, pv6)
    coherent_cells = set()
    incoherent_cells = set()
    for s, res in zip(rep.poset.elements, rep.results):
        if res is None:
            continue
        if isinstance(res, lp.Witness):
            coherent_cells.add(s.cells)
            w7 = tau_star_heights(res.x, pv6)
            # the transported functional kills the C(7,5) dependences
            for dep in dependence_basis(lifted.with_dimension(5)):
                assert dot(dep, w7) == 0
            sub7 = regular_subdivision_from_heights(lifted, w7)
            assert isinstance(is_pi_coherent(sub7.cells, lifted, 5), lp.Witness)
            link = tuple(sorted(link_of_vertex(sub7.cells, 7)))
            assert link == s.cells
        else:
            incoherent_cells.add(s.cells)
    assert coherent_cells and incoherent_cells
    # exhaustive scan: no pi-coherent subdivision of C(7,3) links an
    # incoherent subdivision of C(6,2) at vertex 7
    bp7 = enumerate_baues_poset(7, 3, 5)
    for s in bp7.proper:
        res = is_pi_coherent(s.cells, lifted, 5)
        if isinstance(res, lp.Witness):
            link = tuple(sorted(link_of_vertex(s.cells, 7)))
            assert link not in incoherent_cells, s.cells


def test_coherent_subposet_size_stable_in_all_coherent_cases():
    """Projections where every pi-induced subdivision is coherent at one
    realization stay fully coherent at 10 random others."""
    rng = random.Random(8)
    for n, d in [(8, 4), (8, 3), (7, 3), (6, 2)]:
        bp = enumerate_baues_poset(n, d, n - 1)
        assert all(
            isinstance(is_pi_coherent(s.cells, standard_params(n, d), n - 1), lp.Witness)
            for s in bp.proper
        )
        for trial in range(10):
            pv = random_params(n, d, rng)
            assert all(
                isinstance(is_pi_coherent(s.cells, pv, n - 1), lp.Witness)
                for s in bp.proper
            ), (n, d, trial)


def test_string_fiber_vertices_are_the_coherent_paths():
    for n in range(3, 8):
        for d_prime in range(2, n):
            report = fiber_face_poset(n, 1, d_prime)
            got = report.coherent_counts_by_ranking()[0]
            assert got == count_coherent_paths(n, d_prime), (n, d_prime)


@pytest.mark.parametrize("n", range(3, 9))
def test_baues_order_matches_the_pairwise_oracles(n):
    """The reference order equals `refines` on every ordered pair, chi
    equals the chain count, and the coherent f-vector equals the count of
    the pairwise-minimal coherent elements at t = 1..n and at a random t."""
    rng = random.Random(8000 + n)
    for d in range(1, n):
        for d_prime in range(d + 1, n):
            bp = enumerate_baues_poset(n, d, d_prime)
            elements = bp.elements
            m = len(elements)
            order = [[refines(a, b) for b in elements] for a in elements]
            assert [[leq(bp, i, j) for j in range(m)] for i in range(m)] == order, (n, d, d_prime)

            def leq_by_refinement(i, j):
                return order[i][j]

            proper = range(m - 1)  # the trivial subdivision comes last
            strictly_below = [[j for j in proper if j != i and order[j][i]] for i in proper]
            chi = chain_count_euler(strictly_below)
            assert bp.proper_euler_characteristic() == chi, (n, d, d_prime)
            for pv in (standard_params(n, d), random_params(n, d, rng)):
                report = fiber_face_poset(n, d, d_prime, pv)
                assert report.poset.elements == elements
                coherent = report.coherent_indices
                minimal = pairwise_minimal(coherent, leq_by_refinement)
                want = (len(minimal), len(coherent) - len(minimal))
                assert report.coherent_f_vector() == want, (n, d, d_prime, pv.t)


# ---------------------------------------------------------------------------
# the one cell table of each (n, d) and the row sources of each realization
# ---------------------------------------------------------------------------


def _fresh(cells, pv, d_prime):
    """The decision on a new `_CellTable` over new rows that no call has touched."""
    table, rows = coherence._CellTable(pv.n, pv.d), coherence._Coordinates(pv, d_prime)
    return coherence._flag(table.system(table.number(sorted(cells)), rows), rows)


def test_interleaved_realizations_keep_their_own_rows():
    coherence._cell_table.cache_clear()
    pvs = [standard_params(8, 3), random_params(8, 3, random.Random(83))]
    tris = list(enumerate_triangulations(8, 3))
    for tri in tris:
        for pv in pvs:
            assert is_regular(tri, pv) == _fresh(tri, pv, 7), (pv, sorted(tri))
    # both realizations numbered their cells in one table, each cell once,
    # and the table holds vertex tuples only: no row, no Fraction
    table = coherence._cell_table(8, 3)
    distinct = {c for tri in tris for c in tri}
    assert sorted(table.cells) == sorted(distinct) and len(table.ids) == len(distinct)
    assert all(table.ids[c] == i for i, c in enumerate(table.cells))
    held = [table.ids, table.cells, table.walls, table.inner, table.coplanar]
    assert all(type(v) is int for v in _leaves(held))
    vertices = [(w, apex) for walls in table.walls for w, apex, _ in walls]
    assert set(_leaves([table.cells, vertices, table.coplanar])) <= set(range(1, 9))
    for c, walls, inner, coplanar in zip(table.cells, table.walls, table.inner, table.coplanar):
        assert all(set(w) < set(c) and apex in c and apex not in w for w, apex, _ in walls)
        assert 0 <= inner <= len(walls)
        # the side is the parity of the wall's vertices above the apex
        assert all(side == sum(g > apex for g in w) % 2 for w, apex, side in walls)
        assert all(len(z) == 5 and set(z) <= set(c) for z in coplanar)


def _leaves(x):
    """The non-container values inside nested lists, tuples and dicts."""
    if isinstance(x, dict):
        x = [*x.keys(), *x.values()]
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def test_interleaved_d_primes_keep_their_own_tables():
    pv = random_params(7, 3, random.Random(73))
    elements = enumerate_baues_poset(7, 3, 5).proper  # pi-induced for d' = 5 and so for 6
    for s in elements:
        for d_prime in (5, 6):
            assert is_pi_coherent(s.cells, pv, d_prime) == _fresh(s.cells, pv, d_prime), (d_prime, str(s))


def test_row_sources_live_only_in_the_bounded_memos():
    assert coherence._cell_table.cache_info().maxsize == 32
    assert coherence._coordinates.cache_info().maxsize == 64
    assert coherence._scattered.cache_info().maxsize == 64
    tri = placing_triangulation(6, 2)
    pv = random_params(6, 2, random.Random(62))
    is_regular(tri, pv)
    regularity_system(tri, pv)
    sources = [coherence._coordinates(pv, 5), coherence._scattered(pv)]
    refs = [weakref.ref(s) for s in sources]
    del sources
    # 64 other realizations push both sources of pv out of their LRUs
    rng = random.Random(0)
    for _ in range(64):
        other = random_params(6, 2, rng)
        is_regular(tri, other)
        regularity_system(tri, other)
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
