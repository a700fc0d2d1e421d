import gc
import json
import os
import random
import re
import tracemalloc
from itertools import combinations, permutations, product, zip_longest
from math import comb

import pytest

from conftest import random_params
from oracles import (
    cell_volume,
    extend_by_placing,
    filtered_below,
    geometric_placing_triangulation,
    is_pi_induced,
    is_triangulation,
    is_valid_subdivision,
    is_valid_triangulation,
    leq,
    lp_cells_compatible,
    pairwise_minimal,
    pi_compatibility_holds,
    polygon_dissections,
    reference_baues_poset,
    reference_below,
    reference_bistellar_flips,
    reference_proper_subdivisions,
    reference_subdivisions_by_type,
    rescan_flip_closure,
    reverse_search_parent,
    total_volume,
    unfiltered_reverse_search,
)
from cyclicfiber import catalog
from cyclicfiber.cyclic import params, standard_params
from cyclicfiber.subdiv import (
    BauesPoset,
    _bits,
    _encode,
    _flip_table,
    _reverse_search,
    Subdivision,
    bistellar_flips,
    cells_compatible,
    enumerate_baues_poset,
    enumerate_subdivisions_by_type,
    enumerate_triangulations,
    flip_graph_stats,
    format_triangulation_file,
    good_link_vertex,
    order_complex_euler,
    parse_triangulation_line,
    pi_induced_masks,
    placing_triangulation,
    read_triangulation_file,
    triangulate_cell,
)
from cyclicfiber.paths import MINUS, NULL, PLUS, lambda_of_string


def proper_subdivisions(n, d):
    """Every proper subdivision of C(n,d), d <= n - 2: the Baues census at
    d' = n - 1, where C(n, n-1) is a simplex and every subdivision is
    pi-induced."""
    return enumerate_baues_poset(n, d, n - 1).proper


def test_placing_c42():
    assert placing_triangulation(4, 2) == {(1, 2, 3), (1, 3, 4)}
    with pytest.raises(ValueError):
        placing_triangulation(3, 3)
    # the parity rule alone would return an empty set for each of these
    with pytest.raises(ValueError):
        triangulate_cell((1, 2), 5, 2)
    with pytest.raises(ValueError):
        triangulate_cell((1, 2, 3), 5, 0)


def test_placing_circuit_has_two_triangulations():
    for d in (2, 3, 4):
        t = placing_triangulation(d + 2, d)
        tris = enumerate_triangulations(d + 2, d)
        assert t in tris and len(tris) == 2


def test_placing_orders_are_valid_and_regular():
    from cyclicfiber import coherence, lp

    rng = random.Random(2)
    pv = random_params(6, 3, rng)
    for _ in range(5):
        order = list(range(1, 7))
        rng.shuffle(order)
        t = geometric_placing_triangulation(pv, order)
        assert is_valid_triangulation(t, pv)
        assert isinstance(coherence.is_regular(t, pv), lp.Witness)


def test_all_c73_triangulations_are_placing():
    pv = standard_params(7, 3)
    produced = {geometric_placing_triangulation(pv, order) for order in permutations(range(1, 8))}
    assert produced == set(enumerate_triangulations(7, 3))


def test_placing_matches_geometric_oracle():
    # the parity rule against insertion with visibility read off a
    # realization: C(n,d) for every 1 <= d < n <= 9 at t = 1..n and at a
    # random t, and 300 random cells of C(9,d), each placed as a cyclic
    # polytope of its own parameters and relabelled
    rng = random.Random(12)
    for n in range(2, 10):
        for d in range(1, n):
            for pv in (standard_params(n, d), random_params(n, d, rng)):
                assert placing_triangulation(n, d) == geometric_placing_triangulation(pv), pv
    for _ in range(300):
        d = rng.randint(1, 7)
        cell = tuple(sorted(rng.sample(range(1, 10), rng.randint(d + 1, 9))))
        t = random_params(9, d, rng).t
        sub = geometric_placing_triangulation(params([t[v - 1] for v in cell], d))
        relabelled = {tuple(cell[i - 1] for i in simplex) for simplex in sub}
        assert triangulate_cell(cell, 9, d) == relabelled, (cell, d, t)


def test_flip_example_quadrilateral():
    t = frozenset({(1, 2, 3), (1, 3, 4)})
    assert bistellar_flips(t, 4, 2) == [frozenset({(1, 2, 4), (2, 3, 4)})]


def test_flip_symmetry():
    for n, d in [(6, 2), (6, 3), (7, 4)]:
        for t in enumerate_triangulations(n, d):
            for u in bistellar_flips(t, n, d):
                assert t in bistellar_flips(u, n, d)


def test_flip_graph_stats():
    assert flip_graph_stats(8, 4) == (40, 64)
    assert flip_graph_stats(8, 3) == (138, 302)


RESCAN_CASES = [(n, d) for n in range(2, 11) for d in range(1, n)] + [(11, 3)]


def test_flip_closure_matches_rescan_as_a_set():
    # the reverse search finds the masks of the breadth-first closure, each
    # once, the placing triangulation first
    for n, d in RESCAN_CASES:
        masks = tuple(enumerate_triangulations(n, d).masks())
        oracle = rescan_flip_closure(n, d)[0]
        assert len(set(masks)) == len(masks), (n, d)
        assert set(masks) == set(oracle), (n, d)
        assert masks[0] == oracle[0], (n, d)


def test_flip_graph_stats_match_rescan_degree_sum():
    for n, d in RESCAN_CASES:
        masks, degree_sum = rescan_flip_closure(n, d)
        assert flip_graph_stats(n, d) == (len(masks), degree_sum // 2), (n, d)
    for (n, d), edges in catalog.FLIP_EDGE_COUNTS.items():
        assert rescan_flip_closure(n, d)[1] == 2 * edges
        assert flip_graph_stats(n, d)[1] == edges


def test_every_consumer_reads_the_one_search():
    # the packed set holds the masks of the search in its order, and the
    # unpacked count reads as many (the pi-induced filter is held against
    # the packed set in test_pi_induced_masks_match_the_cell_test)
    for n in range(2, 11):
        for d in range(1, n):
            packed = list(enumerate_triangulations(n, d).masks())
            assert [t for t, _, _ in _reverse_search(n, d)] == packed, (n, d)
            assert flip_graph_stats(n, d)[0] == len(packed), (n, d)


def test_the_prefilter_keeps_the_stream_of_the_search():
    # skipping the flips that cannot be children, and reading the child
    # tests off the memo, change no entry and no order: (11,4) and (11,5)
    # are the even and the odd d past n = 10
    for n, d in RESCAN_CASES + [(11, 4), (11, 5)]:
        stream = zip_longest(_reverse_search(n, d), unfiltered_reverse_search(n, d))
        assert all(got == want for got, want in stream), (n, d)


def test_a_memo_emptied_mid_search_keeps_the_stream(monkeypatch):
    # with room for 3 entries the memo is emptied again and again in the
    # middle of each search, and every test after a clear is made afresh
    import cyclicfiber.subdiv as subdiv

    monkeypatch.setattr(subdiv, "MEMO_BOUND", 3)
    test_the_prefilter_keeps_the_stream_of_the_search()


def test_killers_are_the_flips_that_clear_a_circuit():
    # bit i of killers[j]: i != j and the flip of i drops bit j from its
    # keep, that is a cell of the lower half of i lies in a half of j
    for n, d in [(8, 3), (9, 4), (10, 5)]:
        _, _, circuits, killers = _flip_table(n, d)
        for j, (_, _, both_j, *_) in enumerate(circuits):
            want = 0
            for i, (lower_i, _, _, keep_i, *_) in enumerate(circuits):
                cleared = i != j and not keep_i >> j & 1
                assert cleared == (i != j and lower_i & both_j != 0), (n, d, i, j)
                want |= cleared << i
            assert killers[j] == want, (n, d, j)


def test_the_memo_key_holds_every_cell_the_child_test_reads():
    # the flip of i tests halves that lie in the child exactly when the
    # mask holds them less the upper half A of i, so near must hold those
    # cells and no cell of A.  The stream tests cannot tell: a key without
    # the cells of bars gives the same stream at every case they run
    for n, d in [(6, 2), (8, 3), (9, 4), (10, 5)]:
        for i, (lower, upper, _, _, _, bars, lowers, uppers, near) in enumerate(_flip_table(n, d)[2]):
            halves = list(bars) + [half for _, half in lowers + uppers]
            assert all(half & lower == 0 and half & upper for half in halves), (n, d, i)
            want = 0
            for half in halves:
                want |= half & ~upper
            assert near == want, (n, d, i)


@pytest.mark.parametrize("skewed", [1, 2], ids=["odd", "even"])
def test_flip_graph_stats_raises_on_an_extra_increasing_flip(monkeypatch, skewed):
    # one extra increasing flip on each of the first `skewed` entries: an
    # even mismatch keeps the sum of |L| + |U| even, and is caught all the same
    import cyclicfiber.subdiv as subdiv

    search = subdiv._reverse_search

    def stream(n, d):
        for k, (tri, lower, upper) in enumerate(search(n, d)):
            yield tri, lower | (1 << lower.bit_length() if k < skewed else 0), upper

    monkeypatch.setattr(subdiv, "_reverse_search", stream)
    with pytest.raises(RuntimeError, match=f"{302 + skewed} increasing flips but 302 decreasing"):
        flip_graph_stats(8, 3)


def test_flip_closure_is_the_preorder_of_the_reverse_search_tree():
    # every triangulation but the first comes after its parent, the flip
    # at its lowest circuit whose upper half it holds, read off the
    # decoded cells with halves oriented by geometric placing
    for n, d in RESCAN_CASES:
        tris = list(enumerate_triangulations(n, d))
        position = {t: k for k, t in enumerate(tris)}
        assert reverse_search_parent(tris[0], n, d) is None, (n, d)
        for k in range(1, len(tris)):
            parent = reverse_search_parent(tris[k], n, d)
            assert parent is not None and position[parent] < k, (n, d, k)


def test_only_the_placing_triangulation_has_no_decreasing_flip():
    # the minimum of the first higher Stasheff-Tamari order is its only
    # element with no decreasing flip, among the closure of the oracle
    for n in range(2, 11):
        for d in range(1, n):
            cells = list(combinations(range(1, n + 1), d + 1))
            sinks = [
                t for t in rescan_flip_closure(n, d)[0]
                if reverse_search_parent(frozenset(cells[k] for k in _bits(t)), n, d) is None
            ]
            assert [frozenset(cells[k] for k in _bits(t)) for t in sinks] == [placing_triangulation(n, d)]


def test_enumeration_raises_when_the_seed_holds_an_upper_half(monkeypatch):
    # a seed off the minimum means the orientation of the circuits is wrong
    import cyclicfiber.subdiv as subdiv

    monkeypatch.setattr(subdiv, "placing_triangulation", lambda n, d: frozenset({(1, 2, 4), (2, 3, 4)}))
    with pytest.raises(RuntimeError, match="upper half"):
        enumerate_triangulations(4, 2)


def test_triangulation_set_keeps_no_seen_set():
    # only the masks outlive the search, which keeps no set of masks
    tris = enumerate_triangulations(8, 3)
    assert not any(isinstance(r, (set, frozenset)) for r in gc.get_referents(tris))


def test_flip_closure_peak_memory_is_about_its_packed_masks():
    # the 8,477 packed masks of C(10,3) take 229 kB and the memo of the
    # search at most about 0.16 MB more (a peak of 403 kB in all); a set of
    # masks seen, even one of three breadth-first levels, takes the peak of
    # traced allocations past 0.68 MB
    _flip_table(10, 3)  # the flip table is cached; build it outside the trace
    tracemalloc.start()
    try:
        tris = enumerate_triangulations(10, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tris) == 8477 and tuple(tris.masks()) == tuple(enumerate_triangulations(10, 3).masks())
    assert peak < 500_000, peak


def test_flip_graph_stats_peak_memory_is_its_stack_and_bounded_memo():
    # C(11,4) fills the memo and empties it 14 times.  Its stack takes
    # about 16 kB and the memo about 220 bytes an entry: the peak reads
    # 244 kB, and 1.26 MB with the memo unbounded
    import cyclicfiber.subdiv as subdiv

    _flip_table(11, 4)
    tracemalloc.start()
    try:
        stats = flip_graph_stats(11, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == (96426, 392447)
    assert peak < 32_000 + 320 * subdiv.MEMO_BOUND, peak


def test_bistellar_flips_match_reference():
    for n, d in [(7, 3), (8, 3), (8, 4)]:
        for t in enumerate_triangulations(n, d):
            assert bistellar_flips(t, n, d) == reference_bistellar_flips(t, n, d), (n, d, t)


def test_enumerated_cells_are_shared_tuples():
    tris = enumerate_triangulations(9, 4)
    cells = [c for t in tris for c in t]
    assert all(type(t) is frozenset for t in tris)
    assert all(type(c) is tuple and list(c) == sorted(c) for c in cells)
    assert len({id(c) for c in cells}) <= comb(9, 5)


def test_bistellar_flips_rejects_a_foreign_cell():
    with pytest.raises(ValueError):
        bistellar_flips([(1, 2, 3), (1, 3, 5)], 4, 2)


def test_bistellar_flips_rejects_both_halves_of_a_circuit():
    with pytest.raises(ValueError, match=r"circuit \(1, 2, 3, 4\)"):
        bistellar_flips([(1, 2, 3), (1, 3, 4), (1, 2, 4), (2, 3, 4)], 4, 2)
    # every cell of C(5,3): the halves {1234, 1245, 2345} and {1235, 1345}
    with pytest.raises(ValueError, match=r"circuit \(1, 2, 3, 4, 5\)"):
        bistellar_flips(combinations(range(1, 6), 4), 5, 3)
    # one half {124, 234} and one cell of the other: flipping would drop 134
    with pytest.raises(ValueError, match=r"circuit \(1, 2, 3, 4\)"):
        bistellar_flips([(1, 2, 4), (2, 3, 4), (1, 3, 4)], 4, 2)


def test_enumeration_counts_small():
    for (n, d), want in [((7, 3), 25), ((9, 5), 67), ((6, 2), 14), ((5, 2), 5)]:
        assert len(enumerate_triangulations(n, d)) == want
    for n in range(2, 11):
        assert len(enumerate_triangulations(n, 1)) == 2 ** (n - 2)
    for n, d in [(1, 1), (4, 0), (4, 4)]:
        with pytest.raises(ValueError):
            enumerate_triangulations(n, d)


def test_enumeration_stretch_scale():
    # every published count up to n = 11, (11,3) and (11,4) included
    for (n, d), want in sorted(catalog.TRIANGULATION_COUNTS.items()):
        if n <= 11:
            assert len(enumerate_triangulations(n, d)) == want, (n, d)


# Flip-edge counts of C(12,d).  None is published.  Those at d = 3 and 6
# are also given by the breadth-first closure; those at d = 4 and 5 come
# from the scratch prototype of the unpacked search recorded in ROADMAP.md,
# and from this search.
N12_FLIP_EDGES = {3: 5_855_468, 4: 14_328_972, 5: 27_188_344, 6: 1_497_912}


@pytest.mark.skipif(
    not os.environ.get("CYCLICFIBER_N12"),
    reason="set CYCLICFIBER_N12=1 to count every C(12,d), d = 2..10: about 20 s, each count under 20 MB",
)
def test_enumeration_counts_n12():
    # opt-in: every published count of C(12,d), counted off the search
    # without packing, so in the memory of its stack and bounded memo
    for d in range(2, 11):
        count, edges = flip_graph_stats(12, d)
        assert count == catalog.TRIANGULATION_COUNTS[12, d], d
        if d in N12_FLIP_EDGES:
            assert edges == N12_FLIP_EDGES[d], d


def test_volume_additivity_across_enumerations():
    for n, d in [(6, 2), (7, 3), (8, 4)]:
        pv = standard_params(n, d)
        total = total_volume(pv)
        for t in enumerate_triangulations(n, d):
            assert sum(cell_volume(c, pv) for c in t) == total
            assert is_valid_triangulation(t, pv)


def relabel_triangulation(tri, perm: dict[int, int]) -> frozenset:
    return frozenset(tuple(sorted(perm[v] for v in c)) for c in tri)


def dihedral_group(n: int) -> list[dict[int, int]]:
    """The 2n relabelings generated by rotation i->i+1 and reflection i->n+1-i."""
    base = list(range(1, n + 1))
    perms = []
    for shift in range(n):
        rot = {i: base[(i - 1 + shift) % n] for i in base}
        perms.append(rot)
        perms.append({i: n + 1 - rot[i] for i in base})
    return perms


def reflection_group(n: int) -> list[dict[int, int]]:
    ident = {i: i for i in range(1, n + 1)}
    return [ident, {i: n + 1 - i for i in range(1, n + 1)}]


def symmetry_orbits(tris, perms) -> list[set]:
    remaining = set(tris)
    orbits = []
    while remaining:
        t = remaining.pop()
        orbit = {relabel_triangulation(t, p) for p in perms}
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def test_symmetry_orbits():
    orbits84 = symmetry_orbits(enumerate_triangulations(8, 4), dihedral_group(8))
    assert len(orbits84) == 4
    orbits73 = symmetry_orbits(enumerate_triangulations(7, 3), reflection_group(7))
    assert len(orbits73) == 16
    # the published class representatives hit every orbit exactly once
    reps = {frozenset(parse_triangulation_line(c, 7)) for c, _ in catalog.C73_CLASSES}
    assert sum(1 for orb in orbits73 if reps & orb) == 16


def test_good_links_for_published_classes():
    for cells, verts in catalog.C73_CLASSES:
        t = frozenset(parse_triangulation_line(cells, 7))
        assert t in enumerate_triangulations(7, 3)
        for v in verts:
            assert good_link_vertex(t, 7, 3, v), (cells, v)
    for cells, verts in catalog.C84_CLASSES:
        t = frozenset(parse_triangulation_line(cells, 8))
        assert t in enumerate_triangulations(8, 4)
        for v in verts:
            assert good_link_vertex(t, 8, 4, v), (cells, v)


def test_nonplacing_list_members_are_triangulations():
    tris = enumerate_triangulations(8, 3)
    expanded = set()
    for cells in catalog.C83_NONPLACING:
        t = frozenset(parse_triangulation_line(cells, 8))
        assert t in tris
        for p in reflection_group(8):
            expanded.add(frozenset(tuple(sorted(p[v] for v in c)) for c in t))
    assert len(expanded) == 8  # 5 classes, 8 triangulations without symmetry


def test_validity_examples():
    pv = standard_params(6, 2)
    assert is_valid_subdivision([(1, 2, 5, 6), (2, 3, 4, 5)], pv)
    assert not is_valid_subdivision([(1, 2, 3), (4, 5, 6)], pv)
    assert is_valid_subdivision([(1, 2, 3, 4, 5, 6)], pv)
    with pytest.raises(ValueError):
        is_valid_subdivision([(1, 2), (3, 4, 5)], pv)


def test_validity_rejects_overlaps_and_nonfaces():
    pv = standard_params(6, 2)
    # interiors overlap
    assert not is_valid_subdivision([(1, 2, 3, 4), (2, 3, 4, 5), (1, 4, 5, 6), (1, 2, 6)], pv)
    # {2,4} is a diagonal of the quad {2,3,4,5}, so the triangle cuts into it
    assert not cells_compatible((2, 3, 4, 5), (2, 4, 6), 6, 2)
    # {2,4} is an edge of {1,2,4,5} (vertex 3 is absent), so this pair is fine
    assert cells_compatible((1, 2, 4, 5), (2, 3, 4), 6, 2)
    # nested cells can never coexist
    assert not cells_compatible((1, 2, 3, 4), (1, 2, 3, 4, 5), 6, 2)


def _proper_cells(n: int, d: int) -> list[tuple[int, ...]]:
    return [c for s in range(d + 1, n) for c in combinations(range(1, n + 1), s)]


@pytest.mark.parametrize("n,d", [(6, 2), (7, 3)])
def test_cells_compatible_matches_lp_oracle_exhaustively(n, d):
    cells = _proper_cells(n, d)
    for pv in (standard_params(n, d), random_params(n, d, random.Random(11))):
        for a, b in combinations(cells, 2):
            assert cells_compatible(a, b, n, d) == lp_cells_compatible(a, b, pv), (a, b, pv.t)


def test_cells_compatible_matches_lp_oracle_on_sampled_c84_pairs():
    rng = random.Random(84)
    cells = _proper_cells(8, 4)
    pv = standard_params(8, 4)
    for _ in range(500):
        a, b = rng.sample(cells, 2)
        assert cells_compatible(a, b, 8, 4) == lp_cells_compatible(a, b, pv), (a, b)


def test_extend_by_placing():
    t = frozenset({(1, 2, 3), (1, 3, 4)})
    ext = extend_by_placing(t, 5, 2)
    assert ext == {(1, 2, 3), (1, 3, 4), (1, 4, 5)}
    with pytest.raises(ValueError):
        extend_by_placing(ext, 5, 2)


def test_ranking_and_type():
    tri = Subdivision.make([(1, 2, 3), (1, 3, 4)], 4, 2)
    assert tri.ranking() == 0 and tri.type_sizes() == ()
    sub = Subdivision.make([(1, 2, 5, 6), (2, 3, 4, 5)], 6, 2)
    assert sub.ranking() == 2 and sub.type_sizes() == (4, 4)
    assert not is_triangulation(sub) and not sub.is_trivial
    # a simplex adds 0: the ranking is the sum over the non-simplex cells
    for s in enumerate_baues_poset(8, 3, 7).proper:
        assert s.ranking() == sum(len(c) - 4 for c in s.cells if len(c) > 4), s


def test_census_matches_flip_edges():
    assert len(enumerate_subdivisions_by_type(6, 2, (4,))) == flip_graph_stats(6, 2)[1]
    assert len(enumerate_subdivisions_by_type(7, 3, (5,))) == flip_graph_stats(7, 3)[1]


def test_census_pushing_rule():
    # a single C(n-1,d) cell: one subdivision per pushed vertex
    assert len(enumerate_subdivisions_by_type(6, 2, (5,))) == 6
    assert len(enumerate_subdivisions_by_type(7, 3, (6,))) == 7


def test_census_subdivisions_are_valid():
    pv = standard_params(7, 3)
    subs = enumerate_subdivisions_by_type(7, 3, (5, 5))
    assert subs
    for s in subs[:10]:
        assert is_valid_subdivision(s.cells, pv)
        assert s.type_sizes() == (5, 5)


def test_proper_subdivision_enumeration_matches_dissections():
    by_census = proper_subdivisions(6, 2)
    dissections = {
        Subdivision.make(c, 6, 2) for c in polygon_dissections(6)
    }
    proper = {s for s in dissections if not s.is_trivial}
    assert set(by_census) == proper
    assert len(by_census) == 44


def test_dissection_counts_against_recursion_oracle():
    # super-Catalan recursion: n s_n = 3(2n-3) s_{n-1} - (n-3) s_{n-2}
    s = [0, 1, 1]
    for k in range(3, 9):
        s.append((3 * (2 * k - 3) * s[k - 1] - (k - 3) * s[k - 2]) // k)
    for n in range(3, 9):
        assert len(polygon_dissections(n)) == s[n - 1], n
    for n in range(4, 9):
        # every dissection of the n-gon is a proper subdivision or the n-gon
        assert len(proper_subdivisions(n, 2)) + 1 == s[n - 1], n
        assert len(enumerate_baues_poset(n, 2, n - 1).elements) == s[n - 1], n


@pytest.mark.parametrize("n", range(3, 9))
def test_census_matches_reference(n):
    for d in range(2, n - 1):
        subs = proper_subdivisions(n, d)
        assert len(set(subs)) == len(subs), (n, d)
        assert set(subs) == set(reference_proper_subdivisions(n, d)), (n, d)
    # C(n, n-1) is a simplex, with no proper subdivision
    assert reference_proper_subdivisions(n, n - 1) == [], n


@pytest.mark.parametrize("n", range(3, 9))
def test_a_simplex_has_no_subdivision_by_type(n):
    # the error names the simplex, not the d' of the Baues census it reads
    message = f"C({n},{n - 1}) is a simplex and has no proper subdivision"
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_subdivisions_by_type(n, n - 1, ())


def test_census_of_the_segment():
    # a proper subdivision of C(n,1) is a nonzero sign vector on the
    # interior points: + in no cell, - an end of a cell, 0 inside a cell
    for n in range(3, 10):
        subs = proper_subdivisions(n, 1)
        assert len(subs) == 3 ** (n - 2) - 1, n
        lams = sorted(lambda_of_string(s) for s in subs)
        everything = sorted(product((PLUS, NULL, MINUS), repeat=n - 2))
        assert lams == [lam for lam in everything if any(lam)], n


def test_placing_masks_decide_cell_compatibility():
    # the census lemma: when the placing triangulations P(a) and P(b) of
    # two cells lie in one triangulation, the cells are compatible exactly
    # when P(a) and P(b) share no simplex
    pairs = compatible = 0
    for n in range(3, 10):
        for d in range(1, n):
            index = _flip_table(n, d)[1]
            cells = [c for s in range(d + 2, n) for c in combinations(range(1, n + 1), s)]
            masks = [_encode(triangulate_cell(c, n, d), index) for c in cells]
            held = {
                sum(1 << i for i, m in enumerate(masks) if t & m == m)
                for t in enumerate_triangulations(n, d).masks()
            }
            for i, j in {p for h in held for p in combinations(_bits(h), 2)}:
                ok = cells_compatible(cells[i], cells[j], n, d)
                assert ok == (masks[i] & masks[j] == 0), (n, d, cells[i], cells[j])
                pairs += 1
                compatible += ok
    assert pairs == 13045 and 0 < compatible < pairs


def test_census_by_type_matches_reference():
    for (n, d), rows in catalog.TYPE_CENSUS.items():
        for sizes in rows:
            got = enumerate_subdivisions_by_type(n, d, sizes)
            assert set(got) == set(reference_subdivisions_by_type(n, d, sizes)), sizes
            assert all(s.type_sizes() == tuple(sorted(sizes)) for s in got)
    with pytest.raises(ValueError):
        enumerate_subdivisions_by_type(7, 3, (4,))


@pytest.mark.parametrize("n", range(4, 9))
def test_baues_poset_matches_reference(n):
    for d in range(2, n):
        for d_prime in range(d + 1, n):
            got = enumerate_baues_poset(n, d, d_prime).elements
            assert got == reference_baues_poset(n, d, d_prime).elements, (n, d, d_prime)


def test_baues_poset_sizes_at_n9():
    for (n, d, d_prime), size in {
        (8, 3, 5): 285,
        (9, 3, 5): 1509,
        (9, 4, 6): 973,
        (9, 3, 6): 6111,
        (9, 5, 7): 177,
        (10, 4, 6): 14661,
    }.items():
        assert len(enumerate_baues_poset(n, d, d_prime).elements) == size, (n, d, d_prime)
    with pytest.raises(ValueError):
        enumerate_baues_poset(6, 2, 6)


def test_baues_posets_are_spheres():
    # the proper part of the Baues poset of C(n,d') -> C(n,d) has the Euler
    # characteristic of a (d'-d-1)-sphere: for cellular strings, d = 1, it
    # is one (Billera-Kapranov-Sturmfels 1994)
    cases = [(n, d, d_prime) for n in range(3, 9) for d in range(1, n) for d_prime in range(d + 1, n)]
    cases += [(9, 3, 5), (9, 4, 6), (9, 3, 6), (10, 4, 6)]
    for n, d, d_prime in cases:
        chi = enumerate_baues_poset(n, d, d_prime).proper_euler_characteristic()
        assert chi == 1 + (-1) ** (d_prime - d - 1), (n, d, d_prime)


@pytest.mark.parametrize("n", range(3, 10))
def test_euler_characteristic_from_the_rankings_matches_the_moebius_pass(n):
    for d in range(1, n):
        for d_prime in range(d + 1, n):
            bp = enumerate_baues_poset(n, d, d_prime)
            moebius = order_complex_euler(reference_below(bp)[: len(bp.proper)])
            assert bp.proper_euler_characteristic() == moebius, (n, d, d_prime)


def test_subdivision_posets_of_cyclic_polytopes_have_the_moebius_values_of_spheres():
    """m(j, d), the reduced Euler characteristic of the proper part of the
    poset of all subdivisions of C(j,d), is (-1)^(j-d), as for a
    (j-d-2)-sphere.  By Hall's theorem m(j, d) = -1 - sum of mu(0, t) over
    the proper subdivisions t, and by the product lemma mu(0, t) is
    (-1)^(k-1) times the product of m(|C|, d) over the k cells C of t."""
    m = {}
    for j in range(2, 10):
        for d in range(1, j):
            m[j, d] = -1  # the simplex, j = d + 1, has no proper subdivision
            for t in proper_subdivisions(j, d) if j > d + 1 else ():
                mu = (-1) ** (len(t.cells) - 1)
                for c in t.cells:
                    mu *= m[len(c), d]
                m[j, d] -= mu
            assert m[j, d] == (-1) ** (j - d), (j, d)


def test_pi_induced():
    assert is_pi_induced([(1, 2, 5, 6), (2, 3, 4, 5)], 6, 2, 4)
    assert not is_pi_induced([(1, 3, 5), (1, 2, 3), (3, 4, 5), (1, 5, 6)], 6, 2, 4)
    assert is_pi_induced([(1, 3, 5), (1, 2, 3), (3, 4, 5), (1, 5, 6)], 6, 2, 5)
    with pytest.raises(ValueError):
        is_pi_induced([(1, 2, 3)], 6, 2, 6)


def test_pi_compatibility_literal_condition():
    pv = standard_params(6, 2)
    bp = enumerate_baues_poset(6, 2, 4)
    for s in bp.elements:
        assert pi_compatibility_holds(s, pv, 4)
    bp5 = enumerate_baues_poset(6, 2, 5)
    for s in bp5.elements:
        assert pi_compatibility_holds(s, pv, 5)


def test_baues_624():
    bp = enumerate_baues_poset(6, 2, 4)
    assert len(bp.proper) == 30
    by_rank = {}
    for s in bp.proper:
        by_rank[s.ranking()] = by_rank.get(s.ranking(), 0) + 1
    assert by_rank == {0: 12, 1: 15, 2: 3}
    proper = range(len(bp.proper))  # the trivial subdivision comes last
    assert len(pairwise_minimal(proper, lambda i, j: leq(bp, i, j))) == 12
    assert bp.proper_euler_characteristic() == 0
    # the two excluded hexagon triangulations are exactly the non-pi-induced ones
    excluded = {
        Subdivision.make(parse_triangulation_line(c, 6), 6, 2)
        for c in catalog.C62_NON_PI_INDUCED
    }
    all_tris = {Subdivision.make(t, 6, 2) for t in enumerate_triangulations(6, 2)}
    induced = {s for s in all_tris if is_pi_induced(s.cells, 6, 2, 4)}
    assert all_tris - induced == excluded


def test_pi_induced_masks_match_the_cell_test():
    for n in range(4, 10):
        for d in range(1, n - 1):
            tris = enumerate_triangulations(n, d)
            for dp in range(d + 1, n):
                got = [Subdivision.of_mask(t, n, d) for t in pi_induced_masks(n, d, dp)]
                want = [Subdivision.make(t, n, d) for t in tris if is_pi_induced(t, n, d, dp)]
                assert got == want, (n, d, dp)


def test_baues_625_all_dissections():
    bp = enumerate_baues_poset(6, 2, 5)
    assert len(bp.elements) == 45
    assert len(bp.proper) == 44


def test_baues_order_is_partial_order():
    bp = enumerate_baues_poset(6, 2, 4)
    m = len(bp.elements)
    for i in range(m):
        assert leq(bp, i, i)
        for j in range(m):
            if i != j and leq(bp, i, j) and leq(bp, j, i):
                raise AssertionError("antisymmetry violated")


def test_order_complex_euler_basics():
    def below_sets(items, leq):
        return [sum(1 << j for j in range(i) if leq(items[j], items[i])) for i in range(len(items))]

    assert order_complex_euler(below_sets([0], lambda a, b: a == b)) == 1
    # boundary of a triangle: 3 vertices, 3 edges, chi = 0
    items = [("v", i) for i in range(3)] + [("e", i) for i in range(3)]

    def leq(a, b):
        if a == b:
            return True
        if a[0] == "v" and b[0] == "e":
            return a[1] in (b[1], (b[1] + 1) % 3)
        return False

    assert order_complex_euler(below_sets(items, leq)) == 0
    # an element below one of a higher index breaks the Moebius pass
    with pytest.raises(RuntimeError):
        order_complex_euler([0b10, 0])


def test_baues_order_needs_a_linear_extension():
    bp = enumerate_baues_poset(6, 2, 4)
    reordered = BauesPoset(6, 2, 4, bp.elements[::-1])
    with pytest.raises(RuntimeError):
        reference_below(reordered)


@pytest.mark.parametrize(
    "n, d, d_prime",
    [(n, d, dp) for n in range(3, 9) for d in range(1, n) for dp in range(d + 1, n)]
    + [(9, 4, 6), (9, 3, 5)],
)
def test_baues_order_filters_match_the_walk_outside_u(n, d, d_prime):
    bp = enumerate_baues_poset(n, d, d_prime)
    assert tuple(filtered_below(bp)) == reference_below(bp), (n, d, d_prime)


def test_triangulation_io():
    # a line keeps its cells in line order, a repeated cell too
    t = parse_triangulation_line("2578,1345,1256,1345", 9)
    assert t == ((2, 5, 7, 8), (1, 3, 4, 5), (1, 2, 5, 6), (1, 3, 4, 5))
    assert format_triangulation_file([t], 9, 3) == "1256,1345,1345,2578\n"
    # digit lines at n <= 9 and the JSON export at n >= 10 read back as
    # written: in the order given, the cells of each sorted, repeats kept
    for n, d, kind in ((9, 3, "line"), (10, 8, "entry")):
        tris = sorted(enumerate_triangulations(n, d), key=sorted)
        tris.append(tuple(tris[0]) + (min(tris[0]),))
        text = format_triangulation_file(tris, n, d)
        assert read_triangulation_file(text, n, d) == (
            kind, [(k, tuple(sorted(t))) for k, t in enumerate(tris, 1)]
        )
    assert json.loads(text)[0] == {"n": 10, "d": 8, "cells": [list(c) for c in sorted(tris[0])]}


def test_lemma47_lists_parse_verbatim():
    for (n, d), info in catalog.PARAM_DEPENDENT.items():
        t = parse_triangulation_line(info["cells"], n)
        assert all(len(c) == d + 1 for c in t)
        assert is_valid_triangulation(t, standard_params(n, d))
