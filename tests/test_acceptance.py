"""Acceptance suite: every criterion runs at its stated tolerance (exact).

Each test prints one PASS line when its criterion holds; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
from fractions import Fraction

from conftest import random_params
from oracles import (
    dot,
    extend_by_placing,
    has_upper_and_lower_cells,
    refines,
    sign_leq,
    sub_params,
    tau_star_heights,
)
from cyclicfiber import catalog, lp
from cyclicfiber.coherence import (
    fiber_face_poset,
    is_pi_coherent,
    is_regular,
    pi_coherence_system,
    regular_subdivision_from_heights,
    regularity_system,
)
from cyclicfiber.cyclic import params, standard_params, symmetric_params
from cyclicfiber.gale import dependence_basis
from cyclicfiber.paths import (
    count_coherent_paths,
    enumerate_monotone_paths,
    is_coherent_string,
    is_coherent_string_lp,
    lambda_of_string,
    zonotope_face_poset,
)
from cyclicfiber.paths import GeneralPolytope, coherent_paths_of_general_polytope
from cyclicfiber.subdiv import (
    Subdivision,
    enumerate_baues_poset,
    enumerate_subdivisions_by_type,
    enumerate_triangulations,
    flip_graph_stats,
    link_of_vertex,
    parse_triangulation_line,
)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}", flush=True)


def test_criterion_1_triangulation_counts():
    for (n, d), want in sorted(catalog.DESK_SCALE_COUNTS.items()):
        assert len(enumerate_triangulations(n, d)) == want, (n, d)
    for n in range(4, 11):
        assert len(enumerate_triangulations(n, 2)) == catalog.catalan(n - 2), n
    report("1", "triangulation counts match the published table for all desk-scale entries")


def test_criterion_2_flip_graph_statistics():
    assert flip_graph_stats(8, 4) == (40, 64)
    assert flip_graph_stats(8, 3) == (138, 302)
    report("2", "flip graphs: C(8,4) 40/64, C(8,3) 138/302")


def test_criterion_3_regularity_sweeps():
    for n, d in [(8, 4), (8, 3)]:
        pv = standard_params(n, d)
        for tri in enumerate_triangulations(n, d):
            system = regularity_system(tri, pv)
            res = lp.solve_strict(system)
            assert isinstance(res, lp.Witness)
            assert lp.verify(system, res)
    fifth = parse_triangulation_line(catalog.C83_NONPLACING[4], 8)
    rng = random.Random(101)
    for _ in range(10):
        pv = random_params(8, 3, rng)
        assert isinstance(is_regular(fifth, pv), lp.Witness)
    report("3", "all 40 + 138 triangulations regular with re-verified witnesses; "
               "fifth listed C(8,3) triangulation regular at 10 random realizations")


def test_criterion_4_subdivision_census():
    for (n, d), rows in catalog.TYPE_CENSUS.items():
        for sizes, want in rows.items():
            assert len(enumerate_subdivisions_by_type(n, d, sizes)) == want, (n, d, sizes)
    v84, e84 = flip_graph_stats(8, 4)
    rank2_84 = sum(len(enumerate_subdivisions_by_type(8, 4, s)) for s in [(7,), (6, 6)])
    assert 2 - v84 + e84 == 26 == rank2_84
    v83, e83 = flip_graph_stats(8, 3)
    rank2_83 = sum(len(enumerate_subdivisions_by_type(8, 3, s)) for s in [(5, 5), (6,)])
    rank3_83 = sum(
        len(enumerate_subdivisions_by_type(8, 3, s)) for s in [(5, 5, 5), (5, 6), (7,)]
    )
    assert rank2_83 == 214 and rank3_83 == 50
    assert v83 - e83 + rank2_83 - rank3_83 == 0
    report("4", "Table-4 census exact; Euler-derived facet counts 26 and 50, "
               "plus 214 two-faces, reproduced")


def test_criterion_5_parameter_dependent_triangulations():
    for (n, d), info in catalog.PARAM_DEPENDENT.items():
        tri = parse_triangulation_line(info["cells"], n)
        std = standard_params(n, d)
        alt = catalog.preset_params(f"lemma47-c9{d}", n, d)
        system_std = regularity_system(tri, std)
        res_std = lp.solve_strict(system_std)
        assert isinstance(res_std, lp.Certificate) and lp.verify(system_std, res_std)
        res_alt = is_regular(tri, alt)
        assert isinstance(res_alt, lp.Witness)
    report("5", "the C(9,3)/C(9,4)/C(9,5) triangulations: Farkas certificate at "
               "standard parameters, witness at the alternate parameters")


def test_criterion_6_worked_example():
    bp = enumerate_baues_poset(6, 2, 4)
    assert len(bp.proper) == 30
    rng = random.Random(202)
    vectors = [random_params(6, 2, rng) for _ in range(10)]
    for line in catalog.C624_ALWAYS_INCOHERENT:
        cells = parse_triangulation_line(line, 6)
        assert has_upper_and_lower_cells(cells, 6, 4), line
        for pv in vectors:
            system = pi_coherence_system(cells, pv, 4)
            res = lp.solve_strict(system)
            assert isinstance(res, lp.Certificate) and lp.verify(system, res)
    for pv, want in [
        (catalog.preset_params("step1-regime1", 6, 2), "9-gon"),
        (catalog.preset_params("step1-regime2", 6, 2), "9-gon"),
        (symmetric_params(6, 2), "8-gon"),
    ]:
        rep = fiber_face_poset(6, 2, 4, pv)
        assert rep.polygon_name() == want
    assert bp.proper_euler_characteristic() == 0
    report("6", "Baues(6,2,4): 30 proper elements; the 8 listed subdivisions "
               "incoherent at 10 random realizations with upper/lower witnesses; "
               "9-gon / 9-gon / octagon trichotomy; Euler characteristic 0")


def test_criterion_7_monotone_paths():
    # coherent path counts by enumeration + LP against the closed form
    for n in range(3, 10):
        for d in range(2, n):
            pv = standard_params(n, d)
            coherent = [
                s
                for s in enumerate_monotone_paths(n, d)
                if isinstance(is_coherent_string_lp(s, pv), lp.Witness)
            ]
            assert len(coherent) == count_coherent_paths(n, d), (n, d)
    # LP coherence <=> m(lambda) <= d-2 for every cellular string
    rng = random.Random(303)
    for n in range(4, 9):
        for d in range(2, min(n, 6)):
            strings = enumerate_baues_poset(n, 1, d).proper
            for _ in range(5):
                pv = random_params(n, d, rng)
                for s in strings:
                    want = is_coherent_string(lambda_of_string(s), d)
                    got = isinstance(is_coherent_string_lp(s, pv), lp.Witness)
                    assert got == want, (n, d, s.cells, pv.t)
    # coherent-string poset is the zonotope poset Z(n-2, d-1)
    for n in range(4, 9):
        for d in range(2, n):
            strings = [
                s
                for s in enumerate_baues_poset(n, 1, d).proper
                if is_coherent_string(lambda_of_string(s), d)
            ]
            lams = [lambda_of_string(s) for s in strings]
            assert set(lams) == set(zonotope_face_poset(n - 2, d - 1)), (n, d)
            for s1, lam1 in zip(strings, lams):
                for s2, lam2 in zip(strings, lams):
                    assert refines(s1, s2) == sign_leq(lam1, lam2)
    report("7", "coherent path counts equal the closed form for 2 <= d < n <= 9; "
               "LP coherence matches m(lambda) <= d-2 on every cellular string "
               "(n <= 8, d <= 5, 5 random realizations); coherent-string posets "
               "are the cyclic zonotope posets")


def test_criterion_8_ubc_counterexample():
    poly = GeneralPolytope.from_columns(catalog.UBC_COUNTEREXAMPLE_MATRIX)
    coh = coherent_paths_of_general_polytope(poly, 1)
    assert len(coh) == 34
    cyclic = GeneralPolytope.from_columns(
        [[t**k for t in range(1, 9)] for k in range(1, 5)]
    )
    assert len(coherent_paths_of_general_polytope(cyclic, 1)) == 32
    report("8", "the 4x8 vertex matrix yields 34 coherent monotone paths against "
               "32 for C(8,4)")


def test_criterion_9_property_suites():
    # (a) lifting transfer: coherent subdivisions of C(6,2) round-trip through
    # C(7,3); incoherent ones never extend
    pv6 = params([-7, -6, -5, -4, -3, -1], 2)
    lifted = params([-7, -6, -5, -4, -3, -1, 0], 3)
    rep = fiber_face_poset(6, 2, 4, pv6)
    incoherent = set()
    transfers = 0
    for s, res in zip(rep.poset.elements, rep.results):
        if res is None:
            continue
        if isinstance(res, lp.Witness):
            w7 = tau_star_heights(res.x, pv6)
            for dep in dependence_basis(lifted.with_dimension(5)):
                assert dot(dep, w7) == 0
            sub7 = regular_subdivision_from_heights(lifted, w7)
            assert isinstance(is_pi_coherent(sub7.cells, lifted, 5), lp.Witness)
            assert tuple(sorted(link_of_vertex(sub7.cells, 7))) == s.cells
            transfers += 1
        else:
            incoherent.add(s.cells)
    assert transfers and incoherent
    bp7 = enumerate_baues_poset(7, 3, 5)
    for s in bp7.proper:
        if isinstance(is_pi_coherent(s.cells, lifted, 5), lp.Witness):
            assert tuple(sorted(link_of_vertex(s.cells, 7))) not in incoherent

    # (b) placing extension preserves regularity on 20 random instances
    rng = random.Random(404)
    for _ in range(20):
        n = rng.randint(5, 7)
        d = rng.randint(2, min(4, n - 2))
        pv = random_params(n + 1, d, rng)
        tri = rng.choice(sorted(enumerate_triangulations(n, d), key=sorted))
        ext = extend_by_placing(tri, n + 1, d)
        assert isinstance(is_regular(tri, sub_params(pv, range(1, n + 1))), lp.Witness) == isinstance(
            is_regular(ext, pv), lp.Witness
        )

    # (c) oracle equivalence across every triangulation of C(8,3) and C(8,4)
    for n, d in [(8, 3), (8, 4)]:
        pv = standard_params(n, d)
        for tri in enumerate_triangulations(n, d):
            res = is_regular(tri, pv)
            assert isinstance(res, lp.Witness)
            assert regular_subdivision_from_heights(pv, res.x) == Subdivision.make(tri, n, d)

    # (d) Farkas certificates re-verify exactly
    for (n, d), info in catalog.PARAM_DEPENDENT.items():
        tri = parse_triangulation_line(info["cells"], n)
        system = regularity_system(tri, standard_params(n, d))
        res = lp.solve_strict(system)
        assert isinstance(res, lp.Certificate)
        assert lp.verify(system, res)
        combo = [Fraction(0)] * system.dimension
        for coef, row in zip(res.y, system.strict):
            combo = [c + coef * r for c, r in zip(combo, row)]
        # y^T B lies in the span of the equality rows; with no equalities it
        # vanishes identically
        if not system.equalities:
            assert all(c == 0 for c in combo)
    report("9", "lifting transfer, placing extension, oracle equivalence and "
               "certificate re-verification all hold")
