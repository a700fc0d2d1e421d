import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from conftest import random_params
from oracles import (
    moment_points,
    reference_cellular_strings,
    reference_edge_system,
    reference_non_extreme_vertices,
    reference_path_coherence_system,
    reference_polytope_edges,
    refines,
    sign_leq,
)
from cyclicfiber import catalog, lp
from cyclicfiber.coherence import regular_subdivision_from_heights
from cyclicfiber.cyclic import ParamVector, params, standard_params
from cyclicfiber.linalg import rank
from cyclicfiber.paths import (
    MINUS,
    NULL,
    PLUS,
    GeneralPolytope,
    coherent_paths_of_general_polytope,
    count_coherent_paths,
    edge_system,
    enumerate_monotone_paths,
    format_path,
    format_sign_vector,
    is_coherent_string,
    is_coherent_string_lp,
    lambda_of_string,
    m_stat,
    monotone_edge_paths,
    parse_matrix,
    path_coherence_system,
    polytope_edges,
    zonotope_face_poset,
)
from cyclicfiber.subdiv import Subdivision, enumerate_baues_poset


def strings(n, d):
    return enumerate_baues_poset(n, 1, d).proper


def sign_vector(text: str) -> tuple[int, ...]:
    table = {"+": PLUS, "-": MINUS, "0": NULL}
    return tuple(table[c] for c in text.strip())


def run_count(lam) -> int:
    """Number of maximal constant runs of a zero-free sign vector."""
    lam = tuple(lam)
    if NULL in lam:
        raise ValueError("run count is defined for zero-free vectors")
    return 1 + sum(1 for a, b in zip(lam, lam[1:]) if a != b)


def string_of_lambda(lam, n: int) -> Subdivision:
    """Reconstruct the string with a given encoding (inverse of lambda_of_string)."""
    lam = tuple(lam)
    if len(lam) != n - 2:
        raise ValueError("encoding must have length n-2")
    junctions = [1] + [i for i in range(2, n) if lam[i - 2] == MINUS] + [n]
    faces = []
    for a, b in zip(junctions, junctions[1:]):
        faces.append([a] + [i for i in range(a + 1, b) if lam[i - 2] == NULL] + [b])
    return Subdivision.make(faces, n, 1)


def path_count_upper_bound(n: int, d: int) -> int:
    """2 * q_{d-2}(C(n,3) - 1), the hyperplane-arrangement region bound."""
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    m = comb(n, 3) - 1
    return 2 * sum(comb(m, j) for j in range(0, d - 1))


def cyclic_as_general_polytope(pv: ParamVector) -> GeneralPolytope:
    return GeneralPolytope(tuple(moment_points(pv)), pv.d)


def test_m_stat_worked_example():
    assert m_stat(sign_vector("++0--0--++-")) == 5


def test_m_stat_small_cases():
    assert m_stat(sign_vector("++++")) == 0
    assert m_stat(sign_vector("+-")) == 1
    assert m_stat(sign_vector("+0+")) == 2
    assert m_stat(sign_vector("0")) == 1


def test_m_equals_runs_minus_one_when_zero_free_exhaustive():
    for length in range(1, 13):
        for lam in product((PLUS, MINUS), repeat=length):
            assert m_stat(lam) == run_count(lam) - 1


def test_sign_order():
    assert sign_leq(sign_vector("+-"), sign_vector("+0"))
    assert sign_leq(sign_vector("+-"), sign_vector("00"))
    assert not sign_leq(sign_vector("+-"), sign_vector("-0"))
    assert not sign_leq(sign_vector("0-"), sign_vector("+-"))


def test_lambda_of_string_worked_example():
    s = Subdivision.make(((1, 3, 4), (4, 7), (7, 8, 10)), 10, 1)
    assert format_sign_vector(lambda_of_string(s)) == "+0-++-0+"


def test_lambda_of_edge_path_is_all_minus():
    s = Subdivision.make(((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)), 6, 1)
    assert lambda_of_string(s) == (MINUS,) * 4
    assert format_path(s) == "1-2-3-4-5-6"


def test_lambda_encoding_of_coarse_face():
    # a single 2-face covering 1..6 on C(6,3): members 0, absentees +
    s = Subdivision.make(((1, 2, 6),), 6, 1)
    assert format_sign_vector(lambda_of_string(s)) == "0+++"


def test_string_validation():
    for faces, d, why in [
        (((2, 3), (3, 6)), 2, "non-face"),  # does not start at 1
        (((1, 3), (4, 6)), 2, "non-face"),  # junction mismatch
        (((1, 3, 5), (5, 6)), 4, "non-face"),  # 135 is not a face of C(6,4)
        # C(6,4) is 2-neighborly, so these two fail the wall check
        (((2, 3), (3, 6)), 4, "wall"),
        (((1, 3), (4, 6)), 4, "wall"),
    ]:
        with pytest.raises(ValueError, match=why):
            is_coherent_string_lp(Subdivision.make(faces, 6, 1), standard_params(6, d))


def test_string_lambda_round_trip_is_injective():
    for n, d in [(6, 3), (6, 4), (7, 4)]:
        strs = strings(n, d)
        lams = {lambda_of_string(s): s for s in strs}
        assert len(lams) == len(strs)
        for lam, s in lams.items():
            assert string_of_lambda(lam, n) == s


def test_monotone_path_counts():
    for n in (5, 6, 7, 8):
        assert len(enumerate_monotone_paths(n, 4)) == 2 ** (n - 2)
        assert len(enumerate_monotone_paths(n, n - 1)) == 2 ** (n - 2)
    assert len(enumerate_monotone_paths(4, 2)) == 2


def test_census_strings_match_the_chain_oracle():
    for n in range(3, 10):
        for d in range(2, n):
            ref = reference_cellular_strings(n, d)
            assert {s.cells for s in strings(n, d)} == set(ref), (n, d)
            tight = [f for f in ref if all(len(c) == 2 for c in f)]
            assert [s.cells for s in enumerate_monotone_paths(n, d)] == tight, (n, d)


def test_count_coherent_paths_formula():
    assert count_coherent_paths(8, 4) == 32
    assert count_coherent_paths(6, 4) == 14
    for n in range(4, 10):
        assert count_coherent_paths(n, 2) == 2
        assert count_coherent_paths(n, n - 1) == 2 ** (n - 2)


def test_path_count_upper_bound():
    assert path_count_upper_bound(8, 4) == 3082
    for n in range(4, 9):
        assert path_count_upper_bound(n, 2) == 2


def test_string_order_matches_lambda_order():
    for n, d in [(6, 3), (7, 4), (6, 4)]:
        strs = strings(n, d)
        for s1 in strs:
            l1 = lambda_of_string(s1)
            for s2 in strs:
                assert refines(s1, s2) == sign_leq(l1, lambda_of_string(s2)), (s1, s2)


def test_coherence_criterion_against_lp():
    rng = random.Random(47)
    for n, d in [(6, 3), (6, 4), (7, 3)]:
        strs = strings(n, d)
        for trial in range(2):
            pv = random_params(n, d, rng)
            for s in strs:
                want = is_coherent_string(lambda_of_string(s), d)
                got = isinstance(is_coherent_string_lp(s, pv), lp.Witness)
                assert got == want, (n, d, s.cells, pv.t)


def test_string_witness_lifts_exactly_the_string():
    rng = random.Random(1)
    for n in range(3, 8):
        for d in range(2, n):
            for pv in (standard_params(n, d), random_params(n, d, rng)):
                for s in strings(n, d):
                    res = is_coherent_string_lp(s, pv)
                    if isinstance(res, lp.Witness):
                        hull = regular_subdivision_from_heights(pv.with_dimension(1), res.x)
                        assert hull.cells == s.cells, (n, d, s.cells, pv.t)


def test_string_lp_rejects_a_mismatched_realization():
    s = Subdivision.make(((1, 2), (2, 5)), 5, 1)
    with pytest.raises(ValueError, match="does not match"):
        is_coherent_string_lp(s, standard_params(6, 3))
    with pytest.raises(ValueError, match="does not match"):
        is_coherent_string_lp(Subdivision.make(((1, 2, 5),), 5, 2), standard_params(5, 3))


def test_zonotope_poset():
    faces = zonotope_face_poset(4, 3)
    verts = [lam for lam in faces if NULL not in lam]
    assert len(verts) == 14
    assert zonotope_face_poset(5, 1) == ((MINUS,) * 5, (PLUS,) * 5)


def test_zonotope_iso_with_coherent_strings():
    for n, d in [(5, 3), (6, 3), (6, 4), (7, 4), (7, 5)]:
        coherent = {
            lambda_of_string(s)
            for s in strings(n, d)
            if is_coherent_string(lambda_of_string(s), d)
        }
        assert coherent == set(zonotope_face_poset(n - 2, d - 1))


def test_cyclic_general_polytope_agrees_with_formula():
    for n in range(5, 9):
        for d in range(4, n):
            p = cyclic_as_general_polytope(standard_params(n, d))
            coh = coherent_paths_of_general_polytope(p, 1)
            assert len(coh) == count_coherent_paths(n, d), (n, d)


def test_ubc_counterexample():
    p = GeneralPolytope.from_columns(catalog.UBC_COUNTEREXAMPLE_MATRIX)
    coh = coherent_paths_of_general_polytope(p, 1)
    assert len(coh) == 34
    assert count_coherent_paths(8, 4) == 32


def test_simplex_paths_all_coherent():
    simplex = GeneralPolytope.from_columns(
        [[0, 1, 2, 4], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    allp = monotone_edge_paths(simplex, 1)
    coh = coherent_paths_of_general_polytope(simplex, 1)
    assert len(allp) == len(coh) == 4


def _random_columns():
    """Seeded 4-row vertex matrices with distinct x1, up to 30 that validate,
    each with its polytope, or None when it does not validate."""
    rng = random.Random(19)
    found = 0
    while found < 30:
        nv = rng.choice([7, 8])
        cols = [[rng.randint(-50, 50) for _ in range(nv)] for _ in range(4)]
        if len(set(cols[0])) != nv:
            continue
        try:
            p = GeneralPolytope.from_columns(cols)
        except ValueError:
            p = None
        found += p is not None
        yield cols, p


def test_upper_bound_dominates_random_polytopes():
    for cols, p in _random_columns():
        if p is not None:
            coh = coherent_paths_of_general_polytope(p, 1)
            assert len(coh) <= path_count_upper_bound(len(cols[0]), 4)


def _differential_polytopes():
    """(name, polytope, directions): the UBC polytope, cyclic polytopes and
    the random polytopes above."""
    yield "ubc", GeneralPolytope.from_columns(catalog.UBC_COUNTEREXAMPLE_MATRIX), range(1, 5)
    for n in range(5, 9):
        for d in range(2, n):
            yield f"C({n},{d})", cyclic_as_general_polytope(standard_params(n, d)), [1]
    for k, (_, p) in enumerate(q for q in _random_columns() if q[1] is not None):
        yield f"random {k}", p, [1]


def test_path_verdicts_match_the_reference_system():
    paths_seen = 0
    for name, p, directions in _differential_polytopes():
        for direction in directions:
            for path in monotone_edge_paths(p, direction):
                system = path_coherence_system(p, path, direction)
                assert len(system.strict) == len(p.vertices) - 2 and not system.equalities
                assert system.dimension == p.dim - 1
                reference = reference_path_coherence_system(p, path, direction)
                verdict = type(lp.solve_strict(system))
                assert verdict is type(lp.solve_strict(reference)), (name, direction, path)
                paths_seen += 1
    assert paths_seen > 1000


def test_vertex_checks_match_the_slack_simplex():
    matrices = [catalog.UBC_COUNTEREXAMPLE_MATRIX, [[0, 1, 0, 1], [0, 0, 1, 0]]]
    matrices += [list(zip(*cyclic_as_general_polytope(standard_params(n, d)).vertices))
                 for n in range(5, 9) for d in range(2, n)]
    matrices += [cols for cols, _ in _random_columns()]
    rejected = 0
    for cols in matrices:
        p = GeneralPolytope(tuple(tuple(map(Fraction, v)) for v in zip(*cols)), len(cols))
        bad = reference_non_extreme_vertices(p.vertices)
        try:
            p.validate()
            got = None
        except ValueError as e:
            got = str(e)
        assert got == (f"vertex {bad[0]} is not extreme" if bad else None), cols
        rejected += bool(bad)
    assert rejected > 2


def test_path_system_rejects_paths_that_do_not_rise_from_lowest_to_highest():
    p = GeneralPolytope.from_columns(catalog.UBC_COUNTEREXAMPLE_MATRIX)
    path = monotone_edge_paths(p, 1)[0]
    for bad in [path[::-1], path[1:], path[:-1], path[:1] + path[2:3] + path[1:2] + path[3:],
                (), (0,) + path[1:], path[:-1] + (9,)]:
        with pytest.raises(ValueError, match="path"):
            path_coherence_system(p, bad, 1)
    tied = GeneralPolytope.from_columns([[0, 0, 1, 2], [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="lowest"):
        path_coherence_system(tied, (1, 3, 4), 1)


def test_general_polytope_validation():
    with pytest.raises(ValueError):  # middle point not extreme
        GeneralPolytope.from_columns([[0, 1, 2], [0, 1, 2]])
    with pytest.raises(ValueError):  # not full-dimensional
        GeneralPolytope.from_columns([[0, 1, 2], [0, 0, 0]])
    with pytest.raises(ValueError):  # tied direction values
        monotone_edge_paths(
            GeneralPolytope.from_columns([[0, 0, 1], [0, 1, 0]]), 1
        )


def test_parse_matrix():
    p = parse_matrix("0 1 2 4\n0 0 1 0\n0 0 0 1\n")
    assert p.dim == 3 and len(p.vertices) == 4
    assert len(polytope_edges(p)) == 6


def _affine_images(columns, count: int, seed: int):
    """Seeded integer images of a vertex matrix under invertible affine maps."""
    rng = random.Random(seed)
    d, nv = len(columns), len(columns[0])
    while count:
        a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if rank(a) == d:
            shift = [rng.randint(-20, 20) for _ in range(d)]
            yield [[sum(a[i][k] * columns[k][j] for k in range(d)) + shift[i] for j in range(nv)]
                   for i in range(d)]
            count -= 1


def _rational_copies(columns):
    """The matrix divided by 3, and with mixed denominators: times 5/12 and
    row k shifted by k/7.  Both are affine images of the original."""
    third = [[Fraction(x, 3) for x in row] for row in columns]
    mixed = [[Fraction(5 * x, 12) + Fraction(k, 7) for x in row] for k, row in enumerate(columns, 1)]
    return [third, mixed]


def _integer_polytopes():
    """(name, polytope): the UBC polytope and four affine images of it,
    cyclic polytopes and the random polytopes above."""
    ubc = [list(r) for r in catalog.UBC_COUNTEREXAMPLE_MATRIX]
    yield "ubc", GeneralPolytope.from_columns(ubc)
    for k, cols in enumerate(_affine_images(ubc, 4, seed=5)):
        yield f"ubc image {k}", GeneralPolytope.from_columns(cols)
    for n in range(5, 9):
        for d in range(2, n):
            yield f"C({n},{d})", cyclic_as_general_polytope(standard_params(n, d))
    for k, (_, p) in enumerate(q for q in _random_columns() if q[1] is not None):
        yield f"random {k}", p


def _reference_monotone_paths(p, direction, edges):
    """Every path along edges that rises in x_direction from the lowest to the highest vertex."""
    key = [v[direction - 1] for v in p.vertices]
    lo, hi = (1 + key.index(f(key)) for f in (min, max))
    up = {j: [] for j in range(1, len(key) + 1)}
    for a, b in edges:
        if key[a - 1] > key[b - 1]:
            a, b = b, a
        up[a].append(b)
    done, stack = [], [(lo,)]
    while stack:
        path = stack.pop()
        if path[-1] == hi:
            done.append(path)
        stack += [path + (w,) for w in up[path[-1]]]
    return done


def _verdicts(p):
    """Edges, then per direction the monotone and coherent paths, or None for a tied direction."""
    out = [p.edges]
    for direction in range(1, p.dim + 1):
        try:
            out.append((monotone_edge_paths(p, direction),
                        coherent_paths_of_general_polytope(p, direction)))
        except ValueError as e:
            assert "not generic" in str(e)
            out.append(None)
    return out


def test_integer_coordinates_match_the_reference_at_every_direction():
    """Edges, monotone paths and coherent paths against the reference systems
    in the input coordinates.  Coherence is compared on every path of the UBC
    polytopes and on a seeded sample of ten paths per direction elsewhere;
    `test_path_verdicts_match_the_reference_system` covers every path there
    in direction 1."""
    rng = random.Random(23)
    paths_seen = 0
    for name, p in _integer_polytopes():
        edges, *by_direction = _verdicts(p)
        assert list(edges) == reference_polytope_edges(p), name
        for direction, got in enumerate(by_direction, 1):
            key = [v[direction - 1] for v in p.vertices]
            if len(set(key)) < len(key):
                assert got is None, (name, direction)
                continue
            monotone, coherent = got
            reference = _reference_monotone_paths(p, direction, edges)
            assert sorted(monotone) == sorted(reference) and len(set(monotone)) == len(monotone)
            sample = monotone if name.startswith("ubc") else rng.sample(monotone, min(10, len(monotone)))
            for path in sample:
                res = lp.solve_strict(reference_path_coherence_system(p, path, direction))
                assert isinstance(res, lp.Witness) == (path in coherent), (name, direction, path)
            paths_seen += len(sample)
    assert paths_seen > 2500


def test_rational_copies_give_the_verdicts_of_their_integer_original():
    for name, p in _integer_polytopes():
        columns = [list(r) for r in zip(*p.vertices)]
        want = _verdicts(p)
        for copy in _rational_copies(columns):
            q = GeneralPolytope.from_columns(copy)
            assert q.vertices == tuple(zip(*copy)), name
            assert _verdicts(q) == want, name


def test_edge_witnesses_lift_to_the_equality_form():
    """A witness c' of the projected edge system gives c with c . (u - v) = 0
    and c . (u - x) > 0 for every other vertex x."""
    lifted = 0
    for name, p in _integer_polytopes():
        for a, b in combinations(range(1, len(p.vertices) + 1), 2):
            res = lp.solve_strict(edge_system(p, a, b))
            if isinstance(res, lp.Certificate):
                continue
            e = [s - t for s, t in zip(p.vertices[a - 1], p.vertices[b - 1])]
            k = next(i for i, x in enumerate(e) if x)
            if e[k] < 0:
                e = [-x for x in e]
            c = [e[k] * x for x in res.x]
            c.insert(k, -sum(x * y for x, y in zip(res.x, e[:k] + e[k + 1:])))
            assert lp.verify(reference_edge_system(p, a, b), lp.Witness(tuple(c))), (name, a, b)
            lifted += 1
    assert lifted > 500


def test_a_segment_has_one_edge_and_one_coherent_path():
    for cols in ([[0, 1]], [[Fraction(5, 3), Fraction(1, 2)]]):
        p = GeneralPolytope.from_columns(cols)
        assert p.edges == ((1, 2),)
        want = [(1, 2)] if cols[0][0] < cols[0][1] else [(2, 1)]
        assert monotone_edge_paths(p, 1) == coherent_paths_of_general_polytope(p, 1) == want
