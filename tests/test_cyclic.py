import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_params
from oracles import (
    FaceClass,
    classify_face,
    classify_facet,
    facet_upper_by_geometry,
    homogenized_rank,
    moment_points,
    vandermonde_volume,
)
from cyclicfiber import lp
from cyclicfiber.cyclic import (
    enumerate_facets,
    format_face,
    format_params,
    gale_evenness_is_face,
    homogenized_matrix,
    params,
    parse_face,
    parse_params,
    standard_params,
)
from cyclicfiber.linalg import vec


def geometric_face_oracle(s, pv):
    """Supporting-hyperplane test: exact LP over (alpha, beta)."""
    pts = moment_points(pv)
    s = set(s)
    dim = pv.d + 1
    eqs = tuple(vec(pts[i - 1] + (1,)) for i in sorted(s))
    strict = tuple(vec(pts[j - 1] + (1,)) for j in range(1, pv.n + 1) if j not in s)
    if not strict:
        return False  # the full vertex set is not a proper face
    return isinstance(
        lp.solve_strict(lp.StrictSystem(strict, eqs, dim)), lp.Witness
    )


def brute_force_facets(pv):
    """All d-subsets whose hyperplane has every other point strictly one side."""
    out = []
    for s in combinations(range(1, pv.n + 1), pv.d):
        signs = set()
        for j in range(1, pv.n + 1):
            if j in s:
                continue
            val = Fraction(1)
            for i in s:
                val *= pv.param(j) - pv.param(i)
            signs.add(val > 0)
        if len(signs) == 1:
            out.append(s)
    return out


def test_param_vector_invariants():
    with pytest.raises(ValueError):
        params([1, 1, 2], 2)
    with pytest.raises(ValueError):
        params([1, 2], 2)


def test_moment_points_examples():
    assert moment_points(params([1, 2, 3], 2)) == [(1, 1), (2, 4), (3, 9)]
    assert moment_points(params([0, 1], 1))[0] == (0,)
    assert homogenized_rank(params(range(1, 7), 4)) == 5


def test_gale_evenness_worked_example():
    assert not gale_evenness_is_face([1, 3, 5], 6, 4)
    assert not gale_evenness_is_face([2, 4, 6], 6, 4)
    assert gale_evenness_is_face([1, 2, 3, 4], 6, 4)
    for i in range(1, 7):
        assert gale_evenness_is_face([i], 6, 4)
    assert gale_evenness_is_face([], 6, 4)
    assert not gale_evenness_is_face([1, 2, 3, 4, 5, 6], 6, 4)
    with pytest.raises(ValueError):
        gale_evenness_is_face([0, 3], 6, 4)


def test_facets_c64():
    facs = enumerate_facets(6, 4)
    want = ["1234", "1236", "1245", "1256", "1346", "1456", "2345", "2356", "3456"]
    assert [format_face(f, 6) for f in facs] == want


def test_facets_quadrilateral():
    assert enumerate_facets(4, 2) == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_facet_count_c84():
    assert len(enumerate_facets(8, 4)) == 20


def test_facet_enumeration_matches_hull_oracle():
    rng = random.Random(11)
    for n in range(4, 11):
        for d in range(2, min(n, 7)):
            pv = random_params(n, d, rng)
            assert sorted(enumerate_facets(n, d)) == sorted(brute_force_facets(pv)), (n, d)


def test_gale_evenness_matches_geometric_oracle():
    rng = random.Random(23)
    for n, d in [(5, 2), (6, 3), (6, 4), (7, 4), (7, 5), (8, 5)]:
        pv = random_params(n, d, rng)
        for k in range(1, min(d + 3, n)):
            for s in combinations(range(1, n + 1), k):
                assert gale_evenness_is_face(s, n, d) == geometric_face_oracle(s, pv), (
                    n, d, s,
                )


def test_classification_c64():
    # parity rule: the trailing block containing n is odd exactly on uppers
    uppers = {f for f in enumerate_facets(6, 4) if classify_facet(f, 6, 4) is FaceClass.UPPER}
    assert uppers == {(1, 2, 3, 6), (1, 3, 4, 6), (1, 4, 5, 6)}
    assert classify_face([1, 3, 6], 6, 4) is FaceClass.UPPER
    assert classify_face([1, 4, 6], 6, 4) is FaceClass.UPPER
    assert classify_face([2, 3, 4], 6, 4) is FaceClass.LOWER
    assert classify_face([3, 4, 5], 6, 4) is FaceClass.LOWER
    assert classify_face([1, 2], 6, 4) is FaceClass.CONTOUR
    # facets classify consistently through both entry points
    for f in enumerate_facets(6, 4):
        assert classify_face(f, 6, 4) is classify_facet(f, 6, 4)


def test_classification_matches_outer_normal_sign():
    rng = random.Random(5)
    for n, d in [(5, 2), (6, 4), (7, 3), (7, 4), (8, 5), (8, 4)]:
        pv = random_params(n, d, rng)
        for f in enumerate_facets(n, d):
            geo = facet_upper_by_geometry(f, pv)
            assert geo == (classify_facet(f, n, d) is FaceClass.UPPER), (n, d, f)


def test_polygon_has_single_upper_facet():
    for n in range(4, 9):
        uppers = [f for f in enumerate_facets(n, 2) if classify_facet(f, n, 2) is FaceClass.UPPER]
        assert uppers == [(1, n)]


def test_classify_errors():
    with pytest.raises(ValueError):
        classify_facet([1, 3, 5], 6, 4)
    with pytest.raises(ValueError):
        classify_face([1, 3, 5], 6, 4)


def test_vandermonde_volume():
    assert vandermonde_volume([1, 2, 3], params([1, 2, 3], 2)) == 2
    assert vandermonde_volume([1, 2, 3, 4], params([1, 2, 3, 4], 3)) == 12
    with pytest.raises(ValueError):
        vandermonde_volume([1, 2], params([1, 2, 3], 2))
    with pytest.raises(ValueError):
        vandermonde_volume([1, 2, 2], params([1, 2, 3], 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 9), st.data())
def test_volume_positive_on_sorted_subsets(n, data):
    d = data.draw(st.integers(2, n - 2))
    pv = standard_params(n, d)
    s = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=d + 1, max_size=d + 1))))
    assert vandermonde_volume(s, pv) > 0


def test_face_text_round_trip():
    assert parse_face("1456", 6) == (1, 4, 5, 6)
    assert format_face((1, 4, 5, 6), 6) == "1456"
    # at n >= 10 a face is written with commas, and no digit string is read
    assert format_face((2, 10, 11), 12) == "2,10,11"
    with pytest.raises(ValueError, match="only defined for n <= 9"):
        parse_face("2,10,11", 12)


def test_params_text_round_trip():
    pv = parse_params("1,2,3,10/3,23/6,13/3,14/3,5,6", 3)
    assert pv.t[3] == Fraction(10, 3)
    assert format_params(pv) == "1,2,3,10/3,23/6,13/3,14/3,5,6"
    assert parse_params(format_params(pv), 3) == pv


def test_homogenized_matrix_shape():
    m = homogenized_matrix(standard_params(6, 4))
    assert len(m) == 5 and all(len(r) == 6 for r in m)
    assert m[0] == (1, 1, 1, 1, 1, 1)


def test_param_vectors_hash_by_value_and_stay_frozen():
    a = params([1, 2, Fraction(7, 2), 5], 2)
    b = params(["1", "2", "7/2", "5"], 2)
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a"
    assert a.with_dimension(3) != a and hash(a.with_dimension(2)) == hash(a)
    with pytest.raises(FrozenInstanceError):
        a.t = b.t
    with pytest.raises(FrozenInstanceError):
        a._hash = 0
    assert hash(a) == hash(b)
