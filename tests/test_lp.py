import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cyclicfiber import catalog, coherence, cyclic, lp, paths, subdiv
from cyclicfiber.linalg import nullspace, vec
from oracles import (
    every_row_solve_strict,
    fraction_verify_witness,
    reference_gordan_phase1,
    slack_feasible,
    slack_solve_strict,
)

entries = st.integers(min_value=-6, max_value=6)


def build(strict, eqs, dim):
    return lp.StrictSystem(tuple(vec(r) for r in strict), tuple(vec(r) for r in eqs), dim)


def test_single_positive():
    res = lp.solve_strict(build([[1]], [], 1))
    assert isinstance(res, lp.Witness) and res.x[0] > 0


def test_contradiction_yields_certificate():
    res = lp.solve_strict(build([[1], [-1]], [], 1))
    assert isinstance(res, lp.Certificate)
    assert res.y == (Fraction(1), Fraction(1))


def test_empty_system_is_witnessed_by_zero():
    res = lp.solve_strict(build([], [[1, 1]], 2))
    assert isinstance(res, lp.Witness) and res.x == (0, 0)


def test_equality_rows_respected():
    res = lp.solve_strict(build([[1, 0]], [[1, 1]], 2))
    assert isinstance(res, lp.Witness)
    assert res.x[0] > 0 and res.x[0] + res.x[1] == 0


def test_row_killed_by_equalities():
    res = lp.solve_strict(build([[1, 1]], [[1, 1]], 2))
    assert isinstance(res, lp.Certificate)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        build([[1, 2, 3]], [], 2)


def test_verify_rejects_violated_witnesses():
    system = build([[1, 0, 0], [0, Fraction(1, 2), Fraction(-1, 3)]], [[1, 1, -2]], 3)
    for x, ok in [
        ((1, 3, 2), True),
        ((Fraction(1, 2), Fraction(3, 2), 1), True),
        ((2, 0, 1), False),  # second strict row negative
        ((0, 2, 1), False),  # first strict row zero
        ((1, 3, 1), False),  # equality row nonzero
        ((Fraction(1, 2), Fraction(3, 2), 2), False),
    ]:
        assert lp.verify(system, lp.Witness(tuple(map(Fraction, x)))) is ok, x
    for x in [(1, 3), (1, 3, 2, 0), (Fraction(1, 2), 3)]:
        with pytest.raises(ValueError):
            lp.verify(system, lp.Witness(tuple(map(Fraction, x))))


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def witness_cases(draw):
    """A system and a witness, integer or not, often satisfying some of the rows."""
    dim = draw(dims)
    coords = st.integers(min_value=-5, max_value=5) if draw(st.booleans()) else fractions
    x = tuple(Fraction(v) for v in draw(st.lists(coords, min_size=dim, max_size=dim)))
    row = st.lists(fractions, min_size=dim, max_size=dim)
    strict = draw(st.lists(row, max_size=6))
    eqs = draw(st.lists(row, max_size=2))
    if draw(st.booleans()):  # orient every strict row nonnegatively on x
        strict = [r if sum(a * b for a, b in zip(r, x)) >= 0 else [-a for a in r] for r in strict]
    norm = sum(v * v for v in x)
    if norm and draw(st.booleans()):  # project the equality rows onto the complement of x
        eqs = [[a - sum(e * b for e, b in zip(r, x)) / norm * b for a, b in zip(r, x)] for r in eqs]
    return build(strict, eqs, dim), x


@settings(max_examples=300, deadline=None)
@given(witness_cases())
def test_verify_matches_fraction_dot_products(case):
    system, x = case
    assert lp.verify(system, lp.Witness(x)) == fraction_verify_witness(system, x)


def test_mixed_feasibility(monkeypatch):
    # x > 0, y >= 0, x + y = 0 forces y = -x < 0: infeasible
    assert lp.feasible([[1, 0]], [[0, 1]], [[1, 1]], 2) is None
    w = lp.feasible([[1, 0]], [[0, 1]], [], 2)
    assert w is not None and w[0] > 0 and w[1] >= 0
    rounds = []
    solve = lp.solve_strict
    monkeypatch.setattr(lp, "solve_strict", lambda system: rounds.append(system) or solve(system))
    # y > 0 and -y > 0 contradict each other alone: a second round asks for y = 0
    w = lp.feasible([[1, 0]], [[0, 1], [0, -1]], [], 2)
    assert len(rounds) == 2 and rounds[1].equalities == ((0, 1), (0, -1))
    assert w is not None and w[0] > 0 and w[1] == 0
    # the same first certificate, and then x > 0 contradicts -x >= 0
    rounds.clear()
    assert lp.feasible([[1, 0]], [[0, 1], [0, -1], [-1, 0]], [], 2) is None
    assert len(rounds) == 2 and rounds[1].equalities == ((0, 1), (0, -1))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=6
    ),
    st.lists(st.lists(entries, min_size=3, max_size=3), max_size=2),
)
def test_exactly_one_outcome_and_it_verifies(strict, eqs):
    system = build(strict, eqs, 3)
    res = lp.solve_strict(system)
    assert lp.verify(system, res)
    if isinstance(res, lp.Certificate):
        # a certificate rules out any witness: re-solving must agree
        assert isinstance(lp.solve_strict(system), lp.Certificate)


def test_randomized_consistency_with_brute_force_search():
    rng = random.Random(7)
    for _ in range(120):
        dim = rng.randint(1, 3)
        strict = [
            [rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, 4))
        ]
        system = build(strict, [], dim)
        res = lp.solve_strict(system)
        # crude grid search for a witness
        grid = [Fraction(k) for k in range(-4, 5)]
        found = None
        if dim == 1:
            pts = ((a,) for a in grid)
        elif dim == 2:
            pts = ((a, b) for a in grid for b in grid)
        else:
            pts = ((a, b, c) for a in grid for b in grid for c in grid)
        for p in pts:
            if all(sum(r * x for r, x in zip(row, p)) > 0 for row in strict):
                found = p
                break
        if found is not None:
            assert isinstance(res, lp.Witness)


def test_witness_and_certificate_are_coprime_integers():
    res = lp.solve_strict(build([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 4), 1]], [], 2))
    assert isinstance(res, lp.Witness)
    assert all(type(x) is int for x in res.x)
    assert gcd(*res.x) == 1
    res = lp.solve_strict(build([[Fraction(1, 2), 0], [-3, 0], [0, 1]], [], 2))
    assert isinstance(res, lp.Certificate)
    assert res.y == (6, 1, 0) and all(type(y) is int for y in res.y)
    # the zero witness, a witness lifted through an equality basis, and the
    # certificate of a row that the equalities force to zero
    for system, kind in [
        (build([], [[1, 1]], 2), lp.Witness),
        (build([[1, 0], [Fraction(1, 3), -2]], [[1, 1]], 2), lp.Witness),
        (build([[1, 1], [1, 0]], [[1, 1]], 2), lp.Certificate),
    ]:
        res = lp.solve_strict(system)
        assert isinstance(res, kind)
        entries = res.x if kind is lp.Witness else res.y
        assert all(type(v) is int for v in entries), res


def test_rank_deficient_rows_are_decided():
    # the last two columns repeat the first: phase 1 runs on all three, in rank 1
    res = lp.solve_strict(build([[1, 1, 2], [2, 2, 4]], [], 3))
    assert isinstance(res, lp.Witness)
    res = lp.solve_strict(build([[1, 1, 2], [-2, -2, -4]], [], 3))
    assert isinstance(res, lp.Certificate) and res.y == (Fraction(2), Fraction(1))


@st.composite
def column_cases(draw):
    """An int matrix with r columns of a chosen rank pattern.

    "full": random rows, usually of rank r; "deficient": every row an
    integer combination of fewer than r rows; "late": such rows followed by
    random ones, so the first r rows are dependent and the whole matrix
    usually has rank r.
    """
    kind = draw(st.sampled_from(["full", "deficient", "late"]))
    r = draw(dims if kind == "full" else st.integers(2, 4))
    row = st.lists(entries, min_size=r, max_size=r)
    if kind == "full":
        return draw(st.lists(row, min_size=r, max_size=r + 5))
    gens = draw(st.lists(row, min_size=1, max_size=r - 1))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))

    def combination(cs):
        return [sum(c * g[j] for c, g in zip(cs, gens)) for j in range(r)]

    rows = [combination(draw(coeffs)) for _ in range(draw(st.integers(r, r + 4)))]
    if kind == "late":
        rows += draw(st.lists(row, min_size=1, max_size=3))
    return rows


@settings(max_examples=300, deadline=None)
@given(column_cases(), st.booleans(), st.data())
def test_rank_patterns_reach_phase_1_as_they_are(rows, with_equality, data):
    # no column is chosen: rows of every rank pattern, reduced on one
    # equality row or none, go to phase 1 with all their columns
    r = len(rows[0])
    eqs = [data.draw(st.lists(entries, min_size=r, max_size=r))] if with_equality else []
    system = build(rows, eqs, r)
    res = lp.solve_strict(system)
    assert lp.verify(system, res)
    assert isinstance(res, lp.Witness) == slack_solve_strict(system)
    basis = lp._equality_basis(eqs, r)
    reduced = [lp._reduce(row, basis)[0] for row in rows]
    if all(map(any, reduced)):  # else a row forced to zero is the certificate
        outcome = _kernel_outcome(lp._gordan_phase1, reduced)
        assert outcome == _kernel_outcome(reference_gordan_phase1, reduced)
        assert (outcome[0] is not None) == isinstance(res, lp.Witness)


def test_reduction_stops_at_the_first_row_forced_to_zero(monkeypatch):
    reduced = []
    real = lp._reduce
    monkeypatch.setattr(lp, "_reduce", lambda row, basis: reduced.append(row) or real(row, basis))
    # x1 = x2 forces the row (1, -1, 0) to zero, so no later row is reduced
    strict = [[1, -1, 0], [0, 0, 1], [1, 1, 1], [2, -2, 0]]
    res = lp.solve_strict(build(strict, [[1, -1, 0]], 3))
    assert res == lp.Certificate((1, 0, 0, 0)) and len(reduced) == 1
    reduced.clear()
    res = lp.solve_strict(build(strict[1:], [[1, -1, 0]], 3))
    assert res == lp.Certificate((0, 0, 1)) and len(reduced) == 3
    # without a forced row every row is reduced, once
    reduced.clear()
    assert isinstance(lp.solve_strict(build(strict[1:3], [[1, -1, 0]], 3)), lp.Witness)
    assert len(reduced) == 2


def test_each_distinct_row_is_reduced_and_pivoted_once(monkeypatch):
    reduced, columns = [], []
    reduce, kernel = lp._reduce, lp._gordan_phase1
    monkeypatch.setattr(lp, "_reduce", lambda row, basis: reduced.append(row) or reduce(row, basis))
    monkeypatch.setattr(lp, "_gordan_phase1", lambda rows: columns.append(rows) or kernel(rows))
    # rows 3 and 5 repeat rows 1 and 2; row 4 is twice row 1, and on x3 = 0
    # row 6 reduces as row 2 does
    a, b = (1, 0, 0), (0, 1, 1)
    strict = [a, b, a, (2, 0, 0), b, (0, 1, 2)]
    system = lp.StrictSystem(tuple(strict), ((0, 0, 1),), 3)
    res = lp.solve_strict(system)
    assert reduced == [a, b, (2, 0, 0), (0, 1, 2)]
    assert columns == [[(1, 0), (0, 1)]]
    assert res == every_row_solve_strict(system) and isinstance(res, lp.Witness)
    # without equalities the exact repeats go, and the distinct rows are the columns
    reduced.clear()
    columns.clear()
    res = lp.solve_strict(lp.StrictSystem((a, b, a, b), (), 3))
    assert reduced == [a, b] and columns == [[a, b]] and isinstance(res, lp.Witness)
    # without equalities a positive multiple reduces as its row does and
    # shares that row's column
    reduced.clear()
    columns.clear()
    system = lp.StrictSystem((a, b, (2, 0, 0)), (), 3)
    res = lp.solve_strict(system)
    assert reduced == [a, b, (2, 0, 0)] and columns == [[a, b]]
    assert res == every_row_solve_strict(system) and isinstance(res, lp.Witness)
    # -a refutes a and its multiple: the multiple gets 0
    system = lp.StrictSystem((a, (2, 0, 0), (-1, 0, 0)), (), 3)
    res = lp.solve_strict(system)
    assert res == every_row_solve_strict(system) == lp.Certificate((1, 0, 1))
    # -a refutes a: its column's entry goes on row 0, never on the copies
    system = lp.StrictSystem(tuple(strict) + ((-1, 0, 0),), ((0, 0, 1),), 3)
    res = lp.solve_strict(system)
    assert res == every_row_solve_strict(system) == lp.Certificate((1, 0, 0, 0, 0, 0, 1))
    # a row forced to zero and repeated: the certificate names its first copy
    system = lp.StrictSystem((a, (0, 0, 1), b, (0, 0, 2), (0, 0, 1)), ((0, 0, 1),), 3)
    assert lp.solve_strict(system) == lp.Certificate((0, 1, 0, 0, 0))


@st.composite
def repeating_systems(draw):
    """Strict systems of int or Fraction rows that repeat rows.

    Each row is an exact copy of a base row, a positive multiple of one, or
    one shifted by a multiple of an equality row, which reduces as the base
    row does; a combination of the equality rows, forced to zero, may
    appear twice.
    """
    dim = draw(dims)
    fractional = draw(st.booleans())
    coords = fractions if fractional else entries
    row = st.lists(coords, min_size=dim, max_size=dim)
    eqs = draw(st.lists(row, max_size=2))
    bases = draw(st.lists(row, min_size=1, max_size=4))
    factors = st.integers(1, 3)
    if fractional:
        factors = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
    strict = []
    for _ in range(draw(st.integers(1, 9))):
        r = draw(st.sampled_from(bases))
        kind = draw(st.sampled_from(["copy", "multiple", "shifted"] if eqs else ["copy", "multiple"]))
        if kind == "multiple":
            k = draw(factors)
            r = [k * v for v in r]
        elif kind == "shifted":
            e, c = draw(st.sampled_from(eqs)), draw(st.integers(-2, 2))
            r = [v + c * w for v, w in zip(r, e)]
        strict.append(r)
    if eqs and draw(st.booleans()):
        cs = draw(st.lists(st.integers(-2, 2), min_size=len(eqs), max_size=len(eqs)))
        zero = [sum(c * e[j] for c, e in zip(cs, eqs)) for j in range(dim)]
        for _ in range(2):
            strict.insert(draw(st.integers(0, len(strict))), zero)
    return lp.StrictSystem(tuple(map(tuple, strict)), tuple(map(tuple, eqs)), dim)


@settings(max_examples=400, deadline=None)
@given(repeating_systems())
def test_repeated_rows_match_the_every_row_oracle(system):
    res = lp.solve_strict(system)
    assert res == every_row_solve_strict(system)
    _assert_copies_take_no_weight(system, res)


def _assert_copies_take_no_weight(system, res):
    """No certificate weight on a row whose reduction an earlier row has."""
    if isinstance(res, lp.Certificate):
        basis = lp._equality_basis(system.equalities, system.dimension)
        seen = set()
        for row, v in zip(system.strict, res.y):
            key = lp._reduce(row, basis)[0]
            assert v == 0 or key not in seen, (row, res)
            seen.add(key)


def test_equality_basis_is_memoized_by_its_rows():
    eqs = ((1, 1, 0), (0, 2, -2))
    basis = lp._equality_basis(eqs, 3)
    assert basis == tuple(nullspace(eqs, 3)) and type(basis) is tuple
    assert lp._equality_basis([list(r) for r in eqs], 3) is basis
    assert lp._equality_basis((), 3) is None
    # equal rows of Fractions give the same basis
    assert lp._equality_basis(((Fraction(1), 1, 0), (0, 2, -2)), 3) == basis


# ---------------------------------------------------------------------------
# differential tests against the slack-maximizing Fraction simplex
# ---------------------------------------------------------------------------

dims = st.integers(min_value=1, max_value=4)


@st.composite
def systems(draw, with_nonneg):
    dim = draw(dims)
    row = st.lists(entries, min_size=dim, max_size=dim)
    strict = draw(st.lists(row, min_size=1, max_size=7))
    nonneg = draw(st.lists(row, max_size=4)) if with_nonneg else []
    eqs = draw(st.lists(row, max_size=2))
    return strict, nonneg, eqs, dim


@settings(max_examples=300, deadline=None)
@given(systems(with_nonneg=False))
def test_strict_verdicts_match_slack_simplex(case):
    strict, _, eqs, dim = case
    system = build(strict, eqs, dim)
    res = lp.solve_strict(system)
    assert lp.verify(system, res)
    assert isinstance(res, lp.Witness) == slack_solve_strict(system)


@settings(max_examples=300, deadline=None)
@given(systems(with_nonneg=True))
def test_mixed_verdicts_match_slack_simplex(case):
    strict, nonneg, eqs, dim = case
    x = lp.feasible(strict, nonneg, eqs, dim)
    assert (x is None) == (slack_feasible(strict, nonneg, eqs, dim) is None)


def test_c94_regularity_verdicts_match_slack_simplex():
    pv = cyclic.standard_params(9, 4)
    certificates = 0
    for tri in subdiv.enumerate_triangulations(9, 4):
        system = coherence.regularity_system(tri, pv)
        res = lp.solve_strict(system)
        assert isinstance(res, lp.Witness) == slack_solve_strict(system), sorted(tri)
        certificates += isinstance(res, lp.Certificate)
        # the decision in a-coordinates agrees, and its result holds on the Q^n system
        decided = coherence.is_regular(tri, pv)
        assert type(decided) is type(res) and lp.verify(system, decided), sorted(tri)
        if isinstance(decided, lp.Witness):
            # heights less their interpolant at t_1..t_5: zero there, and the same hull
            assert not any(decided.x[:5]), decided.x
            hull = coherence.regular_subdivision_from_heights(pv, decided.x)
            assert hull == subdiv.Subdivision.make(tri, 9, 4), sorted(tri)
    assert certificates == 4


def test_c83_pi_coherence_verdicts_match_slack_simplex():
    poset = subdiv.enumerate_baues_poset(8, 3, 5)
    pv = cyclic.standard_params(8, 3)
    proper = poset.proper
    assert len(proper) == 284
    for s in proper:
        system = coherence.pi_coherence_system(s.cells, pv, 5)
        assert isinstance(lp.solve_strict(system), lp.Witness) == slack_solve_strict(system), s.cells


def _solved(monkeypatch, decide) -> list[tuple[lp.StrictSystem, lp.FeasibilityResult]]:
    """The systems `lp.solve_strict` decides while decide() runs, with its results."""
    seen = []
    solve = lp.solve_strict

    def record(system):
        res = solve(system)
        seen.append((system, res))
        return res

    with monkeypatch.context() as patch:
        patch.setattr(lp, "solve_strict", record)
        decide()
    return seen


def test_c94_regularity_matches_the_every_row_oracle(monkeypatch):
    tris = list(subdiv.enumerate_triangulations(9, 4))
    for pv in (cyclic.standard_params(9, 4), cyclic.random_params(9, 4, random.Random(49))):
        solved = _solved(monkeypatch, lambda: [coherence.is_regular(t, pv) for t in tris])
        assert len(solved) == len(tris)
        for system, res in solved:
            assert res == every_row_solve_strict(system), system


@pytest.mark.parametrize(
    "points, bad",
    [
        # (0,0), (1,1), (3,3), (4,4) lie on one line: each of vertices 1, 2
        # and 5 has rows v - u that are positive multiples, with no equality,
        # and the certificate of vertex 5 weighs v - (4,4) but not v - (3,3)
        ([(0, 0), (4, 4), (2, 0), (0, 2), (1, 1), (3, 3)], 5),
        # a repeated vertex gives equal rows, and a zero row at its copy
        ([(0, 0), (2, 0), (0, 2), (2, 0)], 2),
    ],
    ids=["collinear", "repeated"],
)
def test_general_vertex_checks_match_the_every_row_oracle(monkeypatch, points, bad):
    matrix = [[p[k] for p in points] for k in range(2)]

    def validate():
        with pytest.raises(ValueError, match=f"vertex {bad} is not extreme"):
            paths.GeneralPolytope.from_columns(matrix)

    solved = _solved(monkeypatch, validate)
    assert len(solved) == bad
    assert any(len({lp._reduce(r, None)[0] for r in s.strict}) < len(s.strict) for s, _ in solved)
    assert isinstance(solved[-1][1], lp.Certificate)
    if bad == 5:
        assert solved[-1][1].y == (3, 1, 0, 0, 0)
    for system, res in solved:
        assert not system.equalities
        assert res == every_row_solve_strict(system), system
        _assert_copies_take_no_weight(system, res)


def test_fiber_lps_match_the_every_row_oracle(monkeypatch):
    def fibers():  # reading `results` solves the refuted elements too
        for n in range(4, 9):
            for d in range(1, n - 1):
                for d_prime in range(d + 1, n):
                    coherence.fiber_face_poset(n, d, d_prime).results

    solved = _solved(monkeypatch, fibers)
    assert len(solved) > 8000
    for system, res in solved:
        assert res == every_row_solve_strict(system), system


# ---------------------------------------------------------------------------
# the compact phase-1 tableau against the full one
# ---------------------------------------------------------------------------


def _kernel_outcome(kernel, rows):
    """(x, y) of a phase-1 kernel on a copy of rows, or the type of its error."""
    try:
        return kernel([list(r) for r in rows])
    except lp.SolverError as exc:
        return type(exc)


def _kernel_inputs(monkeypatch, decide) -> list[list[list[int]]]:
    """The matrices `solve_strict` hands the kernel while decide() runs."""
    seen = []
    kernel = lp._gordan_phase1

    def record(rows):
        seen.append([list(r) for r in rows])
        return kernel(rows)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_gordan_phase1", record)
        decide()
    return seen


def _assert_kernels_agree(matrices):
    assert matrices
    for rows in matrices:
        assert _kernel_outcome(lp._gordan_phase1, rows) == _kernel_outcome(
            reference_gordan_phase1, rows
        ), rows


def test_compact_phase1_matches_the_full_tableau_on_c94_regularity(monkeypatch):
    tris = list(subdiv.enumerate_triangulations(9, 4))
    for pv in (cyclic.standard_params(9, 4), cyclic.random_params(9, 4, random.Random(94))):
        matrices = _kernel_inputs(monkeypatch, lambda: [coherence.is_regular(t, pv) for t in tris])
        assert len(matrices) == len(tris)
        _assert_kernels_agree(matrices)


def test_compact_phase1_matches_the_full_tableau_on_fiber_and_path_systems(monkeypatch):
    def fiber():  # the refuted elements reach the LP when `results` is read
        coherence.fiber_face_poset(8, 3, 5).results

    def ubc():
        p = paths.GeneralPolytope.from_columns(catalog.UBC_COUNTEREXAMPLE_MATRIX)
        paths.coherent_paths_of_general_polytope(p, 1)

    # the elements whose rows the equalities force to zero never reach the kernel
    _assert_kernels_agree(_kernel_inputs(monkeypatch, fiber))
    _assert_kernels_agree(_kernel_inputs(monkeypatch, ubc))


@st.composite
def kernel_inputs(draw):
    """Integer matrices for the kernel: some rank-deficient, some with zero
    rows, and small entries, so that minimal ratios tie often."""
    r = draw(dims)
    small = draw(st.booleans())
    row = st.lists(st.integers(-2, 2) if small else entries, min_size=r, max_size=r)
    rows = draw(st.lists(row, min_size=1, max_size=9))
    if r > 1 and draw(st.booleans()):  # the last column a combination of the first two
        c = draw(st.integers(-2, 2))
        rows = [v[:-1] + [v[0] + c * v[1 % (r - 1)]] for v in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * r)
    return rows


@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_compact_phase1_matches_the_full_tableau(rows):
    assert _kernel_outcome(lp._gordan_phase1, rows) == _kernel_outcome(reference_gordan_phase1, rows)
