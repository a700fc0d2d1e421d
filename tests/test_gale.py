import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_heights, random_params
from cyclicfiber import lp
from cyclicfiber.cyclic import ParamVector, homogenized_matrix, params, standard_params
from cyclicfiber.gale import (
    circuit_coeffs,
    dependence_basis,
    gale_transform,
    kernel_basis,
    unique_dependence_coeffs,
)
from cyclicfiber.linalg import vec
from oracles import dot, primitive, reference_circuit_coeffs, sub_params, tau_star_heights


def in_relint_pos_cone(f, generators) -> bool:
    """Is f in the relative interior of pos(generators)?

    Equivalent to solvability of f = sum lambda_i g_i with every lambda_i > 0,
    decided by the strict-feasibility kernel on the homogeneous system
    sum lambda_i g_i - s f = 0, lambda > 0, s > 0.
    """
    f = vec(f)
    gens = [vec(g) for g in generators]
    if any(len(g) != len(f) for g in gens):
        raise ValueError("dimension mismatch between f and generators")
    if not gens:
        return all(x == 0 for x in f)
    m = len(gens)
    dim = m + 1
    eqs = []
    for coord in range(len(f)):
        eqs.append(tuple(g[coord] for g in gens) + (-f[coord],))
    strict = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    system = lp.StrictSystem(tuple(strict), tuple(eqs), dim)
    return isinstance(lp.solve_strict(system), lp.Witness)


def lift_params(pv: ParamVector) -> ParamVector:
    """Append t_{n+1} = 0 and raise the dimension: C(n,d) -> C(n+1,d+1)."""
    if pv.t[-1] >= 0:
        raise ValueError("single-element lifting needs all parameters < 0")
    return ParamVector(pv.n + 1, pv.d + 1, pv.t + (Fraction(0),))


def reduced_functional(w, pv: ParamVector) -> tuple:
    """Image of the height functional in ker(phi_Q)^*: G_Q w."""
    w = vec(w)
    return tuple(dot(row, w) for row in dependence_basis(pv))


def test_kernel_basis_c42():
    basis = kernel_basis(homogenized_matrix(standard_params(4, 2)))
    assert basis == [(1, -3, 3, -1)]


def test_kernel_basis_simplex_is_empty():
    assert kernel_basis(homogenized_matrix(standard_params(3, 2))) == []


def test_kernel_basis_c64_sign_pattern():
    (v,) = kernel_basis(homogenized_matrix(standard_params(6, 4)))
    signs = [1 if x > 0 else -1 for x in v]
    assert signs == [1, -1, 1, -1, 1, -1]
    # positive part supported on {1,3,5}, negative on {2,4,6}
    assert [i + 1 for i, x in enumerate(v) if x > 0] == [1, 3, 5]


def test_kernel_basis_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        kernel_basis([[1, 2, 3], [2, 4, 6]])


def test_kernel_annihilates_exactly():
    rng = random.Random(3)
    for n in range(4, 11):
        for d in range(1, min(n - 1, 6)):
            pv = random_params(n, d, rng)
            m = homogenized_matrix(pv)
            for v in kernel_basis(m):
                assert all(dot(row, v) == 0 for row in m)


def test_unique_dependence_example():
    c = unique_dependence_coeffs(standard_params(6, 4))
    assert c == (
        Fraction(1, 120),
        Fraction(-1, 24),
        Fraction(1, 12),
        Fraction(-1, 12),
        Fraction(1, 24),
        Fraction(-1, 120),
    )


def test_unique_dependence_identities_and_alternation():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(3, 10)
        pv = random_params(n, n - 2, rng)
        c = unique_dependence_coeffs(pv)
        assert sum(c) == 0
        for k in range(1, pv.d + 1):
            assert sum(ci * pv.param(i + 1) ** k for i, ci in enumerate(c)) == 0
        assert all((x > 0) == (i % 2 == 0) for i, x in enumerate(c))
        (v,) = dependence_basis(pv)
        assert all(type(x) is int for x in v)
        assert primitive(c) == v


def test_unique_dependence_requires_codim_two():
    with pytest.raises(ValueError):
        unique_dependence_coeffs(standard_params(6, 3))


def test_circuit_coeffs_match_kernel_on_subconfig():
    pv = standard_params(8, 3)
    z = (2, 4, 5, 7, 8)
    c = circuit_coeffs(pv, z)
    sub = sub_params(pv, z)
    assert primitive(c) == primitive(unique_dependence_coeffs(sub))


@pytest.mark.parametrize("n", range(3, 10))
def test_circuit_coeffs_match_reference_on_every_circuit(n):
    """The product formula equals the circuit computed anew, at two realizations of each C(n,d)."""
    rng = random.Random(n)
    for d in range(1, n - 1):
        for pv in (standard_params(n, d), random_params(n, d, rng)):
            for z in combinations(range(1, n + 1), d + 2):
                ref = reference_circuit_coeffs(pv, z)
                got = circuit_coeffs(pv, z)
                assert got == ref and all(type(c) is Fraction for c in got), (pv, z)
                assert circuit_coeffs(pv, z[::-1]) == ref  # an unsorted subset
            with pytest.raises(ValueError):
                circuit_coeffs(pv, range(1, d + 2))


def test_relint_cone_membership():
    assert in_relint_pos_cone([1, 1], [[1, 0], [0, 1]])
    assert not in_relint_pos_cone([1, 0], [[1, 0], [0, 1]])
    assert in_relint_pos_cone([0, 0], [])
    assert not in_relint_pos_cone([1, 0], [])
    with pytest.raises(ValueError):
        in_relint_pos_cone([1, 0], [[1, 0, 0]])


def test_oriented_matroid_duality_on_c62():
    """Cells of the height subdivision are exactly the subsets whose
    complements positively span the reduced functional (n <= 7, d = 2)."""
    from cyclicfiber.coherence import regular_subdivision_from_heights
    from cyclicfiber.subdiv import subconfig_face

    rng = random.Random(29)
    for n in (6, 7):
        pv = random_params(n, 2, rng)
        gal = gale_transform(pv)
        for _ in range(25):
            w = random_heights(n, rng)
            f = reduced_functional(w, pv)
            sub = regular_subdivision_from_heights(pv, w)
            appearing = set()
            for cell in sub.cells:
                appearing.add(cell)
                for k in range(1, len(cell)):
                    from itertools import combinations

                    for face in combinations(cell, k):
                        if subconfig_face(face, cell, 2):
                            appearing.add(face)
            for k in range(1, n + 1):
                from itertools import combinations

                for s in combinations(range(1, n + 1), k):
                    gens = [gal[i - 1] for i in range(1, n + 1) if i not in s]
                    assert in_relint_pos_cone(f, gens) == (s in appearing), (s, w)


def test_lift_params():
    pv = params([-3, -2, -1], 1)
    lifted = lift_params(pv)
    assert lifted.n == 4 and lifted.d == 2 and lifted.t[-1] == 0
    with pytest.raises(ValueError):
        lift_params(params([-1, 0, 1], 1))


def test_tau_star_heights():
    pv = params([-4, -3, -1], 1)
    assert tau_star_heights([0, 0, 0], pv) == (0, 0, 0, 0)
    assert tau_star_heights([1, 2, 3], pv) == (4, 6, 3, 0)
    with pytest.raises(ValueError):
        tau_star_heights([1, 2], pv)


def test_gale_transform_lifting_extension():
    """The Gale transform of C(n+1,d+1) restricted to the first n columns
    agrees with that of C(n,d) after the tau* identification."""
    rng = random.Random(41)
    for n in range(4, 9):
        d = rng.randint(1, n - 2)
        base = random_params(n, d, rng)
        shift = base.t[-1] + 1
        pv = params([t - shift for t in base.t], d)  # all parameters < 0
        lifted = lift_params(pv)
        ker_low = dependence_basis(pv)
        ker_high = dependence_basis(lifted)
        assert len(ker_low) == len(ker_high)
        assert all(type(x) is int for row in ker_low + ker_high for x in row)
        # tau maps ker(phi_lifted) isomorphically onto ker(phi_base):
        # (c_1,...,c_n,c_{n+1}) -> (-t_1 c_1, ..., -t_n c_n)
        from cyclicfiber.linalg import rank

        tau_image = [
            tuple(-pv.param(i + 1) * v[i] for i in range(n)) for v in ker_high
        ]
        stacked = [list(v) for v in tau_image] + [list(v) for v in ker_low]
        assert rank(stacked) == len(ker_low)
