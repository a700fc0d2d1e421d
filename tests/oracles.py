"""Slow reference implementations that the library's fast paths are tested against.

Both decide geometric conditions with the exact mixed LP `lp.feasible`
instead of the alternating circuits of C(n,d), so they depend on nothing
the combinatorial versions assume.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from cyclicfiber import lp
from cyclicfiber.cyclic import ParamVector, as_face
from cyclicfiber.subdiv import Subdivision, subconfig_face


def _weight_outside(c, w, pv: ParamVector) -> bool:
    """Is there a point of conv(c) n conv(w) with positive weight on c - w?

    Searches for lambda >= 0 on c and mu >= 0 on w with the same homogenized
    image and sum of lambda outside w positive.
    """
    dim = len(c) + len(w)
    homog = lambda i: [Fraction(1)] + [pv.param(i) ** k for k in range(1, pv.d + 1)]
    eqs = []
    for coord in range(pv.d + 1):
        eqs.append(tuple(homog(i)[coord] for i in c) + tuple(-homog(j)[coord] for j in w))
    nonneg = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    outside = tuple(Fraction(int(i not in w)) for i in c) + (Fraction(0),) * len(w)
    return lp.feasible([outside], nonneg, eqs, dim) is not None


def lp_cells_compatible(a, b, pv: ParamVector) -> bool:
    """`subdiv.cells_compatible` decided by the mixed LP, without circuits."""
    a = as_face(a, pv.n)
    b = as_face(b, pv.n)
    shared = tuple(sorted(set(a) & set(b)))
    if set(a) <= set(b) or set(b) <= set(a):
        return False
    if pv.param(a[-1]) < pv.param(b[0]) or pv.param(b[-1]) < pv.param(a[0]):
        return True  # hulls live over disjoint parameter ranges
    if shared:
        if not subconfig_face(shared, a, pv.d) or not subconfig_face(shared, b, pv.d):
            return False
    # a common point of the hulls that puts weight on a outside the shared
    # face shows conv(a) n conv(b) != conv(shared)
    return not _weight_outside(a, b, pv)


def pi_compatibility_holds(sub: Subdivision, pv: ParamVector, d_prime: int) -> bool:
    """Literal fiber-compatibility condition on the face family, exactly.

    For every cell c and every face w of the subdivision complex inside c,
    no point of the upstairs face over c may project into conv(w) while
    carrying weight outside w.  Faces of cyclic polytopes are simplices with
    unique barycentric coordinates, which reduces the condition to a strict
    feasibility question downstairs.
    """
    faces: set = set()
    for c in sub.cells:
        if len(c) == sub.n:
            return True  # trivial subdivision: nothing to check
        for k in range(1, min(len(c), pv.d) + 1):
            for w in combinations(c, k):
                if subconfig_face(w, c, pv.d):
                    faces.add(w)
    for c in sub.cells:
        for w in faces:
            if set(w) <= set(c) and _weight_outside(c, w, pv):
                return False
    return True
