"""Cyclic polytopes C(n,d): realizations and Gale evenness.

Vertices are indexed 1..n and realized on the moment curve
t -> (t, t^2, ..., t^d) at strictly increasing rational parameters.  All face
tests here are purely combinatorial (Gale's Evenness Criterion); their
geometric counterparts are oracles in the test suite.  A single face test
is one pass over the blocks of the set and keeps no memo; the face lists
of `enumerate_faces` are cached per (n, d, min_size) in an LRU of 32.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .linalg import Vector, frac

FaceSet = tuple[int, ...]


@dataclass(frozen=True)
class ParamVector:
    """Strictly increasing rational parameters realizing C(n,d).

    The hash is computed once: every memo of a realization is keyed by it.
    """

    n: int
    d: int
    t: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.t) != self.n:
            raise ValueError("len(t) != n")
        if not 1 <= self.d < self.n:
            raise ValueError("need 1 <= d < n")
        if any(a >= b for a, b in zip(self.t, self.t[1:])):
            raise ValueError("parameters must be strictly increasing")
        object.__setattr__(self, "_hash", hash((self.n, self.d, self.t)))

    def __hash__(self) -> int:
        return self._hash

    def param(self, i: int) -> Fraction:
        """Parameter of vertex i (1-based)."""
        return self.t[i - 1]

    def with_dimension(self, d: int) -> "ParamVector":
        return ParamVector(self.n, d, self.t)


def params(ts: Sequence, d: int) -> ParamVector:
    return ParamVector(len(ts), d, tuple(frac(x) for x in ts))


def standard_params(n: int, d: int) -> ParamVector:
    """The paper-standard realization t = (1, 2, ..., n)."""
    return params(range(1, n + 1), d)


def symmetric_params(n: int, d: int) -> ParamVector:
    """Odd integers symmetric about 0, e.g. (-5,-3,-1,1,3,5) for n = 6."""
    return params(range(-(n - 1), n, 2), d)


def random_params(n: int, d: int, rng: random.Random) -> ParamVector:
    """Strictly increasing rationals with small numerators and denominators."""
    ts = [Fraction(rng.randint(-30, 0), rng.randint(1, 7))]
    for _ in range(n - 1):
        ts.append(ts[-1] + Fraction(rng.randint(1, 24), rng.randint(1, 7)))
    return params(ts, d)


def homogenized_matrix(pv: ParamVector) -> list[Vector]:
    """(d+1) x n matrix: a row of ones on top of the moment points."""
    return [tuple(ti**k for ti in pv.t) for k in range(pv.d + 1)]


def as_face(indices: Iterable[int], n: int) -> FaceSet:
    raw = tuple(indices)
    s = tuple(sorted(set(raw)))
    if s and (s[0] < 1 or s[-1] > n):
        raise ValueError(f"indices out of range 1..{n}: {s}")
    if len(s) != len(raw):
        raise ValueError(f"repeated indices in {raw}")
    return s


def _blocks(s: FaceSet) -> list[list[int]]:
    """Maximal runs of consecutive integers."""
    blocks: list[list[int]] = []
    for i in s:
        if blocks and i == blocks[-1][-1] + 1:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def gale_evenness_is_face(s: Iterable[int], n: int, d: int) -> bool:
    """Does S span a proper boundary (|S|-1)-face of C(n,d)?

    Gale's Evenness Criterion: in the decomposition of S into contiguous
    blocks Y1 X1 ... Xt Y2 (only Y1 may contain 1, only Y2 may contain n),
    the number of interior blocks of odd length is at most d - |S|.
    """
    s = as_face(s, n)
    if not s:
        return True
    if len(s) > d:
        return False
    odd_interior = sum(
        1 for b in _blocks(s) if len(b) % 2 == 1 and b[0] != 1 and b[-1] != n
    )
    return odd_interior <= d - len(s)


def enumerate_facets(n: int, d: int) -> tuple[FaceSet, ...]:
    """All facets (d-element Gale faces), in lexicographic order."""
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    return enumerate_faces(n, d, d)


@lru_cache(maxsize=32)
def enumerate_faces(n: int, d: int, min_size: int = 1) -> tuple[FaceSet, ...]:
    """All proper boundary faces with at least `min_size` vertices."""
    out = []
    for k in range(min_size, d + 1):
        out.extend(
            s for s in combinations(range(1, n + 1), k) if gale_evenness_is_face(s, n, d)
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# text formats:  faces as digit strings for n <= 9, params as p/q lists
# ---------------------------------------------------------------------------


def format_face(s: FaceSet, n: int) -> str:
    if n <= 9:
        return "".join(str(i) for i in s)
    return ",".join(str(i) for i in s)


def parse_face(text: str, n: int) -> FaceSet:
    text = text.strip()
    if n > 9:
        raise ValueError("digit-string faces are only defined for n <= 9")
    return as_face((int(c) for c in text), n)


def format_params(pv: ParamVector) -> str:
    return ",".join(str(x) for x in pv.t)


def parse_params(text: str, d: int) -> ParamVector:
    return params([frac(x.strip()) for x in text.strip().split(",")], d)
