"""Published reference data: counts, example triangulations, parameter presets.

Everything here is regression input for the test suite and the `tables` CLI
command.  Triangulations are stored in the n <= 9 digit-string format.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclic import ParamVector, params, standard_params, symmetric_params

# number of triangulations of C(n,d); (n, d) -> count.  Entries with
# n >= 11 are stretch scale and sit behind the CLI --stretch flag.
TRIANGULATION_COUNTS: dict[tuple[int, int], int] = {
    (3, 2): 1, (4, 2): 2, (5, 2): 5, (6, 2): 14, (7, 2): 42, (8, 2): 132,
    (9, 2): 429, (10, 2): 1430, (11, 2): 4862, (12, 2): 16796,
    (4, 3): 1, (5, 3): 2, (6, 3): 6, (7, 3): 25, (8, 3): 138, (9, 3): 972,
    (10, 3): 8477, (11, 3): 89405, (12, 3): 1119280,
    (5, 4): 1, (6, 4): 2, (7, 4): 7, (8, 4): 40, (9, 4): 357, (10, 4): 4824,
    (11, 4): 96426, (12, 4): 2800212,
    (6, 5): 1, (7, 5): 2, (8, 5): 8, (9, 5): 67, (10, 5): 1233,
    (11, 5): 51676, (12, 5): 5049932,
    (7, 6): 1, (8, 6): 2, (9, 6): 9, (10, 6): 102, (11, 6): 3278, (12, 6): 340560,
    (8, 7): 1, (9, 7): 2, (10, 7): 10, (11, 7): 165, (12, 7): 12589,
    (9, 8): 1, (10, 8): 2, (11, 8): 11, (12, 8): 244,
    (10, 9): 1, (11, 9): 2, (12, 9): 12,
    (11, 10): 1, (12, 10): 2,
}

# desk-scale acceptance list: exact counts reproduced by flip enumeration
DESK_SCALE_COUNTS: dict[tuple[int, int], int] = {
    (6, 3): 6, (7, 3): 25, (8, 3): 138, (9, 3): 972,
    (8, 4): 40, (9, 4): 357, (10, 4): 4824,
    (9, 5): 67, (10, 5): 1233,
}

FLIP_EDGE_COUNTS = {(8, 4): 64, (8, 3): 302}

# subdivision census by type: (n, d) -> {sorted cell sizes: count}
TYPE_CENSUS: dict[tuple[int, int], dict[tuple[int, ...], int]] = {
    (8, 4): {(7,): 8, (6, 6): 18, (6, 6, 6): 0},
    (8, 3): {
        (5, 5): 162,
        (6,): 52,
        (5, 5, 5): 18,
        (5, 6): 24,
        (7,): 8,
        (6, 6): 0,
        (5, 5, 6): 0,
        (5, 5, 5, 5): 0,
    },
}

SECONDARY_FACET_COUNTS = {(8, 4): 26, (8, 3): 50}
SECONDARY_TWO_FACE_COUNTS = {(8, 3): 214}


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# symmetry-class representatives with "good link" vertices
# ---------------------------------------------------------------------------

C73_CLASSES: list[tuple[str, tuple[int, ...]]] = [
    ("2356,1234,4567,3467,2345,2367,1256,3456,1267,1245", (1, 7)),
    ("2456,2346,1234,4567,3467,2367,1256,1267,1245", (1, 7)),
    ("2356,1234,2345,2367,1256,1267,1245,3457,3567", (1,)),
    ("2346,1234,4567,3467,2367,1267,1456,1246", (5, 7)),
    ("2356,2367,1256,1267,1235,1345,3457,3567", (4,)),
    ("1234,2345,1256,1267,1245,3457,2567,2357", (1,)),
    ("2367,1267,1345,3457,3567,1236,1356", (4,)),
    ("4567,3467,3456,1345,1356,1237,1367", (2,)),
    ("4567,3467,2367,1267,1456,1236,1346", (5, 6, 7)),
    ("4567,3467,1456,1237,1367,1346", (2, 5)),
    ("1345,3457,3567,1356,1237,1367", (2, 3, 4)),
    ("1345,3457,1237,1357,1567", (2, 4, 6)),
    ("1237,1567,1457,1347", (1, 2, 6, 7)),
    ("1234,2347,1567,1457,1247", (3, 6)),
    ("1234,4567,1456,2347,1247,1467", (3, 4, 5)),
    ("1234,4567,1267,1456,1246,2347,2467", (3, 5)),
]

C84_CLASSES: list[tuple[str, tuple[int, ...]]] = [
    ("23678,23458,12568,12458,45678,23568,12678,12348,34568,34678", (1, 7, 8)),
    ("24568,23456,23678,12568,12458,45678,12678,12348,34678,23468", (1, 7)),
    ("23678,12568,45678,23568,12678,34568,34678,13458,12358,12345", (7,)),
    ("23678,45678,12678,34568,34678,13458,12345,12368,12356,13568", (7,)),
]

# the non-placing triangulations of C(8,3) modulo the reflection symmetry;
# the fifth is the one whose regularity needs a direct feasibility check
C83_NONPLACING: list[str] = [
    "2378,2356,2367,1267,3456,3478,3467,1256,1278,1345,1235,4568,4678",
    "2378,2367,1267,3456,3478,3467,1278,1345,4568,4678,1236,1356",
    "2356,1267,3456,1256,1278,1345,1235,4568,3468,2678,2368",
    "1267,3456,1278,1345,4568,1236,1356,3468,2678,2368",
    "2378,2367,1267,3456,1278,1345,4568,1236,1356,3678,3468",
]

# ---------------------------------------------------------------------------
# parameter-dependent triangulations: regular and non-regular realizations
# ---------------------------------------------------------------------------

PARAM_DEPENDENT: dict[tuple[int, int], dict] = {
    (9, 5): {
        "cells": "125689,126789,345679,125678,123489,124578,123478,124589,"
        "123457,123567,134567,256789,235679,234579,234789,245789",
        "regular_at": [0, 6, 7, 8, 9, 10, 11, 12, 30],
        "nonregular_at": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    },
    (9, 4): {
        "cells": "34789,23789,12789,12345,46789,45678,45689,12356,"
        "12379,12367,13479,13456,13467,14679,14569",
        "regular_at": [0, "1/20", "1/3", 4, 50, 60, 67, 68, 69],
        "nonregular_at": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    },
    (9, 3): {
        "cells": "2578,1345,1256,1267,1278,4589,3489,2389,1289,2567,"
        "5789,3458,2358,5679,1235",
        "regular_at": [1, 2, 3, "10/3", "23/6", "13/3", "14/3", 5, 6],
        "nonregular_at": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    },
}

NONREGULAR_AT_STANDARD = {(9, 4): 4}  # C(9,4) at t = 1..9 has 4 of 357 non-regular

# ---------------------------------------------------------------------------
# the C(6,4) -> C(6,2) worked example
# ---------------------------------------------------------------------------

# the two triangulations of the hexagon that are not pi-induced
C62_NON_PI_INDUCED = ["135,123,345,156", "246,234,456,126"]

# pi-induced subdivisions that are incoherent for every parameter choice
C624_ALWAYS_INCOHERENT = [
    "124,234,146,456",
    "123,136,345,356",
    "1234,146,456",
    "124,234,1456",
    "1234,1456",
    "1236,345,356",
    "123,136,3456",
    "1236,3456",
]

# subdivisions whose coherence depends on the parameters
C624_PARAMETER_DEPENDENT = [
    "125,156,2345",
    "125,156,235,345",
    "1256,235,345",
    "1256,2345",
    "1256,234,245",
    "126,256,234,245",
    "126,256,2345",
]

# pi-induced triangulations that are NOT always coherent: two are always
# incoherent, two depend on the parameters; the remaining eight of the twelve
# are coherent for every choice
C624_NOT_ALWAYS_COHERENT_TRIANGULATIONS = [
    "124,234,146,456",
    "123,136,345,356",
    "125,156,235,345",
    "126,256,234,245",
]

# ---------------------------------------------------------------------------
# the 4x8 vertex matrix whose monotone path polytope beats C(8,4)
# ---------------------------------------------------------------------------

UBC_COUNTEREXAMPLE_MATRIX: tuple[tuple[int, ...], ...] = (
    (-84, -36, -35, 11, 90, 31, 47, -50),
    (-54, 71, -71, -17, 65, -34, 60, 99),
    (48, 36, 73, -40, 50, 54, 24, 65),
    (6, -65, 52, 100, -39, 49, -76, -15),
)
UBC_COHERENT_PATHS = 34  # two more than the 32 of C(8,4)

# ---------------------------------------------------------------------------
# named parameter presets
# ---------------------------------------------------------------------------

BIG_K = Fraction(10**6)
SMALL_EPS = Fraction(1, 10**6)


def preset_params(name: str, n: int, d: int) -> ParamVector:
    """Resolve a named preset to an exact parameter vector."""
    if name == "standard":
        return standard_params(n, d)
    if name == "symmetric":
        return symmetric_params(n, d)
    if name in PRESET_NAMES and name.startswith("lemma47-c9"):
        ts = PARAM_DEPENDENT[(9, int(name[-1]))]["regular_at"]
        if len(ts) != n:
            raise ValueError(f"parameters {name!r} give {len(ts)} points, not n = {n}")
        return params(ts, d)
    if name == "step1-regime1":
        if n < 6:
            raise ValueError("step1 regimes need n >= 6")
        ts = [-BIG_K, 2, 3, 4, 5] + [5 + (i - 4) * SMALL_EPS for i in range(6, n + 1)]
        return params(ts, d)
    if name == "step1-regime2":
        if n < 6:
            raise ValueError("step1 regimes need n >= 6")
        ts = [2 - SMALL_EPS, 2, 3, 4, 5] + [BIG_K + (i - 6) for i in range(6, n + 1)]
        return params(ts, d)
    raise ValueError(f"unknown parameter preset {name!r}")


PRESET_NAMES = (
    "standard",
    "symmetric",
    "lemma47-c95",
    "lemma47-c94",
    "lemma47-c93",
    "step1-regime1",
    "step1-regime2",
)

# the two-polygon subdivision of Step 1: {2,3,4,5} and {1,2,5,6,...,n}
def step1_subdivision(n: int) -> list[tuple[int, ...]]:
    if n < 6:
        raise ValueError("the two-polygon subdivision needs n >= 6")
    return [(2, 3, 4, 5), tuple([1, 2] + list(range(5, n + 1)))]
