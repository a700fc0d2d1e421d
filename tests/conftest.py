from __future__ import annotations

import random
from fractions import Fraction

from cyclicfiber.cyclic import random_params  # noqa: F401  (re-exported to the test modules)


def random_heights(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n))
