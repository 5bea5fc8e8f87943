"""Support discriminants against sympy as an independent oracle.

`support_discriminant` is res_y(p, dp/dy) for p monic in y, which is
(-1)^(d(d-1)/2) times the discriminant `sympy.discriminant` computes.  The
package takes it as the Hankel determinant of the power sums of the fiber
roots; sympy computes it by its own code.
"""

from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from residualtrace.currents import support_discriminant  # noqa: E402
from residualtrace.sampling import random_current  # noqa: E402
from sympy_expr import to_sympy  # noqa: E402


def seeded_currents(n: int, seed: int, count: int = 12):
    rng = Random(seed)
    return [random_current(rng, n=n, max_degree=3, coeff_degree=2 if n == 1 else 1)
            for _ in range(count)]


CASES = [(1, 2024), (2, 2025), (3, 2026)]


@pytest.mark.parametrize("n, seed", CASES)
def test_support_discriminant_matches_sympy(n, seed):
    degrees = set()
    for c in seeded_currents(n, seed):
        d = c.degree
        degrees.add(d)
        disc = support_discriminant(c)
        assert disc.vars == c.base_vars
        theirs = sympy.discriminant(to_sympy(c.p), sympy.Symbol(c.fiber))
        sign = -1 if d * (d - 1) // 2 % 2 else 1
        assert sympy.expand(to_sympy(disc) - sign * theirs) == 0, c.p
    assert degrees >= {2, 3}
