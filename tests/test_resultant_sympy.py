"""Resultants and support discriminants against sympy as an independent oracle.

`sylvester_resultant(f, g)` is the Bareiss determinant of the Sylvester
matrix, f's rows first, so res(f, g) = (-1)^(deg f deg g) res(g, f).
`sympy.resultant` agrees with that determinant when deg f >= deg g; for
deg f < deg g sympy 1.14 returns res(g, f) instead (its
`resultant(y - 2, y**3 + 1, y)` is -9, the determinant 9), so the oracle
below asks sympy in the order it handles.  `support_discriminant` is
res_y(p, dp/dy) for p monic in y, which is (-1)^(d(d-1)/2) times the
discriminant `sympy.discriminant` computes.
"""

from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from residualtrace.algebra import MPoly, sylvester_resultant  # noqa: E402
from residualtrace.currents import support_discriminant  # noqa: E402
from residualtrace.sampling import random_current  # noqa: E402
from sympy_expr import to_sympy  # noqa: E402


def seeded_currents(n: int, seed: int, count: int = 12):
    rng = Random(seed)
    return [random_current(rng, n=n, max_degree=3, coeff_degree=2 if n == 1 else 1)
            for _ in range(count)]


def sympy_resultant(f: MPoly, g: MPoly, var: str):
    m, n = f.degree(var), g.degree(var)
    y = sympy.Symbol(var)
    if m >= n:
        return sympy.resultant(to_sympy(f), to_sympy(g), y)
    return (-1) ** (m * n) * sympy.resultant(to_sympy(g), to_sympy(f), y)


def test_sympy_resultant_sign_convention():
    y = MPoly.variable(("y",), "y")
    assert sympy_resultant(y - 2, y ** 3 + 1, "y") == 9  # (y^3 + 1) at y = 2
    assert sylvester_resultant(y - 2, y ** 3 + 1, "y") == MPoly.constant(("y",), 9)


def test_resultant_of_zero_and_of_fiber_constants_matches_sympy():
    x, y = (MPoly.variable(("x", "y"), v) for v in ("x", "y"))
    # a zero argument gives 0; two arguments free of y give the empty determinant 1
    for f, g, want in ((MPoly.zero(x.vars), y - x, 0), (x + 1, x - 2, 1)):
        ours = sylvester_resultant(f, g, "y")
        theirs = sympy.resultant(to_sympy(f), to_sympy(g), sympy.Symbol("y"))
        assert theirs == want
        assert ours == MPoly.constant(x.vars, want)


CASES = [(1, 2024), (2, 2025)]


@pytest.mark.parametrize("n, seed", CASES)
def test_sylvester_resultant_matches_sympy(n, seed):
    for c in seeded_currents(n, seed):
        y = c.fiber
        # deg r < d, and r^2 + p' can exceed d: both orders of both sizes
        for q in (c.r, c.r * c.r + c.p.derivative(y)):
            for f, g in ((c.p, q), (q, c.p)):
                ours = sylvester_resultant(f, g, y)
                assert ours.degree(y) <= 0
                assert sympy.expand(to_sympy(ours) - sympy_resultant(f, g, y)) == 0, (f, g)


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
