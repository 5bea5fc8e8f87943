"""`mod_monic`, the one pseudo-division in one variable, against sympy.

mod_monic(num, 1, den) returns (rem, power) with rem / power the remainder
of num modulo den / lead over the fraction field of the base ring, lead
the leading fiber coefficient of den.  sympy's `prem` gives
lead^(deg num - d + 1) * num modulo den, so the two remainders agree
after cross-multiplication.  The cases have multivariate coefficients and
a non-constant lead.
"""

from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from residualtrace.algebra import MPoly, exact_div  # noqa: E402
from residualtrace.currents import validate  # noqa: E402
from residualtrace.residues import mod_monic  # noqa: E402
from residualtrace.sampling import random_base_poly  # noqa: E402
from sympy_expr import to_sympy  # noqa: E402

V = ("x1", "x2", "y")
BASE = V[:-1]
SYMS = dict(zip(V, sympy.symbols(V)))


def fiber_poly(rng: Random, degree: int, lead: MPoly | None = None) -> MPoly:
    """Random polynomial of fiber degree `degree`; `lead` fixes the top coefficient."""
    pieces = {k: random_base_poly(rng, 2, 2, 3) for k in range(degree)}
    if lead is None:
        lead = random_base_poly(rng, 2, 1, 3) + MPoly.constant(BASE, 1)
    pieces[degree] = lead
    return MPoly.from_univariate(V, "y", pieces)


def cases():
    rng = Random(4711)
    x1 = MPoly.variable(BASE, "x1")
    for _ in range(8):
        d = rng.randint(1, 3)
        # a lead of positive degree in both base variables
        den = fiber_poly(rng, d, x1 * MPoly.variable(BASE, "x2") - x1 + 2)
        yield fiber_poly(rng, d + rng.randint(0, 3)), den
    # a zero coefficient below the top of num skips one scaling step
    num = fiber_poly(rng, 5)
    num = num - MPoly.from_univariate(V, "y", {4: num.as_univariate("y")[4]})
    assert num.as_univariate("y")[4].is_zero()
    yield num, fiber_poly(rng, 2, x1 + 3)
    # a zero interior coefficient of den: its products are skipped
    den = fiber_poly(rng, 3, x1 - 2)
    den = den - MPoly.from_univariate(V, "y", {1: den.as_univariate("y")[1]})
    assert den.as_univariate("y")[1].is_zero()
    yield fiber_poly(rng, 6), den


@pytest.mark.parametrize("num, den", list(cases()))
def test_mod_monic_matches_sympy_prem(num, den):
    d = den.degree("y")
    dcoeffs = den.as_univariate("y")
    assert not dcoeffs[-1].is_constant()
    rem, power = mod_monic(num.as_univariate("y"), MPoly.constant(BASE, 1), dcoeffs)
    assert len(rem) == d
    r = MPoly.from_univariate(V, "y", rem)
    assert r.degree("y") < d
    # num * power - rem is a multiple of den
    exact_div(num * MPoly.from_univariate(V, "y", [power]) - r, den)
    y = SYMS["y"]
    lead = to_sympy(dcoeffs[-1])
    prem = sympy.prem(to_sympy(num), to_sympy(den), y)
    scale = lead ** (num.degree("y") - d + 1)
    assert sympy.expand(to_sympy(r) * scale - prem * to_sympy(power)) == 0


def test_mod_monic_with_lead_one_keeps_power():
    # y^5 + x y^2 - 3 modulo y^2 - x: the remainder is x^2 y + x^2 - 3
    x, y = MPoly.variable(("x", "y"), "x"), MPoly.variable(("x", "y"), "y")
    num, den = y ** 5 + x * y ** 2 - 3, y ** 2 - x
    one = MPoly.constant(("x",), 1)
    rem, power = mod_monic(num.as_univariate("y"), one, den.as_univariate("y"))
    xb = MPoly.variable(("x",), "x")
    assert rem == [xb * xb - 3, xb * xb]
    assert power is one
    exact_div(num - (x * x * y + x * x - 3), den)


def test_validate_reduces_high_degree_numerator_n2():
    rng = Random(2718)
    x1, x2, y = (MPoly.variable(V, v) for v in V)
    p = y ** 3 + x1 * y - x2 * x2 + 1
    for _ in range(4):
        r = fiber_poly(rng, rng.randint(3, 6))
        ps, rs = to_sympy(p), to_sympy(r)
        assert sympy.gcd(ps, rs) == 1
        c = validate(p, r)
        assert c.p == p
        assert c.r.degree("y") < 3
        want = sympy.rem(rs, ps, SYMS["y"])
        assert sympy.expand(to_sympy(c.r) - want) == 0
