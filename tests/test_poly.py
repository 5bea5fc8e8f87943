"""Exact polynomial layer: arithmetic, division, gcd, normal forms."""

import importlib
import math
import re
from fractions import Fraction
from random import Random

import pytest

from residualtrace.algebra import (
    MPoly,
    RatFunc,
    exact_div,
    poly_gcd,
    poly_gcd_fiber,
    poly_lcm,
    try_div,
)
from residualtrace.currents import validate
from residualtrace.errors import DomainError
from residualtrace.reconstruct import detect_rational, sample_series

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")
ONE = MPoly.constant(V, 1)


def test_construction_merges_and_drops_zero_terms():
    p = MPoly(V, [((1, 0), 2), ((1, 0), -2), ((0, 1), 1)])
    assert p == Y
    assert MPoly(V, {(0, 0): 0}).is_zero()


def test_float_coefficients_rejected():
    with pytest.raises(DomainError):
        MPoly(V, {(0, 0): 0.5})
    # bool is an int subclass, but no more exact a coefficient than a float
    with pytest.raises(DomainError, match="boolean"):
        MPoly(("x",), {(0,): True})


def test_bool_exponent_rejected():
    # operator.index takes True as 1; the error names the vector
    with pytest.raises(DomainError, match=re.escape("(True,)")):
        MPoly(("x",), {(True,): 1})


def test_negative_exponent_rejected():
    with pytest.raises(DomainError):
        MPoly(V, {(-1, 0): 1})


@pytest.mark.parametrize("exps", [(2.7,), ("3",), (Fraction(3),), (None,)])
def test_non_integer_exponent_rejected(exps):
    # int() would truncate 2.7 to 2 and parse "3"; the error names the vector
    with pytest.raises(DomainError, match=re.escape(repr(exps))):
        MPoly(("x",), [(exps, 1)])


def test_ring_axioms_spot():
    p = X * X - Y + 3
    q = Y * Y + X
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + ONE) == p * q + p
    assert (p - p).is_zero()


def test_mixed_variable_lists_rejected():
    with pytest.raises(DomainError):
        X + MPoly.variable(("x",), "x")


def test_grlex_leading_term():
    p = X * Y + Y * Y * Y + X
    # y^3 has total degree 3, beats xy
    assert p.leading_term() == ((0, 3), Fraction(1))
    q = X * Y + Y * Y
    # same total degree: lex on (1,1) vs (0,2) puts xy first
    assert q.leading_term() == ((1, 1), Fraction(1))


def test_degree_conventions():
    assert MPoly.zero(V).degree() == -1
    assert (X * Y * Y).degree() == 3
    assert (X * Y * Y).degree("y") == 2
    assert ONE.degree("y") == 0


def test_pow_matches_repeated_product():
    p = X + Y
    assert p ** 3 == p * p * p
    assert p ** 0 == ONE
    with pytest.raises(DomainError):
        p ** -1


def test_coefficient_views():
    p = Y ** 2 * (X + 1) + Y * X * X + 7
    B = ("x",)
    XB = MPoly.variable(B, "x")
    uni = p.as_univariate("y")
    assert uni == [MPoly.constant(B, 7), XB * XB, XB + 1]
    assert MPoly.from_univariate(V, "y", uni) == p
    assert MPoly.from_univariate(V, "y", dict(enumerate(uni))) == p
    # the view in x lives over y alone
    assert p.as_univariate("x")[2].vars == ("y",)
    # zeros are included below the top; the zero polynomial has no coefficients
    one = MPoly.constant(B, 1)
    assert (Y * Y).as_univariate("y") == [MPoly.zero(B), MPoly.zero(B), one]
    assert MPoly.zero(V).as_univariate("y") == []
    # a coefficient over another variable list, the full one included, is
    # refused, not re-keyed
    with pytest.raises(DomainError, match="lives over"):
        MPoly.from_univariate(V, "y", {1: MPoly.variable(("u", "v"), "u")})
    with pytest.raises(DomainError, match="lives over"):
        MPoly.from_univariate(V, "y", [X])


def test_subs_with_polynomial_images():
    W = ("a", "b", "y")
    a = MPoly.variable(W, "a")
    b = MPoly.variable(W, "b")
    yw = MPoly.variable(W, "y")
    p = Y ** 2 - X
    image = p.subs(W, {"x": a * yw + b})
    assert image == yw ** 2 - a * yw - b


def _stored(p):
    return p.vars, [(e, c, type(c)) for e, c in p.terms.items()]


def _subs_outcome(p, variables, images):
    try:
        return _stored(p.subs(variables, images))
    except DomainError as exc:
        return "raises", str(exc)


W = ("a", "b")
A = MPoly.variable(W, "a")


@pytest.mark.parametrize("images", [
    {"x": A, "y": MPoly.variable(W, "b")},  # two renames
    {"x": A * A + 1, "y": Fraction(2, 3)},
    {"x": 0, "y": MPoly.zero(W)},
    {"x": A},  # y is carried over and W lacks it
    {"x": MPoly.variable(V, "x"), "y": 1},  # an image over the wrong tuple
    {"x": 0.5, "y": 1},  # a float image
    {"x": "1/2", "y": A},
])
@pytest.mark.parametrize("c", [Fraction(-7, 2), 5, 0])
def test_subs_of_a_constant_matches_the_general_path(images, c):
    # c + x takes the general path through the same image checks; taking
    # x's own image back out leaves the substituted constant.
    const = MPoly.constant(V, c)
    ours = _subs_outcome(const, W, images)
    general = _subs_outcome(const + X, W, images)
    if general[0] == "raises":
        assert ours == general
        return
    assert ours == _stored((const + X).subs(W, images) - X.subs(W, images))
    assert ours[1] == ([((0, 0), c, type(c))] if c else [])


def test_subs_of_a_constant_carries_over_present_variables():
    assert (ONE * 3).subs(("y", "x"), {}) == MPoly.constant(("y", "x"), 3)
    assert MPoly.zero(V).subs(("t",), {"x": 1, "y": 2}) == MPoly.zero(("t",))


def test_eval_paths_agree():
    p = X ** 2 * Y - Y + Fraction(1, 2)
    vals = {"x": Fraction(2), "y": Fraction(-3)}
    exact = p.eval_exact(vals)
    approx = p.eval_numeric({k: complex(v) for k, v in vals.items()})
    assert exact == Fraction(-17, 2)
    assert abs(approx - complex(exact)) < 1e-12


def test_eval_numeric_past_the_float_range_is_nan():
    # fsum raises on inf - inf and on a finite sum that overflows
    w = ("x", "y", "z")
    x, y, z = (MPoly.variable(w, v) for v in w)
    far = {"x": 1e200, "y": 1e200, "z": 1}
    assert math.isnan((x * y - x * y * z).eval_numeric(far).real)
    assert math.isnan((x + y).eval_numeric({"x": 1e308, "y": 1e308, "z": 0}).real)


def test_derivative_and_antiderivative():
    p = X ** 3 * Y + 2 * Y
    assert p.derivative("x") == 3 * X ** 2 * Y
    assert p.antiderivative("x").derivative("x") == p


def exact_terms(p: MPoly) -> dict:
    """The stored terms, after checking each value is an int or a Fraction."""
    assert all(type(c) in (int, Fraction) for c in p.terms.values()), p.terms
    return p.terms


def test_dividing_operations_on_integer_inputs_store_no_floats():
    # Integral coefficients are stored as ints; every division below must
    # give exact values, never int / int floats.
    half = Fraction(1, 2)
    assert exact_terms((3 * X ** 2 * Y + X).antiderivative("x")) == {
        (3, 1): 1, (2, 0): half}
    assert exact_terms(exact_div(X ** 2 + 2 * X + 1, 2 * X + 2)) == {
        (1, 0): half, (0, 0): half}
    assert exact_terms(exact_div(4 * X ** 2 + 4 * X, 2 * X + 2)) == {(1, 0): 2}
    assert exact_terms((2 * X + 3).scale(half)) == {(1, 0): 1, (0, 0): Fraction(3, 2)}
    f = RatFunc(X + 1, 2 * X + 3)
    assert exact_terms(f.num) == {(1, 0): half, (0, 0): half}
    assert exact_terms(f.den) == {(1, 0): 1, (0, 0): Fraction(3, 2)}
    # gcd 2y + 1 has the constant fiber lead 2, so the result is made monic
    g = poly_gcd_fiber((2 * Y + 1) * (Y + X), (2 * Y + 1) * (Y - X))
    assert exact_terms(g) == {(0, 1): 1, (0, 0): half}
    # p = (y - 1/2)(y + x) and r = 2y - 1 share 2y - 1; the rescaled pair is (y + x, 2)
    c = validate((2 * Y - 1) * (Y + X) * half, 2 * Y - 1)
    assert exact_terms(c.p) == {(0, 1): 1, (1, 0): 1}
    assert exact_terms(c.r) == {(0, 0): 2}
    # (function, degree bounds, leading Taylor coefficients at x0 = 1)
    u = MPoly.variable(("x",), "x")
    for h, bounds, head in (
            (RatFunc(3 * u ** 2 + 1, 2 * u + 4), (2, 1), (Fraction(2, 3), Fraction(7, 9))),
            (RatFunc(u ** 2 + 2 * u), (2, 0), (3, 4, 1)),
            (RatFunc(u ** 0 * 3), (0, 0), (3, 0))):
        sample = sample_series(h, 1, 6)
        assert all(type(c) is Fraction for c in sample.coefficients)
        assert sample.coefficients[:len(head)] == head
        back = detect_rational(sample, *bounds)
        assert back == h
        exact_terms(back.num)
        exact_terms(back.den)


def test_try_div_and_exact_div():
    p = (X + Y) * (X - Y)
    assert try_div(p, X + Y) == X - Y
    assert try_div(X + 1, Y) is None
    with pytest.raises(DomainError):
        exact_div(X + 1, Y)
    with pytest.raises(DomainError):
        exact_div(X, MPoly.zero(V))


def test_gcd_basic():
    f = (Y - X) * (Y + X)
    g = (Y - X) * Y
    # canonical representative has positive graded-lex leading coefficient
    assert poly_gcd(f, g) == X - Y
    assert poly_gcd(f, MPoly.zero(V)) == f.primitive_int().sign_normalized()
    with pytest.raises(DomainError):
        poly_gcd(MPoly.zero(V), MPoly.zero(V))


def test_gcd_is_content_free_and_positive():
    f = (2 * X * Y).scale(Fraction(1, 3))
    g = 4 * X * X
    # common factor 2x up to rationals; normalized primitive positive
    assert poly_gcd(f, g) == X


def test_gcd_fiber_strips_base_content():
    f = X * Y
    g = X * Y ** 2
    assert poly_gcd_fiber(f, g) == Y
    assert poly_gcd_fiber(Y ** 2 - X, MPoly.zero(V)) == Y ** 2 - X
    assert poly_gcd_fiber(Y + 1, Y + 2).is_one()


def test_gcd_reduces_to_the_shared_variables(monkeypatch):
    # g lies in Q[a1, a2], so every common divisor does: the gcd runs its
    # PRS steps in a1 and a2 only, never in b1 or b2
    poly = importlib.import_module("residualtrace.algebra.poly")
    chart = ("a1", "a2", "b1", "b2")
    a1, a2 = MPoly.variable(chart, "a1"), MPoly.variable(chart, "a2")
    rng = Random(5)
    r = MPoly(chart, [(tuple(rng.randint(0, 3) for _ in chart), rng.randint(-9, 9))
                      for _ in range(30)])
    h = a1 - a2 + 3
    steps = []

    def spy(a, b, var, real=poly.pseudo_rem):
        steps.append(var)
        return real(a, b, var)

    monkeypatch.setattr(poly, "pseudo_rem", spy)
    assert poly_gcd(r * h, (a1 + 2 * a2 + 1) ** 3 * h) == h
    assert steps and set(steps) <= {"a1", "a2"}


def test_gcd_fiber_monic_when_possible():
    f = (2 * Y + 2 * X) * (Y - 1)
    g = (Y + X) * (Y ** 2 + 3)
    assert poly_gcd_fiber(f, g) == Y + X


def test_gcd_fiber_keeps_a_non_constant_lead_primitive():
    # the fiber lead x is no rational constant, so the gcd is not made monic
    assert poly_gcd_fiber((X * Y + 1) * (Y - 2), (X * Y + 1) * (Y + 3)) == X * Y + 1


def test_gcd_fiber_of_two_zeros_raises():
    with pytest.raises(DomainError, match=r"gcd\(0, 0\)"):
        poly_gcd_fiber(MPoly.zero(V), MPoly.zero(V))


def test_lcm_with_zero_is_zero():
    f = (Y - X) * (Y + 1)
    for m in (poly_lcm(MPoly.zero(V), f), poly_lcm(f, MPoly.zero(V))):
        assert m.is_zero() and m.vars == V


def test_lcm_divisible_by_both():
    f = (Y - X) * (Y + 1)
    g = (Y - X) * (Y - 2)
    m = poly_lcm(f, g)
    assert try_div(m, f) is not None
    assert try_div(m, g) is not None


def test_gcd_property_random():
    """gcd(f h, g h) is h * gcd(f, g) up to normalization."""
    rng = Random(42)

    def rand_poly(max_terms=4, max_deg=2):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
        p = MPoly(V, {k: Fraction(v) for k, v in terms.items() if v})
        return p

    checked = 0
    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        lhs = poly_gcd(f * h, g * h)
        rhs = (poly_gcd(f, g) * h).primitive_int().sign_normalized()
        # both are defined up to units; normalized forms must agree
        assert lhs == rhs, (f, g, h)
        checked += 1
    assert checked >= 40


def test_division_property_random():
    rng = Random(43)
    for _ in range(40):
        fterms = {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
                  for _ in range(3)}
        f = MPoly(V, {k: v for k, v in fterms.items() if v})
        g = X * Y + rng.randint(1, 3)
        if f.is_zero():
            continue
        prod = f * g
        assert try_div(prod, g) == f
        assert exact_div(prod, f) == g


def test_str_is_readable():
    assert str(Y ** 2 - X) == "y^2 - x"
    assert str(MPoly.zero(V)) == "0"
    assert str(MPoly.constant(V, Fraction(-3, 2))) == "-3/2"
