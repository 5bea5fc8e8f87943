"""Rational function canonical form and field arithmetic."""

from fractions import Fraction
from random import Random

import pytest

from residualtrace.algebra import MPoly, RatFunc
from residualtrace.errors import DomainError

V = ("x",)
X = MPoly.variable(V, "x")


def rf(num, den=None):
    return RatFunc(num, den)


def test_reduction_on_construction():
    f = rf((X + 1) * (X - 1), (X - 1) * X)
    assert f.num == X + 1
    assert f.den == X


def test_denominator_normalized_to_monic_lead():
    f = rf(X, X.scale(2) + 2)
    assert f.den == X + 1
    assert f.num == X.scale(Fraction(1, 2))


def test_structural_equality_is_mathematical():
    a = rf(X * 2, (X + 1) * 2)
    b = rf(X, X + 1)
    assert a == b
    assert hash(a) == hash(b)


def test_comparing_with_a_bool_is_unequal_and_arithmetic_refuses_it():
    one = RatFunc.one(V)
    assert not (one == True)  # noqa: E712
    assert one != False  # noqa: E712
    assert True not in [one]
    assert one == 1
    with pytest.raises(DomainError, match="boolean"):
        one + True


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        rf(X, MPoly.zero(V))


def test_zero_numerator_collapses():
    f = rf(MPoly.zero(V), X + 3)
    assert f.is_zero()
    assert f.den.is_one()


def test_field_ops():
    f = rf(MPoly.constant(V, 1), X)        # 1/x
    g = rf(X, X + 1)                        # x/(x+1)
    s = f + g
    assert s == rf(X * X + X + 1, X * (X + 1))
    assert (f * g) == rf(MPoly.constant(V, 1), X + 1)
    assert (f - f).is_zero()
    assert f / g == rf(X + 1, X * X)
    with pytest.raises(DomainError):
        f / RatFunc.zero(V)


def test_scalar_and_poly_lifting():
    f = rf(MPoly.constant(V, 1), X)
    assert f * 2 == rf(MPoly.constant(V, 2), X)
    assert f + X == rf(X * X + 1, X)
    assert 1 / f == RatFunc(X)


def test_pow():
    f = rf(X, X + 1)
    assert f ** 0 == RatFunc.one(V)
    assert f ** 3 == rf(X * X * X, (X + 1) * (X + 1) * (X + 1))
    assert f ** -2 == rf((X + 1) * (X + 1), X * X)
    with pytest.raises(DomainError):
        RatFunc.zero(V) ** -1


def test_diff_quotient_rule():
    f = rf(MPoly.constant(V, 1), X)
    assert f.diff("x") == rf(MPoly.constant(V, -1), X * X)
    g = rf(X * X + 1)
    assert g.diff("x") == RatFunc(X * 2)


def test_subs_changes_ring():
    W = ("a", "b")
    f = rf(X, X + 1)
    g = f.subs(W, {"x": MPoly.variable(W, "a") + MPoly.variable(W, "b")})
    ab = MPoly.variable(W, "a") + MPoly.variable(W, "b")
    assert g == RatFunc(ab, ab + 1)


def test_subs_onto_polar_set_rejected():
    f = rf(MPoly.constant(V, 1), X)
    with pytest.raises(DomainError):
        f.subs(("a",), {"x": MPoly.zero(("a",))})


def test_eval_exact_and_polar_point():
    f = rf(X + 1, X)
    assert f.eval_exact({"x": Fraction(2)}) == Fraction(3, 2)
    with pytest.raises(DomainError):
        f.eval_exact({"x": Fraction(0)})


def test_is_polynomial_and_as_poly():
    f = rf(X * X, X)
    assert f.is_polynomial()
    assert f.as_poly() == X
    g = rf(MPoly.constant(V, 1), X)
    assert not g.is_polynomial()
    with pytest.raises(DomainError):
        g.as_poly()


def test_field_axioms_random():
    rng = Random(99)

    def rand_rf():
        num = MPoly(V, {(rng.randint(0, 2),): Fraction(rng.randint(-3, 3))
                        for _ in range(2)})
        den = MPoly(V, {(rng.randint(0, 2),): Fraction(rng.randint(-3, 3))
                        for _ in range(2)})
        if den.is_zero():
            den = X + 1
        return RatFunc(num, den)

    for _ in range(50):
        f, g, h = rand_rf(), rand_rf(), rand_rf()
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        if not g.is_zero():
            assert (f / g) * g == f


def shape(f):
    """num, den and their term dicts in order, with each stored value's type."""
    return [[(e, type(c), c) for e, c in p.terms.items()] for p in (f.num, f.den)]


def test_polynomial_division_matches_gcd_reduction():
    W = ("x", "y")
    x, y = MPoly.variable(W, "x"), MPoly.variable(W, "y")
    rng = Random(31)

    def coeff():
        if rng.random() < 0.5:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-7, 7), rng.choice([2, 3, 5]))

    def rand_poly(size):
        return MPoly(W, {(rng.randint(0, 2), rng.randint(0, 2)): coeff()
                         for _ in range(size)})

    divisors = [x.scale(2) + 2, MPoly.constant(W, Fraction(3, 2)),
                MPoly.constant(W, 1), y * y - x]
    divisors += [rand_poly(rng.randint(1, 3)) for _ in range(40)]
    exact = inexact = 0
    for g in divisors:
        if g.is_zero():
            continue
        for _ in range(3):
            h = rand_poly(rng.randint(0, 3))
            k = rand_poly(rng.randint(1, 3))
            for f in (g * h, g * h + k):
                got = RatFunc(f) / RatFunc(g)
                # RatFunc(f, g) is the reduction through the gcd
                assert shape(got) == shape(rf(f, g)), (f, g)
                assert got * RatFunc(g) == RatFunc(f)
                if got.is_polynomial():
                    exact += 1
                else:
                    inexact += 1
    assert exact > 50 and inexact > 50
    zero = MPoly.zero(W)
    assert shape(RatFunc(zero) / RatFunc(x.scale(2) + 2)) == shape(rf(zero, x.scale(2) + 2))
    with pytest.raises(DomainError):
        RatFunc(x) / RatFunc(zero)
