"""Current validation, point-mass construction, and the support discriminant."""

from fractions import Fraction
from random import Random

import pytest

from residualtrace.algebra import MPoly, RatFunc
from residualtrace.currents import (
    ResidualCurrent,
    ZeroCurrent,
    from_weighted_points,
    support_discriminant,
    validate,
)
from residualtrace.errors import DomainError
from residualtrace.sampling import random_weighted_current
from residualtrace.traces import traces

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")


def test_validate_accepts_canonical_pair():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    assert isinstance(c, ResidualCurrent)
    assert c.n == 1 and c.degree == 2 and c.fiber == "y"


def test_validate_is_idempotent():
    c = validate(Y ** 3 - X * Y + 1, Y + 2)
    again = validate(c.p, c.r)
    assert again == c


def test_validate_reduces_common_factor():
    # (y^2 - x^2, y - x) shares y - x; reduced pair is (y + x, 1)
    c = validate(Y * Y - X * X, Y - X)
    assert c.p == Y + X
    assert c.r == MPoly.constant(V, 1)


def test_validate_reduces_r_mod_p():
    c = validate(Y * Y - X, Y ** 3)
    # y^3 = y * (y^2 - x) + x y
    assert c.r == X * Y


def test_validate_rejects_nonmonic():
    with pytest.raises(DomainError, match="monic"):
        validate(X * Y - 1, MPoly.constant(V, 1))
    with pytest.raises(DomainError, match="monic"):
        validate(Y * Y * 2 - X, MPoly.constant(V, 1))


def test_validate_rejects_fiber_degree_zero():
    with pytest.raises(DomainError):
        validate(X + 1, MPoly.constant(V, 1))


def test_validate_rejects_zero_numerator():
    with pytest.raises(DomainError, match="zero"):
        validate(Y - X, MPoly.zero(V))
    # r a multiple of p collapses to zero as well
    with pytest.raises(DomainError, match="zero"):
        validate(Y - X, (Y - X) * Y)


def test_validate_needs_base_variable():
    with pytest.raises(DomainError):
        validate(MPoly.variable(("y",), "y"), MPoly.constant(("y",), 1))


def test_from_weighted_points_two_constants():
    B = ("x",)
    pts = [(RatFunc.constant(B, 0), RatFunc.constant(B, 1)),
           (RatFunc.constant(B, 1), RatFunc.constant(B, 1))]
    c = from_weighted_points(pts)
    assert c.p == Y * Y - Y
    assert c.r == Y.scale(2) - 1


def test_from_weighted_points_symmetric_roots():
    B = ("x",)
    xr = RatFunc.variable(B, "x")
    pts = [(xr, RatFunc.constant(B, 1)), (-xr, RatFunc.constant(B, 1))]
    c = from_weighted_points(pts)
    assert c.p == Y * Y - X * X
    assert c.r == Y.scale(2)


def test_from_weighted_points_single_point():
    B = ("x",)
    c = from_weighted_points([(RatFunc.variable(B, "x"), RatFunc.constant(B, 5))])
    assert c.p == Y - X
    assert c.r == MPoly.constant(V, 5)


def test_from_weighted_points_rejects_duplicates():
    B = ("x",)
    root = RatFunc.variable(B, "x")
    with pytest.raises(DomainError, match="coincide"):
        from_weighted_points([(root, RatFunc.constant(B, 1)),
                              (root, RatFunc.constant(B, 2))])


def test_from_weighted_points_rejects_zero_weight():
    B = ("x",)
    with pytest.raises(DomainError, match="zero"):
        from_weighted_points([(RatFunc.variable(B, "x"), RatFunc.zero(B))])


def test_from_weighted_points_rejects_nonpolynomial_data():
    B = ("x",)
    xr = RatFunc.variable(B, "x")
    with pytest.raises(DomainError, match="not polynomial"):
        from_weighted_points([(1 / xr, RatFunc.constant(B, 1))])


def test_from_weighted_points_names_the_nonpolynomial_part():
    B = ("x",)
    xr, one = RatFunc.variable(B, "x"), RatFunc.one(B)
    # a root with a denominator makes p rational; r = 1 / x with p = y - x
    with pytest.raises(DomainError, match="denominator p is not polynomial"):
        from_weighted_points([(1 / xr, one), (xr, one)])
    with pytest.raises(DomainError, match="numerator r is not polynomial"):
        from_weighted_points([(xr, 1 / xr)])


@pytest.mark.parametrize("n", [1, 2])
def test_point_mass_traces_are_weighted_power_sums(n):
    # r / p = sum_i w_i / (y - root_i), so u_k = sum_i w_i root_i^k exactly
    rng = Random(1913 + n)
    for _ in range(8):
        c, points = random_weighted_current(rng, n=n, count=rng.randint(1, 4))
        assert c.degree == len(points)
        t = traces(c, 2 * c.degree + 1)
        for k, u in enumerate(t.entries):
            assert u == sum((w * root ** k for root, w in points), RatFunc.zero(c.base_vars))


def test_support_discriminant_example():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    disc = support_discriminant(c)
    assert disc == MPoly(("x",), {(1,): Fraction(-4)})


def test_support_discriminant_vanishes_on_double_roots():
    # p = (y - x)^2 always has a double root
    c = validate((Y - X) * (Y - X), MPoly.constant(V, 1))
    disc = support_discriminant(c)
    assert disc.is_zero()
    assert disc.vars == c.base_vars


def test_support_discriminant_nonzero_for_split_points():
    B = ("x",)
    pts = [(RatFunc.constant(B, 0), RatFunc.constant(B, 1)),
           (RatFunc.constant(B, 2), RatFunc.constant(B, 3))]
    c = from_weighted_points(pts)
    disc = support_discriminant(c)
    assert not disc.is_zero()
    assert disc.vars == c.base_vars
    # roots 0 and 2: res(y^2-2y, 2y-2) = (-1)^1 (0 - 2)^2 = -4, with the
    # sign of res(y^2-x, 2y) = -4x
    assert disc == MPoly(B, {(0,): Fraction(-4)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_discriminant_is_the_signed_product_of_root_differences(n):
    # res(p, p') = (-1)^(d(d-1)/2) prod_(i<j) (root_i - root_j)^2 for p monic
    rng = Random(2600 + n)
    for d in range(1, 5):
        for _ in range(5):
            c, points = random_weighted_current(rng, n=n, count=d)
            assert c.degree == d
            roots = [root for root, _ in points]
            want = RatFunc.constant(c.base_vars, -1 if d * (d - 1) // 2 % 2 else 1)
            for i in range(d):
                for j in range(i + 1, d):
                    want = want * (roots[i] - roots[j]) ** 2
            assert support_discriminant(c) == want.as_poly()


def test_zero_current_sentinel():
    z = ZeroCurrent(2)
    assert z.n == 2
    assert z == ZeroCurrent(2)
    assert z != ZeroCurrent(1)
