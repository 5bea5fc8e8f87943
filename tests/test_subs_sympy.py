"""MPoly.subs against sympy's expand(subs(...)) as an independent oracle.

A bare-variable image (one term, coefficient 1, total degree 1) moves
exponents; every other image is raised to powers and multiplied once per
distinct exponent vector of the substituted variables.  The cases cover
both kinds, two sources renamed onto one target (merged, cancelling
terms), scalar and zero images, and cancellation between the groups.
A per-term reference pins the term order as well.
"""

from fractions import Fraction
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from residualtrace.algebra import MPoly  # noqa: E402
from residualtrace.errors import DomainError  # noqa: E402
from sympy_expr import to_sympy  # noqa: E402

SOURCE = ("x", "y", "z")
TARGET = ("a", "b", "z")
SYMS = {v: sympy.Symbol(v) for v in SOURCE + TARGET}


def random_poly(rng: Random, variables=SOURCE, terms=8, top=3) -> MPoly:
    return MPoly(variables, [
        (tuple(rng.randint(0, top) for _ in variables),
         Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))))
        for _ in range(rng.randint(1, terms))])


def reference_subs(p: MPoly, images: dict) -> MPoly:
    """Per-term product of repeated-product powers, summed by `+`."""
    result = MPoly.zero(TARGET)
    for exps, c in p.terms.items():
        term = MPoly.constant(TARGET, 1)
        for name, e in zip(p.vars, exps):
            img = images.get(name, MPoly.variable(TARGET, name) if name in TARGET else None)
            if not isinstance(img, MPoly):
                img = MPoly.constant(TARGET, img)
            power = MPoly.constant(TARGET, 1)
            for _ in range(e):
                power = power * img
            if e:
                term = term * power
        result = result + term.scale(c)
    return result


def check(p: MPoly, images: dict):
    ours = p.subs(TARGET, images)
    sym_images = {SYMS[k]: to_sympy(v) if isinstance(v, MPoly)
                  else sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
                  for k, v in images.items()}
    expected = sympy.expand(to_sympy(p).subs(sym_images, simultaneous=True))
    assert sympy.expand(to_sympy(ours) - expected) == 0
    ref = reference_subs(p, images)
    assert list(ours.terms.items()) == list(ref.terms.items())
    return ours


A = MPoly.variable(TARGET, "a")
B = MPoly.variable(TARGET, "b")
Z = MPoly.variable(TARGET, "z")


@pytest.mark.parametrize("seed", range(12))
def test_rename_images(seed):
    rng = Random(seed)
    check(random_poly(rng), {"x": A, "y": B})
    check(random_poly(rng), {"x": B, "y": A, "z": Z})


@pytest.mark.parametrize("seed", range(12))
def test_two_sources_renamed_to_one_target(seed):
    rng = Random(100 + seed)
    p = random_poly(rng)
    check(p, {"x": A, "y": A})
    # q(x, y) - q(y, x) vanishes once x and y both become a
    swapped = MPoly(SOURCE, {(e[1], e[0], e[2]): c for e, c in p.terms.items()})
    assert check(p - swapped, {"x": A, "y": A}).is_zero()
    check(p - swapped + random_poly(rng, terms=3), {"x": A, "y": A})


@pytest.mark.parametrize("seed", range(12))
def test_monomial_images_that_are_not_renames(seed):
    rng = Random(200 + seed)
    check(random_poly(rng), {"x": A.scale(2), "y": A * B})
    check(random_poly(rng), {"x": A * A, "y": B.scale(Fraction(-1, 3))})
    check(random_poly(rng), {"x": Z, "y": A * B})


@pytest.mark.parametrize("seed", range(12))
def test_scalar_and_zero_images(seed):
    rng = Random(300 + seed)
    check(random_poly(rng), {"x": 0, "y": B})
    check(random_poly(rng), {"x": Fraction(3, 2), "y": A - B})
    check(random_poly(rng), {"x": MPoly.zero(TARGET), "y": MPoly.constant(TARGET, -2)})
    check(random_poly(rng), {"x": 0, "y": 0, "z": 0})


@pytest.mark.parametrize("seed", range(12))
def test_cancellation_across_groups(seed):
    rng = Random(400 + seed)
    q = random_poly(rng, terms=4, top=2)
    x, y = MPoly.variable(SOURCE, "x"), MPoly.variable(SOURCE, "y")
    # x - y vanishes when both become a + b: every group cancels
    assert check(q * (x - y), {"x": A + B, "y": A + B}).is_zero()
    check(q * (x - y) + random_poly(rng, terms=3), {"x": A + B, "y": B + A})
    # x^2 - 2 y vanishes when x -> a + b and y -> (a + b)^2 / 2
    half = (A + B) * (A + B) * Fraction(1, 2)
    assert check(q * (x * x - y.scale(2)), {"x": A + B, "y": half}).is_zero()
    check(random_poly(rng), {"x": A * Z + B, "y": A - Z})


def test_image_over_the_wrong_variables_raises():
    p = random_poly(Random(7))
    with pytest.raises(DomainError, match="lives over"):
        p.subs(TARGET, {"x": MPoly.variable(("a", "b"), "a")})
    with pytest.raises(DomainError, match="lives over"):
        p.subs(TARGET, {"x": A, "y": MPoly.variable(("b", "a", "z"), "b")})
    # a variable carried over by name must exist in the target tuple
    with pytest.raises(DomainError):
        MPoly.variable(SOURCE, "y").subs(("a", "b"), {"x": MPoly.variable(("a", "b"), "a")})
