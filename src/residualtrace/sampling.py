"""Seeded random instances for self-checks and tests.

Everything here is driven by an explicit `random.Random`, so a fixed seed
reproduces the exact same polynomials, currents, and sample points.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .algebra import MPoly, RatFunc
from .currents import ResidualCurrent, from_weighted_points, validate
from .errors import DomainError


def base_vars(n: int) -> tuple[str, ...]:
    if n < 1:
        raise DomainError("need at least one base variable")
    if n == 1:
        return ("x",)
    return tuple(f"x{i}" for i in range(1, n + 1))


def current_vars(n: int) -> tuple[str, ...]:
    return base_vars(n) + ("y",)


def random_base_poly(rng: Random, n: int, max_deg: int, max_abs: int = 4) -> MPoly:
    """Random polynomial in the base variables, possibly the zero polynomial."""
    variables = base_vars(n)
    terms = {}
    for _ in range(rng.randint(0, n + max_deg)):
        exps = [0] * n
        remaining = rng.randint(0, max_deg)
        for i in range(n):
            e = rng.randint(0, remaining)
            exps[i] = e
            remaining -= e
        c = rng.randint(-max_abs, max_abs)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
    return MPoly(variables, terms)


def random_current(rng: Random, n: int = 1, max_degree: int = 5,
                   coeff_degree: int = 3, max_abs: int = 4) -> ResidualCurrent:
    """Random valid current: monic fiber polynomial plus a coprime numerator.

    Validation may reduce the pair; what comes back is always canonical, so
    its fiber degree can be below the drawn one.
    """
    base, variables = base_vars(n), current_vars(n)
    fiber = "y"
    while True:
        d = rng.randint(1, max_degree)
        pieces = {d: MPoly.constant(base, 1)}
        for i in range(d):
            coeff = random_base_poly(rng, n, coeff_degree, max_abs)
            if not coeff.is_zero():
                pieces[i] = coeff
        p = MPoly.from_univariate(variables, fiber, pieces)
        r_pieces = {}
        for i in range(d):
            coeff = random_base_poly(rng, n, coeff_degree, max_abs)
            if not coeff.is_zero():
                r_pieces[i] = coeff
        if not r_pieces:
            r_pieces[0] = MPoly.constant(base, rng.randint(1, max_abs))
        r = MPoly.from_univariate(variables, fiber, r_pieces)
        try:
            return validate(p, r)
        except DomainError:
            continue


def random_weighted_current(rng: Random, n: int = 1, count: int = 3,
                            max_abs: int = 3):
    """Current from distinct linear fiber roots with nonzero weights.

    Returns (current, points), points being the (root, weight) pairs given
    to `from_weighted_points`; roots are affine in the base variables and
    weights constant, so the product form stays polynomial.
    """
    variables = base_vars(n)
    while True:
        seen = set()
        points = []
        for _ in range(count):
            for _ in range(50):
                coeffs = tuple(rng.randint(-max_abs, max_abs) for _ in range(n + 1))
                if coeffs not in seen:
                    seen.add(coeffs)
                    break
            else:
                break
            root = MPoly.constant(variables, coeffs[0])
            for i, v in enumerate(variables):
                root = root + MPoly.variable(variables, v).scale(coeffs[i + 1])
            weight = Fraction(rng.choice([c for c in range(-max_abs, max_abs + 1) if c]))
            points.append((RatFunc(root), RatFunc.constant(variables, weight)))
        if len(points) < count:
            continue
        try:
            return from_weighted_points(points), points
        except DomainError:
            continue


def random_rational_point(rng: Random, n: int, span: int = 5) -> dict[str, Fraction]:
    """Random rational assignment of the base variables with small entries."""
    return {
        v: Fraction(rng.randint(-span, span), rng.randint(1, 3))
        for v in base_vars(n)
    }
