"""Rational representation of residue currents with fiber-monic denominators.

A current is a pair (P, r) of polynomials in base variables plus one fiber
variable y, where P is monic in y of degree d >= 1, deg_y(r) < d, r is not
identically zero, and gcd(P, r) = 1.  The pair encodes the data whose fiber
traces, reconstruction, and line-coordinate transforms the rest of the
package manipulates.  Validation reduces non-canonical input to this normal
form and logs what it changed.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    MPoly,
    RatFunc,
    exact_div,
    poly_gcd,
    sylvester_resultant,
)
from .algebra.poly import pseudo_rem
from .errors import DomainError
from .record import Record, _set

WeightedPoints = Sequence[tuple[RatFunc, RatFunc]]


class ResidualCurrent(Record):
    """Canonical pair (p, r); built by `validate`, or directly by `reconstruct`."""

    __slots__ = ("p", "r")

    def __init__(self, p: MPoly, r: MPoly):
        _set(self, "p", p)
        _set(self, "r", r)

    @property
    def fiber(self) -> str:
        return self.p.vars[-1]

    @property
    def base_vars(self) -> tuple[str, ...]:
        return self.p.vars[:-1]

    @property
    def n(self) -> int:
        return len(self.p.vars) - 1

    @property
    def degree(self) -> int:
        return self.p.degree(self.fiber)


class ZeroCurrent(Record):
    """Sentinel for the zero current in n base variables."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        _set(self, "n", n)


def _log(message: str, arg):
    """Log what `validate` changed; `logging` loads only when there is something to say."""
    import logging
    logging.getLogger(__name__).info(message, arg)


def validate(p: MPoly, r: MPoly) -> ResidualCurrent:
    """Check and normalize a (p, r) pair into a ResidualCurrent.

    Normalization reduces r modulo p in the fiber variable and divides out
    any common fiber factor, rescaling so p stays monic.  Degenerate input
    (zero numerator, non-monic p, no base variable) raises DomainError with
    the violated invariant named.
    """
    p._check_same_ring(r)
    if len(p.vars) < 2:
        raise DomainError("a current needs at least one base variable and one fiber variable")
    fiber = p.vars[-1]
    d = p.degree(fiber)
    if d < 1:
        raise DomainError(f"p must have positive degree in the fiber variable {fiber!r}")
    if not p.coefficient_in(fiber, d).is_one():
        raise DomainError(f"p is not monic in the fiber variable {fiber!r}: {p}")
    if r.is_zero():
        raise DomainError("r is identically zero; the zero current has no (p, r) representative")
    if r.degree(fiber) >= d:
        r = pseudo_rem(r, p, fiber)
        _log("reduced r modulo p in %s", fiber)
        if r.is_zero():
            raise DomainError("r is a multiple of p; the pair represents the zero current")
    g = poly_gcd(p, r)
    if not g.is_constant():
        p1 = exact_div(p, g)
        r1 = exact_div(r, g)
        dd = p1.degree(fiber)
        lead = p1.coefficient_in(fiber, dd)
        # p monic forces the removed factor's fiber-leading coefficient to be
        # constant, so rescaling both parts keeps the quotient form equal
        if not lead.is_constant():
            raise DomainError(f"common factor {g} breaks fiber monicity")
        c = lead.constant_value()
        p, r = p1.scale(1 / c), r1.scale(1 / c)
        _log("divided out common factor %s", g)
    return ResidualCurrent(p=p, r=r)


def from_weighted_points(points: WeightedPoints, fiber: str = "y") -> ResidualCurrent:
    """Current with fiber poles at given root functions and prescribed weights.

    Each point is a pair (root, weight) of rational functions of the base
    variables.  p is the product of (y - root_i) and r interpolates so the
    residue at root_i equals weight_i.  Both must come out polynomial; if
    they do not, the data has no representative here and DomainError is
    raised.
    """
    points = list(points)
    if not points:
        raise DomainError("at least one weighted point is required")
    base = points[0][0].vars
    roots = []
    weights = []
    for i, (root, weight) in enumerate(points):
        if root.vars != base or weight.vars != base:
            raise DomainError("all roots and weights must share one variable list")
        if weight.is_zero():
            raise DomainError(f"weight {i} is zero; drop the point instead")
        roots.append(root)
        weights.append(weight)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i] == roots[j]:
                raise DomainError(f"roots {i} and {j} coincide: {roots[i]}")
    if fiber in base:
        raise DomainError(f"fiber name {fiber!r} collides with a base variable")

    one = RatFunc.one(base)

    def mul_linear(coeffs: list[RatFunc], root: RatFunc) -> list[RatFunc]:
        # multiply an ascending coefficient list by (y - root)
        out = [RatFunc.zero(base)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            out[k + 1] = out[k + 1] + c
            out[k] = out[k] - c * root
        return out

    p_coeffs = [one]
    for root in roots:
        p_coeffs = mul_linear(p_coeffs, root)
    r_coeffs = [RatFunc.zero(base)] * max(1, len(roots))
    for i, weight in enumerate(weights):
        part = [weight]
        for j, root in enumerate(roots):
            if j != i:
                part = mul_linear(part, root)
        for k, c in enumerate(part):
            r_coeffs[k] = r_coeffs[k] + c

    variables = tuple(base) + (fiber,)

    def assemble(coeffs: list[RatFunc], what: str) -> MPoly:
        pieces = {}
        for k, c in enumerate(coeffs):
            if not c.is_polynomial():
                raise DomainError(
                    f"{what} coefficient of {fiber}^{k} is not polynomial: {c}")
            if not c.is_zero():
                pieces[k] = c.as_poly().extend(variables)
        return MPoly.from_univariate(variables, fiber, pieces)

    p = assemble(p_coeffs, "denominator")
    r = assemble(r_coeffs, "numerator")
    return validate(p, r)


def support_discriminant(current: ResidualCurrent) -> MPoly:
    """Resultant of p and its fiber derivative, over the base variables.

    Vanishes exactly where fiber poles collide; away from its zero set the
    pointwise residue oracle is well defined.  With p monic of fiber degree
    d this is (-1)^(d(d-1)/2) times the discriminant of p.
    """
    p = current.p
    fiber = current.fiber
    res = sylvester_resultant(p, p.derivative(fiber), fiber)
    return res.restrict(current.base_vars)
