"""Rational representation of residue currents with fiber-monic denominators.

A current is a pair (P, r) of polynomials in base variables plus one fiber
variable y, where P is monic in y of degree d >= 1, deg_y(r) < d, r is not
identically zero, and gcd(P, r) = 1.  The pair encodes the data whose fiber
traces, reconstruction, and line-coordinate transforms the rest of the
package manipulates.  Validation reduces non-canonical input to this normal
form and logs what it changed.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from .algebra import MPoly, RatFunc, det_poly_grid, exact_div, poly_gcd
from .algebra.poly import pseudo_rem
from .errors import DomainError
from .record import Record, _set
from .residues import trace_stream

WeightedPoints = Sequence[tuple[RatFunc, RatFunc]]

# the fiber variable of the currents `from_weighted_points` builds
_FIBER = "y"


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

    p is monic in the fiber, so every non-constant factor of p involves the
    fiber, and one fiber image suffices for the gcd: `poly_gcd` takes p and
    r, less their monomial content, to an integer point of the base
    variables mod 2^61 - 1, and coprime images prove that content is the
    whole gcd.  Only when they are not does it reduce to shared variables or
    run the subresultant PRS on the cofactors, and each inner gcd of those
    takes the same routes, the images included.
    """
    p._check_same_ring(r)
    if len(p.vars) < 2:
        raise DomainError("a current needs at least one base variable and one fiber variable")
    fiber = p.vars[-1]
    d = p.degree(fiber)
    if d < 1:
        raise DomainError(f"p must have positive degree in the fiber variable {fiber!r}")
    if not p.as_univariate(fiber)[d].is_one():
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
        # lc(g) * lc(p / g) = lc(p) = 1 in the fiber variable, so both leads
        # are constants and rescaling by lc(p / g) keeps p monic and r / p fixed
        p1 = exact_div(p, g)
        c = p1.as_univariate(fiber)[-1].constant_value()
        p, r = p1.scale(1 / c), exact_div(r, g).scale(1 / c)
        _log("divided out common factor %s", g)
    return ResidualCurrent(p=p, r=r)


def from_weighted_points(points: WeightedPoints) -> ResidualCurrent:
    """Current with fiber poles at given root functions and prescribed weights.

    Each point is a pair (root, weight) of rational functions of the base
    variables.  Over the base variables plus the fiber y,
    p = prod_i (y - root_i) and r = sum_i weight_i p / (y - root_i), so the
    residue of r / p at root_i is weight_i.  Both must come out
    polynomial; if one does not, the data has no representative here and
    DomainError names it.
    """
    points = list(points)
    if not points:
        raise DomainError("at least one weighted point is required")
    base = points[0][0].vars
    for i, (root, weight) in enumerate(points):
        if root.vars != base or weight.vars != base:
            raise DomainError("all roots and weights must share one variable list")
        if weight.is_zero():
            raise DomainError(f"weight {i} is zero; drop the point instead")
    roots = [root for root, _ in points]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i] == roots[j]:
                raise DomainError(f"roots {i} and {j} coincide: {roots[i]}")
    if _FIBER in base:
        raise DomainError(f"fiber name {_FIBER!r} collides with a base variable")

    variables = tuple(base) + (_FIBER,)

    def lift(f: RatFunc) -> RatFunc:
        return RatFunc(MPoly.from_univariate(variables, _FIBER, [f.num]),
                       MPoly.from_univariate(variables, _FIBER, [f.den]))

    y = RatFunc.variable(variables, _FIBER)
    factors = [y - lift(root) for root in roots]
    p = prod(factors)
    if not p.is_polynomial():
        raise DomainError(f"denominator p is not polynomial: {p}")
    r = sum(lift(weight) * (p / factor) for (_, weight), factor in zip(points, factors))
    if not r.is_polynomial():
        raise DomainError(f"numerator r is not polynomial: {r}")
    return validate(p.as_poly(), r.as_poly())


def support_discriminant(current: ResidualCurrent) -> MPoly:
    """Resultant of p and its fiber derivative, over the base variables.

    Vanishes exactly where fiber poles collide; away from its zero set the
    pointwise residue oracle is well defined.  With p monic of fiber degree
    d this is (-1)^(d(d-1)/2) times the discriminant of p, taken from the
    traces: the residue sums s_k of p' y^k / p are the power sums of the
    fiber roots, polynomial because p is monic, and the Hankel determinant
    det(s_(i+j)), i, j < d, is prod_(i<j) (y_i - y_j)^2, the discriminant
    (Hermite's trace form).
    """
    p = current.p
    d = current.degree
    s = [u.as_poly() for u in trace_stream(p.derivative(current.fiber), p, 2 * d - 1)]
    disc = det_poly_grid([s[i:i + d] for i in range(d)])
    return -disc if d * (d - 1) // 2 % 2 else disc
