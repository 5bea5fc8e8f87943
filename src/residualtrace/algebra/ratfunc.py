"""Rational functions over Q in a fixed variable tuple.

Every instance is kept in a canonical reduced form: numerator and
denominator coprime (full multivariate gcd) and the denominator's graded-lex
leading coefficient equal to 1.  Structural equality therefore coincides
with mathematical equality, and hashing is consistent with it.

The denominator 1 of a polynomial is one shared `MPoly` per variable
tuple, from `_one`; `MPoly` values are never mutated, so sharing it is
safe and saves building a constant for each polynomial.  Sums, differences
and products of polynomials take the general formulas: their denominator
is 1, so normalisation runs no gcd, and a product by the one-term 1 keeps
the other factor's terms in their order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import DomainError
from .poly import MPoly, exact_div, poly_gcd, try_div


@lru_cache(maxsize=64)
def _one(variables: tuple[str, ...]) -> MPoly:
    return MPoly.constant(variables, 1)


class RatFunc:
    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:  # a polynomial is already in canonical form
            self.num = num
            self.den = _one(num.vars)
            self._hash = None
            return
        num._check_same_ring(den)
        if den.is_zero():
            raise DomainError("denominator is the zero polynomial")
        if num.is_zero():
            den = _one(num.vars)
        elif den.is_one():
            pass
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = exact_div(num, g)
                den = exact_div(den, g)
            lc = den.leading_coefficient()
            if lc != 1:
                inv = 1 / lc
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den
        self._hash = None

    # ---- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "RatFunc":
        return cls(MPoly.zero(variables))

    @classmethod
    def one(cls, variables) -> "RatFunc":
        return cls(MPoly.constant(variables, 1))

    @classmethod
    def constant(cls, variables, value) -> "RatFunc":
        return cls(MPoly.constant(variables, value))

    @classmethod
    def variable(cls, variables, name: str) -> "RatFunc":
        return cls(MPoly.variable(variables, name))

    # ---- queries ----------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def as_poly(self) -> MPoly:
        if not self.den.is_one():
            raise DomainError(f"{self} is not a polynomial")
        return self.num

    def constant_value(self) -> Fraction:
        return self.as_poly().constant_value()

    # ---- field operations ---------------------------------------------

    def _lift(self, other):
        if isinstance(other, RatFunc):
            if other.vars != self.vars:
                raise DomainError(
                    f"variable lists differ: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, MPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other; a quotient of two polynomials is tried exactly first.

        When g divides f with quotient q, the reduced form of f/g is (q, 1):
        the canonical form (coprime parts, denominator lead 1) is unique, so
        returning RatFunc(q) skips the gcd and gives the same result.  The
        gcd path would also end in a `try_div` quotient, only scaled, so the
        term order agrees as well.
        """
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DomainError("division by the zero rational function")
        if self.den.is_one() and o.den.is_one():
            q = try_div(self.num, o.num)
            if q is not None:
                return RatFunc(q)
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero():
                raise DomainError("negative power of the zero rational function")
            return RatFunc(self.den ** -k, self.num ** -k)
        return RatFunc(self.num ** k, self.den ** k)

    def __eq__(self, other):
        # a bool is no rational number, but comparing with one is no error
        if isinstance(other, (int, Fraction, MPoly)) and not isinstance(other, bool):
            other = self._lift(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # ---- calculus and specialization ------------------------------------

    def diff(self, var: str) -> "RatFunc":
        return RatFunc(*derivative_pair(self.num, self.den, var))

    def subs(self, variables, images: dict) -> "RatFunc":
        num = self.num.subs(variables, images)
        den = self.den.subs(variables, images)
        if den.is_zero():
            raise DomainError("substitution lands on the polar set")
        return RatFunc(num, den)

    def eval_exact(self, values: dict[str, Fraction]) -> Fraction:
        d = self.den.eval_exact(values)
        if d == 0:
            raise DomainError("evaluation point lies on the polar set")
        return self.num.eval_exact(values) / d

    def eval_numeric(self, values: dict[str, complex]) -> complex:
        d = self.den.eval_numeric(values)
        if d == 0:
            raise DomainError("evaluation point lies on the polar set")
        return self.num.eval_numeric(values) / d

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def derivative_pair(num: MPoly, den: MPoly, var: str) -> tuple[MPoly, MPoly]:
    """d/dvar of num / den as the unreduced pair (N_var Q - N Q_var, Q^2).

    The one quotient rule: `RatFunc.diff` reduces its pair, and
    `radon.closedness_check` compares pairs cleared to integer coefficients,
    which give the same quotient.  When den is 1 or does not involve var the
    pair is (N_var, Q); the 1 is not differentiated.
    """
    dn = num.derivative(var)
    if den.is_one():
        return dn, den
    dq = den.derivative(var)
    if dq.is_zero():
        return dn, den
    return dn * den - num * dq, den * den
