"""Exact multivariate polynomials over the rationals.

Coefficients are exact rationals, stored as the storage rule below says;
terms are keyed by exponent tuples against a fixed ordered variable tuple.
By convention the fiber variable, when present, is the last one.  Term order everywhere is graded
lexicographic (total degree first, then left-to-right lex), which fixes a
canonical serialization order and a canonical leading term.

Floating point coefficients are rejected outright: every operation in this
module is exact.

Storage rule: a coefficient is stored as an ``int`` when it is integral and
as a reduced ``Fraction`` only when it is not, so the integer-coefficient
polynomials of the hot paths never build a ``Fraction``.  ``3 == Fraction(3)``,
``hash(3) == hash(Fraction(3))`` and ``str(3) == str(Fraction(3))``, so
equality, hashing and output do not see the difference.  The scalar views
``constant_value``, ``leading_term`` and ``leading_coefficient`` return a
``Fraction``, so a caller computing ``1 / lc`` never meets int division; a
reader of raw ``terms`` values that divides must convert first.

Kernel rule: products and contents clear each operand's denominators by
their lcm and run the inner loop on ints; an all-integer operand is the
lcm = 1 case, and an all-integer product keeps its int accumulator as the
result.  Only an output term with a denominator that does not cancel becomes
a ``Fraction``, never a partial product.  Scaling by a non-integral p/q
takes an int value v to v p over q, a ``Fraction`` only when q does not
divide v p; a ``Fraction`` value is multiplied as it is.  A sum or
difference keeps the stored value of every term found on one side only
(negated for a subtrahend) and sums a shared term, on ints when both values
are ints.
A term key that is a sum of two keys (a product's, a quotient's, a renamed
term's) comes from `_adder`, one unrolled tuple sum compiled per number of
variables.  Trivial operands skip the general loop: a zero operand gives
zero and a zero summand gives the other operand itself, and a one-term
factor gives one comprehension over the other factor's terms, in their
order, since distinct keys shifted by one key stay distinct.

A polynomial viewed in one variable has one implementation,
`MPoly.as_univariate`: the ascending coefficient list, zeros included, each
coefficient a polynomial over the other variables (the zero polynomial
gives `[]`).  `MPoly.from_univariate` is its exact inverse; it also takes a
dict {k: coefficient} from a caller that fixes its own term order.
Pseudo-division, the trace stream and `currents.validate` read
coefficients from this view, over the smaller ring.  A caller that needs a
result in the full ring lifts one polynomial back with
``from_univariate(vars, var, [g])``: `_content_in` its content,
`currents.from_weighted_points` its roots and weights,
`radon.pencil_projection` its line offsets.

Pseudo-division in one variable has two implementations.  `mod_monic`, on
lists of `MPoly` coefficients, is every step of the trace stream of
`residues` (the first reduction and each multiply-by-y step after it), and
through `pseudo_rem` serves `currents.validate` and the subresultant PRS of
the gcd; it forms no product by a zero coefficient of the divisor.
`dense.prem`, on int lists, serves the gcd's one-variable base
case, a dense integer PRS that keeps the chart path about 12% faster than
the `MPoly` PRS would; one shared version would branch on int or `MPoly`.

The gcd has one function, `poly_gcd`, and every gcd in this module is a
call of it: a content (`_content_in`) and a coefficient list (`_gcd_all`,
fewest terms first, stopping at a constant) call it again, so every depth
takes the same routes in the same order (its docstring lists them and why
the certificate is sound).  One shared variable is the dense integer PRS of
`dense.gcd`.  Otherwise the monomial content is stripped, and images modulo
2^61 - 1 usually prove the cofactors coprime.  A common divisor involves
only the variables that both cofactors contain, so when their supports
differ their gcd is that of every coefficient of both taken as polynomials
in the other variables; in a chart, where c^e lies in the slopes alone, no
PRS step ever runs in the other chart variables.  When the supports are
equal, the subresultant PRS runs in the last shared variable, and only its
last remainder has its content taken.

Substitution has one implementation, `MPoly.subs`.  An image that is a bare
target variable (one term, coefficient 1, total degree 1) is a rename: it
moves exponents and multiplies nothing.  The other terms are grouped by
their exponent vector in the remaining substituted variables, and each
distinct vector costs one product of cached powers of the images, however
many terms share it.  Each term then adds its coefficient times that
product, shifted by the renames, so the result is the per-term sum, term
order included.  A term whose exponents in those variables are all zero has
the unit as its product and adds its stored coefficient with no
multiplication; every term of a denominator c^e that involves no
substituted variable, as in the pencil's specialisation of chart traces,
takes this path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import fsum, gcd as _int_gcd, nan
from operator import index as _index
from typing import Callable

from ..errors import DomainError
from . import dense

Exponents = tuple[int, ...]
Coefficient = int | Fraction  # stored form: see the storage rule above

_ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction. Floats and bools are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise DomainError(f"{value!r} is a boolean, not a rational number")
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError("floating point coefficients are not exact; pass a Fraction or string")
    raise DomainError(f"cannot interpret {value!r} as a rational number")


def _canon(c: Coefficient) -> Coefficient:
    """Stored form of an int or Fraction value."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _coefficient(value) -> Coefficient:
    """Stored form of an int, string or Fraction. Floats are refused."""
    if type(value) is int:
        return value
    return _canon(as_fraction(value))


def _div(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b in stored form, for stored values a and b != 0."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canon(a / b)


@cache
def _adder(n: int) -> Callable[[Exponents, Exponents], Exponents]:
    """(a, b) -> a + b componentwise on n-tuples, compiled once per n.

    The sum is unrolled, ``lambda a, b: (a[0] + b[0], a[1] + b[1])``, and
    generated from source the way `collections.namedtuple` builds its
    methods.  On 2-tuples it takes about 130 ns against 500 ns for
    ``tuple(map(add, a, b))`` (Python 3.11.7, 2-CPU VM).
    """
    body = "".join(f"a[{i}] + b[{i}], " for i in range(n))
    return eval(f"lambda a, b: ({body})")


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _trusted(variables: tuple[str, ...], terms: dict[Exponents, Coefficient]) -> "MPoly":
    """Wrap terms that are already canonical: stored form, no zeros, right arity."""
    out = MPoly.__new__(MPoly)
    out.vars, out.terms, out._hash = variables, terms, None
    return out


def _accumulate(terms: dict[Exponents, Coefficient], other: dict[Exponents, Coefficient],
                sign: int = 1):
    """terms += sign * other in place, for sign = 1 or -1.

    Terms of `other` not yet present are appended in their order; a shared
    term is summed, and dropped when it cancels.
    """
    for exps, c in other.items():
        prev = terms.get(exps)
        if prev is None:
            terms[exps] = c if sign > 0 else -c
            continue
        s = prev + c if sign > 0 else prev - c
        if s:
            terms[exps] = _canon(s)
        else:
            del terms[exps]


def _bare_variable(p: "MPoly") -> int | None:
    """Position of the variable p is, when p is one term 1 * v; else None."""
    if len(p.terms) != 1:
        return None
    (exps, c), = p.terms.items()
    if c != 1 or sum(exps) != 1:
        return None
    return exps.index(1)


class MPoly:
    """Immutable multivariate polynomial with rational coefficients."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms):
        self.vars = tuple(str(v) for v in variables)
        nv = len(self.vars)
        clean: dict[Exponents, Coefficient] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            try:
                exps = tuple(exps)
                ints = tuple(map(_index, exps))
            except TypeError:
                ints = None
            # bool passes operator.index, but is no more an exponent than a coefficient
            if ints is None or bool in map(type, exps):
                raise DomainError(f"exponent vector {exps!r} has a non-integer entry")
            exps = ints
            if len(exps) != nv:
                raise DomainError(
                    f"exponent vector {exps} does not match variables {self.vars}")
            if any(e < 0 for e in exps):
                raise DomainError(f"negative exponent in {exps}")
            c = _coefficient(coeff)
            if c:
                prev = clean.get(exps)
                if prev is None:
                    clean[exps] = c
                else:
                    s = prev + c
                    if s:
                        clean[exps] = _canon(s)
                    else:
                        del clean[exps]
        self.terms = clean
        self._hash = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MPoly":
        return _trusted(tuple(map(str, variables)), {})

    @classmethod
    def constant(cls, variables, value) -> "MPoly":
        variables = tuple(map(str, variables))
        c = _coefficient(value)
        return _trusted(variables, {(0,) * len(variables): c} if c else {})

    @classmethod
    def variable(cls, variables, name: str) -> "MPoly":
        variables = tuple(map(str, variables))
        if name not in variables:
            raise DomainError(f"{name!r} is not among variables {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return _trusted(variables, {exps: 1})

    @classmethod
    def from_univariate(cls, variables, var: str, coeffs) -> "MPoly":
        """sum_k coeffs[k] * var**k, the inverse of `as_univariate`.

        `coeffs` is the ascending list, or a dict {k: coefficient} whose
        order is the result's term order; each coefficient lives over
        `variables` without `var`.
        """
        variables = tuple(map(str, variables))
        vi = variables.index(var)
        base = variables[:vi] + variables[vi + 1:]
        # No two (k, term) pairs share a key: the coefficients lack `var`.
        terms: dict[Exponents, Coefficient] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        for k, poly in items:
            if poly.vars != base:
                raise DomainError(
                    f"coefficient of {var}^{k} lives over {poly.vars}, not {base}")
            for exps, c in poly.terms.items():
                terms[exps[:vi] + (k,) + exps[vi:]] = c
        return _trusted(variables, terms)

    # ---- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (exps, c), = self.terms.items()
        return c == 1 and not any(exps)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return _ZERO
        if not self.is_constant():
            raise DomainError(f"{self} is not constant")
        return as_fraction(next(iter(self.terms.values())))

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable. The zero poly has degree -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        vi = self.vars.index(var)
        return max(e[vi] for e in self.terms)

    def leading_term(self) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise DomainError("the zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, as_fraction(self.terms[exps])

    def leading_coefficient(self) -> Fraction:
        return self.leading_term()[1]

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        """Terms in descending graded-lex order (canonical output order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # ---- ring operations ----------------------------------------------

    def _check_same_ring(self, other: "MPoly"):
        if self.vars != other.vars:
            raise DomainError(
                f"variable lists differ: {self.vars} vs {other.vars}")

    def _lift(self, other):
        if isinstance(other, MPoly):
            self._check_same_ring(other)
            return other
        if isinstance(other, (int, Fraction, str)):
            return MPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = other if type(other) is MPoly and other.vars == self.vars else self._lift(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        terms = dict(self.terms)
        _accumulate(terms, o.terms)
        return _trusted(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = other if type(other) is MPoly and other.vars == self.vars else self._lift(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        terms = dict(self.terms)
        _accumulate(terms, o.terms, -1)
        return _trusted(self.vars, terms)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(o.terms)
        _accumulate(terms, self.terms, -1)
        return _trusted(self.vars, terms)

    def __mul__(self, other):
        if type(other) is MPoly and other.vars == self.vars:
            o = other
        elif isinstance(other, (int, Fraction)):
            return self.scale(other)
        else:
            o = self._lift(other)
            if o is None:
                return NotImplemented
        a, b = self.terms, o.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return _trusted(self.vars, {})
        add = _adder(len(self.vars))
        if len(a) == 1:
            # distinct keys shifted by one key stay distinct: nothing cancels
            (ea, ca), = a.items()
            return _trusted(self.vars, {add(ea, eb): _canon(ca * cb) for eb, cb in b.items()})
        da, na = dense.clear(a.values())
        db, nb = dense.clear(b.values())
        b_items = list(zip(b, nb))
        # A key is deleted when its sum cancels and re-inserted if it comes
        # back, so the terms keep the order of the plain pair loop; the
        # term-order tests pin it.
        acc: dict[Exponents, int] = {}
        for ea, ca in zip(a, na):
            for eb, cb in b_items:
                key = add(ea, eb)
                prev = acc.get(key)
                if prev is None:
                    acc[key] = ca * cb
                else:
                    s = prev + ca * cb
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
        den = da * db
        if den == 1:
            return _trusted(self.vars, acc)
        return _trusted(self.vars, {e: _div(v, den) for e, v in acc.items()})

    __rmul__ = __mul__

    def scale(self, c) -> "MPoly":
        c = _coefficient(c)
        if not c:
            return _trusted(self.vars, {})
        if type(c) is int:
            return _trusted(self.vars, {e: _canon(v * c) for e, v in self.terms.items()})
        # c = p/q: an int value times p over q needs a Fraction only when q
        # does not divide the product
        p, q = c.numerator, c.denominator
        return _trusted(self.vars, {e: _div(v * p, q) if type(v) is int else _canon(v * c)
                                    for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("polynomial powers must be nonnegative integers")
        result = MPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # ---- structure ----------------------------------------------------

    def as_univariate(self, var: str) -> list["MPoly"]:
        """Coefficients in `var`, ascending, zeros included, over the other variables.

        The zero polynomial gives the empty list; `from_univariate` is the inverse.
        """
        vi = self.vars.index(var)
        base = self.vars[:vi] + self.vars[vi + 1:]
        out: list[dict[Exponents, Coefficient]] = [{} for _ in range(self.degree(var) + 1)]
        for exps, c in self.terms.items():
            out[exps[vi]][exps[:vi] + exps[vi + 1:]] = c
        return [_trusted(base, terms) for terms in out]

    def subs(self, variables, images: dict) -> "MPoly":
        """Substitute variables by polynomials over a new variable tuple.

        Variables not in `images` are carried over by name and must exist in
        the target tuple.  Image values may be MPoly over `variables` or
        exact scalars.  A rename (an image that is one target variable, as
        is a carried-over one) moves exponents; see the module docstring.
        A constant or zero polynomial checks the images the same way and is
        then carried over as it is.
        """
        variables = tuple(map(str, variables))
        constant = self.is_constant()  # zero included
        moves: list[tuple[int, int]] = []  # (source, target) positions of a rename
        positions: list[int] = []  # source positions of the other variables
        powers: list[list[MPoly]] = []  # powers[j][e - 1] = (image j) ** e
        for i, name in enumerate(self.vars):
            if name not in images:
                if name not in variables:
                    raise DomainError(f"{name!r} is not among variables {variables}")
                moves.append((i, variables.index(name)))
                continue
            img = images[name]
            if not isinstance(img, MPoly):
                img = MPoly.constant(variables, img)
            elif img.vars != variables:
                raise DomainError(
                    f"image of {name!r} lives over {img.vars}, not {variables}")
            if constant:
                continue
            target = _bare_variable(img)
            if target is None:
                positions.append(i)
                powers.append([img])
            else:
                moves.append((i, target))
        if constant:
            return _trusted(variables, {(0,) * len(variables): c for c in self.terms.values()})
        add = _adder(len(variables))
        zero = (0,) * len(variables)
        unit = {zero: 1}
        # products[key] is built once per exponent vector `key` at `positions`,
        # multiplying in variable order; each term adds c times it, shifted
        # by the renames, in place, so the terms land where repeated `+` of
        # constant * powers would put them.
        products: dict[Exponents, dict[Exponents, Coefficient]] = {}
        result: dict[Exponents, Coefficient] = {}
        for exps, c in self.terms.items():
            key = tuple([exps[i] for i in positions])
            prod = products.get(key)
            if prod is None:
                term = None
                for cache, e in zip(powers, key):
                    if e:
                        while len(cache) < e:
                            cache.append(cache[-1] * cache[0])
                        term = cache[e - 1] if term is None else term * cache[e - 1]
                prod = products[key] = unit if term is None else term.terms
            shift = zero
            if moves:
                shift = [0] * len(variables)
                for i, t in moves:
                    shift[t] += exps[i]
            if prod is unit:  # c times the unit is c, already in stored form
                scaled = {tuple(shift): c}
            elif moves:
                scaled = {add(e, shift): _canon(v * c) for e, v in prod.items()}
            else:
                scaled = {e: _canon(v * c) for e, v in prod.items()}
            _accumulate(result, scaled)
        return _trusted(variables, result)

    def eval_exact(self, values: dict[str, Fraction]) -> Fraction:
        point = [as_fraction(values[v]) for v in self.vars]
        total = _ZERO
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(point, exps):
                if e:
                    term *= x ** e
            total += term
        return total

    def eval_numeric(self, values: dict[str, complex]) -> complex:
        """Value at a complex point, the same in any term order.

        Each part is a correctly rounded `fsum`, or nan past the float range.
        """
        point = [complex(values[v]) for v in self.vars]
        real, imag = [], []
        for exps, c in self.terms.items():
            term = complex(c)
            for x, e in zip(point, exps):
                if e:
                    term *= x ** e
            real.append(term.real)
            imag.append(term.imag)
        return complex(_fsum(real), _fsum(imag))

    # ---- calculus -----------------------------------------------------

    def derivative(self, var: str) -> "MPoly":
        vi = self.vars.index(var)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[vi]
            if e:
                terms[exps[:vi] + (e - 1,) + exps[vi + 1:]] = _canon(c * e)
        return _trusted(self.vars, terms)

    def antiderivative(self, var: str) -> "MPoly":
        vi = self.vars.index(var)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[vi]
            terms[exps[:vi] + (e + 1,) + exps[vi + 1:]] = _div(c, e + 1)
        return _trusted(self.vars, terms)

    # ---- normal forms --------------------------------------------------

    def primitive_int(self) -> "MPoly":
        """Divide out the rational content: integer coefficients with gcd 1."""
        den, nums = dense.clear(self.terms.values())
        g = _int_gcd(*nums)
        if den == 1 and g <= 1:  # already primitive, or zero (g = 0)
            return self
        return _trusted(self.vars, {e: n // g for e, n in zip(self.terms, nums)})

    def sign_normalized(self) -> "MPoly":
        """Flip sign so the graded-lex leading coefficient is positive."""
        if not self.terms:
            return self
        return -self if self.leading_coefficient() < 0 else self

    # ---- presentation ---------------------------------------------------

    def _format_monomial(self, exps: Exponents) -> str:
        parts = []
        for v, e in zip(self.vars, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.sorted_terms():
            mono = self._format_monomial(exps)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"MPoly({self})"


def _fsum(values: list[float]) -> float:
    try:
        return fsum(values)
    except (OverflowError, ValueError):  # a finite sum past the float range, or inf - inf
        return nan


# ---- division ----------------------------------------------------------


def try_div(f: MPoly, g: MPoly) -> MPoly | None:
    """Exact quotient f/g, or None when g does not divide f."""
    f._check_same_ring(g)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    if f.is_zero():
        return f
    if g.is_constant():
        c = g.constant_value()
        return f if c == 1 else f.scale(1 / c)
    gterms = g.terms
    ge = max(gterms, key=grlex_key)
    gc = gterms[ge]
    add = _adder(len(ge))
    rem = dict(f.terms)
    quot: dict[Exponents, Coefficient] = {}
    while rem:
        exps = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(exps, ge))
        if any(d < 0 for d in diff):
            return None
        c = _div(rem[exps], gc)
        quot[diff] = c
        for e2, c2 in gterms.items():
            key = add(diff, e2)
            s = rem.get(key, 0) - c * c2
            if s:
                rem[key] = _canon(s)
            elif key in rem:
                del rem[key]
    return _trusted(f.vars, quot)


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    q = try_div(f, g)
    if q is None:
        raise DomainError(f"({f}) is not divisible by ({g})")
    return q


# ---- pseudo-division in one variable --------------------------------------


def mod_monic(num: list[MPoly], power: MPoly,
              den: list[MPoly]) -> tuple[list[MPoly], MPoly]:
    """Reduce num / power modulo the monic den / lead, lead = den[-1].

    Returns (rem, power') with rem / power' the remainder, rem padded to
    length d = len(den) - 1.  Each step is the pseudo-reduction
    R <- lead * R - R_k * y^(k-d) * den, which scales power by lead; with
    lead = 1 that factor is skipped, and so is the product by a zero den[j].
    """
    d = len(den) - 1
    lead = den[d]
    scaled = not lead.is_one()
    r = list(num)
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if c.is_zero():
            continue
        if scaled:
            r[:k] = [x * lead for x in r[:k]]
            power = power * lead
        for j in range(d):
            if den[j].terms:
                r[k - d + j] = r[k - d + j] - c * den[j]
    r = r[:d]
    if len(r) < d:
        r = r + [MPoly.zero(lead.vars)] * (d - len(r))
    return r, power


def pseudo_rem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """lead^(d+1) * a modulo b in var: the classical pseudo-remainder.

    lead is the leading coefficient of b in var and d = deg a - deg b >= 0.
    `mod_monic` scales by lead only at a nonzero step, so its remainder is
    lead^e * a mod b for some e <= d + 1; it is multiplied here by the
    lead^(d+1-e) it saved, since the subresultant PRS of `poly_gcd` divides
    exactly this remainder.  With b monic in var the result is the
    remainder itself.
    """
    den, num = b.as_univariate(var), a.as_univariate(var)
    rem, power = mod_monic(num, MPoly.constant(den[0].vars, 1), den)
    unit = exact_div(den[-1] ** (len(num) - len(den) + 1), power)
    return MPoly.from_univariate(a.vars, var, [c * unit for c in rem])


# ---- gcd ----------------------------------------------------------------


def _support(p: MPoly) -> set[int]:
    """Positions of the variables that occur in p."""
    return {i for exps in p.terms for i, e in enumerate(exps) if e}


def _gcd_all(polys: list[MPoly]) -> MPoly:
    """gcd of nonzero polynomials, up to a rational factor.

    Takes them fewest terms first through `poly_gcd` and stops at a constant.
    """
    polys = sorted(polys, key=lambda p: len(p.terms))
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return g


def _content_in(f: MPoly, vi: int) -> MPoly:
    """gcd of f's coefficients in variable vi, by `_gcd_all`: integer-primitive, or 1 when constant."""
    var = f.vars[vi]
    g = _gcd_all([c for c in f.as_univariate(var) if c.terms])
    if g.is_constant():
        return MPoly.constant(f.vars, 1)
    return MPoly.from_univariate(f.vars, var, [g.primitive_int()])


def _gcd_dense(f: MPoly, g: MPoly, vi: int) -> MPoly:
    """gcd of f and g in variable vi alone, by the dense integer PRS of `dense.gcd`."""
    coeffs = dense.gcd(dense.from_terms(f.terms, vi)[1], dense.from_terms(g.terms, vi)[1])
    zero = (0,) * len(f.vars)
    return _trusted(f.vars, {zero[:vi] + (k,) + zero[vi + 1:]: c
                             for k, c in enumerate(coeffs) if c})


# the coprimality certificate evaluates at dense.point(_CERTIFICATE_SEED, n)
_CERTIFICATE_SEED = 101


def _constant_lead(p: MPoly, vi: int) -> bool:
    """Whether p's leading coefficient in variable vi is a constant."""
    d = max(e[vi] for e in p.terms)
    top = [e for e in p.terms if e[vi] == d]
    return len(top) == 1 and sum(top[0]) == d


def _image_coprime(f: MPoly, g: MPoly, vi: int) -> bool:
    """Whether the images of f and g in variable vi keep their degrees and are coprime mod P."""
    x0 = dense.point(_CERTIFICATE_SEED, len(f.vars))
    a, b = dense.at(f.terms, x0, vi)[1], dense.at(g.terms, x0, vi)[1]
    return bool(a[-1] and b[-1]) and len(dense.gcd_mod(a, b)) == 1


def _coprime(f: MPoly, g: MPoly) -> bool:
    """True when modular images prove gcd(f, g) = 1; False proves nothing.

    f and g are nonzero and not constant.  A non-constant common factor h
    involves a variable v that both contain.  Take every other variable to
    its coordinate of a fixed integer point, modulo P: when neither
    leading coefficient in v vanishes there, neither image loses v-degree,
    so the image of h keeps its v-degree and divides both images.  Images
    with a gcd of degree 0 in v therefore rule out any h in v.  Every
    factor of a polynomial whose leading coefficient in v is a constant
    involves v, so then that one image decides, and the other polynomial
    lacking v decides with none; otherwise every shared v must pass.
    """
    support, other = _support(f), _support(g)
    for p, mine, rest in ((f, support, other), (g, other, support)):
        for vi in sorted(mine, reverse=True):
            if _constant_lead(p, vi):
                return vi not in rest or _image_coprime(f, g, vi)
    return all(_image_coprime(f, g, vi) for vi in support & other)


def _shift_down(p: MPoly, low: list[int]) -> MPoly:
    """p divided by the monomial of exponents low, which divides it."""
    if not any(low):
        return p
    return _trusted(p.vars, {tuple([a - b for a, b in zip(e, low)]): c
                             for e, c in p.terms.items()})


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Full multivariate gcd, normalized integer-primitive with positive lead.

    gcd with the zero polynomial returns the other argument normalized;
    gcd(0, 0) is undefined and raises.  Every call, the inner ones of
    `_gcd_all` and `_content_in` included, takes these routes in order:

    - one variable: f and g in the same single variable take the dense
      integer PRS of `dense.gcd`, which is faster there than the images;
    - monomial content: with lf and lg the least exponents of f and g, the
      gcd is x^min(lf, lg) times the gcd of the cofactors f / x^lf and
      g / x^lg, so a one-term argument needs nothing more;
    - certificate (`_coprime`): cofactors that share no variable are
      coprime, and images modulo P = 2^61 - 1 in each shared variable, or
      in one where a leading coefficient is constant, that keep their
      degree and have a gcd of degree 0 prove them coprime, because a
      common factor would keep its degree in the images and divide both;
    - shared variables: a common divisor involves only the variables that
      both cofactors contain, so when their supports differ it is the gcd
      of every coefficient of both taken as polynomials in the others;
    - otherwise the subresultant PRS (Collins 1967; Brown and Traub 1971)
      runs on the primitive parts of the cofactors in their last variable,
      times the gcd of their contents in it.  Each pseudo-remainder is
      divided by a factor known in advance, so only the last one has its
      content taken: a content per step, as the primitive PRS takes, can
      cost seconds on products of 6-term factors in three variables.

    The certificate never proves a false 1, and a cofactor gcd other than
    1 always comes from the last two routes.
    """
    f._check_same_ring(g)
    if f.is_zero() or g.is_zero():
        if f.is_zero() and g.is_zero():
            raise DomainError("gcd(0, 0) is undefined")
        return (f + g).primitive_int().sign_normalized()
    if f.is_constant() or g.is_constant():
        return MPoly.constant(f.vars, 1)
    support = _support(f)
    if len(support) == 1 and support == _support(g):
        # one variable: the dense integer PRS beats the images on these
        return _gcd_dense(f, g, *support).primitive_int().sign_normalized()
    lf, lg = [min(e) for e in zip(*f.terms)], [min(e) for e in zip(*g.terms)]
    m = _trusted(f.vars, {tuple(map(min, lf, lg)): 1})
    a, b = _shift_down(f, lf), _shift_down(g, lg)
    if a.is_constant() or b.is_constant() or _coprime(a, b):
        return m
    support, other = _support(a), _support(b)
    if support != other:
        # a common divisor lies in the shared variables: take every
        # coefficient of a and of b as polynomials in the others
        shared = support & other
        pieces: dict[Exponents, dict[Exponents, Coefficient]] = {}
        for k, p in enumerate((a, b)):
            for exps, c in p.terms.items():
                outer = (k,) + tuple([e for i, e in enumerate(exps) if i not in shared])
                inner = tuple([e if i in shared else 0 for i, e in enumerate(exps)])
                pieces.setdefault(outer, {})[inner] = c
        h = _gcd_all([_trusted(f.vars, t) for t in pieces.values()])
    else:
        # equal supports: the subresultant PRS in the last shared variable
        vi = max(support)
        var = f.vars[vi]
        cf, cg = _content_in(a, vi), _content_in(b, vi)
        h = _gcd_all([cf, cg])
        a, b = exact_div(a, cf).primitive_int(), exact_div(b, cg).primitive_int()
        if a.degree(var) < b.degree(var):
            a, b = b, a
        s = t = MPoly.constant(f.vars, 1)
        while (r := pseudo_rem(a, b, var)).degree(var) > 0:
            # r is divisible by s t^d, and the quotient is the next
            # subresultant, up to sign
            d = a.degree(var) - b.degree(var)
            lead = MPoly.from_univariate(f.vars, var, [b.as_univariate(var)[-1]])
            a, b = b, exact_div(r, s * t ** d)
            s, t = lead, exact_div(lead ** d, t ** (d - 1)) if d else t
        if r.is_zero():
            h = h * exact_div(b, _content_in(b, vi))
    return (m * h).primitive_int().sign_normalized()


def poly_gcd_fiber(f: MPoly, g: MPoly) -> MPoly:
    """gcd as univariate polynomials in the fiber variable over Q(base).

    The fiber is the last variable.  Pure base-variable content is treated
    as a unit and stripped.  The result is monic in the fiber when its
    leading fiber coefficient is a rational constant, otherwise it is the
    primitive integer-coefficient representative with positive leading
    sign.  Returns 1 exactly when the arguments are coprime in the fiber.
    """
    f._check_same_ring(g)
    if f.is_zero() and g.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    g0 = poly_gcd(f, g)
    var = f.vars[-1]
    if g0.degree(var) <= 0:
        return MPoly.constant(f.vars, 1)
    # strip content that does not involve the fiber variable
    g0 = exact_div(g0, _content_in(g0, len(f.vars) - 1))
    lead = g0.as_univariate(var)[-1]
    if lead.is_constant():
        return g0.scale(1 / lead.constant_value())
    return g0.primitive_int().sign_normalized()


def poly_lcm(f: MPoly, g: MPoly) -> MPoly:
    if f.is_zero() or g.is_zero():
        return MPoly.zero(f.vars)
    return (f * exact_div(g, poly_gcd(f, g))).primitive_int().sign_normalized()
