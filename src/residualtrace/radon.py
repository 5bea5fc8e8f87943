"""Trace data of a current in line coordinates, and the induced forms.

Substituting x_i = a_i y + b_i turns the pair (p, r) into a one-variable
rational form in y whose coefficients are rational in the chart variables
(a_1 .. a_n, b_1 .. b_n).  Its residue sums

    u_k(a, b) = residue sum over y of r(ay + b, y) y^k / p(ay + b, y)

carry the whole transform: the degree-n form is assembled per subset I of
{1..n} as u_|I| da^I wedge db^(complement), and the family satisfies the
exact closedness identities

    d/db_i u_{k+n} = d/da_i u_{k+n-1}

because both sides are the same substituted derivative of r/p.  All of this
is exact rational arithmetic; denominators only ever involve the a
variables (powers of the leading fiber coefficient after substitution).

`closedness_check` compares both sides as unreduced quotients, by
cross-multiplication, and on integers wherever it can.  A chart trace with
a denominator, R_k / c^{e_k} in canonical form, has a denominator with
leading coefficient 1, so both its parts carry Fractions; the check scales
them by one common integer first, once per trace, and the quotient rule and
the products that follow build no Fraction.  A polynomial trace, or any
whose denominator is one term, enters as it is.

One subtlety: when p has total degree above its fiber degree, substituting
x_i = a_i y + b_i raises the y-degree, and the chart traces sum over more
poles than the fiber traces do.  Specializing every a_i to 0 then need not
reproduce the plain traces; it does as soon as total degree and fiber
degree agree (products of affine roots, for instance).

Chart traces are memoised: `_chart_traces` keeps the traces of the last 8
(current, k_max) keys, equal currents sharing a key, in a
`functools.lru_cache`, as `traces` memoises fiber traces, with the same
bound and typed keys.  It holds each trace unreduced, as the stream's pair
(R_k, c^{e_k}) (see `residues.trace_pairs`), and `radon` normalises the
pairs into a fresh list of `RatFunc`s on every call: mutating a returned
list cannot change a later result.  `pencil_projection` reads the pairs
themselves and checks them against its own stream's pairs by
cross-multiplication, with no gcd; since every u_k that `radon` returns is
exactly R_k / c^{e_k}, that check covers the returned values.  A caller
that transforms a current and then projects it to a pencil therefore pays
for the chart traces once.  The bound is far below the size of any batch
of currents, so nothing else is reused.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Sequence

from .algebra import MPoly, RatFunc, as_fraction, dense
from .algebra.poly import _trusted
from .algebra.ratfunc import derivative_pair
from .currents import ResidualCurrent, ZeroCurrent
from .errors import DomainError
from .record import Record, _set
from .residues import trace_pairs
from .traces import _MEMO_SIZE, TraceSequence, _check_count

# The fiber variable of the chart, whatever the current's: no chart name is "y".
_FIBER = "y"

__all__ = [
    "LineChart",
    "RadonForm",
    "line_chart",
    "radon",
    "assemble_radon_form",
    "closedness_check",
    "pencil_projection",
    "is_radon_zero",
    "closed_potential",
]


class LineChart(Record):
    """Names for the line coordinates of an n-dimensional base."""

    __slots__ = ("n", "a_names", "b_names")

    def __init__(self, n: int, a_names: tuple[str, ...], b_names: tuple[str, ...]):
        _set(self, "n", n)
        _set(self, "a_names", a_names)
        _set(self, "b_names", b_names)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.a_names + self.b_names


def line_chart(n: int) -> LineChart:
    if n < 1:
        raise DomainError("need at least one base variable")
    if n == 1:
        return LineChart(1, ("a",), ("b",))
    return LineChart(
        n,
        tuple(f"a{i}" for i in range(1, n + 1)),
        tuple(f"b{i}" for i in range(1, n + 1)),
    )


class RadonForm(Record):
    """Components of the transform, keyed by subset of line-slope indices.

    components[I] is the coefficient of da^I wedge db^(complement of I),
    with I a frozenset of indices in 1..n; its value is u_|I| in the chart
    variables.  A RadonForm holds a dict, so it is unhashable.
    """

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: dict[frozenset[int], RatFunc]):
        _set(self, "n", n)
        _set(self, "components", components)

    __hash__ = None


def _line_traces(current: ResidualCurrent, offsets: Sequence[MPoly],
                 count: int) -> list[tuple[MPoly, MPoly]]:
    """Traces u_0 .. u_{count-1} of a current along the lines x_i = a_i y + offsets[i].

    Each trace is the unreduced pair (R_k, c^{e_k}) of `trace_pairs`.

    The offsets share one variable tuple, which holds the slopes a_i of
    `line_chart(n)` and ends with `_FIBER`, the image of the current's fiber
    variable; the traces live over that tuple without `_FIBER`.  The
    substituted p keeps a positive fiber degree: its top fiber coefficient is
    p's top-degree form at (a, 1), which is nonzero.
    """
    variables = offsets[0].vars
    y = MPoly.variable(variables, _FIBER)
    slopes = line_chart(current.n).a_names
    images = {x: MPoly.variable(variables, a) * y + b
              for x, a, b in zip(current.base_vars, slopes, offsets)}
    images[current.fiber] = y
    return trace_pairs(current.r.subs(variables, images),
                       current.p.subs(variables, images), count)


def radon(current: ResidualCurrent, k_max: int) -> list[RatFunc]:
    """Chart traces u_0 .. u_{k_max} of a current in line coordinates.

    Each call normalises the pairs of the chart-trace memo (see the module
    docstring) into a fresh list, so a caller may mutate it without changing
    what a later call returns.
    """
    _check_count(k_max, "k_max", 0)
    return [RatFunc(r, c) for r, c in _chart_traces(current, k_max)]


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _chart_traces(current: ResidualCurrent, k_max: int) -> tuple[tuple[MPoly, MPoly], ...]:
    chart = line_chart(current.n)
    variables = chart.vars + (_FIBER,)
    offsets = [MPoly.variable(variables, b) for b in chart.b_names]
    return tuple(_line_traces(current, offsets, k_max + 1))


def _chart_shape(u: Sequence[RatFunc]) -> tuple[int, tuple[str, ...]]:
    if not u:
        raise DomainError("need at least one chart trace")
    variables = u[0].vars
    if any(e.vars != variables for e in u):
        raise DomainError("chart traces live over different variable lists")
    if len(variables) % 2 != 0 or not variables:
        raise DomainError(
            f"chart traces need paired slope/offset variables, got {variables}")
    return len(variables) // 2, variables


def assemble_radon_form(u: Sequence[RatFunc]) -> RadonForm:
    """Arrange chart traces into the full transform.

    The component on da^I wedge db^(complement) is u_|I|, so the list needs
    n + 1 entries at least; extras are ignored.
    """
    n, _ = _chart_shape(u)
    if len(u) < n + 1:
        raise DomainError(f"need chart traces u_0 .. u_{n}, have {len(u)}")
    components = {}
    for size in range(n + 1):
        for subset in combinations(range(1, n + 1), size):
            components[frozenset(subset)] = u[size]
    return RadonForm(n=n, components=components)


def _cross_equal(n1: MPoly, d1: MPoly, n2: MPoly, d2: MPoly) -> bool:
    """Whether n1 / d1 == n2 / d2, by cross-multiplication (no gcd)."""
    if d1 == d2:
        return n1 == n2
    return n1 * d2 == n2 * d1


def _integer_pair(f: RatFunc) -> tuple[MPoly, MPoly]:
    """(m num, m den) of f, m the lcm of every coefficient denominator of both.

    One m for both parts keeps the quotient f; the canonical denominator has
    leading coefficient 1, so the parts of a chart trace carry Fractions that
    m clears, and what is built from the pair stays on ints.
    """
    num, den = f.num.terms, f.den.terms
    m, values = dense.clear(chain(num.values(), den.values()))
    if m == 1:
        return f.num, f.den
    split = len(num)
    return (_trusted(f.vars, dict(zip(num, values[:split]))),
            _trusted(f.vars, dict(zip(den, values[split:]))))


def closedness_check(u: Sequence[RatFunc], k_range: Iterable[int]) -> list[tuple[int, int]]:
    """Violations (i, k) of d/db_i u_{k+n} = d/da_i u_{k+n-1}; empty when closed.

    Both sides are compared as unreduced quotients, by cross-multiplication.
    A trace with a denominator enters as its `_integer_pair`, which has the
    same quotient, built once per call though the trace serves two windows.
    One whose denominator is one term (1 or a monomial, which normalisation
    never scales) enters as it is.
    """
    n, variables = _chart_shape(u)
    a_names, b_names = variables[:n], variables[n:]
    pairs = [(f.num, f.den) if len(f.den.terms) == 1 else _integer_pair(f) for f in u]
    bad = []
    for k in k_range:
        if k < 0 or k + n >= len(u):
            raise DomainError(
                f"k = {k} needs chart traces up to u_{k + n}, have {len(u)}")
        for i in range(n):
            lhs = derivative_pair(*pairs[k + n], b_names[i])
            rhs = derivative_pair(*pairs[k + n - 1], a_names[i])
            if not _cross_equal(*lhs, *rhs):
                bad.append((i + 1, k))
    return bad


def pencil_projection(current: ResidualCurrent, apex: Sequence, count: int | None = None) -> TraceSequence:
    """Traces along the pencil of lines through a fixed point.

    `apex` is (x_1 .. x_n, y); lines through it satisfy b_i = x_i - a_i y,
    which pins the offsets and leaves the slopes free.  The result is
    computed directly from the pinned substitution and cross-checked against
    specializing the chart traces of `radon(current, count - 1)`; the apex
    must avoid the support of the current.  Both routes stay unreduced
    pairs (R_k, c^{e_k}), compared by cross-multiplication, and only the
    direct traces returned are normalised.  The chart pairs come from the
    memo that `radon` normalises, so after a `radon(current, count - 1)`
    call on an equal current they cost nothing here, and the check covers
    exactly the traces `radon` returns.
    """
    apex = [as_fraction(v) for v in apex]
    n = current.n
    if len(apex) != n + 1:
        raise DomainError(f"apex needs {n + 1} coordinates, got {len(apex)}")
    if current.p.eval_exact(dict(zip(current.p.vars, apex))) == 0:
        raise DomainError("apex lies on the support of the current")
    d = current.degree
    if count is None:
        count = 2 * d + 2
    _check_count(count, "count", 1)
    chart = line_chart(n)
    slopes = chart.a_names
    offsets = [MPoly.constant(slopes, x) - MPoly.variable(slopes, a).scale(apex[n])
               for x, a in zip(apex, slopes)]

    # direct route: substitute x_i = a_i y + (x_i0 - a_i y0) and reduce
    pencil_vars = slopes + (_FIBER,)
    direct = _line_traces(current, [MPoly.from_univariate(pencil_vars, _FIBER, [b])
                                    for b in offsets], count)

    # chart route: specialize b_i = x_i0 - a_i y0 in the chart pairs
    images = dict(zip(chart.b_names, offsets))

    def specialize(f: MPoly) -> MPoly:
        # a polynomial in the slopes alone, as every power c^e is, only drops
        # its offset exponents: `subs` would check the images again, and they
        # are built just above
        if not any(any(e[n:]) for e in f.terms):
            return _trusted(slopes, {e[:n]: v for e, v in f.terms.items()})
        return f.subs(slopes, images)

    specialized = [(specialize(r), specialize(c)) for r, c in _chart_traces(current, count - 1)]
    if any(den.is_zero() for _, den in specialized):
        raise DomainError("substitution lands on the polar set")
    if not all(_cross_equal(*s, *g) for s, g in zip(specialized, direct)):
        raise DomainError("pencil traces disagree with specialized chart traces")
    return TraceSequence(entries=tuple(RatFunc(r, c) for r, c in direct))


def is_radon_zero(current: ResidualCurrent | ZeroCurrent, k_probe: int) -> bool:
    """Whether every chart trace u_0 .. u_{k_probe + n} vanishes identically."""
    _check_count(k_probe, "k_probe", 0)
    if isinstance(current, ZeroCurrent):
        return True
    return all(r.is_zero() for r, _ in _chart_traces(current, k_probe + current.n))


def closed_potential(u0: RatFunc, u1: RatFunc) -> MPoly:
    """Polynomial potential F with dF = u1 da + u0 db, for one-variable charts.

    Both inputs must be polynomial over ("a", "b").  Raises DomainError when
    the form is not closed, which is the exactness obstruction here.
    """
    if u0.vars != u1.vars or len(u0.vars) != 2:
        raise DomainError("potential assembly expects two chart variables")
    if not (u0.is_polynomial() and u1.is_polynomial()):
        raise DomainError("potential assembly needs polynomial components")
    a_name, b_name = u0.vars
    f = u1.as_poly().antiderivative(a_name)
    gap = u0.as_poly() - f.derivative(b_name)
    if gap.degree(a_name) > 0:
        raise DomainError("the form u1 da + u0 db is not closed")
    f = f + gap.antiderivative(b_name)
    if f.derivative(a_name) != u1.as_poly() or f.derivative(b_name) != u0.as_poly():
        raise DomainError("the form u1 da + u0 db is not closed")
    return f
