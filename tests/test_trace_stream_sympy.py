"""The fraction-free trace stream against sympy as an independent oracle.

u_k is the coefficient of y^(d-1) in rem(num * y^k, den, y) over the
fraction field of the base ring, divided by the leading fiber coefficient
of den.  sympy computes that remainder by its own code over QQ(a, b); the
cases here all have a leading coefficient other than 1, so the stream runs
its scaled path.
"""

from fractions import Fraction
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from residualtrace.algebra import MPoly  # noqa: E402
from residualtrace.residues import trace_stream  # noqa: E402
from residualtrace.sampling import random_current  # noqa: E402
from sympy_expr import to_sympy  # noqa: E402

CHART = ("a", "b", "y")
SYMS = dict(zip(CHART, sympy.symbols(CHART)))


def sympy_traces(num: MPoly, den: MPoly, count: int) -> list:
    a, b, y = SYMS["a"], SYMS["b"], SYMS["y"]
    d = den.degree("y")
    field = sympy.QQ.frac_field(a, b)
    p = sympy.Poly(to_sympy(den), y, domain=field)
    lead = p.LC()
    out = []
    for k in range(count):
        f = sympy.Poly(to_sympy(num) * y ** k, y, domain=field)
        top = f.rem(p).coeff_monomial(y ** (d - 1))
        out.append(field.to_sympy(top / lead))
    return out


def assert_stream_matches(num: MPoly, den: MPoly, count: int):
    ours = trace_stream(num, den, count)
    theirs = sympy_traces(num, den, count)
    for k, (u, want) in enumerate(zip(ours, theirs)):
        got = to_sympy(u.num) / to_sympy(u.den)
        assert sympy.cancel(got - want) == 0, f"u_{k}: {u} vs {want}"


def lifted_chart(seed: int):
    """A seeded n=1 current whose fiber lead after x = a y + b involves a."""
    rng = Random(seed)
    while True:
        c = random_current(rng, n=1, max_degree=2, coeff_degree=1, max_abs=3)
        if any(e[0] > 0 and sum(e) >= c.degree for e in c.p.terms):
            break
    y = MPoly.variable(CHART, "y")
    images = {"x": MPoly.variable(CHART, "a") * y + MPoly.variable(CHART, "b")}
    return c.r.subs(CHART, images), c.p.subs(CHART, images)


@pytest.mark.parametrize("seed", range(6))
def test_lifted_chart_stream_matches_sympy(seed):
    num, den = lifted_chart(seed)
    lead = den.as_univariate("y")[-1]
    assert lead.degree("a") > 0
    assert_stream_matches(num, den, 2 * den.degree("y") + 3)


@pytest.mark.parametrize("seed", range(4))
def test_constant_lead_stream_matches_sympy(seed):
    rng = Random(100 + seed)
    d = rng.randint(1, 3)
    lead = Fraction(rng.choice([-5, -2, 2, 3]), rng.choice([1, 2, 7]))

    def coeff():
        return MPoly(CHART[:-1], {(i, j): Fraction(rng.randint(-3, 3))
                                  for i in range(2) for j in range(2)})

    pieces = {d: MPoly.constant(CHART[:-1], lead)}
    pieces.update({i: coeff() for i in range(d)})
    den = MPoly.from_univariate(CHART, "y", pieces)
    # a numerator of fiber degree above d exercises the first reduction
    num = MPoly.from_univariate(CHART, "y", {i: coeff() for i in range(d + 2)})
    assert den.as_univariate("y")[-1].constant_value() == lead
    assert_stream_matches(num, den, 2 * d + 2)
