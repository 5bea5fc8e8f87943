"""Property tests with hypothesis over seeded random instances."""

from fractions import Fraction
from random import Random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.algebra import MPoly, RatFunc, poly_gcd, try_div  # noqa: E402
from residualtrace.currents import ZeroCurrent, validate  # noqa: E402
from residualtrace.jsonio import (  # noqa: E402
    canonical_dumps,
    current_from_obj,
    current_to_obj,
    loads,
    poly_from_obj,
    poly_to_obj,
    ratfunc_from_obj,
    ratfunc_to_obj,
    traces_from_obj,
    traces_to_obj,
)
from residualtrace.reconstruct import (  # noqa: E402
    SeriesSample,
    detect_rational,
    reconstruct,
    sample_series,
)
from residualtrace.sampling import random_current  # noqa: E402
from residualtrace.traces import traces  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]))
def test_reconstruct_inverts_traces(seed, n):
    c = random_current(Random(seed), n=n, max_degree=3 if n == 1 else 2,
                       coeff_degree=2 if n == 1 else 1)
    assert reconstruct(traces(c, 2 * c.degree + 2), c.degree).current == c


V = ("a", "b")
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4).map(Fraction), max_size=4).map(lambda t: MPoly(V, t))
nonzero = polys.filter(lambda p: not p.is_zero())


@settings(max_examples=150, deadline=None)
@given(n1=polys, d1=nonzero, n2=polys, d2=nonzero, k=nonzero, same=st.booleans())
def test_ratfunc_equality_is_cross_multiplication(n1, d1, n2, d2, k, same):
    # `same` rescales one quotient into the other, so both outcomes occur
    if same:
        n2, d2 = n1 * k, d1 * k
    assert (RatFunc(n1, d1) == RatFunc(n2, d2)) == (n1 * d2 == n2 * d1)


# integers, and non-integral Fractions so that denominator clearing is exercised
coeffs = st.one_of(st.integers(-4, 4).map(Fraction),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(2, 6)))


def univariate(values):
    return MPoly(("x",), {(k,): c for k, c in enumerate(values) if c})


@st.composite
def sampled(draw, m, n, extra):
    """(f, sample): any f with deg num <= m and deg den <= n, sampled off its poles."""
    num = draw(st.lists(coeffs, max_size=m + 1))
    den = draw(st.lists(coeffs, min_size=1, max_size=n + 1).filter(any))
    f = RatFunc(univariate(num), univariate(den))
    x0 = draw(st.fractions(-3, 3, max_denominator=3))
    hypothesis.assume(f.den.eval_exact({"x": x0}) != 0)
    return f, sample_series(f, x0, m + n + 2 + extra)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 3), n=st.integers(0, 3), extra=st.integers(0, 2), data=st.data())
def test_detect_rational_inverts_sample_series(m, n, extra, data):
    f, sample = data.draw(sampled(m, n, extra))
    assert detect_rational(sample, m, n) == f


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 3), n=st.integers(0, 3), extra=st.integers(0, 2), data=st.data())
def test_detect_rational_certificate_reads_every_coefficient(m, n, extra, data):
    # entries m + n + 1 .. L - 1 fix neither the Pade candidate nor its
    # numerator; only the certificate q c == p (mod t^L) reads them
    _, sample = data.draw(sampled(m, n, extra))
    i = data.draw(st.integers(m + n + 1, len(sample) - 1))
    c = list(sample.coefficients)
    c[i] += data.draw(coeffs.filter(bool))
    assert detect_rational(SeriesSample(sample.base_point, tuple(c)), m, n) is None


# Integral and fractional values in one poly: ints, and Fractions that may
# reduce to an integer.
mixed = st.one_of(st.integers(-5, 5),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


def polys_over(variables, max_exp, **size):
    keys = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    return st.dictionaries(keys, mixed, **size).map(lambda t: MPoly(variables, t))


B = ("x", "y")  # one base variable, then the fiber variable


@st.composite
def currents(draw):
    d = draw(st.integers(1, 2))
    lower = st.tuples(st.integers(0, 2), st.integers(0, d - 1))
    p = MPoly(B, draw(st.dictionaries(lower, mixed, max_size=3))) + MPoly.variable(B, "y") ** d
    r = MPoly(B, draw(st.dictionaries(lower, mixed, min_size=1, max_size=3)))
    hypothesis.assume(not r.is_zero())
    return validate(p, r)


documents = st.one_of(
    polys_over(B, 3, max_size=5).map(lambda p: (poly_to_obj, poly_from_obj, p)),
    st.builds(RatFunc, polys_over(B, 2, max_size=3),
              polys_over(B, 2, min_size=1, max_size=3).filter(lambda p: not p.is_zero()))
    .map(lambda f: (ratfunc_to_obj, ratfunc_from_obj, f)),
    currents().map(lambda c: (current_to_obj, current_from_obj, c)),
    st.builds(ZeroCurrent, st.integers(1, 3)).map(lambda c: (current_to_obj, current_from_obj, c)),
    currents().map(lambda c: (traces_to_obj, traces_from_obj, traces(c, 2 * c.degree + 1))),
)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_jsonio_round_trips_bytes(document):
    to_obj, from_obj, value = document
    s = canonical_dumps(to_obj(value))
    assert canonical_dumps(to_obj(from_obj(loads(s)))) == s


@settings(max_examples=150, deadline=None)
@given(f=polys_over(V, 2, max_size=3), g=polys_over(V, 2, max_size=3),
       h=polys_over(V, 2, min_size=1, max_size=3), shared=st.booleans())
def test_gcd_divides_both_inputs(f, g, h, shared):
    # `shared` builds both inputs over a common factor h, which then divides the gcd
    if shared:
        f, g = f * h, g * h
    hypothesis.assume(not (f.is_zero() and g.is_zero()))
    d = poly_gcd(f, g)
    assert try_div(f, d) is not None
    assert try_div(g, d) is not None
    if shared and not h.is_zero():
        assert try_div(d, h) is not None
