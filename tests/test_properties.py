"""Property tests with hypothesis over seeded random instances."""

from fractions import Fraction
from random import Random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.algebra import MPoly, RatFunc  # noqa: E402
from residualtrace.reconstruct import (  # noqa: E402
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


coeffs = st.integers(-4, 4).map(Fraction)


def univariate(values):
    return MPoly(("x",), {(k,): c for k, c in enumerate(values) if c})


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 3), n=st.integers(0, 3), extra=st.integers(0, 2), data=st.data())
def test_detect_rational_inverts_sample_series(m, n, extra, data):
    # any f with deg num <= m and deg den <= n, sampled off its poles
    num = data.draw(st.lists(coeffs, max_size=m + 1))
    den = data.draw(st.lists(coeffs, min_size=1, max_size=n + 1).filter(any))
    f = RatFunc(univariate(num), univariate(den))
    x0 = data.draw(st.fractions(-3, 3, max_denominator=3))
    hypothesis.assume(f.den.eval_exact({"x": x0}) != 0)
    sample = sample_series(f, x0, m + n + 2 + extra)
    assert detect_rational(sample, m, n) == f
