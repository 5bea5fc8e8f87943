"""Property tests with hypothesis over seeded random instances."""

from fractions import Fraction
from random import Random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.algebra import MPoly, RatFunc  # noqa: E402
from residualtrace.reconstruct import reconstruct  # noqa: E402
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
