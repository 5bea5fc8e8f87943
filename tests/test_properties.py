"""Property tests with hypothesis over seeded random instances."""

from random import Random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.reconstruct import reconstruct  # noqa: E402
from residualtrace.sampling import random_current  # noqa: E402
from residualtrace.traces import traces  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]))
def test_reconstruct_inverts_traces(seed, n):
    c = random_current(Random(seed), n=n, max_degree=3 if n == 1 else 2,
                       coeff_degree=2 if n == 1 else 1)
    assert reconstruct(traces(c, 2 * c.degree + 2), c.degree).current == c
