"""detect_rational against a linear solve over Q in sympy.

A rational function p / q with deg p <= m, deg q <= nn and q(0) = 1 has
the Taylor coefficients c_0 .. c_{L-1} at t = 0 exactly when

    sum_j q_j c_{k-j} = p_k  for k < L,  with p_k = 0 for k > m.

That is a linear system in q_1 .. q_nn and p_0 .. p_m.  detect_rational
must return None exactly when it has no solution, and otherwise
p(x - x0) / q(x - x0) for any solution (all solutions give the same
function once L >= m + nn + 2).  The draws sample random rational
functions, perturb a third of the series, and include candidates whose
Pade denominator vanishes at the base point; sympy's own nullspace of the
Pade rows counts those.
"""

from fractions import Fraction
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from residualtrace.algebra import MPoly, RatFunc  # noqa: E402
from residualtrace.reconstruct import SeriesSample, detect_rational, sample_series  # noqa: E402
from sympy_expr import to_sympy  # noqa: E402

X = sympy.Symbol("x")


def rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))


def oracle(sample: SeriesSample, m: int, nn: int):
    """p(x - x0) / q(x - x0) from the linear system, or None when it has no solution."""
    c = [sympy.Rational(v.numerator, v.denominator) for v in sample.coefficients]
    qs = sympy.symbols(f"q1:{nn + 1}")
    ps = sympy.symbols(f"p0:{m + 1}")
    q = (sympy.Integer(1),) + qs
    eqs = [sum(q[j] * c[k - j] for j in range(min(k, nn) + 1)) - (ps[k] if k <= m else 0)
           for k in range(len(c))]
    solutions = sympy.linsolve(eqs, list(qs + ps))
    if not solutions:
        return None
    (solution,) = solutions
    free = {s: 0 for s in qs + ps}
    values = [sympy.sympify(v).subs(free) for v in solution]
    qv, pv = (sympy.Integer(1),) + tuple(values[:nn]), values[nn:]
    x0 = sympy.Rational(sample.base_point.numerator, sample.base_point.denominator)
    t = X - x0
    return (sum(v * t ** k for k, v in enumerate(pv))
            / sum(v * t ** k for k, v in enumerate(qv)))


def pade_pole_at_base(sample: SeriesSample, m: int, nn: int) -> bool:
    """Whether the minimal-degree Pade denominator vanishes at t = 0 (sympy nullspace)."""
    c = [sympy.Rational(v.numerator, v.denominator) for v in sample.coefficients]
    rows = sympy.Matrix(nn, nn + 1, lambda i, j: c[m + 1 + i - j] if m + 1 + i >= j else 0)
    return rows.nullspace()[0][0] == 0


def check(sample: SeriesSample, m: int, nn: int):
    ours = detect_rational(sample, m, nn)
    want = oracle(sample, m, nn)
    if want is None:
        assert ours is None, (sample, m, nn, ours)
    else:
        assert ours is not None, (sample, m, nn, want)
        assert sympy.cancel(to_sympy(ours.num) / to_sympy(ours.den) - want) == 0, (
            sample, m, nn, ours, want)
    return ours


def draws(seed: int, count: int):
    rng = Random(seed)
    for _ in range(count):
        num = MPoly(("x",), {(k,): rational(rng) for k in range(rng.randint(1, 4))})
        den = MPoly(("x",), {(k,): rational(rng) for k in range(rng.randint(1, 4))})
        if den.is_zero():
            continue
        x0 = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        if den.eval_exact({"x": x0}) == 0:
            continue
        m, nn = rng.randint(0, 3), rng.randint(0, 3)
        length = m + nn + 2 + rng.randint(0, 2)
        coeffs = list(sample_series(RatFunc(num, den), x0, length).coefficients)
        if rng.random() < 0.3:
            i = rng.randrange(length)
            # perturb one coefficient, or zero the one at the numerator bound
            if rng.random() < 0.5:
                coeffs[i] += rational(rng) or 1
            else:
                coeffs[m] = Fraction(0)
        yield SeriesSample(x0, coeffs), m, nn


def test_detect_rational_matches_the_linear_system():
    outcomes = {"accepted": 0, "refused": 0, "pole": 0}
    for sample, m, nn in draws(2027, 300):
        ours = check(sample, m, nn)
        outcomes["accepted" if ours is not None else "refused"] += 1
        if pade_pole_at_base(sample, m, nn):
            assert ours is None, (sample, m, nn)
            outcomes["pole"] += 1
    # the draws reach every branch
    assert min(outcomes.values()) >= 5, outcomes


@pytest.mark.parametrize("num, den, x0, bounds, count", [
    # both once had a gcd with p / q that was a power of t
    ({0: 1, 1: -1, 2: Fraction(1, 2)}, {0: Fraction(-1, 4), 1: 1}, -1, (1, 1), 6),
    ({0: Fraction(1, 4)}, {0: Fraction(1, 2), 2: 1}, 0, (3, 1), 7),
])
def test_pade_denominator_vanishing_at_the_base_point(num, den, x0, bounds, count):
    f = RatFunc(*(MPoly(("x",), {(k,): v for k, v in c.items()}) for c in (num, den)))
    sample = sample_series(f, Fraction(x0), count)
    assert pade_pole_at_base(sample, *bounds)
    assert check(sample, *bounds) is None
