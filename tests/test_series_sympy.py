"""sample_series against sympy's Taylor expansion as an independent oracle.

The fraction-free sampler clears denominators, shifts over a power of the
denominator of x0 and divides over powers of the shifted constant term;
sympy.series expands the same rational function by its own code.  The
cases have non-integral coefficients, base points with denominators up to
7, and constant, linear and quadratic denominators, so polynomials and
rational functions alike; each is sampled at counts below, at and past
one more than its degree.  Each sample, stored as
integers over one denominator, must also equal, hash, print and pickle as
the SeriesSample built from sympy's Fraction coefficients.
"""

import pickle
from fractions import Fraction
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from residualtrace.algebra import MPoly, RatFunc, dense  # noqa: E402
from residualtrace.reconstruct import SeriesSample, sample_series  # noqa: E402
from sympy_expr import to_sympy  # noqa: E402

X = sympy.Symbol("x")


def rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 5]))


def test_sample_series_matches_sympy():
    rng = Random(8)
    for i in range(18):
        num = MPoly(("x",), {(k,): rational(rng) for k in range(rng.randint(0, 4) + 1)})
        # a constant denominator makes f a polynomial, which takes no series division
        den_deg = i % 3
        den = MPoly(("x",), {(k,): rational(rng) for k in range(den_deg + 1)})
        while den.degree() != den_deg:
            den = den + MPoly(("x",), {(den_deg,): rational(rng)})
        f = RatFunc(num, den)
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        if f.den.eval_exact({"x": x0}) == 0:
            continue
        deg = max(f.num.degree(), f.den.degree())
        expansion = sympy.series(to_sympy(f.num) / to_sympy(f.den), X,
                                 sympy.Rational(x0.numerator, x0.denominator), 40)
        poly = expansion.removeO().subs(X, X + sympy.Rational(x0.numerator, x0.denominator))
        poly = sympy.Poly(sympy.expand(poly), X)
        series = [Fraction(int(c.p), int(c.q))
                  for c in (poly.coeff_monomial(X ** k) for k in range(40))]
        # counts below deg + 1, equal to it, and past it
        for count in (max(deg, 1), deg + 1, 40):
            sample = sample_series(f, x0, count)
            ours = sample.coefficients
            expected = series[:count]
            assert list(ours) == expected, (f, x0, count)
            # the integer sample is the record its Fraction coefficients build
            assert all(type(c) is Fraction for c in ours)
            assert (sample._den, list(sample._nums)) == dense.clear(expected)
            parsed = SeriesSample(x0, expected)
            assert sample == parsed and hash(sample) == hash(parsed)
            assert repr(sample) == repr(parsed)
            assert pickle.loads(pickle.dumps(sample)) == sample
