"""MPoly integer kernels against sympy as an independent oracle.

Products, sums, contents and gcds run on ints over a common denominator and
store each coefficient as an int when it is integral, else as a reduced
Fraction; sympy's `Poly` over QQ computes the same results by its own code.
"""

from fractions import Fraction
from math import gcd
from random import Random
from time import perf_counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.algebra import FracMatrix, MPoly, RatFunc, dense, poly_gcd  # noqa: E402
from residualtrace.algebra.linalg import _bareiss, _cleared_rows  # noqa: E402
from residualtrace.algebra.poly import (  # noqa: E402
    _CERTIFICATE_SEED,
    _coprime,
    _image_coprime,
    grlex_key,
    try_div,
)

V = ("x", "y", "z")
SYMS = sympy.symbols(V)

# Integers, negative values and non-integer denominators, mixed in one poly.
coeffs = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 4, 6, 9])),
)
exps = st.tuples(*[st.integers(0, 3)] * len(V))
# Empty term lists give the zero polynomial.
polys = st.dictionaries(exps, coeffs, max_size=6).map(lambda t: MPoly(V, t))
# Gcd factors stay small: the PRS gcd swells on larger products.
factors = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(V)), coeffs,
                          min_size=1, max_size=3).map(lambda t: MPoly(V, t))

SETTINGS = settings(max_examples=150, deadline=None)


def to_sympy(p: MPoly):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *SYMS, domain="QQ")


def from_sympy(sp) -> dict:
    out = {}
    for e, c in sp.terms():
        c = sympy.Rational(c)
        if c:
            out[tuple(e)] = Fraction(int(c.p), int(c.q))
    return out


def assert_canonical(p: MPoly):
    """Stored form: nonzero, an int exactly when integral, else a reduced
    Fraction; equal and hash-equal to a rebuild."""
    for c in p.terms.values():
        assert c != 0
        if c.denominator == 1:
            assert type(c) is int
        else:
            assert type(c) is Fraction
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    rebuilt = MPoly(p.vars, [(e, Fraction(c.numerator, c.denominator))
                             for e, c in p.terms.items()])
    assert rebuilt == p
    assert hash(rebuilt) == hash(p)


def reference_product(a: dict, b: dict) -> dict:
    """The per-term Fraction loop, for values and for term insertion order."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


@SETTINGS
@given(polys, polys)
def test_mul_matches_sympy(p, q):
    prod = p * q
    assert prod.terms == from_sympy(to_sympy(p) * to_sympy(q))
    assert_canonical(prod)


@SETTINGS
@given(polys, polys)
def test_mul_keeps_fraction_loop_term_order(p, q):
    # The kernel keeps the term order of the plain loop it replaced.
    ref = reference_product(p.terms, q.terms)
    assert list((p * q).terms.items()) == list(ref.items())


@SETTINGS
@given(polys, polys)
def test_add_and_sub_match_sympy(p, q):
    total, diff = p + q, p - q
    assert total.terms == from_sympy(to_sympy(p) + to_sympy(q))
    assert diff.terms == from_sympy(to_sympy(p) - to_sympy(q))
    assert_canonical(total)
    assert_canonical(diff)


@SETTINGS
@given(polys, polys, coeffs)
def test_sub_keeps_negated_sum_term_order(p, q, c):
    # One-pass subtraction must leave terms where p + (-q) would.
    assert list((p - q).terms.items()) == list((p + (-q)).terms.items())
    k = MPoly.constant(V, c)
    assert list((c - p).terms.items()) == list((k + (-p)).terms.items())
    assert_canonical(p - q)


@SETTINGS
@given(polys, polys)
def test_sums_that_cancel(p, q):
    # q - p shares every term of p, so p + (q - p) cancels them term by term.
    assert (p + (q - p)) == q
    assert (p - p).is_zero() and (p + (-p)).terms == {}
    assert_canonical(p + (q - p))


@pytest.mark.parametrize("var", V)
@SETTINGS
@given(polys)
def test_coefficient_view_matches_sympy(var, p):
    # The gcd's PRS views its arguments in the last shared variable, which
    # need not be the last variable: the first and the middle one count too.
    sym = SYMS[V.index(var)]
    others = tuple(v for v in V if v != var)
    expr = to_sympy(p).as_expr()
    view = p.as_univariate(var)
    assert len(view) == (sympy.degree(expr, sym) + 1 if expr != 0 else 0)
    for k, c in enumerate(view):
        assert c.vars == others
        want = sympy.Poly(expr.coeff(sym, k), *(SYMS[V.index(v)] for v in others), domain="QQ")
        assert c.terms == from_sympy(want)
    assert MPoly.from_univariate(p.vars, var, view) == p


@SETTINGS
@given(polys)
def test_content_and_primitive_match_sympy(p):
    if p.is_zero():
        assert p.primitive_int().is_zero()
        return
    _, prim = to_sympy(p).primitive()
    assert p.primitive_int().terms == from_sympy(prim)
    assert_canonical(p.primitive_int())


# Widened gcd factors: up to 6 terms with exponents up to 3, as in polys.
wide_factors = st.dictionaries(exps, coeffs, min_size=1, max_size=6).map(lambda t: MPoly(V, t))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_factors, wide_factors, wide_factors)
def test_gcd_matches_sympy(g, a, b):
    # every route, inner calls included, answers each draw well inside 2 s
    f, h = g * a, g * b
    if f.is_zero() or h.is_zero():
        return
    start = perf_counter()
    ours = poly_gcd(f, h)
    assert perf_counter() - start < 2
    theirs = sympy.gcd(to_sympy(f), to_sympy(h))
    assert to_sympy(ours).monic() == theirs.monic()
    # normal form: integer-primitive with a positive graded-lex leading term
    assert all(c.denominator == 1 for c in ours.terms.values())
    assert gcd(*ours.terms.values()) == 1
    assert max(ours.terms.items(), key=lambda t: grlex_key(t[0]))[1] > 0
    assert_canonical(ours)


def test_gcd_through_an_abnormal_subresultant_prs_matches_sympy():
    # Knuth's pair (TAOCP 4.6.1) has remainder degrees 8, 6, 4, 2, 1, 0 in y:
    # steps that drop two degrees after the first one make each divisor of
    # the subresultant PRS depend on the previous divisor
    V2 = ("x", "y")
    x, y = (MPoly.variable(V2, v) for v in V2)
    u = y ** 8 + y ** 6 - 3 * y ** 4 - 3 * y ** 3 + 8 * y ** 2 + 2 * y - 5
    v = 3 * y ** 6 + 5 * y ** 4 - 4 * y ** 2 - 9 * y + 21
    h = x * y + 1
    f, g = u * h, v * h
    assert not _coprime(f, g)
    assert poly_gcd(f, g) == h
    syms = sympy.symbols(V2)
    theirs = sympy.gcd(*(sympy.Poly.from_dict(p.terms, *syms) for p in (f, g)))
    assert theirs == sympy.Poly(syms[0] * syms[1] + 1, *syms)


# Nonzero polynomials over a strict subset of V: each draw keeps one or two
# of the variables and zeroes the exponents of the others.
subsets = st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
on_subsets = st.tuples(subsets, factors).map(lambda t: MPoly(V, [
    (tuple(e if i in t[0] else 0 for i, e in enumerate(exps)), c)
    for exps, c in t[1].terms.items()])).filter(lambda p: not p.is_zero())


@SETTINGS
@given(on_subsets, factors, polys)
def test_gcd_with_fewer_variables_matches_sympy(g, h, k):
    # the support route: a common divisor lies in the variables of g
    for f in (g * h, g * h + k):
        if f.is_zero():
            continue
        ours = poly_gcd(f, g)
        assert ours == poly_gcd(g, f)
        assert to_sympy(ours).monic() == sympy.gcd(to_sympy(f), to_sympy(g)).monic()
        assert_canonical(ours)


monomials = st.tuples(exps, coeffs.filter(bool)).map(lambda t: MPoly(V, {t[0]: t[1]}))


@SETTINGS
@given(factors, monomials)
def test_gcd_with_a_monomial_matches_sympy(f, m):
    # the monomial route: the gcd is a monomial with coefficient 1
    for a, b in ((f, m), (m, f), (m, m)):
        ours = poly_gcd(a, b)
        assert to_sympy(ours).monic() == sympy.gcd(to_sympy(a), to_sympy(b)).monic()
        assert_canonical(ours)
        assert len(ours.terms) == 1 and next(iter(ours.terms.values())) == 1


def test_gcd_of_many_terms_and_a_monomial_power_matches_sympy():
    # chart normalisation shape: R with dozens of terms against c^e = 243 a1^10
    # or -243 a1^5 a2^5, where the PRS swelled
    chart = ("a1", "a2", "b1", "b2")
    syms = sympy.symbols(chart)
    rng = Random(12)
    for lead in ({(10, 0, 0, 0): 243}, {(5, 5, 0, 0): -243}):
        for shift in ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 0)):
            r = MPoly(chart, [
                (tuple(rng.randint(0, 3) + s for s in shift), rng.randint(-9, 9))
                for _ in range(60)])
            c = MPoly(chart, lead)
            assert len(r.terms) >= 40
            ours = poly_gcd(r, c)
            theirs = sympy.gcd(
                sympy.Poly.from_dict({e: int(v) for e, v in r.terms.items()}, *syms),
                sympy.Poly.from_dict({e: int(v) for e, v in c.terms.items()}, *syms))
            assert ours.terms == {tuple(theirs.monic().monoms()[0]): 1}
            assert ours == poly_gcd(c, r)


def test_certificate_does_not_prove_a_collision_coprime():
    # x y + 1 and x y + 1 + P are coprime over Q, but their images mod P agree
    f = MPoly(V, {(1, 1, 0): 1, (0, 0, 0): 1})
    g = MPoly(V, {(1, 1, 0): 1, (0, 0, 0): 1 + dense.P})
    x0 = dense.point(_CERTIFICATE_SEED, len(V))
    for vi in (0, 1):
        assert dense.at(f.terms, x0, vi) == dense.at(g.terms, x0, vi)
    assert not _coprime(f, g)
    assert poly_gcd(f, g).is_one()
    assert sympy.gcd(to_sympy(f), to_sympy(g)).is_ground


def test_a_lead_vanishing_at_the_point_falls_back_to_the_prs():
    # leading coefficient x - 101 in y vanishes at the certificate's point,
    # and neither polynomial has a constant leading coefficient in x or y
    x, y = (MPoly.variable(V, v) for v in ("x", "y"))
    x0 = dense.point(_CERTIFICATE_SEED, len(V))
    assert x0[0] == 101
    f0 = (x - 101) * y + x + 1
    g0 = (x - 101) * y ** 2 + x * y + 2
    for h in (MPoly.constant(V, 1), x * y + 1):
        f, g = f0 * h, g0 * h
        assert not _image_coprime(f, g, 1)
        assert dense.at(f.terms, x0, 1)[1][-1] == 0
        assert not _coprime(f, g)
        ours = poly_gcd(f, g)
        assert ours == h
        assert to_sympy(ours).monic() == sympy.gcd(to_sympy(f), to_sympy(g)).monic()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(factors, factors, factors)
def test_certificate_proofs_hold_in_sympy(g, a, b):
    # whenever the images prove coprimality, the exact gcd is 1
    f, h = g * a, g * b
    if f.is_constant() or h.is_constant():
        return
    if _coprime(f, h):
        assert sympy.gcd(to_sympy(f), to_sympy(h)).is_ground


def test_gcd_of_the_three_by_three_systems_first_quotient():
    # `solve_linear` on this system leaves the polynomial ring at unknown 2:
    # RatFunc(acc, a_22) takes the gcd of a 69- and a 56-term polynomial of
    # degree 9 in x and y.  It is x, the monomial content, and the
    # cofactors' images are coprime; the primitive PRS ran past 60 s on it.
    V2 = ("x", "y")
    x, y = (MPoly.variable(V2, v) for v in V2)
    F = Fraction
    m = FracMatrix([
        [RatFunc(F(-1, 2) * x * y + y), RatFunc(4 * x * y - F(3, 2) * x),
         RatFunc(x * y ** 2 + F(5, 3) * x)],
        [RatFunc(x ** 2 * y + F(1, 2)), RatFunc(5 * x ** 2), RatFunc(4 * x * y + F(1, 2) * y)],
        [RatFunc(F(-5, 3) * x * y ** 2 + F(2, 3) * y ** 2, x ** 2 * y + F(5, 3) * x ** 2),
         RatFunc(F(1, 2) * x ** 2 * y + F(1, 4) * x, x * y + y),
         RatFunc(MPoly.constant(V2, F(1, 2)), y ** 2 + F(1, 3))]])
    rhs = [RatFunc(F(5, 3) * x ** 2 - 2 * x * y),
           RatFunc(MPoly.constant(V2, F(2, 3)), x * y ** 2 - F(1, 2) * x),
           RatFunc(-5 * x * y ** 2 - 3 * y - 3, x ** 2 * y)]
    a, _ = _cleared_rows(FracMatrix([row + (e,) for row, e in zip(m.entries, rhs)]))
    _bareiss(a)
    f, g = a[2][3], a[2][2]
    assert try_div(f, g) is None
    assert (len(f.terms), len(g.terms)) == (69, 56)
    assert f.degree("x") == f.degree("y") == 9
    start = perf_counter()
    ours = poly_gcd(f, g)
    assert perf_counter() - start < 5
    assert ours == x
    syms = sympy.symbols(V2)
    theirs = sympy.gcd(*(sympy.Poly.from_dict(
        {e: sympy.Rational(v.numerator, v.denominator) for e, v in p.terms.items()},
        *syms, domain="QQ") for p in (f, g)))
    assert theirs.monic() == sympy.Poly(syms[0], *syms, domain="QQ")


@SETTINGS
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    zero, one = MPoly.zero(V), MPoly.constant(V, 1)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert p - q == -(q - p)


@SETTINGS
@given(coeffs | st.just(Fraction(0)))
def test_constant_and_is_one(c):
    k = MPoly.constant(list(V), c)
    assert k == MPoly(V, {(0, 0, 0): c})
    assert k.vars == V
    assert k.is_one() == (c == 1)
    assert_canonical(k)
