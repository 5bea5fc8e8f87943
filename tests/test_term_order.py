"""Term dict order of MPoly kernels against per-term reference loops.

The kernels keep the term order of the plain loops they replaced, and
these tests pin it; the golden digest hashes sorted JSON and cannot see
it.  `eval_numeric` sums with `fsum`, so no float result depends on it.
The references below are the plain loops the kernels replaced, on raw
term dicts: a product accumulates pair by pair, deleting a
key whose sum cancels and re-inserting it at the end if it comes back; a
sum keeps one side's order and appends the other's new terms; a quotient
takes grlex leading terms off a remainder dict; a substitution adds, term
by term, the coefficient times the product of repeated-product powers of
the images; a scaling multiplies each term.  Every comparison includes the
stored type of each value.
"""

from fractions import Fraction
from math import lcm
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.algebra import MPoly, RatFunc, try_div  # noqa: E402

NAMES = ("x", "y", "z", "w")
TARGET = ("a", "b")
SETTINGS = settings(max_examples=200, deadline=None)

ints = st.integers(-4, 4)
fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 6]))
coeffs = ints | fractions
# Zero and one-term operands take their own fast paths, so draw them often.
sizes = st.sampled_from([(0, 0), (1, 1), (1, 1), (0, 6)])


def polys(variables):
    keys = st.tuples(*[st.integers(0, 2)] * len(variables))
    return sizes.flatmap(lambda s: st.dictionaries(keys, coeffs, min_size=s[0], max_size=s[1])
                         ).map(lambda t: MPoly(variables, t))


def pairs():
    return st.integers(0, 4).flatmap(lambda n: st.tuples(polys(NAMES[:n]), polys(NAMES[:n])))


def raw(terms: dict) -> list:
    return [(e, c, type(c)) for e, c in terms.items()]


# ---- reference loops ----------------------------------------------------


def canon(c):
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def quotient(a, b):
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return canon(a / b)


def common_denominator(terms: dict):
    values = list(terms.values())
    if all(type(c) is int for c in values):
        return 1, values
    den = lcm(*[c.denominator for c in values])
    return den, [c.numerator * (den // c.denominator) for c in values]


def ref_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    da, na = common_denominator(a)
    db, nb = common_denominator(b)
    b_items = list(zip(b, nb))
    acc = {}
    for ea, ca in zip(a, na):
        for eb, cb in b_items:
            key = tuple(map(add, ea, eb))
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
        return acc
    return {e: quotient(v, den) for e, v in acc.items()}


def accumulate(terms: dict, other: dict, sign: int = 1):
    for exps, c in other.items():
        prev = terms.get(exps)
        if prev is None:
            terms[exps] = c if sign > 0 else -c
            continue
        s = prev + c if sign > 0 else prev - c
        if s:
            terms[exps] = canon(s)
        else:
            del terms[exps]


def ref_sum(a: dict, b: dict, sign: int = 1) -> dict:
    terms = dict(a)
    accumulate(terms, b, sign)
    return terms


def grlex_key(exps):
    return (sum(exps), exps)


def ref_try_div(f: dict, g: dict):
    if not f:
        return f
    ge = max(g, key=grlex_key)
    if not any(ge):
        inv = 1 / Fraction(g[ge])
        return {e: canon(v * inv) for e, v in f.items()}
    gc = g[ge]
    rem = dict(f)
    quot = {}
    while rem:
        exps = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(exps, ge))
        if any(d < 0 for d in diff):
            return None
        c = quotient(rem[exps], gc)
        quot[diff] = c
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(diff, e2))
            s = rem.get(key, 0) - c * c2
            if s:
                rem[key] = canon(s)
            elif key in rem:
                del rem[key]
    return quot


def ref_subs(p: MPoly, variables, images: dict) -> dict:
    unit = {(0,) * len(variables): 1}
    result = {}
    for exps, c in p.terms.items():
        term = unit
        for name, e in zip(p.vars, exps):
            img = images.get(name, name)
            if isinstance(img, MPoly):
                img = img.terms
            elif isinstance(img, str):  # carried over by name
                img = {tuple(int(v == img) for v in variables): 1}
            else:
                img = {(0,) * len(variables): canon(Fraction(img))} if img else {}
            power = unit
            for _ in range(e):
                power = ref_mul(power, img)
            if e:
                term = ref_mul(term, power)
        accumulate(result, {e: canon(v * c) for e, v in term.items()})
    return result


# ---- the kernels against them --------------------------------------------


@SETTINGS
@given(pairs())
def test_product_order(pq):
    p, q = pq
    assert raw((p * q).terms) == raw(ref_mul(p.terms, q.terms))
    assert raw((q * p).terms) == raw(ref_mul(q.terms, p.terms))


@SETTINGS
@given(pairs(), coeffs)
def test_sum_and_difference_order(pq, k):
    p, q = pq
    assert raw((p + q).terms) == raw(ref_sum(p.terms, q.terms))
    assert raw((p - q).terms) == raw(ref_sum(p.terms, q.terms, -1))
    kp = MPoly.constant(p.vars, k)
    assert raw((p + k).terms) == raw(ref_sum(p.terms, kp.terms))
    assert raw((p - k).terms) == raw(ref_sum(p.terms, kp.terms, -1))
    assert raw((k - p).terms) == raw(ref_sum(kp.terms, p.terms, -1))
    # q - p shares every term of p: p + (q - p) cancels them one by one
    d = q - p
    assert raw((p + d).terms) == raw(ref_sum(p.terms, d.terms))


@SETTINGS
@given(pairs(), st.booleans())
def test_quotient_order(qg, exact):
    q, g = qg
    if g.is_zero():
        return
    f = q * g if exact else q
    ref = ref_try_div(f.terms, g.terms)
    ours = try_div(f, g)
    if ref is None:
        assert ours is None
    else:
        assert raw(ours.terms) == raw(ref)


@st.composite
def substitutions(draw):
    """(p, target variables, images) with each source variable carried over,
    renamed, given a scalar or given a polynomial image."""
    n = draw(st.integers(0, 4))
    source = NAMES[:n]
    kinds = [draw(st.sampled_from(["carry", "rename", "scalar", "poly"])) for _ in source]
    variables = TARGET + tuple(v for v, k in zip(source, kinds) if k == "carry")
    images = {}
    for v, k in zip(source, kinds):
        if k == "rename":
            images[v] = MPoly.variable(variables, draw(st.sampled_from(TARGET)))
        elif k == "scalar":
            images[v] = draw(coeffs | st.just(0))
        elif k == "poly":
            images[v] = draw(polys(variables))
    return draw(polys(source)), variables, images


@SETTINGS
@given(substitutions())
def test_substitution_order(case):
    p, variables, images = case
    assert raw(p.subs(variables, images).terms) == raw(ref_subs(p, variables, images))


@st.composite
def free_term_substitutions(draw):
    """A substitution whose polynomial has terms free of every substituted,
    non-renamed variable: their product of image powers is the unit."""
    p, variables, images = draw(substitutions())
    renamed = [name not in images or (isinstance(images[name], MPoly)
                                      and list(images[name].terms.values()) == [1]
                                      and sum(next(iter(images[name].terms))) == 1)
               for name in p.vars]
    keys = st.tuples(*[st.integers(0, 2) if keep else st.just(0) for keep in renamed])
    free = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=4))
    return p + MPoly(p.vars, free), variables, images


@SETTINGS
@given(free_term_substitutions())
def test_substitution_of_free_terms_keeps_their_stored_values(case):
    p, variables, images = case
    assert raw(p.subs(variables, images).terms) == raw(ref_subs(p, variables, images))


@SETTINGS
@given(st.integers(0, 4).flatmap(lambda n: polys(NAMES[:n])), coeffs | st.just(0))
@example(MPoly(("x", "y"), {(1, 0): 3, (0, 1): Fraction(1, 2), (0, 0): -6}), Fraction(2, 3))
def test_scale_order_and_stored_form(p, c):
    # the reference is the per-term product in stored form; an integral
    # product (3 * 2/3 above) is an int, never a Fraction
    ref = {e: canon(v * c) for e, v in p.terms.items()} if c else {}
    assert raw(p.scale(c).terms) == raw(ref)


@SETTINGS
@given(pairs())
def test_polynomial_ratfunc_arithmetic_keeps_the_mpoly_order(pq):
    # a sum, difference or product of two polynomial RatFuncs has
    # denominator 1 and the MPoly result as its numerator, order included
    p, q = pq
    for got, want in ((RatFunc(p) + RatFunc(q), p + q), (RatFunc(p) - RatFunc(q), p - q),
                      (RatFunc(p) * RatFunc(q), p * q)):
        assert got.is_polynomial()
        assert raw(got.num.terms) == raw(want.terms)


def test_quotient_by_one_is_the_dividend():
    # the constant divisor 1 returns f itself: same values, types and order
    v = ("x", "y")
    f = MPoly(v, [((0, 1), Fraction(1, 2)), ((2, 0), 3), ((1, 1), Fraction(-5, 3)), ((0, 0), 1)])
    one = MPoly.constant(v, 1)
    assert try_div(f, one) is f
    assert raw(try_div(f, one).terms) == raw(ref_try_div(f.terms, one.terms))


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


points = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeffs, max_size=12)
                        .map(lambda t: MPoly(NAMES[:n], t)),
                        st.lists(points, min_size=n, max_size=n))))
def test_eval_numeric_ignores_term_order(case):
    p, point = case
    values = dict(zip(p.vars, point))
    reversed_p = MPoly(p.vars, dict(reversed(p.terms.items())))
    assert reversed_p == p and list(reversed_p.terms) == list(reversed(p.terms))
    assert bits(reversed_p.eval_numeric(values)) == bits(p.eval_numeric(values))


def test_product_that_cancels_and_reinserts():
    # x^2 y cancels at the second term of p and comes back with the third,
    # so it ends up last rather than second, where it first appeared.
    v = ("x", "y")
    p = MPoly(v, [((1, 0), 1), ((0, 1), 1), ((2, 0), 1)])
    q = MPoly(v, [((1, 1), 1), ((2, 0), -1), ((1, 2), 1), ((0, 1), 1)])
    ref = ref_mul(p.terms, q.terms)
    assert raw((p * q).terms) == raw(ref)
    assert list(ref)[-1] == (2, 1)
