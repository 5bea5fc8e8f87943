"""Dense integer list kernels against sympy as an independent oracle.

`algebra.dense` holds the gcd's one-variable base case, the series
layer's list helpers and the images modulo P = 2^61 - 1; the other tests
reach them only through `poly_gcd` and `reconstruct`.  Here each is
checked directly: the PRS gcd and the pseudo-remainder against sympy's,
the gcd modulo P against sympy's over GF(P), the Taylor shift against
sympy's expansion, the images against exact evaluation, and `clear`,
`primitive`, `from_terms` and `strip` against their definitions.
"""

from fractions import Fraction
from math import gcd as int_gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.algebra import dense  # noqa: E402

T = sympy.Symbol("t")
SETTINGS = settings(max_examples=150, deadline=None)

# Ascending int lists, trailing zeros and the empty (zero) list included.
int_lists = st.lists(st.integers(-12, 12), max_size=6)
nonzero_lists = int_lists.map(dense.strip).filter(bool)
fractions = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


def to_sympy(f: list[int]):
    return sympy.Poly(list(reversed(f)) or [0], T, domain="ZZ")


def from_sympy(p) -> list[int]:
    return dense.strip([int(c) for c in reversed(p.all_coeffs())])


def product(f: list[int], g: list[int]) -> list[int]:
    return from_sympy(to_sympy(f) * to_sympy(g))


@SETTINGS
@given(nonzero_lists, int_lists, int_lists)
@example([2, 1], [], [])  # zero and zero times a common factor
@example([1], [0, 0, 3], [5])  # constants and a one-term input
@example([3, 0, 1], [1], [1])  # equal inputs
@example([-1, 1], [0, 0, 0, 4], [6, -2])  # one-term against a binomial
def test_gcd_matches_sympy(common, f, g):
    a, b = product(common, f), product(common, g)
    got = dense.gcd(a, b)
    if not a and not b:
        assert got == []
        return
    _, expected = sympy.gcd(to_sympy(a), to_sympy(b)).primitive()
    assert got in (from_sympy(expected), from_sympy(-expected))


def test_gcd_edge_cases():
    assert dense.gcd([], []) == []
    assert dense.gcd([0, 0], [0]) == []
    assert dense.gcd([], [4, 6]) == [2, 3]
    assert dense.gcd([6], [4, 2]) == [1]
    assert dense.gcd([-2, 2], [-2, 2]) == [-1, 1]
    assert dense.gcd([0, 0, 5], [0, 3]) == [0, 1]


@SETTINGS
@given(nonzero_lists, int_lists, int_lists)
@example([1], [], [])  # both zero
@example([1], [0, 0, 3], [5])  # a constant
@example([-1, 1], [0, 1], [0, 1])  # equal inputs
def test_gcd_mod_matches_sympy_over_gf_p(common, f, g):
    a, b = product(common, f), product(common, g)
    got = dense.gcd_mod([c % dense.P for c in a], [c % dense.P for c in b])
    if not a and not b:
        assert got == []
        return
    expected = sympy.gcd(sympy.Poly(list(reversed(a)) or [0], T, modulus=dense.P),
                         sympy.Poly(list(reversed(b)) or [0], T, modulus=dense.P))
    monic = [c * pow(got[-1], -1, dense.P) % dense.P for c in got]
    assert monic == [int(c) % dense.P for c in reversed(expected.monic().all_coeffs())]


def test_at_keeps_one_variable_and_flags_a_vanishing_lead():
    # (x - 101) y^2 + x y / 2 + 3 at the point (101, 1110)
    terms = {(1, 2): 1, (0, 2): -101, (1, 1): Fraction(1, 2), (0, 0): 3}
    x0 = dense.point(101, 2)
    assert x0 == [101, 1110]
    den, nums = dense.at(terms, x0, keep=1)
    assert den == 2 and nums == [6, 101, 0]
    assert dense.at(terms, x0, keep=0) == (2, [(6 - 202 * 1110 ** 2) % dense.P,
                                             (2 * 1110 ** 2 + 1110) % dense.P])
    value = Fraction(101 * 1110, 2) + 3
    assert dense.at(terms, x0) == (2, [2 * value % dense.P])
    assert dense.residue(terms, None, x0) == value % dense.P
    assert dense.residue({(0, 0): 1}, {(1, 0): 1, (0, 0): -101}, x0) is None


@SETTINGS
@given(int_lists.map(dense.strip), nonzero_lists)
def test_prem_matches_sympy(u, v):
    got = dense.prem(u, v)
    assert len(got) < len(v) or got == u
    assert not got or got[-1] != 0
    # sympy scales by lc(v)^(deg u - deg v + 1); a step that drops several
    # degrees at once uses fewer factors here, so the two differ by a power
    expected = from_sympy(sympy.prem(to_sympy(u), to_sympy(v)))
    if len(u) < len(v):
        assert got == u == expected
        return
    powers = (v[-1] ** j for j in range(len(u) - len(v) + 2))
    assert any([lc * x for x in got] == expected for lc in powers)


@SETTINGS
@given(nonzero_lists, st.integers(-9, 9), st.integers(1, 6), st.integers(0, 3))
def test_shift_matches_sympy(f, a, b, extra):
    e = len(f) - 1 + extra
    x = sympy.Symbol("x")
    fx = sum(c * x ** k for k, c in enumerate(f))
    expr = sympy.expand(b ** e * fx.subs(x, sympy.Rational(a, b) + T))
    assert dense.strip(dense.shift(f, a, b, e)) == from_sympy(sympy.Poly(expr, T))
    assert dense.shift([], a, b, e) == []


@SETTINGS
@given(st.lists(fractions, max_size=6))
def test_clear_recovers_the_values(values):
    den, nums = dense.clear(values)
    assert den >= 1 and all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == values
    # den is the least common denominator: the cleared ints share no factor with it
    assert int_gcd(den, *nums) == 1


def test_clear_keeps_an_all_int_list():
    values = [3, 0, -7]
    assert dense.clear(values) == (1, values)
    assert dense.clear([]) == (1, [])
    assert dense.clear((Fraction(1, 2), Fraction(2, 3))) == (6, [3, 4])


@SETTINGS
@given(int_lists)
def test_primitive_divides_out_the_content(c):
    got = dense.primitive(c)
    g = int_gcd(*c)
    if g <= 1:
        assert got is c
    else:
        assert [x * g for x in got] == c and int_gcd(*got) == 1


def test_from_terms_is_dense_over_one_denominator():
    terms = {(0, 2): Fraction(1, 2), (0, 0): Fraction(-1, 3)}
    assert dense.from_terms(terms, 1) == (6, [-2, 0, 3])
    assert dense.from_terms({(4, 0): 5}, 0) == (1, [0, 0, 0, 0, 5])
    assert dense.from_terms({}, 0) == (1, [])


@given(int_lists)
def test_strip_int_lists(c):
    before = list(c)
    out = dense.strip(c)
    assert out is c
    assert not out or out[-1] != 0
    assert out + [0] * (len(before) - len(out)) == before


def test_strip_complex_lists():
    assert dense.strip([1 + 2j, 0j, complex(-0.0, 0.0)]) == [1 + 2j]
    assert dense.strip([0j, 3.5j, 0j]) == [0j, 3.5j]
    assert dense.strip([0j]) == []
    assert dense.strip([]) == []
