"""Residue sums: exact path against both numeric oracles."""

from fractions import Fraction
from random import Random

import pytest

from residualtrace.algebra import MPoly, RatFunc
from residualtrace.errors import DomainError
from residualtrace.residues import (
    RationalForm1D,
    contour_oracle,
    oracle_report,
    pointwise_residues,
    residue_sum,
    shift_mod_monic,
    trace_stream,
)
from residualtrace.sampling import random_current
from residualtrace.traces import traces

V = ("x", "y")
B = V[:-1]
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")


def test_residue_sum_examples():
    # y / (y^2 - x): remainder of y is y, top coefficient 1
    assert residue_sum(RationalForm1D(Y, Y * Y - X)) == RatFunc.one(("x",))
    # y^2 / (y^2 - x): remainder x has no y^1 part
    assert residue_sum(RationalForm1D(Y * Y, Y * Y - X)).is_zero()


def test_residue_sum_nonmonic_denominator():
    # 1 / (2y - x): single pole at x/2 with residue 1/2
    form = RationalForm1D(MPoly.constant(V, 1), Y.scale(2) - X)
    assert form.den == Y.scale(2) - X
    assert residue_sum(form) == RatFunc.constant(("x",), Fraction(1, 2))


def test_residue_sum_no_fiber_poles_is_zero():
    form = RationalForm1D(Y, X + 1)
    assert residue_sum(form).is_zero()


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RationalForm1D(Y, MPoly.zero(V))


def test_form_reduces_common_factor():
    form = RationalForm1D(Y * (Y - X), (Y - X) * (Y + X))
    assert form.den.degree("y") == 1


def test_pointwise_residues_example():
    # (2y - 1) / (y^2 - y) has residue 1 at both 0 and 1, for any x
    form = RationalForm1D(Y.scale(2) - 1 + X - X, Y * Y - Y)
    pairs = pointwise_residues(form, [0.3])
    assert len(pairs) == 2
    poles = [p for p, _ in pairs]
    assert abs(poles[0] - 0) < 1e-9 and abs(poles[1] - 1) < 1e-9
    for _, res in pairs:
        assert abs(res - 1) < 1e-9


def test_specialization_refuses_a_pole_gone_to_infinity():
    # 1 / (x y^2 + y + 1): at x = 0 one pole escapes and the numeric sums
    # would read 1 against the exact 0, so every numeric path refuses
    form = RationalForm1D(MPoly.constant(V, 1), X * Y * Y + Y + 1)
    assert residue_sum(form).is_zero()
    for oracle in (pointwise_residues, contour_oracle):
        with pytest.raises(DomainError, match="dropped degree"):
            oracle(form, [0.0])
    with pytest.raises(DomainError, match="dropped degree"):
        oracle_report(form, [[0.0]])
    [row] = oracle_report(form, [[1.0]])
    assert row["contour_error"] < 1e-12


def test_pointwise_repeated_root_raises():
    # triple pole: computed roots split ~eps^(1/3), so |den'| ~ eps^(2/3)
    form = RationalForm1D(MPoly.constant(V, 1), (Y - 1) * (Y - 1) * (Y - 1))
    with pytest.raises(DomainError):
        pointwise_residues(form, [0.0])


DOUBLE_POLE_DENOMINATORS = {
    "(y-x)^2": (Y - X) ** 2,
    "(y-x)^2(y+1)": (Y - X) ** 2 * (Y + 1),
    "(y^2-x)^2": (Y * Y - X) ** 2,
    "(y-x)^2(y-2x)(y+3)": (Y - X) ** 2 * (Y - X.scale(2)) * (Y + 3),
}


@pytest.mark.parametrize("xv", [0.5, 2, -1.3, 0.7 + 0.2j, 3, 10, 123])
@pytest.mark.parametrize("name", sorted(DOUBLE_POLE_DENOMINATORS))
def test_pointwise_double_pole_raises(name, xv):
    # computed roots split a double pole ~sqrt(eps) apart; they must not come
    # back as two huge simple residues with a wrong sum
    form = RationalForm1D(MPoly.constant(V, 1), DOUBLE_POLE_DENOMINATORS[name])
    with pytest.raises(DomainError, match="repeated pole"):
        pointwise_residues(form, [xv])


def test_oracle_report_double_pole_has_no_pointwise_value():
    form = RationalForm1D(MPoly.constant(V, 1), (Y - X) ** 2)
    (row,) = oracle_report(form, [[0.5]])
    assert row["pointwise"] is None and row["pointwise_error"] is None
    assert row["exact"] == 0
    assert row["contour_error"] < 1e-9


def test_pointwise_no_poles_empty():
    form = RationalForm1D(Y, X * X + 1)
    assert pointwise_residues(form, [2.0]) == []


def test_contour_matches_exact():
    form = RationalForm1D(Y, Y * Y - X)
    exact = residue_sum(form)
    for xv in (0.7, -1.3, 2.2 + 0.4j):
        got = contour_oracle(form, [xv])
        want = exact.eval_numeric({"x": xv})
        assert abs(got - want) < 1e-10


def test_contour_encloses_distant_poles():
    # residues 3/8 at y = 3 and 5/8 at y = -5; a circle missing -5 gives 3/8
    form = RationalForm1D(Y, (Y - 3) * (Y + 5))
    assert abs(contour_oracle(form, [0.0]) - 1) < 1e-12


def test_oracle_report_rows():
    form = RationalForm1D(Y, Y * Y - X)
    rows = oracle_report(form, [[0.5], [1.5]])
    assert len(rows) == 2
    for row in rows:
        assert row["contour_error"] < 1e-9
        assert row["pointwise_error"] < 1e-9


def test_oracle_agreement_random():
    """Exact residue sums match the quadrature oracle on random data."""
    rng = Random(5)
    for _ in range(15):
        d = rng.randint(1, 4)
        pieces = {d: MPoly.constant(B, 1)}
        for i in range(d):
            c = rng.randint(-3, 3)
            cx = rng.randint(-2, 2)
            if c or cx:
                pieces[i] = MPoly.constant(B, c) + MPoly.variable(B, "x").scale(cx)
        den = MPoly.from_univariate(V, "y", pieces)
        num = Y ** rng.randint(0, d - 1) if d > 1 else MPoly.constant(V, 1)
        form = RationalForm1D(num, den)
        exact = residue_sum(form)
        xv = rng.uniform(-2, 2)
        try:
            got = contour_oracle(form, [xv])
        except DomainError:
            continue
        want = exact.eval_numeric({"x": complex(xv)})
        assert abs(got - want) < 1e-8


def test_residue_sum_matches_traces():
    """u_k is the residue sum of r y^k / p, also with p scaled by a constant."""
    rng = Random(31)
    for _ in range(8):
        c = random_current(rng, n=1, max_degree=3, coeff_degree=2)
        count = c.degree + 2
        u = traces(c, count)
        for k in range(count):
            yk = c.r * MPoly.variable(c.p.vars, c.fiber) ** k
            assert residue_sum(RationalForm1D(yk, c.p)) == u[k]
            scaled = RationalForm1D(yk, c.p.scale(Fraction(-3, 2)))
            assert residue_sum(scaled) == u[k] * Fraction(-2, 3)


def test_trace_stream_of_no_sums_is_empty():
    # count 0 asks for no sums, whether or not den has fiber poles
    assert trace_stream(Y, Y * Y - X, 0) == []
    assert trace_stream(Y, X + 1, 0) == []
    assert len(trace_stream(Y, Y * Y - X, 3)) == 3


def reference_shift(rem, power, den):
    """The stream's step loop before it became `mod_monic` of [0] + rem."""
    d = len(den) - 1
    top = rem[d - 1]
    out = [MPoly.zero(top.vars)] + rem[:d - 1]
    if top.is_zero():
        return out, power
    lead = den[d]
    if not lead.is_one():
        out = [x * lead for x in out]
        power = power * lead
    return [x - top * c if c.terms else x for x, c in zip(out, den)], power


def raw(p: MPoly) -> list:
    return [(e, c, type(c)) for e, c in p.terms.items()]


def random_coefficient(rng: Random, base) -> MPoly:
    """A polynomial over `base` with int and Fraction coefficients, in drawn order."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in base)
        c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.choice([2, 3, 6]))])
        terms[exps] = c
    return MPoly(base, terms)


def test_shift_mod_monic_matches_the_reference_step():
    rng = Random(2525)
    base = ("x1", "x2")
    one = MPoly.constant(base, 1)
    leads = [one, MPoly.constant(base, 2), MPoly.constant(base, Fraction(-3, 2)),
             MPoly.variable(base, "x1") + 1]
    seen = {"zero interior": 0, "zero top": 0, "lead not 1": 0}
    for trial in range(40):
        d = rng.randint(1, 4)
        den = [random_coefficient(rng, base) for _ in range(d)] + [leads[trial % len(leads)]]
        if d > 1:
            den[rng.randint(1, d - 1)] = MPoly.zero(base)
            seen["zero interior"] += 1
        seen["lead not 1"] += not den[d].is_one()
        rem = [random_coefficient(rng, base) for _ in range(d)]
        power = one
        for step in range(4):
            if step == 1:
                rem[d - 1] = MPoly.zero(base)
                seen["zero top"] += 1
            got, got_power = shift_mod_monic(rem, power, den)
            want, want_power = reference_shift(rem, power, den)
            assert got == want and got_power == want_power
            assert [raw(c) for c in got] == [raw(c) for c in want]
            assert raw(got_power) == raw(want_power)
            rem, power = got, got_power
    assert all(seen.values())
