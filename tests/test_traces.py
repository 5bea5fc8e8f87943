"""Trace sequences, the depth-d recurrence, and Hankel matrices."""

import importlib
from fractions import Fraction
from random import Random

import pytest

from residualtrace.algebra import MPoly, RatFunc, determinant
from residualtrace.currents import validate
from residualtrace.errors import DomainError
from residualtrace.radon import radon
from residualtrace.residues import RationalForm1D, pointwise_residues, trace_stream
from residualtrace.sampling import random_current, random_rational_point
from residualtrace.traces import TraceSequence, hankel, recurrence_check, traces

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")
B = ("x",)


def seq(*values):
    return TraceSequence(entries=tuple(
        v if isinstance(v, RatFunc) else RatFunc.constant(B, v) for v in values))


def test_traces_running_example():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    t = traces(c, 4)
    assert list(t.entries) == [
        RatFunc.zero(B), RatFunc.one(B), RatFunc.zero(B), RatFunc.variable(B, "x")]


def test_traces_single_point_powers():
    # p = y - 3, r = 2: u_k = 2 * 3^k
    c = validate(Y - 3, MPoly.constant(V, 2))
    t = traces(c, 5)
    assert [e.as_poly().constant_value() for e in t.entries] == [
        Fraction(2 * 3 ** k) for k in range(5)]


def test_traces_split_pair():
    # weights 1 at roots 0 and 1: u_k = 0^k + 1^k
    c = validate(Y * Y - Y, Y.scale(2) - 1)
    t = traces(c, 6)
    assert [e.as_poly().constant_value() for e in t.entries] == [
        Fraction(v) for v in (2, 1, 1, 1, 1, 1)]


def test_traces_rejects_zero_count():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    with pytest.raises(DomainError):
        traces(c, 0)


def test_recurrence_check_accepts_own_current():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    assert recurrence_check(traces(c, 8), c.p) == []


def test_recurrence_check_split_example():
    t = seq(2, 1, 1, 1)
    assert recurrence_check(t, Y * Y - Y) == []


def test_recurrence_check_flags_mismatch():
    t = seq(1, 1)
    assert recurrence_check(t, Y - 2) == [0]


def test_recurrence_check_reports_every_bad_window():
    # u_k = 2^k against p = y - 3 fails at every k
    t = seq(1, 2, 4, 8)
    assert recurrence_check(t, Y - 3) == [0, 1, 2]


def test_recurrence_check_needs_d_plus_one_entries():
    t = seq(1, 2)
    with pytest.raises(DomainError):
        recurrence_check(t, Y * Y - X)


def test_recurrence_check_rejects_nonmonic():
    t = seq(1, 2, 4)
    with pytest.raises(DomainError, match="monic"):
        recurrence_check(t, Y.scale(2) - 1)


def test_recurrence_check_rejects_mismatched_base():
    t = seq(1, 2, 4)
    W = ("z", "y")
    with pytest.raises(DomainError):
        recurrence_check(t, MPoly.variable(W, "y") - 1)


def test_hankel_symmetric_layout():
    t = seq(0, 1, 0)
    h = hankel(t, 2)
    assert h[0, 0].is_zero() and h[1, 1].is_zero()
    assert h[0, 1] == RatFunc.one(B) and h[1, 0] == RatFunc.one(B)
    assert determinant(h) == RatFunc.constant(B, -1)


def test_hankel_split_determinant():
    t = seq(2, 1, 1)
    assert determinant(hankel(t, 2)) == RatFunc.one(B)


def test_hankel_size_one():
    t = seq(7)
    h = hankel(t, 1)
    assert h.entries == ((RatFunc.constant(B, 7),),)


def test_hankel_needs_enough_entries():
    t = seq(1, 2)
    with pytest.raises(DomainError):
        hankel(t, 2)
    with pytest.raises(DomainError):
        hankel(t, 0)


def test_trace_sequence_shape_checks():
    with pytest.raises(DomainError):
        TraceSequence(entries=())
    with pytest.raises(DomainError):
        TraceSequence(entries=(RatFunc.one(B), RatFunc.one(("z",))))


def test_trace_degree_bound():
    # deg_x(u_k) <= deg_x(r) + k * max_i deg_x(a_i)
    rng = Random(7)
    for _ in range(15):
        c = random_current(rng, n=1, max_degree=4, coeff_degree=3)
        a_deg = max(
            (coeff.degree("x") for coeff in c.p.as_univariate("y")),
            default=0)
        r_deg = max(c.r.degree("x"), 0)
        t = traces(c, 2 * c.degree + 2)
        for k, e in enumerate(t.entries):
            assert e.is_polynomial()
            assert e.as_poly().degree("x") <= r_deg + k * max(a_deg, 0)


def test_traces_match_pointwise_pole_sums():
    # at square-free base points, u_k(x0) equals sum res_i * pole_i^k
    rng = Random(11)
    checked = 0
    while checked < 8:
        c = random_current(rng, n=1, max_degree=4, coeff_degree=2, max_abs=3)
        point = random_rational_point(rng, 1, span=3)
        form = RationalForm1D(c.r, c.p)
        values = [complex(point["x"])]
        try:
            pairs = pointwise_residues(form, values)
        except DomainError:
            continue
        t = traces(c, 2 * c.degree + 1)
        assign = {"x": complex(point["x"])}
        for k, e in enumerate(t.entries):
            direct = sum(res * pole ** k for pole, res in pairs)
            assert abs(direct - e.eval_numeric(assign)) < 1e-8
        checked += 1


def test_equal_current_built_anew_is_traced_once(trace_streams):
    first = traces(validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3)), 6)
    again = traces(validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3)), 6)
    assert again == first
    assert len(trace_streams) == 1
    # another count is another key
    traces(validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3)), 5)
    assert len(trace_streams) == 2


def test_traces_returns_a_fresh_record_equal_to_a_cold_run():
    c = validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3))
    cold = TraceSequence(entries=tuple(trace_stream(c.r, c.p, 6)))
    first = traces(c, 6)
    again = traces(c, 6)
    assert first == again == cold
    assert first is not again


def test_a_float_count_is_refused_warm_or_cold():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    traces(c, 3)
    with pytest.raises(TypeError):
        traces(c, 3.0)
    radon(c, 3)
    with pytest.raises(TypeError):
        radon(c, 3.0)


def test_fiber_memo_is_small():
    module = importlib.import_module("residualtrace.traces")
    maxsize = module._fiber_traces.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 16
