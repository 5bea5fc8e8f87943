"""Chart traces in line coordinates, closedness, and pencil projections."""

import importlib
from random import Random

import pytest

from residualtrace.algebra import MPoly, RatFunc
from residualtrace.currents import ZeroCurrent, validate
from residualtrace.errors import DomainError
from residualtrace.radon import (
    closedness_check,
    is_radon_zero,
    line_chart,
    pencil_projection,
    radon,
)
from residualtrace.sampling import random_current, random_weighted_current
from residualtrace.traces import hankel, traces

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")
C = ("a", "b")
A = RatFunc.variable(C, "a")
BV = RatFunc.variable(C, "b")


def test_line_chart_names():
    one = line_chart(1)
    assert one.a_names == ("a",) and one.b_names == ("b",)
    two = line_chart(2)
    assert two.a_names == ("a1", "a2") and two.b_names == ("b1", "b2")
    assert two.vars == ("a1", "a2", "b1", "b2")
    with pytest.raises(DomainError):
        line_chart(0)


def test_radon_running_example():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    u = radon(c, 1)
    assert u == [RatFunc.zero(C), RatFunc.one(C)]


def test_radon_shifted_numerator():
    # r = y against y^2 - ay - b: y^2 reduces to ay + b
    c = validate(Y * Y - X, Y)
    u = radon(c, 3)
    assert u[0] == RatFunc.one(C)
    assert u[1] == A
    assert u[2] == A * A + BV
    assert u[3] == A * A * A + A * BV * 2


def test_radon_single_point_line_formula():
    # p = y - x, root of (1-a)y - b: u_k = w/(1-a) * (b/(1-a))^k
    w = 2
    c = validate(Y - X, MPoly.constant(V, w))
    u = radon(c, 2)
    shift = RatFunc.one(C) - A
    for k, f in enumerate(u):
        assert f == RatFunc.constant(C, w) / shift * (BV / shift) ** k


def test_radon_two_base_variables():
    W = ("x1", "x2", "y")
    p = (MPoly.variable(W, "y") ** 2
         - MPoly.variable(W, "x1") - MPoly.variable(W, "x2"))
    c = validate(p, MPoly.variable(W, "y"))
    u = radon(c, 1)
    chart = ("a1", "a2", "b1", "b2")
    assert u[0] == RatFunc.one(chart)
    assert u[1] == RatFunc.variable(chart, "a1") + RatFunc.variable(chart, "a2")


def test_radon_rejects_negative_kmax():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    with pytest.raises(DomainError):
        radon(c, -1)


def test_closedness_running_examples():
    c1 = validate(Y * Y - X, MPoly.constant(V, 1))
    assert closedness_check(radon(c1, 5), range(4)) == []
    c2 = validate(Y * Y - X, Y)
    assert closedness_check(radon(c2, 5), range(4)) == []


def test_closedness_flags_corruption():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    u = radon(c, 3)
    u[1] = A + BV
    violations = closedness_check(u, range(2))
    assert (1, 0) in violations


def test_closedness_flags_corruption_with_denominator():
    # p = y^2 + x y - 1 lifts: after x = a y + b its fiber lead is 1 + a,
    # so the chart traces carry powers of 1 + a in their denominators
    c = validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3))
    u = radon(c, 4)
    assert not u[1].is_polynomial() and not u[2].is_polynomial()
    assert closedness_check(u, range(4)) == []
    lift = RatFunc.one(C) + A
    # b / (1 + a) changes d/db u_1 (window 0) and d/da u_1 (window 1)
    bad = list(u)
    bad[1] = u[1] + BV / lift
    assert closedness_check(bad, range(4)) == [(1, 0), (1, 1)]
    # a term in a alone leaves d/db u_2 alone and changes d/da u_2 only
    bad = list(u)
    bad[2] = u[2] + A / (lift * lift)
    assert closedness_check(bad, range(4)) == [(1, 2)]


def test_closedness_range_bounds():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    u = radon(c, 2)
    with pytest.raises(DomainError):
        closedness_check(u, [2])
    with pytest.raises(DomainError):
        closedness_check(u, [-1])


def test_closedness_holds_for_random_currents():
    rng = Random(31)
    for n in (1, 2):
        for _ in range(4):
            c = random_current(rng, n=n, max_degree=3 - n, coeff_degree=1)
            k_top = 2 * c.degree
            u = radon(c, k_top + c.n)
            assert closedness_check(u, range(k_top + 1)) == []


def test_pencil_projection_running_example():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    t = pencil_projection(c, (-1, 0), count=4)
    P = ("a",)
    ar = RatFunc.variable(P, "a")
    assert t.entries == (
        RatFunc.zero(P), RatFunc.one(P), ar, ar * ar - 1)


def test_pencil_projection_single_point():
    # p = y - x, apex (2, 0): u_k = (1/(1-a)) * (2/(1-a))^k
    c = validate(Y - X, MPoly.constant(V, 1))
    t = pencil_projection(c, (2, 0), count=3)
    P = ("a",)
    shift = RatFunc.one(P) - RatFunc.variable(P, "a")
    expected = tuple(
        RatFunc.one(P) / shift * (RatFunc.constant(P, 2) / shift) ** k
        for k in range(3))
    assert t.entries == expected


def test_pencil_projection_fires_on_corrupted_chart_route(monkeypatch):
    # `residualtrace.radon` is the function; the module is reached by name
    module = importlib.import_module("residualtrace.radon")
    c = validate(Y * Y + X * Y - 1, MPoly.constant(V, 1))
    apex = (3, 1)
    t = pencil_projection(c, apex)
    assert not all(e.is_polynomial() for e in t.entries)
    honest = module._chart_traces
    a, b = MPoly.variable(C, "a"), MPoly.variable(C, "b")
    lift = a + 1

    def corrupted(current, k_max):
        # u_2 + b / (1 + a), as a pair
        pairs = list(honest(current, k_max))
        r, power = pairs[2]
        pairs[2] = (r * lift + b * power, power * lift)
        return tuple(pairs)

    monkeypatch.setattr(module, "_chart_traces", corrupted)
    with pytest.raises(DomainError, match="disagree"):
        pencil_projection(c, apex)

    def polar(current, k_max):
        # u_1 / (b + a - 3); b = x0 - a y0 on the pencil, so b + a - 3 vanishes there
        pairs = list(honest(current, k_max))
        r, power = pairs[1]
        pairs[1] = (r, power * (b + a - 3))
        return tuple(pairs)

    monkeypatch.setattr(module, "_chart_traces", polar)
    with pytest.raises(DomainError, match="polar set"):
        pencil_projection(c, apex)


# y^2 + xy - 1 at x = a y + b leads with (1 + a) y^2: the stream's c, which
# the pencil route shares, since c involves no offset
_LIFTED = validate(Y * Y + X * Y - 1, MPoly.constant(V, 1))


def _one_more_factor(pairs):
    """The pairs with u_2's power times c = 1 + a, R_2 left alone."""
    pairs = list(pairs)
    r, power = pairs[2]
    assert not r.is_zero()
    pairs[2] = (r, power * (MPoly.variable(power.vars, "a") + 1))
    return pairs


def test_pencil_fires_on_a_chart_power_with_one_more_factor(monkeypatch):
    module = importlib.import_module("residualtrace.radon")
    honest = module._chart_traces
    monkeypatch.setattr(module, "_chart_traces",
                        lambda current, k_max: tuple(_one_more_factor(honest(current, k_max))))
    with pytest.raises(DomainError, match="disagree"):
        pencil_projection(_LIFTED, (3, 1))


def test_pencil_fires_on_a_direct_power_with_one_more_factor(monkeypatch):
    module = importlib.import_module("residualtrace.radon")
    honest = module._line_traces
    pencil_route = ("a", "y")

    def corrupted(current, offsets, count):
        pairs = honest(current, offsets, count)
        if offsets[0].vars != pencil_route:
            return pairs
        return _one_more_factor(pairs)

    monkeypatch.setattr(module, "_line_traces", corrupted)
    with pytest.raises(DomainError, match="disagree"):
        pencil_projection(_LIFTED, (3, 1))


def test_radon_after_the_pencil_equals_a_cold_run():
    module = importlib.import_module("residualtrace.radon")
    k_max = 2 * _LIFTED.degree + 1
    module._chart_traces.cache_clear()
    cold = radon(_LIFTED, k_max)
    module._chart_traces.cache_clear()
    pencil_projection(_LIFTED, (3, 1))
    warm = radon(_LIFTED, k_max)
    assert warm == cold and [str(f) for f in warm] == [str(f) for f in cold]
    assert radon(_LIFTED, k_max) is not warm
    assert any(not f.is_polynomial() for f in warm)


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_count_is_refused(flag):
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    calls = [("count", lambda: traces(c, flag)),
             ("k_max", lambda: radon(c, flag)),
             ("count", lambda: pencil_projection(c, (3, 0), count=flag)),
             ("k_probe", lambda: is_radon_zero(c, flag))]
    for name, call in calls:
        with pytest.raises(DomainError, match=f"{name} = {flag} is a boolean"):
            call()


@pytest.mark.parametrize("n", [1, 2])
def test_the_zero_current_is_refused(n):
    # `reconstruct` returns it for zero traces; it has no fiber or chart traces
    for call in (lambda: traces(ZeroCurrent(n), 3), lambda: radon(ZeroCurrent(n), 3),
                 lambda: pencil_projection(ZeroCurrent(n), [1] * (n + 1))):
        with pytest.raises(DomainError, match="the zero current has no finite trace data"):
            call()


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("call, match", [
    (lambda flag: hankel(traces(validate(Y * Y - X, MPoly.constant(V, 1)), 3), flag),
     "Hankel size = {flag} is a boolean"),
    (lambda flag: line_chart(flag), "n = {flag} is a boolean"),
    (lambda flag: X ** flag, "nonnegative integers"),
    (lambda flag: RatFunc(X) ** flag, "nonnegative integers"),
    (lambda flag: closedness_check(radon(validate(Y * Y - X, MPoly.constant(V, 1)), 3), [flag]),
     "k = {flag} is a boolean"),
], ids=["hankel", "line_chart", "MPoly.pow", "RatFunc.pow", "closedness_window"])
def test_a_bool_size_or_power_is_refused(call, match, flag):
    # bool is an int subclass, so unchecked True passes as 1: a 1 x 1 Hankel
    # matrix, the n = 1 chart, the first power, closedness window 1
    with pytest.raises(DomainError, match=match.format(flag=flag)):
        call(flag)


def test_radon_returns_a_fresh_list_on_every_call():
    c = validate(Y * Y + X * Y - 1, MPoly.constant(V, 1))
    apex = (3, 1)
    count = 2 * c.degree + 2
    expected = radon(c, count - 1)
    projected = pencil_projection(c, apex)
    u = radon(c, count - 1)
    assert u == expected and u is not expected
    u[2] = u[2] + BV / (RatFunc.one(C) + A)
    u.append(RatFunc.one(C))
    assert radon(c, count - 1) == expected
    # a poisoned memo would make the pencil cross-check fire
    assert pencil_projection(c, apex) == projected
    radon(c, count - 1).clear()
    assert radon(c, count - 1) == expected


def test_pencil_after_radon_traces_the_chart_once(monkeypatch):
    module = importlib.import_module("residualtrace.radon")
    honest = module._line_traces
    seen = []

    def counting(current, offsets, count):
        seen.append(offsets[0].vars)
        return honest(current, offsets, count)

    monkeypatch.setattr(module, "_line_traces", counting)
    c = validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3))
    radon(c, 2 * c.degree + 1)
    # an equal current built anew shares the memo entry
    pencil_projection(validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3)), (3, 1))
    chart_route = line_chart(1).vars + ("y",)
    pencil_route = ("a", "y")
    assert seen == [chart_route, pencil_route]


def test_chart_memo_is_small():
    module = importlib.import_module("residualtrace.radon")
    maxsize = module._chart_traces.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 16


def test_pencil_projection_rejects_apex_on_support():
    c = validate(Y - X, MPoly.constant(V, 1))
    with pytest.raises(DomainError, match="support"):
        pencil_projection(c, (1, 1))


def test_pencil_projection_shape_checks():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    with pytest.raises(DomainError):
        pencil_projection(c, (1,))
    with pytest.raises(DomainError):
        pencil_projection(c, (3, 0), count=0)


def test_is_radon_zero():
    assert is_radon_zero(ZeroCurrent(1), 3)
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    assert not is_radon_zero(c, 4)
    with pytest.raises(DomainError):
        is_radon_zero(c, -1)


def _with_fiber(c, fiber):
    variables = c.base_vars + (fiber,)
    return validate(MPoly(variables, c.p.terms), MPoly(variables, c.r.terms))


@pytest.mark.parametrize("n, fiber", [
    (1, "y"), (1, "a"), (1, "b"), (2, "a1"), (2, "b2")])
def test_fiber_named_like_a_chart_variable(n, fiber):
    # the chart has a fiber variable of its own, so a current whose fiber
    # shares a slope or offset name has the same chart and pencil traces
    rng = Random(53 + n)
    W = ("x1", "x2", "y")
    first = (validate(Y * Y - X, MPoly.constant(V, 1)) if n == 1 else
             validate(MPoly.variable(W, "y") ** 2 - MPoly.variable(W, "x1"),
                      MPoly.variable(W, "x2")))
    currents = [first] + [random_current(rng, n=n, max_degree=3 - n, coeff_degree=1)
                          for _ in range(3)]
    for c in currents:
        renamed = _with_fiber(c, fiber)
        k = 2 * c.degree + n
        assert radon(renamed, k) == radon(c, k)
        assert is_radon_zero(renamed, 1) == is_radon_zero(c, 1)
        apex = (1, 5) if n == 1 else (1, 2, 5)
        while c.p.eval_exact(dict(zip(c.p.vars, apex))) == 0:
            apex = tuple(v + 1 for v in apex)
        assert pencil_projection(renamed, apex) == pencil_projection(c, apex)


def test_chart_traces_specialize_to_fiber_traces():
    # a = 0 freezes the line x = b; chart traces become plain traces in b.
    # This needs total degree <= fiber degree (true for products of affine
    # roots): otherwise substituting x = ay + b raises the y-degree and the
    # extra poles keep contributing at a = 0.
    rng = Random(47)
    for _ in range(5):
        c, _ = random_weighted_current(rng, n=1, count=rng.randint(1, 3))
        m = 2 * c.degree + 1
        u = radon(c, m)
        t = traces(c, m + 1)
        zero_a = {"a": MPoly.zero(("b",))}
        rename = {"x": MPoly.variable(("b",), "b")}
        for k in range(m + 1):
            assert u[k].subs(("b",), zero_a) == t[k].subs(("b",), rename)


def test_chart_traces_see_poles_missed_by_fibers():
    # p = y - x^2 meets the line x = ay + b twice for a != 0; the second
    # intersection escapes to infinity as a -> 0 but its residue does not
    # fade, so u_0 vanishes identically while the fiber trace u_0 = 2.
    c = validate(Y - X * X, MPoly.constant(V, 2))
    u = radon(c, 2)
    assert u[0].is_zero()
    assert traces(c, 1)[0] == RatFunc.constant(("x",), 2)
    assert closedness_check(u, range(2)) == []


def reference_violations(u, k_range):
    """The closedness identities on reduced quotients: `RatFunc.diff` and `==`."""
    n = len(u[0].vars) // 2
    a_names, b_names = u[0].vars[:n], u[0].vars[n:]
    return [(i + 1, k) for k in k_range for i in range(n)
            if u[k + n].diff(b_names[i]) != u[k + n - 1].diff(a_names[i])]


def _lifted_currents(seed, n, count):
    """Seeded currents whose chart traces carry denominators."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        c = random_current(rng, n=n, max_degree=2, coeff_degree=1, max_abs=3)
        if not all(f.is_polynomial() for f in radon(c, 2 * c.degree + n)):
            out.append(c)
    return out


def _ci_current_n2():
    # the n = 2 current of the CI's `radon --check-closedness` run
    W = ("x1", "x2", "y")
    x1, x2, y = (MPoly.variable(W, v) for v in W)
    p = (x1 * y * y).scale(-3) + y ** 3 - x1 * y + x1.scale(2) + x2.scale(2) + 1
    r = (x1 * x1 * y * y).scale(4) + x1 * x2 * y + (x1 * x1).scale(2) - 1
    return validate(p, r)


@pytest.mark.parametrize("c", _lifted_currents(6161, 1, 4) + _lifted_currents(6262, 2, 2)
                         + [_ci_current_n2(), validate(Y + (X * X).scale(2), MPoly.constant(V, 1))],
                         ids=["n1a", "n1b", "n1c", "n1d", "n2a", "n2b", "ci", "monomial"])
def test_cleared_closedness_matches_ratfunc_reference(c):
    # closedness_check clears each trace with a denominator to integer
    # coefficients, numerator and denominator by one lcm; the reference
    # differentiates the reduced quotients themselves
    n, k_top = c.n, 2 * c.degree
    u = radon(c, k_top + n)
    windows = range(k_top + 1)
    assert closedness_check(u, windows) == []
    chart = line_chart(n)
    a = RatFunc.variable(chart.vars, chart.a_names[0])
    b = RatFunc.variable(chart.vars, chart.b_names[-1])
    lift = a + 1
    corruptions = [
        lambda f: f + b / lift,
        lambda f: f + a / (lift * lift),
        lambda f: RatFunc(f.num.scale(2), f.den),
        lambda f: RatFunc(f.num),  # a polynomial entry among traces with denominators
        lambda f: RatFunc(f.num, (a * a).num),  # a one-term denominator, cleared like any other
    ]
    # the CI current's references take longest: corrupt two entries there
    spots = range(len(u)) if c.n == 1 else (1, len(u) - 2)
    seen = set()
    for j in spots:
        for corrupt in corruptions:
            bad = list(u)
            bad[j] = corrupt(u[j])
            expected = reference_violations(bad, windows)
            assert closedness_check(bad, windows) == expected
            seen.update(expected)
    assert seen
