"""Degree detection, trace inversion, and rationality of series samples."""

import importlib
from fractions import Fraction
from random import Random

import pytest

from residualtrace.algebra import MPoly, RatFunc, dense, solve_linear
from residualtrace.currents import ResidualCurrent, ZeroCurrent, validate
from residualtrace.errors import (
    ContinuationError,
    DegreeDetectionError,
    DomainError,
    SingularSystemError,
)
from residualtrace.reconstruct import (
    _POINT_SEEDS,
    ReconstructionReport,
    SeriesSample,
    _modular_failures,
    continue_current,
    detect_rational,
    reconstruct,
    sample_series,
)
from residualtrace.residues import trace_stream
from residualtrace.sampling import random_current
from residualtrace.traces import TraceSequence, hankel, traces
from residualtrace.verify import check_roundtrip

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")
B = ("x",)
XB = MPoly.variable(B, "x")
XR = RatFunc.variable(B, "x")


def seq(*values):
    return TraceSequence(entries=tuple(
        v if isinstance(v, RatFunc) else RatFunc.constant(B, v) for v in values))


def test_detect_degree_running_example():
    t = TraceSequence(entries=(
        RatFunc.zero(B), RatFunc.one(B), RatFunc.zero(B), XR,
        RatFunc.zero(B), XR * XR))
    assert reconstruct(t, 3).degree == 2


def test_detect_degree_zero_sequence():
    assert reconstruct(seq(0, 0, 0, 0), 2).degree == 0


def test_detect_degree_rejects_accidental_minor():
    # H_1 = [2] is nonsingular but its depth-1 recurrence fails on the tail
    t = seq(2, 1, 1, 1, 1, 1)
    assert reconstruct(t, 3).degree == 2


def test_detect_degree_failure_reported():
    # factorial growth satisfies no fixed-depth constant recurrence
    t = seq(1, 1, 2, 6, 24, 120)
    with pytest.raises(DegreeDetectionError) as exc:
        reconstruct(t, 2)
    # u_2 - u_1 = 1 and u_4 - 4 u_3 + 2 u_2 = 4 are the first nonzero windows
    assert exc.value.outcomes == (1, 2)
    assert "d=1 fails at window 1, d=2 fails at window 2" in str(exc.value)
    with pytest.raises(DomainError):
        reconstruct(t, 0)


def test_detect_degree_failure_names_singular_degrees():
    # H_1 = [0] and H_3 are singular; u_{k+2} = 0 breaks at u_5 = 1
    with pytest.raises(DegreeDetectionError) as exc:
        reconstruct(seq(0, 1, 0, 0, 0, 1), 3)
    assert exc.value.outcomes == (None, 3, None)
    assert "d=1 singular, d=2 fails at window 3, d=3 singular" in str(exc.value)


def exact_detect(t, d_max):
    """Reference degree detection: exact solve and RatFunc recurrence for every d.

    Returns (d, a, None) on success, else (None, None, outcomes) with
    outcomes[d - 1] None for a singular H_d and otherwise the list of every
    failing window.
    """
    outcomes = []
    for d in range(1, min(d_max, len(t) // 2) + 1):
        try:
            sol = solve_linear(hankel(t, d), [-t[d + i] for i in range(d)])
        except SingularSystemError:
            outcomes.append(None)
            continue
        fails = [k for k in range(len(t) - d)
                 if not sum((sol[i] * t[k + i] for i in range(d)), t[k + d]).is_zero()]
        if not fails:
            return d, [sol[d - i] for i in range(1, d + 1)], None
        outcomes.append(fails)
    return None, None, outcomes


def descending(f, fiber, d):
    """The coefficients of fiber^(d-1) .. fiber^0 in f, as RatFuncs."""
    coeffs = f.as_univariate(fiber)
    return tuple(RatFunc(coeffs[k]) if k < len(coeffs) else RatFunc.zero(coeffs[0].vars)
                 for k in range(d - 1, -1, -1))


def assert_detect_matches_exact(t, d_max):
    d, a, outcomes = exact_detect(t, d_max)
    if d is not None:
        report = reconstruct(t, d_max)
        assert report.degree == d
        candidate = report.current
        if candidate is not None:
            assert descending(candidate.p, candidate.fiber, d) == tuple(a)
            assert traces(candidate, len(t)).entries == t.entries
        return
    with pytest.raises(DegreeDetectionError) as exc:
        reconstruct(t, d_max)
    assert len(exc.value.outcomes) == len(outcomes)
    for got, fails in zip(exc.value.outcomes, outcomes):
        # the filter may name a later failing window than the first one
        assert (got is None) if fails is None else (got in fails)


def with_denominators(t, q):
    """u_k / q^k, each entry recovered from its Taylor series by detect_rational."""
    out = []
    for k, u in enumerate(t.entries):
        f = u / RatFunc(q) ** k
        m, nn = max(0, f.num.degree()), f.den.degree()
        g = detect_rational(sample_series(f, 0, m + nn + 2), m, nn)
        assert g == f
        out.append(g)
    return TraceSequence(entries=tuple(out))


def test_detect_matches_exact_reference():
    rng = Random(31)
    for i in range(24):
        n = 1 if i % 3 else 2
        c = random_current(rng, n=n, max_degree=3 if n == 1 else 2,
                           coeff_degree=2 if n == 1 else 1)
        d = c.degree
        t = traces(c, 2 * d + 2)
        for d_max in {max(1, d - 1), d, d + 1}:
            assert_detect_matches_exact(t, d_max)
        perturbed = list(t.entries)
        perturbed[rng.randrange(len(t))] += 1
        assert_detect_matches_exact(TraceSequence(entries=tuple(perturbed)), d + 1)
        if n == 1:
            q = XB + rng.choice([-3, -1, 2, 5])
            rational = with_denominators(t, q)
            assert_detect_matches_exact(rational, d)
            perturbed = list(rational.entries)
            perturbed[-1] += 1
            assert_detect_matches_exact(TraceSequence(entries=tuple(perturbed)), d)


def test_modular_filter_evaluates_each_entry_exactly():
    p = (1 << 61) - 1
    rng = Random(47)
    checked = unusable = 0
    for _ in range(6):
        c = random_current(rng, n=1, max_degree=3, coeff_degree=2)
        t = traces(c, 2 * c.degree + 2)
        # x - 101 vanishes at the first point; 2x - 3 gives fractional coefficients
        for q in (XB + rng.choice([-3, -1, 2, 5]), XB - 101, 2 * XB - 3):
            for f in with_denominators(t, q).entries:
                for s in _POINT_SEEDS:
                    got = dense.residue(f.num.terms, f.den.terms, [s])
                    point = {"x": Fraction(s)}
                    if f.den.eval_exact(point).numerator % p == 0:
                        assert got is None
                        unusable += 1
                        continue
                    exact = f.eval_exact(point)
                    assert got == exact.numerator * pow(exact.denominator, -1, p) % p
                    checked += 1
    assert checked > 0 and unusable > 0


def test_coefficient_denominator_p_leaves_the_exact_solve_to_decide():
    p = (1 << 61) - 1
    c = random_current(Random(48), n=1, max_degree=3, coeff_degree=2)
    c = ResidualCurrent(p=c.p, r=c.r.scale(Fraction(1, p)))
    t = traces(c, 2 * c.degree + 2)
    assert _modular_failures(t, c.degree) == [None] * c.degree
    assert reconstruct(t, c.degree).current == c


@pytest.mark.parametrize("u0, solves", [
    # H_1(x0) = x0 - 101 vanishes at the first point: the exact solve decides
    (XR - 101, 1),
    # a trace pole at the first point: the second point rejects d = 1
    (1 / (XR - 101), 0),
    # poles at every point of the sequence: no filter, the exact solve decides
    (1 / ((XR - 101) * (XR - 211) * (XR - 307)), 1),
    # control: the first point rejects d = 1 without an exact solve
    (XR - 99, 0),
])
def test_detect_modular_fallback(monkeypatch, u0, solves):
    module = importlib.import_module("residualtrace.reconstruct")
    calls = []

    def counting_solve(m, rhs):
        calls.append(m.rows)
        return solve_linear(m, rhs)

    t = seq(u0, 1, 1, 2)
    assert_detect_matches_exact(t, 1)
    monkeypatch.setattr(module, "solve_linear", counting_solve)
    with pytest.raises(DegreeDetectionError) as exc:
        reconstruct(t, 1)
    assert exc.value.outcomes == (1,)
    assert len(calls) == solves


def test_polynomial_candidate_rejected_by_its_traces(trace_streams):
    # u_k = 2^k (x - 101) for k < 3 vanishes at the filter's first point, so
    # H_1(x0) is singular there; the exact solve gives the polynomial
    # candidate p = y - 2, r = x - 101, whose u_3 differs from t's
    t = seq(XR - 101, 2 * XR - 202, 4 * XR - 404, 8 * XR - 807)
    with pytest.raises(DegreeDetectionError) as exc:
        reconstruct(t, 2)
    # index 3 is the first that differs, so window 3 - d = 2 fails; H_2 is singular
    assert exc.value.outcomes == (2, None)
    assert trace_streams == [(Y - 2, X - 101, 4)]
    assert_detect_matches_exact(t, 2)


def test_reconstruct_running_example():
    t = TraceSequence(entries=(RatFunc.zero(B), RatFunc.one(B), RatFunc.zero(B), XR))
    report = reconstruct(t, 2)
    assert report.degree == 2
    assert report.residual_violations == 0
    assert not report.meromorphic_coefficients
    assert report.current == validate(Y * Y - X, MPoly.constant(V, 1))


def test_reconstruct_split_example():
    report = reconstruct(seq(2, 1, 1, 1), 2)
    assert report.current == validate(Y * Y - Y, Y.scale(2) - 1)


def test_reconstruct_single_point():
    # u_k = 5 * 2^k comes from p = y - 2, r = 5
    report = reconstruct(seq(5, 10, 20, 40), 2)
    assert report.degree == 1
    assert report.current == validate(Y - 2, MPoly.constant(V, 5))


def test_reconstruct_zero_sentinel():
    report = reconstruct(seq(0, 0, 0, 0), 3)
    assert report.degree == 0
    assert report.current == ZeroCurrent(1)
    assert report.residual_violations == 0


def test_reconstruct_reproduces_traces():
    rng = Random(23)
    for _ in range(10):
        c = random_current(rng, n=1, max_degree=4, coeff_degree=2)
        t = traces(c, 2 * c.degree + 2)
        report = reconstruct(t, c.degree)
        assert report.current == c
        assert traces(report.current, len(t)).entries == t.entries


@pytest.fixture
def recurrence_sums(monkeypatch) -> list:
    """Each (d, j) at which `reconstruct` evaluates `_recurrence_sum` from now."""
    module = importlib.import_module("residualtrace.reconstruct")
    honest = module._recurrence_sum
    sums = []

    def recording(u, a, m, j):
        sums.append((len(a), j))
        return honest(u, a, m, j)

    monkeypatch.setattr(module, "_recurrence_sum", recording)
    return sums


def test_roundtrip_traces_each_current_once(trace_streams, recurrence_sums):
    # the acceptance test finds the traces the roundtrip just computed
    report = check_roundtrip(1729, 40)
    assert report["pass"]
    assert len(trace_streams) == report["instances"] == 40
    # a polynomial candidate sums only r's coefficients j < d: trace equality
    # is its only certificate, and no window is scanned
    assert recurrence_sums and all(j < d for d, j in recurrence_sums)


def test_filter_rejected_degree_clears_nothing(monkeypatch):
    # the second point of the filter rejects d = 1: no solve, so nothing is cleared
    module = importlib.import_module("residualtrace.reconstruct")
    clears = []
    honest = module.clear_denominators
    monkeypatch.setattr(module, "clear_denominators", lambda fs: clears.append(fs) or honest(fs))
    with pytest.raises(DegreeDetectionError):
        reconstruct(seq(1 / (XR - 101), 1, 1, 2), 1)
    assert clears == []


def test_meromorphic_candidate_is_checked_window_by_window(trace_streams, recurrence_sums):
    # the running example's traces over (x + 2)^k: p = y^2 - x / (x + 2)^2
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    q = XB + 2
    t = with_denominators(traces(c, 6), q)
    del trace_streams[:]
    report = reconstruct(t, 2)
    # (a_1, a_2) = (0, -x / (x + 2)^2) is off the ring: the one window scan
    # covers j = 2d .. 5, since the solve makes windows 0 .. d-1 hold
    assert recurrence_sums == [(2, 4), (2, 5)]
    assert trace_streams == []
    assert report == ReconstructionReport(
        degree=2, current=None, residual_violations=0, meromorphic_coefficients=True)


def ratfunc_recurrence_sums(t, a):
    """u_j + a_1 u_{j-1} + ... + a_j u_0 for j < d = len(a), in RatFunc arithmetic."""
    return tuple(sum((a[i - 1] * t[j - i] for i in range(1, j + 1)), t[j])
                 for j in range(len(a)))


def test_candidate_matches_ratfunc_recurrence_sums():
    # traces with and without denominators: u_k / q^k (meromorphic a),
    # u_k / q (polynomial a, rational u) and the traces themselves
    rng = Random(3232)
    cases = [(seq(*(RatFunc.constant(B, 2 ** k) / RatFunc(XB + 1) for k in range(4))), 1)]
    while len(cases) < 19:
        c = random_current(rng, n=1, max_degree=3, coeff_degree=1)
        if c.degree < 2:
            continue
        t = traces(c, 2 * c.degree + 2)
        q = XB + rng.randint(1, 3) if len(cases) % 2 else XB * XB + rng.randint(1, 3)
        cases += [(t, c.degree), (with_denominators(t, q), c.degree),
                  (TraceSequence(entries=tuple(u / RatFunc(q) for u in t.entries)), c.degree)]
    polynomial = meromorphic = 0
    for t, d_max in cases:
        report = reconstruct(t, d_max)
        d, a, _ = exact_detect(t, d_max)
        assert report.degree == d
        off_ring = any(not f.is_polynomial() for f in (*a, *t.entries[:d]))
        assert (report.current is None) == off_ring == report.meromorphic_coefficients
        if not off_ring:
            c = report.current
            assert descending(c.p, c.fiber, d) == tuple(a)
            assert descending(c.r, c.fiber, d) == ratfunc_recurrence_sums(t, a)
        polynomial += not off_ring
        meromorphic += off_ring
    assert polynomial >= 6 and meromorphic >= 6


def test_wrong_reconstruction_misses_the_memo(monkeypatch, trace_streams):
    c = validate(Y * Y + X * Y - 1, Y.scale(2) + X.scale(3))
    t = traces(c, 2 * c.degree + 2)  # warms the memo
    # the package attribute `reconstruct` is the function, not the module
    module = importlib.import_module("residualtrace.reconstruct")
    honest = module.ResidualCurrent
    monkeypatch.setattr(module, "ResidualCurrent", lambda p, r: honest(p=p, r=r + 1))
    # the candidate's traces differ from t, so detection rejects d = 2
    with pytest.raises(DegreeDetectionError) as exc:
        reconstruct(t, c.degree)
    assert isinstance(exc.value.outcomes[1], int)
    # the candidate is off by one, so it is traced in full
    assert trace_streams == [(c.p, c.r, len(t)), (c.p, c.r + 1, len(t))]


def test_reconstruct_picks_a_fresh_fiber_name():
    # base variables y and y_ are taken, so the fiber variable is y__
    W = ("y", "y_", "y__")
    y0, y1, f = (MPoly.variable(W, v) for v in W)
    c = validate(f * f - y0 * f + y1, f + 1)
    t = traces(c, 6)
    assert t.vars == ("y", "y_")
    assert reconstruct(t, 2).current == c


def test_reconstruct_minimality_on_squared_factor():
    # p = (y - x)^2 with gcd(r, p) = 1: the annihilator has degree exactly 2
    p = (Y - X) * (Y - X)
    c = validate(p, MPoly.constant(V, 1))
    t = traces(c, 6)
    report = reconstruct(t, 3)
    assert report.degree == 2
    assert report.current == c


def test_reconstruct_reduces_a_non_coprime_pair():
    # (p g, r g) has the traces of (p, r); the reduced current comes back
    rng = Random(31)
    for _ in range(12):
        c = random_current(rng, n=1, max_degree=3, coeff_degree=2)
        g = Y - X.scale(rng.randint(-3, 3)) - rng.randint(-3, 3)
        d = c.degree + 1
        t = TraceSequence(entries=tuple(trace_stream(c.r * g, c.p * g, 2 * d + 2)))
        for d_max in (d - 1, d, d + 2):
            report = reconstruct(t, d_max)
            assert report.degree == c.degree
            assert report.current == c


def test_reconstruct_flags_meromorphic_coefficients(recurrence_sums):
    # u_k = 2^k / x: recurrence coefficient is polynomial but r_0 = 1/x is not
    entries = tuple(RatFunc.constant(B, 2 ** k) / XR for k in range(4))
    report = reconstruct(TraceSequence(entries=entries), 2)
    assert report.degree == 1
    assert report.current is None
    assert report.meromorphic_coefficients
    assert report.residual_violations == 0
    # a_1 = -2 is polynomial, the traces are not: windows 1 and 2 are scanned
    assert recurrence_sums == [(1, 2), (1, 3)]


def test_detect_rational_geometric():
    s = SeriesSample(base_point=0, coefficients=tuple(Fraction(1) for _ in range(8)))
    f = detect_rational(s, 0, 1)
    one = MPoly.constant(B, 1)
    assert f == RatFunc(one, one - XB)


def test_detect_rational_rejects_exp_prefix():
    coeffs = tuple(Fraction(1, __import__("math").factorial(k)) for k in range(8))
    assert detect_rational(SeriesSample(0, coeffs), 3, 3) is None


def test_detect_rational_rejects_near_geometric():
    # 1, 3, 9, 28: the unique (1,1) candidate 1/(1-3x) fails at index 3
    s = SeriesSample(0, (Fraction(1), Fraction(3), Fraction(9), Fraction(28)))
    assert detect_rational(s, 1, 1) is None


def test_detect_rational_zero_series():
    s = SeriesSample(0, (Fraction(0),) * 6)
    f = detect_rational(s, 2, 2)
    assert f is not None and f.is_zero()


def test_detect_rational_needs_enough_coefficients():
    s = SeriesSample(0, (Fraction(1),) * 4)
    with pytest.raises(DomainError):
        detect_rational(s, 2, 2)


def test_detect_rational_roundtrip():
    rng = Random(5)
    done = 0
    while done < 12:
        num = MPoly(B, {(k,): Fraction(rng.randint(-3, 3)) for k in range(3)})
        den = MPoly(B, {(k,): Fraction(rng.randint(-3, 3)) for k in range(2)})
        den = den + XB * XB
        if num.is_zero():
            continue
        f = RatFunc(num, den)
        x0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        try:
            s = sample_series(f, x0, 8)
        except DomainError:
            continue
        g = detect_rational(s, 2, 2)
        assert g == f
        # the same answer from the sample rebuilt from its Fraction coefficients
        h = detect_rational(SeriesSample(x0, s.coefficients), 2, 2)
        assert h == g
        for mine, theirs in ((h.num, g.num), (h.den, g.den)):
            assert [(k, type(v)) for k, v in mine.terms.items()] == \
                [(k, type(v)) for k, v in theirs.terms.items()]
        done += 1


@pytest.mark.parametrize("nn", [0, 1, 2])
def test_detect_rational_certificate_reads_every_free_coefficient(nn):
    # with bounds (m, nn) the candidate is fixed by c_0 .. c_{m+nn}; c_{m+nn+1}
    # is the first coefficient it leaves free, and c_{L-1} the last
    m = 2
    one = MPoly.constant(B, 1)
    num = MPoly(B, {(0,): Fraction(3, 2), (1,): Fraction(-1), (2,): Fraction(5)})
    dens = [one, one - XB.scale(2), one - XB.scale(2) + (XB * XB).scale(3)][:nn + 1]
    big_l = m + nn + 5
    for den in dens:
        f = RatFunc(num, den)
        coeffs = list(sample_series(f, 0, big_l).coefficients)
        assert detect_rational(SeriesSample(0, coeffs), m, nn) == f
        for k in (m + nn + 1, big_l - 1):
            changed = list(coeffs)
            changed[k] += Fraction(1, 7)
            assert detect_rational(SeriesSample(0, changed), m, nn) is None, (f, k)


def test_sample_series_geometric():
    f = RatFunc(MPoly.constant(B, 1), MPoly.constant(B, 1) - XB)
    s = sample_series(f, 0, 5)
    assert s.coefficients == (Fraction(1),) * 5
    # at x0 = 1/2 the same function expands with powers of 2
    s2 = sample_series(f, Fraction(1, 2), 4)
    assert s2.coefficients == (Fraction(2), Fraction(4), Fraction(8), Fraction(16))


def test_sample_series_polar_point_rejected():
    f = RatFunc(MPoly.constant(B, 1), MPoly.constant(B, 1) - XB)
    with pytest.raises(DomainError, match="polar"):
        sample_series(f, 1, 4)


def test_continue_current_roundtrip():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    t = traces(c, 6)
    series = [sample_series(e, 1, 8) for e in t.entries]
    report = continue_current(series, 2, 2, 0)
    assert report.current == c


def test_continue_current_names_failing_trace():
    good = [sample_series(RatFunc.constant(B, 1), 0, 8) for _ in range(4)]
    bad = SeriesSample(0, tuple(
        Fraction(1, __import__("math").factorial(k)) for k in range(8)))
    with pytest.raises(ContinuationError) as exc:
        continue_current([bad] + good[1:], 2, 3, 3)
    assert exc.value.index == 0


def test_continue_current_zero_series():
    series = [SeriesSample(0, (Fraction(0),) * 6) for _ in range(4)]
    report = continue_current(series, 2, 2, 2)
    assert report.current == ZeroCurrent(1)


def test_continue_current_input_checks():
    s = sample_series(RatFunc.one(B), 0, 6)
    with pytest.raises(DomainError):
        continue_current([s, s, s], 2, 2, 2)
    other = sample_series(RatFunc.one(B), 1, 6)
    with pytest.raises(DomainError, match="base point"):
        continue_current([s, s, s, other], 2, 2, 2)
    # an empty batch with d_max <= 0 is refused before any sample is read
    for d_max in (0, -1):
        with pytest.raises(DomainError, match="d_max must be at least 1"):
            continue_current([], d_max, 1, 1)
    t = seq(1, 2, 4, 8)
    with pytest.raises(DomainError, match="count must be at least 1"):
        sample_series(XR, 0, 0)
    with pytest.raises(DomainError, match="degree bounds must be nonnegative"):
        detect_rational(s, 3, -1)
    with pytest.raises(DomainError, match="d_max must be at least 1"):
        reconstruct(t, 0)
    # a float count is no bool: it fails where it is used
    for call in (lambda: sample_series(XR, 0, 3.0), lambda: detect_rational(s, 3.0, 0),
                 lambda: reconstruct(t, 2.0), lambda: continue_current([s] * 4, 2.0, 3, 0)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_count_or_bound_is_refused(flag):
    s = sample_series(RatFunc.one(B), 0, 8)
    t = seq(1, 2, 4, 8)
    calls = [("count", lambda: sample_series(XR, 0, flag)),
             ("degree bounds", lambda: detect_rational(s, 3, flag)),
             ("degree bounds", lambda: detect_rational(s, flag, 0)),
             ("d_max", lambda: reconstruct(t, flag)),
             ("d_max", lambda: continue_current([s] * 4, flag, 3, 0))]
    for name, call in calls:
        with pytest.raises(DomainError, match=f"{name} = {flag} is a boolean"):
            call()
