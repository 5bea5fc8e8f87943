"""Acceptance gate: the nine end-to-end guarantees of the package.

Each test is one criterion and prints one PASS/FAIL line with its measured
numbers (visible with -s, or in the failure report).  The criteria:

 1. roundtrip inversion of the trace map on 200 random currents, < 60 s
 2. the depth-d recurrence annihilates traces for k <= 2d, exactly
 3. Hankel determinant = separation^2 * weights on point-mass data, exactly,
    plus the documented sign of the anti-ordered variant
 4. numeric oracles (contour quadrature, pointwise residues) agree with the
    exact residue sums within 1e-8 at 20 specializations per instance
 5. chart-trace closedness d/db u_{k+n} = d/da u_{k+n-1}, exactly
 6. series-sampled traces recover the hidden current in >= 95 of 100 runs
 7. trace injectivity: zero maps to zero, distinct currents have distinct
    traces, nonzero currents show a nonzero trace by index 2d
 8. pencil projections equal the chart substitution b = x0 - a y0, exactly
 9. CLI determinism and byte-identical trace -> reconstruct piping

Criteria 1, 2, 3 and 5 run the seeded suites of `residualtrace.verify`
(the ones `residual-trace verify` runs) with their own seeds and counts;
criterion 4 draws its own points and compares each through the same
per-point check as the `verify` oracle suite.
"""

import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from residualtrace.algebra import MPoly, RatFunc
from residualtrace.currents import ZeroCurrent, support_discriminant
from residualtrace.errors import ContinuationError, DomainError
from residualtrace.jsonio import canonical_dumps, current_to_obj
from residualtrace.radon import pencil_projection, radon
from residualtrace.reconstruct import continue_current, reconstruct, sample_series
from residualtrace.residues import RationalForm1D
from residualtrace.sampling import base_vars, random_current, random_rational_point
from residualtrace.traces import TraceSequence, traces
from residualtrace.verify import (
    _oracle_one,
    check_closedness,
    check_hankel_identity,
    check_recurrence,
    check_roundtrip,
)

SEED = 1729
TOLERANCE = 1e-8


def report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def report_suite(suite: dict, instances: int, label: str, detail: str, ok=True):
    """One criterion run through a `verify` suite: it must pass on all its instances."""
    ok = ok and suite["pass"] and suite["instances"] == instances
    report(ok, label, f"{suite['instances']}/{instances} {detail}, "
                      f"{suite['failures']} failures")


def test_criterion_1_roundtrip_inversion():
    start = time.monotonic()
    suite = check_roundtrip(SEED, 200)
    elapsed = time.monotonic() - start
    report_suite(suite, 200, "criterion 1 (roundtrip inversion)",
                 f"currents reconstructed exactly, {elapsed:.1f} s < 60 s",
                 ok=elapsed < 60.0)


def test_criterion_2_recurrence_identity():
    # same family as criterion 1; 3d + 1 entries give windows k = 0 .. 2d
    report_suite(check_recurrence(SEED, 200), 200, "criterion 2 (trace recurrence)",
                 "currents annihilated for k <= 2d")


def test_criterion_3_hankel_determinant():
    report_suite(check_hankel_identity(SEED + 2, 50), 50,
                 "criterion 3 (Hankel determinant)",
                 "point-mass currents with exact separation^2 * weights "
                 "and both anti-ordered signs")


def test_criterion_4_numeric_oracle():
    rng = Random(SEED + 3)
    results = []
    instances = 0
    while instances < 6:
        n = 1 if instances % 3 else 2
        c = random_current(rng, n=n, max_degree=4 if n == 1 else 3,
                           coeff_degree=2, max_abs=3)
        disc = support_discriminant(c)
        points = []
        for _ in range(400):
            cand = random_rational_point(rng, n, span=4)
            if abs(disc.eval_exact(cand)) >= Fraction(1, 100):
                points.append(cand)
                if len(points) == 20:
                    break
        if len(points) < 20:
            continue
        k = rng.randint(0, c.degree)
        form = RationalForm1D(c.r * MPoly.variable(c.p.vars, c.fiber) ** k, c.p)
        results += [_oracle_one(form, point) for point in points]
        instances += 1
    # _oracle_one reports an oracle exception or a non-finite error as a reason
    failed = [why or f"error {e:.3g}" for e, why in results
              if why is not None or not e <= TOLERANCE]
    worst = max((e for e, _ in results if e is not None), default=0.0)
    report(not failed, "criterion 4 (numeric oracle)",
           f"{instances} instances x 20 points ({len(results)} comparisons), "
           f"max abs error {worst:.3g} <= {TOLERANCE}, {len(failed)} failures"
           + (f" (first: {failed[0]})" if failed else ""))


def test_criterion_5_closedness():
    # 10 currents with n = 1 (d <= 4), then 5 with n = 2 (d <= 2)
    report_suite(check_closedness(SEED + 4, 15), 15, "criterion 5 (chart closedness)",
                 "currents closed for all i <= n and k <= 2d")


def test_criterion_6_continuation():
    rng = Random(SEED + 5)
    recovered = 0
    reported_failures = 0
    total = 100
    for _ in range(total):
        c = random_current(rng, n=1, max_degree=3, coeff_degree=2, max_abs=3)
        d = c.degree
        t = traces(c, 2 * d + 2)
        num_bound = max(max(e.as_poly().degree("x"), 0) for e in t.entries)
        den_bound = 1
        length = 2 * (num_bound + den_bound) + 2
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        series = [sample_series(e, x0, length) for e in t.entries]
        try:
            out = continue_current(series, d, num_bound, den_bound)
        except (ContinuationError, DomainError):
            reported_failures += 1
            continue
        if out.current == c:
            recovered += 1
    report(recovered >= 95, "criterion 6 (series continuation)",
           f"{recovered}/{total} hidden currents recovered exactly, "
           f"{reported_failures} reported degeneracies")


def test_criterion_7_trace_injectivity():
    # zero sequence -> zero sentinel
    zero = TraceSequence(entries=tuple(RatFunc.zero(("x",)) for _ in range(6)))
    sentinel_ok = reconstruct(zero, 3).current == ZeroCurrent(1)

    rng = Random(SEED + 6)
    family = []
    for _ in range(25):
        c = random_current(rng, n=1, max_degree=4, coeff_degree=2)
        if c not in family:
            family.append(c)
    horizon = 2 * max(c.degree for c in family) + 1
    tables = [traces(c, horizon).entries for c in family]
    pair_collisions = sum(
        1 for i in range(len(family)) for j in range(i + 1, len(family))
        if tables[i] == tables[j])
    missing_nonzero = sum(
        1 for c, tab in zip(family, tables)
        if all(e.is_zero() for e in tab[:2 * c.degree + 1]))
    ok = sentinel_ok and pair_collisions == 0 and missing_nonzero == 0
    report(ok, "criterion 7 (trace injectivity)",
           f"zero sentinel {'ok' if sentinel_ok else 'BROKEN'}, "
           f"{len(family)} currents pairwise distinct within {horizon} traces "
           f"({pair_collisions} collisions), "
           f"{missing_nonzero} nonzero currents with silent trace prefix")


def test_criterion_8_pencil_compatibility():
    rng = Random(SEED + 7)
    instances = 0
    bad = 0
    while instances < 50:
        n = 1 if instances % 4 else 2
        c = random_current(rng, n=n, max_degree=3 if n == 1 else 2,
                           coeff_degree=2 if n == 1 else 1, max_abs=3)
        apex = None
        for _ in range(40):
            cand = [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                    for _ in range(n + 1)]
            assign = dict(zip(base_vars(n), cand[:n]))
            assign[c.fiber] = cand[n]
            if c.p.eval_exact(assign) != 0:
                apex = cand
                break
        if apex is None:
            continue
        count = 2 * c.degree + 2
        t = pencil_projection(c, apex, count=count)
        # independent route: substitute the pinned offsets into chart traces
        u = radon(c, count - 1)
        chart_a = tuple(f"a{i}" for i in range(1, n + 1)) if n > 1 else ("a",)
        chart_b = tuple(f"b{i}" for i in range(1, n + 1)) if n > 1 else ("b",)
        y0 = apex[n]
        offsets = {
            chart_b[i]: MPoly.constant(chart_a, apex[i])
            - MPoly.variable(chart_a, chart_a[i]).scale(y0)
            for i in range(n)
        }
        substituted = tuple(f.subs(chart_a, offsets) for f in u)
        if substituted != t.entries:
            bad += 1
        instances += 1
    report(bad == 0, "criterion 8 (pencil compatibility)",
           f"{instances} apex projections equal the chart substitution, "
           f"{bad} mismatches")


def test_criterion_9_cli_determinism():
    rng = Random(SEED + 8)
    corpus = [random_current(rng, n=1, max_degree=4, coeff_degree=2)
              for _ in range(14)]
    corpus += [random_current(rng, n=2, max_degree=2, coeff_degree=1)
               for _ in range(6)]

    def run(args, payload):
        return subprocess.run(
            [sys.executable, "-m", "residualtrace", *args],
            input=payload, capture_output=True, text=True, timeout=300)

    bad = 0
    for c in corpus:
        blob = canonical_dumps(current_to_obj(c))
        first = run(["trace"], blob)
        second = run(["trace"], blob)
        back = run(["reconstruct"], first.stdout)
        ok = (first.returncode == second.returncode == back.returncode == 0
              and first.stdout == second.stdout
              and back.stdout == blob)
        if not ok:
            bad += 1
    report(bad == 0, "criterion 9 (CLI determinism)",
           f"{len(corpus)} corpus currents: repeated runs byte-identical, "
           f"trace -> reconstruct is the identity, {bad} failures")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
