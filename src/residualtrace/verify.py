"""Self-check suites: exact identities plus the numeric oracle, seeded.

Each suite draws its own deterministic family from one Random seed, so a
suite's report is a pure function of its seed and count, and
`verify_report`, which runs every suite at its default count, of its
seed.  The numeric oracle passes an instance whose absolute error is at
most `TOLERANCE`.  The CLI exposes `verify_report` through the `verify`
subcommand, and the acceptance gate (`tests/test_acceptance.py`, criteria
1-3 and 5) runs the suites with its own seeds and larger counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from .algebra import FracMatrix, MPoly, RatFunc, determinant
from .currents import support_discriminant
from .errors import DomainError
from .radon import closedness_check, radon
from .reconstruct import reconstruct
from .residues import (
    RationalForm1D,
    contour_oracle,
    pointwise_residues,
    residue_sum,
)
from .sampling import random_current, random_rational_point, random_weighted_current
from .traces import hankel, recurrence_check, traces

DEFAULT_SEED = 1729
TOLERANCE = 1e-8


def _mixed_family(rng: Random, count: int, n1: tuple[int, int] = (5, 3),
                  n2: tuple[int, int] = (3, 2)):
    """count currents, two thirds with n=1 and one third with n=2.

    n1 and n2 are the (max_degree, coeff_degree) bounds of each part; the
    n=1 currents are drawn first.
    """
    split = count - count // 3
    family = [random_current(rng, n=1, max_degree=n1[0], coeff_degree=n1[1])
              for _ in range(split)]
    family += [random_current(rng, n=2, max_degree=n2[0], coeff_degree=n2[1])
               for _ in range(count - split)]
    return family


def _suite(name: str, instances: int, failures: list[int], **extra) -> dict:
    """One suite's report: its failed instance indices, any extra fields, and pass."""
    return {"name": name, "instances": instances, "failures": len(failures),
            "failed_indices": failures, **extra, "pass": not failures}


def _family_suite(name: str, family: list, holds) -> dict:
    """One suite's report over a drawn family: member idx fails unless holds(member)."""
    return _suite(name, len(family),
                  [idx for idx, member in enumerate(family) if not holds(member)])


def check_roundtrip(seed: int, count: int = 40) -> dict:
    """traces then reconstruct must reproduce every current exactly."""
    def holds(c):
        report = reconstruct(traces(c, 2 * c.degree + 2), c.degree)
        return report.current == c and report.residual_violations == 0
    return _family_suite("roundtrip-inversion", _mixed_family(Random(seed), count), holds)


def check_recurrence(seed: int, count: int = 40) -> dict:
    """The monic recurrence annihilates every trace window up to k = 2d."""
    return _family_suite(
        "trace-recurrence", _mixed_family(Random(seed), count),
        lambda c: not recurrence_check(traces(c, 3 * c.degree + 1), c.p))


def check_hankel_identity(seed: int, count: int = 30) -> dict:
    """Hankel determinant of point-mass data, plus the anti-ordered sign twins.

    For a current with simple fiber roots y_i and weights f_i,
    det H_d = prod_{i<j} (y_i - y_j)^2 * prod_i f_i, and both reversing the
    rows of H_d and the anti-ordered matrix (u_{d+i-j-1}) multiply the
    determinant by (-1)^(d(d-1)/2).
    """
    rng = Random(seed)
    family = [random_weighted_current(rng, n=1 if idx % 3 else 2, count=rng.randint(1, 4))
              for idx in range(count)]

    def holds(member):
        current, points = member
        d = current.degree
        t = traces(current, 2 * d + 1)
        h = hankel(t, d)
        det_h = determinant(h)
        expected = RatFunc.one(t.vars)
        roots = [root for root, _ in points]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                diff = roots[i] - roots[j]
                expected = expected * diff * diff
        for _, weight in points:
            expected = expected * weight
        reversed_rows = FracMatrix(list(reversed(h.entries)))
        anti = FracMatrix([[t[d + i - j - 1] for j in range(d)] for i in range(d)])
        sign = Fraction(-1) ** ((d * (d - 1) // 2) % 2)
        return (det_h == expected
                and determinant(reversed_rows) == det_h * sign
                and determinant(anti) == det_h * sign)
    return _family_suite("hankel-determinant", family, holds)


def check_closedness(seed: int, count: int = 25) -> dict:
    """d/db_i u_{k+n} = d/da_i u_{k+n-1} exactly, k up to 2d."""
    return _family_suite(
        "radon-closedness", _mixed_family(Random(seed), count, (4, 2), (2, 1)),
        lambda c: not closedness_check(radon(c, 2 * c.degree + c.n), range(2 * c.degree + 1)))


def _oracle_one(form: RationalForm1D, point: dict) -> tuple[float | None, str | None]:
    """(absolute error, None), or (None, why) when no finite error exists."""
    values = [point[v] for v in form.base_vars]
    try:
        exact = residue_sum(form).eval_numeric(
            {v: complex(x) for v, x in point.items()})
        quad = contour_oracle(form, values)
        psum = sum(res for _, res in pointwise_residues(form, values))
    except DomainError as exc:
        return None, f"oracle raised: {exc}"
    error = max(abs(quad - exact), abs(psum - exact))
    if not math.isfinite(error):
        return None, "numeric error is not finite"
    return error, None


def check_numeric_oracle(seed: int, count: int = 25) -> dict:
    """Exact residue sums against contour quadrature and pointwise residues.

    Base points are rational, drawn away from the discriminant zero set so
    the pointwise path is defined; comparisons are absolute error.
    """
    rng = Random(seed)
    jobs = []
    drawn = 0
    while drawn < count:
        n = 1 if drawn % 3 else 2
        c = random_current(rng, n=n, max_degree=4 if n == 1 else 3,
                           coeff_degree=2, max_abs=3)
        disc = support_discriminant(c)
        point = None
        for _ in range(60):
            cand = random_rational_point(rng, n, span=4)
            val = disc.eval_exact(cand)
            # stay clearly away from colliding fiber poles, for conditioning
            if abs(val) >= Fraction(1, 100):
                point = cand
                break
        if point is None:
            continue
        k = rng.randint(0, c.degree)
        yk = c.r * MPoly.variable(c.p.vars, c.fiber) ** k
        form = RationalForm1D(yk, c.p)
        jobs.append((form, point))
        drawn += 1
    results = [_oracle_one(form, point) for form, point in jobs]
    reasons = [[i, why] for i, (_, why) in enumerate(results) if why is not None]
    errors = [e for e, _ in results if e is not None]
    failures = [i for i, (e, why) in enumerate(results)
                if why is not None or not (e <= TOLERANCE)]
    report = _suite("numeric-oracle", len(jobs), failures,
                    max_abs_error=max(errors, default=0.0), tolerance=TOLERANCE)
    if reasons:
        report["failure_reasons"] = reasons
    return report


def verify_report(seed: int = DEFAULT_SEED) -> dict:
    """Run all five suites, each at its default count, and aggregate one JSON-ready report."""
    suites = [
        check_roundtrip(seed),
        check_recurrence(seed + 1),
        check_hankel_identity(seed + 2),
        check_closedness(seed + 3),
        check_numeric_oracle(seed + 4),
    ]
    return {
        "seed": seed,
        "tolerance": TOLERANCE,
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }


def human_summary(report: dict) -> str:
    lines = []
    for s in report["suites"]:
        status = "PASS" if s["pass"] else "FAIL"
        extra = f", {s['failures']} failed" if s["failures"] else ""
        if "max_abs_error" in s:
            extra += f", max abs error {s['max_abs_error']:.3g}"
        lines.append(f"{status} {s['name']} ({s['instances']} instances{extra})")
    overall = "PASS" if report["pass"] else "FAIL"
    lines.append(f"{overall} overall (seed {report['seed']})")
    return "\n".join(lines)
