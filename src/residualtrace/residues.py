"""One-variable residue sums for rational forms in a fiber variable.

For a form num/den * dy with den of positive degree d in the fiber variable
y, the sum of the residues over all poles in y equals minus the residue at
infinity.  Writing den = c * den_monic with c the leading fiber coefficient,
that value is the coefficient of y^(d-1) in the remainder of (num/c) modulo
den_monic, a rational function of the base variables.  This is the exact
path; no root is ever computed.  `trace_pairs` walks the whole sequence
of such sums for num * y^k, k = 0, 1, ..., one multiply-by-y reduction per
step, and `trace_stream` normalises each sum it yields; traces, chart
traces, single residue sums and `currents.support_discriminant` all read
from that one loop.

The stream is fraction-free.  It keeps the remainder as polynomials R_j
over the base ring with one denominator, a power c^e of the leading fiber
coefficient: the remainder of num / c is R / c^e.  A reduction step
multiplies R by c instead of dividing den by it, so the loop is `MPoly`
arithmetic with no gcd.  `trace_pairs` returns the sums unreduced, as the
pairs (R_{d-1}, c^e), and `trace_stream` normalises each once, as the
`RatFunc` R_{d-1} / c^e; a caller that only compares sums can
cross-multiply the pairs and skip the gcd.  When c = 1 (every monic p)
the power stays 1.  Every step is one `mod_monic` call, on the
coefficient lists of `MPoly.as_univariate`: the first reduces num, each
later one the list [0] + R, which is R times y.  `mod_monic` lives in
`algebra.poly`, where the multivariate gcd and `currents.validate` use the
same pseudo-division, and is re-exported here; `shift_mod_monic` names one
later step.

Two numeric paths act as oracles for it: residues at numerically computed
poles (companion-matrix roots) and trapezoidal contour quadrature of
(1/2 pi i) * integral of f dy with `QUADRATURE_POINTS` nodes.  The
quadrature runs over one circle, |y| = 2 (1 + M), with M the largest
|c_i / c_d| over the coefficients c_0 .. c_d of the specialized
denominator.  By the Cauchy bound every pole has |y| <= 1 + M, so each lies
inside the circle, at most half its radius from the centre.  Only the
oracles use numpy, which is imported when they first run.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import MPoly, RatFunc, dense, exact_div, poly_gcd
from .algebra.poly import mod_monic
from .errors import DomainError

# A pole is repeated when |den'| there is below this fraction of the largest
# denominator coefficient.  np.roots splits a double root into two simple
# roots a relative sqrt(eps) or so apart, where |den'| is still 1e-8 to 1e-7
# of that scale; a smaller tolerance passes them on as two huge residues
# whose sum is wrong.  Simple poles away from the discriminant sit far above.
REPEATED_ROOT_RTOL = 1e-6
QUADRATURE_POINTS = 256


def shift_mod_monic(rem: list[MPoly], power: MPoly,
                    den: list[MPoly]) -> tuple[list[MPoly], MPoly]:
    """Multiply rem / power by the fiber variable, modulo the monic den / lead.

    One step of `trace_stream`: `mod_monic` of the shifted list [0] + rem.
    """
    return mod_monic([MPoly.zero(rem[-1].vars)] + rem, power, den)


def trace_pairs(num: MPoly, den: MPoly, count: int) -> list[tuple[MPoly, MPoly]]:
    """Residue sums of num * y^k / den over the fiber y, k = 0 .. count - 1, unreduced.

    Each sum is the pair (R, c^e) of its quotient R / c^e, c the leading
    fiber coefficient of den.  The fiber y is the last variable.  The first
    step reduces num modulo den; each later one reduces the remainder times
    y, and every step reads off the top coefficient.  A denominator without
    fiber poles gives zeros over 1.
    """
    fiber = den.vars[-1]
    den_coeffs = den.as_univariate(fiber)
    d = len(den_coeffs) - 1
    if d <= 0:
        base = den.vars[:-1]
        return [(MPoly.zero(base), MPoly.constant(base, 1))] * count
    # the remainder of num / lead, kept as rem / power
    coeffs, power = num.as_univariate(fiber), den_coeffs[d]
    zero = [MPoly.zero(power.vars)]
    out = []
    for _ in range(count):
        rem, power = mod_monic(coeffs, power, den_coeffs)
        out.append((rem[d - 1], power))
        coeffs = zero + rem
    return out


def trace_stream(num: MPoly, den: MPoly, count: int) -> list[RatFunc]:
    """The sums of `trace_pairs`, each normalised once as a `RatFunc`."""
    return [RatFunc(r, c) for r, c in trace_pairs(num, den, count)]


class RationalForm1D:
    """A rational form num/den * dy, reduced on construction.

    The fiber variable is the last variable of the shared tuple; every other
    variable is treated as a parameter.
    """

    __slots__ = ("num", "den", "fiber", "base_vars")

    def __init__(self, num: MPoly, den: MPoly):
        num._check_same_ring(den)
        if den.is_zero():
            raise DomainError("denominator is identically zero")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = exact_div(num, g)
                den = exact_div(den, g)
        self.num = num
        self.den = den
        self.fiber = num.vars[-1]
        self.base_vars = num.vars[:-1]

    def __repr__(self):
        return f"RationalForm1D(({self.num}) / ({self.den}) d{self.fiber})"


def residue_sum(form: RationalForm1D) -> RatFunc:
    """Exact sum of fiber residues, as a rational function of the base variables.

    A denominator of fiber degree 0 has no poles, so the sum is 0.
    """
    return trace_stream(form.num, form.den, 1)[0]


def _specialize(form: RationalForm1D, x_values: Sequence[complex]):
    """The fiber coefficient lists of num and den at one base point, ascending.

    The den list is stripped of its zero top coefficients; a den left of
    lower degree than the form's fiber degree raises DomainError, since a
    pole has gone to infinity and the numeric sums would miss its residue.
    """
    if len(x_values) != len(form.base_vars):
        raise DomainError(
            f"expected {len(form.base_vars)} base values, got {len(x_values)}")
    assign = {v: complex(x) for v, x in zip(form.base_vars, x_values)}

    def coeffs(p: MPoly) -> list[complex]:
        return [c.eval_numeric(assign) for c in p.as_univariate(form.fiber)] or [0j]

    den = dense.strip(coeffs(form.den))
    if len(den) <= form.den.degree(form.fiber):
        raise DomainError("specialized denominator dropped degree")
    return coeffs(form.num), den


def _horner(cs: list[complex], z: complex) -> complex:
    """The polynomial with ascending coefficients cs, evaluated at z."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def pointwise_residues(form: RationalForm1D, x_values: Sequence[complex]):
    """Numeric residues at each pole for one specialization of the base variables.

    Returns (pole, residue) pairs sorted by the pole's real then imaginary
    part; an empty list when the denominator has no fiber poles at all.
    Raises DomainError when the specialized denominator drops degree or has
    a numerically repeated root.
    """
    if form.den.degree(form.fiber) == 0:
        return []
    ncoeffs, dcoeffs = _specialize(form, x_values)
    d = len(dcoeffs) - 1
    import numpy as np
    roots = np.roots(dcoeffs[::-1])
    dprime = [k * dcoeffs[k] for k in range(1, d + 1)]
    scale = max(1.0, max(abs(c) for c in dcoeffs))

    pairs = []
    for z in roots:
        z = complex(z)
        dp = _horner(dprime, z)
        if abs(dp) < REPEATED_ROOT_RTOL * scale:
            raise DomainError(
                f"repeated pole near {z:.6g}; pointwise residues are undefined there")
        pairs.append((z, _horner(ncoeffs, z) / dp))
    pairs.sort(key=lambda p: (p[0].real, p[0].imag))
    return pairs


def contour_oracle(form: RationalForm1D, x_values: Sequence[complex]) -> complex:
    """Trapezoidal estimate of the residue sum for one base specialization.

    The contour is the circle |y| = 2 (1 + M), M the largest |c_i / c_d| of
    the specialized denominator, which encloses every pole with room to
    spare.  A pole-free integrand (fiber degree 0 denominator) integrates to
    zero exactly.
    """
    if form.den.degree(form.fiber) == 0:
        return 0j
    ncoeffs, dcoeffs = _specialize(form, x_values)
    radius = 2.0 * (1.0 + max(abs(c / dcoeffs[-1]) for c in dcoeffs))
    import numpy as np
    n = QUADRATURE_POINTS
    total = 0j
    for j in range(n):
        theta = 2.0 * np.pi * j / n
        w = radius * complex(np.cos(theta), np.sin(theta))
        denom = _horner(dcoeffs, w)
        if denom == 0:
            raise DomainError("quadrature node hit a pole")
        total += _horner(ncoeffs, w) / denom * complex(np.cos(theta), np.sin(theta))
    value = total * radius / n
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise DomainError("contour quadrature diverged")
    return value


def oracle_report(form: RationalForm1D,
                  sample_points: Sequence[Sequence[complex]]) -> list[dict]:
    """Compare the exact residue sum against both numeric paths per sample point."""
    exact = residue_sum(form)
    rows = []
    for point in sample_points:
        assign = {v: complex(x) for v, x in zip(form.base_vars, point)}
        exact_val = exact.eval_numeric(assign)
        quad = contour_oracle(form, point)
        try:
            point_sum = sum(res for _, res in pointwise_residues(form, point))
            point_err = abs(point_sum - exact_val)
        except DomainError:
            point_sum = None
            point_err = None
        rows.append({
            "x": [complex(x) for x in point],
            "exact": exact_val,
            "contour": quad,
            "contour_error": abs(quad - exact_val),
            "pointwise": point_sum,
            "pointwise_error": point_err,
        })
    return rows
