"""Recovering a current from finitely many traces, and traces from series data.

The inverse direction of the trace map: given u_0 .. u_m, find the minimal
fiber degree d whose Hankel system is solvable and whose recurrence
annihilates every available entry, with p built from the recurrence
coefficients and r from the triangular relation

    r = y^{d-1} u_0 + y^{d-2} (u_1 + a_1 u_0) + ... ,

coefficient of y^{d-1-j} being sum_{i<=j} a_i u_{j-i} with a_0 = 1.

Degree detection rejects most wrong d without exact work.  The traces are
specialised once at an integer point x0 modulo the prime p = 2^61 - 1.  If
the Hankel matrix H_d(x0) is invertible mod p, det H_d is nonzero and its
exact solution is defined at x0, where it reduces to the mod-p solution;
so a window of the recurrence that fails mod p fails exactly, and d is
rejected.  When H_d(x0) is singular mod p nothing is known, and the exact
solve and one exact certificate decide.  A successful solve clears its
solution and the traces of their denominators once; on that cleared view
the certificate is that the traces of the rebuilt (p, r) equal the input,
or, for coefficients off the polynomial ring, that the recurrence holds on
every window.  Both window scans, mod p and exact, start at window d,
since the solve itself makes windows 0 .. d-1 hold.

Series-sampled traces go through a rationality test first: a kernel-based
Pade candidate p / q within prescribed numerator and denominator degree
bounds m and nn, accepted only if q c == p (mod t^L) for the L supplied
coefficients c, that is, if its Taylor series reproduces every one of
them.  Coefficients k <= m of q c are p by construction, and the kernel
vector makes those of m < k <= m + nn vanish, so the certificate reads
only k > m + nn, the coefficients the candidate leaves free.  If any
valid candidate exists, every nonzero kernel vector reduces to the same
one, so a failed certificate really means no candidate exists.
The kernel vector q is one of minimal degree, so p / q needs no gcd: a
common factor g of p and q with g(0) != 0 would make q / g a kernel vector
of lower degree.  When t divides q it divides p too, and the certificate
could pass only if q / t were a kernel vector of lower degree; so the
answer is None, returned before the certificate is checked.
The series layer runs on integer coefficient lists over one denominator:
shifts to and from the base point, the series division of sample_series
and the certificate are fraction-free, and a polynomial, whose shifted
denominator is a constant, takes no series division at all.  A
SeriesSample stores its coefficients the same way, as integer numerators
in lowest terms over one positive denominator, so sample_series builds no
Fraction and detect_rational reads the integers it needs as they are
stored; a Fraction is built only when a sample's `coefficients` are read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .algebra import MPoly, RatFunc, as_fraction, dense
from .algebra.dense import P as _P
from .algebra.linalg import clear_denominators, kernel_vector, solve_linear
from .algebra.poly import _div, _trusted
from .currents import ResidualCurrent, ZeroCurrent
from .errors import (
    ContinuationError,
    DegreeDetectionError,
    DomainError,
    SingularSystemError,
)
from .record import Record, _set
from .traces import (
    TraceSequence,
    _check_count,
    _recurrence_sum,
    hankel,
    traces,
)

__all__ = [
    "SeriesSample",
    "ReconstructionReport",
    "reconstruct",
    "detect_rational",
    "continue_current",
    "sample_series",
]


class SeriesSample(Record):
    """Taylor coefficients of one trace at a rational base point.

    The fields are `base_point` and `coefficients`, a tuple of Fractions.
    The coefficients are stored cleared, as one positive denominator `_den`
    and a tuple of integer numerators `_nums` in lowest terms (the pair
    `dense.clear` gives), and `coefficients` is built from them when read.
    """

    __slots__ = ("base_point", "_den", "_nums")
    _fields = ("base_point", "coefficients")

    def __init__(self, base_point: Fraction, coefficients: tuple[Fraction, ...]):
        den, nums = dense.clear(map(as_fraction, coefficients))
        self._store(as_fraction(base_point), den, nums)

    @classmethod
    def _cleared(cls, base_point: Fraction, den: int, nums: list[int]) -> SeriesSample:
        """The sample of coefficients nums[k] / den, for den > 0 and nums in lowest terms."""
        sample = cls.__new__(cls)
        sample._store(base_point, den, nums)
        return sample

    def _store(self, base_point: Fraction, den: int, nums: list[int]):
        _set(self, "base_point", base_point)
        _set(self, "_den", den)
        _set(self, "_nums", tuple(nums))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(v, den) for v in self._nums])

    def __len__(self):
        return len(self._nums)


class ReconstructionReport(Record):
    """Outcome of a reconstruction.

    `current` is a ResidualCurrent on success, the ZeroCurrent sentinel for
    all-zero traces, and None when the recurrence or numerator coefficients
    fall outside the polynomial ring (then `meromorphic_coefficients` is
    set).

    `residual_violations` is 0 by construction: degree detection accepts a
    recurrence only after it holds on every window of the traces.
    """

    __slots__ = ("degree", "current", "residual_violations", "meromorphic_coefficients")

    def __init__(self, degree: int, current: ResidualCurrent | ZeroCurrent | None,
                 residual_violations: int, meromorphic_coefficients: bool = False):
        _set(self, "degree", degree)
        _set(self, "current", current)
        _set(self, "residual_violations", residual_violations)
        _set(self, "meromorphic_coefficients", meromorphic_coefficients)


# The modular filter of degree detection works modulo the prime
# _P = 2^61 - 1 at the first usable base point dense.point(s, n) of a
# short fixed sequence of seeds s.
_POINT_SEEDS = (101, 211, 307)

# the variable of the rational functions `detect_rational` returns
_SERIES_VAR = "x"


def _modular_failures(t: TraceSequence, top: int) -> list[int | None]:
    """For d = 1..top, a window where the depth-d recurrence must fail, or None.

    The traces are specialised once at an integer point x0 modulo p.  Each
    u_k = num/den has num and den in Z_(p)[x] with den(x0) != 0 mod p, so
    u_k lies in the local ring A of Z_(p)[x] at the ideal (p, x - x0), and
    specialisation is a ring map A -> F_p.  If det H_d(x0) != 0 mod p, then
    det H_d is a unit of A: the exact Hankel solution a lies in A^d and
    specialises to the mod-p solution of H_d(x0) a = -(u_d .. u_{2d-1}).  A
    window u_{k+d} + sum_i a_i u_{k+i} that is nonzero mod p is then nonzero
    exactly, so entry d - 1 is such a window k and degree d is rejected with
    no exact work.  The entry is None when H_d(x0) is singular mod p or
    every window holds mod p; the exact solve and check decide then.  A
    point where a trace denominator or a coefficient denominator vanishes
    mod p is passed over; with no usable point every entry is None.
    """
    for s in _POINT_SEEDS:
        x0 = dense.point(s, len(t.vars))
        u = []
        for f in t.entries:
            v = dense.residue(f.num.terms, None if f.is_polynomial() else f.den.terms, x0)
            if v is None:
                break
            u.append(v)
        else:
            break
    else:
        return [None] * top
    out: list[int | None] = []
    for d in range(1, top + 1):
        rows = [[u[i + j] for j in range(d)] + [-u[d + i] % _P] for i in range(d)]
        for col in range(d):
            pivot = next((i for i in range(col, d) if rows[i][col]), None)
            if pivot is None:
                out.append(None)
                break
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = pow(rows[col][col], -1, _P)
            rows[col] = [v * inv % _P for v in rows[col]]
            for i in range(d):
                if i != col and rows[i][col]:
                    g = rows[i][col]
                    rows[i] = [(v - g * w) % _P for v, w in zip(rows[i], rows[col])]
        else:
            a = [row[d] for row in rows]
            # the solve makes windows 0 .. d-1 hold mod p
            out.append(next(
                (k for k in range(d, len(u) - d)
                 if (u[k + d] + sum(map(mul, a, u[k:k + d]))) % _P), None))
    return out


def _candidate(variables: tuple[str, ...], u: list[MPoly], a: list[MPoly]) -> ResidualCurrent:
    """The current (p, r) of polynomial traces u and recurrence coefficients a.

    a[i - 1] = a_i in monic order, p = y^d + a_1 y^{d-1} + ... + a_d.  r's
    coefficient of y^{d-1-j} is r_j = sum_{i<=j} a_i u_{j-i} (a_0 = 1), the
    recurrence sum at j; for j < d it reads only u_0 .. u_{d-1}.
    """
    d = len(a)
    one = MPoly.constant(variables, 1)
    sums = [_recurrence_sum(u, a, one, j) for j in range(d)]
    fiber = "y"
    while fiber in variables:
        fiber += "_"
    full = variables + (fiber,)

    def pieces(coeffs):  # coeffs[j] multiplies fiber^(d - 1 - j)
        return {d - 1 - j: c for j, c in enumerate(coeffs)}

    p = MPoly.from_univariate(full, fiber, {d: one, **pieces(a)})
    r = MPoly.from_univariate(full, fiber, pieces(sums))
    return ResidualCurrent(p=p, r=r)


def reconstruct(t: TraceSequence, d_max: int) -> ReconstructionReport:
    """Rebuild the current whose first len(t) traces are t.

    Degree detection tries d = 1 .. min(d_max, len(t) // 2) in turn; a d
    the modular filter rejects, or with a singular Hankel matrix, fails at
    once.  Otherwise the solution a and the traces are cleared once.  With
    no denominator in either, the polynomial candidate (p, r) is accepted
    iff `traces(current, len(t))` equals t entry for entry.  Its traces
    agree with t on u_0 .. u_{2d-1} and obey its recurrence, so the first
    index j where they differ is the first failing window j - d.  That
    equality goes through the fiber-trace memo of `traces`, so after
    `traces(c, len(t))` it is a lookup when the rebuilt current equals c.
    Otherwise no current has these traces (`current` is None), and d is
    accepted iff the cleared recurrence sum vanishes at j = 2d .. len(t) - 1.
    The pair is canonical by construction, so it is not re-validated: p is
    monic of degree d, deg_y r < d, and r != 0 (else u_0 .. u_{d-1} and so
    all of t would vanish).  A common fiber factor of degree e >= 1 would
    leave a pair of degree d - e with the same traces, whose recurrence
    holds on every window with a nonsingular Hankel matrix (Kronecker);
    smaller degrees are tried first and the modular filter never rejects a
    true recurrence, so d - e or less would have been accepted.
    Traces over no base variable are refused, zero traces included: neither
    a current nor the zero current exists without one.
    """
    if not t.vars:
        raise DomainError("a current needs at least one base variable and one fiber variable")
    _check_count(d_max, "d_max", 1)
    if t.is_zero():
        return ReconstructionReport(degree=0, current=ZeroCurrent(len(t.vars)),
                                    residual_violations=0)
    top = min(d_max, len(t) // 2)
    # outcomes[d - 1]: a window where the depth-d recurrence fails, None if singular
    outcomes = _modular_failures(t, top)
    for d in range(1, top + 1):
        if outcomes[d - 1] is not None:
            continue
        try:
            sol = solve_linear(hankel(t, d), [-t[d + i] for i in range(d)])
        except SingularSystemError:
            continue
        # sol[j] = a_{d-j}, so a[i - 1] = m a_i and u[k] = m_u u_k
        a, m = clear_denominators(sol[::-1])
        u, m_u = clear_denominators(list(t.entries))
        if m.is_one() and m_u.is_one():
            current = _candidate(t.vars, u, a)
            rebuilt = traces(current, len(t)).entries
            k = None if rebuilt == t.entries else next(
                j - d for j, (v, w) in enumerate(zip(rebuilt, t.entries)) if v != w)
        else:
            current = None
            k = next((j - d for j in range(2 * d, len(t))
                      if not _recurrence_sum(u, a, m, j).is_zero()), None)
        if k is None:
            return ReconstructionReport(degree=d, current=current, residual_violations=0,
                                        meromorphic_coefficients=current is None)
        outcomes[d - 1] = k
    raise DegreeDetectionError(tuple(outcomes))


def detect_rational(sample: SeriesSample, max_num_deg: int, max_den_deg: int) -> RatFunc | None:
    """Rational function matching a Taylor sample within degree bounds, or None.

    Needs at least max_num_deg + max_den_deg + 2 coefficients: enough to pin
    down the candidate plus at least one extra for verification.  None means
    no rational function within the bounds has this Taylor expansion at the
    base point (in particular when the only algebraic candidates would have
    a pole there).

    The sample c is read as `SeriesSample` stores it: integers C = D c over
    one denominator D.  The Pade kernel gives q of minimal degree, and
    p = q C is truncated to degree max_num_deg, all over Z.  Minimality
    makes p and q coprime unless q(0) = 0, and then the answer is None
    (see the module docstring).  The certificate is q C == p (mod t^L) for
    the L = len(sample) coefficients: with q(0) != 0 that says the series
    of p / (D q) reproduces every supplied coefficient, without a division.
    It reads coefficients k > max_num_deg + max_den_deg of q C alone, each
    the window C[k - w + 1 .. k] against q reversed, w = len(q); the
    lower ones hold by the construction of p and q.
    """
    big_l = len(sample)
    m, nn = max_num_deg, max_den_deg
    _check_count(m, "degree bounds", 0)
    _check_count(nn, "degree bounds", 0)
    if big_l < m + nn + 2:
        raise DomainError(
            f"need at least {m + nn + 2} coefficients for bounds ({m}, {nn}), have {big_l}")
    den, c = sample._den, sample._nums
    rows = [[c[k - j] if k >= j else 0 for j in range(nn + 1)]
            for k in range(m + 1, m + nn + 1)]
    q = kernel_vector(rows, nn + 1)
    if q is None:
        # nn rows in nn + 1 unknowns always leave a kernel vector
        raise DomainError("degenerate linearization in the rationality test")
    q = dense.strip(dense.clear(q)[1])
    p = dense.strip([sum(map(mul, q, c[i::-1])) for i in range(m + 1)])
    if not p:
        if any(c):
            return None
        return RatFunc.zero((_SERIES_VAR,))
    if q[0] == 0:
        # pole at the base point: no bounded rational function matches
        return None
    w, q_rev = len(q), q[::-1]
    if any(sum(map(mul, q_rev, c[k - w + 1:k + 1])) for k in range(m + nn + 1, big_l)):
        return None
    # f(x) = p(x - x0) / (D q(x - x0)), normalised to den(x0) = 1
    a, b = -sample.base_point.numerator, sample.base_point.denominator

    def poly(f: list[int], scale: int) -> MPoly:
        e = len(f) - 1
        scale *= b ** e
        return _trusted((_SERIES_VAR,), {(k,): _div(v, scale)
                                         for k, v in enumerate(dense.shift(f, a, b, e)) if v})

    return RatFunc(poly(p, den * q[0]), poly(q, q[0]))


def sample_series(f: RatFunc, x0, count: int) -> SeriesSample:
    """Exact Taylor coefficients of a univariate rational function at x0.

    With f = (N / dn) / (M / dd) for integer N, M, both are shifted to
    x0 + t over a common power of the denominator of x0, giving f(x0 + t) =
    (dd P) / (dn Q).  For a polynomial f, Q is the constant Q_0 and
    coefficient k is dd P_k / (dn Q_0), with no division.  Otherwise the
    division P / Q runs fraction-free: S_k = Q_0^k P_k - sum_{j>=1} Q_j
    Q_0^(j-1) S_{k-j} makes coefficient k equal to dd S_k / (dn Q_0^(k+1)),
    and they are put over the common denominator dn Q_0^count.  Divided by
    one gcd, the numerators are the sample's integers in lowest terms, the
    same on either route: no Fraction is built.
    """
    if len(f.vars) != 1:
        raise DomainError("series sampling needs a univariate rational function")
    _check_count(count, "count", 1)
    x0 = as_fraction(x0)
    (dn, num), (dd, den) = dense.from_terms(f.num.terms, 0), dense.from_terms(f.den.terms, 0)
    e = max(len(num), len(den)) - 1
    p = dense.shift(num, x0.numerator, x0.denominator, e)
    q = dense.shift(den, x0.numerator, x0.denominator, e)
    q0 = q[0]
    if q0 == 0:
        raise DomainError(f"base point {x0} lies on the polar set")
    if len(q) == 1:
        # a polynomial: coefficient k is dd p_k / (dn q0)
        nums = [dd * v for v in p[:count]] + [0] * (count - len(p))
        common = dn * q0
    else:
        weights = [q[j] * q0 ** (j - 1) for j in range(1, len(q))]
        s: list[int] = []
        power = 1  # q0^k
        for k in range(count):
            s.append((power * p[k] if k < len(p) else 0) - sum(map(mul, weights, s[::-1])))
            power *= q0
        # coefficient k is dd S_k / (dn q0^(k+1)) = dd S_k q0^(count-1-k) / (dn q0^count)
        nums = [dd * sk * q0 ** (count - 1 - k) for k, sk in enumerate(s)]
        common = dn * power
    g = gcd(common, *nums)
    if common < 0:
        g = -g
    return SeriesSample._cleared(x0, common // g, [v // g for v in nums])


def continue_current(series: list[SeriesSample], d_max: int,
                     max_num_deg: int, max_den_deg: int) -> ReconstructionReport:
    """Reconstruct a current from series-sampled traces u_0 .. u_{m}.

    Each sample is independently tested for rationality within the degree
    bounds; a failure raises ContinuationError naming the trace index.  The
    recovered rational traces then go through the usual reconstruction.
    """
    _check_count(d_max, "d_max", 1)
    if len(series) < 2 * d_max:
        raise DomainError(
            f"need at least {2 * d_max} trace series for d_max = {d_max}, have {len(series)}")
    base = series[0].base_point
    if any(s.base_point != base for s in series):
        raise DomainError("all trace series must share one base point")
    entries = []
    for k, s in enumerate(series):
        f = detect_rational(s, max_num_deg, max_den_deg)
        if f is None:
            raise ContinuationError(
                k, f"trace {k} admits no rational continuation within bounds "
                   f"({max_num_deg}, {max_den_deg})")
        entries.append(f)
    return reconstruct(TraceSequence(entries=tuple(entries)), d_max)
