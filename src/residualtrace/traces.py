"""Fiber trace sequences u_k and their Hankel/recurrence structure.

u_k is the residue sum of r * y^k / p over the fiber, a rational function
of the base variables (polynomial whenever p and r are).  Because p is
monic of fiber degree d, the sequence obeys the depth-d linear recurrence
whose coefficients are p's own fiber coefficients:

    u_{k+d} + a_1 u_{k+d-1} + ... + a_d u_k = 0,   p = y^d + a_1 y^{d-1} + ... + a_d.

Fiber traces are memoised: `traces` keeps the entries of its last 8
(current, count) keys, equal currents sharing a key, in a
`functools.lru_cache`.  The cache is typed, so a count of 3.0 is refused
as it is when cold, not answered from the entry for 3.  `reconstruct`
accepts a degree only when the rebuilt current's traces equal its input:
after `traces(c, m)` that is a lookup whenever the rebuilt current equals
c, and any other candidate is traced in full.  The bound is far below the
size of any batch of currents, so nothing else is reused.  The memo holds
tuples, and `traces` wraps them in a fresh `TraceSequence` on every call.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import FracMatrix, RatFunc, clear_denominators
from .currents import ResidualCurrent
from .errors import DomainError
from .record import Record, _set
from .residues import trace_stream

__all__ = ["TraceSequence", "traces", "recurrence_failures", "recurrence_check", "hankel"]

# Entries of the fiber-trace memo, and of `radon`'s chart-trace memo: far
# fewer than the currents of any batch, so only a trace followed by a check
# on the same current shares work.
_MEMO_SIZE = 8


class TraceSequence(Record):
    """Consecutive traces u_0 .. u_m over a shared base-variable tuple."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[RatFunc, ...]):
        if not entries:
            raise DomainError("a trace sequence needs at least one entry")
        variables = entries[0].vars
        if any(e.vars != variables for e in entries):
            raise DomainError("trace entries live over different variable lists")
        _set(self, "entries", entries)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.entries[0].vars

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k: int) -> RatFunc:
        return self.entries[k]

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)


def traces(current: ResidualCurrent, count: int) -> TraceSequence:
    """First `count` traces of a current, computed by incremental reduction.

    Each step multiplies the reduced numerator by y modulo p and reads off
    the top coefficient, so the cost is linear in `count`.  The entries
    come from the fiber-trace memo (see the module docstring).
    """
    _check_count(count, "count", 1)
    return TraceSequence(entries=_fiber_traces(current, count))


def _check_count(value, name: str, least: int):
    """Refuse a count below `least`, or a bool, which `as_fraction` refuses too.

    A float is left to fail where it is used, with a TypeError.
    """
    if isinstance(value, bool):
        raise DomainError(f"{name} = {value!r} is a boolean, not a count")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise DomainError(f"{name} must be {bound}")


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _fiber_traces(current: ResidualCurrent, count: int) -> tuple[RatFunc, ...]:
    return tuple(trace_stream(current.r, current.p, count))


def _recurrence_sum(u, a, m, j):
    """m u_j + a[0] u_{j-1} + ... + a[d-1] u_{j-d}, terms past u_0 left out.

    The coefficient of t^j in (sum_k u_k t^k)(m + a[0] t + ... + a[d-1] t^d),
    on polynomials: u and a cleared of their denominators, m the multiplier
    that cleared a (a product by m = 1 is skipped).  Summed left to right.
    """
    acc = u[j] if m.is_one() else m * u[j]
    for i in range(1, min(j, len(a)) + 1):
        acc = acc + a[i - 1] * u[j - i]
    return acc


def recurrence_failures(t: TraceSequence, a):
    """Lazily yield each window k where u_{k+d} + sum_i a[i] u_{k+i} != 0.

    `a` holds the d = len(a) recurrence coefficients over the trace ring;
    a[i] multiplies u_{k+i}.  Both are cleared to the polynomial ring
    first, a by its common denominator m and t by its own, so window k is
    the cleared recurrence sum at j = k + d, with a in monic order, in
    MPoly arithmetic and with no gcd.
    """
    d = len(a)
    coeffs, m = clear_denominators(list(a)[::-1])
    u, _ = clear_denominators(list(t.entries))
    for k in range(len(t) - d):
        if not _recurrence_sum(u, coeffs, m, k + d).is_zero():
            yield k


def recurrence_check(t: TraceSequence, p) -> list[int]:
    """Indices k where the depth-d recurrence from p fails on t.

    `p` is a fiber-monic MPoly over the trace variables plus one fiber
    variable.  An empty list means every checkable window passed.
    """
    fiber = p.vars[-1]
    if p.vars[:-1] != t.vars:
        raise DomainError(
            f"p base variables {p.vars[:-1]} do not match traces over {t.vars}")
    d = p.degree(fiber)
    if d < 1:
        raise DomainError("p must have positive fiber degree")
    if len(t) < d + 1:
        raise DomainError(
            f"need at least {d + 1} traces to check a depth-{d} recurrence, have {len(t)}")
    coeffs = p.as_univariate(fiber)
    if not coeffs[-1].is_one():
        raise DomainError("p is not monic in the fiber variable")
    # coeffs[i] multiplies u_{k+i}; coeffs[i] = a_{d-i} in monic order
    return list(recurrence_failures(t, [RatFunc(c) for c in coeffs[:-1]]))


def hankel(t: TraceSequence, d: int) -> FracMatrix:
    """Symmetric d x d Hankel matrix H[i][j] = u_{i+j} of a trace sequence."""
    if d < 1:
        raise DomainError("Hankel size must be at least 1")
    if len(t) < 2 * d - 1:
        raise DomainError(
            f"need at least {2 * d - 1} traces for a {d} x {d} Hankel matrix, have {len(t)}")
    return FracMatrix([[t[i + j] for j in range(d)] for i in range(d)])
