"""Exact linear algebra over the rational function field.

There is one elimination, `_bareiss`: Bareiss fraction-free elimination
after each row is cleared of its denominators, so all intermediate work
stays in the polynomial ring.  `clear_denominators` hands back a row of
polynomials as its own numerators, with multiplier 1, and a step whose
previous pivot is 1, the first one included, divides by nothing.
`determinant` eliminates the square rows.  `solve_linear` eliminates the
augmented rows [A | b], so the right-hand side is just their last column.
Back substitution runs on `MPoly` too, from the last unknown up, while
each quotient acc / a_ii is exact (`try_div`); then a `RatFunc` is built
only for the values returned.  At the first inexact quotient it falls
back to `RatFunc` arithmetic for that unknown and every one above it,
with the polynomial unknowns already solved wrapped as they are.  The
products, sums and quotients are the ones an all-`RatFunc` loop would
form, so the values and their term order are too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DomainError, SingularSystemError
from ..record import Record, _set
from . import dense
from .poly import MPoly, as_fraction, exact_div, poly_lcm, try_div
from .ratfunc import RatFunc, _one


class FracMatrix(Record):
    """Immutable rectangular matrix of RatFunc entries over one variable tuple."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(map(self._coerce, row)) for row in entries)
        if not entries or not entries[0]:
            raise DomainError("matrix must have at least one row and column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise DomainError("ragged rows in matrix")
        variables = entries[0][0].vars
        for row in entries:
            for e in row:
                if e.vars != variables:
                    raise DomainError("matrix entries live over different variable lists")
        _set(self, "entries", entries)

    @staticmethod
    def _coerce(e):
        """An entry of the matrix, as a RatFunc."""
        if isinstance(e, RatFunc):
            return e
        if isinstance(e, MPoly):
            return RatFunc(e)
        raise DomainError(f"linear system entries must be RatFunc or MPoly, "
                          f"got {type(e).__name__}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def vars(self) -> tuple[str, ...]:
        return self.entries[0][0].vars

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def clear_denominators(fs: list[RatFunc]) -> tuple[list[MPoly], MPoly]:
    """(polys, mult): mult is the lcm of the denominators, polys[i] = fs[i] * mult.

    When every denominator is 1, polys are the numerators themselves and
    mult is the polynomial 1 that `RatFunc` shares.
    """
    mult = _one(fs[0].vars)
    for f in fs:
        if not f.den.is_one():
            mult = poly_lcm(mult, f.den)
    if mult.is_one():
        return [f.num for f in fs], mult
    return [f.num * exact_div(mult, f.den) for f in fs], mult


def _cleared_rows(m: FracMatrix):
    """Multiply each row by the lcm of its denominators: (rows of MPoly, multipliers)."""
    rows, multipliers = [], []
    for row in m.entries:
        cleared, mult = clear_denominators(list(row))
        rows.append(cleared)
        multipliers.append(mult)
    return rows, multipliers


def _bareiss(a: list[list[MPoly]]) -> int:
    """Bareiss fraction-free elimination of the n rows `a`, in place.

    The first n columns are square; any further ones, such as the
    right-hand side of an augmented system, are swapped and eliminated
    with them.  Each step divides exactly by the previous pivot, so
    a[n-1][n-1] ends up as the determinant up to sign.  Returns the sign of
    the row permutation, or 0 when a pivot column has no nonzero entry (the
    determinant is 0).
    """
    n = len(a)
    variables = a[0][0].vars
    sign = 1
    prev = None  # the previous pivot; None while it is 1, which divides nothing
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(a[i])):
                v = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = v if prev is None else exact_div(v, prev)
            a[i][k] = MPoly.zero(variables)
        prev = None if a[k][k].is_one() else a[k][k]
    return 0 if a[n - 1][n - 1].is_zero() else sign


def det_poly_grid(rows: list[list[MPoly]]) -> MPoly:
    """Bareiss determinant of a square MPoly matrix."""
    n = len(rows)
    if not n or any(len(r) != n for r in rows):
        raise DomainError("determinant requires a nonempty square matrix")
    a = [list(r) for r in rows]
    sign = _bareiss(a)
    if sign == 0:
        return MPoly.zero(a[0][0].vars)
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def determinant(m: FracMatrix) -> RatFunc:
    rows, mults = _cleared_rows(m)
    return RatFunc(det_poly_grid(rows), math.prod(mults))


def solve_linear(m: FracMatrix, rhs) -> list[RatFunc]:
    """Solve m x = rhs exactly; raises SingularSystemError when det m = 0.

    The system is eliminated as the augmented matrix [m | rhs], whose last
    column holds the cleared right-hand side.
    """
    n = m.rows
    if n != m.cols:
        raise DomainError("solve requires a square matrix")
    if len(rhs) != n:
        raise DomainError(f"right-hand side has {len(rhs)} entries for {n} rows")
    a, _ = _cleared_rows(FracMatrix([row + (e,) for row, e in zip(m.entries, rhs)]))
    if _bareiss(a) == 0:
        raise SingularSystemError("coefficient matrix is singular")
    x: list = [None] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc = acc - a[i][j] * x[j]
        q = try_div(acc, a[i][i])
        if q is None:
            break
        x[i] = q
    else:
        return [RatFunc(v) for v in x]
    # acc / a_ii is not a polynomial: RatFunc from unknown i up.  RatFunc(acc,
    # a_ii) is the quotient `/` would form once `try_div` has failed.
    x[i + 1:] = map(RatFunc, x[i + 1:])
    x[i] = RatFunc(acc, a[i][i])
    for i in range(i - 1, -1, -1):
        acc = RatFunc(a[i][n])
        for j in range(i + 1, n):
            acc = acc - RatFunc(a[i][j]) * x[j]
        x[i] = acc / RatFunc(a[i][i])
    return x


def kernel_vector(rows: list[list[Fraction]], ncols: int) -> list[Fraction] | None:
    """A deterministic nonzero rational kernel vector, or None if full rank.

    Gauss-Jordan over Z: each row is cleared of denominators, and each
    updated row is divided by its content.  Every row stays a nonzero
    multiple of the row Gauss-Jordan over Q would hold, so the pivots and
    the reduced row echelon form, which is unique, come out the same.  The
    first free column is set to 1 and the remaining free columns to 0, so
    the output depends only on the input.  Entries are ints, Fractions or
    strings; a float raises DomainError, as it does in MPoly.
    """
    a = []
    for r in rows:
        if len(r) != ncols:
            raise DomainError("ragged rows in kernel computation")
        a.append(dense.clear(v if type(v) is int else as_fraction(v) for v in r)[1])
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        top = a[row]
        pv = top[col]
        for i in range(len(a)):
            f = a[i][col]
            if i != row and f:
                a[i] = dense.primitive([pv * v - f * w for v, w in zip(a[i], top)])
        pivots.append((row, col))
        row += 1
        if row == len(a):
            break
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    v = [Fraction(0)] * ncols
    v[free] = Fraction(1)
    for r, c in pivots:
        v[c] = Fraction(-a[r][free], a[r][c])
    return v
