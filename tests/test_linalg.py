"""Exact determinants, linear solving, kernels, and resultants."""

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from residualtrace.algebra import (
    FracMatrix,
    MPoly,
    RatFunc,
    determinant,
    kernel_vector,
    solve_linear,
    sylvester_resultant,
)
from residualtrace.errors import DomainError, SingularSystemError

V = ("x",)
X = MPoly.variable(V, "x")
# a zero leading pivot: elimination must swap the two rows
SWAP = FracMatrix([[RatFunc.zero(V), RatFunc.one(V)], [RatFunc.one(V), RatFunc.zero(V)]])
# column 1 has no pivot left after the first elimination step
STALLED = FracMatrix([[RatFunc.constant(V, v) for v in row]
                      for row in ((1, 2, 3), (2, 4, 5), (3, 6, 7))])


def cofactor_det(rows):
    """Independent oracle: Leibniz expansion over all permutations."""
    n = len(rows)
    variables = rows[0][0].vars
    total = RatFunc.zero(variables)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        term = RatFunc.constant(variables, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def rand_ratfunc(rng):
    num = MPoly(V, {(rng.randint(0, 2),): Fraction(rng.randint(-3, 3))
                    for _ in range(2)})
    if rng.random() < 0.5:
        return RatFunc(num)
    den = MPoly(V, {(rng.randint(0, 1),): Fraction(rng.randint(-2, 2))
                    for _ in range(2)})
    if den.is_zero():
        den = X + 2
    return RatFunc(num, den)


def test_matrix_shape_checks():
    with pytest.raises(DomainError):
        FracMatrix([])
    with pytest.raises(DomainError):
        FracMatrix([[RatFunc(X)], [RatFunc(X), RatFunc(X)]])


def test_determinant_against_cofactor_oracle():
    rng = Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[rand_ratfunc(rng) for _ in range(n)] for _ in range(n)]
            m = FracMatrix(rows)
            assert determinant(m) == cofactor_det(rows), rows
    assert determinant(SWAP) == RatFunc.constant(V, -1)


def test_determinant_singular_is_zero():
    m = FracMatrix([[RatFunc(X), RatFunc(X * 2)],
                    [RatFunc(X * 3), RatFunc(X * 6)]])
    assert determinant(m).is_zero()
    assert determinant(STALLED).is_zero()


def test_solve_linear_solves():
    rng = Random(11)
    solved = 0
    for n in (1, 2, 3):
        for _ in range(8):
            rows = [[rand_ratfunc(rng) for _ in range(n)] for _ in range(n)]
            rhs = [rand_ratfunc(rng) for _ in range(n)]
            m = FracMatrix(rows)
            try:
                x = solve_linear(m, rhs)
            except SingularSystemError:
                assert determinant(m).is_zero()
                continue
            for i in range(n):
                acc = RatFunc.zero(V)
                for j in range(n):
                    acc = acc + rows[i][j] * x[j]
                assert acc == rhs[i]
            solved += 1
    assert solved >= 15
    # the right-hand side swaps with the rows
    assert solve_linear(SWAP, [RatFunc(X), RatFunc.one(V)]) == [RatFunc.one(V), RatFunc(X)]


def test_solve_singular_named_example():
    # rows are proportional: x * row0 = row1
    one = RatFunc.one(V)
    xx = RatFunc(X)
    m = FracMatrix([[one, xx], [xx, RatFunc(X * X)]])
    with pytest.raises(SingularSystemError):
        solve_linear(m, [one, one])
    with pytest.raises(SingularSystemError):
        solve_linear(STALLED, [one, one, one])


def test_solve_rejects_bad_shapes():
    m = FracMatrix([[RatFunc(X), RatFunc(X)]])
    with pytest.raises(DomainError):
        solve_linear(m, [RatFunc(X)])


def test_kernel_vector_annihilates_and_is_deterministic():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    v = kernel_vector(rows, 3)
    assert v is not None and any(v)
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) == 0
    assert v == kernel_vector(rows, 3)


def test_kernel_vector_full_rank_returns_none():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert kernel_vector(rows, 2) is None


def reference_kernel_vector(rows, ncols):
    """Independent oracle: Gauss-Jordan over Fraction, pivot rows scaled to 1."""
    a = [list(map(Fraction, r)) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [v / pv for v in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[row])]
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
        v[c] = -a[r][free]
    return v


def test_kernel_vector_matches_fraction_reference():
    rng = Random(2024)

    def entry():
        # ints and Fractions with mixed denominators, a third of them zero
        if rng.random() < 0.33:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-9, 9), rng.choice([2, 3, 4, 6, 7]))

    cases = [([], 3)]
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        kind = rng.randrange(3)
        if kind == 0 and nrows > 1:
            # rank-deficient: the last row combines the first two
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[-1] = [u + k * w for u, w in zip(rows[0], rows[1 % nrows])]
        elif kind == 1:
            z = rng.randrange(ncols)
            for r in rows:
                r[z] = 0
        cases.append((rows, ncols))
    outcomes = set()
    for rows, ncols in cases:
        got = kernel_vector(rows, ncols)
        assert got == reference_kernel_vector(rows, ncols), rows
        outcomes.add(got is None)
        if got is not None:
            assert all(type(v) is Fraction for v in got)
            for r in rows:
                assert sum(a * b for a, b in zip(r, got)) == 0
    assert outcomes == {True, False}
    # the empty row list leaves every column free
    assert kernel_vector([], 3) == [1, 0, 0]


def test_kernel_vector_hand_case():
    # rref [[1, 0, -1], [0, 1, 2]] up to row scaling and a zero row
    rows = [[Fraction(1, 2), 1, Fraction(3, 2)],
            [2, Fraction(2, 3), Fraction(-2, 3)],
            [Fraction(5, 2), Fraction(5, 3), Fraction(5, 6)]]
    assert kernel_vector(rows, 3) == [Fraction(1), Fraction(-2), Fraction(1)]


def test_sylvester_resultant_discriminant_example():
    W = ("x", "y")
    x = MPoly.variable(W, "x")
    y = MPoly.variable(W, "y")
    p = y * y - x
    res = sylvester_resultant(p, p.derivative("y"), "y")
    assert res == (-4) * x


def test_sylvester_resultant_multiplicative():
    W = ("x", "y")
    x = MPoly.variable(W, "x")
    y = MPoly.variable(W, "y")
    f = y - x
    g = y + 1
    h = y * y + x
    lhs = sylvester_resultant(f * g, h, "y")
    rhs = sylvester_resultant(f, h, "y") * sylvester_resultant(g, h, "y")
    assert lhs == rhs


def test_sylvester_resultant_root_detection():
    # res(p, q) = 0 exactly when p and q share a root; here both vanish at y = x
    W = ("x", "y")
    x = MPoly.variable(W, "x")
    y = MPoly.variable(W, "y")
    assert sylvester_resultant((y - x) * (y + 1), (y - x) * (y + 2), "y").is_zero()
    assert not sylvester_resultant(y - x, y + x + 1, "y").is_zero()
