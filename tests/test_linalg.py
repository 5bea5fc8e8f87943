"""Exact determinants, linear solving and kernels."""

import importlib
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from residualtrace.algebra import (
    FracMatrix,
    MPoly,
    RatFunc,
    det_poly_grid,
    determinant,
    kernel_vector,
    solve_linear,
)
from residualtrace.algebra.linalg import _bareiss, _cleared_rows
from residualtrace.currents import ResidualCurrent
from residualtrace.errors import DomainError, SingularSystemError
from residualtrace.sampling import random_current
from residualtrace.traces import hankel, traces

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


def test_det_poly_grid_refuses_an_empty_or_ragged_matrix():
    # like FracMatrix([]): a DomainError, not an IndexError from the elimination
    with pytest.raises(DomainError, match="nonempty square"):
        det_poly_grid([])
    with pytest.raises(DomainError, match="nonempty square"):
        det_poly_grid([[X], [X, X]])


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


def test_solve_refuses_a_right_hand_side_over_other_variables():
    m = FracMatrix([[RatFunc(X), RatFunc.one(V)], [RatFunc.one(V), RatFunc(X)]])
    other = RatFunc.variable(("x", "z"), "x")
    with pytest.raises(DomainError, match="different variable list"):
        solve_linear(m, [RatFunc.one(V), other])


@pytest.mark.parametrize("scalar", [1, "1"])
def test_scalar_right_hand_side_is_refused_like_a_scalar_entry(scalar):
    name = type(scalar).__name__
    with pytest.raises(DomainError, match=f"got {name}$"):
        FracMatrix([[scalar]])
    with pytest.raises(DomainError, match=f"got {name}$"):
        solve_linear(FracMatrix([[RatFunc(X)]]), [scalar])


def reference_solve(m, rhs):
    """Bareiss, then back substitution all in RatFunc, every quotient reduced by a gcd."""
    a, _ = _cleared_rows(FracMatrix([row + (e,) for row, e in zip(m.entries, rhs)]))
    assert _bareiss(a) != 0
    n = m.rows
    one = MPoly.constant(m.vars, 1)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = RatFunc(a[i][n])
        for j in range(i + 1, n):
            acc = acc - RatFunc(a[i][j]) * x[j]
        x[i] = RatFunc(acc.num * one, acc.den * a[i][i])
    return x


def shape(f):
    """num, den and their term dicts in order, with each stored value's type."""
    return [[(e, type(c), c) for e, c in p.terms.items()] for p in (f.num, f.den)]


def hankel_systems(seed, count):
    """(H_d, rhs) of the depth-d recurrence for the traces of monic currents."""
    rng = Random(seed)
    out = []
    for i in range(count):
        n = 1 + i % 2
        c = random_current(rng, n=n, max_degree=3 if n == 1 else 2,
                           coeff_degree=2 if n == 1 else 1)
        d = c.degree
        t = traces(c, 2 * d + 1)
        out.append((hankel(t, d), [-t[d + i] for i in range(d)]))
    return out


def mixed_system(rng):
    """A 2 x 2 system whose last unknown is a polynomial and whose first is not."""
    W = ("x", "y")
    x, y = MPoly.variable(W, "x"), MPoly.variable(W, "y")
    sol = [RatFunc(x + rng.randint(1, 3), y * y + rng.randint(1, 3)),
           RatFunc(x * y - rng.randint(-3, 3))]
    rows = [[RatFunc(x + 1), RatFunc(y - rng.randint(1, 3))],
            [RatFunc(x - y), RatFunc(y * y + x * rng.randint(1, 3))]]
    rhs = [rows[i][0] * sol[0] + rows[i][1] * sol[1] for i in range(2)]
    return FracMatrix(rows), rhs, sol


def test_solve_linear_matches_gcd_reference():
    rng = Random(404)
    systems = hankel_systems(405, 30)
    assert all(v.is_polynomial() for m, rhs in systems for v in solve_linear(m, rhs))
    for _ in range(30):
        n = rng.randint(1, 3)
        m = FracMatrix([[rand_ratfunc(rng) for _ in range(n)] for _ in range(n)])
        if not determinant(m).is_zero():
            systems.append((m, [rand_ratfunc(rng) for _ in range(n)]))
    for _ in range(10):
        m, rhs, sol = mixed_system(rng)
        assert solve_linear(m, rhs) == sol
        systems.append((m, rhs))
    rational = 0
    for m, rhs in systems:
        got = solve_linear(m, rhs)
        assert [shape(v) for v in got] == [shape(v) for v in reference_solve(m, rhs)]
        rational += not all(v.is_polynomial() for v in got)
    assert rational >= 20


def test_solving_monic_hankel_systems_needs_no_gcd(monkeypatch):
    calls = []

    def counting(gcd):
        def wrapped(f, g):
            calls.append((f, g))
            return gcd(f, g)
        return wrapped

    # some package attributes named after submodules are functions, so the
    # modules are reached through importlib
    for name in ("residualtrace.algebra.ratfunc", "residualtrace.algebra.poly"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "poly_gcd", counting(module.poly_gcd))
    systems = hankel_systems(406, 20)
    calls.clear()
    for m, rhs in systems:
        solve_linear(m, rhs)
    assert calls == []
    # some pivots are not constants, so a quotient through the gcd would call it
    nonunit = 0
    for m, rhs in systems:
        a, _ = _cleared_rows(FracMatrix([row + (e,) for row, e in zip(m.entries, rhs)]))
        _bareiss(a)
        nonunit += sum(not a[i][i].is_constant() for i in range(m.rows))
    assert nonunit > 0


def ratfunc_loop_solve(m, rhs):
    """Bareiss, then back substitution all in RatFunc, each quotient by RatFunc `/`."""
    a, _ = _cleared_rows(FracMatrix([row + (e,) for row, e in zip(m.entries, rhs)]))
    assert _bareiss(a) != 0
    n = m.rows
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = RatFunc(a[i][n])
        for j in range(i + 1, n):
            acc = acc - RatFunc(a[i][j]) * x[j]
        x[i] = acc / RatFunc(a[i][i])
    return x


def integer_system(rng, variables, n, kind):
    """(m, rhs, x): a seeded n x n system with integer polynomial entries.

    "polynomial": rhs = m x for a polynomial x.  "switch": x_s is not a
    polynomial and every x_j with j > s is, so back substitution leaves
    MPoly at unknown s; an x_j with j < s is either.  "singular": the last
    row is a polynomial combination of the others (n = 1: the zero matrix),
    and x is None.  A nonsingular m is dense or upper triangular with a
    constant diagonal.
    """
    gens = [MPoly.variable(variables, v) for v in variables]

    def poly():
        out = MPoly.constant(variables, rng.randint(-3, 3))
        for _ in range(rng.randint(1, 2)):
            term = MPoly.constant(variables, rng.choice([-2, -1, 1, 2, 3]))
            for g in gens:
                term = term * g ** rng.randint(0, 1)
            out = out + term
        return out

    def rational():
        while True:
            f = RatFunc(poly(), gens[-1] + rng.randint(1, 4))
            if not f.is_polynomial():
                return f

    if kind == "singular":
        rows = [[poly() for _ in range(n)] for _ in range(n - 1)]
        weights = [poly() for _ in rows]
        rows.append([sum((w * row[j] for w, row in zip(weights, rows)),
                         MPoly.zero(variables)) for j in range(n)])
        m = FracMatrix(rows)
        return m, [RatFunc(poly()) for _ in range(n)], None
    while True:
        if rng.random() < 0.5:
            m = FracMatrix([[poly() for _ in range(n)] for _ in range(n)])
        else:
            # constant pivots: each quotient is a scaling, which keeps acc's term order
            m = FracMatrix([[poly() if j > i else MPoly.constant(variables, rng.choice([1, 2, -3]))
                             if j == i else MPoly.zero(variables) for j in range(n)]
                            for i in range(n)])
        if not determinant(m).is_zero():
            break
    if kind == "polynomial":
        x = [RatFunc(poly()) for _ in range(n)]
    else:
        s = rng.randrange(n)
        x = [rational() if j == s or (j < s and rng.random() < 0.5) else RatFunc(poly())
             for j in range(n)]
    rhs = [sum((m[i, j] * x[j] for j in range(n)), RatFunc.zero(variables)) for i in range(n)]
    return m, rhs, x


def test_polynomial_back_substitution_matches_sympy_and_the_ratfunc_loop():
    sympy = pytest.importorskip("sympy")
    from sympy_expr import to_sympy

    def expr(f):
        return to_sympy(f.num) / to_sympy(f.den)

    rng = Random(2323)
    switched = 0
    for variables in (("x",), ("x", "y")):
        for n in (1, 2, 3):
            for kind in ("polynomial", "switch", "singular"):
                for _ in range(3):
                    m, rhs, x = integer_system(rng, variables, n, kind)
                    a = sympy.Matrix([[expr(e) for e in row] for row in m.entries])
                    det = sympy.expand(a.det(method="berkowitz"))
                    if x is None:
                        assert det == 0
                        with pytest.raises(SingularSystemError):
                            solve_linear(m, rhs)
                        continue
                    got = solve_linear(m, rhs)
                    assert got == x
                    # Cramer's rule on sympy's division-free determinant
                    for i, v in enumerate(got):
                        ai = a.copy()
                        ai[:, i] = sympy.Matrix([expr(e) for e in rhs])
                        assert sympy.cancel(expr(v) - ai.det(method="berkowitz") / det) == 0
                    assert ([shape(v) for v in got]
                            == [shape(v) for v in ratfunc_loop_solve(m, rhs)])
                    switched += any(not v.is_polynomial() for v in got[1:])
    # the RatFunc loop also ran above a switch point
    assert switched > 0
    # A Hankel system from the benchmark corpus: summing acc over j in the
    # other order changes the raw term order of its x_0, which no system of
    # the form b = m x above shows.
    W = ("x", "y")
    c = ResidualCurrent(
        p=MPoly(W, {(0, 3): 1, (3, 0): -2, (2, 0): 4, (0, 0): -2, (1, 1): 4, (3, 1): 4,
                    (2, 1): 1, (1, 2): 1, (0, 2): -1}),
        r=MPoly(W, {(2, 0): 2, (3, 0): 2, (0, 1): -1}))
    t = traces(c, 6)
    m, rhs = hankel(t, 3), [-t[3 + i] for i in range(3)]
    assert [shape(v) for v in solve_linear(m, rhs)] == [shape(v) for v in ratfunc_loop_solve(m, rhs)]


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


def test_kernel_vector_refuses_floats():
    with pytest.raises(DomainError):
        kernel_vector([[0.1, 1]], 2)
    assert kernel_vector([["1/2", 1]], 2) == [Fraction(-2), Fraction(1)]


def test_kernel_vector_hand_case():
    # rref [[1, 0, -1], [0, 1, 2]] up to row scaling and a zero row
    rows = [[Fraction(1, 2), 1, Fraction(3, 2)],
            [2, Fraction(2, 3), Fraction(-2, 3)],
            [Fraction(5, 2), Fraction(5, 3), Fraction(5, 6)]]
    assert kernel_vector(rows, 3) == [Fraction(1), Fraction(-2), Fraction(1)]
