"""The one MPoly-to-sympy converter of the sympy oracles.

Each variable becomes `sympy.Symbol` of its name, so the expressions of
polynomials over different variable tuples share symbols by name.  Test
modules import it after `pytest.importorskip("sympy")`.
"""

import sympy


def to_sympy(p):
    """The sympy expression of an MPoly, with exact rational coefficients."""
    syms = [sympy.Symbol(v) for v in p.vars]
    out = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            term *= s ** e
        out += term
    return out
