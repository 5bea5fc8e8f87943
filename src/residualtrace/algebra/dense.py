"""Dense ascending coefficient lists over the integers.

A polynomial in one variable t is the list f with f[k] the coefficient of
t^k.  One with rational coefficients is the pair (den, nums): an int
den >= 1 and an int list nums, the coefficient of t^k being nums[k] / den.
The gcd's one-variable base case, the Pade kernel and the series layer of
`reconstruct` run on these lists.  The module imports nothing from the
package, so every module may import it.  Pseudo-division on lists of
`MPoly` coefficients is `poly.mod_monic`: an int and an `MPoly` share no
test for zero or one, so one shared version would branch on the type.
"""

from __future__ import annotations

from math import gcd as _gcd
from math import lcm


def strip(c: list) -> list:
    """Drop the trailing zeros of c in place, and return c; ints or complex."""
    while c and c[-1] == 0:
        c.pop()
    return c


def clear(values) -> tuple[int, list[int]]:
    """(den, nums): den the lcm of the denominators, values[i] = nums[i] / den.

    The values are ints or Fractions; all-int values come back themselves.
    """
    values = list(values)
    for c in values:
        if type(c) is not int:
            break
    else:
        return 1, values
    den = lcm(*[c.denominator for c in values])
    return den, [c.numerator * (den // c.denominator) for c in values]


def primitive(c: list[int]) -> list[int]:
    """c divided by the gcd of its entries, signs kept; c itself when that is 0 or 1."""
    g = _gcd(*c)
    return [x // g for x in c] if g > 1 else c


def from_terms(terms: dict, vi: int) -> tuple[int, list[int]]:
    """(den, nums) of the `MPoly` terms of a polynomial in variable vi alone."""
    den, values = clear(terms.values())
    nums = [0] * (max([e[vi] for e in terms], default=-1) + 1)
    for exps, v in zip(terms, values):
        nums[exps[vi]] = v
    return den, nums


def prem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder lc(v)^e u mod v of stripped u and v != [], stripped.

    Each step scales by lc(v) and cancels the leading term, so e counts the
    steps and falls short of deg u - deg v + 1 when a step drops two degrees.
    """
    u = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(u) - 1 >= dv and u:
        lu = u[-1]
        k = len(u) - 1 - dv
        u = [x * lv for x in u]
        for i, vc in enumerate(v):
            u[i + k] -= lu * vc
        strip(u)
    return u


def gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive PRS gcd up to sign; [] when both lists are zero."""
    a, b = strip(list(a)), strip(list(b))
    if not a:
        return primitive(b)
    if not b:
        return primitive(a)
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = prem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, primitive(r)


def shift(f: list[int], a: int, b: int, e: int) -> list[int]:
    """Coefficients of b^e f(a/b + t) in t, for e >= deg f: Horner on a + b t."""
    if not f:
        return []
    n = len(f) - 1
    scale = b ** (e - n)
    h = [f[n] * scale]
    for i in range(n - 1, -1, -1):
        # h <- h (a + b t) + f_i b^(e - i)
        h = [a * u + b * w for u, w in zip(h + [0], [0] + h)]
        scale *= b
        h[0] += f[i] * scale
    return h
