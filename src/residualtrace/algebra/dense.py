"""Dense ascending coefficient lists over the integers.

A polynomial in one variable t is the list f with f[k] the coefficient of
t^k.  One with rational coefficients is the pair (den, nums): an int
den >= 1 and an int list nums, the coefficient of t^k being nums[k] / den.
The gcd's one-variable base case, the Pade kernel and the series layer of
`reconstruct` run on these lists.  The module imports nothing from the
package, so every module may import it.  Pseudo-division on lists of
`MPoly` coefficients is `poly.mod_monic`: an int and an `MPoly` share no
test for zero or one, so one shared version would branch on the type.

Modular images live here too, all modulo the one prime P = 2^61 - 1 and at
the integer points of `point`: `at` evaluates the terms of a polynomial
there, keeping one variable or none, `residue` is the value of a quotient,
and `gcd_mod` is Euclid's algorithm on images in one variable.  The
modular filter of degree detection and the coprimality certificate of
`poly.poly_gcd` use them.
"""

from __future__ import annotations

from math import gcd as _gcd
from math import lcm

P = (1 << 61) - 1


def point(seed: int, n: int) -> list[int]:
    """The integer point (seed, seed + 1009, seed + 2 * 1009, ...) with n coordinates."""
    return [seed + 1009 * i for i in range(n)]


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


def at(terms: dict, x0, keep: int | None = None) -> tuple[int, list[int]]:
    """(den, nums) mod P: the polynomial with these terms, at the point x0.

    The polynomial is nums / den with nums over Z, as `clear` gives it.
    Every variable but position `keep` takes its coordinate of x0; nums[k]
    is the coefficient of t^k, t the variable kept, so its last entry is 0
    when the leading coefficient in t vanishes at x0.  With no variable
    kept, nums is [value].  Each term is evaluated on ints and reduced once,
    at the end.
    """
    den, values = clear(terms.values())
    if keep is None:
        nums = [0]
    else:
        x0 = list(x0)
        x0[keep] = 1
        nums = [0] * (max([e[keep] for e in terms], default=-1) + 1)
    for exps, c in zip(terms, values):
        for x, e in zip(x0, exps):
            if e:
                c *= pow(x, e, P)
        nums[0 if keep is None else exps[keep]] += c
    return den % P, [v % P for v in nums]


def residue(num: dict, den: dict | None, x0) -> int | None:
    """num / den at x0 mod P for two term dicts, or None when a denominator vanishes.

    den None stands for the constant 1 and is not evaluated.
    """
    nd, (nn,) = at(num, x0)
    dd, (dn,) = (1, (1,)) if den is None else at(den, x0)
    if nd * dn * dd % P == 0:
        return None
    return nn * dd * pow(nd * dn, -1, P) % P


def gcd_mod(a: list[int], b: list[int]) -> list[int]:
    """A gcd mod P, up to a unit, of two lists of residues mod P; [] when both are zero.

    Euclid's algorithm on pseudo-remainders, in place: each step scales by
    the divisor's lead instead of inverting it.
    """
    a, b = strip(list(a)), strip(list(b))
    while b:
        lb, db = b[-1], len(b) - 1
        while len(a) > db:
            la, k = a.pop(), len(a) - db
            for i in range(k):
                a[i] = a[i] * lb % P
            for i in range(db):
                a[i + k] = (a[i + k] * lb - la * b[i]) % P
            strip(a)
        a, b = b, a
    return a


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
