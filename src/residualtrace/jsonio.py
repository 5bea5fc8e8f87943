"""Canonical JSON encoding of the package's data types.

Output is deterministic: keys sorted, compact separators, polynomial terms
in descending graded-lex order, coefficients as reduced fraction strings,
one trailing newline.  Parsing a canonical document and printing it again
reproduces the bytes; parsing any valid document yields the exact values.

Polynomial: {"vars": ["x", "y"], "terms": [{"coeff": "-3/2", "exps": [1, 2]}]}
Rational function: {"num": <poly>, "den": <poly>}
Current: {"n": 1, "P": <poly>, "r": <poly>}  or  {"n": 1, "zero": true}
Traces: {"u": [<ratfunc>, ...]}
Series batch: {"series": [{"x0": "1/2", "coeffs": ["1", "0", ...]}, ...]}

Every parse error names the offending field.  A missing key is named as
its own field (`poly.terms[0].exps: missing`); a value that is not an
object, or an object with a key its kind does not define, names the
object (`current: unknown keys ['typo']`).  Parsing rejects a fraction
string in exponent notation ("1e9"), whose value can take unbounded work
to build, and an exponent above `FLAG_LIMIT`.  An output
coefficient with more digits than Python converts between int and
str raises DomainError naming its term, before anything is written.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import MPoly, RatFunc, as_fraction
from .currents import ResidualCurrent, ZeroCurrent, validate
from .errors import FLAG_LIMIT, DomainError, SchemaError
from .reconstruct import SeriesSample
from .traces import TraceSequence

__all__ = [
    "canonical_dumps",
    "parse_fraction",
    "poly_to_obj", "poly_from_obj",
    "ratfunc_to_obj", "ratfunc_from_obj",
    "current_to_obj", "current_from_obj",
    "traces_to_obj", "traces_from_obj",
    "series_from_obj",
    "loads",
]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def loads(text: str, where: str = "document"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(where, f"not valid JSON ({exc.msg} at char {exc.pos})") from None
    except RecursionError:
        raise SchemaError(where, "nested too deeply to parse") from None
    except ValueError:  # an integer with more digits than int() accepts
        raise SchemaError(where, "holds an integer with too many digits to parse") from None


def _object(obj, field: str, required: tuple[str, ...]) -> dict:
    """obj, checked to be an object with exactly the keys `required`.

    A non-object or an unknown key names `field`; a missing key names
    `field.key`.
    """
    if not isinstance(obj, dict):
        raise SchemaError(field, f"expected an object with keys {list(required)}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{field}.{key}", "missing")
    extra = obj.keys() - required
    if extra:
        raise SchemaError(field, f"unknown keys {sorted(extra)}")
    return obj


def _is_int(value) -> bool:
    """JSON integers only: `true` and `false` parse to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_fraction(value, field: str) -> Fraction:
    """A JSON integer or fraction string, read by `as_fraction`'s rule."""
    if isinstance(value, str) or _is_int(value):
        try:
            return as_fraction(value)
        except DomainError as exc:
            raise SchemaError(field, str(exc)) from None
    raise SchemaError(field, f"expected a fraction string, got {type(value).__name__}")


# ---- polynomials ----------------------------------------------------------


def poly_to_obj(p: MPoly) -> dict:
    terms = []
    for exps, c in p.sorted_terms():
        try:
            coeff = str(c)
        except ValueError:  # more digits than int -> str converts
            raise DomainError(
                f"output polynomial over {list(p.vars)}: the coefficient with exps "
                f"{list(exps)} has too many digits to print") from None
        terms.append({"coeff": coeff, "exps": list(exps)})
    return {"vars": list(p.vars), "terms": terms}


def poly_from_obj(obj, field: str = "poly") -> MPoly:
    _object(obj, field, ("vars", "terms"))
    variables = obj["vars"]
    if (not isinstance(variables, list) or not all(isinstance(v, str) for v in variables)
            or len(set(variables)) != len(variables)):
        raise SchemaError(f"{field}.vars", "must be a list of distinct variable names")
    terms_obj = obj["terms"]
    if not isinstance(terms_obj, list):
        raise SchemaError(f"{field}.terms", "must be a list")
    seen = set()
    pairs = []
    for i, t in enumerate(terms_obj):
        here = f"{field}.terms[{i}]"
        _object(t, here, ("coeff", "exps"))
        c = parse_fraction(t["coeff"], f"{here}.coeff")
        if c == 0:
            raise SchemaError(f"{here}.coeff", "zero terms are not stored")
        exps = t["exps"]
        if (not isinstance(exps, list) or len(exps) != len(variables)
                or not all(_is_int(e) and 0 <= e <= FLAG_LIMIT for e in exps)):
            raise SchemaError(
                f"{here}.exps",
                f"must be a list of {len(variables)} integers from 0 to {FLAG_LIMIT}")
        key = tuple(exps)
        if key in seen:
            raise SchemaError(f"{here}.exps", f"duplicate exponent vector {exps}")
        seen.add(key)
        pairs.append((key, c))
    return MPoly(variables, pairs)


# ---- rational functions ---------------------------------------------------


def ratfunc_to_obj(f: RatFunc) -> dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def ratfunc_from_obj(obj, field: str = "ratfunc") -> RatFunc:
    _object(obj, field, ("num", "den"))
    num = poly_from_obj(obj["num"], f"{field}.num")
    den = poly_from_obj(obj["den"], f"{field}.den")
    if den.is_zero():
        raise SchemaError(f"{field}.den", "denominator is zero")
    return RatFunc(num, den)


# ---- currents -------------------------------------------------------------


def current_to_obj(c: ResidualCurrent | ZeroCurrent) -> dict:
    if isinstance(c, ZeroCurrent):
        return {"n": c.n, "zero": True}
    return {"n": c.n, "P": poly_to_obj(c.p), "r": poly_to_obj(c.r)}


def current_from_obj(obj, field: str = "current") -> ResidualCurrent | ZeroCurrent:
    zero = isinstance(obj, dict) and "zero" in obj
    if zero and obj["zero"] is not True:
        raise SchemaError(f"{field}.zero", "must be true when present")
    _object(obj, field, ("n", "zero") if zero else ("n", "P", "r"))
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise SchemaError(f"{field}.n", "must be a positive integer")
    if zero:
        return ZeroCurrent(n)
    p = poly_from_obj(obj["P"], f"{field}.P")
    r = poly_from_obj(obj["r"], f"{field}.r")
    if p.vars != r.vars:
        raise SchemaError(f"{field}.r", f"variables {r.vars} differ from P's {p.vars}")
    if len(p.vars) != n + 1:
        raise SchemaError(
            f"{field}.n", f"n = {n} needs {n + 1} variables, P has {len(p.vars)}")
    return validate(p, r)


# ---- traces and series ------------------------------------------------------


def traces_to_obj(t: TraceSequence) -> dict:
    return {"u": [ratfunc_to_obj(e) for e in t.entries]}


def traces_from_obj(obj, field: str = "traces") -> TraceSequence:
    u = _object(obj, field, ("u",))["u"]
    if not isinstance(u, list) or not u:
        raise SchemaError(f"{field}.u", "must be a nonempty list")
    entries = tuple(ratfunc_from_obj(e, f"{field}.u[{i}]") for i, e in enumerate(u))
    if any(e.vars != entries[0].vars for e in entries):
        raise SchemaError(f"{field}.u", "entries live over different variable lists")
    return TraceSequence(entries=entries)


def series_from_obj(obj, field: str = "series") -> list[SeriesSample]:
    batch = _object(obj, field, ("series",))["series"]
    if not isinstance(batch, list) or not batch:
        raise SchemaError(f"{field}.series", "must be a nonempty list")
    out = []
    for i, s in enumerate(batch):
        here = f"{field}.series[{i}]"
        _object(s, here, ("x0", "coeffs"))
        x0 = parse_fraction(s["x0"], f"{here}.x0")
        coeffs = s["coeffs"]
        if not isinstance(coeffs, list) or not coeffs:
            raise SchemaError(f"{here}.coeffs", "must be a nonempty list")
        values = tuple(
            parse_fraction(c, f"{here}.coeffs[{j}]") for j, c in enumerate(coeffs))
        out.append(SeriesSample(base_point=x0, coefficients=values))
    return out
