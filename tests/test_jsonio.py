"""Canonical JSON encoding: bit-exact roundtrips and named schema errors."""

import sys
from fractions import Fraction

import pytest

from residualtrace.algebra import MPoly, RatFunc
from residualtrace.currents import ZeroCurrent, validate
from residualtrace.errors import DomainError, SchemaError
from residualtrace.jsonio import (
    canonical_dumps,
    current_from_obj,
    current_to_obj,
    loads,
    parse_fraction,
    poly_from_obj,
    poly_to_obj,
    ratfunc_from_obj,
    ratfunc_to_obj,
    series_from_obj,
    traces_from_obj,
    traces_to_obj,
)
from residualtrace.traces import TraceSequence, traces

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")


def test_canonical_dumps_shape():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_canonical_dumps_refuses_nonfinite_floats(value):
    with pytest.raises(ValueError):
        canonical_dumps({"tolerance": value})


def test_loads_error_names_location():
    with pytest.raises(SchemaError) as exc:
        loads("{not json", "payload")
    assert exc.value.field == "payload"


def test_parse_fraction():
    assert parse_fraction("-3/2", "f") == Fraction(-3, 2)
    assert parse_fraction(7, "f") == Fraction(7)
    with pytest.raises(SchemaError):
        parse_fraction("3/0", "f")
    with pytest.raises(SchemaError):
        parse_fraction(1.5, "f")


def test_poly_roundtrip_bit_exact():
    p = X * X * Y - Y.scale(Fraction(3, 2)) + 1
    blob = canonical_dumps(poly_to_obj(p))
    again = poly_from_obj(loads(blob))
    assert again == p
    assert canonical_dumps(poly_to_obj(again)) == blob


def test_poly_terms_sorted_descending():
    p = X + Y * Y * X + 1
    obj = poly_to_obj(p)
    assert obj["terms"][0]["exps"] == [1, 2]
    assert obj["terms"][-1]["exps"] == [0, 0]


def test_poly_schema_errors_name_fields():
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"vars": ["x"]})
    assert exc.value.field == "poly.terms"
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"terms": []})
    assert exc.value.field == "poly.vars"
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"vars": ["x", "x"], "terms": []})
    assert exc.value.field == "poly.vars"
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"vars": ["x"], "terms": [{"coeff": "1"}]})
    assert exc.value.field == "poly.terms[0].exps"
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"vars": ["x"], "terms": [{"coeff": "0", "exps": [1]}]})
    assert exc.value.field == "poly.terms[0].coeff"
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"vars": ["x"], "terms": [{"coeff": "1", "exps": [1, 2]}]})
    assert exc.value.field == "poly.terms[0].exps"
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"vars": ["x"], "terms": [
            {"coeff": "1", "exps": [1]}, {"coeff": "2", "exps": [1]}]})
    assert exc.value.field == "poly.terms[1].exps"
    with pytest.raises(SchemaError) as exc:
        poly_from_obj({"vars": ["x"], "terms": [
            {"coeff": "1", "exps": [0], "note": "hi"}]})
    assert exc.value.field == "poly.terms[0]"


def test_ratfunc_roundtrip_and_zero_denominator():
    f = RatFunc(X, Y + 1)
    assert ratfunc_from_obj(loads(canonical_dumps(ratfunc_to_obj(f)))) == f
    bad = {"num": poly_to_obj(X), "den": poly_to_obj(MPoly.zero(V))}
    with pytest.raises(SchemaError) as exc:
        ratfunc_from_obj(bad)
    assert exc.value.field == "ratfunc.den"


def test_current_roundtrip():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    blob = canonical_dumps(current_to_obj(c))
    again = current_from_obj(loads(blob))
    assert again == c
    assert canonical_dumps(current_to_obj(again)) == blob


def test_zero_current_roundtrip():
    z = ZeroCurrent(2)
    obj = current_to_obj(z)
    assert obj == {"n": 2, "zero": True}
    assert current_from_obj(obj) == z
    with pytest.raises(SchemaError):
        current_from_obj({"n": 1, "zero": True, "P": poly_to_obj(Y)})


def test_current_schema_checks():
    with pytest.raises(SchemaError) as exc:
        current_from_obj({"P": poly_to_obj(Y), "r": poly_to_obj(X)})
    assert exc.value.field == "current.n"
    with pytest.raises(SchemaError) as exc:
        current_from_obj({"n": 2, "P": poly_to_obj(Y - X),
                          "r": poly_to_obj(MPoly.constant(V, 1))})
    assert exc.value.field == "current.n"
    with pytest.raises(SchemaError):
        current_from_obj({"n": 1, "P": poly_to_obj(Y - X)})
    # mathematically invalid but well-formed input raises a domain error
    with pytest.raises(DomainError, match="monic"):
        current_from_obj({"n": 1, "P": poly_to_obj(Y.scale(2) - X),
                          "r": poly_to_obj(MPoly.constant(V, 1))})


def test_traces_roundtrip():
    c = validate(Y * Y - X, MPoly.constant(V, 1))
    t = traces(c, 5)
    blob = canonical_dumps(traces_to_obj(t))
    again = traces_from_obj(loads(blob))
    assert again.entries == t.entries
    assert canonical_dumps(traces_to_obj(again)) == blob


def test_traces_equal_their_json_round_trip():
    # a trace sequence is its entries: nothing the JSON form drops may take
    # part in equality
    t = traces(validate(Y * Y - X, MPoly.constant(V, 1)), 4)
    assert traces_from_obj(traces_to_obj(t)) == t
    assert TraceSequence(t.entries) == t


def test_traces_schema_checks():
    with pytest.raises(SchemaError) as exc:
        traces_from_obj({"u": []})
    assert exc.value.field == "traces.u"
    with pytest.raises(SchemaError):
        traces_from_obj([1, 2])


def test_series_parsing():
    obj = {"series": [{"x0": "1/2", "coeffs": ["1", "0", "-2/3"]}]}
    batch = series_from_obj(obj)
    assert len(batch) == 1
    assert batch[0].base_point == Fraction(1, 2)
    assert batch[0].coefficients == (Fraction(1), Fraction(0), Fraction(-2, 3))


def test_series_schema_checks():
    with pytest.raises(SchemaError) as exc:
        series_from_obj({"series": [{"coeffs": ["1"]}]})
    assert exc.value.field == "series.series[0].x0"
    with pytest.raises(SchemaError) as exc:
        series_from_obj({"series": [{"x0": "1", "coeffs": []}]})
    assert exc.value.field == "series.series[0].coeffs"
    with pytest.raises(SchemaError) as exc:
        series_from_obj({"series": [{"x0": "1", "coeffs": ["bad"]}]})
    assert exc.value.field == "series.series[0].coeffs[0]"


@pytest.mark.parametrize("parse, obj, field, key", [
    (poly_from_obj, {"vars": ["x"], "terms": [], "junk": 1}, "poly", "junk"),
    (ratfunc_from_obj, {"num": poly_to_obj(X), "den": poly_to_obj(Y), "extra": 0},
     "ratfunc", "extra"),
    (ratfunc_from_obj, {"num": {**poly_to_obj(X), "junk": 1}, "den": poly_to_obj(Y)},
     "ratfunc.num", "junk"),
    (current_from_obj, {"n": 1, "typo": 3, "P": poly_to_obj(Y - X),
                        "r": poly_to_obj(MPoly.constant(V, 1))}, "current", "typo"),
    (current_from_obj, {"n": 1, "P": {**poly_to_obj(Y - X), "junk": 1},
                        "r": poly_to_obj(MPoly.constant(V, 1))}, "current.P", "junk"),
    (current_from_obj, {"n": 1, "zero": True, "typo": 3}, "current", "typo"),
    (traces_from_obj, {"u": [ratfunc_to_obj(RatFunc(X))], "v": []}, "traces", "v"),
    (series_from_obj, {"series": [{"x0": "1", "coeffs": ["1"], "x1": "2"}]},
     "series.series[0]", "x1"),
    (series_from_obj, {"series": [{"x0": "1", "coeffs": ["1"]}], "n": 1}, "series", "n"),
])
def test_unknown_keys_are_named(parse, obj, field, key):
    with pytest.raises(SchemaError, match=key) as exc:
        parse(obj)
    assert exc.value.field == field


@pytest.mark.parametrize("parse, obj, field, message", [
    (poly_from_obj, {"terms": []}, "poly.vars", "missing"),
    (poly_from_obj, {"vars": ["x"], "terms": [{"exps": [1]}]}, "poly.terms[0].coeff", "missing"),
    (ratfunc_from_obj, {"num": poly_to_obj(X)}, "ratfunc.den", "missing"),
    (current_from_obj, {"n": 1, "P": poly_to_obj(Y - X)}, "current.r", "missing"),
    (current_from_obj, {"zero": True}, "current.n", "missing"),
    (traces_from_obj, {}, "traces.u", "missing"),
    (series_from_obj, {}, "series.series", "missing"),
    (series_from_obj, {"series": [{"x0": "1"}]}, "series.series[0].coeffs", "missing"),
    # a value that is not an object names its own field
    (ratfunc_from_obj, {"num": [], "den": poly_to_obj(Y)}, "ratfunc.num", "expected an object"),
])
def test_missing_keys_are_named(parse, obj, field, message):
    with pytest.raises(SchemaError, match=message) as exc:
        parse(obj)
    assert exc.value.field == field


def test_zero_flag_must_be_true():
    with pytest.raises(SchemaError) as exc:
        current_from_obj({"n": 1, "zero": False, "P": poly_to_obj(Y - X),
                          "r": poly_to_obj(MPoly.constant(V, 1))})
    assert exc.value.field == "current.zero"


def test_loads_refuses_integers_too_long_to_convert():
    with pytest.raises(SchemaError) as exc:
        loads('{"n": ' + "7" * 5000 + "}", "current")
    assert exc.value.field == "current"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts ints of any length to str")
def test_poly_to_obj_names_a_coefficient_too_long_to_print():
    big = MPoly(V, {(0, 1): 1, (1, 0): Fraction(10 ** 4400, 3)})
    with pytest.raises(DomainError, match=r"exps \[1, 0\]"):
        poly_to_obj(big)


HUGE = "1e1000000000"  # Fraction(HUGE) would build a billion-digit integer


@pytest.mark.parametrize("parse, obj, field", [
    (current_from_obj,
     {"n": 1, "P": poly_to_obj(Y - X),
      "r": {"vars": ["x", "y"], "terms": [{"coeff": HUGE, "exps": [0, 0]}]}},
     "current.r.terms[0].coeff"),
    (series_from_obj, {"series": [{"x0": HUGE, "coeffs": ["1"]}]}, "series.series[0].x0"),
    (series_from_obj, {"series": [{"x0": "1", "coeffs": ["1", "2E-3"]}]},
     "series.series[0].coeffs[1]"),
])
def test_exponent_notation_is_refused_before_any_work(parse, obj, field):
    with pytest.raises(SchemaError, match="exponent notation") as exc:
        parse(obj)
    assert exc.value.field == field
    with pytest.raises(SchemaError, match="exponent notation"):
        parse_fraction("-3e2", "f")


def test_exponents_above_the_work_limit_are_refused():
    from residualtrace.errors import FLAG_LIMIT
    P = {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [0, FLAG_LIMIT]},
                                       {"coeff": "-1", "exps": [1, 0]}]}
    r = {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [FLAG_LIMIT + 1, 0]}]}
    with pytest.raises(SchemaError, match=f"integers from 0 to {FLAG_LIMIT}") as exc:
        current_from_obj({"n": 1, "P": P, "r": r})
    assert exc.value.field == "current.r.terms[0].exps"
    # the limit itself parses
    assert poly_from_obj(P).degree("y") == FLAG_LIMIT
