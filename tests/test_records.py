"""Value semantics of the package's record types.

Each record is an immutable value: it is built positionally or by keyword
with the documented defaults, validates its input, compares equal only to
an equal record of its own type, hashes equal values equally (RadonForm,
which holds a dict, is unhashable), prints as `Type(field=value, ...)`,
refuses attribute assignment and deletion, and survives copy and pickle.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from residualtrace.algebra import FracMatrix, MPoly, RatFunc
from residualtrace.currents import ResidualCurrent, ZeroCurrent, validate
from residualtrace.errors import DomainError
from residualtrace.radon import LineChart, RadonForm, line_chart
from residualtrace.reconstruct import ReconstructionReport, SeriesSample
from residualtrace.traces import TraceSequence

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")
U = (RatFunc(MPoly.variable(("x",), "x")), RatFunc(MPoly.constant(("x",), 2)))
W = RatFunc(MPoly.variable(("z",), "z"))


def _current(shift=0):
    return validate(Y * Y - X + shift, MPoly.constant(V, 1))


# Per type: (field names, a builder of one value from a variant index).
# Variants 0 and 1 differ; two builds of the same variant are equal values
# that are distinct objects.
RECORDS = {
    "ResidualCurrent": (("p", "r"), lambda i: ResidualCurrent(_current(i).p, _current(i).r)),
    "ZeroCurrent": (("n",), lambda i: ZeroCurrent(1 + i)),
    "TraceSequence": (("entries",), lambda i: TraceSequence(U[i:])),
    "SeriesSample": (("base_point", "coefficients"),
                     lambda i: SeriesSample(Fraction(1, 2), (1, "2/3", Fraction(i)))),
    "ReconstructionReport": (
        ("degree", "current", "residual_violations", "meromorphic_coefficients",
         "denominator_coefficients", "numerator_coefficients"),
        lambda i: ReconstructionReport(2, _current(i), 0, False, (U[0],), (U[1],))),
    "LineChart": (("n", "a_names", "b_names"), lambda i: line_chart(1 + i)),
    "RadonForm": (("n", "components"),
                  lambda i: RadonForm(1, {frozenset(): U[i], frozenset({1}): U[0]})),
    "FracMatrix": (("entries",), lambda i: FracMatrix([[U[i], U[0]], [U[1], U[1]]])),
}
HASHABLE = [name for name in RECORDS if name != "RadonForm"]


def test_positional_and_keyword_construction_with_defaults():
    c = _current()
    assert ResidualCurrent(c.p, c.r) == ResidualCurrent(r=c.r, p=c.p) == c
    assert ZeroCurrent(2) == ZeroCurrent(n=2) and ZeroCurrent(2).n == 2

    t = TraceSequence(U)
    assert t.entries == U and TraceSequence(entries=U) == t
    assert len(t) == 2 and t[1] == U[1] and t.vars == ("x",) and not t.is_zero()

    s = SeriesSample(base_point="1/2", coefficients=[1, Fraction(2, 3)])
    assert s == SeriesSample("1/2", (1, Fraction(2, 3))) and len(s) == 2

    r = ReconstructionReport(1, None, 0)
    assert r.meromorphic_coefficients is False
    assert r.denominator_coefficients == () and r.numerator_coefficients == ()
    assert r == ReconstructionReport(degree=1, current=None, residual_violations=0,
                                     meromorphic_coefficients=False,
                                     denominator_coefficients=(), numerator_coefficients=())

    chart = LineChart(1, ("a",), ("b",))
    assert chart == LineChart(n=1, a_names=("a",), b_names=("b",)) == line_chart(1)
    assert chart.vars == ("a", "b")

    form = RadonForm(1, {frozenset(): U[0]})
    assert form == RadonForm(n=1, components={frozenset(): U[0]})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_signature_rejects_extra_and_missing_arguments(name):
    fields, build = RECORDS[name]
    value = build(0)
    args = [getattr(value, f) for f in fields]
    cls = type(value)
    assert cls(*args) == value
    assert cls(**dict(zip(fields, args))) == value
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:-1], **{fields[-1]: args[-1]}, bogus=1)
    if name != "ReconstructionReport":
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_trace_sequence_validation():
    with pytest.raises(DomainError, match="at least one entry"):
        TraceSequence(())
    with pytest.raises(DomainError, match="different variable lists"):
        TraceSequence((U[0], W))


def test_series_sample_coerces_and_refuses_floats():
    s = SeriesSample(1, [2, "3/4", Fraction(5, 6)])
    assert type(s.base_point) is Fraction and s.base_point == 1
    assert type(s.coefficients) is tuple
    assert all(type(c) is Fraction for c in s.coefficients)
    assert s.coefficients == (2, Fraction(3, 4), Fraction(5, 6))
    with pytest.raises(DomainError, match="floating point"):
        SeriesSample(0.5, (1,))
    with pytest.raises(DomainError, match="floating point"):
        SeriesSample(0, (1, 0.25))
    with pytest.raises(DomainError, match="boolean"):
        SeriesSample(True, [False, True])
    with pytest.raises(DomainError, match="boolean"):
        SeriesSample(True, (0, 1))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_within_and_across_types(name):
    _, build = RECORDS[name]
    a, b, other = build(0), build(0), build(1)
    assert a is not b
    assert a == b and not (a != b)
    assert a != other and not (a == other)
    for foreign in RECORDS:
        if foreign != name:
            z = RECORDS[foreign][1](0)
            assert a != z and not (a == z)
    assert a != (a,) and a != None  # noqa: E711


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_equally(name):
    _, build = RECORDS[name]
    a, b = build(0), build(0)
    assert hash(a) == hash(b)
    assert len({a, b, build(1)}) == 2


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_is_the_hash_of_the_field_tuple(name):
    # radon's memo keys are these hashes: they must not move
    fields, build = RECORDS[name]
    for value in (build(0), build(1)):
        assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


def test_radon_form_is_unhashable():
    with pytest.raises(TypeError):
        hash(RECORDS["RadonForm"][1](0))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field(name):
    fields, build = RECORDS[name]
    value = build(0)
    body = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{name}({body})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_raises_attribute_error(name):
    fields, build = RECORDS[name]
    value = build(0)
    before = repr(value)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
        with pytest.raises(AttributeError):
            delattr(value, f)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle_give_an_equal_record(name):
    value = RECORDS[name][1](0)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value
