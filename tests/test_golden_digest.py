"""Golden output digest: one SHA-256 over the package's outputs on a seeded corpus.

The corpus holds n=1 and n=2 roundtrip draws (traces, then reconstruct),
n=1 chart draws (radon, closedness_check, pencil_projection), series
draws (continue_current), non-coprime (P, r) pairs and pairs with
deg_y r >= d (validate and poly_gcd).  Every result, or the type and
message of the error raised, is written as canonical JSON.  Canonical JSON
sorts terms, so every output polynomial (traces, chart and pencil entries,
reconstructed, continued and validated currents, gcds) also carries its raw
term dict order, which the kernels keep.  A refactor that must keep the
outputs byte-identical keeps the digest.  `VALUES` hashes the same document
with every "order" key dropped: a change that reorders raw terms on
purpose re-pins `GOLDEN` and must keep `VALUES`.  `VERIFY` holds the SHA-256
of `verify --seed s` stdout, `canonical_dumps(verify_report(s))`, per seed.
"""

import hashlib
import importlib
import json
from fractions import Fraction
from random import Random

import pytest

from residualtrace.algebra import MPoly, poly_gcd
from residualtrace.currents import ResidualCurrent, validate
from residualtrace.errors import DomainError
from residualtrace.jsonio import canonical_dumps, current_to_obj, poly_to_obj, ratfunc_to_obj
from residualtrace.radon import closedness_check, pencil_projection, radon
from residualtrace.reconstruct import continue_current, reconstruct, sample_series
from residualtrace.sampling import base_vars, current_vars, random_base_poly, random_current
from residualtrace.traces import traces
from residualtrace.verify import verify_report

POLY = importlib.import_module("residualtrace.algebra.poly")
# The package attributes `traces`, `radon` and `reconstruct` are functions.
TRACES = importlib.import_module("residualtrace.traces")
RADON = importlib.import_module("residualtrace.radon")
RECONSTRUCT = importlib.import_module("residualtrace.reconstruct")

SEED = 20240611
GOLDEN = "04f568b0f67a54961ec2490d8ef665b2912cf51a2815546fcee170ab17e6a171"
VALUES = "1b3880def0b04cb09a30755e2c0e441fef54c9b56dfebb8a60e04d8507402e01"
VERIFY = {
    1729: "b49c0aca5dfe2c3e4289b5eb11d2e97234c5476f5ade1e3bfe476c194215506e",
    7: "e67507f9d806fd38734009e24937aa5e217014bc15775306d50f87bfafa6c877",
    42: "5b8672dc61c8d5669b5c27a1cb0e90515d96e20eaf6e778829d87ccefd908ce2",
}


def _order(*polys):
    return [[list(e) for e in p.terms] for p in polys]


def _entries(fs):
    return [{**ratfunc_to_obj(f), "order": _order(f.num, f.den)} for f in fs]


def _current(c):
    obj = current_to_obj(c)
    if isinstance(c, ResidualCurrent):
        obj["order"] = _order(c.p, c.r)
    return obj


def _error(exc):
    return {"error": type(exc).__name__, "message": str(exc)}


def _gcd(f, g):
    h = poly_gcd(f, g)
    return {"gcd": poly_to_obj(h), "order": _order(h)}


def _roundtrip(c):
    t = traces(c, 2 * c.degree + 2)
    try:
        report = reconstruct(t, c.degree)
    except DomainError as exc:
        return {"u": _entries(t.entries), "reconstruct": _error(exc)}
    return {"u": _entries(t.entries), "current": _current(report.current),
            "degree": report.degree, "violations": report.residual_violations,
            "meromorphic": report.meromorphic_coefficients}


def _chart(rng, c):
    apex = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(c.n + 1)]
    u = radon(c, 2 * c.degree + c.n)
    out = {"u_ab": _entries(u),
           "closedness": [list(v) for v in closedness_check(u, range(2 * c.degree + 1))]}
    try:
        out["pencil"] = _entries(pencil_projection(c, apex).entries)
    except DomainError as exc:
        out["pencil"] = _error(exc)
    return out


def _series(rng):
    c = random_current(rng, n=1, max_degree=3, coeff_degree=2, max_abs=3)
    t = traces(c, 2 * c.degree + 2)
    num_bound = max(max(e.as_poly().degree("x"), 0) for e in t.entries)
    x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    batch = [sample_series(e, x0, 2 * (num_bound + 1) + 2) for e in t.entries]
    try:
        return _current(continue_current(batch, c.degree, num_bound, 1).current)
    except DomainError as exc:
        return _error(exc)


def _fiber_poly(rng, n, degree, monic, coeff_degree=2):
    """Random polynomial of fiber degree <= degree over the current variables."""
    pieces = {}
    for k in range(degree + 1):
        c = random_base_poly(rng, n, coeff_degree, 3)
        if not c.is_zero():
            pieces[k] = c
    if monic:
        pieces[degree] = MPoly.constant(base_vars(n), 1)
    return MPoly.from_univariate(current_vars(n), "y", pieces)


def _pair(p, r):
    out = {"P": poly_to_obj(p), "r": poly_to_obj(r), **_gcd(p, r)}
    try:
        out["validate"] = _current(validate(p, r))
    except DomainError as exc:
        out["validate"] = _error(exc)
    return out


def corpus_document() -> str:
    rng = Random(SEED)
    doc = {"roundtrip": [], "chart": [], "series": [], "common": [], "high": [], "gcd": []}
    for _ in range(24):
        doc["roundtrip"].append(_roundtrip(random_current(rng, n=1, max_degree=3, coeff_degree=3)))
    for _ in range(12):
        doc["roundtrip"].append(_roundtrip(random_current(rng, n=2, max_degree=2, coeff_degree=2)))
    for _ in range(16):
        c = random_current(rng, n=1, max_degree=2, coeff_degree=1, max_abs=3)
        doc["chart"].append(_chart(rng, c))
    for _ in range(4):
        doc["series"].append(_series(rng))
    for n in (1, 1, 1, 2, 2, 2):
        # P = a * g and r = b * g share the fiber factor g
        g = _fiber_poly(rng, n, rng.randint(1, 2), monic=True, coeff_degree=1)
        a = _fiber_poly(rng, n, rng.randint(1, 2), monic=True, coeff_degree=1)
        b = _fiber_poly(rng, n, rng.randint(0, 1), monic=False, coeff_degree=1)
        doc["common"].append(_pair(a * g, b * g))
    for n in (1, 1, 1, 1, 2, 2, 2, 2):
        d = rng.randint(1, 3)
        p = _fiber_poly(rng, n, d, monic=True)
        r = _fiber_poly(rng, n, rng.randint(d, 2 * d + 1), monic=True)
        r = r.scale(rng.choice((-2, -1, 1, 3)))
        doc["high"].append(_pair(p, r))
    for n in (2, 2, 2, 2, 3, 3, 3, 3):
        # non-monic in every variable: the primitive PRS sees non-constant leads
        h, f, g = (random_base_poly(rng, n, 2, 3) + MPoly.variable(base_vars(n), v)
                   for v in base_vars(n)[-1:] + base_vars(n)[:2])
        doc["gcd"].append(_gcd(f * h, g * h))
    return canonical_dumps(doc)


def _without_order(obj):
    if isinstance(obj, dict):
        return {k: _without_order(v) for k, v in obj.items() if k != "order"}
    if isinstance(obj, list):
        return [_without_order(v) for v in obj]
    return obj


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_digest():
    doc = corpus_document()
    assert _sha256(canonical_dumps(_without_order(json.loads(doc)))) == VALUES
    assert _sha256(doc) == GOLDEN


@pytest.mark.parametrize("seed", sorted(VERIFY))
def test_verify_stdout_digest(seed):
    # exactly the bytes `cmd_verify` writes at the default tolerance
    assert _sha256(canonical_dumps(verify_report(seed))) == VERIFY[seed]


def _clear_trace_memos():
    TRACES._fiber_traces.cache_clear()
    RADON._chart_traces.cache_clear()


def test_reversed_term_order_reaches_no_value():
    """Every term dict built in reverse order leaves values and verify bytes as they are."""
    def documents():
        return corpus_document(), canonical_dumps(verify_report(1729))

    def values(doc):
        return canonical_dumps(_without_order(json.loads(doc)))

    trusted = POLY._trusted

    def reversed_trusted(variables, terms):
        return trusted(variables, dict(reversed(terms.items())))

    doc, report = documents()
    try:
        # reconstruct imports `_trusted` by name, so it is patched there too
        for module in (POLY, RECONSTRUCT):
            module._trusted = reversed_trusted
        _clear_trace_memos()
        reversed_doc, reversed_report = documents()
    finally:
        for module in (POLY, RECONSTRUCT):
            module._trusted = trusted
        _clear_trace_memos()
    assert _sha256(reversed_doc) != _sha256(doc)
    assert values(reversed_doc) == values(doc)
    assert reversed_report == report
