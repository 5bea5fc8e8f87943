"""Hostile documents through the command line, in-process.

One field of a README document at a time is replaced by a hostile value:
each value of a fixed list in each field, then drawn JSON values.  The
documents are the running example's current (for `trace` and `radon`),
its traces u_0 .. u_3 (for `reconstruct`) and the series batch of the
`continue` example.  Whatever the value, `main` must return 0, 1 or 2
without raising, and stdout must be empty or exactly one canonical JSON
document.  Integers are small or far past `FLAG_LIMIT`, so an accepted
document stays small and no case starts unbounded work.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from residualtrace.cli import main  # noqa: E402
from residualtrace.errors import FLAG_LIMIT  # noqa: E402
from residualtrace.jsonio import canonical_dumps  # noqa: E402

EXAMPLE = {
    "n": 1,
    "P": {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [0, 2]},
                                        {"coeff": "-1", "exps": [1, 0]}]},
    "r": {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [0, 0]}]},
}
COMMANDS = (["trace"], ["trace", "--count", "3"], ["radon", "--check-closedness"])


def _ratfunc(num_terms):
    return {"num": {"vars": ["x"], "terms": num_terms},
            "den": {"vars": ["x"], "terms": [{"coeff": "1", "exps": [0]}]}}


# u_0 .. u_3 = 0, 1, 0, x, and the series of 0, 1, 0, 1 + t at x0 = 1 (five
# coefficients each, one more than the bounds (2, 0) need)
TRACES = {"u": [_ratfunc([]), _ratfunc([{"coeff": "1", "exps": [0]}]),
                _ratfunc([]), _ratfunc([{"coeff": "1", "exps": [1]}])]}
SERIES = {"series": [{"x0": "1", "coeffs": c + ["0"] * (5 - len(c))}
                     for c in (["0"], ["1"], ["0"], ["1", "1"])]}
# each document with its subcommands, as (document, commands); the listed
# values run under the first command only, which keeps the test near 5 s
OTHER_DOCUMENTS = {
    "traces": (TRACES, (["reconstruct"], ["reconstruct", "--dmax", "1"])),
    "series": (SERIES, (["continue", "--num-deg", "2", "--den-deg", "0"],
                        ["continue", "--num-deg", "2", "--den-deg", "0", "--dmax", "1"])),
}


def paths(node, prefix=()):
    """Every key path into a JSON document, its root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = list(paths(EXAMPLE))

HOSTILE = [
    None, True, False, 0, -1, 2, 0.5, 1.0, float("nan"), float("inf"),
    10 ** 30, -10 ** 30, FLAG_LIMIT + 1,
    "", "x", "y", "1/0", "NaN", "Infinity", "0x10", "1e3", " 1", "1/2", "-0",
    [], {}, [None], ["x", "x"], ["y", "y"], {"coeff": "1"},
]

small_ints = st.integers(-3, 3) | st.sampled_from([10 ** 30, -10 ** 30, FLAG_LIMIT + 1])
scalars = (st.none() | st.booleans() | small_ints | st.floats()
           | st.text(alphabet="0123456789-/.exyabNaInf ", max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["vars", "terms", "coeff", "exps", "n", "z"]), inner,
                      max_size=3),
    max_leaves=6)


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def run(args, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def check(args, doc):
    code, out, err = run(args, json.dumps(doc))
    case = (args, doc, code, err)
    assert code in (0, 1, 2), case
    if code == 0:
        assert out == canonical_dumps(json.loads(out)), case
    else:
        assert out == "", case
        assert err.startswith("error: ") and err.count("\n") == 1, case


def test_each_listed_value_in_each_field():
    for path in PATHS:
        for value in HOSTILE:
            for args in COMMANDS:
                check(args, replaced(EXAMPLE, path, value))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PATHS), json_values, st.sampled_from(COMMANDS))
def test_any_json_value_in_one_field(path, value, args):
    check(args, replaced(EXAMPLE, path, value))


def test_the_example_itself_passes():
    assert len(PATHS) == 26
    for args in COMMANDS:
        code, out, _ = run(args, json.dumps(EXAMPLE))
        assert code == 0 and out == canonical_dumps(json.loads(out))


@pytest.mark.parametrize("kind", OTHER_DOCUMENTS)
def test_each_listed_value_in_each_field_of(kind):
    doc, (args, _) = OTHER_DOCUMENTS[kind]
    for path in paths(doc):
        for value in HOSTILE:
            check(args, replaced(doc, path, value))


@pytest.mark.parametrize("kind", OTHER_DOCUMENTS)
def test_any_json_value_in_one_field_of(kind):
    doc, commands = OTHER_DOCUMENTS[kind]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(paths(doc))), json_values, st.sampled_from(commands))
    def one_field(path, value, args):
        check(args, replaced(doc, path, value))

    one_field()


@pytest.mark.parametrize("kind, count", [("traces", 61), ("series", 33)])
def test_the_other_documents_pass_unless_d_max_is_1(kind, count):
    # the example has fiber degree 2; at d_max = 1, H_1 = [u_0] = [0] is singular
    doc, (args, capped) = OTHER_DOCUMENTS[kind]
    assert len(list(paths(doc))) == count
    code, out, _ = run(args, json.dumps(doc))
    assert code == 0 and out == canonical_dumps(json.loads(out))
    code, out, err = run(capped, json.dumps(doc))
    assert (code, out) == (1, "") and "d=1 singular" in err
