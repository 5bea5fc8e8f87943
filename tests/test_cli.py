"""End-to-end command line behavior: exit codes, determinism, pipe identity."""

import io
import json
import logging
import subprocess
import sys

import pytest

from residualtrace.algebra import MPoly
from residualtrace.currents import validate
from residualtrace.errors import FLAG_LIMIT, DomainError
from residualtrace.jsonio import canonical_dumps, current_to_obj, traces_to_obj
from residualtrace.traces import traces

V = ("x", "y")
X = MPoly.variable(V, "x")
Y = MPoly.variable(V, "y")

RUNNING_EXAMPLE = canonical_dumps(
    current_to_obj(validate(Y * Y - X, MPoly.constant(V, 1))))
# its traces u_0 .. u_5, and the README's series of u_0 .. u_3 at x0 = 1
TRACED = canonical_dumps(traces_to_obj(traces(validate(Y * Y - X, MPoly.constant(V, 1)), 6)))
SERIES = json.dumps({"series": [{"x0": "1", "coeffs": c + ["0"] * (8 - len(c))}
                                for c in (["0"], ["1"], ["0"], ["1", "1"])]})


def run_cli(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "residualtrace", *args],
        input=stdin_text, capture_output=True, text=True, timeout=180)


def test_trace_running_example():
    out = run_cli(["trace", "--count", "4"], RUNNING_EXAMPLE)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert len(payload["u"]) == 4
    # u_1 = 1: constant numerator over ("x",)
    assert payload["u"][1]["num"]["terms"] == [{"coeff": "1", "exps": [0]}]


def test_pipe_identity_bytes():
    traced = run_cli(["trace", "--count", "6"], RUNNING_EXAMPLE)
    assert traced.returncode == 0
    back = run_cli(["reconstruct"], traced.stdout)
    assert back.returncode == 0
    assert back.stdout == RUNNING_EXAMPLE


def test_runs_are_deterministic():
    a = run_cli(["trace"], RUNNING_EXAMPLE)
    b = run_cli(["trace"], RUNNING_EXAMPLE)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "traces.json"
    out = run_cli(["trace", "--count", "4", "-o", str(target)], RUNNING_EXAMPLE)
    assert out.returncode == 0
    assert out.stdout == ""
    assert json.loads(target.read_text())["u"][3]["num"]["terms"] == [
        {"coeff": "1", "exps": [1]}]


def test_malformed_poly_exits_2():
    bad = '{"n":1,"P":{"vars":["x","y"]},"r":{"vars":["x","y"],"terms":[]}}'
    out = run_cli(["trace"], bad)
    assert out.returncode == 2
    assert "terms" in out.stderr


def test_invalid_json_exits_2():
    out = run_cli(["reconstruct"], "{oops")
    assert out.returncode == 2


def test_deeply_nested_json_exits_2():
    deep = '{"u":' + "[" * 200_000 + "]" * 200_000 + "}"
    out = run_cli(["reconstruct"], deep)
    assert out.returncode == 2
    assert "traces" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_import_leaves_numpy_unloaded():
    # start-up loads no module that trace/reconstruct/radon/continue never run
    unused = ["numpy", "dataclasses", "inspect", "logging",
              "residualtrace.verify", "residualtrace.sampling"]
    code = ("import sys, residualtrace, residualtrace.cli; "
            f"print([m for m in {unused!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_validate_still_logs_what_it_changed(caplog):
    with caplog.at_level(logging.INFO, logger="residualtrace.currents"):
        c = validate(Y * Y - X, Y ** 3)
    assert c.r == X * Y
    assert [r.getMessage() for r in caplog.records] == ["reduced r modulo p in y"]
    assert caplog.records[0].levelno == logging.INFO


@pytest.mark.parametrize("doc, field", [
    ({"n": 1, "P": {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [0, 2]},
                                                  {"coeff": "-1", "exps": [1, 0]}]},
      "r": {"vars": ["x", "y"], "terms": [{"coeff": "1e3000000", "exps": [0, 0]}]}},
     "current.r.terms[0].coeff"),
    ({"n": 1, "P": {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [0, FLAG_LIMIT + 1]},
                                                  {"coeff": "-1", "exps": [1, 0]}]},
      "r": {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [0, 0]}]}},
     "current.P.terms[0].exps"),
])
def test_hostile_numbers_exit_2_naming_the_field(doc, field, capsys, monkeypatch):
    # in-process: the document is refused while parsing, before any work starts
    from residualtrace.cli import main
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["trace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_domain_error_exits_1():
    nonmonic = json.dumps({
        "n": 1,
        "P": {"vars": ["x", "y"], "terms": [{"coeff": "2", "exps": [0, 1]}]},
        "r": {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": [0, 0]}]},
    })
    out = run_cli(["trace"], nonmonic)
    assert out.returncode == 1
    assert "monic" in out.stderr


def test_missing_input_file_exits_2():
    out = run_cli(["trace", "/nonexistent/path.json"])
    assert out.returncode == 2


def test_unknown_command_exits_2():
    out = run_cli(["frobnicate"])
    assert out.returncode == 2


def test_reconstruct_writes_report(tmp_path):
    traced = run_cli(["trace", "--count", "6"], RUNNING_EXAMPLE)
    report_path = tmp_path / "report.json"
    out = run_cli(["reconstruct", "--report", str(report_path)], traced.stdout)
    assert out.returncode == 0
    report = json.loads(report_path.read_text())
    assert report == {
        "degree": 2, "meromorphic_coefficients": False, "residual_violations": 0}


def run_main(args, stdin_text, monkeypatch, capsys):
    """`cli.main` in-process: (exit code, stdout, stderr)."""
    from residualtrace.cli import main
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("output", [[], ["-o", "-"]])
def test_reconstruct_report_and_current_cannot_share_stdout(output, monkeypatch, capsys):
    # two documents on stdout would break the one-canonical-document contract
    code, out, err = run_main(["reconstruct", "--report", "-", *output], TRACED,
                              monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: report: ") and "--report" in err


def test_reconstruct_report_alone_on_stdout(tmp_path, monkeypatch, capsys):
    target = tmp_path / "current.json"
    code, out, _ = run_main(["reconstruct", "--report", "-", "-o", str(target)], TRACED,
                            monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {
        "degree": 2, "meromorphic_coefficients": False, "residual_violations": 0}
    assert target.read_text() == RUNNING_EXAMPLE


@pytest.mark.parametrize("args, stdin_text", [
    pytest.param(["trace"], RUNNING_EXAMPLE, id="trace"),
    pytest.param(["radon"], RUNNING_EXAMPLE, id="radon"),
    pytest.param(["reconstruct"], TRACED, id="reconstruct"),
    pytest.param(["continue", "--num-deg", "2", "--den-deg", "0"], SERIES, id="continue"),
])
def test_unwritable_output_exits_2_naming_the_flag(args, stdin_text, tmp_path, monkeypatch,
                                                   capsys):
    missing = str(tmp_path / "missing" / "x.json")
    code, out, err = run_main([*args, "-o", missing], stdin_text, monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: output: cannot write {missing}: ")
    assert err.count("\n") == 1


def test_unwritable_report_exits_2_with_stdout_empty(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing" / "x.json")
    code, out, err = run_main(["reconstruct", "--report", missing], TRACED, monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: report: cannot write {missing}: ")


def test_reconstruct_meromorphic_exits_1():
    # u_k = 2^k / x needs a non-polynomial numerator
    payload = {"u": [
        {"num": {"vars": ["x"], "terms": [{"coeff": str(2 ** k), "exps": [0]}]},
         "den": {"vars": ["x"], "terms": [{"coeff": "1", "exps": [1]}]}}
        for k in range(4)]}
    out = run_cli(["reconstruct"], json.dumps(payload))
    assert out.returncode == 1
    assert "polynomial" in out.stderr


def test_reconstruct_without_base_variables_exits_1():
    # u_k = 2^k fits p = y - 2, r = 1, but a current needs a base variable;
    # all-zero traces would give the zero current, which needs one too
    one = {"vars": [], "terms": [{"coeff": "1", "exps": []}]}
    nonzero = {"u": [
        {"num": {"vars": [], "terms": [{"coeff": str(2 ** k), "exps": []}]}, "den": one}
        for k in range(4)]}
    zero = {"u": [{"num": {"vars": [], "terms": []}, "den": one} for _ in range(4)]}
    for payload in (nonzero, zero):
        out = run_cli(["reconstruct"], json.dumps(payload))
        assert out.returncode == 1
        assert "at least one base variable" in out.stderr
        assert out.stdout == ""


def test_reconstruct_degree_detection_failure_exits_1():
    payload = {"u": [
        {"num": {"vars": ["x"], "terms": [{"coeff": str(v), "exps": [0]}]},
         "den": {"vars": ["x"], "terms": [{"coeff": "1", "exps": [0]}]}}
        for v in (1, 1, 2, 6, 24, 120)]}
    out = run_cli(["reconstruct", "--dmax", "2"], json.dumps(payload))
    assert out.returncode == 1


def test_radon_with_closedness():
    shifted = canonical_dumps(current_to_obj(validate(Y * Y - X, Y)))
    out = run_cli(["radon", "--kmax", "3", "--check-closedness"], shifted)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["closedness_violations"] == []
    assert len(payload["u_ab"]) == 4
    # u_1 = a
    assert payload["u_ab"][1]["num"]["terms"] == [{"coeff": "1", "exps": [1, 0]}]


def test_radon_closedness_with_kmax_below_n_exits_2():
    # closedness window k needs u_{k+n}: with --kmax below n there is no
    # window to check, and an empty violation list would read as a pass
    W = ("x1", "x2", "y")
    x1, x2, y = (MPoly.variable(W, v) for v in W)
    current = canonical_dumps(current_to_obj(validate(y * y - x1 - x2, MPoly.constant(W, 1))))
    for args, text in ((["radon", "--kmax", "1", "--check-closedness"], current),
                       (["radon", "--kmax", "0", "--check-closedness"], RUNNING_EXAMPLE)):
        out = run_cli(args, text)
        assert out.returncode == 2
        assert out.stdout == ""
        [line] = out.stderr.splitlines()
        assert "--kmax" in line and "n = " in line
    # without the check the same --kmax still emits its chart traces
    out = run_cli(["radon", "--kmax", "1"], current)
    assert out.returncode == 0
    assert len(json.loads(out.stdout)["u_ab"]) == 2


def test_radon_with_a_fiber_named_like_a_chart_variable():
    # the fiber "a" is also the chart slope: same output as the fiber "y"
    W = ("x", "a")
    renamed = canonical_dumps(current_to_obj(validate(
        MPoly.variable(W, "a") ** 2 - MPoly.variable(W, "x"), MPoly.constant(W, 1))))
    args = ["radon", "--check-closedness"]
    out = run_cli(args, renamed)
    assert out.returncode == 0, out.stderr
    assert out.stdout == run_cli(args, RUNNING_EXAMPLE).stdout


def test_zero_current_has_no_trace_data():
    out = run_cli(["trace"], '{"n":1,"zero":true}')
    assert out.returncode == 1


def test_continue_roundtrip():
    # series of the running example's traces at x0 = 1
    traced = run_cli(["trace", "--count", "6"], RUNNING_EXAMPLE)
    u = json.loads(traced.stdout)["u"]

    def poly_coeffs(obj):
        out = {}
        for t in obj["terms"]:
            out[t["exps"][0]] = t["coeff"]
        return out

    series = []
    for f in u:
        coeffs = poly_coeffs(f["num"])
        # entries here are 0, 1, x, x^2: expand (x0 + t)^e by hand for e <= 2
        table = {
            (): ["0"],
            ((0, "1"),): ["1"],
            ((1, "1"),): ["1", "1"],
            ((2, "1"),): ["1", "2", "1"],
        }
        key = tuple(sorted(coeffs.items()))
        series.append({"x0": "1", "coeffs": table[key] + ["0"] * (8 - len(table[key]))})
    out = run_cli(["continue", "--num-deg", "2", "--den-deg", "0"],
                  json.dumps({"series": series}))
    assert out.returncode == 0
    assert out.stdout == RUNNING_EXAMPLE


def test_continue_reports_failing_index():
    import math
    geometric = {"x0": "0", "coeffs": ["1"] * 8}
    exp_like = {"x0": "0",
                "coeffs": [f"1/{math.factorial(k)}" for k in range(8)]}
    payload = {"series": [exp_like] + [geometric] * 3}
    out = run_cli(["continue", "--num-deg", "3", "--den-deg", "3"],
                  json.dumps(payload))
    assert out.returncode == 1
    assert "trace 0" in out.stderr


def test_continue_requires_degree_flags():
    out = run_cli(["continue"], '{"series":[{"x0":"0","coeffs":["1"]}]}')
    assert out.returncode == 2


def test_verify_small_deterministic():
    args = ["verify", "--seed", "7"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    assert report["pass"] is True
    assert [s["name"] for s in report["suites"]] == [
        "roundtrip-inversion", "trace-recurrence", "hankel-determinant",
        "radon-closedness", "numeric-oracle"]
    assert "PASS overall" in a.stderr


def _with_bool(path, value=True):
    """The running example with one JSON field replaced by a boolean."""
    doc = json.loads(RUNNING_EXAMPLE)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return json.dumps(doc)


def test_boolean_n_exits_2():
    out = run_cli(["trace"], _with_bool(["n"]))
    assert out.returncode == 2
    assert "current.n" in out.stderr


def test_boolean_exponent_exits_2():
    out = run_cli(["trace"], _with_bool(["P", "terms", 0, "exps", 0], False))
    assert out.returncode == 2
    assert "current.P.terms[0].exps" in out.stderr


def test_boolean_coefficient_exits_2():
    out = run_cli(["trace"], _with_bool(["r", "terms", 0, "coeff"]))
    assert out.returncode == 2
    assert "current.r.terms[0].coeff" in out.stderr


@pytest.mark.parametrize("args, flag", [
    pytest.param(["trace", "--count", "0"], "--count", id="trace-count-0"),
    pytest.param(["radon", "--kmax", "-1"], "--kmax", id="radon-kmax-neg1"),
    pytest.param(["reconstruct", "--dmax", "0"], "--dmax", id="reconstruct-dmax-0"),
    pytest.param(["reconstruct", "--dmax", "-3"], "--dmax", id="reconstruct-dmax-neg3"),
    pytest.param(["continue", "--dmax", "0", "--num-deg", "2", "--den-deg", "0"], "--dmax",
                 id="continue-dmax-0"),
    pytest.param(["continue", "--num-deg", "-1", "--den-deg", "0"], "--num-deg",
                 id="continue-num-deg-neg1"),
    pytest.param(["continue", "--num-deg", "2", "--den-deg", "-1"], "--den-deg",
                 id="continue-den-deg-neg1"),
])
def test_numeric_flag_below_its_floor_exits_2(args, flag):
    out = run_cli(args, RUNNING_EXAMPLE)
    assert out.returncode == 2
    assert out.stdout == ""
    assert flag in out.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_rejects_nonfinite_or_negative_tolerance(value):
    out = run_cli(["verify", "--tolerance", value])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "--tolerance" in out.stderr


def test_oracle_domain_error_is_a_named_failure(monkeypatch):
    from residualtrace import verify

    def refuse(form):
        raise DomainError("no residue sum here")

    monkeypatch.setattr(verify, "residue_sum", refuse)
    suite = verify.check_numeric_oracle(3, count=2)
    assert suite["pass"] is False
    assert suite["failed_indices"] == [0, 1]
    assert suite["failure_reasons"] == [
        [0, "oracle raised: no residue sum here"],
        [1, "oracle raised: no residue sum here"]]
    assert suite["max_abs_error"] == 0.0
    canonical_dumps(suite)  # finite numbers only: valid canonical JSON


def test_unknown_keys_exit_2():
    doc = json.loads(RUNNING_EXAMPLE)
    doc["typo"] = 3
    doc["P"]["junk"] = 1
    out = run_cli(["trace"], json.dumps(doc))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "current" in out.stderr and "typo" in out.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts ints of any length to str")
@pytest.mark.parametrize("args, exps", [
    (["trace", "--count", "4400"], "exps [0]"),
    (["radon", "--kmax", "4399"], "exps [0, 0]"),
])
def test_coefficients_too_long_to_print_exit_1(args, exps):
    # u_k = 10^k for P = y - 10, r = 1 (in line coordinates too); u_4399 has 4400 digits
    current = canonical_dumps(current_to_obj(validate(Y - 10, MPoly.constant(V, 1))))
    out = run_cli(args, current)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("error: ") and exps in out.stderr


@pytest.mark.parametrize("args, flag", [
    pytest.param(["trace", "--count"], "--count", id="trace-count"),
    pytest.param(["radon", "--kmax"], "--kmax", id="radon-kmax"),
    pytest.param(["reconstruct", "--dmax"], "--dmax", id="reconstruct-dmax"),
    pytest.param(["continue", "--num-deg", "0", "--den-deg", "0", "--dmax"], "--dmax",
                 id="continue-dmax"),
    pytest.param(["continue", "--den-deg", "0", "--num-deg"], "--num-deg",
                 id="continue-num-deg"),
    pytest.param(["continue", "--num-deg", "0", "--den-deg"], "--den-deg",
                 id="continue-den-deg"),
])
def test_numeric_flag_above_the_work_limit_exits_2(args, flag, capsys):
    # in-process and refused by argument parsing, so no input is read and
    # no work starts; the limit itself still parses
    from residualtrace.cli import FLAG_LIMIT as CLI_LIMIT, build_parser, main
    assert CLI_LIMIT is FLAG_LIMIT  # one limit, defined in errors, for flags and exponents
    assert main([*args, str(FLAG_LIMIT + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at most {FLAG_LIMIT}" in captured.err
    parsed = build_parser().parse_args([*args, str(FLAG_LIMIT)])
    assert getattr(parsed, flag[2:].replace("-", "_")) == FLAG_LIMIT
