"""Command line interface.

Subcommands read JSON from a file or stdin ("-") and write canonical JSON
to stdout or a file, so they compose by piping.  Exit codes: 0 on success,
1 when the mathematics rejects the input (domain errors, failed detection),
2 for malformed documents or bad usage.

A child loads only what its subcommand runs: the seeded self-check suites
(`verify`, with `sampling`) are imported by `cmd_verify` alone.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import jsonio
from .currents import ZeroCurrent
from .errors import FLAG_LIMIT, DomainError, SchemaError
from .radon import closedness_check, radon
from .reconstruct import continue_current, reconstruct
from .traces import traces

USAGE_EXIT = 2
DOMAIN_EXIT = 1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError("input", f"cannot read {path}: {exc.strerror}") from None


def _write(path: str | None, text: str, flag: str = "output"):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(flag, f"cannot write {path}: {exc.strerror}") from None


def _load_current(path: str):
    return jsonio.current_from_obj(jsonio.loads(_read(path), "current"), "current")


def cmd_trace(args) -> int:
    current = _load_current(args.input)
    if isinstance(current, ZeroCurrent):
        raise DomainError("the zero current has no finite trace data to emit")
    count = args.count if args.count is not None else 2 * current.degree + 2
    t = traces(current, count)
    _write(args.output, jsonio.canonical_dumps(jsonio.traces_to_obj(t)))
    return 0


def cmd_reconstruct(args) -> int:
    if args.report == "-" and args.output in (None, "-"):
        raise SchemaError("report", "--report - needs -o FILE: stdout carries one document")
    t = jsonio.traces_from_obj(jsonio.loads(_read(args.input), "traces"), "traces")
    d_max = args.dmax if args.dmax is not None else max(1, len(t) // 2)
    report = reconstruct(t, d_max)
    if report.current is None:
        raise DomainError(
            "recurrence or numerator coefficients are not polynomial; "
            "no current within this model reproduces the traces")
    text = jsonio.canonical_dumps(jsonio.current_to_obj(report.current))
    # the report goes first, so a report that cannot be written leaves stdout empty
    if args.report:
        _write(args.report, jsonio.canonical_dumps({
            name: getattr(report, name)
            for name in ("degree", "residual_violations", "meromorphic_coefficients")}), "report")
    _write(args.output, text)
    return 0


def cmd_radon(args) -> int:
    current = _load_current(args.input)
    if isinstance(current, ZeroCurrent):
        raise DomainError("the zero current transforms to zero; nothing to emit")
    k_max = args.kmax if args.kmax is not None else 2 * current.degree + current.n
    if args.check_closedness and k_max < current.n:
        raise SchemaError("kmax", f"--kmax {k_max} is below n = {current.n}, so "
                                  "--check-closedness would check no window")
    u = radon(current, k_max)
    payload = {"u_ab": [jsonio.ratfunc_to_obj(f) for f in u]}
    if args.check_closedness:
        violations = closedness_check(u, range(k_max - current.n + 1))
        payload["closedness_violations"] = [[i, k] for i, k in violations]
    _write(args.output, jsonio.canonical_dumps(payload))
    return 0


def cmd_continue(args) -> int:
    batch = jsonio.series_from_obj(jsonio.loads(_read(args.input), "series"), "series")
    d_max = args.dmax if args.dmax is not None else max(1, len(batch) // 2)
    report = continue_current(batch, d_max, args.num_deg, args.den_deg)
    if report.current is None:
        raise DomainError(
            "continued traces have non-polynomial recurrence coefficients; "
            "no current within this model matches them")
    _write(args.output, jsonio.canonical_dumps(jsonio.current_to_obj(report.current)))
    return 0


def cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, DEFAULT_TOLERANCE, human_summary, verify_report
    seed = DEFAULT_SEED if args.seed is None else args.seed
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    report = verify_report(seed=seed, tolerance=tolerance)
    _write(args.output, jsonio.canonical_dumps(report))
    print(human_summary(report), file=sys.stderr)
    return 0 if report["pass"] else DOMAIN_EXIT


def _int_at_least(low: int):
    """argparse type: an integer in low .. FLAG_LIMIT; anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > FLAG_LIMIT:
            raise argparse.ArgumentTypeError(f"must be at most {FLAG_LIMIT}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0, so the report stays valid JSON."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="residual-trace",
        description="Exact fiber traces, reconstruction, and line-coordinate "
                    "transforms of rational residue data (JSON in, JSON out).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input JSON file, or - for stdin (default)")
        p.add_argument("-o", "--output", default=None,
                       help="output file (default: stdout)")

    p = sub.add_parser("trace", help="emit traces u_0..u_{m} of a current")
    add_io(p)
    p.add_argument("--count", type=_int_at_least(1), default=None,
                   help="number of traces (default 2d+2)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reconstruct", help="rebuild a current from traces")
    add_io(p)
    p.add_argument("--dmax", type=_int_at_least(1), default=None,
                   help="fiber degree bound (default: half the trace count)")
    p.add_argument("--report", default=None,
                   help="also write a JSON reconstruction report to this file")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("radon", help="emit chart traces in line coordinates")
    add_io(p)
    p.add_argument("--kmax", type=_int_at_least(0), default=None,
                   help="largest chart trace index (default 2d+n)")
    p.add_argument("--check-closedness", action="store_true",
                   help="include the closedness violation list in the output")
    p.set_defaults(func=cmd_radon)

    p = sub.add_parser("continue",
                       help="rebuild a current from series-sampled traces")
    add_io(p)
    p.add_argument("--dmax", type=_int_at_least(1), default=None,
                   help="fiber degree bound (default: half the series count)")
    p.add_argument("--num-deg", type=_int_at_least(0), required=True,
                   help="numerator degree bound for the rationality test")
    p.add_argument("--den-deg", type=_int_at_least(0), required=True,
                   help="denominator degree bound for the rationality test")
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("verify", help="run the seeded self-check suites")
    p.add_argument("-o", "--output", default=None,
                   help="output file for the JSON report (default: stdout)")
    # None stands for verify.DEFAULT_SEED and verify.DEFAULT_TOLERANCE
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=_tolerance, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except BrokenPipeError:
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
