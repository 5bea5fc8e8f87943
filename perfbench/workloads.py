"""The four seeded workloads: corpus generation, timed operations and checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs come from
`residualtrace.sampling` driven by one `random.Random(seed)`; the program
sees only the generated inputs.

Each corpus is stratified: the family's currents are drawn as usual and
kept until every cell (fiber degree, and for `chart` whether the chart
traces carry denominators) holds its share, so two seeds differ in
coefficients, not in how many expensive instances they hold.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from random import Random
from time import perf_counter

from residualtrace import jsonio
from residualtrace.errors import ContinuationError, DomainError
from residualtrace.radon import closedness_check, pencil_projection, radon
from residualtrace.reconstruct import continue_current, reconstruct, sample_series
from residualtrace.sampling import base_vars, random_current
from residualtrace.traces import traces

OK = None  # status of an operation whose output passed its check
REJECTED = "rejected"  # the program reported a rejection; counts in `failed`


def stratified(rng: Random, draw, key, shares: dict, size: int) -> list:
    """Draws from `draw(rng)`, kept until each cell key(item) holds its share."""
    quota = {cell: round(size * share) for cell, share in shares.items()}
    out = []
    while any(quota.values()):
        item = draw(rng)
        cell = key(item)
        if quota.get(cell, 0) > 0:
            quota[cell] -= 1
            out.append(item)
    return out


def _degree(c):
    return c.degree


def _even(degrees, share: float) -> dict:
    return {d: share / len(degrees) for d in degrees}


def _apex(rng: Random, c) -> list[Fraction]:
    """Seeded point (x_1 .. x_n, y) off the support of c."""
    while True:
        cand = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(c.n + 1)]
        assign = dict(zip(base_vars(c.n), cand[:c.n]))
        assign[c.fiber] = cand[c.n]
        if c.p.eval_exact(assign) != 0:
            return cand


def _series_instance(rng: Random):
    """Criterion-6 draw: an n=1 current, its traces, and a seeded base point."""
    c = random_current(rng, n=1, max_degree=3, coeff_degree=2, max_abs=3)
    t = traces(c, 2 * c.degree + 2)
    num_bound = max(max(e.as_poly().degree("x"), 0) for e in t.entries)
    x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return c, t, x0, num_bound


class Workload:
    """One corpus per run; `run(item)` returns [(latency_s, status), ...]."""

    name = ""
    size = 0  # instances per pass of the timed phase
    trace_size = 0  # instances in each pass of a traced run

    def __init__(self, root):
        self.root = root

    def build(self, rng: Random) -> list:
        raise NotImplementedError

    def run(self, item, traced: bool = False) -> list:
        raise NotImplementedError


class Roundtrip(Workload):
    """Criterion 1: traces(c, 2d+2) then reconstruct(t, d).

    The criterion-1 draws (n=1 with coefficient degree 3, n=2 with 2), with
    the fiber degree capped at 3 for n=1 and 2 for n=2 so that one run holds
    thousands of instances; README.md says why.
    """

    name = "roundtrip"
    size = 2400
    trace_size = 400

    def build(self, rng):
        corpus = stratified(
            rng, lambda r: random_current(r, n=1, max_degree=3, coeff_degree=3),
            _degree, _even((1, 2, 3), 2 / 3), self.size)
        corpus += stratified(
            rng, lambda r: random_current(r, n=2, max_degree=2, coeff_degree=2),
            _degree, _even((1, 2), 1 / 3), self.size)
        rng.shuffle(corpus)
        return corpus

    def run(self, c, traced=False):
        t0 = perf_counter()
        try:
            report = reconstruct(traces(c, 2 * c.degree + 2), c.degree)
        except DomainError:
            return [(perf_counter() - t0, REJECTED)]
        elapsed = perf_counter() - t0
        if report.current != c:
            return [(elapsed, "reconstructed current differs from the input")]
        if report.residual_violations != 0:
            return [(elapsed, f"{report.residual_violations} residual violations")]
        return [(elapsed, OK)]


class Chart(Workload):
    """Criterion 5 plus 8: radon(c, 2d+n), closedness for k <= 2d, a pencil.

    n=1 currents with d <= 2, coefficient degree 1 and entries up to 3 (the
    criterion-8 draws).  One in five is "lifted": p has a term x^e y^i with
    e > 0 and e + i >= d, so after x = a y + b the fiber-leading coefficient
    depends on a and the chart traces carry denominators.  Lifted instances
    cost ten times the others, so their share is fixed rather than left to
    the seed.  n=2 and higher degrees are left out: single instances there
    run from seconds to minutes, which no bounded run can hold; README.md
    records this.
    """

    name = "chart"
    size = 2200
    trace_size = 300

    def build(self, rng):
        def draw(r):
            c = random_current(r, n=1, max_degree=2, coeff_degree=1, max_abs=3)
            return c, _apex(r, c)

        def key(item):
            c = item[0]
            lifted = any(e[0] > 0 and sum(e) >= c.degree for e in c.p.terms)
            return c.degree, lifted

        shares = {(d, lifted): 0.5 * (0.2 if lifted else 0.8)
                  for d in (1, 2) for lifted in (False, True)}
        corpus = stratified(rng, draw, key, shares, self.size)
        rng.shuffle(corpus)
        return corpus

    def run(self, item, traced=False):
        c, apex = item
        k_top = 2 * c.degree
        t0 = perf_counter()
        try:
            u = radon(c, k_top + c.n)
            violations = closedness_check(u, range(k_top + 1))
            pencil = pencil_projection(c, apex)
        except DomainError as exc:
            elapsed = perf_counter() - t0
            if "disagree" in str(exc):
                return [(elapsed, f"pencil cross-check fired: {exc}")]
            return [(elapsed, REJECTED)]
        elapsed = perf_counter() - t0
        if violations:
            return [(elapsed, f"closedness violations {violations}")]
        if len(pencil) != 2 * c.degree + 2:
            return [(elapsed, f"pencil returned {len(pencil)} traces")]
        return [(elapsed, OK)]


class Series(Workload):
    """Criterion 6: sample_series at a seeded point, then continue_current."""

    name = "series"
    size = 1200
    trace_size = 400

    def build(self, rng):
        out = []
        for c, t, x0, num_bound in stratified(
                rng, _series_instance, lambda item: item[0].degree,
                _even((1, 2, 3), 1.0), self.size):
            out.append((c, t.entries, x0, num_bound, 2 * (num_bound + 1) + 2))
        rng.shuffle(out)
        return out

    def run(self, item, traced=False):
        c, entries, x0, num_bound, length = item
        t0 = perf_counter()
        try:
            batch = [sample_series(e, x0, length) for e in entries]
            report = continue_current(batch, c.degree, num_bound, 1)
        except (ContinuationError, DomainError):
            return [(perf_counter() - t0, REJECTED)]
        elapsed = perf_counter() - t0
        if report.current != c:
            return [(elapsed, "continued current differs from the hidden one")]
        return [(elapsed, OK)]


_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out.setdefault(m.group(2).strip(), int(m.group(1)) / 1e6)
    return out


class Cli(Workload):
    """Sequential `python -m residualtrace` requests, one child at a time.

    Per instance: trace, the same trace again (byte-identical), reconstruct
    piped from the trace output (must give back the input bytes), radon
    --check-closedness (no violations), and continue on a series batch the
    benchmark builds (must give back the hidden current).
    """

    name = "cli"
    size = 16
    trace_size = 6
    SUBCOMMANDS = ("trace", "reconstruct", "radon", "continue")

    def __init__(self, root):
        super().__init__(root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.walls = {s: [] for s in self.SUBCOMMANDS}
        self.imports = {"residualtrace": [], "numpy": []}
        self.documents = []  # (subcommand, request text, response text)

    def build(self, rng):
        out = []
        currents = stratified(
            rng, lambda r: random_current(r, n=1, max_degree=2, coeff_degree=2),
            _degree, _even((1, 2), 2 / 3), self.size)
        currents += stratified(
            rng, lambda r: random_current(r, n=2, max_degree=1, coeff_degree=1),
            _degree, _even((1,), 1 / 3), self.size)
        rng.shuffle(currents)
        for c in currents:
            s, t, x0, num_bound = _series_instance(rng)
            length = 2 * (num_bound + 1) + 2
            batch = {"series": [
                {"x0": str(x0), "coeffs": [str(v) for v in sample_series(e, x0, length).coefficients]}
                for e in t.entries]}
            out.append({
                "current": jsonio.canonical_dumps(jsonio.current_to_obj(c)),
                "batch": jsonio.canonical_dumps(batch),
                "hidden": jsonio.canonical_dumps(jsonio.current_to_obj(s)),
                "num_deg": num_bound,
            })
        return out

    def _request(self, args, stdin: str, traced: bool):
        cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
            "-m", "residualtrace", *args]
        t0 = perf_counter()
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              env=self.env, cwd=self.root, timeout=120)
        elapsed = perf_counter() - t0
        if traced:
            self.walls[args[0]].append(elapsed)
            found = import_times(proc.stderr)
            for mod in self.imports:
                self.imports[mod].append(found.get(mod, 0.0))
            if proc.returncode == 0:
                self.documents.append((args[0], stdin, proc.stdout))
        return elapsed, proc

    def run(self, item, traced=False):
        results = []

        def step(args, stdin, check):
            elapsed, proc = self._request(args, stdin, traced)
            if proc.returncode != 0:
                results.append((elapsed, REJECTED))
                return None
            results.append((elapsed, check(proc.stdout)))
            return proc.stdout

        blob = item["current"]
        first = step(["trace"], blob, lambda out: OK)
        if first is None:
            results.extend([(0.0, REJECTED)] * 2)
        else:
            step(["trace"], blob,
                 lambda out: OK if out == first else "repeated trace output differs")
            step(["reconstruct"], first,
                 lambda out: OK if out == blob else "trace -> reconstruct changed the current")

        def closed(out):
            violations = json.loads(out).get("closedness_violations")
            return OK if violations == [] else f"closedness violations {violations}"

        step(["radon", "--check-closedness"], blob, closed)
        step(["continue", "--num-deg", str(item["num_deg"]), "--den-deg", "1"], item["batch"],
             lambda out: OK if out == item["hidden"] else "continued current differs")
        return results

    def replay_jsonio(self, tracer):
        """Parse each request and emit each response in-process, under spans.

        Response objects are rebuilt with the tracer paused, so only the
        parse of requests and the emit of responses are timed.  Returns a
        message for the first emit that does not reproduce the child's bytes.
        """
        parsers = {"trace": ("current", "current_from_obj"),
                   "radon": ("current", "current_from_obj"),
                   "reconstruct": ("traces", "traces_from_obj"),
                   "continue": ("series", "series_from_obj")}
        for op_id, (sub, request, response) in enumerate(self.documents):
            tracer.paused = True
            if sub == "trace":
                obj = jsonio.traces_from_obj(jsonio.loads(response))

                def emit(o=obj):
                    return jsonio.canonical_dumps(jsonio.traces_to_obj(o))
            elif sub == "radon":
                doc = json.loads(response)
                u = [jsonio.ratfunc_from_obj(f) for f in doc["u_ab"]]

                def emit(u=u, v=doc["closedness_violations"]):
                    return jsonio.canonical_dumps(
                        {"u_ab": [jsonio.ratfunc_to_obj(f) for f in u],
                         "closedness_violations": v})
            else:
                obj = jsonio.current_from_obj(jsonio.loads(response))

                def emit(o=obj):
                    return jsonio.canonical_dumps(jsonio.current_to_obj(o))
            tracer.paused = False
            tracer.op_id = op_id
            where, parse = parsers[sub]
            getattr(jsonio, parse)(jsonio.loads(request, where), where)
            if emit() != response:
                return f"in-process emit of the {sub} response differs from the CLI bytes"
        return None


WORKLOADS = {w.name: w for w in (Roundtrip, Chart, Series, Cli)}
