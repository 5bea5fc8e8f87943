"""Timing spans around the public functions of each residualtrace layer.

The benchmark changes nothing under `src/`: it rebinds each wrapped
function from here, on its module or class, and on every other module or
class of the package (and of the benchmark itself) that holds the same
function object through `from x import f` or an alias such as
`__radd__ = __add__`.  `restore()` puts every original back.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
operation id) and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import array
import gzip
import importlib
import sys
from time import perf_counter

MARK = "__perfbench_span__"

# span name -> wrapped callables, as (module, attribute path).  Each span
# name is one row of the per-layer table; its `.calls` and `.self_s` are
# reported for every workload.
TARGETS = {
    "poly.mul": [("residualtrace.algebra.poly", "MPoly.__mul__")],
    "poly.exact_div": [("residualtrace.algebra.poly", "exact_div"),
                       ("residualtrace.algebra.poly", "try_div")],
    "poly.gcd": [("residualtrace.algebra.poly", "poly_gcd"),
                 ("residualtrace.algebra.poly", "poly_gcd_fiber")],
    "poly.subs": [("residualtrace.algebra.poly", "MPoly.subs")],
    "ratfunc.normalize": [("residualtrace.algebra.ratfunc", "RatFunc.__init__")],
    "ratfunc.arith": [("residualtrace.algebra.ratfunc", f"RatFunc.{op}")
                      for op in ("__add__", "__sub__", "__rsub__", "__mul__",
                                 "__truediv__", "__rtruediv__")],
    "ratfunc.diff": [("residualtrace.algebra.ratfunc", "RatFunc.diff")],
    "linalg.solve": [("residualtrace.algebra.linalg", "solve_linear")],
    "linalg.kernel": [("residualtrace.algebra.linalg", "kernel_vector")],
    "linalg.det": [("residualtrace.algebra.linalg", "determinant"),
                   ("residualtrace.algebra.linalg", "det_poly_grid")],
    "residues.reduce": [("residualtrace.residues", "mod_monic"),
                        ("residualtrace.residues", "shift_mod_monic")],
    "traces.traces": [("residualtrace.traces", "traces")],
    "traces.recurrence_check": [("residualtrace.traces", "recurrence_check")],
    "traces.hankel": [("residualtrace.traces", "hankel")],
    "reconstruct.reconstruct": [("residualtrace.reconstruct", "reconstruct")],
    "reconstruct.detect_rational": [("residualtrace.reconstruct", "detect_rational")],
    "reconstruct.sample_series": [("residualtrace.reconstruct", "sample_series")],
    "reconstruct.continue_current": [("residualtrace.reconstruct", "continue_current")],
    "radon.radon": [("residualtrace.radon", "radon")],
    "radon.closedness_check": [("residualtrace.radon", "closedness_check")],
    "radon.pencil_projection": [("residualtrace.radon", "pencil_projection")],
    "currents.validate": [("residualtrace.currents", "validate")],
    "jsonio.parse": [("residualtrace.jsonio", f) for f in (
        "loads", "current_from_obj", "traces_from_obj", "series_from_obj",
        "ratfunc_from_obj")],
    "jsonio.emit": [("residualtrace.jsonio", f) for f in (
        "canonical_dumps", "current_to_obj", "traces_to_obj", "ratfunc_to_obj")],
}

# The workloads on which each span name must record at least one call; an
# empty list means no workload reaches it at present (see README.md).
COVERAGE = {
    "poly.mul": ["roundtrip", "chart", "series"],
    "poly.exact_div": ["roundtrip", "chart"],
    "poly.gcd": ["roundtrip", "chart"],
    "poly.subs": ["chart"],
    "ratfunc.normalize": ["roundtrip", "chart", "series"],
    "ratfunc.arith": ["roundtrip", "chart", "series"],
    "ratfunc.diff": ["chart"],
    "linalg.solve": ["roundtrip", "series"],
    "linalg.kernel": ["series"],
    "linalg.det": [],
    "residues.reduce": ["roundtrip", "chart", "series"],
    "traces.traces": ["roundtrip", "series"],
    "traces.recurrence_check": ["roundtrip", "series"],
    "traces.hankel": ["roundtrip", "series"],
    "reconstruct.reconstruct": ["roundtrip", "series"],
    "reconstruct.detect_rational": ["series"],
    "reconstruct.sample_series": ["series"],
    "reconstruct.continue_current": ["series"],
    "radon.radon": ["chart"],
    "radon.closedness_check": ["chart"],
    "radon.pencil_projection": ["chart"],
    "currents.validate": ["roundtrip", "series"],
    "jsonio.parse": ["cli"],
    "jsonio.emit": ["cli"],
}


def _is_singular(exc) -> bool:
    from residualtrace.errors import SingularSystemError
    return isinstance(exc, SingularSystemError)


# Outcome counters measured where the work happens: a predicate on the
# result, or on the exception, of each call of that span name.
RESULT_HITS = {
    "poly.gcd": lambda g: not g.is_constant(),
    "reconstruct.detect_rational": lambda f: f is not None,
}
RAISE_HITS = {"linalg.solve": _is_singular}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _namespaces(extra_modules):
    """Modules and classes of the package, plus the given modules."""
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "residualtrace" or name.startswith("residualtrace."))]
    mods += list(extra_modules)
    out = []
    for m in mods:
        out.append(m)
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__.startswith("residualtrace"):
                out.append(value)
    seen, uniq = set(), []
    for ns in out:
        if id(ns) not in seen:
            seen.add(id(ns))
            uniq.append(ns)
    return uniq


def installed(extra_modules=()) -> list[str]:
    """Names bound to a benchmark wrapper anywhere in the package."""
    found = []
    for ns in _namespaces(extra_modules):
        for attr, value in vars(ns).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{getattr(ns, '__name__', ns)}.{attr}")
    return sorted(found)


class Tracer:
    """Installs span wrappers, records spans, and aggregates them per name."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array.array("H")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.paused = False
        self.result_hits = dict.fromkeys(self.names, 0)
        self.raise_hits = dict.fromkeys(self.names, 0)
        self._bindings: list[tuple[object, str, object]] = []

    # ---- wrapping -----------------------------------------------------------

    def _wrap(self, nid: int, name: str, fn):
        tracer = self
        on_result = RESULT_HITS.get(name)
        on_raise = RAISE_HITS.get(name)

        def span(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None and on_raise(exc):
                    tracer.raise_hits[name] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if on_result is not None and on_result(out):
                tracer.result_hits[name] += 1
            return out

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        setattr(span, MARK, name)
        return span

    def install(self, extra_modules=()):
        originals = {}
        for nid, name in enumerate(self.names):
            for module_name, path in TARGETS[name]:
                owner, attr = _resolve(module_name, path)
                fn = vars(owner)[attr]
                originals[id(fn)] = (fn, self._wrap(nid, name, fn))
        for ns in _namespaces(extra_modules):
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def restore(self):
        for ns, attr, original in reversed(self._bindings):
            setattr(ns, attr, original)
        bad = [f"{ns}.{attr}" for ns, attr, original in self._bindings
               if vars(ns)[attr] is not original]
        self._bindings.clear()
        return bad

    # ---- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        count = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - covered[i]
        for name in self.names:
            out[name]["result_hits"] = self.result_hits[name]
            out[name]["raise_hits"] = self.raise_hits[name]
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
        return len(self.start)
