"""residualtrace benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  With `--trace 0` the last
stdout line carries the end-to-end metrics; with `--trace 1` it carries the
per-layer span metrics.  The line before it holds the run metadata.  A wrong
output exits 1; a missing or foreign package exits 2 without a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3
SPEED_EVERY_S = 0.25
SPEED_WINDOW = 5  # samples in the running median that sets the scale
# Typical _reference() time on a 2-CPU VM with Python 3.11.7; it only fixes
# the unit in which scaled times are reported.
SPEED_NOMINAL_S = 0.0075
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import residualtrace.cli, residualtrace.sampling; "
                "print(time.perf_counter() - t)")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as that child saw it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        fail(f"importing residualtrace in a child failed:\n{proc.stderr}")
    return float(proc.stdout.strip())


def run_metadata(args, nproc: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": nproc,
        "cpu_count": os.cpu_count(), "git_sha": sha, "dirty": dirty,
        "src_sha256": digest.hexdigest(),
    }


def _reference():
    """Fixed work in the program's style, dicts of Fractions, using none of it."""
    for _ in range(3):
        a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6) if (i + j) % 2 == 0}
        b = {(i, j): Fraction(j - 3, i + 1) for i in range(6) for j in range(6) if (i * j) % 3 != 1}
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2


class Speed:
    """Host speed, sampled every quarter second by a fixed reference.

    The speed of this 2-CPU VM drifts by a quarter within seconds for
    reasons outside the process (the reference alone shows it), which buries
    seed-to-seed differences.  Each stretch of operations is scaled by
    SPEED_NOMINAL_S over the running median of the last reference samples.
    The reference uses none of the program, so a slower program still reads
    slower; unscaled figures go to the run line.
    """

    def __init__(self):
        self.factor = 1.0
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self):
        t0 = perf_counter()
        _reference()
        self.last = perf_counter()
        self.samples.append(self.last - t0)
        self.factor = SPEED_NOMINAL_S / statistics.median(self.samples[-SPEED_WINDOW:])

    def refresh(self):
        if perf_counter() - self.last >= SPEED_EVERY_S:
            self.sample()


class Failure(Exception):
    """An operation returned a wrong answer."""


def run_passes(wl, corpus, seconds: float | None, speed: Speed | None = None,
               traced=False, on_item=None) -> dict:
    """Closed-loop passes over `corpus`; one pass when `seconds` is None.

    A new pass starts only if it should end within `seconds`.  Latency per
    operation is its median over the passes.  With `speed`, times are scaled
    stretch by stretch and the reference samples are left out of the wall.
    """
    slots: list[list[float]] = []
    raw: list[list[float]] = []
    ok = failed = attempted = passes = 0
    wall = scaled_wall = 0.0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        slot = 0
        for index, item in enumerate(corpus):
            if speed is not None:
                speed.refresh()
            factor = speed.factor if speed is not None else 1.0
            if on_item is not None:
                on_item(index)
            t0 = perf_counter()
            results = wl.run(item, traced)
            wall += perf_counter() - t0
            scaled_wall += (perf_counter() - t0) * factor
            for elapsed, status in results:
                attempted += 1
                if slot == len(slots):
                    slots.append([])
                    raw.append([])
                if status is None:
                    ok += 1
                    slots[slot].append(elapsed * factor)
                    raw[slot].append(elapsed)
                elif status == "rejected":
                    failed += 1
                else:
                    raise Failure(f"{wl.name} item {index}: {status}")
                slot += 1
        passes += 1
        now = perf_counter()
        if seconds is None or (now - start) + (now - pass_start) > seconds:
            break
    return {"ok": ok, "failed": failed, "attempted": attempted, "passes": passes,
            "wall_s": wall, "scaled_wall_s": scaled_wall,
            "latencies": [statistics.median(s) for s in slots if s],
            "raw_latencies": [statistics.median(s) for s in raw if s]}


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _timings(res: dict, wall_key: str, lat_key: str):
    lat = sorted(res[lat_key])
    n = len(lat)
    # the highest percentile of the ladder with at least ten samples beyond it
    pct = next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 100.0)
    return {
        "throughput_per_s": res["ok"] / res[wall_key],
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * lat[min(n - 1, int(n * pct / 100))],
    }, pct, n


def end_to_end(res: dict, setup_s: float, children: bool) -> tuple[dict, dict]:
    scaled, pct, n = _timings(res, "scaled_wall_s", "latencies")
    unscaled, _, _ = _timings(res, "wall_s", "raw_latencies")
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in scaled.items()}
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"}
    info = {"tail_percentile": pct, "latency_samples": n, "passes": res["passes"],
            "timed_wall_s": res["wall_s"], "fail_ratio": res["failed"] / res["attempted"],
            "unscaled": unscaled}
    return metrics, info


def per_layer(tracer, wl, corpus, untraced: dict) -> tuple[dict, dict]:
    traced = run_passes(wl, corpus, None, traced=True,
                        on_item=lambda i: setattr(tracer, "op_id", i))
    wrong = wl.replay_jsonio(tracer) if wl.name == "cli" else None
    if wrong:
        raise Failure(wrong)
    rows = tracer.summary()
    metrics = {}
    for name, row in rows.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["poly.gcd.nontrivial_ratio"] = (
        ratio(rows["poly.gcd"]["result_hits"], rows["poly.gcd"]["calls"]), "ratio")
    metrics["linalg.solve.singular"] = (rows["linalg.solve"]["raise_hits"], "count")
    metrics["reconstruct.solves_per_reconstruct"] = (
        ratio(rows["linalg.solve"]["calls"], rows["reconstruct.reconstruct"]["calls"]), "ratio")
    metrics["reconstruct.detect_rational.accepted_ratio"] = (
        ratio(rows["reconstruct.detect_rational"]["result_hits"],
              rows["reconstruct.detect_rational"]["calls"]), "ratio")
    walls = getattr(wl, "walls", {})
    for sub in ("trace", "reconstruct", "radon", "continue"):
        metrics[f"cli.{sub}.wall_s"] = (
            statistics.median(walls[sub]) if walls.get(sub) else 0.0, "s")
    imports = getattr(wl, "imports", {})
    for mod in ("residualtrace", "numpy"):
        metrics[f"cli.import.{mod}_s"] = (
            statistics.median(imports[mod]) if imports.get(mod) else 0.0, "s")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"] - 1, "ratio")
    missing = [name for name, workloads in spans.COVERAGE.items()
               if wl.name in workloads and rows[name]["calls"] == 0]
    info = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced["wall_s"],
            "trace_items": len(corpus), "coverage_missing": missing}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "residualtrace" / "__init__.py").is_file():
        fail(f"no residualtrace package under {SRC.name}/; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import residualtrace
    if Path(residualtrace.__file__).resolve().parent != SRC / "residualtrace":
        fail(f"imported residualtrace from {residualtrace.__file__}, not from {SRC.name}/")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload](ROOT)
    cpus = os.sched_getaffinity(0)
    # In-process workloads run on one CPU, so the speed reference is timed
    # where the program runs, and are scaled by it.  `cli` is neither: its
    # time is child start-up, which the reference does not track, and its
    # unscaled figures on both CPUs were the steadiest.
    scaled = wl.name != "cli"
    if scaled:
        os.sched_setaffinity(0, {min(cpus)})

    setup_times = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        t0 = perf_counter()
        corpus = wl.build(Random(args.seed))
        setup_times.append(t_import + perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    # the corpus lives for the whole run; keep it out of the collector's scans
    gc.collect()
    gc.freeze()

    meta = run_metadata(args, len(cpus))
    meta["setup_reps_s"] = setup_times
    try:
        if args.trace == 0:
            if spans.installed([workloads]):
                fail("span wrappers are installed in an untraced run")
            speed = Speed() if scaled else None
            res = run_passes(wl, corpus, args.seconds, speed)
            if spans.installed([workloads]):
                fail("span wrappers are installed in an untraced run")
            metrics, info = end_to_end(res, setup_s, wl.name == "cli")
            if speed is not None:
                info["speed_samples_s"] = statistics.quantiles(speed.samples, n=4)
        else:
            subset = corpus[:wl.trace_size]
            res = run_passes(wl, subset, None)
            tracer = spans.Tracer()
            tracer.install([workloads])
            try:
                metrics, info = per_layer(tracer, wl, subset, res)
            finally:
                leftover = tracer.restore() + spans.installed([workloads])
            if leftover:
                fail(f"span wrappers left installed: {leftover}")
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            info["spans"] = tracer.write(path)
            info["spans_file"] = str(path.relative_to(ROOT))
            if info["coverage_missing"]:
                print(f"perfbench: no calls recorded for {info['coverage_missing']} "
                      f"on {args.workload}", file=sys.stderr)
    except Failure as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"run": meta}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    meta.update(info)
    meta["rusage"] = {"self_user_s": ru_self.ru_utime, "self_sys_s": ru_self.ru_stime,
                      "children_user_s": ru_kids.ru_utime, "children_sys_s": ru_kids.ru_stime}
    print(json.dumps({"run": meta}))
    print(json.dumps({"correct": True, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
