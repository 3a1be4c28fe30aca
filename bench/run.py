"""Benchmark for branchlift: the census, sweep and queries workloads.

One workload, one fresh process:

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

prints an info line and then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run wraps the
package's public functions in spans and prints the per-layer metrics.

Everything, each workload untraced and traced in its own process, with a
table of every metric and the tracing overhead:

    python3 bench/run.py --all [--seed N] [--seconds S] [--out results.json]

bench/README.md lists the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "sweep", "queries")
SETUP_REPEATS = 5
# A tail percentile needs at least ten samples beyond it; below this many
# operations the maximum is reported instead (the census has five points).
TAIL_PERCENTILE, TAIL_MIN_SAMPLES = 99, 1000
# Functions wrapped in traced runs: (module, attribute, modules to patch).
# None patches every module binding the function; matmul is traced where
# action imports it, so its own callers inside modular are left alone.
TRACED = (
    ("cli", "main", None),
    ("census", "classify", None),
    ("census", "write_atlas", None),
    ("census", "enumerate_subgroups", None),
    ("action", "act", None),
    ("action", "divisibility_criterion", None),
    ("action", "omega_normalize", None),
    ("action", "fully_liftable", None),
    ("subgroups", "howell_reduce", None),
    ("subgroups", "canonical_form", None),
    ("subgroups", "rebuild", None),
    ("subgroups", "contains", None),
    ("covers", "kernel", None),
    ("covers", "validate", None),
    ("covers", "cover_from_form", None),
    ("covers", "equivalent", None),
    ("modular", "matmul", ("action",)),
)


def import_package():
    """A fresh import of branchlift from this checkout's src/."""
    for name in [m for m in sys.modules if m == "branchlift" or m.startswith("branchlift.")]:
        del sys.modules[name]
    bl = importlib.import_module("branchlift")
    importlib.import_module("branchlift.cli")
    if Path(bl.__file__).resolve().parent != SRC / "branchlift":
        raise ImportError(f"branchlift was imported from {bl.__file__}, not {SRC}")
    return bl


def make_workload(name: str, seed: int, tiny: bool, workdir: Path):
    bl = import_package()
    if name == "census":
        return workloads.Census(bl, seed, tiny, workdir)
    if name == "sweep":
        return workloads.Sweep(bl, seed, tiny)
    return workloads.Queries(bl, seed, tiny)


def set_up(name: str, seed: int, tiny: bool, workdir: Path, clock):
    """Import and input generation, repeated; returns the last workload and
    the (start, duration) of each set-up."""
    spans = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        wl = make_workload(name, seed, tiny, workdir)
        spans.append((start, clock() - start))
    return wl, spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(wl, seconds: float, traced: bool, clock) -> tuple[list, float]:
    """One pass when traced, so that call counts repeat for a seed; else
    passes until the next one would end after ``seconds`` (at least one).

    Each untraced pass after the first starts from a fresh import, so that
    the package's caches do not carry inputs over from the pass before.
    Also returns the peak RSS after the first pass, so that it does not
    grow with the number of passes a faster run fits in.
    """
    begin = last = time.perf_counter()
    passes = [wl.run_pass(0, clock)]
    rss = peak_rss_mb()
    while not traced:
        now = time.perf_counter()
        if now - begin + (now - last) > seconds:
            break
        last = now
        wl.bl = import_package()
        passes.append(wl.run_pass(len(passes), clock))
    return passes, rss


def tail(latencies: list[float]) -> tuple[float, str]:
    ordered = sorted(latencies)
    if len(ordered) < TAIL_MIN_SAMPLES:
        return ordered[-1], "max"
    rank = -(-TAIL_PERCENTILE * len(ordered) // 100)
    return ordered[rank - 1], f"p{TAIL_PERCENTILE}"


def end_to_end(passes: list, setup_spans: list, rss_mb: float, probe) -> tuple[dict, dict]:
    """The end-to-end metrics, each timed interval scaled to nominal host
    speed by the probe."""
    walls, latencies = [], []
    for r in passes:
        scaled = [probe.scale(t, d) for t, d in zip(r.starts, r.latencies)]
        walls.append(sum(scaled))
        latencies.extend(scaled)
    tail_s, tail_kind = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(probe.scale(t, d) for t, d in setup_spans), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "throughput_per_s": (sum(r.work for r in passes) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"op_tail": tail_kind, "samples": len(latencies),
                     "speed_factor": probe.factor()}


class CensusHooks:
    """Per-point results of ``census.classify`` and the distinct kernels its
    ``rebuild`` calls produce, gathered while tracing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.points: dict[int, tuple[str, int, int]] = {}
        self.kernels: dict[int, set] = {}

    def on_classify(self, idx, args, report) -> None:
        orbits = len(report.classes) + report.dropped_unbranched
        self.points[idx] = ("-".join(map(str, args)), report.subgroups_seen, orbits)

    def on_rebuild(self, idx, args, sub) -> None:
        parent = self.tracer.span_parent[idx]
        if parent >= 0 and self.tracer.name_of(parent) == "census.classify":
            self.kernels.setdefault(parent, set()).add(sub.basis)


def install_tracing(bl):
    tracer = Tracer()
    hooks = CensusHooks(tracer)
    modules = [m for name, m in sys.modules.items()
               if name == "branchlift" or name.startswith("branchlift.")]
    on_return = {"classify": hooks.on_classify, "rebuild": hooks.on_rebuild}
    for owner, attr, only in TRACED:
        tracer.install(modules, getattr(bl, owner), attr,
                       only=None if only is None else [getattr(bl, m) for m in only],
                       on_return=on_return.get(attr))
    return tracer, hooks


def per_layer(tracer, hooks, cache_before, cache_after) -> dict:
    stats = tracer.stats()

    def calls(name):
        return stats[name].calls if name in stats else 0

    def us_per_call(name):
        return stats[name].total_s / calls(name) * 1e6 if calls(name) else 0.0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    out = {"census.classify.self_s": (self_s("census.classify"), "s")}
    by_point = {"-".join(map(str, pt)): 0.0 for pt in sorted(workloads.CENSUS_POINTS)}
    for idx, (label, _, _) in hooks.points.items():
        by_point[label] += tracer.span_end[idx] - tracer.span_start[idx]
    for label, seconds in by_point.items():
        out[f"census.classify_s.{label}"] = (seconds, "s")
    bfs_acts = tracer.children_named("census.classify", "action.act")
    found = sum(seen - orbits for _, seen, orbits in hooks.points.values())
    out["census.bfs_yield"] = (found / bfs_acts if bfs_acts else 0.0, "ratio")
    rebuilds = tracer.children_named("census.classify", "subgroups.rebuild")
    distinct = sum(len(s) for s in hooks.kernels.values())
    out["census.dedup_yield"] = (distinct / rebuilds if rebuilds else 0.0, "ratio")
    out["census.write_atlas.calls"] = (calls("census.write_atlas"), "count")
    out["census.write_atlas.self_s"] = (self_s("census.write_atlas"), "s")
    out["census.enumerate_subgroups.self_s"] = (self_s("census.enumerate_subgroups"), "s")
    for name in ("action.act", "action.divisibility_criterion", "action.omega_normalize",
                 "action.fully_liftable", "subgroups.howell_reduce",
                 "subgroups.canonical_form", "subgroups.rebuild", "covers.kernel",
                 "covers.validate", "covers.equivalent", "modular.matmul"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.us_per_call"] = (us_per_call(name), "us")
    out["action.act.self_s"] = (self_s("action.act"), "s")
    hits = cache_after.hits - cache_before.hits
    looked = hits + cache_after.misses - cache_before.misses
    out["action.action_matrix.hit_ratio"] = (hits / looked if looked else 0.0, "ratio")
    out["subgroups.howell_reduce.self_s"] = (self_s("subgroups.howell_reduce"), "s")
    out["subgroups.contains.calls"] = (calls("subgroups.contains"), "count")
    out["covers.cover_from_form.us_per_call"] = (us_per_call("covers.cover_from_form"), "us")
    out["cli.main.calls"] = (calls("cli.main"), "count")
    out["cli.main.self_s"] = (self_s("cli.main"), "s")
    return out


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
            make=None) -> tuple[dict, dict]:
    """Run one workload in this process; returns (result, info).

    ``make(workdir)`` replaces the standard workload, for the self-test.
    """
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / "_work"))
    # Traced runs report counts and raw layer times, without the probe.
    probe = None if trace else SpeedProbe()
    clock = time.perf_counter if trace else probe.clock
    try:
        with probe or contextlib.nullcontext():
            if make is None:
                wl, setup_spans = set_up(name, seed, tiny, workdir, clock)
            else:
                start = clock()
                wl = make(workdir)
                setup_spans = [(start, clock() - start)]
            bl = wl.bl
            if trace:
                tracer, hooks = install_tracing(bl)
                cache_before = bl.action.action_matrix.cache_info()
            passes, rss_mb = run_passes(wl, seconds, trace, clock)
        if trace:
            metrics = per_layer(tracer, hooks, cache_before,
                                bl.action.action_matrix.cache_info())
            extra = {}
        else:
            metrics, extra = end_to_end(passes, setup_spans, rss_mb, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (BENCH / "_work").rmdir()
        except OSError:
            pass
    failures = [f for r in passes for f in r.failures]
    attempted = sum(len(r.latencies) for r in passes)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "sizes": wl.sizes(), "passes": len(passes),
        "raw_wall_s": statistics.median(sum(r.latencies) for r in passes),
        "failed_ratio": len(failures) / attempted, "failures": failures[:10], **extra,
    }
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


# Names the workload-specific end-to-end metrics go by in bench/README.md.
ALIASES = {
    "census": {"throughput_per_s": "subgroups_per_s"},
    "sweep": {"throughput_per_s": "subgroups_per_s"},
    "queries": {"throughput_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms",
                "op_tail_ms": "query_p99_ms"},
}


def run_child(name: str, seed: int, seconds: float, trace: int,
              tiny: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def run_all(seed: int, seconds: float, tiny: bool, out: str | None) -> int:
    results = {}
    for name in WORKLOADS:
        plain, plain_info = run_child(name, seed, seconds, 0, tiny)
        traced, traced_info = run_child(name, seed, seconds, 1, tiny)
        results[name] = {
            "end_to_end": plain, "per_layer": traced, "info": plain_info,
            "tracing_overhead_s": traced_info["raw_wall_s"] - plain_info["raw_wall_s"],
        }
        print(f"== {name}: failed_ratio {plain_info['failed_ratio']:.6g} "
              f"({plain['failed']}/{plain['attempted']}), {plain_info['passes']} passes, "
              f"tail {plain_info['op_tail']} of {plain_info['samples']} ops, "
              f"tracing overhead {results[name]['tracing_overhead_s']:.3f} s")
        for section in (plain, traced):
            for metric, m in section["metrics"].items():
                alias = ALIASES[name].get(metric)
                label = f"{metric} ({alias})" if alias else metric
                print(f"  {label:<44} {m['value']:>14.6g} {m['unit']}")
    info = next(iter(results.values()))["info"]
    summary = {key: info[key] for key in ("seed", "seconds", "nproc", "python", "git_sha")}
    summary["workloads"] = results
    if out:
        Path(out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    ok = all(r["end_to_end"]["correct"] and r["per_layer"]["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--out", help="with --all: also write the results JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "branchlift" / "__init__.py").is_file():
        print(f"error: no branchlift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds, args.tiny, args.out)
    if args.workload is None:
        parser.error("give --workload or --all")
    result, info = measure(args.workload, args.seed, seconds, bool(args.trace), args.tiny)
    for line in info["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
