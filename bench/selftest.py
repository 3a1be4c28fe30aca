"""Self-test of the benchmark itself, at tiny sizes (under a minute):

    python3 bench/selftest.py

It checks that the pinned answers agree with closed forms, that every
workload prints every metric BENCHMARK.json names with its unit, that traced
call counts repeat for a fixed seed, that a deliberately wrong expected
answer is counted as a failure, and that the benchmark refuses to run
without the package's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def gaussian_binomial(n: int, r: int, p: int) -> int:
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subgroup_count(p: int, k: int, b: int) -> int:
    """Subgroups of (Z/p^k)^b by Birkhoff's formula: summed over the
    conjugate type mu' (weakly decreasing, length k, entries <= b) of
    prod_i p^(mu'_{i+1} (b - mu'_i)) [b - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p."""
    def rec(i: int, prev: int, cols: tuple) -> int:
        if i == k:
            total = 1
            for j, c in enumerate(cols):
                nxt = cols[j + 1] if j + 1 < k else 0
                total *= p ** (nxt * (b - c)) * gaussian_binomial(b - nxt, c - nxt, p)
            return total
        return sum(rec(i + 1, c, cols + (c,)) for c in range(prev + 1))
    return rec(0, b, ()) if k else 1


def check_pinned_answers() -> None:
    check(subgroup_count(2, 1, 4) == 67 and subgroup_count(2, 2, 5) == 55989,
          "Birkhoff count gives 67 for (Z/2)^4 and 55989 for (Z/4)^5")
    for (p, k, b), total in workloads.SWEEP_GROUPS.items():
        check(subgroup_count(p, k, b) == total, f"sweep total for {(p, k, b)} is Birkhoff's count")
    for (p, k, n), (seen, _) in workloads.CENSUS_POINTS.items():
        formula = subgroup_count(p, k, n - 1) - subgroup_count(p, k - 1, n - 1)
        check(formula == seen, f"census subgroups_seen for {(p, k, n)} is Birkhoff's count")
    lifts = [workloads.liftable_closed_form(*pt) for pt in workloads.CENSUS_POINTS]
    check(lifts == [1, 1, 2, 3, 1], f"closed-form liftable counts on the grid are {lifts}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_printed_metrics() -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for name in run.WORKLOADS:
        calls = []
        for trace in (0, 1, 1):
            proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} prints exactly correct/attempted/failed/metrics")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} passes its gate ({result['failed']}/{result['attempted']} failed)")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == declared[trace], f"{label} prints every declared metric with its unit")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{label} end-to-end metrics are all above zero")
            else:
                calls.append({k: v["value"] for k, v in result["metrics"].items()
                              if k.endswith(".calls")})
        check(len(calls) == 2 and calls[0] == calls[1],
              f"{name}: two traced runs with one seed give identical call counts")


def check_wrong_answers_fail() -> None:
    census_wrong = dict(workloads.CENSUS_POINTS_TINY)
    census_wrong[(3, 1, 5)] = (211, 10)
    sweep_wrong = dict(workloads.SWEEP_GROUPS_TINY)
    sweep_wrong[(2, 2, 2)] = 14

    def census(workdir):
        return workloads.Census(run.import_package(), 1, True, workdir, expected=census_wrong)

    def sweep(workdir):
        return workloads.Sweep(run.import_package(), 1, True, expected=sweep_wrong)

    def queries(workdir):
        wl = workloads.Queries(run.import_package(), 1, True)
        batch = wl.first_batch
        i, spec = next((i, q.spec) for i, q in enumerate(batch) if q.relabelled is not None)
        # The cover with deck group (Z/p^k)^(n-1) and the standard basis as
        # loop images has a trivial kernel, so it is equivalent to no cover
        # with a smaller deck group, as every cover of the seed-1 batch has.
        p, k, n = spec.p, spec.k, spec.n
        images = [tuple(int(r == c) for c in range(n - 1)) for r in range(n - 1)]
        images.append((p ** k - 1,) * (n - 1))
        other = wl.bl.covers.CoverSpec(p, k, n, (p ** k,) * (n - 1), tuple(images))
        batch[i] = workloads.Query(spec, other)
        return wl

    for name, make in (("census", census), ("sweep", sweep), ("queries", queries)):
        result, info = run.measure(name, 1, 0.0, False, True, make=make)
        check(result["failed"] >= 1 and info["failed_ratio"] > 0 and not result["correct"],
              f"{name}: a wrong expected answer is counted "
              f"(failed_ratio {info['failed_ratio']:.4g}: {info['failures'][:1]})")


def check_all_command() -> None:
    proc = bench("--all", "--tiny", "--seconds", "1")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    missing = [n for n in names if n not in proc.stdout]
    check(proc.returncode == 0 and not missing and "failed_ratio 0 " in proc.stdout,
          f"--all runs every workload and prints every metric (missing {missing[:3]})")


def check_refuses_without_sources() -> None:
    (BENCH / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (BENCH / "_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    check_pinned_answers()
    check_wrong_answers_fail()
    check_printed_metrics()
    check_all_command()
    check_refuses_without_sources()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
