"""The three benchmark workloads and their correctness gates.

Each workload is built from a seed and then run in passes; a pass is a fixed
amount of work, and every operation in it (a census grid point, a subgroup,
or a query) is timed and checked.  The checks compare the program's output
with answers it does not produce itself: closed-form counts, pinned counts,
and identities that hold between independent code paths.

Every call into the package goes through a module attribute looked up after
set-up, so spans installed by ``tracing.Tracer`` see the calls made here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

# census: grid point -> (subgroups_seen, classes) at this commit.  Each
# subgroups_seen equals the number of subgroups of (Z/p^k)^(n-1) minus those
# of (Z/p^(k-1))^(n-1), by Birkhoff's count (selftest.py checks this).
CENSUS_POINTS = {
    (2, 1, 7): (2824, 13),
    (2, 2, 5): (1916, 57),
    (2, 2, 6): (55615, 364),
    (2, 3, 4): (673, 75),
    (3, 1, 5): (211, 9),
}
# The tiny census leaves out (2,2,6), which takes nine tenths of the grid's time.
CENSUS_POINTS_TINY = {pt: v for pt, v in CENSUS_POINTS.items() if pt != (2, 2, 6)}

# sweep: ambient group (p, k, b) -> number of subgroups of (Z/p^k)^b, which
# is Birkhoff's count (selftest.py checks this).
SWEEP_GROUPS = {
    (2, 1, 5): 374,
    (2, 2, 4): 1983,
    (2, 3, 3): 802,
    (2, 4, 2): 83,
    (3, 1, 4): 212,
    (3, 2, 2): 23,
    (5, 1, 3): 64,
    (5, 1, 4): 1120,
    (5, 2, 1): 3,
    (3, 1, 5): 2664,
}
SWEEP_GROUPS_TINY = {
    (2, 1, 3): 16,
    (2, 2, 2): 15,
    (3, 1, 2): 6,
}

QUERY_BATCH = 500
QUERY_BATCH_TINY = 10
# Queries with at most this many points also run the n!-permutation
# equivalence search against a relabelled copy.
EQUIVALENCE_MAX_N = 5


def liftable_closed_form(p: int, k: int, n: int) -> int:
    """Number of fully liftable classes the paper's three families predict."""
    family2 = sum(1 for r in range(1, k) if n % p ** (k - r) == 0)
    return 1 + family2 + (1 if n % p ** k == 0 else 0)


@dataclass
class PassResult:
    """One pass: when each operation started and how long the program took
    on it, work done, and failed checks."""

    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    work: int = 0
    failures: list[str] = field(default_factory=list)

    def timed(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.latencies.append(end - start)


class Census:
    """``branchlift verify`` through ``cli.main``, one call per grid point.

    Work is subgroups reached by the census; an operation is a grid point.
    """

    name = "census"

    def __init__(self, bl, seed: int, tiny: bool, workdir: Path,
                 expected: dict | None = None):
        self.bl = bl
        self.expected = dict(expected or (CENSUS_POINTS_TINY if tiny else CENSUS_POINTS))
        self.points = sorted(self.expected)
        random.Random(seed).shuffle(self.points)
        self.workdir = workdir

    def sizes(self) -> dict:
        return {"points": [list(pt) for pt in self.points]}

    def run_pass(self, index: int, clock=time.perf_counter) -> PassResult:
        main = self.bl.cli.main
        out = self.workdir / f"pass-{index}"
        res = PassResult()
        try:
            for p, k, n in self.points:
                buf = io.StringIO()
                start = clock()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = main(["verify", "--grid", f"{p},{k},{n}",
                                     "--output", str(out), "--format", "json"])
                except Exception as exc:  # counted as a failed point
                    code = repr(exc)
                res.timed(start, clock())
                seen, problem = self._check(p, k, n, code, buf.getvalue(), out)
                res.work += seen
                if problem:
                    res.failures.append(f"census {p},{k},{n}: {problem}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res

    def _check(self, p, k, n, code, stdout, out: Path) -> tuple[int, str | None]:
        if code != 0:
            return 0, f"exit code {code}"
        try:
            summary = json.loads(stdout)
            atlas = json.loads((out / f"census_p{p}_k{k}_n{n}.json").read_text())
            counts = atlas["counts"]
            entry = summary["entries"][0]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return 0, f"unreadable output: {exc!r}"
        seen = counts.get("subgroups_seen", 0)
        want_seen, want_classes = self.expected[(p, k, n)]
        want_liftable = liftable_closed_form(p, k, n)
        if not summary.get("all_match") or not atlas.get("match"):
            return seen, "census does not match the closed form"
        if entry.get("liftable") != want_liftable or counts.get("liftable") != want_liftable:
            return seen, f"liftable {entry.get('liftable')} != closed form {want_liftable}"
        if (seen, counts.get("classes")) != (want_seen, want_classes):
            return seen, (f"subgroups_seen/classes {seen}/{counts.get('classes')} "
                          f"drifted from {want_seen}/{want_classes}")
        return seen, None


def _bounds_hold(form) -> bool:
    """The normal-form constraints, restated independently of the package."""
    p, k, m = form.ctx.p, form.ctx.k, form.width
    e = form.exponents
    if len(e) != m or list(e) != sorted(e):
        return False
    if any(not (0 <= e[i] < k) for i in range(form.rank)):
        return False
    if any(e[i] != k for i in range(form.rank, m)):
        return False
    for i in range(m):
        if form.upper[i][i] != 1 or any(form.upper[i][j] for j in range(i)):
            return False
        for j in range(i + 1, m):
            if not (0 <= form.upper[i][j] < p ** (e[j] - e[i])):
                return False
    return True


class Sweep:
    """Every subgroup of each ambient group: the normal-form round trip, and
    the divisibility criterion against act-and-compare on each generator.

    Work and operations are both subgroups checked.
    """

    name = "sweep"

    def __init__(self, bl, seed: int, tiny: bool, expected: dict | None = None):
        self.bl = bl
        self.expected = dict(expected or (SWEEP_GROUPS_TINY if tiny else SWEEP_GROUPS))
        self.groups = sorted(self.expected)
        random.Random(seed).shuffle(self.groups)

    def sizes(self) -> dict:
        return {"ambient_groups": [list(g) for g in self.groups],
                "subgroups": sum(self.expected.values())}

    def run_pass(self, index: int, clock=time.perf_counter) -> PassResult:
        bl = self.bl
        enumerate_subgroups = bl.census.enumerate_subgroups
        rebuild, canonical_form = bl.subgroups.rebuild, bl.subgroups.canonical_form
        omega_normalize = bl.action.omega_normalize
        divisibility_criterion = bl.action.divisibility_criterion
        invariant_under = bl.action.invariant_under
        res = PassResult()
        for p, k, b in self.groups:
            gens = bl.action.generators(b)
            forms = enumerate_subgroups(p, k, b)
            count = 0
            while True:
                start = clock()
                try:
                    form = next(forms, None)
                    if form is None:
                        break
                    sub = rebuild(form)
                    again = canonical_form(sub)
                    back = rebuild(again)
                    twin, nf = omega_normalize(sub)
                    by_form = [divisibility_criterion(nf, g) for g in gens]
                    by_act = [invariant_under(twin, g) for g in gens]
                except Exception as exc:  # counted; the group's enumeration ends
                    res.timed(start, clock())
                    res.failures.append(f"sweep {p},{k},{b}: raised {exc!r}")
                    break
                res.timed(start, clock())
                count += 1
                if not (_bounds_hold(again) and back.basis == sub.basis):
                    res.failures.append(f"sweep {p},{k},{b}: round trip failed for {sub.basis}")
                elif not nf.colperm.is_identity or by_form != by_act:
                    res.failures.append(
                        f"sweep {p},{k},{b}: criterion {by_form} != act {by_act} for {twin.basis}")
            res.work += count
            if count != self.expected[(p, k, b)]:
                res.failures.append(
                    f"sweep {p},{k},{b}: {count} subgroups, expected {self.expected[(p, k, b)]}")
        return res


@dataclass(frozen=True)
class Query:
    spec: object
    relabelled: object | None


def _kernel_order(sub) -> int:
    """Order of a subgroup read off its Howell basis: each row's leading
    entry p^e contributes p^(k-e)."""
    p, k = sub.ctx.p, sub.ctx.k
    total = 1
    for row in sub.basis:
        lead = next(x for x in row if x)
        e = 0
        while lead % p == 0:
            lead //= p
            e += 1
        total *= p ** (k - e)
    return total


class Queries:
    """A closed loop with one client over random valid covers.

    Each query runs the library path behind ``branchlift check`` and
    ``branchlift canonical``, and for n <= 5 the equivalence search against
    a relabelled copy.  Batch i is drawn from the seed and i, so batches
    never repeat inside a run; work and operations are both queries.
    """

    name = "queries"

    def __init__(self, bl, seed: int, tiny: bool):
        self.bl = bl
        self.seed = seed
        self.batch = QUERY_BATCH_TINY if tiny else QUERY_BATCH
        self.first_batch = self.make_batch(0)

    def sizes(self) -> dict:
        return {"batch": self.batch}

    def make_batch(self, index: int) -> list[Query]:
        rng = random.Random(self.seed * 1_000_003 + index)
        return [self._random_query(rng) for _ in range(self.batch)]

    def _random_query(self, rng: random.Random) -> Query:
        covers = self.bl.covers
        while True:
            p, k, n = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(3, 9)
            exps = sorted(rng.randint(1, k) for _ in range(rng.randint(0, 2))) + [k]
            factors = tuple(p ** e for e in exps)
            rows = [tuple(rng.randrange(q) for q in factors) for _ in range(n - 1)]
            rows.append(tuple(-sum(r[j] for r in rows) % q for j, q in enumerate(factors)))
            spec = covers.CoverSpec(p, k, n, factors, tuple(rows))
            if covers.validate(spec):
                continue
            relabelled = None
            if n <= EQUIVALENCE_MAX_N:
                order = list(range(n))
                rng.shuffle(order)
                relabelled = covers.CoverSpec(p, k, n, factors, tuple(rows[i] for i in order))
            return Query(spec, relabelled)

    def run_pass(self, index: int, clock=time.perf_counter) -> PassResult:
        bl = self.bl
        batch = self.first_batch if index == 0 else self.make_batch(index)
        validate, kernel = bl.covers.validate, bl.covers.kernel
        cover_from_form, equivalent = bl.covers.cover_from_form, bl.covers.equivalent
        fully_liftable = bl.action.fully_liftable
        omega_normalize = bl.action.omega_normalize
        divisibility_criterion = bl.action.divisibility_criterion
        canonical_form, rebuild = bl.subgroups.canonical_form, bl.subgroups.rebuild
        res = PassResult()
        for q in batch:
            spec = q.spec
            label = f"query p={spec.p} k={spec.k} n={spec.n} factors={spec.factor_orders}"
            start = clock()
            try:
                codes = validate(spec)
                ker = kernel(spec)
                verdict = fully_liftable(ker)
                back = rebuild(canonical_form(ker))
                twin, nf = omega_normalize(ker)
                ker2 = kernel(cover_from_form(nf, spec.n))
                by_form = [divisibility_criterion(nf, g)
                           for g in bl.action.generators(spec.n - 1)]
                match = equivalent(spec, q.relabelled) if q.relabelled is not None else None
            except Exception as exc:  # counted as a failed query
                res.timed(start, clock())
                res.work += 1
                res.failures.append(f"{label}: raised {exc!r}")
                continue
            res.timed(start, clock())
            res.work += 1
            deck = 1
            for f in spec.factor_orders:
                deck *= f
            if codes:
                res.failures.append(f"{label}: validate returned {codes}")
            elif _kernel_order(ker) * deck != spec.p ** (spec.k * (spec.n - 1)):
                res.failures.append(f"{label}: kernel order {_kernel_order(ker)} x {deck}")
            elif back.basis != ker.basis:
                res.failures.append(f"{label}: normal form does not round-trip")
            elif verdict.liftable != all(by_form):
                res.failures.append(f"{label}: fully_liftable {verdict.liftable} != {by_form}")
            elif ker2.basis != twin.basis:
                res.failures.append(f"{label}: cover_from_form kernel differs")
            elif q.relabelled is not None and match is None:
                res.failures.append(f"{label}: relabelled copy not found equivalent")
        return res
