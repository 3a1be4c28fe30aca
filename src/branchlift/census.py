"""Exhaustive classification of small covers and the closed-form predictor.

For fixed (p, k, n) the census enumerates every kernel subgroup whose deck
group has exponent exactly p^k, groups kernels into equivalence classes
under the point-permutation action, decides which classes lift fully, and
compares the liftable classes against a closed-form prediction:

  family 1: deck group (Z/p^k)^(n-1), loop images the standard basis;
  family 2: deck group (Z/p^r)^(n-2) x Z/p^k for 0 < r < k with
            p^(k-r) | n;
  family 3: deck group Z/p^k with p^k | n, all loop images 1.

Enumeration walks normal forms with trivial column permutation and closes
under column permutations, which reaches every subgroup; a class is fully
liftable exactly when its orbit is a single subgroup.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, product
from pathlib import Path
from typing import Iterator, Sequence

from .modular import Matrix, ModulusContext, Perm
from .subgroups import (
    CanonicalForm,
    Subgroup,
    canonical_form,
    contains,
    order,
    rebuild,
    span,
    subgroup_to_json,
)
from .action import (
    act,
    fully_liftable,
    generators,
    omega_normalize,
)
from .covers import (
    CoverSpec,
    cover_from_form,
    cover_to_json,
    deck_group_name,
    kernel,
)

__all__ = [
    "DEFAULT_BOUND",
    "BoundExceededError",
    "enumerate_subgroups",
    "classify",
    "predict_liftable",
    "verify_classification",
    "structural_audit",
    "structure_violations",
    "classify_two_points",
    "CensusReport",
    "CoverClass",
    "Predicted",
    "report_to_json",
    "write_atlas",
    "atlas_filename",
]

DEFAULT_BOUND = 1 << 20


class BoundExceededError(RuntimeError):
    """The requested ambient group is larger than the configured bound."""


def _check_bound(p: int, k: int, b: int, bound: int) -> None:
    if p ** (k * b) > bound:
        raise BoundExceededError(
            f"ambient group order p^(k*b) = {p}^{k * b} exceeds the bound {bound}"
        )


def _identity_forms(ctx: ModulusContext, width: int,
                    max_rank: int | None = None) -> Iterator[CanonicalForm]:
    """All normal forms with trivial column permutation, in a fixed order.

    Cofactor entries range over their full bounds, so by the normal-form
    theorem every subgroup is a column permutation of some emitted span.
    Restricting ``max_rank`` below the width keeps only subgroups whose
    quotient has exponent exactly p^k.
    """
    p, k = ctx.p, ctx.k
    top = width if max_rank is None else max_rank
    ident = Perm.identity(width)
    for rank in range(top + 1):
        for exps in combinations_with_replacement(range(k), rank):
            full = exps + (k,) * (width - rank)
            free = [
                (i, j, p ** (full[j] - full[i]))
                for i in range(rank)
                for j in range(i + 1, width)
                if full[j] > full[i]
            ]
            base = [[1 if i == j else 0 for j in range(width)] for i in range(width)]
            for values in product(*(range(bound) for _, _, bound in free)):
                rows = [row[:] for row in base]
                for (i, j, _), val in zip(free, values):
                    rows[i][j] = val
                yield CanonicalForm(
                    ctx=ctx,
                    width=width,
                    rank=rank,
                    exponents=full,
                    upper=tuple(tuple(r) for r in rows),
                    colperm=ident,
                )


def enumerate_subgroups(p: int, k: int, b: int,
                        bound: int = DEFAULT_BOUND) -> Iterator[CanonicalForm]:
    """Normal forms of all subgroups of (Z/p^k)^b, one per subgroup.

    Spans of trivial-column-permutation forms are closed under adjacent
    column swaps; deduplication is by reduced basis.
    """
    _check_bound(p, k, b, bound)
    ctx = ModulusContext(p, k)
    seen: set[Matrix] = set()
    queue: list[Subgroup] = []
    for form in _identity_forms(ctx, b):
        sub = rebuild(form)
        if sub.basis not in seen:
            seen.add(sub.basis)
            queue.append(sub)
            yield canonical_form(sub)
    swaps = [Perm.transposition(b + 1, i, i + 1) for i in range(1, b)]
    idx = 0
    while idx < len(queue):
        sub = queue[idx]
        idx += 1
        for tau in swaps:
            moved = act(tau, sub)
            if moved.basis not in seen:
                seen.add(moved.basis)
                queue.append(moved)
                yield canonical_form(moved)


@dataclass(frozen=True)
class CoverClass:
    """One equivalence class of covers in a census report."""

    kernel: Subgroup
    form: CanonicalForm
    cover: CoverSpec
    liftable: bool
    witness: Perm | None
    size: int
    family: int | None
    family_param: int | None

    def to_json(self) -> dict:
        return {
            "kernel": subgroup_to_json(self.kernel),
            "form": _form_to_json(self.form),
            "cover": cover_to_json(self.cover),
            "deck_group": deck_group_name(self.cover.factor_orders),
            "liftable": self.liftable,
            "witness": None if self.witness is None else self.witness.cycles(),
            "size": self.size,
            "family": self.family,
            "family_param": self.family_param,
        }


@dataclass(frozen=True)
class Predicted:
    """One liftable class the closed form predicts."""

    family: int
    param: int | None
    cover: CoverSpec

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "param": self.param,
            "cover": cover_to_json(self.cover),
            "deck_group": deck_group_name(self.cover.factor_orders),
        }


@dataclass(frozen=True)
class CensusReport:
    p: int
    k: int
    n: int
    bound: int
    strict: bool
    classes: tuple[CoverClass, ...]
    predicted: tuple[Predicted, ...]
    match: bool
    subgroups_seen: int
    dropped_unbranched: int
    elapsed_ms: int

    @property
    def liftable_classes(self) -> tuple[CoverClass, ...]:
        return tuple(c for c in self.classes if c.liftable)


def _form_to_json(form: CanonicalForm) -> dict:
    return {
        "rank": form.rank,
        "exponents": list(form.exponents),
        "upper": [list(r) for r in form.upper],
        "colperm": list(form.colperm.images),
    }


def predict_liftable(p: int, k: int, n: int) -> list[Predicted]:
    """Closed-form list of liftable cover classes at (p, k, n), n >= 3."""
    if n < 3:
        raise ValueError("the closed form applies for n >= 3")
    pk = p ** k
    out = []
    basis_images = [
        tuple(1 if j == i else 0 for j in range(n - 1)) for i in range(n - 1)
    ]
    basis_images.append(tuple(pk - 1 for _ in range(n - 1)))
    out.append(
        Predicted(1, None, CoverSpec(p, k, n, (pk,) * (n - 1), tuple(basis_images)))
    )
    for r in range(1, k):
        if n % p ** (k - r):
            continue
        pr = p ** r
        factors = (pr,) * (n - 2) + (pk,)
        images = [
            tuple((1 if j == i else 0) for j in range(n - 2)) + (1,)
            for i in range(n - 2)
        ]
        images.append((0,) * (n - 2) + (1,))
        images.append(tuple(pr - 1 for _ in range(n - 2)) + ((1 - n) % pk,))
        out.append(Predicted(2, r, CoverSpec(p, k, n, factors, tuple(images))))
    if n % pk == 0:
        images = tuple((1,) for _ in range(n))
        out.append(Predicted(3, None, CoverSpec(p, k, n, (pk,), images)))
    return out


def _point_classes(ctx: ModulusContext, b: int) -> list[tuple[int, ...]]:
    """Loop classes of the marked points in the homology basis: the basis
    vectors and minus their sum."""
    n = ctx.modulus
    vecs = [tuple(1 if j == i else 0 for j in range(b)) for i in range(b)]
    vecs.append(tuple(n - 1 for _ in range(b)))
    return vecs


def classify(p: int, k: int, n: int, *, bound: int = DEFAULT_BOUND,
             strict: bool = True) -> CensusReport:
    """Full census at (p, k, n): every cover class with deck-group exponent
    exactly p^k, its size, lifting verdict, and the comparison against the
    closed-form prediction."""
    if n < 3:
        raise ValueError("use classify_two_points for n = 2")
    b = n - 1
    _check_bound(p, k, b, bound)
    ctx = ModulusContext(p, k)
    start = time.perf_counter()

    gens = generators(b)
    points = _point_classes(ctx, b)
    visited: set[Matrix] = set()
    records = []
    dropped = 0
    for seed in map(rebuild, _identity_forms(ctx, b, max_rank=b - 1)):
        if seed.basis in visited:
            continue
        orbit = [seed]
        visited.add(seed.basis)
        frontier = [seed]
        while frontier:
            nxt = []
            for cur in frontier:
                for g in gens:
                    moved = act(g, cur)
                    if moved.basis not in visited:
                        visited.add(moved.basis)
                        orbit.append(moved)
                        nxt.append(moved)
            frontier = nxt
        rep = min(orbit, key=lambda s: s.basis)
        if strict and any(contains(rep, v) for v in points):
            dropped += 1
            continue
        verdict = fully_liftable(rep)
        if verdict.liftable != (len(orbit) == 1):
            raise AssertionError("orbit size disagrees with the generator check")
        _, norm_form = omega_normalize(rep)
        records.append(
            CoverClass(
                kernel=rep,
                form=canonical_form(rep),
                cover=cover_from_form(norm_form, n),
                liftable=verdict.liftable,
                witness=verdict.witness,
                size=len(orbit),
                family=None,
                family_param=None,
            )
        )

    predicted = predict_liftable(p, k, n)
    predicted_bases = [kernel(pr.cover).basis for pr in predicted]
    matched_predictions: set[int] = set()
    final = []
    all_matched = True
    for rec in sorted(records, key=lambda r: (order(r.kernel), r.kernel.basis)):
        if rec.liftable:
            hits = [
                i for i, basis in enumerate(predicted_bases)
                if basis == rec.kernel.basis
            ]
            if len(hits) == 1:
                pr = predicted[hits[0]]
                rec = replace(rec, family=pr.family, family_param=pr.param)
                matched_predictions.add(hits[0])
            else:
                all_matched = False
        final.append(rec)
    match = all_matched and matched_predictions == set(range(len(predicted)))

    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return CensusReport(
        p=p,
        k=k,
        n=n,
        bound=bound,
        strict=strict,
        classes=tuple(final),
        predicted=tuple(predicted),
        match=match,
        subgroups_seen=len(visited),
        dropped_unbranched=dropped,
        elapsed_ms=elapsed_ms,
    )


@dataclass(frozen=True)
class VerifyEntry:
    p: int
    k: int
    n: int
    match: bool
    classes: int
    liftable: int
    mismatches: tuple[dict, ...]


@dataclass(frozen=True)
class VerifySummary:
    entries: tuple[VerifyEntry, ...]

    @property
    def all_match(self) -> bool:
        return all(e.match for e in self.entries)


def verify_classification(points: Sequence[tuple[int, int, int]], *,
                          bound: int = DEFAULT_BOUND, strict: bool = True,
                          atlas_dir: str | Path | None = None) -> VerifySummary:
    """Run the census over a grid and collect any disagreement with the
    closed form, with the offending kernels as diagnostics.

    A missing predicted class names the generator its kernel fails to be
    invariant under, or None when that kernel is invariant after all.
    """
    entries = []
    for p, k, n in points:
        report = classify(p, k, n, bound=bound, strict=strict)
        if atlas_dir is not None:
            write_atlas(report, atlas_dir)
        mismatches = []
        if not report.match:
            for rec in report.liftable_classes:
                if rec.family is None:
                    mismatches.append(
                        {
                            "kind": "unpredicted_liftable_class",
                            "kernel": subgroup_to_json(rec.kernel),
                            "witness": None,
                        }
                    )
            matched = {
                (rec.family, rec.family_param)
                for rec in report.liftable_classes
                if rec.family is not None
            }
            for pr in report.predicted:
                if (pr.family, pr.param) not in matched:
                    ker = kernel(pr.cover)
                    mismatches.append(
                        {
                            "kind": "missing_predicted_class",
                            "kernel": subgroup_to_json(ker),
                            "witness": fully_liftable(ker).to_json()["witness"],
                        }
                    )
        entries.append(
            VerifyEntry(
                p=p,
                k=k,
                n=n,
                match=report.match,
                classes=len(report.classes),
                liftable=len(report.liftable_classes),
                mismatches=tuple(mismatches),
            )
        )
    return VerifySummary(tuple(entries))


def structure_violations(exponents: Sequence[int], upper: Matrix, n: int,
                         p: int, k: int) -> list[str]:
    """Structural facts every fully liftable kernel with top exponent k
    must satisfy, checked on raw normal-form data.

    Returns human-readable violation strings; empty means all facts hold.
    """
    b = len(exponents)
    out = []
    lead = exponents[:-1]
    if lead and any(e != lead[0] for e in lead):
        out.append(f"leading exponents are not all equal: {list(exponents)}")
    for i in range(b):
        for j in range(i + 1, b - 1):
            if upper[i][j] != 0:
                out.append(f"cofactor entry ({i+1},{j+1}) = {upper[i][j]} is nonzero")
    r1 = exponents[0] if exponents else k
    if k > r1:
        step = p ** (k - r1)
        for v in range(b - 1):
            if (upper[v][b - 1] + 1) % step:
                out.append(
                    f"last-column cofactor entry at row {v+1} is "
                    f"{upper[v][b-1]}, not -1 mod {step}"
                )
        if n % step:
            out.append(f"{n} is not divisible by p^(k-r1) = {step}")
    return out


@dataclass(frozen=True)
class AuditEntry:
    kernel: Subgroup
    violations: tuple[str, ...]


@dataclass(frozen=True)
class AuditReport:
    p: int
    k: int
    n: int
    entries: tuple[AuditEntry, ...]

    @property
    def ok(self) -> bool:
        return all(not e.violations for e in self.entries)


def structural_audit(p: int, k: int, n: int, *, bound: int = DEFAULT_BOUND,
                     strict: bool = True, report: CensusReport | None = None) -> AuditReport:
    """Check the structural facts on every fully liftable kernel of the
    census at (p, k, n); zero violations expected."""
    if report is None:
        report = classify(p, k, n, bound=bound, strict=strict)
    entries = []
    for rec in report.liftable_classes:
        _, form = omega_normalize(rec.kernel)
        violations = structure_violations(form.exponents, form.upper, n, p, k)
        entries.append(AuditEntry(kernel=rec.kernel, violations=tuple(violations)))
    return AuditReport(p=p, k=k, n=n, entries=tuple(entries))


@dataclass(frozen=True)
class TwoPointReport:
    """Degenerate census for n = 2: the only nontrivial permutation acts by
    negation, which fixes every subgroup, so every cover lifts."""

    p: int
    k: int
    subgroups: tuple[Subgroup, ...]
    liftable: tuple[bool, ...]
    cover: CoverSpec

    @property
    def all_liftable(self) -> bool:
        return all(self.liftable)


def classify_two_points(p: int, k: int) -> TwoPointReport:
    ctx = ModulusContext(p, k)
    chains = [span(ctx, 1, [[p ** e]]) for e in range(k)] + [span(ctx, 1, [])]
    flags = tuple(fully_liftable(sub).liftable for sub in chains)
    pk = p ** k
    cover = CoverSpec(p, k, 2, (pk,), ((1,), (pk - 1,)))
    return TwoPointReport(p=p, k=k, subgroups=tuple(chains), liftable=flags, cover=cover)


def report_to_json(report: CensusReport) -> dict:
    return {
        "params": {
            "p": report.p,
            "k": report.k,
            "n": report.n,
            "bound": report.bound,
            "strict": report.strict,
        },
        "classes": [c.to_json() for c in report.classes],
        "predicted": [pr.to_json() for pr in report.predicted],
        "match": report.match,
        "counts": {
            "subgroups_seen": report.subgroups_seen,
            "classes": len(report.classes),
            "liftable": len(report.liftable_classes),
            "dropped_unbranched": report.dropped_unbranched,
        },
        "elapsed_ms": report.elapsed_ms,
    }


def atlas_filename(p: int, k: int, n: int) -> str:
    return f"census_p{p}_k{k}_n{n}.json"


def write_atlas(report: CensusReport, directory: str | Path) -> Path:
    """Write one JSON document per census run.

    When the semantic content (everything except the timing) matches what
    is already on disk, the existing file is left byte-identical, so
    repeated runs do not churn diffs.  Otherwise the document is written
    to a temporary file beside the target and renamed onto it, so a failed
    write leaves the previous file intact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / atlas_filename(report.p, report.k, report.n)
    doc = report_to_json(report)
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = None
        if old is not None:
            stale = dict(old)
            fresh = dict(doc)
            stale.pop("elapsed_ms", None)
            fresh.pop("elapsed_ms", None)
            if stale == fresh:
                return path
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
