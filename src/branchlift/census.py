"""Exhaustive classification of small covers and the closed-form predictor.

For fixed (p, k, n) the census enumerates every kernel subgroup whose deck
group has exponent exactly p^k, groups kernels into equivalence classes
under the point-permutation action, decides which classes lift fully, and
compares the liftable classes against a closed-form prediction:

  family 1: deck group (Z/p^k)^(n-1), loop images the standard basis;
  family 2: deck group (Z/p^r)^(n-2) x Z/p^k for 0 < r < k with
            p^(k-r) | n;
  family 3: deck group Z/p^k with p^k | n, all loop images 1.

The kernels are the subgroups of (Z/p^k)^b, b = n - 1, and the census
takes their orbits under the point permutations S_n from ``orbits``, each
orbit once, as a list of Howell bases.  A class is fully liftable exactly
when its orbit is a single subgroup.  This module also holds the audit of
the liftable kernels, the two-point census and the atlas; it re-exports
``enumerate_subgroups``, ``DEFAULT_BOUND`` and ``BoundExceededError``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from .modular import Matrix, ModulusContext, Perm
from .subgroups import (
    CanonicalForm,
    Subgroup,
    _member,
    _pivots,
    _trusted_subgroup,
    canonical_form,
    order,
    span,
    subgroup_to_json,
)
from .action import _omega_twin, fully_liftable
from .covers import (
    CoverSpec,
    cover_from_form,
    cover_to_json,
    deck_group_name,
    kernel,
)
from .orbits import (
    DEFAULT_BOUND,
    BoundExceededError,
    _checked_ring,
    _orbit,
    _orbits,
    _subgroup_count,
    enumerate_subgroups,
)

__all__ = [
    "DEFAULT_BOUND",
    "BoundExceededError",
    "check_point",
    "check_grid",
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


def check_point(p: int, k: int, n: int, bound: int = DEFAULT_BOUND) -> ModulusContext:
    """Raise what ``classify(p, k, n, bound=bound)`` would raise on its
    input, before any work: ValueError for n < 3, a bound below 1, a p
    that is not prime, k < 1, too many points or too large a modulus,
    BoundExceededError past the bound.  Returns the ring Z/p^k."""
    if n < 2:
        raise ValueError(f"a cover needs at least 2 marked points, got n = {n}")
    if n == 2:
        raise ValueError(
            "the census needs n >= 3, got n = 2; use classify --n 2 "
            "or classify_two_points"
        )
    return _checked_ring(p, k, n - 1, bound)


def check_grid(points: Sequence[tuple[int, int, int]], bound: int = DEFAULT_BOUND) -> None:
    """Refuse with ValueError a grid with no points, so that it cannot read
    as a passed verification, and a grid that repeats a point, which would
    report it twice; ``check_point`` each point."""
    if not points:
        raise ValueError("the grid has no points")
    seen = set()
    for p, k, n in points:
        if (p, k, n) in seen:
            raise ValueError(f"the grid repeats the point {p},{k},{n}")
        seen.add((p, k, n))
        check_point(p, k, n, bound)


def _check_seen(p: int, k: int, b: int, seen: int) -> None:
    """Refuse a census that walked other than every subgroup of
    (Z/p^k)^b whose quotient has exponent p^k.  A subgroup whose quotient
    has a smaller exponent contains p^(k-1) (Z/p^k)^b, so those are the
    subgroups of (Z/p^(k-1))^b, and the walk must count the difference."""
    want = _subgroup_count(p, k, b) - _subgroup_count(p, k - 1, b)
    if seen != want:
        raise AssertionError(
            f"the census walked {seen} subgroups, Birkhoff's count is {want}"
        )


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
            "form": {
                "rank": self.form.rank,
                "exponents": list(self.form.exponents),
                "upper": [list(r) for r in self.form.upper],
                "colperm": list(self.form.colperm.images),
            },
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


def predict_liftable(p: int, k: int, n: int) -> list[Predicted]:
    """Closed-form list of liftable cover classes at (p, k, n), n >= 3."""
    if n < 3:
        raise ValueError("the closed form applies for n >= 3")
    pk = p ** k
    # Family 1 sends each point to its own loop class.
    point_images = tuple(_point_classes(ModulusContext(p, k), n - 1))
    out = [Predicted(1, None, CoverSpec(p, k, n, (pk,) * (n - 1), point_images))]
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
    units = [tuple(int(j == i) for j in range(b)) for i in range(b)]
    return units + [(ctx.modulus - 1,) * b]


def classify(p: int, k: int, n: int, *, bound: int = DEFAULT_BOUND,
             strict: bool = True) -> CensusReport:
    """Full census at (p, k, n): every cover class with deck-group exponent
    exactly p^k, its size, lifting verdict, and the comparison against the
    closed-form prediction."""
    ctx = check_point(p, k, n, bound)
    b = n - 1
    start = time.perf_counter()

    basis_classes = _point_classes(ctx, b)[:b]
    predicted = predict_liftable(p, k, n)
    # The kernels key the predictions: for n >= 3 the deck groups of the
    # three families have orders p^(k(n-1)), p^(r(n-2)+k) for 0 < r < k,
    # and p^k, pairwise different, so their kernels differ.
    by_kernel = {kernel(pr.cover).basis: pr for pr in predicted}
    seen = dropped = 0
    records = []
    for orbit in _orbits(ctx, b, b - 1):
        seen += len(orbit)
        rep = _trusted_subgroup(ctx, b, min(orbit))
        pivots = _pivots(rep.basis)
        # The loop class x_n = (-1, ..., -1) of point n needs no test:
        # min(orbit) holds it only if it holds x_1 = (1, 0, ..., 0).
        # Holding x_n, a unit in column 0, its first basis row is (1, y),
        # with y != 0 unless it holds x_1; and (1 n) carries it to a
        # member holding x_1, whose first basis row is (1, 0, ..., 0),
        # smaller than (1, y).
        if strict and any(_member(v, pivots, ctx.modulus) for v in basis_classes):
            dropped += 1
            continue
        verdict = fully_liftable(rep)
        if verdict.liftable != (len(orbit) == 1):
            raise AssertionError("orbit size disagrees with the generator check")
        pr = by_kernel.get(rep.basis) if verdict.liftable else None
        form = canonical_form(rep)
        records.append(
            CoverClass(
                kernel=rep,
                form=form,
                cover=cover_from_form(_omega_twin(form), n),
                liftable=verdict.liftable,
                witness=verdict.witness,
                size=len(orbit),
                family=None if pr is None else pr.family,
                family_param=None if pr is None else pr.param,
            )
        )
    records.sort(key=lambda r: (order(r.kernel), r.kernel.basis))
    match = {r.kernel.basis for r in records if r.liftable} == by_kernel.keys()
    _check_seen(p, k, b, seen)

    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return CensusReport(
        p=p,
        k=k,
        n=n,
        bound=bound,
        strict=strict,
        classes=tuple(records),
        predicted=tuple(predicted),
        match=match,
        subgroups_seen=seen,
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

    A liftable class whose kernel no prediction has is an unpredicted
    class, and a predicted kernel that is not among the liftable kernels
    is a missing prediction; the latter names the generator its kernel
    fails to be invariant under, or None when that kernel is invariant
    after all.  Each mismatch gives the ``size`` of the kernel's orbit
    under the point permutations: the class size of an unpredicted
    class, always 1 as it lifts, and for a missing prediction the size
    of the orbit ``_orbit`` returns from its kernel.  The grid is checked
    before the first census (``check_grid``), so an empty grid, one that
    repeats a point, or one with an invalid point runs no census and
    writes no atlas.
    """
    check_grid(points, bound)
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
                            "size": rec.size,
                            "witness": None,
                        }
                    )
            liftable = {rec.kernel.basis for rec in report.liftable_classes}
            for pr in report.predicted:
                ker = kernel(pr.cover)
                if ker.basis not in liftable:
                    mismatches.append(
                        {
                            "kind": "missing_predicted_class",
                            "kernel": subgroup_to_json(ker),
                            "size": len(_orbit(ker.ctx, n - 1, ker.basis)),
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


def structural_audit(report: CensusReport) -> AuditReport:
    """Check the structural facts on every fully liftable kernel of the
    census ``report``, as ``classify`` returns it; zero violations
    expected.  The facts are read off each class's normal form, whose
    exponents and cofactor its omega twin shares
    (``action.omega_normalize``)."""
    p, k, n = report.p, report.k, report.n
    entries = []
    for rec in report.liftable_classes:
        violations = structure_violations(rec.form.exponents, rec.form.upper, n, p, k)
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


def classify_two_points(p: int, k: int, *, bound: int = DEFAULT_BOUND) -> TwoPointReport:
    """The census at n = 2, over the ambient group Z/p^k.  Its input is
    checked as ``check_point`` checks a point with n >= 3: the bound
    first (ValueError when it is below 1, BoundExceededError when p^k
    exceeds it), then the ring."""
    ctx = _checked_ring(p, k, 1, bound)
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


@lru_cache(maxsize=1024)
def _int_list_template(length: int, indent: str) -> str:
    """A list of ``length`` plain ints at ``indent`` as
    ``json.dumps(..., indent=2)`` lays it out, with a ``%d`` per entry."""
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(["%d"] * length) + "\n" + indent + "]"


def _render(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the values an
    atlas holds: dicts with str keys, lists, tuples, ints, strs, bools and
    None, at ``indent``.  Any other value raises TypeError, so none is
    rendered wrongly.

    With an indent the standard library leaves its C encoder for
    generators that collect every token before joining them.  This fills
    a list of plain ints (bools are not ints here) into one template kept
    per (length, indent), and joins the pieces of any other container
    once, so a container's text is copied once into its parent's."""
    kind = type(value)
    if kind is int:
        return "%d" % value
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is not list and kind is not tuple and kind is not dict:
        raise TypeError(f"the atlas cannot hold a {kind.__name__}")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is dict:
        parts = ["{\n" + inner]
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"an atlas key must be a str, not a {type(key).__name__}")
            parts += encode_basestring_ascii(key), ": ", _render(item, inner), sep
        parts[-1] = "\n" + indent + "}"
        return "".join(parts)
    if all(type(item) is int for item in value):
        return _int_list_template(len(value), indent) % tuple(value)
    parts = ["[\n" + inner]
    for item in value:
        parts += _render(item, inner), sep
    parts[-1] = "\n" + indent + "]"
    return "".join(parts)


def write_atlas(report: CensusReport, directory: str | Path) -> Path:
    """Write one JSON document per census run.

    When the file on disk is a JSON object whose semantic content
    (everything except the timing) matches, it is left byte-identical, so
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
        # Compare everything but the timing.
        if isinstance(old, dict) and {**old, "elapsed_ms": 0} == {**doc, "elapsed_ms": 0}:
            return path
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(_render(doc) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
