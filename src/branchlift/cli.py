"""Command-line front end.

Subcommands:
  check      decide whether a cover lifts every marked-sphere homeomorphism
  canonical  normal form of a subgroup given by generators
  classify   census of cover classes at one (p, k, n)
  verify     census over a grid, compared against the closed-form predictor
  audit      structural checks on every fully liftable kernel of a census

Exit codes: 0 success (check: liftable), 1 check: not liftable / verify or
audit found a problem, 2 invalid input or an atlas directory that cannot
be written, 3 bound exceeded.

With ``--format json`` every command but ``audit`` prints one indented
document through the atlas writer; ``audit`` prints one compact JSON
object per grid point per line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from .modular import ModulusContext, json_int
from .subgroups import (
    canonical_form,
    equal,
    order,
    rebuild,
    span,
    subgroup_from_json,
    subgroup_to_json,
)
from .action import fully_liftable
from .covers import (
    CoverSpec,
    CoverValidationError,
    GeneralCoverSpec,
    cover_from_json,
    deck_group_name,
    kernel,
    primary_parts,
    validate_general,
)
from .census import (
    BoundExceededError,
    DEFAULT_BOUND,
    _render,
    check_grid,
    classify,
    classify_two_points,
    report_to_json,
    structural_audit,
    verify_classification,
    write_atlas,
)

OUTPUT_ENV = "BRANCHLIFT_OUTPUT_DIR"

DEFAULT_GRID = (
    (2, 1, 3), (2, 1, 4), (2, 1, 5),
    (3, 1, 3), (3, 1, 4),
    (2, 2, 4), (2, 2, 5), (2, 2, 6),
    (3, 2, 3),
)


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return data


def _parse_matrix(text: str) -> list[list[int]]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            rows.append([int(x) for x in chunk.replace(",", " ").split()])
    return rows


def _output_dir(args) -> Path | None:
    if args.output:
        return Path(args.output)
    env = os.environ.get(OUTPUT_ENV)
    return Path(env) if env else None


def _cover_from_args(args) -> "object":
    if args.input:
        data = _load_json(args.input)
        if "p" in data:
            return cover_from_json(data)
        return GeneralCoverSpec(
            json_int(data["n"]),
            tuple(json_int(q) for q in data["factors"]),
            tuple(tuple(json_int(x) for x in row) for row in data["images"]),
        )
    if args.p is None or args.k is None or args.n is None or not args.factors or not args.images:
        raise ValueError("give --input FILE or all of --p --k --n --factors --images")
    factors = tuple(int(x) for x in args.factors.replace(",", " ").split())
    images = tuple(tuple(row) for row in _parse_matrix(args.images))
    return CoverSpec(args.p, args.k, args.n, factors, images)


def _emit(args, doc, text: list[str]) -> None:
    """Print ``doc`` as one indented JSON document, through the atlas
    writer, for ``--format json``, and the lines of ``text`` otherwise."""
    print(_render(doc) if args.format == "json" else "\n".join(text))


def _verdict_text(verdict: dict) -> str:
    """A verdict's JSON in words: the witness names the failing swap."""
    return "liftable" if verdict["liftable"] else f"not liftable (witness {verdict['witness']})"


def cmd_check(args) -> int:
    strict = not args.lax
    try:
        spec = _cover_from_args(args)
    except (OSError, ValueError, KeyError, TypeError, CoverValidationError) as exc:
        return _fail(f"invalid cover input: {exc}", 2)

    if isinstance(spec, GeneralCoverSpec):
        codes = validate_general(spec, strict)
        if codes:
            return _fail("validation failed: " + ", ".join(codes), 2)
        parts = [
            {
                "p": part.p,
                "k": part.k,
                "deck_group": deck_group_name(part.factor_orders),
                **fully_liftable(kernel(part, strict=False)).to_json(),
            }
            for part in primary_parts(spec)
        ]
        liftable = all(part["liftable"] for part in parts)
        _emit(args, {"liftable": liftable, "parts": parts},
              ["liftable" if liftable else "not liftable"]
              + [f"  p={e['p']} part {e['deck_group']}: {_verdict_text(e)}" for e in parts])
        return 0 if liftable else 1

    try:
        ker = kernel(spec, strict)
    except CoverValidationError as exc:
        return _fail("validation failed: " + ", ".join(exc.codes), 2)
    doc = {
        **fully_liftable(ker).to_json(),
        "kernel_order": order(ker),
        "deck_group": deck_group_name(spec.factor_orders),
    }
    _emit(args, doc, [_verdict_text(doc), f"kernel order {doc['kernel_order']}",
                      f"deck group {doc['deck_group']}"])
    return 0 if doc["liftable"] else 1


def cmd_canonical(args) -> int:
    try:
        if args.input:
            sub = subgroup_from_json(_load_json(args.input))
        else:
            if args.p is None or args.k is None or args.gens is None:
                raise ValueError("give --input FILE or --p --k --gens")
            ctx = ModulusContext(args.p, args.k)
            rows = _parse_matrix(args.gens)
            if args.m is None and not rows:
                raise ValueError("cannot infer the ambient rank; pass --m")
            sub = span(ctx, len(rows[0]) if args.m is None else args.m, rows)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"invalid subgroup input: {exc}", 2)

    form = canonical_form(sub)
    if not equal(rebuild(form), sub):
        return _fail("internal error: normal form does not round-trip", 1)
    doc = {
        "subgroup": subgroup_to_json(sub),
        "order": order(sub),
        "rank": form.rank,
        "exponents": list(form.exponents),
        "upper": [list(r) for r in form.upper],
        "colperm": form.colperm.cycles(),
    }

    def lines(matrix):
        return ["  [" + " ".join(map(str, row)) + "]" for row in matrix]

    _emit(args, doc, [
        f"{sub}, order {doc['order']}",
        "basis:",
        *(lines(sub.basis) or ["  (empty)"]),
        f"rank {form.rank}, exponents {doc['exponents']}",
        "upper cofactor:",
        *lines(form.upper),
        f"column permutation: {doc['colperm']}",
        "round trip: ok",
    ])
    return 0


def _grid_from_args(args) -> list[tuple[int, int, int]]:
    if args.grid is not None:
        points = []
        for chunk in args.grid.split(";"):
            chunk = chunk.strip()
            if chunk:
                try:
                    p, k, n = (int(x) for x in chunk.replace(",", " ").split())
                except ValueError:
                    raise ValueError(
                        f"bad --grid point {chunk!r}: a point is p,k,n, three integers"
                    ) from None
                points.append((p, k, n))
        return points
    return list(DEFAULT_GRID)


def cmd_classify(args) -> int:
    strict = not args.lax
    if args.n == 2:
        if args.output:
            raise ValueError("classify --n 2 writes no atlas")
        rep = classify_two_points(args.p, args.k, bound=args.bound)
        doc = {
            "p": rep.p,
            "k": rep.k,
            "n": 2,
            "subgroups": [subgroup_to_json(s) for s in rep.subgroups],
            "all_liftable": rep.all_liftable,
            "cover_classes": 1,
        }
        _emit(args, doc, [
            f"n=2: {len(rep.subgroups)} subgroups, all liftable: {rep.all_liftable}; "
            f"1 cover class with deck group {deck_group_name(rep.cover.factor_orders)}"
        ])
        return 0
    report = classify(args.p, args.k, args.n, bound=args.bound, strict=strict)
    out_dir = _output_dir(args)
    if out_dir:
        path = write_atlas(report, out_dir)
        print(f"atlas written to {path}", file=sys.stderr)
    # the report's document is large, so it is built for JSON output only
    if args.format == "json":
        print(_render(report_to_json(report)))
        return 0
    print(
        f"census p={report.p} k={report.k} n={report.n}: "
        f"{len(report.classes)} classes, {len(report.liftable_classes)} liftable, "
        f"match={'yes' if report.match else 'NO'}"
    )
    for rec in report.classes:
        label = "liftable" if rec.liftable else "not liftable"
        fam = f" family {rec.family}" if rec.family else ""
        if rec.family == 2:
            fam += f" (r={rec.family_param})"
        print(
            f"  deck {deck_group_name(rec.cover.factor_orders):<20} "
            f"kernel order {order(rec.kernel):<6} class size {rec.size:<5} {label}{fam}"
        )
    return 0


def cmd_verify(args) -> int:
    summary = verify_classification(
        _grid_from_args(args),
        bound=args.bound,
        strict=not args.lax,
        atlas_dir=_output_dir(args),
    )
    text = []
    for e in summary.entries:
        text.append(f"p={e.p} k={e.k} n={e.n}: classes={e.classes} "
                    f"liftable={e.liftable} match={'yes' if e.match else 'NO'}")
        text += [f"  mismatch: {mm['kind']} kernel={mm['kernel']['basis']} size={mm['size']}"
                 for mm in e.mismatches]
    text.append("all match" if summary.all_match else "MISMATCH FOUND")
    entries = [dataclasses.asdict(e) for e in summary.entries]
    _emit(args, {"all_match": summary.all_match, "entries": entries}, text)
    return 0 if summary.all_match else 1


def cmd_audit(args) -> int:
    points = [(args.p, args.k, args.n)] if args.n else _grid_from_args(args)
    check_grid(points, args.bound)
    clean = True
    for p, k, n in points:
        report = structural_audit(classify(p, k, n, bound=args.bound, strict=not args.lax))
        bad = [e for e in report.entries if e.violations]
        clean = clean and not bad
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "p": p,
                        "k": k,
                        "n": n,
                        "ok": report.ok,
                        "kernels": len(report.entries),
                        "violations": [
                            {
                                "kernel": subgroup_to_json(e.kernel),
                                "violations": list(e.violations),
                            }
                            for e in bad
                        ],
                    }
                )
            )
        else:
            status = "ok" if report.ok else "VIOLATIONS"
            print(f"audit p={p} k={k} n={n}: {len(report.entries)} liftable kernels, {status}")
            for e in bad:
                for v in e.violations:
                    print(f"  {v}")
    return 0 if clean else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept: every action
    stores into the namespace of its own ``parse_args`` call, and the
    output directory's environment variable is read when a command runs,
    so no call carries state into the next."""
    parser = argparse.ArgumentParser(
        prog="branchlift",
        description="Abelian branched covers of the sphere: lifting checks and censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_pkn=True):
        if with_pkn:
            sp.add_argument("--p", type=int, help="prime")
            sp.add_argument("--k", type=int, help="exponent of p")
            sp.add_argument("--n", type=int, help="number of marked points")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--lax", action="store_true",
                        help="allow marked points with vanishing image")

    check = sub.add_parser("check", help="lifting verdict for one cover")
    add_common(check)
    check.add_argument("--input", help="cover description JSON file")
    check.add_argument("--factors", help="deck group factor orders, e.g. '2,4'")
    check.add_argument("--images", help="loop images, rows separated by ';'")
    check.set_defaults(func=cmd_check)

    canonical = sub.add_parser("canonical", help="normal form of a subgroup")
    canonical.add_argument("--p", type=int)
    canonical.add_argument("--k", type=int)
    canonical.add_argument("--m", type=int, help="ambient rank (default: row width)")
    canonical.add_argument("--gens", help="generator rows separated by ';'")
    canonical.add_argument("--input", help="subgroup JSON file")
    canonical.add_argument("--format", choices=("text", "json"), default="text")
    canonical.set_defaults(func=cmd_canonical)

    cls = sub.add_parser("classify", help="census at one (p, k, n)")
    add_common(cls)
    cls.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    cls.add_argument("--output", help="directory for the atlas JSON")
    cls.set_defaults(func=cmd_classify)

    ver = sub.add_parser("verify", help="census over a grid vs the closed form")
    add_common(ver, with_pkn=False)
    ver.add_argument("--grid", help="semicolon-separated p,k,n triples")
    ver.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    ver.add_argument("--output", help="directory for the atlas JSON files")
    ver.set_defaults(func=cmd_verify)

    audit = sub.add_parser("audit", help="structural facts on liftable kernels")
    add_common(audit)
    audit.add_argument("--grid", help="semicolon-separated p,k,n triples")
    audit.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 2:
        return _fail(f"a cover needs at least 2 marked points, got --n {args.n}", 2)
    if args.command in ("classify",) and (args.p is None or args.k is None or args.n is None):
        return _fail("classify needs --p --k --n", 2)
    if args.command == "audit" and len({args.p is None, args.k is None, args.n is None}) > 1:
        return _fail("audit takes --p, --k and --n together or none of them", 2)
    if args.command == "audit" and args.n is not None and args.grid is not None:
        return _fail("audit takes one point (--p --k --n) or --grid, not both", 2)
    try:
        return args.func(args)
    except (OSError, ValueError, CoverValidationError) as exc:
        return _fail(str(exc), 2)
    except BoundExceededError as exc:
        return _fail(str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
