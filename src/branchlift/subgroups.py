"""Subgroups of (Z/p^k)^m as canonical row spans.

A subgroup is stored by the Howell-reduced basis of its row span: pivot
entries are powers of p, every entry above a pivot is reduced below that
pivot, entries left of pivots vanish, and the basis is closed under the
annihilator multiples p^(k-e) * row.  The Howell form is the unique such
basis for a given span, so two subgroups are equal exactly when their
bases are equal tuples.

On top of the reduced basis sits a second normal form used throughout the
lifting machinery: a diagonal matrix of p-powers times a unit
upper-triangular integer matrix with bounded entries, followed by a column
permutation.  ``canonical_form`` computes it and ``rebuild`` inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .modular import (
    MAX_RANK,
    Matrix,
    ModulusContext,
    Perm,
    Vector,
    _val,
)

__all__ = [
    "Subgroup",
    "CanonicalForm",
    "span",
    "howell_reduce",
    "contains",
    "equal",
    "order",
    "elements",
    "canonical_form",
    "rebuild",
    "quotient_invariants",
    "subgroup_to_json",
    "subgroup_from_json",
]


def _echelon(rows: list[list[int]], width: int, p: int, k: int,
             n: int) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Howell-closed row echelon form with pivots normalized to powers of p.

    Pivoting always picks a minimal-valuation entry in the current column,
    so every other entry in that column is an exact integer multiple of the
    pivot and elimination needs no gcd steps.  A pivot p^e with e > 0 also
    leaves its annihilator multiple p^(k-e) * row in the pool; that shadow
    vanishes on this column and every earlier one, so later columns absorb
    it and the span stays closed in one pass.

    Returns the pivot rows and their (column, e) pairs.
    """
    pool = [r for r in rows if any(r)]
    out: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    for col in range(width):
        best = -1
        best_v = k
        for idx, r in enumerate(pool):
            a = r[col]
            if a:
                v = _val(a, p, k)
                if best < 0 or v < best_v:
                    best, best_v = idx, v
                    if v == 0:
                        break
        if best < 0:
            continue
        piv = pool.pop(best)
        pe = p ** best_v
        unit = piv[col] // pe
        if unit != 1:
            inv = pow(unit, -1, n)
            piv = [(x * inv) % n for x in piv]
        nxt = []
        for r in pool:
            a = r[col]
            if a:
                c = a // pe
                r = [(x - c * y) % n for x, y in zip(r, piv)]
            if any(r):
                nxt.append(r)
        if best_v:
            ann = p ** (k - best_v)
            shadow = [(x * ann) % n for x in piv]
            if any(shadow):
                nxt.append(shadow)
        pool = nxt
        out.append(piv)
        pivots.append((col, best_v))
    return out, pivots


def _reduce_against(vec: list[int], basis: Sequence[Sequence[int]],
                    pivots: Sequence[tuple[int, int]], p: int, n: int) -> list[int]:
    """Greedy reduction of a vector against an echelon basis.

    On a Howell basis the result is zero exactly when the vector lies in
    the span.
    """
    v = list(vec)
    for row, (col, e) in zip(basis, pivots):
        a = v[col]
        if a:
            pe = p ** e
            if a % pe:
                break
            c = a // pe
            v = [(x - c * y) % n for x, y in zip(v, row)]
    return v


def _pivots(basis: Sequence[Sequence[int]], p: int, k: int) -> list[tuple[int, int]]:
    out = []
    for row in basis:
        col = next(j for j, x in enumerate(row) if x)
        out.append((col, _val(row[col], p, k)))
    return out


def howell_reduce(ctx: ModulusContext, width: int, rows: Iterable[Sequence[int]]) -> Matrix:
    """Unique reduced basis for the row span of ``rows`` over Z/p^k."""
    p, k, n = ctx.p, ctx.k, ctx.modulus
    work = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} differs from {width}")
        work.append([x % n for x in row])
    basis, pivots = _echelon(work, width, p, k, n)
    # Reduce entries above each pivot below that pivot's power of p.
    for t in range(len(basis)):
        col, e = pivots[t]
        pe = p ** e
        for u in range(t):
            c = basis[u][col] // pe
            if c:
                basis[u] = [(x - c * y) % n for x, y in zip(basis[u], basis[t])]
    return tuple(tuple(r) for r in basis)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of (Z/p^k)^width held by its Howell-reduced basis.

    Build instances through ``span`` (or ``rebuild``); the constructor only
    checks shape, not reducedness.
    """

    ctx: ModulusContext
    width: int
    basis: Matrix

    def __post_init__(self) -> None:
        if not (1 <= self.width <= MAX_RANK):
            raise ValueError(f"ambient rank {self.width} out of range 1..{MAX_RANK}")
        n = self.ctx.modulus
        for row in self.basis:
            if len(row) != self.width:
                raise ValueError("basis row width mismatch")
            if any(not (0 <= x < n) for x in row):
                raise ValueError("basis entries must be canonical residues")

    def __str__(self) -> str:
        return f"subgroup of ({self.ctx})^{self.width} with {len(self.basis)} basis rows"


def span(ctx: ModulusContext, width: int, rows: Iterable[Sequence[int]]) -> Subgroup:
    """The subgroup generated by the given row vectors."""
    return Subgroup(ctx, width, howell_reduce(ctx, width, rows))


def _same_ambient(a: Subgroup, b: Subgroup) -> None:
    if a.ctx != b.ctx or a.width != b.width:
        raise ValueError("subgroups live in different ambient groups")


def contains(sub: Subgroup, vec: Sequence[int]) -> bool:
    """Membership of a vector in the span."""
    if len(vec) != sub.width:
        raise ValueError(f"vector width {len(vec)} differs from {sub.width}")
    p, k, n = sub.ctx.p, sub.ctx.k, sub.ctx.modulus
    v = [x % n for x in vec]
    pivots = _pivots(sub.basis, p, k)
    return not any(_reduce_against(v, sub.basis, pivots, p, n))


def equal(a: Subgroup, b: Subgroup) -> bool:
    """Equality as sets of elements; structural on reduced bases."""
    _same_ambient(a, b)
    return a.basis == b.basis


def order(sub: Subgroup) -> int:
    """Number of elements, read off the pivot valuations."""
    p, k = sub.ctx.p, sub.ctx.k
    total = 0
    for _, e in _pivots(sub.basis, p, k):
        total += k - e
    return p ** total


def elements(sub: Subgroup) -> Iterator[Vector]:
    """All elements; intended for desk-scale checks only."""
    p, k, n = sub.ctx.p, sub.ctx.k, sub.ctx.modulus
    ranges = [range(p ** (k - e)) for _, e in _pivots(sub.basis, p, k)]
    for coeffs in product(*ranges):
        vec = [0] * sub.width
        for c, row in zip(coeffs, sub.basis):
            if c:
                vec = [(x + c * y) % n for x, y in zip(vec, row)]
        yield tuple(vec)


@dataclass(frozen=True)
class CanonicalForm:
    """Normal form of a subgroup: diagonal p-powers, a bounded unit
    upper-triangular integer cofactor, and a trailing column permutation.

    ``exponents`` has one entry per ambient coordinate, weakly increasing;
    the first ``rank`` entries are below k and index the generator rows,
    the rest equal k.  ``upper`` is unit upper-triangular with
    0 <= upper[i][j] < p^(exponents[j]-exponents[i]) above the diagonal.
    Row i of the generating matrix is p^exponents[i] times row i of
    ``upper`` with columns permuted by ``colperm``.
    """

    ctx: ModulusContext
    width: int
    rank: int
    exponents: tuple[int, ...]
    upper: Matrix
    colperm: Perm

    def __post_init__(self) -> None:
        m, k, p = self.width, self.ctx.k, self.ctx.p
        if not (0 <= self.rank <= m):
            raise ValueError("rank out of range")
        if len(self.exponents) != m:
            raise ValueError("exponent list length differs from width")
        for i, e in enumerate(self.exponents):
            if i < self.rank and not (0 <= e < k):
                raise ValueError(f"exponent {e} at generator row {i+1} not in [0, k)")
            if i >= self.rank and e != k:
                raise ValueError("exponents past the rank must equal k")
        if any(self.exponents[i] > self.exponents[i + 1] for i in range(m - 1)):
            raise ValueError("exponents must be weakly increasing")
        if len(self.upper) != m or any(len(r) != m for r in self.upper):
            raise ValueError("cofactor must be square of the ambient rank")
        for i in range(m):
            if self.upper[i][i] != 1:
                raise ValueError("cofactor diagonal must be 1")
            for j in range(i):
                if self.upper[i][j] != 0:
                    raise ValueError("cofactor must vanish below the diagonal")
            for j in range(i + 1, m):
                bound = p ** (self.exponents[j] - self.exponents[i])
                if not (0 <= self.upper[i][j] < bound):
                    raise ValueError(
                        f"cofactor entry ({i+1},{j+1}) = {self.upper[i][j]} "
                        f"outside [0, {bound})"
                    )
        if self.colperm.size != m:
            raise ValueError("column permutation size differs from width")


def _eliminate(rows: Iterable[Sequence[int]], cols: Iterable[int], p: int, k: int,
               n: int) -> tuple[list[list[int]], list[tuple[int, int]], list[list[int]]]:
    """Elimination by globally minimal p-valuation over the columns ``cols``.

    Each step picks the entry of least valuation among the remaining rows
    and columns (ties broken by smallest column, then topmost row), scales
    its row so the pivot is exactly p^e, and clears that column from the
    other remaining rows.  The pivot is minimal over everything left, so
    every entry of the pivot row in ``cols`` is a multiple of p^e and each
    elimination is an exact division.  Row operations act on whole rows,
    columns outside ``cols`` included.

    Returns the pivot rows in order, their (column, e) pairs, and the
    nonzero rows left over, which vanish on ``cols``.
    """
    work = [list(r) for r in rows]
    cols_left = list(cols)
    placed: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    while work:
        best_v, best_c, best_r = k, 0, 0
        for ri, r in enumerate(work):
            for c in cols_left:
                a = r[c]
                if a:
                    v = _val(a, p, k)
                    if (v, c, ri) < (best_v, best_c, best_r):
                        best_v, best_c, best_r = v, c, ri
        if best_v >= k:
            break
        piv = work.pop(best_r)
        pe = p ** best_v
        unit = piv[best_c] // pe
        if unit != 1:
            inv = pow(unit, -1, n)
            piv = [(x * inv) % n for x in piv]
        rest = []
        for r in work:
            a = r[best_c]
            if a:
                c = a // pe
                r = [(x - c * y) % n for x, y in zip(r, piv)]
            if any(r):
                rest.append(r)
        work = rest
        placed.append(piv)
        pivots.append((best_c, best_v))
        cols_left.remove(best_c)
    return placed, pivots, work


def canonical_form(sub: Subgroup) -> CanonicalForm:
    """Compute the normal form of a subgroup from its reduced basis.

    Pivots are chosen by ``_eliminate``, each pivot column is moved to the
    next position, and finally the cofactor entries are reduced into their
    bounds by row operations.
    """
    ctx, m = sub.ctx, sub.width
    p, k, n = ctx.p, ctx.k, ctx.modulus
    placed, pivots, _ = _eliminate(sub.basis, range(m), p, k, n)
    rank = len(placed)
    col_order = [c for c, _ in pivots]
    col_order += [c for c in range(m) if c not in col_order]
    exps_full = [e for _, e in pivots] + [k] * (m - rank)
    # Rows in pivot-column order; triangular by construction.
    mat = [[row[c] for c in col_order] for row in placed]
    # Reduce each cofactor entry into [0, p^(e_j - e_i)) by subtracting
    # multiples of lower generator rows; later columns only.
    for i in range(rank):
        pei = p ** exps_full[i]
        for j in range(i + 1, rank):
            bound = p ** (exps_full[j] - exps_full[i])
            q = (mat[i][j] // pei) // bound
            if q:
                mat[i] = [(x - q * y) % n for x, y in zip(mat[i], mat[j])]
    upper = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for i in range(rank):
        pei = p ** exps_full[i]
        for j in range(i + 1, m):
            upper[i][j] = mat[i][j] // pei
    # colperm sends each original column to its position in the new order.
    images = [0] * m
    for pos, c in enumerate(col_order, start=1):
        images[c] = pos
    return CanonicalForm(
        ctx=ctx,
        width=m,
        rank=rank,
        exponents=tuple(exps_full),
        upper=tuple(tuple(r) for r in upper),
        colperm=Perm(images),
    )


def generating_rows(form: CanonicalForm) -> Matrix:
    """The rank generator rows described by a form, in ambient coordinates."""
    p, n = form.ctx.p, form.ctx.modulus
    omega = form.colperm
    rows = []
    for i in range(form.rank):
        pe = p ** form.exponents[i]
        scaled = [pe * x for x in form.upper[i]]
        rows.append(tuple(scaled[omega(j + 1) - 1] % n for j in range(form.width)))
    return tuple(rows)


def rebuild(form: CanonicalForm) -> Subgroup:
    """The subgroup generated by the rows a form describes."""
    return span(form.ctx, form.width, generating_rows(form))


def quotient_invariants(sub: Subgroup) -> tuple[int, ...]:
    """Orders of the cyclic factors of the ambient group modulo ``sub``.

    Returned ascending; the empty tuple means the quotient is trivial.
    """
    form = canonical_form(sub)
    p = sub.ctx.p
    return tuple(p ** e for e in form.exponents if e > 0)


def subgroup_to_json(sub: Subgroup) -> dict:
    return {
        "p": sub.ctx.p,
        "k": sub.ctx.k,
        "m": sub.width,
        "basis": [list(row) for row in sub.basis],
    }


def subgroup_from_json(data: dict) -> Subgroup:
    ctx = ModulusContext(int(data["p"]), int(data["k"]))
    width = int(data["m"])
    rows = [[int(x) for x in row] for row in data.get("basis", [])]
    return span(ctx, width, rows)
