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
from math import gcd, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .modular import (
    _IDENTITY_PERMS,
    MAX_RANK,
    Matrix,
    ModulusContext,
    Perm,
    Vector,
    _trusted_perm,
    _val,
    json_int,
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


def _pivots(basis: Sequence[Sequence[int]]) -> list[tuple[int, int, Sequence[int]]]:
    """(column, pivot entry, row) for each row of an echelon basis, in
    order; on a Howell basis each pivot entry is a power of p."""
    out = []
    for row in basis:
        col = 0
        while not row[col]:
            col += 1
        out.append((col, row[col], row))
    return out


def _pivot_step(pool: list[list[int]], placed: list[list[int]], idx: int, col: int,
                pe: int, n: int) -> list[list[int]]:
    """Place ``pool[idx]`` as the pivot row of column ``col``, where its
    entry has the divisor gcd(entry, p^k) = ``pe``, a power of p and the
    least in that column over the pool; appends it to ``placed`` and
    returns the rest of the pool.

    The row is scaled so that its pivot is exactly ``pe``, so every other
    entry in the column is an exact multiple of it and the column is
    cleared from the pool without gcd steps; zero rows are dropped.  A
    nonzero annihilator multiple (p^k / pe) * row joins the pool: it
    vanishes on this column and every column the pool vanished on, so
    later pivots absorb it and the span stays closed.  Last, the entry in
    ``col`` of each row in ``placed`` is reduced below ``pe``.
    """
    piv = pool.pop(idx)
    unit = piv[col] // pe
    if unit != 1:
        inv = pow(unit, -1, n)
        piv = [(x * inv) % n for x in piv]
    rest = []
    for r in pool:
        a = r[col]
        if a:
            c = a // pe
            r = [(x - c * y) % n for x, y in zip(r, piv)]
        if any(r):
            rest.append(r)
    if pe > 1:
        ann = n // pe
        shadow = [(x * ann) % n for x in piv]
        if any(shadow):
            rest.append(shadow)
    for u, r in enumerate(placed):
        c = r[col] // pe
        if c:
            placed[u] = [(x - c * y) % n for x, y in zip(r, piv)]
    placed.append(piv)
    return rest


def _howell_columns(pool: list[list[int]], cols: Iterable[int],
                    n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Howell elimination of the rows in ``pool`` over the columns ``cols``,
    in order, modulo n = p^k; returns ``(basis, rest)``: the pivot rows,
    one per column that has one, and the pool left after the last column.
    Consumes ``pool``.

    Each column places the first pool entry of minimal valuation in it
    with ``_pivot_step``.  For 0 < a < p^k, gcd(a, p^k) = p^v(a), so the
    search compares these divisors, and a unit (divisor 1) ends it.  The
    pivot's shadow vanishes on this column and every earlier one, so the
    rows left after the last column vanish on all of ``cols``.  A placed
    row changes afterwards only by later pivot rows, which vanish on
    every earlier pivot column, so each entry reduced above a pivot stays
    reduced: the result is the one a separate above-pivot pass after the
    elimination would give.  The pivot rows and ``rest`` together span
    what ``pool`` spanned.
    """
    basis: list[list[int]] = []
    for col in cols:
        best = -1
        best_g = n
        for idx, r in enumerate(pool):
            a = r[col]
            if a:
                g = gcd(a, n)
                if g < best_g:
                    best, best_g = idx, g
                    if g == 1:
                        break
        if best >= 0:
            pool = _pivot_step(pool, basis, best, col, best_g, n)
    return basis, pool


def howell_reduce(ctx: ModulusContext, width: int, rows: Iterable[Sequence[int]]) -> Matrix:
    """Unique reduced basis for the row span of ``rows`` over Z/p^k: the
    ``_howell_columns`` elimination over every column, which leaves an
    empty pool."""
    n = ctx.modulus
    pool = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} differs from {width}")
        r = [x % n for x in row]
        if any(r):
            pool.append(r)
    basis, _ = _howell_columns(pool, range(width), n)
    return tuple(tuple(r) for r in basis)


def _reduce_above(row: Sequence[int], pivots: Iterable[tuple[int, int, Sequence[int]]],
                  n: int) -> Sequence[int]:
    """Reduce the entries of ``row`` at each pivot column below that pivot.

    ``pivots`` is ``_pivots`` of an echelon basis; each pivot row vanishes
    left of its column, so a subtraction leaves the entries at earlier
    pivot columns as they were.  Against a Howell basis the result is zero
    exactly when ``row`` lies in the span: a member's first nonzero entry
    is a multiple of the pivot in its column, by the Howell property.
    """
    for col, pe, prow in pivots:
        c = row[col] // pe
        if c:
            row = [(x - c * y) % n for x, y in zip(row, prow)]
    return row


def _member(vec: Sequence[int], pivots: Iterable[tuple[int, int, Sequence[int]]],
            n: int) -> bool:
    """Whether ``vec``, with entries in [0, n), lies in the span of the
    Howell basis whose ``_pivots`` are ``pivots``.  A caller testing many
    vectors against one basis computes ``pivots`` once."""
    return not any(_reduce_above(vec, pivots, n))


def _column_swap(width: int, c: int) -> Callable[[Sequence[int]], Vector]:
    """A getter that reads a row of ``width`` entries with columns c and
    c+1 swapped, as a tuple."""
    return itemgetter(*range(c), c + 1, c, *range(c + 2, width))


def _relabel_columns(basis: Matrix, c: int,
                     swap: Callable[[Sequence[int]], Vector]) -> Matrix | None:
    """The Howell basis of the span of ``basis`` with columns c and c+1
    swapped, for a Howell basis ``basis``, when the swap is a relabelling;
    None when the row pivoting at c is nonzero at c+1.  Columns count from
    0, and ``swap`` is ``_column_swap(width, c)``.

    Write S for the span, S' for its image under the swap, and split the
    basis by pivot column into A (left of c), B (at c or c+1) and C (right
    of c+1).  When no row pivots at c, or the row pivoting at c is zero at
    c+1, the two entries trade places in every row, and when rows pivot
    at both c and c+1 those two rows trade places too.

    * Echelon form and pivot entries.  A row of A keeps its pivot, C is
      zero at c and c+1, and a row of B is zero at the other column of
      the two, so after the swap it pivots there with the same entry, a
      power of p; with the rows of B exchanged the pivots ascend again.
    * Reduction above each pivot.  An entry lands on a new pivot column
      only from the old pivot column of the same pivot row, so it is
      already below that pivot; the other pivot columns keep their
      entries.
    * Closure under annihilator multiples, in the form of the Howell
      property: the elements vanishing left of a column j are spanned by
      the rows pivoting at or right of j.  For j != c+1 the set "vanishes
      left of j" is fixed by the swap, and so is the set of rows pivoting
      at or right of j.  For j = c+1 the elements of S' vanishing left of
      c+1 are the images of the elements of S vanishing left of c and at
      c+1.  Such an element is a combination of B and C, and as the row
      of B pivoting at c is zero at c+1, the row pivoting at c+1, if any,
      enters it only as a multiple vanishing at c+1, which lies in the
      span of C.  So it is spanned by the rows that pivot at or right of
      c+1 after the swap: the old pivot row at c, if any, and C.

    The Howell basis of a span is unique, so the result is
    ``howell_reduce`` of the swapped rows.
    """
    d = c + 1
    rows = []
    at_c = -1
    for r in basis:
        if r[c]:
            # Rows before the one pivoting at c pivot left of c, and rows
            # after it vanish at c.
            if not any(r[:c]):
                if r[d]:
                    return None
                at_c = len(rows)
            rows.append(swap(r))
        else:
            rows.append(swap(r) if r[d] else r)
    if 0 <= at_c < len(rows) - 1 and basis[at_c + 1][d]:
        rows[at_c], rows[at_c + 1] = rows[at_c + 1], rows[at_c]
    return tuple(rows)


def _swap_columns(ctx: ModulusContext, basis: Matrix, c: int,
                  swap: Callable[[Sequence[int]], Vector] | None = None) -> Matrix:
    """The Howell basis of the span of ``basis`` with columns c and c+1
    swapped, for a Howell basis ``basis``; columns count from 0, and
    ``swap``, if given, is ``_column_swap(width, c)``.

    The ``_howell_columns`` elimination of the swapped rows over every
    column, as ``rebuild`` does for a permuted form, without the checks of
    ``howell_reduce``: the swapped rows are canonical residues, and none
    is zero.  The Howell basis of a span is unique, so this is
    ``howell_reduce`` of the swapped rows, and the relabelling
    (``_relabel_columns``) where that applies.  The orbit walk calls it
    only where the relabelling does not apply; there an update of the two
    columns alone was measured to cost as much.
    """
    if not basis:
        return basis
    width = len(basis[0])
    if swap is None:
        swap = _column_swap(width, c)
    rows, _ = _howell_columns([list(swap(r)) for r in basis], range(width), ctx.modulus)
    return tuple(tuple(r) for r in rows)


# The instance key under which ``canonical_form`` stores a subgroup's form.
_FORM_KEY = "_canonical_form"


def _check_width(width: int) -> None:
    if not (1 <= width <= MAX_RANK):
        raise ValueError(f"ambient rank {width} out of range 1..{MAX_RANK}")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of (Z/p^k)^width held by its Howell-reduced basis.

    The constructor checks the shape of the rows it is given, canonical
    residues of the given width, and stores the Howell basis of their
    span, so every instance holds a Howell basis.  ``span`` takes any
    integer rows.

    ``canonical_form`` stores the normal form it computes in the
    instance's ``__dict__`` under ``_FORM_KEY``, outside the fields, so
    ``==``, ``hash``, ``repr`` and ``dataclasses.asdict`` never see it.
    No constructor sets it.
    """

    ctx: ModulusContext
    width: int
    basis: Matrix

    def __post_init__(self) -> None:
        _check_width(self.width)
        n = self.ctx.modulus
        for row in self.basis:
            if len(row) != self.width:
                raise ValueError("basis row width mismatch")
            if any(not (0 <= x < n) for x in row):
                raise ValueError("basis entries must be canonical residues")
        object.__setattr__(self, "basis", howell_reduce(self.ctx, self.width, self.basis))

    def __str__(self) -> str:
        return f"subgroup of ({self.ctx})^{self.width} with {len(self.basis)} basis rows"


def span(ctx: ModulusContext, width: int, rows: Iterable[Sequence[int]]) -> Subgroup:
    """The subgroup generated by the given row vectors.

    A Howell basis already has the right width and canonical residues, so
    the instance is filled in by ``_trusted_subgroup`` instead of
    re-checking every entry in ``Subgroup.__post_init__``.
    """
    _check_width(width)
    return _trusted_subgroup(ctx, width, howell_reduce(ctx, width, rows))


def _trusted_subgroup(ctx: ModulusContext, width: int, basis: Matrix) -> Subgroup:
    """A ``Subgroup`` from a Howell basis the caller has just computed,
    filled in without ``__post_init__``'s re-checks."""
    sub = object.__new__(Subgroup)
    object.__setattr__(sub, "ctx", ctx)
    object.__setattr__(sub, "width", width)
    object.__setattr__(sub, "basis", basis)
    return sub


def _same_ambient(a: Subgroup, b: Subgroup) -> None:
    if a.ctx != b.ctx or a.width != b.width:
        raise ValueError("subgroups live in different ambient groups")


def contains(sub: Subgroup, vec: Sequence[int]) -> bool:
    """Membership of a vector in the span.  A pivot entry that does not
    divide the vector's entry in its column leaves a nonzero remainder
    there, which later pivot rows keep, so such a vector is rejected."""
    if len(vec) != sub.width:
        raise ValueError(f"vector width {len(vec)} differs from {sub.width}")
    n = sub.ctx.modulus
    return _member([x % n for x in vec], _pivots(sub.basis), n)


def equal(a: Subgroup, b: Subgroup) -> bool:
    """Equality as sets of elements; structural on reduced bases."""
    _same_ambient(a, b)
    return a.basis == b.basis


def order(sub: Subgroup) -> int:
    """Number of elements: the product of the basis rows' additive orders,
    p^k over each pivot entry."""
    return prod(sub.ctx.modulus // pe for _, pe, _ in _pivots(sub.basis))


def elements(sub: Subgroup) -> Iterator[Vector]:
    """All elements; intended for desk-scale checks only."""
    n = sub.ctx.modulus
    ranges = [range(n // pe) for _, pe, _ in _pivots(sub.basis)]
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


def _trusted_form(ctx: ModulusContext, width: int, rank: int,
                  exponents: tuple[int, ...], upper: Matrix,
                  colperm: Perm) -> CanonicalForm:
    """A ``CanonicalForm`` from fields whose bounds the caller has just
    established, filled in without ``__post_init__``'s re-checks; a direct
    ``CanonicalForm(...)`` still checks them."""
    form = object.__new__(CanonicalForm)
    object.__setattr__(form, "ctx", ctx)
    object.__setattr__(form, "width", width)
    object.__setattr__(form, "rank", rank)
    object.__setattr__(form, "exponents", exponents)
    object.__setattr__(form, "upper", upper)
    object.__setattr__(form, "colperm", colperm)
    return form


def _identity_shape(basis: Matrix) -> bool:
    """Whether the Howell basis ``basis`` has identity shape: row i
    pivots at column i with entry p^(e_i), e is weakly increasing, and
    every entry of row i is divisible by p^(e_i).

    Such rows are p^(e_i) U_i for the form (e, U, id) that
    ``canonical_form`` reads off them (see there); these are exactly the
    bases ``orbits._identity_bases`` emits.  Every ``Subgroup`` holds a
    Howell basis, so each pivot is a power of p, entries left of it
    vanish, and the entry of row i at a later pivot column j lies below
    that pivot; none of these needs a test here.  A power of p divides
    the next pivot exactly when its exponent is not larger.

    Pivot columns of a Howell basis strictly increase, so every row i
    pivots at column i exactly when the last row r - 1 does, that is when
    its entry at column r - 1 is nonzero: the first test, which rejects
    most bases at once.
    """
    r = len(basis)
    if r and not basis[-1][r - 1]:
        return False
    last = 1
    for i, row in enumerate(basis):
        pe = row[i]
        if pe % last:
            return False
        if pe != 1:
            for x in row:
                if x % pe:
                    return False
        last = pe
    return True


def _least_entry(pool: Sequence[Sequence[int]], cols: Iterable[int],
                 n: int) -> tuple[int, int, int]:
    """``(gcd(a, n), column, row index)`` of the entry a of least valuation
    in ``pool`` over ``cols``, ties broken by smallest column, then
    topmost row; ``pool`` is nonzero somewhere on ``cols``.

    The columns are scanned in ascending order and the rows top-down
    inside each, and a divisor replaces the best one only when strictly
    smaller, so the first entry reaching the least divisor is the one the
    tie-break names.  A unit has the least divisor 1 and ends the scan.
    """
    best = (n, 0, 0)
    for c in cols:
        for ri, r in enumerate(pool):
            a = r[c]
            if a:
                g = gcd(a, n)
                if g < best[0]:
                    if g == 1:
                        return 1, c, ri
                    best = (g, c, ri)
    return best


def canonical_form(sub: Subgroup) -> CanonicalForm:
    """Compute the normal form of a subgroup from its reduced basis.

    The form is computed at most once per instance: the first call stores
    it on the subgroup (see ``Subgroup``) and later calls return that
    same object.  Only this computation writes it, so a subgroup built by
    ``Subgroup(...)``, ``span``, ``rebuild`` or ``omega_normalize`` has
    its form computed afresh, and a round trip through ``rebuild`` checks
    a computation, not a stored value.  A subgroup is immutable and its
    form depends on its basis alone, so the stored form is always the
    one a fresh computation gives.

    A basis of identity shape (``_identity_shape``) is read straight off:
    e_i is the valuation of row i's pivot p^(e_i), U_i is row i divided
    by p^(e_i), the rows past the rank are identity rows, and the column
    permutation is the identity.  Any other basis is eliminated.

    Proof of the read-off.  Each division is exact, U is unit
    upper-triangular, each e_i < k as the pivot is nonzero mod p^k, and
    the entry p^(e_i) U[i][j] of row i at a pivot column j lies below
    p^(e_j), so U[i][j] < p^(e_j - e_i); past the rank any residue is in
    bound.  So (e, U, id) is a form and the rows are p^(e_i) U_i.  They
    are the Howell basis of their span: row i pivots at column i with
    entry p^(e_i), the bounds are the above-pivot reduction, and a
    multiple that kills a row's pivot kills the whole row, which p^(e_i)
    divides, so no annihilator shadow is needed (in an element of the
    span vanishing left of column j, the first row i < j with a nonzero
    multiple would leave a nonzero entry at column i).  On these rows the
    elimination below pivots at row i and column i in turn: every
    remaining row t >= i is divisible by p^(e_t), a multiple of p^(e_i),
    so no remaining entry has a smaller divisor, and column i, the first
    remaining column, holds p^(e_i) in row i, the only remaining row
    nonzero there.  The pivot is p^(e_i) itself, so no unit is scaled
    out; no remaining row meets column i, so nothing is cleared; and each
    placed row t holds p^(e_t) U[t][i] < p^(e_i) there, so nothing is
    reduced.  The elimination thus ends with the rows as they were, in
    the identity column order, and gives (e, U, id).

    Elimination by globally minimal p-valuation: each step takes the entry
    of least valuation over the remaining rows and the columns not yet
    pivoted, ties broken by smallest column, then topmost row
    (``_least_entry``), and places its row with ``_pivot_step``, the step
    of ``_howell_columns``.  The pivot columns in placing order, then the
    rest, give the column permutation; row i of U is placed row i read in
    that order over its pivot entry p^(e_i).

    Proof.  The remaining rows vanish on the pivoted columns, and p^e is
    minimal over their other entries, so it divides its whole row: each
    division is exact and the shadow p^(k-e) * row is zero, which makes
    the step a plain elimination.  A placed row vanishes left of its
    pivot in the column order and later changes only by rows placed after
    it, so U is unit upper-triangular.  The row placed at pivot column j
    reduces each earlier row there into [0, p^(e_j)), and later rows
    vanish on j, so U[i][j] ends in [0, p^(e_j - e_i)); past the rank any
    residue is in bound.  That reduction is unique: two reduced rows that
    differ by a combination of later rows differ, at the pivot of the
    first row j with a nonzero multiple c * row, by c * p^(e_j) mod p^k,
    nonzero since p^(e_j) divides the row and inside (-p^(e_j), p^(e_j)),
    which no nonzero multiple of p^(e_j) mod p^k is.  So U is what
    reducing the cofactor into its bounds after the elimination gives.
    """
    memo = sub.__dict__
    form = memo.get(_FORM_KEY)
    if form is not None:
        return form
    ctx, m = sub.ctx, sub.width
    p, k, n = ctx.p, ctx.k, ctx.modulus
    if _identity_shape(sub.basis):
        rank = len(sub.basis)
        pes = [row[i] for i, row in enumerate(sub.basis)]
        upper = [tuple([x // pe for x in row]) for row, pe in zip(sub.basis, pes)]
        colperm = _IDENTITY_PERMS[m]
    else:
        pool = [list(r) for r in sub.basis if any(r)]
        cols_left = list(range(m))
        placed: list[list[int]] = []
        col_order: list[int] = []
        pes = []
        while pool:
            pe, c, ri = _least_entry(pool, cols_left, n)
            pool = _pivot_step(pool, placed, ri, c, pe, n)
            col_order.append(c)
            pes.append(pe)
            cols_left.remove(c)
        rank = len(placed)
        col_order += cols_left
        upper = [tuple([row[c] // pe for c in col_order]) for row, pe in zip(placed, pes)]
        # colperm sends each original column to its position in the new order.
        images = [0] * m
        for pos, c in enumerate(col_order, start=1):
            images[c] = pos
        colperm = _trusted_perm(tuple(images))
    exps = [_val(pe, p, k) for pe in pes] + [k] * (m - rank)
    upper += _identity_tail(m, rank)
    form = _trusted_form(ctx, m, rank, tuple(exps), tuple(upper), colperm)
    memo[_FORM_KEY] = form
    return form


def _identity_tail(m: int, rank: int) -> Matrix:
    """Rows rank, ..., m - 1 of the m x m identity matrix: the cofactor
    rows of a normal form past its rank."""
    # The length-m window of ident starting m-1-i places before its 1 is
    # row i of the identity.
    ident = (0,) * (m - 1) + (1,) + (0,) * (m - 1)
    return tuple(ident[m - 1 - i:2 * m - 1 - i] for i in range(rank, m))


def generating_rows(form: CanonicalForm) -> Matrix:
    """The rank generator rows described by a form, in ambient coordinates:
    entry j of row i is p^(e_i) U[i][omega(j)] mod p^k, indices from 1."""
    p, n = form.ctx.p, form.ctx.modulus
    cols = [a - 1 for a in form.colperm.images]
    rows = []
    for i in range(form.rank):
        pe = p ** form.exponents[i]
        row = form.upper[i]
        rows.append(tuple([pe * row[c] % n for c in cols]))
    return tuple(rows)


def rebuild(form: CanonicalForm) -> Subgroup:
    """The subgroup generated by the rows a form describes.  Under the
    identity column permutation those rows p^(e_i) U_i are already the
    Howell basis of their span (see ``canonical_form``), so they are not
    reduced again.  Under any other they are eliminated by
    ``_howell_columns`` directly, as ``howell_reduce`` would, without its
    checks: they are canonical residues of the form's width, and none is
    zero, as p^(e_i) < p^k sits in the column omega^-1(i)."""
    rows = generating_rows(form)
    if form.colperm.is_identity:
        return _trusted_subgroup(form.ctx, form.width, rows)
    basis, _ = _howell_columns([list(r) for r in rows], range(form.width), form.ctx.modulus)
    return _trusted_subgroup(form.ctx, form.width, tuple(tuple(r) for r in basis))


def quotient_invariants(sub: Subgroup) -> tuple[int, ...]:
    """Orders of the cyclic factors of the ambient group modulo ``sub``.

    Returned ascending; the empty tuple means the quotient is trivial.
    Read off the exponents of the subgroup's form, which ``canonical_form``
    computes at most once per instance.
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
    ctx = ModulusContext(json_int(data["p"]), json_int(data["k"]))
    width = json_int(data["m"])
    rows = [[json_int(x) for x in row] for row in data["basis"]]
    return span(ctx, width, rows)
