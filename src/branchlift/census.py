"""Exhaustive classification of small covers and the closed-form predictor.

For fixed (p, k, n) the census enumerates every kernel subgroup whose deck
group has exponent exactly p^k, groups kernels into equivalence classes
under the point-permutation action, decides which classes lift fully, and
compares the liftable classes against a closed-form prediction:

  family 1: deck group (Z/p^k)^(n-1), loop images the standard basis;
  family 2: deck group (Z/p^r)^(n-2) x Z/p^k for 0 < r < k with
            p^(k-r) | n;
  family 3: deck group Z/p^k with p^k | n, all loop images 1.

The census walks the orbits of the point permutations S_n on the
subgroups of (Z/p^k)^b, b = n - 1, each found once by one seed loop
(``_orbits``) and walked over the subgroups' own Howell bases
(``_orbit``).  The transpositions (1 2), ..., (b-1 b) that generate S_n
with (n 1) are adjacent column swaps there; (n 1), the only one that
moves point n, rewrites at most the first basis row (``_swap_1n``).  A
class is fully liftable exactly when its orbit is a single subgroup.

``enumerate_subgroups`` walks no orbit.  It starts from the census's
seeds, the identity-shape bases (``_identity_bases``), and writes down
each seed's normal forms directly, one per linear extension of the
seed's tie order.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from pathlib import Path
from typing import Iterator, Sequence

from .modular import Matrix, ModulusContext, Perm, Vector, _trusted_perm
from .subgroups import (
    CanonicalForm,
    Subgroup,
    _check_width,
    _column_swap,
    _identity_shape,
    _identity_tail,
    _member,
    _pivots,
    _reduce_above,
    _relabel_columns,
    _swap_columns,
    _trusted_form,
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

DEFAULT_BOUND = 1 << 20


class BoundExceededError(RuntimeError):
    """The requested ambient group is larger than the configured bound."""


def _check_bound(p: int, k: int, b: int, bound: int) -> None:
    """Refuse p^(k*b) > bound.  A p below 2 or a k*b below 1 passes: the
    ring and width checks after this one refuse it.  For p >= 2 and
    k*b >= bound.bit_length(), p^(k*b) >= 2^(k*b) > bound, so a huge k*b
    is refused without computing the power."""
    e = k * b
    if p >= 2 and e >= 1 and (e >= bound.bit_length() or p ** e > bound):
        raise BoundExceededError(
            f"ambient group order p^(k*b) = {p}^{e} exceeds the bound {bound}"
        )


def _checked_ring(p: int, k: int, b: int, bound: int) -> ModulusContext:
    """The ring Z/p^k for a walk over (Z/p^k)^b, after the bound, width
    and ring checks, in that order."""
    _check_bound(p, k, b, bound)
    _check_width(b)
    return ModulusContext(p, k)


def check_point(p: int, k: int, n: int, bound: int = DEFAULT_BOUND) -> ModulusContext:
    """Raise what ``classify(p, k, n, bound=bound)`` would raise on its
    input, before any work: ValueError for n < 3, a p that is not prime,
    k < 1, too many points or too large a modulus, BoundExceededError past
    the bound.  Returns the ring Z/p^k."""
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


def _seed_rows(ctx: ModulusContext, width: int,
                   max_rank: int) -> Iterator[tuple[tuple[int, ...], list[list[Vector]]]]:
    """``(e, rows)`` for each exponent vector e of rank at most
    ``max_rank``: ``rows[i]`` lists the choices for row i of the bases
    ``_identity_bases`` emits for e, whose product they are; see there."""
    p, k = ctx.p, ctx.k
    for rank in range(max_rank + 1):
        for exps in combinations_with_replacement(range(k), rank):
            full = exps + (k,) * (width - rank)
            yield exps, [
                [(0,) * i + (p ** e, *tail)
                 for tail in product(*(range(0, p ** f, p ** e) for f in full[i + 1:]))]
                for i, e in enumerate(exps)
            ]


def _identity_bases(ctx: ModulusContext, width: int, max_rank: int) -> Iterator[Matrix]:
    """The Howell bases of the spans of all normal forms (e, U, id) with
    trivial column permutation, in a fixed order; row i is p^(e_i) U_i.

    For each exponent vector e the choices for each row are built once
    (``_seed_rows``): row i is (0,)*i + (p^(e_i), *tail), where the
    tail entry at column j runs over the multiples of p^(e_i) below
    p^(f_j), f_j = e_j within the rank and k past it.  The bases are
    the product of those row lists, so no row is built per basis.  Only
    forms of rank at most ``max_rank`` are emitted; below the width that
    keeps the subgroups whose quotient has exponent exactly p^k.
    Cofactor entries range over their full bounds
    0 <= U[i][j] < p^(f_j - e_i), so by the normal-form theorem every
    such subgroup is a column permutation of an emitted span.

    The order is the row-major product over the cofactor cells, the
    first cell outermost: ``product`` over the row lists runs the first
    row outermost, and each row list runs its first cell outermost.  A
    cell with f_j = e_i takes the single value 0.

    Each row list holds at most p^(k(b-1)) tuples, b = width: the tail
    has b - 1 - i cells of at most p^k values each.  That is the ambient
    order over p^k, at most 2^18 under the default bound and ``MAX_RANK``
    (p^k = 4, b = 10).

    The rows are the Howell basis of their span, and distinct forms give
    distinct spans: ``canonical_form`` proves the first and reads the
    form back off the unique Howell basis of the span.
    """
    for _, rows in _seed_rows(ctx, width, max_rank):
        yield from product(*rows)


def _check_drained(pending: set[Matrix]) -> None:
    if pending:
        raise AssertionError(
            f"{len(pending)} identity-form bases reached by orbits were never seeds"
        )


def _gaussian_binomial(n: int, r: int, p: int) -> int:
    """Number of r-dimensional subspaces of (Z/p)^n."""
    out = 1
    for i in range(r):
        # Each partial product is itself a Gaussian binomial, so the
        # division is exact.
        out = out * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return out


def _subgroup_count(p: int, k: int, b: int) -> int:
    """Number of subgroups of (Z/p^k)^b, by Birkhoff's formula; 1 at k = 0.

    A subgroup's type has conjugate (c_1 >= ... >= c_k >= 0) with
    c_1 <= b, and the subgroups of each type number
    prod_i p^(c_(i+1) * (b - c_i)) * [b - c_(i+1) choose c_i - c_(i+1)]_p
    with c_(k+1) = 0 (Birkhoff 1935; Butler, Mem. AMS 1994).  Every type
    has a subgroup, so the sum costs less than a walk over them.
    """
    total = 0
    for conj in combinations_with_replacement(range(b, -1, -1), k):
        c = conj + (0,)
        term = 1
        for i in range(k):
            term *= p ** (c[i + 1] * (b - c[i])) * _gaussian_binomial(
                b - c[i + 1], c[i] - c[i + 1], p
            )
        total += term
    return total


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


def _orbit(ctx: ModulusContext, b: int, seed: Matrix,
           pending: set[Matrix]) -> Iterator[Matrix]:
    """The orbit of the subgroup of (Z/p^k)^b with Howell basis ``seed``
    under the point permutations S_n, n = b + 1, walked lazily over the
    subgroups' Howell bases.

    Yields the seed first, then each new basis as soon as it is found,
    each basis once; each new basis of identity shape (``_identity_shape``)
    is added to ``pending`` before it is yielded.  The walk knows only its
    own orbit: skipping seeds whose orbit was walked already is the
    caller's.

    The generators are (n 1), (1 2), ..., (b-1 b), numbered 0 to b - 1.
    Generator i >= 1 fixes n, so it permutes the coordinates x_j - x_n of
    (Z/p^k)^b: it swaps columns i - 1 and i of the subgroup's own basis,
    by a relabelling (``_relabel_columns``) or, when the row pivoting at
    column i - 1 meets column i, by an elimination (``_swap_columns``).
    Only generator 0 moves n, and ``_swap_1n`` computes its image on the
    same basis.

    The walk keeps its Schreier graph: ``elems`` lists the bases in the
    order found, ``index`` numbers them, and ``table[x][i]`` is the number
    of generator i applied to basis x, or None while unknown.  Generator
    i is an involution, so an edge x -> y is recorded as y -> x too.  Two
    generators s_i, s_h satisfy (s_i s_h)^m = 1, with m = 3 when
    |i - h| = 1 (the braid relation of adjacent transpositions) and m = 2
    otherwise (disjoint transpositions commute).  Hence s_i equals the
    word h, i, h, ..., h of 2m - 1 letters, and before generator i is
    computed at x, each such word is followed from x through the table
    (a word whose first edge is unknown is skipped at once); if every
    letter is known the word ends at s_i x.

    The bases are expanded breadth first, in the order found.  At each
    unknown edge the walk deduces, else computes (n 1) or tries the
    relabelling; a swap that needs the elimination is deferred.  The
    deferred edges are taken in turn, first in first out, only when every
    basis found is expanded: each is skipped if known by then, deduced if
    it can be, and only else eliminated.  A new basis found there is
    expanded at once under the same rule before the next deferred edge.
    Edges found in the meantime often complete a word, so most deferred
    eliminations are never run.

    A deduced edge never hides a new basis.  A word can only end at a
    basis in the table, which is already indexed; and where it ends, the
    relation makes that basis s_i x.  So when s_i x is new no word
    completes and the edge is computed.  The walk ends only when every
    edge of every basis found is known, so the bases found are closed
    under the generators: they are the orbit.  The order they are found
    in depends on which edges were computed, so with the deferral it is
    not that of a walk that computes every edge; the seed still comes
    first, and the bases found, hence ``min`` and the size of the orbit
    and what is added to ``pending``, do not depend on the order.
    """
    gens = range(b)
    words = [
        [(h, (i, h) * (2 if abs(i - h) == 1 else 1)) for h in gens if h != i]
        for i in gens
    ]
    swaps = [None, *(_column_swap(b, i - 1) for i in range(1, b))]
    yield seed
    elems = [seed]
    index = {seed: 0}
    table: list[list[int | None]] = [[None] * b]
    # Deferred edges, each stored as the number x * b + i, 8 bytes each.
    deferred = array("q")
    expanded = taken = 0
    while True:
        # ``elems`` grows as bases are found; reading it in order is the
        # breadth-first queue, and the deferred edges wait until it drains.
        if expanded < len(elems):
            x, todo, last = expanded, gens, False
            expanded += 1
        elif taken < len(deferred):
            x, i = divmod(deferred[taken], b)
            todo, last = (i,), True
            taken += 1
        else:
            return
        row = table[x]
        cur = elems[x]
        for i in todo:
            if row[i] is not None:
                continue
            y = None
            for h, rest in words[i]:
                y = row[h]
                if y is None:
                    continue
                for letter in rest:
                    y = table[y][letter]
                    if y is None:
                        break
                else:
                    break
            if y is None:
                if not i:
                    moved = _swap_1n(ctx, cur)
                elif last:
                    moved = _swap_columns(ctx, cur, i - 1, swaps[i])
                else:
                    moved = _relabel_columns(cur, i - 1, swaps[i])
                    if moved is None:
                        deferred.append(x * b + i)
                        continue
                y = index.get(moved)
                if y is None:
                    y = index[moved] = len(elems)
                    elems.append(moved)
                    table.append([None] * b)
                    if _identity_shape(moved):
                        pending.add(moved)
                    yield moved
            row[i] = y
            table[y][i] = x


def _swap_1n(ctx: ModulusContext, basis: Matrix) -> Matrix:
    """The Howell basis of the image under the point transposition (1 n)
    of the subgroup of (Z/p^k)^b with Howell basis ``basis``, n = b + 1.

    On the coordinates y_j = x_j - x_n, swapping x_1 and x_n sends y to
    T y = (-y_1, y_2 - y_1, ..., y_b - y_1), an automorphism that fixes
    every vector vanishing at column 0 and moves no other vector to one.
    Only row 0 of a Howell basis can be nonzero there, so if it does not
    pivot at column 0 the basis is returned unchanged.  Otherwise row 0 is (p^e, v_2, ..., v_b) and
    -T row 0 is r' = (p^e, p^e - v_2, ..., p^e - v_b) mod p^k, and r' and
    rows 1, 2, ... span the image.  Rows 1, 2, ... are kept as they are:
    by the Howell property they span the elements of the span vanishing
    at column 0, which T fixes, so they span those of the image, and the
    Howell property at every column j >= 1 concerns only these.  The
    shadow p^(k-e) r' = (0, -p^(k-e) v) mod p^k is -p^(k-e) row 0, which
    lies in that set, so the property holds at column 0 too.  Last, r' is
    reduced above the pivots of rows 1, 2, ... in ascending column order
    (``_reduce_above``); each subtraction changes only entries right of
    its pivot column, so it keeps its pivot p^e and every entry reduced
    before.  By uniqueness this is ``howell_reduce`` of the image.
    """
    if not basis or not basis[0][0]:
        return basis
    n = ctx.modulus
    pe, *tail = basis[0]
    head = [pe, *((pe - v) % n for v in tail)]
    return (tuple(_reduce_above(head, _pivots(basis[1:]), n)), *basis[1:])


def _orbits(ctx: ModulusContext, b: int, max_rank: int) -> Iterator[Iterator[Matrix]]:
    """The orbits under S_n, n = b + 1, of the subgroups of (Z/p^k)^b
    whose normal form has rank at most ``max_rank``, each once, as a lazy
    ``_orbit`` walk over their Howell bases that the caller exhausts
    before it asks for the next.

    The seeds are the Howell bases of the forms with trivial column
    permutation (``_identity_bases``).  Their column permutations, the
    point permutations fixing n, reach every subgroup, so their orbits do.
    A point permutation is an automorphism of (Z/p^k)^b, so it keeps the
    quotient, a sum of b - r copies of Z/p^k and smaller cyclic groups at
    rank r, and with it the rank.  So every identity-shape member of an
    orbit (``_identity_shape``) is a seed.

    The loop skips the seeds an earlier orbit reached, yet keeps only a
    set ``pending``: the identity-shape members other than the seed of
    each orbit walked, which ``_orbit`` adds as it finds them, each
    removed when its own turn as a seed comes, so memory follows the
    largest orbit, not the subgroup count.  Each seed comes once, and an
    orbit walked from seed s holds no seed t that comes before s: by
    induction on the order, t either walked its own orbit, which holds s,
    or was pending from an earlier orbit, which then is s's orbit; either
    way s was skipped.  So ``pending`` is empty at the end, which the loop
    checks, and the subgroups walked number the sum of the orbit sizes.
    """
    pending: set[Matrix] = set()
    for seed in _identity_bases(ctx, b, max_rank):
        if seed in pending:
            pending.remove(seed)
            continue
        yield _orbit(ctx, b, seed, pending)
    _check_drained(pending)


def _tie_order(ties: Sequence[int], width: int) -> list[int]:
    """The predecessor masks of the tie order of a seed: bit i of entry j
    is set when position i must come before position j.  ``ties[i]``,
    one per row below the rank, holds position i and the positions j > i
    it must precede; the positions from the rank on form a chain."""
    pred = [0] * width
    for i, tie in enumerate(ties):
        for j in range(i + 1, width):
            if tie >> j & 1:
                pred[j] |= 1 << i
    for j in range(len(ties) + 1, width):
        pred[j] |= 1 << (j - 1)
    return pred


def _linear_extensions(pred: Sequence[int]) -> list[Perm]:
    """The linear extensions of the order on the positions 0, ..., m - 1
    whose predecessor masks are ``pred``, m = len(pred), each as the
    permutation whose image of column c, counting from 1, is one more
    than the position written at column c.  They come in lexicographic
    order of the images, each once: column c takes, in ascending order,
    every position not yet written whose predecessors all are."""
    m = len(pred)
    out: list[Perm] = []
    images = [0] * m

    def place(c: int, used: int) -> None:
        if c == m:
            out.append(_trusted_perm(tuple(images)))
            return
        for j in range(m):
            if not used >> j & 1 and pred[j] & used == pred[j]:
                images[c] = j + 1
                place(c + 1, used | 1 << j)

    place(0, 0)
    return out


def enumerate_subgroups(p: int, k: int, b: int,
                        bound: int = DEFAULT_BOUND) -> Iterator[CanonicalForm]:
    """Normal forms of all subgroups of (Z/p^k)^b, one per subgroup,
    written down without walking an orbit or eliminating.

    Forms come seed by seed, in the order of ``_identity_bases``: each
    identity seed (e, U) gives the forms (e, U, pi), where pi runs over
    the linear extensions of the seed's tie order on the positions
    0, ..., b - 1, in lexicographic order of pi's images, so the seed's
    own form (e, U, id) comes first.  Position i precedes j > i when some
    row t >= i of U with e_t = e_i has U[t][j] % p != 0 (with t = j this
    chains the positions of equal exponent), and the positions from the
    rank on keep their order.  The extension lists are built once per
    tie order in one call.

    Write r for the rank, S for the span of the rows p^(e_i) U_i and
    S_pi for its image in which column c of the ambient group holds
    position pi(c) - 1, so that ``rebuild((e, U, pi))`` is S_pi; c_i
    names the column holding position i.

    1. Every emitted form is ``canonical_form`` of its subgroup.  The
       rows p^(e_i) U_i are the Howell basis of S in position order (see
       ``canonical_form``).  By induction on i, the elimination of S_pi
       places its pivot of step i at column c_i with valuation e_i.
       Before step i the pool spans the elements of S_pi vanishing at
       c_0, ..., c_(i-1): placed row u vanishes at the pivot columns
       before c_u and is divisible by its pivot, so in such an element
       its multiple, read at c_0, c_1, ... in turn, is zero.  Read in
       position order these are the elements of S vanishing at the
       positions below i, spanned by the rows t >= i.  Each of those is
       divisible by p^(e_t), a multiple of p^(e_i), and row i holds
       p^(e_i) at position i, so the least valuation is e_i.  A column
       reaches it in the remaining pool exactly where it does in the
       remaining span, as the pool lies in the span and spans it: at
       position j exactly when some row t >= i with e_t = e_i has
       U[t][j] % p != 0, that is at i and at the positions i precedes.
       Ties go to the smallest column, and pi, an extension, puts c_i
       before the columns of those positions, so the pivot is at c_i.
       After r steps the pool is empty, and the columns left are
       appended in ascending order, which holds the positions from r on
       in their order, as pi keeps them.  So the column order is pi and
       the exponents are e.  The placed rows, read in position order, are
       a basis of S in echelon form, each divisible by its pivot p^(e_i)
       and reduced above the later pivots: the Howell basis of S, which
       is unique.  So they are the rows p^(e_i) U_i, and the form is
       (e, U, pi).
    2. Distinct extensions give distinct subgroups.  Two emitted forms
       with one subgroup are both ``canonical_form`` of it by 1, so they
       are equal, and the seed and pi are read off them.

    Every subgroup comes: its form (e, U, pi) has (e, U, id) among the
    seeds, which range over every exponent vector and every cofactor
    within bounds, and the elimination of 1 run on it shows that pi puts
    c_i before the column of every position i precedes, and the columns
    from the rank on in ascending order: pi is an extension of the
    seed's tie order.
    """
    ctx = _checked_ring(p, k, b, bound)
    extensions: dict[tuple[int, ...], list[Perm]] = {}
    for exps, rows in _seed_rows(ctx, b, b):
        rank = len(exps)
        full = exps + (k,) * (b - rank)
        below = _identity_tail(b, rank)
        # For each choice of row i: U_i, and the mask of the positions
        # j >= i where U_i[j] is a unit, so p^(e_i) U_i[j] has valuation e_i.
        choices = []
        for i, (e, row_list) in enumerate(zip(exps, rows)):
            pe = p ** e
            choice = []
            for row in row_list:
                u = tuple([x // pe for x in row])
                mask = 0
                for j in range(i, b):
                    if u[j] % p:
                        mask |= 1 << j
                choice.append((u, mask))
            choices.append(choice)
        # Rows i and i + 1 share an exponent, so row i's ties take in
        # those of row i + 1.
        chained = [i + 1 < rank and exps[i + 1] == exps[i] for i in range(rank)]
        ties = [0] * rank
        for picked in product(*choices):
            tie = 0
            for i in range(rank - 1, -1, -1):
                tie = picked[i][1] | tie if chained[i] else picked[i][1]
                ties[i] = tie
            key = tuple(ties)
            perms = extensions.get(key)
            if perms is None:
                perms = extensions[key] = _linear_extensions(_tie_order(key, b))
            upper = (*(u for u, _ in picked), *below)
            for perm in perms:
                yield _trusted_form(ctx, b, rank, full, upper, perm)


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
    n = ctx.modulus
    vecs = [tuple(1 if j == i else 0 for j in range(b)) for i in range(b)]
    vecs.append(tuple(n - 1 for _ in range(b)))
    return vecs


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
    seen = 0
    records = []
    dropped = 0
    for walk in _orbits(ctx, b, b - 1):
        orbit = [*walk]
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
    class, always 1 as it lifts, and for a missing prediction the length
    of one ``_orbit`` walk from its kernel.  The grid is checked before the first census
    (``check_grid``), so an empty grid, one that repeats a point, or one
    with an invalid point runs no census and writes no atlas.
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
                            "size": sum(1 for _ in _orbit(ker.ctx, n - 1, ker.basis, set())),
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
    first (BoundExceededError when p^k exceeds ``bound``), then the ring."""
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
        if isinstance(old, dict):
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
