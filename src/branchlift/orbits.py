"""The point permutations S_n on the subgroups of (Z/p^k)^b, b = n - 1.

This module holds what the census and the subgroup enumeration need of
those subgroups, and imports from the package only ``modular`` and
``subgroups``:

- the bound on the ambient group order (``DEFAULT_BOUND``,
  ``BoundExceededError``), checked before any walk;
- the seeds, the Howell bases of the normal forms with trivial column
  permutation (``_identity_bases``), written as a product of row lists
  built once per exponent vector (``_seed_rows``);
- Birkhoff's count of the subgroups (``_subgroup_count``), which every
  census compares with the subgroups it walked;
- the orbit walk: one seed loop (``_orbits``) finds each orbit once and
  walks it over the subgroups' own Howell bases (``_orbit``).  The
  transpositions (1 2), ..., (b-1 b) that generate S_n with (n 1) are
  adjacent column swaps there; (n 1), the only one that moves point n,
  rewrites at most the first basis row (``_swap_1n``);
- ``enumerate_subgroups``, which walks no orbit.  It starts from the
  seeds and writes down each seed's normal forms directly, one per
  linear extension of the seed's tie order.
"""

from __future__ import annotations

from array import array
from itertools import combinations_with_replacement, product
from typing import Iterator, Sequence

from .modular import Matrix, ModulusContext, Perm, Vector, _trusted_perm
from .subgroups import (
    CanonicalForm,
    _check_width,
    _column_swap,
    _identity_shape,
    _identity_tail,
    _pivots,
    _reduce_above,
    _relabel_columns,
    _swap_columns,
    _trusted_form,
)

DEFAULT_BOUND = 1 << 20


class BoundExceededError(RuntimeError):
    """The requested ambient group is larger than the configured bound."""


def _check_bound(p: int, k: int, b: int, bound: int) -> None:
    """Refuse a bound below 1 with ValueError, whatever the point, and
    p^(k*b) > bound with BoundExceededError.  A p below 2 or a k*b below
    1 passes: the ring and width checks after this one refuse it.  For
    p >= 2 and k*b >= bound.bit_length(), p^(k*b) >= 2^(k*b) > bound, so
    a huge k*b is refused without computing the power."""
    if bound < 1:
        raise ValueError(f"the bound must be at least 1, got {bound}")
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


def _orbit(ctx: ModulusContext, b: int, seed: Matrix) -> list[Matrix]:
    """The orbit of the subgroup of (Z/p^k)^b with Howell basis ``seed``
    under the point permutations S_n, n = b + 1, walked over the
    subgroups' Howell bases.

    Returns the list of the orbit's bases in the order found: the seed
    first, each basis once.  The walk knows only its own orbit: skipping
    seeds whose orbit was walked already is the caller's.

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
    word h, i, h, ..., h of 2m - 1 letters.  Before generator i is
    computed at x, the walk checks the squares, then the hexagons: for
    each h commuting with i (|i - h| > 1) it reads h, i, h from x
    through the table, and for each braid neighbour h (|i - h| = 1)
    h, i, h, i, h, each word as straight-line table reads that stop at
    the first unknown entry.  If every entry is known the word ends at
    s_i x.  The order of trying the words changes no step: whether some
    word completes depends only on the table, and every word that
    completes ends at the same basis s_i x, so the edge recorded, and
    with it every later step, is the same in any order.

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
    first, and the bases found, hence ``min`` and the size of the orbit,
    do not depend on the order.
    """
    gens = range(b)
    # For each generator i: the generators that commute with it (word
    # h, i, h) and its braid neighbours (word h, i, h, i, h).
    commuting = [tuple(h for h in gens if abs(i - h) > 1) for i in gens]
    braided = [tuple(h for h in gens if abs(i - h) == 1) for i in gens]
    swaps = [None, *(_column_swap(b, i - 1) for i in range(1, b))]
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
            return elems
        row = table[x]
        cur = elems[x]
        for i in todo:
            if row[i] is not None:
                continue
            y = None
            for h in commuting[i]:
                y = row[h]
                if y is not None:
                    y = table[y][i]
                    if y is not None:
                        y = table[y][h]
                        if y is not None:
                            break
            if y is None:
                for h in braided[i]:
                    y = row[h]
                    if y is not None:
                        y = table[y][i]
                        if y is not None:
                            y = table[y][h]
                            if y is not None:
                                y = table[y][i]
                                if y is not None:
                                    y = table[y][h]
                                    if y is not None:
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
                y = index.setdefault(moved, len(elems))
                if y == len(elems):
                    elems.append(moved)
                    table.append([None] * b)
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


def _orbits(ctx: ModulusContext, b: int, max_rank: int) -> Iterator[list[Matrix]]:
    """The orbits under S_n, n = b + 1, of the subgroups of (Z/p^k)^b
    whose normal form has rank at most ``max_rank``, each once, as the
    list of Howell bases ``_orbit`` returns.

    The seeds are the Howell bases of the forms with trivial column
    permutation (``_identity_bases``).  Their column permutations, the
    point permutations fixing n, reach every subgroup, so their orbits do.
    A point permutation is an automorphism of (Z/p^k)^b, so it keeps the
    quotient, a sum of b - r copies of Z/p^k and smaller cyclic groups at
    rank r, and with it the rank.  So every identity-shape member of an
    orbit (``_identity_shape``) is a seed.

    The loop skips the seeds an earlier orbit reached, yet keeps only a
    set ``pending``: the identity-shape members other than the seed of
    each orbit walked, added once its walk returns, each removed when its
    own turn as a seed comes, so memory follows the largest orbit, not
    the subgroup count.  Each seed comes once, and an orbit walked from
    seed s holds no seed t that comes before s: by induction on the
    order, t either walked its own orbit, which holds s, or was pending
    from an earlier orbit, which then is s's orbit; either way s was
    skipped.  So ``pending`` is empty at the end, which the loop checks,
    and the subgroups walked number the sum of the orbit sizes.
    """
    pending: set[Matrix] = set()
    for seed in _identity_bases(ctx, b, max_rank):
        # One hash: the seed was pending exactly when discarding it
        # shrinks the set.
        size = len(pending)
        pending.discard(seed)
        if len(pending) < size:
            continue
        orbit = _orbit(ctx, b, seed)
        pending.update(x for x in orbit[1:] if _identity_shape(x))
        yield orbit
    if pending:
        raise AssertionError(
            f"{len(pending)} identity-form bases reached by orbits were never seeds"
        )


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
                choice.append((u, sum(1 << j for j in range(i, b) if u[j] % p)))
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
