"""Shared fixtures, independent oracles and small matrix helpers.

The oracles here deliberately avoid the package's row-reduction code:
spans are grown by closure under addition and subgroups are counted by a
closed formula, so they can cross-check the reduced-basis machinery
without sharing a code path with it.
"""

from itertools import combinations_with_replacement, permutations, product

import pytest

from branchlift import LiftVerdict, Matrix, ModulusContext, Perm, classify, howell_reduce, orbits
from branchlift.action import _carries_into
from branchlift.covers import (
    _embedded_rows,
    _failure_codes,
    deck_group_order,
    kernel,
    require_valid,
)
from branchlift.modular import _val
from branchlift.subgroups import (
    _check_width,
    _column_swap,
    _howell_columns,
    _identity_tail,
    _pivots,
    _reduce_above,
    _trusted_subgroup,
    order,
    span,
)


def brute_span(ctx: ModulusContext, width: int, rows) -> frozenset:
    """All elements of the subgroup generated by ``rows``; closure under
    addition of generators, no linear algebra."""
    n = ctx.modulus
    gens = [tuple(x % n for x in r) for r in rows]
    zero = tuple([0] * width)
    elems = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % n for a, b in zip(v, g))
                if w not in elems:
                    elems.add(w)
                    new.append(w)
        frontier = new
    return frozenset(elems)


def brute_all_subgroups(ctx: ModulusContext, width: int) -> set[frozenset]:
    """Every subgroup of (Z/p^k)^width as a set of elements.

    Enumerates spans of all ``width``-tuples of group elements, which is
    enough generators for any subgroup here.  Tiny ambient groups only.
    """
    n = ctx.modulus
    all_vecs = list(product(range(n), repeat=width))
    assert len(all_vecs) ** width <= 300_000, "too large for the brute oracle"
    out = set()
    for gens in product(all_vecs, repeat=width):
        out.add(brute_span(ctx, width, gens))
    return out


def all_perms(m: int) -> list[Perm]:
    return [Perm(images) for images in permutations(range(1, m + 1))]


def gaussian_binomial(n: int, r: int, p: int) -> int:
    """Number of r-dimensional subspaces of (Z/p)^n."""
    out = 1
    for i in range(r):
        # Each partial product is itself a Gaussian binomial, so the
        # division is exact.
        out = out * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return out


def subgroup_count(p: int, k: int, b: int) -> int:
    """Number of subgroups of (Z/p^k)^b, by Birkhoff's formula.

    A subgroup's type mu has conjugate (c_1 >= ... >= c_k >= 0) with
    c_1 <= b, and the ambient type (k^b) has every conjugate part equal to
    b; the subgroups of that type number
    prod_i p^(c_(i+1) * (b - c_i)) * [b - c_(i+1) choose c_i - c_(i+1)]_p
    with c_(k+1) = 0 (Birkhoff 1935; Butler, Mem. AMS 1994).
    """
    total = 0
    for conj in combinations_with_replacement(range(b, -1, -1), k):
        c = conj + (0,)
        term = 1
        for i in range(k):
            term *= p ** (c[i + 1] * (b - c[i])) * gaussian_binomial(
                b - c[i + 1], c[i] - c[i + 1], p
            )
        total += term
    return total


def canonical_form_reference(sub) -> tuple:
    """``(rank, exponents, upper, colperm images)`` of a subgroup's normal
    form by a row-major pivot search, against which ``canonical_form``'s
    column-first gcd scan is checked: every remaining row against every
    remaining column, valuations by ``_val``, the least (valuation,
    column) kept with the topmost row.  The elimination is restated here
    too.  The shadow
    p^(k-v) * pivot row is left out: v is least over the pool, so p^v
    divides the whole row and the shadow is zero."""
    ctx, m = sub.ctx, sub.width
    p, k, n = ctx.p, ctx.k, ctx.modulus
    pool = [list(r) for r in sub.basis if any(r)]
    cols_left = list(range(m))
    placed, col_order, exps = [], [], []
    while pool:
        best_v, best_c, best_r = k, 0, 0
        for ri, r in enumerate(pool):
            for c in cols_left:
                if r[c]:
                    v = _val(r[c], p, k)
                    if (v, c) < (best_v, best_c):
                        best_v, best_c, best_r = v, c, ri
        piv = pool.pop(best_r)
        pe = p ** best_v
        inv = pow(piv[best_c] // pe, -1, n)
        piv = [x * inv % n for x in piv]

        def clear(r):
            c = r[best_c] // pe
            return [(x - c * y) % n for x, y in zip(r, piv)]

        pool = [r for r in map(clear, pool) if any(r)]
        placed = [*map(clear, placed), piv]
        col_order.append(best_c)
        exps.append(best_v)
        cols_left.remove(best_c)
    rank = len(placed)
    col_order += cols_left
    exps += [k] * (m - rank)
    upper = [tuple(row[c] // p ** e for c in col_order) for row, e in zip(placed, exps)]
    upper += [tuple(int(i == j) for j in range(m)) for i in range(rank, m)]
    images = [0] * m
    for pos, c in enumerate(col_order, start=1):
        images[c] = pos
    return rank, tuple(exps), tuple(upper), tuple(images)


def graph_kernel_reference(spec) -> Matrix:
    """Howell basis of a valid cover's kernel, read off one full reduction
    of its graph rows (embedded image of loop i | e_i) over all t + n-1
    columns: the basis rows vanishing on the t deck columns, cut to the
    rest.  ``covers.kernel`` splits that reduction at the deck columns;
    this is the unsplit reading it is checked against."""
    ctx = spec.ctx
    n, t, b = ctx.modulus, len(spec.factor_orders), spec.n - 1
    rows = [
        [(x * (n // q)) % n for x, q in zip(image, spec.factor_orders)]
        + [int(j == i) for j in range(b)]
        for i, image in enumerate(spec.images[:b])
    ]
    graph = howell_reduce(ctx, t + b, rows)
    return tuple(row[t:] for row in graph if not any(row[:t]))


def split_graph_reference(spec, strict: bool):
    """``covers._split_graph`` with the graph rows eliminated top-down,
    loop 1 first: the deck rows of the graph and the kernel, raising
    ``validate``'s codes for an invalid cover.  The Howell basis of a span
    is unique, so the kernel and the deck rows cut to the deck columns
    must not depend on the order; only the preimage parts of the deck
    rows may."""
    ctx = spec.ctx
    n = ctx.modulus
    t, b = len(spec.factor_orders), spec.n - 1
    _check_width(b)
    graph = [[*row, *e] for row, e in
             zip(_embedded_rows(spec, spec.images[:b]), _identity_tail(b, 0))]
    deck, rest = _howell_columns(graph, range(t), n)
    image_order = 1
    for row in deck:
        image_order *= n // next(filter(None, row))
    if _failure_codes(spec, strict, image_order == deck_group_order(spec)):
        require_valid(spec, strict)
    basis, _ = _howell_columns([r[t:] for r in rest], range(b), n)
    return deck, _trusted_subgroup(ctx, b, tuple(tuple(r) for r in basis))


def validate_reference(spec, strict: bool = True) -> list[str]:
    """``covers.validate`` with surjectivity decided by the order of the
    span of the images, pushed into (Z/p^k)^t along the factor
    inclusions: the images generate the deck group exactly when that
    span has the deck group's order.  The reference for the rank mod p
    that ``validate`` computes."""
    generated = span(spec.ctx, len(spec.factor_orders), _embedded_rows(spec, spec.images))
    return _failure_codes(spec, strict, order(generated) == deck_group_order(spec))


def brute_image_order(spec) -> int:
    """Number of elements of the subgroup of the deck group that the loop
    images generate, by closure under adding an image, each factor
    reduced mod its order; no linear algebra."""
    factors = spec.factor_orders
    zero = (0,) * len(factors)
    elems = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for v in frontier:
            for g in spec.images:
                w = tuple((a + c) % q for a, c, q in zip(v, g, factors))
                if w not in elems:
                    elems.add(w)
                    new.append(w)
        frontier = new
    return len(elems)


def equivalent_reference(s1, s2, strict: bool = True):
    """``covers.equivalent`` by membership of moved kernel rows: both
    kernels, None when their orders differ, then the first permutation in
    lexicographic order that moves every basis row of the second kernel
    into the first (``action._carries_into``).  The reference for the
    dual test ``equivalent`` runs on one kernel."""
    if (s1.p, s1.k, s1.n) != (s2.p, s2.k, s2.n):
        raise ValueError("covers have different (p, k, n) parameters")
    k1 = kernel(s1, strict)
    k2 = kernel(s2, strict)
    if order(k1) != order(k2):
        return None
    pivots = _pivots(k1.basis)
    for images in permutations(range(1, s1.n + 1)):
        if _carries_into(images, k2.basis, pivots, s1.ctx.modulus):
            return Perm(images)
    return None


def lift(ctx: ModulusContext, width: int, basis: Matrix) -> Matrix:
    """Howell basis of the preimage of the subgroup with Howell basis
    ``basis`` under (Z/p^k)^n -> (Z/p^k)^b, x -> (x_j - x_n)_j, where
    b = width, n = b + 1 and the columns are ordered (n, 1, ..., b).

    A point permutation acts on (Z/p^k)^b as the coordinate permutation of
    (Z/p^k)^n read through this map, so it acts on preimages by permuting
    columns: with this order, swapping columns 0 and 1 is (1 n) and
    swapping columns c and c + 1 is (c c+1).  The preimage is spanned by
    the all-ones vector and (0 | row) for each basis row.  Its elements
    vanishing at column 0 are the (0 | x) with x in the subgroup, so its
    Howell basis is (1 | ones reduced above the subgroup's pivots) on top
    of (0 | row).  The reference against which the census walk's direct
    (1 n) step is checked.
    """
    ones = _reduce_above([1] * width, _pivots(basis), ctx.modulus)
    return ((1, *ones), *((0, *row) for row in basis))


def unlift(lifted: Matrix) -> Matrix:
    """The Howell basis of the subgroup whose preimage has the Howell
    basis ``lifted``, as ``lift`` lays it out: a preimage contains the
    all-ones vector, so row 0 pivots at column 0 with entry 1, and the
    other rows are (0 | row) for the subgroup's basis rows."""
    return tuple(row[1:] for row in lifted[1:])


def orbit_reference(ctx: ModulusContext, b: int, seed: Matrix) -> list[Matrix]:
    """The orbit walk of ``orbits._orbit`` with a generic deduction: the
    same steps, deferral and order, but each relator word h, i, h, ... is
    followed letter by letter, the words in ascending order of h, and a
    new basis is looked up and then stored.  It takes its steps from
    ``orbits`` at call time, so a test that records them there records
    both walks.  The reference against which the walk's steps, its bases
    and their order are checked."""
    gens = range(b)
    words = [
        [(h, (i, h) * (2 if abs(i - h) == 1 else 1)) for h in gens if h != i]
        for i in gens
    ]
    swaps = [None, *(_column_swap(b, i - 1) for i in range(1, b))]
    elems = [seed]
    index = {seed: 0}
    table: list[list[int | None]] = [[None] * b]
    deferred = []
    expanded = taken = 0
    while True:
        if expanded < len(elems):
            x, todo, last = expanded, gens, False
            expanded += 1
        elif taken < len(deferred):
            x, i = deferred[taken]
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
                    moved = orbits._swap_1n(ctx, cur)
                elif last:
                    moved = orbits._swap_columns(ctx, cur, i - 1, swaps[i])
                else:
                    moved = orbits._relabel_columns(cur, i - 1, swaps[i])
                    if moved is None:
                        deferred.append((x, i))
                        continue
                y = index.get(moved)
                if y is None:
                    y = index[moved] = len(elems)
                    elems.append(moved)
                    table.append([None] * b)
            row[i] = y
            table[y][i] = x


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def elementary_matrix(u: int, v: int, size: int) -> Matrix:
    """The size x size matrix with a single 1 at (u, v), 1-indexed."""
    if not (1 <= u <= size and 1 <= v <= size):
        raise ValueError(f"entry ({u}, {v}) out of range for size {size}")
    return tuple(
        tuple(1 if (i == u - 1 and j == v - 1) else 0 for j in range(size))
        for i in range(size)
    )


def matadd(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("dimension mismatch in matrix sum")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def matsub(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("dimension mismatch in matrix difference")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def valuation(a: int, ctx: ModulusContext) -> int:
    """Largest t <= k with p^t | a mod p^k; valuation(0) = k, so that
    "p^t divides a" is "valuation(a) >= t" for every t <= k."""
    a %= ctx.modulus
    if a == 0:
        return ctx.k
    t = 0
    while a % ctx.p == 0:
        a //= ctx.p
        t += 1
    return t


class NonUnitError(ValueError):
    """Inversion was attempted on a residue divisible by p."""


def inv_unit(a: int, ctx: ModulusContext) -> int:
    """Multiplicative inverse of a unit residue mod p^k."""
    a %= ctx.modulus
    if a % ctx.p == 0:
        raise NonUnitError(f"{a} is not a unit mod {ctx.modulus}")
    return pow(a, -1, ctx.modulus)


def reduce_mod(m: Matrix, ctx: ModulusContext) -> Matrix:
    """Every entry mapped to its canonical residue in [0, p^k)."""
    n = ctx.modulus
    return tuple(tuple(x % n for x in row) for row in m)


def inv_unitriangular_int(q: Matrix) -> Matrix:
    """Exact integer inverse of a unit upper-triangular matrix, column by
    column from the bottom up; ValueError for any other matrix.  The
    package solves w U = v by forward substitution instead and keeps no
    inverse, so this is an independent reference."""
    n = len(q)
    if any(len(row) != n for row in q):
        raise ValueError("matrix is not square")
    for i in range(n):
        if q[i][i] != 1:
            raise ValueError(f"diagonal entry ({i+1},{i+1}) is not 1")
        if any(q[i][:i]):
            raise ValueError(f"row {i+1} is nonzero below the diagonal")
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            inv[i][j] = -sum(q[i][t] * inv[t][j] for t in range(i + 1, j + 1))
    return tuple(tuple(row) for row in inv)


def inv_unitriangular(q: Matrix, ctx: ModulusContext) -> Matrix:
    """Inverse of a unit upper-triangular integer matrix, reduced mod p^k."""
    return reduce_mod(inv_unitriangular_int(q), ctx)


def fully_liftable_reference(sub) -> LiftVerdict:
    """The lifting check by membership alone: each generator, in the order
    of ``action.generators``, moves every basis row into the subgroup."""
    b, n = sub.width, sub.ctx.modulus
    gens = [Perm.transposition(b + 1, i, i + 1) for i in range(1, b)]
    gens.append(Perm.transposition(b + 1, b, b + 1))
    pivots = _pivots(sub.basis)
    for g in gens:
        if not _carries_into(g.images, sub.basis, pivots, n):
            return LiftVerdict(False, g)
    return LiftVerdict(True, None)


#: Ambient groups (p, k, b) small enough to enumerate in full.
ENUMERATED_GROUPS = [(2, 1, 4), (2, 2, 3), (3, 1, 3), (2, 3, 2), (5, 1, 2)]

#: (p, k, n, expected number of fully liftable classes)
ACCEPTANCE_GRID = (
    (2, 1, 3, 1),
    (2, 1, 4, 2),
    (2, 1, 5, 1),
    (3, 1, 3, 2),
    (3, 1, 4, 1),
    (2, 2, 4, 3),
    (2, 2, 5, 1),
    (2, 2, 6, 2),
    (3, 2, 3, 2),
)


@pytest.fixture(scope="session")
def census_cache():
    """Census reports computed once per session, keyed by (p, k, n)."""
    cache = {}

    def get(p: int, k: int, n: int):
        key = (p, k, n)
        if key not in cache:
            cache[key] = classify(p, k, n)
        return cache[key]

    return get
