"""Branched-cover descriptions and the linear algebra behind them.

A regular abelian branched cover of the sphere with n marked points is
recorded by the orders of the cyclic factors of its deck group A together
with the image in A of each loop class; the images must sum to zero and
generate A.  The kernel of the induced map on mod-p^k homology is the
subgroup that controls both lifting and equivalence, so this module
converts between cover descriptions, kernels, and normal forms, decides
equivalence by a search over point permutations that tests each by
membership of moved kernel basis rows, computes the deck
automorphism induced by a liftable permutation, and splits a general
finite abelian cover into its prime-power parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

from .modular import MAX_MODULUS, Matrix, ModulusContext, Perm, Vector, json_int
from .subgroups import (
    CanonicalForm,
    Subgroup,
    _check_width,
    _howell_columns,
    _identity_tail,
    _pivots,
    _reduce_above,
    _trusted_subgroup,
    order,
    span,
)
from .action import _carries_into, _moved_row, invariant_under

__all__ = [
    "CoverValidationError",
    "CoverSpec",
    "GeneralCoverSpec",
    "validate",
    "require_valid",
    "kernel",
    "cover_from_form",
    "apply_cover_map",
    "deck_group_order",
    "deck_group_name",
    "equivalent",
    "induced_deck_automorphism",
    "primary_parts",
    "validate_general",
    "cover_to_json",
    "cover_from_json",
]

NOT_SUM_ZERO = "NotSumZero"
NOT_SURJECTIVE = "NotSurjective"
WRONG_EXPONENT = "WrongExponent"
ZERO_BRANCH_IMAGE = "ZeroBranchImage"
TRIVIAL_GROUP = "TrivialGroup"


class CoverValidationError(ValueError):
    """A cover description failed validation; ``codes`` lists the failures."""

    def __init__(self, codes: list[str], message: str | None = None):
        self.codes = codes
        super().__init__(message or ", ".join(codes))


@dataclass(frozen=True)
class CoverSpec:
    """A p-group cover: deck group factors and loop images.

    ``factor_orders`` are the cyclic factor orders of the deck group,
    ascending powers of p with largest exactly p^k.  ``images`` has one row
    per marked point; entry j of each row is taken mod the j-th factor
    order.  The last row is stored, not recomputed, so a corrupted input
    cannot hide a sum that fails to vanish.
    """

    p: int
    k: int
    n: int
    factor_orders: tuple[int, ...]
    images: tuple[Vector, ...]
    ctx: ModulusContext = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # ModulusContext validates p prime, k >= 1 and the modulus size.
        object.__setattr__(self, "ctx", ModulusContext(self.p, self.k))
        if self.n < 2:
            raise ValueError("need at least two marked points")
        if not self.factor_orders:
            raise ValueError("deck group needs at least one cyclic factor")
        for q in self.factor_orders:
            if q < 2 or not _is_power_of(q, self.p):
                raise ValueError(f"factor order {q} is not a positive power of {self.p}")
        if any(
            self.factor_orders[i] > self.factor_orders[i + 1]
            for i in range(len(self.factor_orders) - 1)
        ):
            raise ValueError("factor orders must be ascending")
        _store_reduced_images(self)


def _store_reduced_images(spec: CoverSpec | GeneralCoverSpec) -> None:
    """Check that a cover has one image row per point, each as wide as the
    factor list, and store the rows with entry j reduced mod factor j."""
    if len(spec.images) != spec.n:
        raise ValueError(f"expected {spec.n} image rows, got {len(spec.images)}")
    if any(len(row) != len(spec.factor_orders) for row in spec.images):
        raise ValueError("image row width differs from the factor count")
    reduced = tuple(tuple(x % q for x, q in zip(row, spec.factor_orders))
                    for row in spec.images)
    object.__setattr__(spec, "images", reduced)
    object.__setattr__(spec, "factor_orders", tuple(spec.factor_orders))


def _sums_to_zero(spec: CoverSpec | GeneralCoverSpec) -> bool:
    """Whether the loop images sum to zero in every factor."""
    return not any(sum(row[j] for row in spec.images) % q
                   for j, q in enumerate(spec.factor_orders))


def _is_power_of(q: int, p: int) -> bool:
    while q % p == 0:
        q //= p
    return q == 1


def deck_group_order(spec: CoverSpec) -> int:
    return math.prod(spec.factor_orders)


def deck_group_name(factor_orders: tuple[int, ...]) -> str:
    return " x ".join(f"Z{q}" for q in factor_orders) if factor_orders else "trivial"


def _embedded_rows(spec: CoverSpec, rows: tuple[Vector, ...]) -> list[list[int]]:
    """Push deck-group elements into (Z/p^k)^t along the factor inclusions."""
    n = spec.p ** spec.k
    scales = [n // q for q in spec.factor_orders]
    return [[(x * s) % n for x, s in zip(row, scales)] for row in rows]


def validate(spec: CoverSpec, strict: bool = True) -> list[str]:
    """Semantic checks; returns the list of failure codes (empty = valid).

    Checks that the images sum to zero, that they generate the deck group,
    that the deck group has exponent exactly p^k, and (in strict mode)
    that no marked point has a vanishing image, which would mean the cover
    is not actually branched there.
    """
    generated = span(spec.ctx, len(spec.factor_orders), _embedded_rows(spec, spec.images))
    return _failure_codes(spec, strict, order(generated))


def _failure_codes(spec: CoverSpec, strict: bool, image_order: int) -> list[str]:
    """``validate``'s codes, given the order of the subgroup of the deck
    group that the images generate."""
    codes = [] if _sums_to_zero(spec) else [NOT_SUM_ZERO]
    if spec.factor_orders[-1] != spec.p ** spec.k:
        codes.append(WRONG_EXPONENT)
    if image_order != deck_group_order(spec):
        codes.append(NOT_SURJECTIVE)
    if strict and any(not any(row) for row in spec.images):
        codes.append(ZERO_BRANCH_IMAGE)
    return codes


def require_valid(spec: CoverSpec, strict: bool = True) -> None:
    codes = validate(spec, strict)
    if codes:
        raise CoverValidationError(codes)


def kernel(spec: CoverSpec, strict: bool = True) -> Subgroup:
    """Kernel of the induced map on mod-p^k homology, as a subgroup of
    (Z/p^k)^(n-1); raises ``CoverValidationError`` with ``validate``'s
    codes for an invalid cover.

    The graph rows (embedded image of loop i | e_i), for the first
    b = n-1 loops, span the pairs (image of x | x) over all x in
    (Z/p^k)^b, so the graph has p^(kb) elements and holds (0 | x) exactly
    for x in the kernel.  ``_split_graph`` runs one ``_howell_columns``
    elimination of the graph rows, split at the deck columns: first over
    the t deck columns, which places the deck pivot rows, then over the b
    homology columns of the rows left in the pool, cut to those columns.

    * The kernel rows are those of a full reduction over all t + b
      columns, which at the split holds the same deck rows and pool.
      Every later pivot step there takes its pivot row from the pool and
      changes only the pool and the rows already placed; what it does to
      the deck rows feeds back into neither.  The pool rows vanish on the
      deck columns, so cutting them first changes nothing.  The rows of
      that full Howell basis vanishing on the deck columns, cut to their
      trailing part, keep p-power pivots, reduced entries above each
      pivot and zeros left of it, and for each column j the rows pivoting
      at or past t + j span the kernel elements that vanish before it.
      So they are the Howell basis of the kernel.
    * Later steps change a deck row only by pool rows, which vanish on the
      deck columns, so the deck pivots are those of the full reduction.
      The deck rows cut to the deck columns are therefore the Howell basis
      of the subgroup the first b images generate, whose order is the
      product of p^k over each pivot entry.
    * When the images sum to zero, the last image is minus the sum of the
      first b, so the first b generate what all n generate.  So if the
      images sum to zero, the top factor is p^k, no image is zero when
      ``strict``, and that order equals the deck order, ``validate``
      finds no failure; if any of these fails, so does ``validate``, and
      ``require_valid`` raises its codes.

    The graph rows enter the pool last loop first.  ``_howell_columns``
    takes the first row of least valuation as a column's pivot, so each
    deck pivot is the highest-numbered such loop, and the rows left over
    are put back in reverse order, the loops' rows ascending.  Each such
    row is e_i plus entries only in the columns of the deck pivot loops,
    and a pivot's shadow has entries only there too; those columns
    therefore tend to sit at the right end.  So each homology column i
    left of them is nonzero in one leftover row only, with the unit of
    e_i, and pivots there with nothing to clear, where a top-down order
    would leave every leftover row nonzero in the low columns, to be
    eliminated across the whole width.  The order is free: the Howell
    basis of a span is unique, so the kernel and the deck rows cut to the
    deck columns are the same for every order of the pool; only the
    preimage parts of the deck rows depend on it, and
    ``induced_deck_automorphism`` does not.
    """
    return _split_graph(spec, strict)[1]


def _split_graph(spec: CoverSpec, strict: bool) -> tuple[list[list[int]], Subgroup]:
    """The deck pivot rows of the graph and the kernel, as ``kernel``
    explains: the graph is eliminated from its last loop up, and the
    rows left over go to the homology columns in ascending loop order.
    The width is checked before the graph is built, and the cover is
    validated between the two elimination steps.  The kernel
    basis is a Howell basis just computed, so ``_trusted_subgroup`` wraps
    it without re-checking its entries, as ``span`` does."""
    ctx = spec.ctx
    n = ctx.modulus
    t, b = len(spec.factor_orders), spec.n - 1
    _check_width(b)
    graph = [[*row, *e] for row, e in
             zip(_embedded_rows(spec, spec.images[:b]), _identity_tail(b, 0))]
    graph.reverse()
    deck, rest = _howell_columns(graph, range(t), n)
    image_order = math.prod(n // next(filter(None, row)) for row in deck)
    if _failure_codes(spec, strict, image_order):
        require_valid(spec, strict)
    rest.reverse()
    basis, _ = _howell_columns([r[t:] for r in rest], range(b), n)
    return deck, _trusted_subgroup(ctx, b, tuple(tuple(r) for r in basis))


def apply_cover_map(spec: CoverSpec, vec: Vector) -> Vector:
    """Image in the deck group of a homology class given in the loop basis."""
    b = spec.n - 1
    if len(vec) != b:
        raise ValueError(f"expected a vector of length {b}")
    return tuple(
        sum(x * row[j] for x, row in zip(vec, spec.images[:b])) % q
        for j, q in enumerate(spec.factor_orders)
    )


def cover_from_form(form: CanonicalForm, n: int) -> CoverSpec:
    """Reconstruct a cover whose kernel is the subgroup a form describes.

    Needs a trivial column permutation and a deck group of exponent
    exactly p^k (largest exponent entry equal to k); the loop images are
    the trailing columns of the inverse cofactor, one column per
    nontrivial cyclic factor.

    U is unit upper-triangular, so row i of U^-1 is the unique w with
    w U = e_i, and forward substitution over the integers gives it
    without the inverse: w_j = [i = j] - sum_{t<j} w_t U[t][j].  It runs
    row-wise, as in ``action.divisibility_criterion``: from w = e_i, each
    final nonzero w_t subtracts w_t U_t from the entries right of t, and
    w_t = 0 for t < i.

    The exponents ascend, so the factors p^(e_j), e_j > 0, ascend and end
    in p^k, and each image is reduced mod them as it is built: the cover
    is filled in by ``_trusted_cover`` over the form's ring.
    """
    if not form.colperm.is_identity:
        raise CoverValidationError(
            ["OmegaNotIdentity"], "normalize the column permutation away first"
        )
    b = form.width
    if n != b + 1:
        raise ValueError(f"form of width {b} describes covers with n = {b + 1}")
    ctx = form.ctx
    p, k = ctx.p, ctx.k
    exps = form.exponents
    if exps[-1] == 0:
        raise CoverValidationError([TRIVIAL_GROUP], "all exponents are zero: trivial deck group")
    if exps[-1] < k:
        raise CoverValidationError(
            [WRONG_EXPONENT],
            f"deck group exponent is p^{exps[-1]} < p^{k}; re-encode with k = {exps[-1]}",
        )
    start = next(i for i, e in enumerate(exps) if e > 0)
    factors = tuple(p ** e for e in exps[start:])
    upper = form.upper
    images = []
    for i in range(b):
        w = [0] * b
        w[i] = 1
        for t in range(i, b):
            wt = w[t]
            if wt:
                ut = upper[t]
                for j in range(t + 1, b):
                    w[j] -= wt * ut[j]
        images.append(tuple(x % q for x, q in zip(w[start:], factors)))
    last = tuple(
        (-sum(row[j] for row in images)) % q for j, q in enumerate(factors)
    )
    images.append(last)
    return _trusted_cover(ctx, n, factors, tuple(images))


def _trusted_cover(ctx: ModulusContext, n: int, factor_orders: tuple[int, ...],
                   images: tuple[Vector, ...]) -> CoverSpec:
    """A ``CoverSpec`` over the ring ``ctx`` from fields the caller has
    just built: n >= 2 image rows, each reduced mod the factor orders,
    which are positive powers of p, ascending and ending in p^k.  Filled in
    without ``__post_init__``'s re-checks; a direct ``CoverSpec(...)``
    still checks them."""
    spec = object.__new__(CoverSpec)
    object.__setattr__(spec, "p", ctx.p)
    object.__setattr__(spec, "k", ctx.k)
    object.__setattr__(spec, "n", n)
    object.__setattr__(spec, "factor_orders", factor_orders)
    object.__setattr__(spec, "images", images)
    object.__setattr__(spec, "ctx", ctx)
    return spec


def equivalent(s1: CoverSpec, s2: CoverSpec, strict: bool = True) -> Perm | None:
    """First point permutation carrying the second kernel onto the first,
    in lexicographic order; None when the covers are inequivalent.

    A candidate beta is tested by membership: it carries K2 onto K1
    exactly when every moved basis row of K2 lies in K1.  The moved rows
    span beta(K2), which then lies in K1; beta acts injectively, so
    beta(K2) has the order of K2, and the order check below makes that
    the order of K1, so the subset is all of K1.  Without the check a
    smaller K2 would be carried into K1 and wrongly matched.
    """
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


def induced_deck_automorphism(spec: CoverSpec, alpha: Perm,
                              strict: bool = True) -> Matrix | None:
    """The deck-group automorphism induced by a point permutation.

    When alpha preserves the kernel there is a unique automorphism of the
    deck group compatible with alpha on loop images; it is returned as one
    row per standard generator of the deck group.  Otherwise None.  The
    kernel and the preimages both come from the one graph elimination of
    ``kernel``.

    Whether alpha preserves the kernel is ``invariant_under``: membership
    of the moved kernel basis rows, with no image computed.

    The deck rows cut to the deck columns are a Howell basis of the image,
    which is the whole deck group once the cover is valid, so reducing
    (generator | 0) against their pivots clears the deck columns.  The
    preimage it leaves is not reduced against the kernel rows: it differs
    from any other preimage by a kernel element, which alpha preserves and
    the cover map kills.
    """
    deck, ker = _split_graph(spec, strict)
    if not invariant_under(ker, alpha):
        return None
    n = spec.ctx.modulus
    b = spec.n - 1
    t = len(spec.factor_orders)
    pivots = _pivots(deck)
    rows = []
    for j, q in enumerate(spec.factor_orders):
        # Reducing (generator | 0) leaves (0 | -x) for a preimage x.
        target = [0] * (t + b)
        target[j] = n // q
        sol = [-x for x in _reduce_above(target, pivots, n)[t:]]
        rows.append(apply_cover_map(spec, tuple(_moved_row(alpha.images, sol))))
    return tuple(rows)


@dataclass(frozen=True)
class GeneralCoverSpec:
    """A cover with an arbitrary finite abelian deck group.

    Factor orders may be any integers >= 2; lifting questions reduce to
    the prime-power parts produced by ``primary_parts``.
    """

    n: int
    factor_orders: tuple[int, ...]
    images: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two marked points")
        if not self.factor_orders or any(q < 2 for q in self.factor_orders):
            raise ValueError("factor orders must all be at least 2")
        _store_reduced_images(self)


def _prime_factors(q: int) -> dict[int, int]:
    """The prime factorization of q, trial division stopping at
    MAX_MODULUS.  A leftover above 1 past that point has only prime
    factors above MAX_MODULUS and is kept as one key, which the modulus
    check of ``ModulusContext`` refuses before it tests primality."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= q and d <= MAX_MODULUS:
        while q % d == 0:
            out[d] = out.get(d, 0) + 1
            q //= d
        d += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def primary_parts(g: GeneralCoverSpec) -> list[CoverSpec]:
    """Split a general abelian cover into one p-group cover per prime.

    Each part keeps the coordinates whose factor order is divisible by
    that prime, reduced mod the prime power; parts are built in lax mode
    since a nonzero image can project to zero in a single part.
    """
    primes: set[int] = set()
    factorizations = [_prime_factors(q) for q in g.factor_orders]
    for f in factorizations:
        primes.update(f)
    parts = []
    for p in sorted(primes):
        cols = [(f[p], j) for j, f in enumerate(factorizations) if p in f]
        cols.sort()
        factors = tuple(p ** e for e, _ in cols)
        k = max(e for e, _ in cols)
        images = tuple(
            tuple(row[j] % (p ** e) for e, j in cols) for row in g.images
        )
        parts.append(CoverSpec(p, k, g.n, factors, images))
    return parts


def validate_general(g: GeneralCoverSpec, strict: bool = True) -> list[str]:
    """Validation for general abelian covers via their prime-power parts."""
    codes = [] if _sums_to_zero(g) else [NOT_SUM_ZERO]
    for part in primary_parts(g):
        part_codes = validate(part, strict=False)
        for c in part_codes:
            if c not in codes:
                codes.append(c)
    if strict and any(not any(row) for row in g.images):
        codes.append(ZERO_BRANCH_IMAGE)
    return codes


def cover_to_json(spec: CoverSpec) -> dict:
    return {
        "p": spec.p,
        "k": spec.k,
        "n": spec.n,
        "factors": list(spec.factor_orders),
        "images": [list(row) for row in spec.images],
    }


def cover_from_json(data: dict) -> CoverSpec:
    """Parse a cover description; the stored last row must make the
    images sum to zero, it is never recomputed."""
    spec = CoverSpec(
        json_int(data["p"]),
        json_int(data["k"]),
        json_int(data["n"]),
        tuple(json_int(q) for q in data["factors"]),
        tuple(tuple(json_int(x) for x in row) for row in data["images"]),
    )
    if not _sums_to_zero(spec):
        raise CoverValidationError([NOT_SUM_ZERO], "stored images do not sum to zero")
    return spec
