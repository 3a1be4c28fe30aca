"""Branched-cover descriptions and the linear algebra behind them.

A regular abelian branched cover of the sphere with n marked points is
recorded by the orders of the cyclic factors of its deck group A together
with the image in A of each loop class; the images must sum to zero and
generate A.  The kernel of the induced map on mod-p^k homology is the
subgroup that controls both lifting and equivalence, so this module
converts between cover descriptions, kernels, and normal forms, decides
equivalence by brute force over point permutations, computes the deck
automorphism induced by a liftable permutation, and splits a general
finite abelian cover into its prime-power parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .modular import Matrix, ModulusContext, Perm, Vector, inv_unitriangular_int
from .subgroups import (
    CanonicalForm,
    Subgroup,
    _eliminate,
    _reduce_against,
    equal,
    order,
    span,
)
from .action import _moved_row, act

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
        if len(self.images) != self.n:
            raise ValueError(f"expected {self.n} image rows, got {len(self.images)}")
        t = len(self.factor_orders)
        reduced = []
        for row in self.images:
            if len(row) != t:
                raise ValueError("image row width differs from the factor count")
            reduced.append(tuple(x % q for x, q in zip(row, self.factor_orders)))
        object.__setattr__(self, "images", tuple(reduced))
        object.__setattr__(self, "factor_orders", tuple(self.factor_orders))


def _is_power_of(q: int, p: int) -> bool:
    while q % p == 0:
        q //= p
    return q == 1


def deck_group_order(spec: CoverSpec) -> int:
    total = 1
    for q in spec.factor_orders:
        total *= q
    return total


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
    codes = []
    for j, q in enumerate(spec.factor_orders):
        total = sum(row[j] for row in spec.images) % q
        if total:
            codes.append(NOT_SUM_ZERO)
            break
    if spec.factor_orders[-1] != spec.p ** spec.k:
        codes.append(WRONG_EXPONENT)
    ctx = spec.ctx
    t = len(spec.factor_orders)
    generated = span(ctx, t, _embedded_rows(spec, spec.images))
    if order(generated) != deck_group_order(spec):
        codes.append(NOT_SURJECTIVE)
    if strict and any(not any(row) for row in spec.images):
        codes.append(ZERO_BRANCH_IMAGE)
    return codes


def require_valid(spec: CoverSpec, strict: bool = True) -> None:
    codes = validate(spec, strict)
    if codes:
        raise CoverValidationError(codes)


def _eliminate_images(spec: CoverSpec) -> tuple[list[list[int]], list[tuple[int, int]],
                                                list[list[int]]]:
    """Eliminate the first n-1 embedded loop images, recording row operations.

    Row i is the embedded image of loop i followed by the i-th unit vector
    of length n-1.  Elimination runs over the t deck-group columns only, so
    the trailing n-1 entries of each result row record the combination of
    loops whose image is in its leading t entries.
    """
    ctx = spec.ctx
    b = spec.n - 1
    rows = [
        row + [1 if j == i else 0 for j in range(b)]
        for i, row in enumerate(_embedded_rows(spec, spec.images[:b]))
    ]
    return _eliminate(rows, range(len(spec.factor_orders)), ctx.p, ctx.k, ctx.modulus)


def kernel(spec: CoverSpec, strict: bool = True) -> Subgroup:
    """Kernel of the induced map on mod-p^k homology, as a subgroup of
    (Z/p^k)^(n-1).

    Each pivot row maps to p^e times a row that is a unit at its pivot and
    zero at earlier pivots, and each leftover row maps to zero, so the
    kernel is spanned by p^(k-e) times the pivot rows' loop combinations
    together with the leftover rows' loop combinations.
    """
    require_valid(spec, strict)
    ctx = spec.ctx
    p, k, n = ctx.p, ctx.k, ctx.modulus
    t = len(spec.factor_orders)
    placed, pivots, rest = _eliminate_images(spec)
    gens = [
        [(x * p ** (k - e)) % n for x in row[t:]]
        for row, (_, e) in zip(placed, pivots)
        if e > 0
    ]
    gens += [row[t:] for row in rest]
    return span(ctx, spec.n - 1, gens)


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
    u_inv = inv_unitriangular_int(form.upper)
    images = [
        tuple(u_inv[i][j] % factors[j - start] for j in range(start, b))
        for i in range(b)
    ]
    last = tuple(
        (-sum(row[j] for row in images)) % q for j, q in enumerate(factors)
    )
    images.append(last)
    return CoverSpec(p, k, n, factors, tuple(images))


def equivalent(s1: CoverSpec, s2: CoverSpec, strict: bool = True) -> Perm | None:
    """First point permutation carrying the second kernel onto the first,
    in lexicographic order; None when the covers are inequivalent."""
    if (s1.p, s1.k, s1.n) != (s2.p, s2.k, s2.n):
        raise ValueError("covers have different (p, k, n) parameters")
    k1 = kernel(s1, strict)
    k2 = kernel(s2, strict)
    if order(k1) != order(k2):
        return None
    b = s1.n - 1
    for images in permutations(range(1, b + 2)):
        beta = Perm(images)
        if equal(act(beta, k2), k1):
            return beta
    return None


def induced_deck_automorphism(spec: CoverSpec, alpha: Perm,
                              strict: bool = True) -> Matrix | None:
    """The deck-group automorphism induced by a point permutation.

    When alpha preserves the kernel there is a unique automorphism of the
    deck group compatible with alpha on loop images; it is returned as one
    row per standard generator of the deck group.  Otherwise None.
    """
    require_valid(spec, strict)
    ker = kernel(spec, strict)
    if not equal(act(alpha, ker), ker):
        return None
    p, n = spec.p, spec.ctx.modulus
    b = spec.n - 1
    t = len(spec.factor_orders)
    placed, pivots, _ = _eliminate_images(spec)
    rows = []
    for j, q in enumerate(spec.factor_orders):
        # Reducing (generator | 0) leaves (0 | -x) for a preimage x.
        target = [0] * (t + b)
        target[j] = n // q
        left = _reduce_against(target, placed, pivots, p, n)
        if any(left[:t]):
            raise CoverValidationError([NOT_SURJECTIVE], "generator has no preimage")
        sol = [-x for x in left[t:]]
        rows.append(apply_cover_map(spec, tuple(_moved_row(alpha, sol, n))))
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
        if len(self.images) != self.n:
            raise ValueError(f"expected {self.n} image rows, got {len(self.images)}")
        reduced = []
        for row in self.images:
            if len(row) != len(self.factor_orders):
                raise ValueError("image row width differs from the factor count")
            reduced.append(tuple(x % q for x, q in zip(row, self.factor_orders)))
        object.__setattr__(self, "images", tuple(reduced))
        object.__setattr__(self, "factor_orders", tuple(self.factor_orders))


def _prime_factors(q: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= q:
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
    codes = []
    for j, q in enumerate(g.factor_orders):
        if sum(row[j] for row in g.images) % q:
            codes.append(NOT_SUM_ZERO)
            break
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
        int(data["p"]),
        int(data["k"]),
        int(data["n"]),
        tuple(int(q) for q in data["factors"]),
        tuple(tuple(int(x) for x in row) for row in data["images"]),
    )
    for j, q in enumerate(spec.factor_orders):
        if sum(row[j] for row in spec.images) % q:
            raise CoverValidationError([NOT_SUM_ZERO], "stored images do not sum to zero")
    return spec
