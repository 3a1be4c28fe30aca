"""The symmetric-group action on homology of the punctured sphere.

With n = b + 1 marked points, the loop classes around the first b points
form a basis of the first homology with Z/p^k coefficients; the loop
around the last point is minus their sum.  Permuting the points therefore
relabels coordinates: extending a row x by x_n = 0, alpha sends x to y
with y_j = x_alpha(j) - x_alpha(n), and a subgroup is carried to the span
of its moved basis rows.

A cover lifts every homeomorphism preserving the marked points exactly
when its kernel subgroup is invariant under this whole action; since the
invariance locus is a subgroup of the permutation group, checking a
generating set suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .modular import (
    Matrix,
    ModulusContext,
    Perm,
    inv_unitriangular,
    matmul,
    reduce_mod,
    valuation,
)
from .subgroups import CanonicalForm, Subgroup, canonical_form, equal, span

__all__ = [
    "OmegaNotIdentityError",
    "LiftVerdict",
    "swap_with_last",
    "action_matrix",
    "generators",
    "act",
    "invariant_under",
    "divisibility_criterion",
    "fully_liftable",
    "omega_normalize",
]


class OmegaNotIdentityError(ValueError):
    """The divisibility criterion needs a form with identity column permutation."""


def swap_with_last(i: int, b: int) -> Perm:
    """The transposition of point i with the last point, in S_{b+1}."""
    if not (1 <= i <= b):
        raise ValueError(f"index {i} out of range 1..{b}")
    return Perm.transposition(b + 1, i, b + 1)


def _moved_row(alpha: Perm, row: Sequence[int], n: int) -> list[int]:
    """Image of a row vector under alpha, reduced mod n."""
    ext = (*row, 0)
    last = ext[alpha.images[-1] - 1]
    return [(ext[a - 1] - last) % n for a in alpha.images[:-1]]


@lru_cache(maxsize=65536)
def action_matrix(alpha: Perm) -> Matrix:
    """The b x b integer matrix by which alpha acts on row vectors.

    Entry (i, j) is [i = alpha(j)] - [i = alpha(n)], the row formula of
    the module docstring written as a matrix.  Restricted to permutations
    fixing the last point this is the permutation-matrix embedding, and
    the map is a homomorphism for function composition.
    """
    b = alpha.size - 1
    if b < 1:
        raise ValueError("need at least two marked points")
    last = alpha(b + 1)
    return tuple(
        tuple((i == alpha(j)) - (i == last) for j in range(1, b + 1))
        for i in range(1, b + 1)
    )


def generators(b: int) -> list[Perm]:
    """A generating set of size b for the permutations of b+1 points:
    the adjacent transpositions of the first b points plus the swap of
    point b with the last."""
    if b < 1:
        raise ValueError("need b >= 1")
    gens = [Perm.transposition(b + 1, i, i + 1) for i in range(1, b)]
    gens.append(swap_with_last(b, b))
    return gens


def act(alpha: Perm, sub: Subgroup) -> Subgroup:
    """Image of a subgroup under the action of alpha."""
    if alpha.size != sub.width + 1:
        raise ValueError(
            f"permutation of {alpha.size} points cannot act on rank {sub.width}"
        )
    n = sub.ctx.modulus
    return span(sub.ctx, sub.width, [_moved_row(alpha, row, n) for row in sub.basis])


def invariant_under(sub: Subgroup, alpha: Perm) -> bool:
    """Direct check that alpha carries the subgroup onto itself."""
    return equal(act(alpha, sub), sub)


@lru_cache(maxsize=65536)
def _cofactor_inverse(upper: Matrix, ctx: ModulusContext) -> Matrix:
    return inv_unitriangular(upper, ctx)


def divisibility_criterion(form: CanonicalForm, alpha: Perm) -> bool:
    """Invariance test read off the normal form, without acting.

    For a form with identity column permutation, the subgroup is invariant
    under alpha exactly when every strictly upper entry (i, j) of
    U * T * U^{-1} is divisible by p^(e_j - e_i), where U is the cofactor,
    T the action matrix and e the exponent list.
    """
    if not form.colperm.is_identity:
        raise OmegaNotIdentityError(
            "normalize the subgroup so the column permutation is trivial first"
        )
    if alpha.size != form.width + 1:
        raise ValueError("permutation size does not match the form")
    ctx = form.ctx
    t = action_matrix(alpha)
    u_inv = _cofactor_inverse(form.upper, ctx)
    conj = reduce_mod(matmul(matmul(form.upper, t), u_inv), ctx)
    exps = form.exponents
    for i in range(form.width):
        for j in range(i + 1, form.width):
            if valuation(conj[i][j], ctx) < exps[j] - exps[i]:
                return False
    return True


@dataclass(frozen=True)
class LiftVerdict:
    """Outcome of the full lifting check, with a failing generator if any."""

    liftable: bool
    witness: Perm | None

    def to_json(self) -> dict:
        return {
            "liftable": self.liftable,
            "witness": None if self.witness is None else self.witness.cycles(),
        }


def fully_liftable(sub: Subgroup) -> LiftVerdict:
    """Whether the subgroup is invariant under the whole point-permutation
    group, checked on generators only."""
    if sub.width < 1:
        raise ValueError("need ambient rank at least 1")
    for g in generators(sub.width):
        if not invariant_under(sub, g):
            return LiftVerdict(False, g)
    return LiftVerdict(True, None)


def omega_normalize(sub: Subgroup) -> tuple[Subgroup, CanonicalForm]:
    """Replace a subgroup by its twin with trivial column permutation.

    Acting by the inverse column permutation (a permutation of the first b
    points) turns the normal form's trailing permutation into the identity;
    one round always suffices.
    """
    form = canonical_form(sub)
    if form.colperm.is_identity:
        return sub, form
    beta = form.colperm.inverse().extend(sub.width + 1)
    moved = act(beta, sub)
    form2 = canonical_form(moved)
    if not form2.colperm.is_identity:
        raise AssertionError("column permutation did not normalize in one round")
    return moved, form2
