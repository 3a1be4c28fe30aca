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

Invariance, and equivalence in ``covers``, are decided by membership of
moved basis rows, without computing an image: alpha carries S into T
exactly when every moved basis row of S lies in T, which one pass
against the pivots of T's Howell basis decides.  The action is
injective and the groups are finite, so when S and T have equal order,
alpha carrying S into T carries it onto T.  ``act`` computes the image
itself and serves as the reference.

An adjacent transposition of the first b points swaps two neighbouring
columns.  When that swap is a relabelling of the Howell basis
(``subgroups._relabel_columns``), invariance reads off the relabelled
rows instead: they are the Howell basis of the image, and the Howell
basis of a span is unique, so the image is S exactly when they equal
S's basis.  Membership decides the other adjacent transpositions and the
swap of point b with the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .modular import _IDENTITY_PERMS, Matrix, Perm, Vector
from .subgroups import (CanonicalForm, Subgroup, _column_swap, _member, _pivots,
                        _relabel_columns, _trusted_form, _trusted_subgroup, canonical_form,
                        generating_rows, span)

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


def _moved_row(images: Sequence[int], row: Sequence[int]) -> list[int]:
    """Image of a row vector under the permutation with point images
    ``images``, not reduced: each caller reduces it once, mod the modulus
    or mod its factor orders."""
    ext = (*row, 0)
    last = ext[images[-1] - 1]
    return [ext[a - 1] - last for a in images[:-1]]


def _carries_into(images: Sequence[int], rows: Sequence[Sequence[int]],
                  pivots: Sequence[tuple[int, int, Sequence[int]]], n: int) -> bool:
    """Whether the permutation with point images ``images`` moves every
    row of ``rows`` into the target subgroup whose Howell basis has the
    ``_pivots`` ``pivots``, modulo n = p^k; stops at the first row that
    leaves.  A caller testing many permutations against one target
    computes ``pivots`` once.

    Each moved row is reduced mod p^k and then against the target's
    pivots, which leaves zero exactly for a member
    (``subgroups._reduce_above``).  The action is linear, so the rows land
    in the target exactly when their whole span does.
    """
    for row in rows:
        if not _member([x % n for x in _moved_row(images, row)], pivots, n):
            return False
    return True


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


_ColumnSwap = tuple[int, Callable[[Sequence[int]], Vector]]


@lru_cache(maxsize=64)
def _generator_table(b: int) -> dict[Perm, _ColumnSwap | None]:
    """The generators of ``generators(b)``, in its order, each mapped to
    the column swap it is, ``(c, _column_swap(b, c))`` for the
    transposition of points c+1 and c+2, or to None for the swap of point
    b with the last.  Built once per width."""
    table: dict[Perm, _ColumnSwap | None] = {
        Perm.transposition(b + 1, c + 1, c + 2): (c, _column_swap(b, c)) for c in range(b - 1)
    }
    table[swap_with_last(b, b)] = None
    return table


def generators(b: int) -> list[Perm]:
    """A generating set of size b for the permutations of b+1 points:
    the adjacent transpositions of the first b points plus the swap of
    point b with the last.  A new list on each call."""
    if b < 1:
        raise ValueError("need b >= 1")
    return list(_generator_table(b))


def _check_size(alpha: Perm, sub: Subgroup) -> None:
    if alpha.size != sub.width + 1:
        raise ValueError(
            f"permutation of {alpha.size} points cannot act on rank {sub.width}"
        )


def act(alpha: Perm, sub: Subgroup) -> Subgroup:
    """Image of a subgroup under the action of alpha."""
    _check_size(alpha, sub)
    return span(sub.ctx, sub.width, [_moved_row(alpha.images, row) for row in sub.basis])


def _relabelled_verdict(sub: Subgroup, swap: _ColumnSwap | None) -> bool | None:
    """Whether the column swap ``swap`` of ``_generator_table`` carries the
    subgroup onto itself, when it relabels the subgroup's Howell basis;
    None when it does not, or when ``swap`` is None.

    ``_relabel_columns`` then returns the Howell basis of the image, and
    the Howell basis of a span is unique, so the image is the subgroup
    exactly when the two bases are equal."""
    if swap is None:
        return None
    moved = _relabel_columns(sub.basis, *swap)
    return None if moved is None else moved == sub.basis


def invariant_under(sub: Subgroup, alpha: Perm) -> bool:
    """Whether alpha carries the subgroup onto itself: by relabelling
    (``_relabelled_verdict``) when alpha is an adjacent transposition of
    the first b points whose column swap relabels the basis, otherwise by
    membership of its moved basis rows.

    Proof of the membership test.  The basis rows span the subgroup S, so
    alpha(S) is the span of the moved rows, and it lies in S exactly when
    every moved row does.  The action is injective, so alpha(S) has as
    many elements as S; a subset of the finite set S of the same size is
    S itself.  Nothing computes the image alpha(S) (``act`` does, for
    comparison).
    """
    _check_size(alpha, sub)
    verdict = _relabelled_verdict(sub, _generator_table(sub.width).get(alpha))
    if verdict is not None:
        return verdict
    return _carries_into(alpha.images, sub.basis, _pivots(sub.basis), sub.ctx.modulus)


def divisibility_criterion(form: CanonicalForm, alpha: Perm) -> bool:
    """Invariance test read off the normal form, without acting.

    Take a form with identity column permutation, exponents e and cofactor
    U; the subgroup is the row span of diag(p^e) U.  Rows at or past the
    rank have e_i = k and vanish, so only generator rows i < rank move.

    Proof.  U is unit upper-triangular, so its rows are a basis of
    (Z/p^k)^b and every row x has unique coordinates w with x = w U; x
    lies in the subgroup exactly when p^(e_j) | w_j for every j.  With T
    the action matrix of alpha, the moved generator row p^(e_i) U_i T has
    coordinates p^(e_i) w, where w U = U_i T.  So it lies in the span of
    diag(p^e) U exactly when p^(e_j) | p^(e_i) w_j for every j, which is
    automatic unless e_j > e_i and reads p^(e_j - e_i) | w_j there.  Since
    w is row i of U T U^-1 and e is weakly increasing, this is the
    condition that each strictly upper entry (i, j) of U T U^-1 is
    divisible by p^(e_j - e_i).  T is invertible and the subgroup finite,
    so carrying every generator row into the subgroup carries the subgroup
    onto itself.

    U_i T is ``_moved_row(alpha.images, U_i)``, and U needs no inverse: forward
    substitution over the integers gives w_j = v_j - sum_{t<j} w_t U[t][j]
    for the moved row v.  It runs row-wise: starting from w = v, once
    w_t is final, w_t U_t is subtracted from the entries right of t, and
    only when w_t is nonzero.  Each w_t is checked as soon as it is final,
    in ascending t, so the first failing entry ends the test.
    """
    if not form.colperm.is_identity:
        raise OmegaNotIdentityError(
            "normalize the subgroup so the column permutation is trivial first"
        )
    if alpha.size != form.width + 1:
        raise ValueError("permutation size does not match the form")
    p, upper, exps, b = form.ctx.p, form.upper, form.exponents, form.width
    for i in range(form.rank):
        ei = exps[i]
        w = _moved_row(alpha.images, upper[i])
        for t in range(b):
            wt = w[t]
            if wt:
                if exps[t] > ei and wt % p ** (exps[t] - ei):
                    return False
                ut = upper[t]
                for j in range(t + 1, b):
                    w[j] -= wt * ut[j]
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
    group, checked on generators only, in the order of ``generators``,
    each as in ``invariant_under``; the pivot list for membership is
    computed at most once."""
    if sub.width < 1:
        raise ValueError("need ambient rank at least 1")
    pivots = None
    for g, swap in _generator_table(sub.width).items():
        verdict = _relabelled_verdict(sub, swap)
        if verdict is None:
            if pivots is None:
                pivots = _pivots(sub.basis)
            verdict = _carries_into(g.images, sub.basis, pivots, sub.ctx.modulus)
        if not verdict:
            return LiftVerdict(False, g)
    return LiftVerdict(True, None)


def _omega_twin(form: CanonicalForm) -> CanonicalForm:
    """The form (e, U, id) of the same exponents and cofactor as ``form``,
    with the column permutation dropped; see ``omega_normalize``."""
    return _trusted_form(form.ctx, form.width, form.rank, form.exponents,
                         form.upper, _IDENTITY_PERMS[form.width])


def omega_normalize(sub: Subgroup) -> tuple[Subgroup, CanonicalForm]:
    """The twin of a subgroup with trivial column permutation, and its form.

    Let (e, U, w) be the normal form of the subgroup.  The twin is its
    image under beta, the inverse of w acting on the first b points.  By
    ``generating_rows`` the subgroup is spanned by the rows x with
    x_j = p^(e_i) U[i][w(j)].  Since beta fixes the last point and
    x_n = 0, beta moves x to y with y_j = x_(w^-1(j)) = p^(e_i) U[i][j],
    so the twin is spanned by the rows of the form (e, U, id).

    Those rows are the twin's Howell basis, and its normal form is
    (e, U, id), as the proof of ``canonical_form``'s read-off shows; so
    both are read off the form at once.

    The subgroup's form is ``canonical_form``'s, which the subgroup keeps,
    so after ``canonical_form(sub)`` no elimination runs here.  The twin
    is a new instance and gets no stored form: ``canonical_form`` of it
    reads (e, U, id) off its rows when asked.
    """
    form = canonical_form(sub)
    if form.colperm.is_identity:
        return sub, form
    twin = _omega_twin(form)
    return _trusted_subgroup(sub.ctx, sub.width, generating_rows(twin)), twin
