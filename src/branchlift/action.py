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

Invariance is decided by membership of moved basis rows, without
computing an image: alpha carries S into T exactly when every moved
basis row of S lies in T, which one pass against the pivots of T's
Howell basis decides.  The action is injective and the groups are
finite, so when S and T have equal order, alpha carrying S into T
carries it onto T.  ``act`` computes the image itself and serves as the
reference.  Equivalence in ``covers`` moves no row: the second kernel is
the kernel of the second cover's map, so alpha carries it onto the first
exactly when each basis row of the first, paired with the second
cover's images permuted by alpha, sums to zero (``covers.equivalent``
proves it).

A transposition tau needs one membership test, not one per row.  It acts
as a rank-one update, tau x = x + d(x) delta, with a linear form d and a
fixed direction delta (points a, c <= b, indices from 1):

* tau = (a c): d(x) = x_c - x_a and delta = e_a - e_c;
* tau = (a n): d(x) = -x_a and delta = 1 + e_a, with 1 the all-ones row.

Both follow from the coordinate formula.  d(S) is a subgroup of Z/p^k,
so it is the ideal (p^m), where m is the least valuation of d over any
generating rows of S (m = k when d vanishes on all of them).  Then tau
carries S onto itself exactly when p^m delta lies in S:

* if p^m delta is in S, then tau v - v = d(v) delta lies in
  p^m delta Z, inside S, for every v in S;
* if tau S = S, every r in (p^m) is d(v) for some v in S, and
  r delta = tau v - v lies in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import gcd
from typing import Sequence

from .modular import _IDENTITY_PERMS, Matrix, Perm
from .subgroups import (CanonicalForm, Subgroup, _member, _pivots, _trusted_form,
                        _trusted_subgroup, canonical_form, generating_rows, span)

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

    ``invariant_under`` calls it, with the subgroup as its own target,
    for every permutation other than a transposition.  Equivalence does
    not: ``covers.equivalent`` tests its candidates by image sums, with
    no moved row and no target pivots.
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


@lru_cache(maxsize=64)
def _transpositions(b: int) -> dict[tuple[int, ...], tuple[Perm, int, int]]:
    """Every transposition of the b+1 points, keyed by its images, mapped
    to ``(perm, a, c)``: the ``Perm`` and its two points a < c, counted
    from 0, so c = b is the last point.  The b generators of
    ``generators(b)`` come first, in its order.  Built once per width."""
    table = {}
    for a, c in sorted(combinations(range(b + 1), 2), key=lambda ac: ac[1] - ac[0]):
        perm = Perm.transposition(b + 1, a + 1, c + 1)
        table[perm.images] = (perm, a, c)
    return table


def generators(b: int) -> list[Perm]:
    """A generating set of size b for the permutations of b+1 points:
    the adjacent transpositions of the first b points plus the swap of
    point b with the last.  A new list on each call."""
    if b < 1:
        raise ValueError("need b >= 1")
    return [perm for perm, _, _ in islice(_transpositions(b).values(), b)]


def _check_size(alpha: Perm, sub: Subgroup) -> None:
    if alpha.size != sub.width + 1:
        raise ValueError(
            f"permutation of {alpha.size} points cannot act on rank {sub.width}"
        )


def act(alpha: Perm, sub: Subgroup) -> Subgroup:
    """Image of a subgroup under the action of alpha."""
    _check_size(alpha, sub)
    return span(sub.ctx, sub.width, [_moved_row(alpha.images, row) for row in sub.basis])


def _direction(b: int, a: int, c: int, s: int, n: int) -> list[int]:
    """s delta mod n for the transposition of points a < c, counted from 0
    (c = b is the last point): s(e_a - e_c), or s(1 + e_a) when c = b."""
    if c < b:
        vec = [0] * b
        vec[c] = -s % n
    else:
        vec = [s % n] * b
    vec[a] = (vec[a] + s) % n
    return vec


def _least_step(basis: Sequence[Sequence[int]], b: int, a: int, c: int,
                n: int) -> list[int] | None:
    """p^m delta mod n = p^k, for the transposition of points a < c
    (``_direction``) and the span S of ``basis``, of width b, as in the
    module docstring; None when it is zero, that is when d vanishes on S.
    gcd(p^k, d(row) over the rows) is p^m, since d(S) is the ideal the
    d(row) generate; the scan stops at a unit."""
    g = n
    for row in basis:
        d = row[c] - row[a] if c < b else row[a]
        if d:
            g = gcd(g, d)
            if g == 1:
                break
    return None if g == n else _direction(b, a, c, g, n)


def invariant_under(sub: Subgroup, alpha: Perm) -> bool:
    """Whether alpha carries the subgroup onto itself: for a
    transposition, by membership of the one vector p^m delta
    (``_least_step``, proved in the module docstring), otherwise by
    membership of its moved basis rows.

    Proof of the membership test.  The basis rows span the subgroup S, so
    alpha(S) is the span of the moved rows, and it lies in S exactly when
    every moved row does.  The action is injective, so alpha(S) has as
    many elements as S; a subset of the finite set S of the same size is
    S itself.  Nothing computes the image alpha(S) (``act`` does, for
    comparison).
    """
    _check_size(alpha, sub)
    basis, n = sub.basis, sub.ctx.modulus
    hit = _transpositions(sub.width).get(alpha.images)
    if hit is None:
        return _carries_into(alpha.images, basis, _pivots(basis), n)
    vec = _least_step(basis, sub.width, hit[1], hit[2], n)
    return vec is None or _member(vec, _pivots(basis), n)


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

    A transposition tau substitutes the one vector delta of the module
    docstring instead and asks whether p^m delta lies in the subgroup,
    where m is the least e_i + v_p(d(U_i)) over the generator rows,
    capped at k.  The scan for m stops at the first e_i >= m, as e is
    weakly increasing, and counts v_p only up to m - e_i.  Row i of U
    vanishes left of column i, so d(U_i) = 0 for i > c.  When m reaches
    the last exponent every p^(e_j) divides p^m, so p^m delta lies in
    the subgroup at once.  The substitution starts at column a for
    tau = (a c), where e_a - e_c has its first nonzero entry, and at
    column 0 for (a n), where 1 + e_a has.
    """
    if not form.colperm.is_identity:
        raise OmegaNotIdentityError(
            "normalize the subgroup so the column permutation is trivial first"
        )
    if alpha.size != form.width + 1:
        raise ValueError("permutation size does not match the form")
    p, upper, exps, b = form.ctx.p, form.upper, form.exponents, form.width
    hit = _transpositions(b).get(alpha.images)
    if hit is None:
        return all(_scaled_in_span(form, exps[i], _moved_row(alpha.images, upper[i]), 0)
                   for i in range(form.rank))
    _, a, c = hit
    m = form.ctx.k
    for i in range(min(form.rank, c + 1)):
        e = exps[i]
        if e >= m:
            break
        d = upper[i][c] - upper[i][a] if c < b else upper[i][a]
        if d:
            while e < m and not d % p:
                d //= p
                e += 1
            m = e
    return m >= exps[-1] or _scaled_in_span(
        form, m, _direction(b, a, c, 1, form.ctx.modulus), a if c < b else 0)


def _scaled_in_span(form: CanonicalForm, s: int, v: list[int], start: int) -> bool:
    """Whether p^s v lies in the span of diag(p^e) U, for the exponents e
    and cofactor U of ``form`` and an integer row v that vanishes left of
    column ``start``; consumes v.  Solves w U = v by forward substitution,
    as in ``divisibility_criterion``, and checks p^(e_j - s) | w_j where
    e_j > s."""
    p, upper, exps, b = form.ctx.p, form.upper, form.exponents, form.width
    for t in range(start, b):
        wt = v[t]
        if wt:
            if exps[t] > s and wt % p ** (exps[t] - s):
                return False
            ut = upper[t]
            for j in range(t + 1, b):
                v[j] -= wt * ut[j]
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
    basis, n = sub.basis, sub.ctx.modulus
    pivots = None
    for g, a, c in islice(_transpositions(sub.width).values(), sub.width):
        vec = _least_step(basis, sub.width, a, c, n)
        if vec is not None:
            if pivots is None:
                pivots = _pivots(basis)
            if not _member(vec, pivots, n):
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
