"""Exact arithmetic in Z/p^k: the coefficient ring with its size guards,
valuations, permutations and the integer matrix product.

Everything in this module is a plain immutable value: matrices are tuples
of tuples of Python ints, vectors are tuples of ints, and permutations are
thin wrappers around a tuple of images.  Residues are always kept canonical
in [0, p^k), so equality of values is equality of meaning.  No matrix is
inverted: the unit upper-triangular systems w U = v are solved by forward
substitution where they arise.

The valuation ``_val`` is a division loop, so the pivot searches in
``subgroups`` do not call it on the entries they compare: for
0 < a < p^k, gcd(a, p^k) = p^_val(a), one C call.  It is still used by
``subgroups.canonical_form``, once per pivot, to read the exponent e off
the pivot entry p^e.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

# Desk-scale guards: the census never needs more, and they keep every
# intermediate quantity comfortably small.
MAX_MODULUS = 1 << 16
MAX_RANK = 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class ModulusContext:
    """The coefficient ring Z/p^k for a prime p and exponent k >= 1."""

    p: int
    k: int
    modulus: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # A p below 2 is refused before any power is computed.  The size
        # check comes before the trial division in _is_prime, and
        # p^k >= 2^k > MAX_MODULUS needs no power once k reaches its bits.
        p, k = self.p, self.k
        if k < 1:
            raise ValueError(f"k = {k} must be at least 1")
        if p < 2:
            raise ValueError(f"p = {p} is not prime")
        if k >= MAX_MODULUS.bit_length():
            raise ValueError(f"modulus p^k = {p}^{k} exceeds {MAX_MODULUS}")
        modulus = p ** k
        if modulus > MAX_MODULUS:
            raise ValueError(f"modulus p^k = {modulus} exceeds {MAX_MODULUS}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        object.__setattr__(self, "modulus", modulus)

    def __str__(self) -> str:
        return f"Z/{self.modulus}"


def _val(a: int, p: int, k: int) -> int:
    """Valuation of a canonical residue mod p^k, with _val(0) = k; see the
    module docstring for where it is used."""
    if a == 0:
        return k
    t = 0
    while a % p == 0:
        a //= p
        t += 1
    return t


def json_int(value: object) -> int:
    """``value`` itself if it is an integer read from JSON.  Anything else,
    booleans and floats included, raises TypeError rather than being
    converted, so a document never passes with a truncated number."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


class Perm:
    """A permutation of {1, ..., m}.

    Composition follows function notation: (s * t)(i) = s(t(i)).
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, m: int) -> "Perm":
        return cls(range(1, m + 1))

    @classmethod
    def transposition(cls, m: int, a: int, b: int) -> "Perm":
        if not (1 <= a <= m and 1 <= b <= m and a != b):
            raise ValueError(f"bad transposition ({a} {b}) on {m} symbols")
        images = list(range(1, m + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        m = len(self.images)
        if m < len(_IDENTITY_PERMS):
            return self.images == _IDENTITY_PERMS[m].images
        return self.images == tuple(range(1, m + 1))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.size != other.size:
            raise ValueError("size mismatch in permutation product")
        return Perm(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Perm":
        images = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Perm(images)

    def extend(self, m: int) -> "Perm":
        """Embed into S_m by fixing the new symbols."""
        if m < self.size:
            raise ValueError("cannot extend to a smaller symbol set")
        return Perm(self.images + tuple(range(self.size + 1, m + 1)))

    def cycles(self) -> str:
        """Cycle notation, fixed points omitted; identity prints as "()"."""
        seen: set[int] = set()
        parts = []
        for i in range(1, self.size + 1):
            if i in seen:
                continue
            cyc = [i]
            seen.add(i)
            j = self(i)
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) if parts else "()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


def _trusted_perm(images: tuple[int, ...]) -> Perm:
    """A ``Perm`` from a tuple of images that the caller has just built as
    a bijection of 1..m, without the constructor's sorting check; a direct
    ``Perm(...)`` still checks."""
    perm = object.__new__(Perm)
    perm.images = images
    return perm


#: The identity permutation of each size up to that of the points,
#: MAX_RANK + 1, shared by the forms that have it and read by
#: ``Perm.is_identity``.
_IDENTITY_PERMS = tuple(_trusted_perm(tuple(range(1, m + 1))) for m in range(MAX_RANK + 2))


def _check_rect(m: Sequence[Sequence[int]]) -> None:
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact integer matrix product."""
    _check_rect(a)
    _check_rect(b)
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )
