"""Exact arithmetic in Z/p^k and small dense matrices over it.

Everything in this module is a plain immutable value: matrices are tuples
of tuples of Python ints, vectors are tuples of ints, and permutations are
thin wrappers around a tuple of images.  Residues are always kept canonical
in [0, p^k), so equality of values is equality of meaning.
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


class NonUnitError(ValueError):
    """Inversion was attempted on a residue divisible by p."""


class NotUnitriangularError(ValueError):
    """A matrix expected to be unit upper-triangular is not."""


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
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"k = {self.k} must be at least 1")
        modulus = self.p ** self.k
        if modulus > MAX_MODULUS:
            raise ValueError(f"modulus p^k = {modulus} exceeds {MAX_MODULUS}")
        object.__setattr__(self, "modulus", modulus)

    def __str__(self) -> str:
        return f"Z/{self.modulus}"


def _val(a: int, p: int, k: int) -> int:
    """Valuation of a canonical residue mod p^k, with _val(0) = k."""
    if a == 0:
        return k
    t = 0
    while a % p == 0:
        a //= p
        t += 1
    return t


def valuation(a: int, ctx: ModulusContext) -> int:
    """Largest t <= k with p^t | a, on canonical residues; valuation(0) = k.

    The zero convention makes "p^t divides a" equivalent to
    "valuation(a) >= t" for every t <= k.
    """
    return _val(a % ctx.modulus, ctx.p, ctx.k)


def inv_unit(a: int, ctx: ModulusContext) -> int:
    """Multiplicative inverse of a unit residue mod p^k."""
    a %= ctx.modulus
    if a % ctx.p == 0:
        raise NonUnitError(f"{a} is not a unit mod {ctx.modulus}")
    return pow(a, -1, ctx.modulus)


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
        return self.images == tuple(range(1, self.size + 1))

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


def matadd(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("dimension mismatch in matrix sum")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def matsub(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("dimension mismatch in matrix difference")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def reduce_mod(m: Matrix, ctx: ModulusContext) -> Matrix:
    """Map every entry to its canonical residue in [0, p^k)."""
    n = ctx.modulus
    return tuple(tuple(x % n for x in row) for row in m)


def _require_unitriangular(q: Matrix) -> int:
    n = len(q)
    if any(len(row) != n for row in q):
        raise NotUnitriangularError("matrix is not square")
    for i in range(n):
        if q[i][i] != 1:
            raise NotUnitriangularError(f"diagonal entry ({i+1},{i+1}) is not 1")
        for j in range(i):
            if q[i][j] != 0:
                raise NotUnitriangularError(f"entry ({i+1},{j+1}) below diagonal is nonzero")
    return n


def inv_unitriangular_int(q: Matrix) -> Matrix:
    """Exact integer inverse of a unit upper-triangular matrix."""
    n = _require_unitriangular(q)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            inv[i][j] = -sum(q[i][t] * inv[t][j] for t in range(i + 1, j + 1))
    return tuple(tuple(row) for row in inv)


def inv_unitriangular(q: Matrix, ctx: ModulusContext) -> Matrix:
    """Inverse of a unit upper-triangular integer matrix, reduced mod p^k.

    Computed exactly over the integers by back substitution, then reduced,
    so no modular division is ever involved.
    """
    return reduce_mod(inv_unitriangular_int(q), ctx)
