import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlift import ModulusContext, Perm, matmul
from branchlift import modular
from conftest import (
    NonUnitError,
    elementary_matrix,
    identity_matrix,
    inv_unit,
    inv_unitriangular,
    matadd,
    matsub,
    reduce_mod,
    valuation,
)

SMALL_CONTEXTS = [
    ModulusContext(p, k)
    for p in (2, 3, 5, 7, 11, 13)
    for k in range(1, 7)
    if p**k <= 81
] + [ModulusContext(p, 1) for p in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)]


def test_context_validation():
    with pytest.raises(ValueError):
        ModulusContext(4, 1)
    with pytest.raises(ValueError):
        ModulusContext(2, 0)
    with pytest.raises(ValueError):
        ModulusContext(2, 17)  # 2^17 > 2^16
    assert ModulusContext(2, 16).modulus == 65536


def test_oversized_modulus_refused_before_primality(monkeypatch):
    # trial division of a huge p would run for minutes; the size check
    # must come first, and a huge k must not be raised to a power
    is_prime = modular._is_prime

    def bounded_is_prime(p):
        assert p <= modular.MAX_MODULUS, f"_is_prime called with p = {p}"
        return is_prime(p)

    monkeypatch.setattr(modular, "_is_prime", bounded_is_prime)
    for p, k, shown in [(1_000_000_000_000_000_003, 1, "1000000000000000003"),
                        (65537, 1, "65537"), (3, 3_000_000_000, "3^3000000000")]:
        with pytest.raises(ValueError, match=re.escape(f"modulus p^k = {shown} exceeds 65536")):
            ModulusContext(p, k)
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        ModulusContext(4, 1)
    with pytest.raises(ValueError, match="k = 0 must be at least 1"):
        ModulusContext(2, 0)


@pytest.mark.parametrize("p", [1, 0, -1, -2, -3])
def test_p_below_two_refused_before_any_power(p):
    # (-3)^100000 has 47,713 digits, past Python's limit for printing it
    with pytest.raises(ValueError, match=re.escape(f"p = {p} is not prime")):
        ModulusContext(p, 100000)


def test_valuation_examples():
    assert valuation(2, ModulusContext(2, 2)) == 1
    assert valuation(0, ModulusContext(2, 2)) == 2
    assert valuation(1, ModulusContext(3, 2)) == 0


@pytest.mark.parametrize("ctx", SMALL_CONTEXTS, ids=str)
def test_valuation_multiplicative(ctx):
    n, k = ctx.modulus, ctx.k
    for a in range(n):
        for b in range(n):
            assert valuation(a * b % n, ctx) == min(
                k, valuation(a, ctx) + valuation(b, ctx)
            )


def test_inv_unit_examples():
    assert inv_unit(3, ModulusContext(2, 2)) == 3
    assert inv_unit(1, ModulusContext(5, 2)) == 1
    with pytest.raises(NonUnitError):
        inv_unit(2, ModulusContext(2, 2))


@pytest.mark.parametrize("ctx", SMALL_CONTEXTS, ids=str)
def test_inv_unit_exhaustive(ctx):
    n = ctx.modulus
    for a in range(1, n):
        if a % ctx.p:
            assert a * inv_unit(a, ctx) % n == 1


def test_perm_basics():
    s = Perm.transposition(3, 1, 2)
    assert s(1) == 2 and s(2) == 1 and s(3) == 3
    assert s.cycles() == "(1 2)"
    assert Perm.identity(4).cycles() == "()"
    assert (s * s).is_identity
    c = Perm([2, 3, 1])
    assert c.cycles() == "(1 2 3)"
    assert (c * c.inverse()).is_identity
    assert c.extend(5)(5) == 5
    with pytest.raises(ValueError):
        Perm([1, 1, 2])


@pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 40])
def test_perm_is_identity_at_every_size(m):
    # Each size is asked twice, so the second answer comes from the
    # identity images kept for that size.
    for _ in range(2):
        assert Perm.identity(m).is_identity
        assert Perm(range(1, m + 1)).is_identity
        for a in range(1, m):
            assert not Perm.transposition(m, a, a + 1).is_identity
        if m > 2:
            assert not Perm([*range(2, m + 1), 1]).is_identity


def test_elementary_matrix():
    assert elementary_matrix(1, 1, 2) == ((1, 0), (0, 0))
    assert elementary_matrix(1, 2, 2) == ((0, 1), (0, 0))
    assert matsub(elementary_matrix(1, 2, 2), elementary_matrix(1, 1, 2)) == (
        (-1, 1),
        (0, 0),
    )
    with pytest.raises(ValueError):
        elementary_matrix(0, 1, 2)
    with pytest.raises(ValueError):
        elementary_matrix(1, 3, 2)


def test_matrix_helpers():
    m = ((1, 2), (3, 4))
    assert matmul(identity_matrix(2), m) == m
    assert reduce_mod(((-1, -1),), ModulusContext(2, 2)) == ((3, 3),)
    assert matmul(((1, 2), (0, 1)), ((1, -2), (0, 1))) == identity_matrix(2)
    assert matadd(m, m) == ((2, 4), (6, 8))
    with pytest.raises(ValueError):
        matmul(m, ((1, 2, 3),))


def test_inv_unitriangular_examples():
    ctx = ModulusContext(2, 2)
    assert inv_unitriangular(identity_matrix(3), ctx) == identity_matrix(3)
    assert inv_unitriangular(((1, 2), (0, 1)), ctx) == ((1, 2), (0, 1))
    q = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
    assert inv_unitriangular(q, ctx) == ((1, 0, 3), (0, 1, 3), (0, 0, 1))


def test_inv_unitriangular_rejects():
    ctx = ModulusContext(2, 2)
    with pytest.raises(ValueError):
        inv_unitriangular(((2, 0), (0, 1)), ctx)
    with pytest.raises(ValueError):
        inv_unitriangular(((1, 0), (1, 1)), ctx)


@st.composite
def unitriangular(draw):
    n = draw(st.integers(1, 4))
    rows = [
        [1 if i == j else (draw(st.integers(-9, 9)) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]
    return tuple(tuple(r) for r in rows)


@settings(max_examples=80, deadline=None)
@given(
    q=unitriangular(),
    ctx=st.sampled_from([ModulusContext(2, 2), ModulusContext(2, 3), ModulusContext(3, 2), ModulusContext(5, 1)]),
)
def test_inv_unitriangular_roundtrip(q, ctx):
    inv = inv_unitriangular(q, ctx)
    n = len(q)
    assert reduce_mod(matmul(q, inv), ctx) == identity_matrix(n)
    assert reduce_mod(matmul(inv, q), ctx) == identity_matrix(n)


@pytest.mark.parametrize("p,kmax", [(2, 6), (3, 4), (5, 3)])
def test_gcd_with_the_modulus_is_p_to_the_valuation(p, kmax):
    # The pivot searches compare gcd(a, p^k) in place of p^_val(a);
    # at a = 0 both sides are p^k.
    for k in range(1, kmax + 1):
        n = p ** k
        for a in range(n):
            assert gcd(a, n) == p ** modular._val(a, p, k)
