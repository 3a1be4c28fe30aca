import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlift import (
    CanonicalForm,
    ModulusContext,
    Perm,
    canonical_form,
    contains,
    elements,
    enumerate_subgroups,
    equal,
    howell_reduce,
    order,
    quotient_invariants,
    rebuild,
    span,
    subgroup_from_json,
    subgroup_to_json,
)
from conftest import brute_all_subgroups, brute_span

Z4 = ModulusContext(2, 2)
Z2 = ModulusContext(2, 1)
Z3 = ModulusContext(3, 1)

# Small ambient groups where every subgroup can be enumerated both ways.
EXHAUSTIVE = [
    (ModulusContext(2, 1), 2),
    (ModulusContext(2, 1), 3),
    (ModulusContext(2, 2), 2),
    (ModulusContext(3, 1), 2),
    (ModulusContext(2, 3), 1),
]


def test_span_examples():
    triv = span(Z4, 2, [])
    assert order(triv) == 1 and triv.basis == ()
    full = span(Z4, 2, [(1, 0), (0, 1)])
    assert order(full) == 16
    c = span(Z4, 2, [(2, 1)])
    assert order(c) == 4
    assert set(elements(c)) == set(brute_span(Z4, 2, [(2, 1)]))
    assert contains(c, (0, 2)) and contains(c, (2, 3))


def test_span_idempotent():
    c = span(Z4, 2, [(2, 1)])
    again = span(Z4, 2, c.basis)
    assert again == c


def test_span_width_checks():
    with pytest.raises(ValueError):
        span(Z4, 2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        span(Z4, 17, [])


def test_howell_examples():
    assert howell_reduce(Z4, 2, [[0, 0]]) == ()
    assert howell_reduce(Z4, 2, [[1, 0], [0, 1]]) == ((1, 0), (0, 1))
    basis = howell_reduce(Z4, 2, [[2, 2], [0, 2]])
    assert brute_span(Z4, 2, basis) == brute_span(Z4, 2, [(2, 2), (0, 2)])


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    ctx=st.sampled_from([Z2, Z4, Z3, ModulusContext(2, 3), ModulusContext(5, 1),
                         ModulusContext(2, 4), ModulusContext(3, 2)]),
    width=st.integers(1, 3),
)
def test_howell_idempotent_and_span_preserving(data, ctx, width):
    nrows = data.draw(st.integers(0, 4))
    rows = [
        [data.draw(st.integers(0, ctx.modulus - 1)) for _ in range(width)]
        for _ in range(nrows)
    ]
    basis = howell_reduce(ctx, width, rows)
    assert howell_reduce(ctx, width, basis) == basis
    full = brute_span(ctx, width, rows)
    assert brute_span(ctx, width, basis) == full
    # Howell property: the elements vanishing left of a column are spanned
    # by the basis rows pivoting at or after it
    leads = [next(j for j, x in enumerate(row) if x) for row in basis]
    for c in range(1, width):
        tail = [row for row, lead in zip(basis, leads) if lead >= c]
        assert {v for v in full if not any(v[:c])} == brute_span(ctx, width, tail)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    ctx=st.sampled_from([Z4, Z3, ModulusContext(2, 3)]),
    width=st.integers(1, 3),
)
def test_reduced_basis_canonical_for_a_span(data, ctx, width):
    # augmenting a generating set with combinations of its rows and
    # reordering it must not change the reduced basis
    nrows = data.draw(st.integers(1, 3))
    rows = [
        [data.draw(st.integers(0, ctx.modulus - 1)) for _ in range(width)]
        for _ in range(nrows)
    ]
    extra = []
    for _ in range(data.draw(st.integers(0, 2))):
        coeffs = [data.draw(st.integers(0, ctx.modulus - 1)) for _ in rows]
        extra.append(
            [sum(c * r[j] for c, r in zip(coeffs, rows)) % ctx.modulus for j in range(width)]
        )
    augmented = list(reversed(extra + rows))
    assert span(ctx, width, rows) == span(ctx, width, augmented)


def test_contains_examples():
    c = span(Z4, 2, [(2, 1)])
    assert contains(c, (0, 2))
    assert not contains(c, (1, 0))
    assert contains(c, (0, 0))
    assert contains(span(Z4, 2, []), (0, 0))
    with pytest.raises(ValueError):
        contains(c, (1, 2, 3))


def test_equal_examples():
    assert equal(span(Z4, 2, [(2, 1)]), span(Z4, 2, [(2, 3)]))
    assert not equal(span(Z4, 2, [(1, 0), (0, 1)]), span(Z4, 2, []))
    c = span(Z4, 2, [(2, 1)])
    assert equal(c, c)
    with pytest.raises(ValueError):
        equal(c, span(Z2, 2, []))


@pytest.mark.parametrize("ctx,width", EXHAUSTIVE, ids=lambda v: str(v))
def test_equal_matches_mutual_containment(ctx, width):
    subs = [rebuild(f) for f in enumerate_subgroups(ctx.p, ctx.k, width)]
    for a in subs:
        for b in subs:
            mutual = all(contains(b, v) for v in a.basis) and all(
                contains(a, v) for v in b.basis
            )
            assert equal(a, b) == mutual


@pytest.mark.parametrize("ctx,width", EXHAUSTIVE, ids=lambda v: str(v))
def test_enumeration_complete_against_brute_force(ctx, width):
    ours = {frozenset(elements(rebuild(f))) for f in enumerate_subgroups(ctx.p, ctx.k, width)}
    brute = brute_all_subgroups(ctx, width)
    assert ours == brute


def test_order_examples():
    assert order(span(Z4, 2, [])) == 1
    assert order(span(Z4, 2, [(1, 0), (0, 1)])) == 16
    c = span(Z4, 2, [(2, 1)])
    assert order(c) == len(brute_span(Z4, 2, [(2, 1)])) == 4


def test_canonical_form_trivial_and_full():
    full = span(Z4, 2, [(1, 0), (0, 1)])
    f = canonical_form(full)
    assert f.rank == 2 and f.exponents == (0, 0)
    assert f.upper == ((1, 0), (0, 1)) and f.colperm.is_identity
    triv = span(Z4, 2, [])
    f = canonical_form(triv)
    assert f.rank == 0 and f.exponents == (2, 2) and f.colperm.is_identity


def test_canonical_form_documented_example():
    c = span(Z4, 2, [(2, 1)])
    f = canonical_form(c)
    assert f.rank == 1
    assert f.exponents == (0, 2)
    assert f.upper == ((1, 2), (0, 1))
    assert f.colperm == Perm.transposition(2, 1, 2)
    assert equal(rebuild(f), c)


@pytest.mark.parametrize("ctx,width", EXHAUSTIVE, ids=lambda v: str(v))
def test_canonical_form_round_trip_exhaustive(ctx, width):
    for f in enumerate_subgroups(ctx.p, ctx.k, width):
        sub = rebuild(f)
        again = canonical_form(sub)
        assert equal(rebuild(again), sub)


def test_rebuild_rejects_bad_forms():
    with pytest.raises(ValueError):
        CanonicalForm(Z4, 2, 1, (0, 2), ((1, 4), (0, 1)), Perm.identity(2))
    with pytest.raises(ValueError):
        CanonicalForm(Z4, 2, 1, (2, 0), ((1, 0), (0, 1)), Perm.identity(2))
    with pytest.raises(ValueError):
        CanonicalForm(Z4, 2, 1, (0, 2), ((1, 0), (1, 1)), Perm.identity(2))


def _quotient_order_counts(ctx, width, sub):
    """Multiset of coset orders in the quotient, computed cosets-first."""
    n = ctx.modulus
    from itertools import product as iproduct

    members = frozenset(elements(sub))
    seen = set()
    counts = {}
    for vec in iproduct(range(n), repeat=width):
        if vec in seen:
            continue
        coset = frozenset(
            tuple((a + b) % n for a, b in zip(vec, m)) for m in members
        )
        seen.update(coset)
        t = 1
        cur = vec
        while cur not in members:
            cur = tuple((a + b) % n for a, b in zip(cur, vec))
            t += 1
        counts[t] = counts.get(t, 0) + 1
    return counts


def _predicted_order_counts(invariants):
    """Coset-order multiset a product of cyclic groups would give."""
    from math import gcd, prod

    total = prod(invariants) if invariants else 1
    divisors = sorted({d for d in range(1, total + 1) if total % d == 0})
    at_most = {d: prod(gcd(d, q) for q in invariants) if invariants else 1 for d in divisors}
    counts = {}
    for d in divisors:
        exact = at_most[d] - sum(counts.get(e, 0) for e in divisors if e < d and d % e == 0)
        if exact:
            counts[d] = exact
    return counts


def test_quotient_invariants_examples():
    assert quotient_invariants(span(Z4, 2, [(1, 0), (0, 1)])) == ()
    assert quotient_invariants(span(Z4, 2, [])) == (4, 4)
    assert quotient_invariants(span(Z4, 2, [(2, 1)])) == (4,)


@pytest.mark.parametrize("ctx,width", [(Z4, 2), (Z3, 2), (Z2, 3)], ids=lambda v: str(v))
def test_quotient_invariants_against_cosets(ctx, width):
    for f in enumerate_subgroups(ctx.p, ctx.k, width):
        sub = rebuild(f)
        inv = quotient_invariants(sub)
        total = 1
        for q in inv:
            total *= q
        assert order(sub) * total == ctx.modulus**width
        assert _quotient_order_counts(ctx, width, sub) == _predicted_order_counts(inv)


@pytest.mark.parametrize("p,expected", [(2, 5), (3, 6), (5, 8)])
def test_subgroup_count_oracle(p, expected):
    # p + 3 subgroups of (Z/p)^2, counted two independent ways
    ctx = ModulusContext(p, 1)
    assert sum(1 for _ in enumerate_subgroups(p, 1, 2)) == expected == p + 3
    from itertools import product as iproduct

    vecs = list(iproduct(range(p), repeat=2))
    brute = {brute_span(ctx, 2, [v, w]) for v in vecs for w in vecs}
    assert len(brute) == expected


def test_json_round_trip():
    c = span(Z4, 2, [(2, 1)])
    data = subgroup_to_json(c)
    assert data == {"p": 2, "k": 2, "m": 2, "basis": [[2, 1], [0, 2]]}
    assert subgroup_from_json(data) == c
