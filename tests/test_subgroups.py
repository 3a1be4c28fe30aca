import copy
import dataclasses
import hashlib
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlift import (
    MAX_RANK,
    CanonicalForm,
    ModulusContext,
    Perm,
    canonical_form,
    classify,
    contains,
    elements,
    enumerate_subgroups,
    equal,
    howell_reduce,
    omega_normalize,
    order,
    quotient_invariants,
    rebuild,
    span,
    Subgroup,
    subgroup_from_json,
    subgroup_to_json,
)
from branchlift import subgroups
from branchlift.orbits import _identity_bases
from branchlift.subgroups import _column_swap, _relabel_columns, _swap_columns, generating_rows
from conftest import (
    ENUMERATED_GROUPS,
    brute_all_subgroups,
    brute_span,
    canonical_form_reference,
)

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


def test_trusted_span_keeps_its_guards():
    # span skips the per-entry check of a direct construction, but not the
    # width check; a direct construction still checks every entry.
    with pytest.raises(ValueError):
        Subgroup(ModulusContext(2, 2), 2, ((0, 4),))
    with pytest.raises(ValueError):
        Subgroup(Z4, 0, ())
    with pytest.raises(ValueError):
        span(Z4, 0, [])
    with pytest.raises(ValueError):
        span(Z4, MAX_RANK + 1, [])
    # the orbit walks seed from unreduced form rows, so they check the
    # width themselves, before the first subgroup
    with pytest.raises(ValueError):
        next(enumerate_subgroups(2, 1, MAX_RANK + 1))
    with pytest.raises(ValueError):
        classify(2, 1, MAX_RANK + 2)
    for ctx, width in ((Z4, 1), (Z4, 3), (Z3, 2)):
        for form in enumerate_subgroups(ctx.p, ctx.k, width):
            sub = rebuild(form)
            direct = Subgroup(ctx, width, sub.basis)
            assert sub == direct and hash(sub) == hash(direct)


@pytest.mark.parametrize("width,rows", [
    (1, ((2,), (2,))),
    (2, ((1, 3), (0, 2))),
    (2, ((2, 2), (0, 2), (2, 0))),
    (3, ((0, 0, 0), (1, 2, 3))),
])
def test_constructor_stores_the_howell_basis(width, rows):
    # ``order``, ``equal`` and ``elements`` read the stored basis as a
    # Howell basis, so a hand-built instance must hold one: (2), (2) spans
    # the 2 elements {0, 2} of Z/4, and (1, 3), (0, 2) the same subgroup
    # as its own span.
    sub = Subgroup(Z4, width, rows)
    assert sub.basis == howell_reduce(Z4, width, rows)
    assert equal(sub, span(Z4, width, rows))
    assert order(sub) == len(brute_span(Z4, width, rows))
    assert set(elements(sub)) == brute_span(Z4, width, rows)


def test_hand_built_subgroups_count_their_own_elements():
    assert order(Subgroup(Z4, 1, ((2,), (2,)))) == 2
    assert equal(Subgroup(Z4, 2, ((1, 3), (0, 2))), span(Z4, 2, [(1, 3), (0, 2)]))


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
    # Entries outside [0, n): act hands howell_reduce unreduced moved rows.
    nrows = data.draw(st.integers(0, 4))
    rows = [
        [data.draw(st.integers(-2 * ctx.modulus, 2 * ctx.modulus - 1)) for _ in range(width)]
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


def _random_rows(rng, ctx, width):
    """Sparse rows, some multiplied through by a power of p, so that the
    bases have zero columns and pivots of every valuation."""
    p, k, n = ctx.p, ctx.k, ctx.modulus
    rows = []
    for _ in range(rng.randint(0, width + 2)):
        row = [rng.randrange(n) if rng.random() < 0.5 else 0 for _ in range(width)]
        if rng.random() < 0.5:
            scale = p ** rng.randint(1, k)
            row = [x * scale % n for x in row]
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_swap_columns_matches_full_reduction(seed):
    # The swap against a full Howell reduction of the swapped rows, and
    # the relabelling, which declines exactly when the row pivoting at c
    # is nonzero at c+1, against the same reduction.
    rng = random.Random(seed)
    for _ in range(400):
        ctx = ModulusContext(rng.choice([2, 3, 5]), rng.randint(1, 4))
        width = rng.randint(2, 7)
        basis = howell_reduce(ctx, width, _random_rows(rng, ctx, width))
        for c in range(width - 1):
            swapped = [[*r[:c], r[c + 1], r[c], *r[c + 2:]] for r in basis]
            want = howell_reduce(ctx, width, swapped)
            assert _swap_columns(ctx, basis, c) == want
            declines = any(r[c + 1] for r in basis if r[c] and not any(r[:c]))
            assert _relabel_columns(basis, c, _column_swap(width, c)) == (
                None if declines else want)


# Spanning rows over Z/p^2 in (Z/p^2)^4, swapped at columns 1 and 2, for
# each case of the swap: the pivot columns among 1 and 2 of the Howell
# basis and whether the result is the plain relabelling, which it is
# unless the pivot row at column 1 is nonzero at column 2.  Each case has a row
# pivoting at column 0 with entries at columns 1 and 2, so the rows above
# the swapped pair are moved too.
SWAP_CASES = {
    "no pivot at c": (lambda p: [[1, 1, 2, 3], [0, 0, 0, p]], (), True),
    "pivot at c+1 only": (lambda p: [[1, 1, 2, 3], [0, 0, p, 1]], (2,), True),
    "pivot at c zero at c+1": (lambda p: [[1, 2, 1, 3], [0, p, 0, 1]], (1,), True),
    "both pivots, zero at c+1": (
        lambda p: [[1, 0, 1, 1], [0, 1, 0, 2], [0, 0, p, 1]], (1, 2), True),
    "pivot at c nonzero at c+1": (lambda p: [[1, 2, 3, 1], [0, 1, p, 1]], (1,), False),
}


@pytest.mark.parametrize("case", SWAP_CASES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_swap_columns_cases(monkeypatch, p, case):
    rows, pivot_cols, relabels = SWAP_CASES[case]
    ctx = ModulusContext(p, 2)
    c = 1
    basis = howell_reduce(ctx, 4, rows(p))
    leads = [next(j for j, x in enumerate(r) if x) for r in basis]
    assert tuple(j for j in leads if j in (c, c + 1)) == pivot_cols
    assert any(r[c] or r[c + 1] for r, j in zip(basis, leads) if j < c)
    if c in leads:
        assert (basis[leads.index(c)][c + 1] == 0) == relabels
    swapped = [(*r[:c], r[c + 1], r[c], *r[c + 2:]) for r in basis]
    result = _swap_columns(ctx, basis, c)
    assert result == howell_reduce(ctx, 4, swapped)
    # The relabelling: swapped rows, the two pivot rows at c and c+1
    # exchanged when there are both.
    if pivot_cols == (c, c + 1):
        i = leads.index(c)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert (result == tuple(swapped)) == relabels
    assert _relabel_columns(basis, c, _column_swap(4, c)) == (result if relabels else None)

    # The swap is the elimination alone: it tries no relabelling first.
    def no_relabel(*args):
        raise AssertionError("_swap_columns tried the relabelling")

    monkeypatch.setattr(subgroups, "_relabel_columns", no_relabel)
    assert _swap_columns(ctx, basis, c) == result


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


@pytest.mark.parametrize("p,k,width", [(2, 2, 4), (2, 3, 3), (3, 2, 3), (5, 1, 4), (2, 4, 3)])
def test_identity_form_rows_are_howell_bases(p, k, width):
    # the orbit walks seed from these rows without reducing them, and each
    # is the Howell basis of exactly one form with identity colperm
    ctx = ModulusContext(p, k)
    seen = set()
    for basis in _identity_bases(ctx, width, max_rank=width):
        assert howell_reduce(ctx, width, basis) == basis
        form = canonical_form(span(ctx, width, basis))
        assert form.colperm.is_identity
        assert generating_rows(form) == basis
        assert basis not in seen
        seen.add(basis)


@pytest.mark.parametrize("ctx,width", [(Z4, 2), (Z2, 3), (Z3, 2), (ModulusContext(2, 3), 2)],
                         ids=lambda v: str(v))
def test_contains_and_order_against_brute_span(ctx, width):
    vectors = list(product(range(ctx.modulus), repeat=width))
    undivided = 0
    for f in enumerate_subgroups(ctx.p, ctx.k, width):
        sub = rebuild(f)
        members = brute_span(ctx, width, sub.basis)
        assert order(sub) == len(members)
        for v in vectors:
            assert contains(sub, v) == (v in members)
            # non-members stopped by the first pivot entry, which does not
            # divide the vector's entry there
            if sub.basis:
                col = next(j for j, x in enumerate(sub.basis[0]) if x)
                if not any(v[:col]) and v[col] % sub.basis[0][col]:
                    assert v not in members
                    undivided += 1
    # over Z/p every pivot entry is 1
    assert undivided or ctx.k == 1


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


#: SHA-256 of ``_canonical_forms_digest``; a change to the pivot order or
#: its column tie-break moves it.
CANONICAL_FORMS_SHA256 = "b267f99175a9c9acf03807495523c2a654e909fead2b0100ea1ce67f691b1f57"


def _canonical_forms_digest():
    """Digest of ``canonical_form`` over every subgroup of the enumerated
    groups, each group's forms in sorted order so that the order the
    enumeration yields them in does not move it, and 2000 seeded random
    spans, with the number of forms."""
    digest = hashlib.sha256()
    count = 0

    def key(sub):
        f = canonical_form(sub)
        return f.rank, f.exponents, f.upper, f.colperm.images

    def add(form_key):
        nonlocal count
        digest.update(repr(form_key).encode())
        count += 1

    for p, k, b in ENUMERATED_GROUPS:
        for form_key in sorted(key(rebuild(f)) for f in enumerate_subgroups(p, k, b)):
            add(form_key)
    rng = random.Random(2021)
    for _ in range(2000):
        ctx = ModulusContext(rng.choice((2, 3, 5)), rng.randint(1, 3))
        width = rng.randint(1, 6)
        rows = [[rng.randrange(ctx.modulus) if rng.random() < 0.6 else 0
                 for _ in range(width)] for _ in range(rng.randint(0, width + 1))]
        add(key(span(ctx, width, rows)))
    return count, digest.hexdigest()


def test_canonical_forms_pinned():
    # the round trip accepts any form that rebuilds to the subgroup; this
    # pins the forms themselves: the pivot order and its column tie-break
    assert _canonical_forms_digest() == (2269, CANONICAL_FORMS_SHA256)


def _form_fields(form):
    return form.rank, form.exponents, form.upper, form.colperm.images


@pytest.mark.parametrize("p,k,b", ENUMERATED_GROUPS)
def test_canonical_form_matches_the_row_major_reference(p, k, b):
    # The column-first, gcd-compared pivot search against a row-major
    # valuation scan, on every subgroup.
    for f in enumerate_subgroups(p, k, b):
        sub = rebuild(f)
        assert _form_fields(canonical_form(sub)) == canonical_form_reference(sub)


def test_canonical_form_matches_the_row_major_reference_on_random_spans():
    rng = random.Random(22)
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        k = rng.randint(1, 4)
        ctx = ModulusContext(p, k)
        n = ctx.modulus
        width = rng.randint(1, 8)
        # Sparse rows with entries of every valuation, so that ties in
        # valuation across rows and columns are common.
        rows = [
            [rng.choice((0, 0, rng.randrange(n), p ** rng.randrange(k) * rng.randrange(n)))
             for _ in range(width)]
            for _ in range(rng.randint(0, width + 2))
        ]
        sub = span(ctx, width, rows)
        assert _form_fields(canonical_form(sub)) == canonical_form_reference(sub)


@pytest.mark.parametrize("width,rows", [
    # Row 0 holds 3 at the pivot column of row 1, not below the pivot 2,
    # so reading the form off would give the cofactor entry 3, out of its
    # bound [0, 2).
    (2, ((1, 3), (0, 2))),
    # More rows than columns, and a zero row.
    (1, ((2,), (2,))),
    (2, ((1, 0), (0, 0))),
])
def test_canonical_form_of_a_hand_built_basis_that_is_not_howell_eliminates(width, rows):
    # These rows look like identity shape but are not the Howell basis of
    # their span; the constructor reduces them, so the form is that of
    # the span.
    assert _form_fields(canonical_form(Subgroup(Z4, width, rows))) == (
        _form_fields(canonical_form(span(Z4, width, rows))))


def test_canonical_form_of_hand_built_identity_looking_bases():
    # Rows with a nonzero diagonal and zeros left of it, their entries drawn
    # so that identity shape fails now and then before the reduction: a
    # diagonal entry that is not a power of p, exponents that decrease, an
    # entry not divisible by its row's pivot, one not below a later pivot.
    # ``_identity_shape`` tests only what a Howell basis leaves open, so
    # this passes because the constructor stores the Howell basis.
    rng = random.Random(23)
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        k = rng.randint(1, 3)
        ctx = ModulusContext(p, k)
        n = ctx.modulus
        width = rng.randint(1, 5)
        rows = []
        for i in range(rng.randint(0, width)):
            pe = p ** rng.randrange(k) * rng.choice((1, 1, 1, rng.randrange(1, n)))
            pe %= n
            tail = [rng.choice((0, pe * rng.randrange(n) % n, rng.randrange(n)))
                    for _ in range(width - i - 1)]
            rows.append((0,) * i + (pe or 1, *tail))
        sub = Subgroup(ctx, width, tuple(rows))
        assert _form_fields(canonical_form(sub)) == (
            _form_fields(canonical_form(span(ctx, width, rows))))


@pytest.mark.parametrize("p,k,b", ENUMERATED_GROUPS)
def test_rebuild_is_the_howell_reduction_of_the_generating_rows(p, k, b):
    # ``rebuild`` skips the reduction under the identity column
    # permutation; the seeds are the bases it then returns.  Under any
    # other it eliminates without span's checks, so span of the same rows
    # is the reference, field by field, and neither holds a stored form.
    ctx = ModulusContext(p, k)
    moved = 0
    for form in enumerate_subgroups(p, k, b):
        sub = rebuild(form)
        want = span(ctx, b, generating_rows(form))
        assert sub.basis == howell_reduce(ctx, b, generating_rows(form))
        assert sub == want and hash(sub) == hash(want), form
        assert (sub.ctx, sub.width) == (want.ctx, want.width)
        assert all(type(row) is tuple for row in sub.basis)
        assert subgroups._FORM_KEY not in sub.__dict__
        moved += not form.colperm.is_identity
    assert moved
    for seed in _identity_bases(ctx, b, max_rank=b):
        assert howell_reduce(ctx, b, seed) == seed
        form = canonical_form(Subgroup(ctx, b, seed))
        assert form.colperm.is_identity
        assert rebuild(form).basis == howell_reduce(ctx, b, generating_rows(form)) == seed


def test_rebuild_rejects_bad_forms():
    with pytest.raises(ValueError):
        CanonicalForm(Z4, 2, 1, (0, 2), ((1, 4), (0, 1)), Perm.identity(2))
    with pytest.raises(ValueError):
        CanonicalForm(Z4, 2, 1, (2, 0), ((1, 0), (0, 1)), Perm.identity(2))
    with pytest.raises(ValueError):
        CanonicalForm(Z4, 2, 1, (0, 2), ((1, 0), (1, 1)), Perm.identity(2))


@pytest.mark.parametrize("p,k,b", [(2, 2, 3), (3, 1, 3), (2, 3, 2)])
def test_trusted_forms_pass_the_checked_constructor(p, k, b):
    # canonical_form, omega_normalize and enumerate_subgroups skip
    # __post_init__ and Perm's bijection check; every form they build
    # must still satisfy both
    ctx = ModulusContext(p, k)
    seeds = _identity_bases(ctx, b, max_rank=b)
    forms = [*enumerate_subgroups(p, k, b),
             *(canonical_form(span(ctx, b, basis)) for basis in seeds)]
    twins = [omega_normalize(rebuild(form))[1] for form in forms if not form.colperm.is_identity]
    assert twins
    forms += twins
    for form in forms:
        fields = {f.name: getattr(form, f.name) for f in dataclasses.fields(form)}
        assert CanonicalForm(**fields) == form
        assert Perm(form.colperm.images) == form.colperm


@pytest.fixture
def eliminations(monkeypatch):
    """Counts of the calls ``canonical_form`` makes to its two steps: the
    identity-shape test and, on an eliminated basis, the pivot search."""
    counts = {"shape": 0, "pivot": 0}
    shape, least = subgroups._identity_shape, subgroups._least_entry

    def counted_shape(basis):
        counts["shape"] += 1
        return shape(basis)

    def counted_least(pool, cols, n):
        counts["pivot"] += 1
        return least(pool, cols, n)

    monkeypatch.setattr(subgroups, "_identity_shape", counted_shape)
    monkeypatch.setattr(subgroups, "_least_entry", counted_least)
    return counts


#: Bases of (Z/4)^2 whose form is read off (identity shape) or eliminated.
MEMO_BASES = [
    pytest.param([(1, 1), (0, 2)], True, id="identity_shape"),
    pytest.param([(2, 1)], False, id="eliminated"),
]


@pytest.mark.parametrize("rows,shaped", MEMO_BASES)
def test_canonical_form_is_computed_once_per_instance(eliminations, rows, shaped):
    sub = span(Z4, 2, rows)
    form = canonical_form(sub)
    assert eliminations == {"shape": 1, "pivot": 0 if shaped else 1}
    assert form.colperm.is_identity == shaped
    again = dict(eliminations)
    assert canonical_form(sub) is form
    assert quotient_invariants(sub) == tuple(2**e for e in form.exponents if e > 0)
    twin, nf = omega_normalize(sub)
    assert eliminations == again
    if shaped:
        assert twin is sub and nf is form
    else:
        assert (nf.exponents, nf.upper) == (form.exponents, form.upper)
        assert nf.colperm.is_identity


@pytest.mark.parametrize("rows,shaped", MEMO_BASES)
def test_fresh_subgroups_carry_no_form(eliminations, rows, shaped):
    # Only canonical_form's computation stores a form, so the rebuild
    # round trip computes the form again instead of reading it back.
    sub = span(Z4, 2, rows)
    form = canonical_form(sub)
    twin, nf = omega_normalize(sub)
    fresh = [
        Subgroup(Z4, 2, sub.basis),
        span(Z4, 2, rows),
        subgroups._trusted_subgroup(Z4, 2, sub.basis),
        rebuild(form),
        rebuild(nf),
    ]
    if not shaped:
        fresh.append(twin)
    for other in fresh:
        assert subgroups._FORM_KEY not in vars(other)
        before = eliminations["shape"]
        assert canonical_form(other) == canonical_form(span(Z4, 2, other.basis))
        assert eliminations["shape"] == before + 2


@pytest.mark.parametrize("rows,shaped", MEMO_BASES)
def test_stored_form_is_invisible(rows, shaped):
    bare, kept = span(Z4, 2, rows), span(Z4, 2, rows)
    form = canonical_form(kept)
    assert vars(kept)[subgroups._FORM_KEY] is form
    assert subgroups._FORM_KEY not in vars(bare)
    assert kept == bare and hash(kept) == hash(bare)
    assert repr(kept) == repr(bare) and str(kept) == str(bare)
    assert dataclasses.asdict(kept) == dataclasses.asdict(bare)
    for copied in (pickle.loads(pickle.dumps(kept)), copy.copy(kept), copy.deepcopy(kept)):
        assert copied == bare and hash(copied) == hash(bare)
        assert repr(copied) == repr(bare)
        assert canonical_form(copied) == form


@pytest.mark.parametrize("p,k,b", ENUMERATED_GROUPS)
def test_stored_form_matches_a_fresh_computation(p, k, b):
    ctx = ModulusContext(p, k)
    for form in enumerate_subgroups(p, k, b):
        sub = rebuild(form)
        got = canonical_form(sub)
        assert vars(sub)[subgroups._FORM_KEY] is got
        assert got == form == canonical_form(subgroups._trusted_subgroup(ctx, b, sub.basis))
        twin, nf = omega_normalize(sub)
        assert canonical_form(twin) == nf and nf.colperm.is_identity


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
