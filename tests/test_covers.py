import random
from collections import Counter
from itertools import product

import pytest

from branchlift import (
    CanonicalForm,
    CoverSpec,
    CoverValidationError,
    GeneralCoverSpec,
    ModulusContext,
    Perm,
    act,
    apply_cover_map,
    canonical_form,
    cover_from_form,
    cover_from_json,
    cover_to_json,
    deck_group_order,
    elements,
    equal,
    equivalent,
    fully_liftable,
    howell_reduce,
    induced_deck_automorphism,
    invariant_under,
    kernel,
    order,
    predict_liftable,
    primary_parts,
    rebuild,
    span,
    swap_with_last,
    validate,
    validate_general,
)
from branchlift import covers
from branchlift.action import generators
from branchlift.orbits import _identity_bases
from branchlift.subgroups import _pivots
from conftest import (
    ENUMERATED_GROUPS,
    all_perms,
    graph_kernel_reference,
    inv_unitriangular_int,
    split_graph_reference,
)

Z4 = ModulusContext(2, 2)
Z3 = ModulusContext(3, 1)


def case1_spec(p, k, n):
    pk = p**k
    images = [tuple(1 if j == i else 0 for j in range(n - 1)) for i in range(n - 1)]
    images.append(tuple(pk - 1 for _ in range(n - 1)))
    return CoverSpec(p, k, n, (pk,) * (n - 1), tuple(images))


ALL_ONES_3 = CoverSpec(3, 1, 3, (3,), ((1,), (1,), (1,)))
MIXED_224 = CoverSpec(2, 2, 4, (2, 4), ((1, 1), (0, 1), (0, 1), (1, 1)))


def test_constructor_checks():
    with pytest.raises(ValueError):
        CoverSpec(2, 1, 3, (3,), ((1,), (1,), (1,)))  # 3 is not a power of 2
    with pytest.raises(ValueError):
        CoverSpec(2, 2, 3, (4, 2), ((1, 1), (1, 1), (2, 2)))  # not ascending
    with pytest.raises(ValueError):
        CoverSpec(2, 1, 1, (2,), ((1,),))  # n too small
    with pytest.raises(ValueError):
        CoverSpec(2, 1, 3, (2,), ((1,), (1,)))  # wrong row count
    spec = CoverSpec(2, 2, 3, (4,), ((5,), (-1,), (0,)))
    assert spec.images == ((1,), (3,), (0,))  # entries reduced mod factors


def test_ctx_is_stored_once_and_not_compared():
    spec = CoverSpec(2, 2, 4, (2, 4), ((1, 1), (0, 1), (0, 1), (1, 1)))
    assert spec.ctx is spec.ctx
    assert spec.ctx == ModulusContext(2, 2)
    assert spec == MIXED_224 and hash(spec) == hash(MIXED_224)
    assert "ctx" not in repr(spec)
    with pytest.raises(ValueError, match="not prime"):
        CoverSpec(4, 1, 3, (4,), ((1,), (1,), (2,)))


def test_validate_examples():
    assert validate(case1_spec(2, 1, 3)) == []
    broken = CoverSpec(2, 1, 3, (2, 2), ((1, 0), (0, 1), (0, 0)))
    assert "NotSumZero" in validate(broken)
    not_onto = CoverSpec(2, 2, 4, (4,), ((2,), (2,), (2,), (2,)))
    assert "NotSurjective" in validate(not_onto)
    wrong_exp = CoverSpec(2, 2, 3, (2,), ((1,), (1,), (0,)))
    assert "WrongExponent" in validate(wrong_exp)


def test_validate_strict_vs_lax():
    spec = CoverSpec(2, 1, 3, (2,), ((1,), (1,), (0,)))
    assert validate(spec, strict=True) == ["ZeroBranchImage"]
    assert validate(spec, strict=False) == []


def test_kernel_case1_trivial():
    for p, k, n in [(2, 1, 3), (3, 1, 3), (2, 2, 4)]:
        ker = kernel(case1_spec(p, k, n))
        assert order(ker) == 1


def test_kernel_all_ones():
    ker = kernel(ALL_ONES_3)
    assert equal(ker, span(Z3, 2, [(1, 2)]))


#: Covers with a non-unit deck pivot, three factors or k = 3.
KERNEL_SPECS = [
    pytest.param(MIXED_224, id="mixed_224"),
    pytest.param(ALL_ONES_3, id="all_ones_3"),
    pytest.param(CoverSpec(3, 2, 4, (3, 9), ((1, 1), (0, 3), (1, 2), (1, 3))), id="p3_mixed"),
    pytest.param(CoverSpec(5, 1, 4, (5, 5), ((1, 0), (0, 1), (2, 3), (2, 1))), id="p5_rank2"),
    # second pivot of the first two images is 10 = 5 * unit in Z/25
    pytest.param(CoverSpec(5, 2, 3, (5, 25), ((1, 1), (2, 5), (2, 19))), id="p5_nonunit_pivot"),
    pytest.param(
        CoverSpec(2, 2, 5, (2, 2, 4), ((1, 0, 1), (0, 1, 1), (1, 1, 2), (0, 0, 3), (0, 0, 1))),
        id="p2_three_factors",
    ),
    pytest.param(
        CoverSpec(3, 2, 4, (3, 3, 9), ((1, 0, 1), (0, 1, 2), (1, 1, 4), (1, 1, 2))),
        id="p3_three_factors",
    ),
    pytest.param(
        CoverSpec(2, 3, 4, (2, 4, 8), ((1, 0, 1), (0, 1, 2), (1, 1, 4), (0, 2, 1))),
        id="k3_three_orders",
    ),
]


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_kernel_against_enumeration(spec):
    assert validate(spec) == []
    pk, b = spec.p**spec.k, spec.n - 1
    zero = (0,) * len(spec.factor_orders)
    brute = {v for v in product(range(pk), repeat=b) if apply_cover_map(spec, v) == zero}
    ker = kernel(spec)
    assert set(elements(ker)) == brute
    assert order(ker) * deck_group_order(spec) == pk**b
    # The basis comes out Howell-reduced: reducing it again changes nothing.
    assert howell_reduce(ker.ctx, ker.width, ker.basis) == ker.basis


def _oracle_spec(rng):
    """A random cover with p in {2, 3, 5}, k <= 3 and 2 <= n <= 8, often
    broken on purpose: a wrong top factor, images that sum to nonzero,
    images scaled by p (so rarely onto), or a zero image."""
    p, k, n = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(2, 8)
    exps = sorted(rng.randint(1, k) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.8:
        exps[-1] = k
    factors = tuple(p**e for e in exps)
    scale = p if rng.random() < 0.15 else 1
    rows = [[scale * rng.randrange(q) for q in factors] for _ in range(n - 1)]
    if rng.random() < 0.15:
        rows[rng.randrange(n - 1)] = [0] * len(factors)
    if rng.random() < 0.15:
        rows.append([rng.randrange(q) for q in factors])
    else:
        rows.append([-sum(r[j] for r in rows) for j in range(len(factors))])
    return CoverSpec(p, k, n, factors, tuple(map(tuple, rows)))


def test_kernel_against_full_graph_reduction():
    # kernel validates off its split elimination and must raise exactly
    # validate's codes; on a valid cover it must give the basis that one
    # full reduction of the graph gives.
    rng = random.Random(19)
    seen = Counter()
    for _ in range(2000):
        spec = _oracle_spec(rng)
        for strict in (True, False):
            codes = validate(spec, strict)
            if codes:
                with pytest.raises(CoverValidationError) as err:
                    kernel(spec, strict)
                assert err.value.codes == codes, (spec, strict)
            else:
                assert kernel(spec, strict).basis == graph_kernel_reference(spec), spec
            seen.update(codes or ["valid"])
    assert set(seen) == {
        "valid", "NotSumZero", "WrongExponent", "NotSurjective", "ZeroBranchImage",
    }
    assert min(seen.values()) >= 100, seen


def test_kernel_refuses_the_width_before_any_elimination(monkeypatch):
    # A valid cover with 18 points has a kernel in (Z/2)^17, past MAX_RANK.
    spec = CoverSpec(2, 1, 18, (2,), ((1,),) * 18)
    assert validate(spec) == []

    def no_elimination(*args):
        raise AssertionError("_howell_columns called before the width check")

    monkeypatch.setattr("branchlift.covers._howell_columns", no_elimination)
    with pytest.raises(ValueError, match="ambient rank 17 out of range"):
        kernel(spec)


def _query_spec(rng):
    """A random cover drawn as the ``queries`` benchmark draws one: p in
    {2, 3, 5}, k <= 3, 3 <= n <= 9, one to three factors with top factor
    p^k, images summing to zero; kept even when invalid."""
    p, k, n = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(3, 9)
    exps = sorted(rng.randint(1, k) for _ in range(rng.randint(0, 2))) + [k]
    factors = tuple(p**e for e in exps)
    rows = [tuple(rng.randrange(q) for q in factors) for _ in range(n - 1)]
    rows.append(tuple(-sum(r[j] for r in rows) % q for j, q in enumerate(factors)))
    return CoverSpec(p, k, n, factors, tuple(rows))


def _leading_unit_spec(rng):
    """A random cover in which loop 1 is the only loop with a unit in any
    deck column: every other image entry is a multiple of p.  The deck
    pivots then sit on loop 1, whichever end the elimination starts from,
    so the leftover rows carry entries in the first homology column."""
    p, k, n = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(3, 9)
    exps = sorted(rng.randint(1, k) for _ in range(rng.randint(0, 2))) + [k]
    factors = tuple(p**e for e in exps)
    first = tuple(rng.choice([x for x in range(1, q) if x % p]) for q in factors)
    rows = [first] + [tuple(p * rng.randrange(q) for q in factors) for _ in range(n - 2)]
    rows.append(tuple(-sum(r[j] for r in rows) % q for j, q in enumerate(factors)))
    return CoverSpec(p, k, n, factors, tuple(rows))


#: The lifting-check pin of the CI workflow whose deck pivot cannot trail:
#: only loop 1 has a unit in the Z9 column.
LEADING_UNIT_PIN = CoverSpec(
    3, 2, 7, (3, 9), ((1, 1), (0, 3), (1, 3), (0, 6), (2, 3), (1, 6), (1, 5)))


def _kernel_outcome(spec, strict):
    """What ``covers._split_graph`` decides for one cover: the failure
    codes raised, or the kernel basis, the deck rows whole and cut to the
    deck columns, and the automorphism each generator induces."""
    try:
        deck, ker = covers._split_graph(spec, strict)
    except CoverValidationError as err:
        return {"codes": err.codes}
    t = len(spec.factor_orders)
    psi = [induced_deck_automorphism(spec, g, strict) for g in generators(spec.n - 1)]
    return {"kernel": ker.basis, "rows": deck, "deck": [row[:t] for row in deck], "psi": psi}


def test_kernel_bottom_up_against_top_down_reference(monkeypatch):
    # The graph is eliminated from its last loop up; the Howell basis is
    # unique, so the kernel, the deck rows cut to the deck columns, the
    # failure codes and every induced automorphism match the top-down
    # elimination of the reference.  Only the deck rows' preimage parts
    # may differ.
    rng = random.Random(41)
    specs = [LEADING_UNIT_PIN]
    specs += [_query_spec(rng) for _ in range(400)]
    specs += [_leading_unit_spec(rng) for _ in range(150)]
    cases = [(spec, strict) for spec in specs for strict in (True, False)]
    got = [_kernel_outcome(*case) for case in cases]
    monkeypatch.setattr(covers, "_split_graph", split_graph_reference)
    want = [_kernel_outcome(*case) for case in cases]
    assert "codes" not in got[0]
    seen = Counter()
    for case, g, w in zip(cases, got, want):
        rows, ref_rows = g.pop("rows", None), w.pop("rows", None)
        assert g == w, case
        if "codes" in g:
            seen.update(g["codes"])
            continue
        seen["valid"] += 1
        seen["preimages differ"] += rows != ref_rows
        seen["automorphisms"] += sum(psi is not None for psi in g["psi"])
    assert seen["valid"] >= 500 and seen["preimages differ"] >= 300, seen
    assert seen["automorphisms"] >= 300, seen
    assert {"NotSurjective", "ZeroBranchImage"} <= set(seen), seen


def test_first_isomorphism_for_predictions():
    for p, k, n in [(2, 1, 3), (2, 1, 4), (3, 1, 3), (2, 2, 4), (2, 2, 6), (3, 2, 3)]:
        for pr in predict_liftable(p, k, n):
            assert validate(pr.cover) == []
            ker = kernel(pr.cover)
            assert order(ker) * deck_group_order(pr.cover) == p ** (k * (n - 1))


def test_cover_from_form_case1():
    form = canonical_form(span(ModulusContext(2, 1), 2, []))
    spec = cover_from_form(form, 3)
    assert spec.factor_orders == (2, 2)
    assert spec.images == ((1, 0), (0, 1), (1, 1))


def test_cover_from_form_all_ones():
    form = CanonicalForm(Z3, 2, 1, (0, 1), ((1, 2), (0, 1)), Perm.identity(2))
    spec = cover_from_form(form, 3)
    assert spec.factor_orders == (3,)
    assert spec.images == ((1,), (1,), (1,))
    assert equal(kernel(spec), rebuild(form))


def test_cover_from_form_mixed():
    form = CanonicalForm(
        Z4, 3, 2, (1, 1, 2), ((1, 0, 1), (0, 1, 1), (0, 0, 1)), Perm.identity(3)
    )
    spec = cover_from_form(form, 4)
    assert spec.factor_orders == (2, 2, 4)
    assert spec.images == ((1, 0, 3), (0, 1, 3), (0, 0, 1), (1, 1, 1))
    assert equal(kernel(spec), rebuild(form))
    # same class as the predicted two-exponent cover
    predicted = [pr for pr in predict_liftable(2, 2, 4) if pr.family == 2]
    assert len(predicted) == 1
    assert equivalent(spec, predicted[0].cover) is not None


def test_cover_from_form_errors():
    full = canonical_form(span(Z3, 2, [(1, 0), (0, 1)]))
    with pytest.raises(CoverValidationError) as exc:
        cover_from_form(full, 3)
    assert "TrivialGroup" in exc.value.codes
    low = CanonicalForm(Z4, 2, 2, (1, 1), ((1, 0), (0, 1)), Perm.identity(2))
    with pytest.raises(CoverValidationError) as exc:
        cover_from_form(low, 3)
    assert "WrongExponent" in exc.value.codes
    c = span(Z4, 2, [(2, 1)])
    with pytest.raises(CoverValidationError):
        cover_from_form(canonical_form(c), 3)  # column permutation not trivial
    with pytest.raises(ValueError):
        cover_from_form(canonical_form(span(Z4, 2, [])), 5)  # n mismatch


@pytest.mark.parametrize("p,k,b", ENUMERATED_GROUPS)
def test_cover_from_form_against_inverse(p, k, b):
    # loop i goes to row i of U^-1 from the first nonzero exponent on,
    # and the last loop to minus the sum of the others, with U^-1 from
    # the explicit reference inverse; the seeds of rank below b are every
    # form with top exponent k.  cover_from_form skips CoverSpec's checks,
    # so the checked constructor on the same fields is the reference for
    # the rest: value, hash, ring, and a kernel still eliminated afresh.
    ctx = ModulusContext(p, k)
    count = 0
    for basis in _identity_bases(ctx, b, max_rank=b - 1):
        form = canonical_form(span(ctx, b, basis))
        assert form.colperm.is_identity and form.exponents[-1] == k
        start = next(i for i, e in enumerate(form.exponents) if e > 0)
        factors = tuple(p ** e for e in form.exponents[start:])
        u_inv = inv_unitriangular_int(form.upper)
        images = [tuple(x % q for x, q in zip(row[start:], factors)) for row in u_inv]
        images.append(tuple(-sum(col) % q for col, q in zip(zip(*images), factors)))
        spec = cover_from_form(form, b + 1)
        assert (spec.factor_orders, spec.images) == (factors, tuple(images)), form
        checked = CoverSpec(p, k, b + 1, factors, tuple(images))
        assert spec == checked and hash(spec) == hash(checked), form
        assert spec.ctx == checked.ctx and spec.ctx is form.ctx
        assert all(type(row) is tuple for row in spec.images)
        assert kernel(spec, strict=False).basis == basis
        count += 1
    assert count


@pytest.mark.parametrize("p,k,b", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 2, 3)])
def test_kernel_round_trip_over_forms(p, k, b):
    ctx = ModulusContext(p, k)
    for basis in _identity_bases(ctx, b, max_rank=b - 1):
        sub = span(ctx, b, basis)
        spec = cover_from_form(canonical_form(sub), b + 1)
        assert equal(kernel(spec, strict=False), sub)


def test_equivalent_basics():
    assert equivalent(ALL_ONES_3, ALL_ONES_3) == Perm.identity(3)
    case3 = CoverSpec(3, 1, 3, (3,), ((1,), (1,), (1,)))
    assert equivalent(case1_spec(3, 1, 3), case3) is None  # kernel orders differ
    # the trivial kernel is carried into the larger one by every
    # permutation; only the order check rejects it
    assert equivalent(case3, case1_spec(3, 1, 3)) is None
    with pytest.raises(ValueError):
        equivalent(case1_spec(2, 1, 3), case1_spec(2, 1, 4))


def test_equivalent_row_relabeling():
    # permuting the marked points yields an equivalent cover
    for beta in all_perms(4):
        relabeled = CoverSpec(
            2,
            2,
            4,
            MIXED_224.factor_orders,
            tuple(MIXED_224.images[beta(i) - 1] for i in range(1, 5)),
        )
        assert equivalent(MIXED_224, relabeled) is not None


def test_equivalence_relation_properties():
    specs = [
        case1_spec(2, 2, 4),
        MIXED_224,
        CoverSpec(2, 2, 4, (4,), ((1,), (1,), (1,), (1,))),
        CoverSpec(2, 2, 4, (2, 4), ((1, 1), (1, 1), (0, 1), (0, 1))),
        CoverSpec(2, 2, 4, (2, 2, 4), ((1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 1))),
    ]
    for s in specs:
        assert equivalent(s, s) is not None
    for a in specs:
        for b in specs:
            assert (equivalent(a, b) is None) == (equivalent(b, a) is None)
    for a in specs:
        for b in specs:
            for c in specs:
                if equivalent(a, b) is not None and equivalent(b, c) is not None:
                    assert equivalent(a, c) is not None


def test_liftability_is_equivalence_invariant():
    base = [
        MIXED_224,
        CoverSpec(2, 2, 4, (4,), ((1,), (1,), (1,), (1,))),
        CoverSpec(2, 2, 4, (2, 4), ((1, 1), (1, 1), (0, 1), (0, 1))),
    ]
    for spec in base:
        verdict = fully_liftable(kernel(spec)).liftable
        for beta in all_perms(4)[::5]:
            relabeled = CoverSpec(
                2,
                2,
                4,
                spec.factor_orders,
                tuple(spec.images[beta(i) - 1] for i in range(1, 5)),
            )
            if validate(relabeled) == []:
                assert equivalent(spec, relabeled) is not None
                assert fully_liftable(kernel(relabeled)).liftable == verdict


def _random_cover(rng, shape=None):
    """A valid cover with random loop images, of the given shape
    (p, k, n, factors) or of a random one with n <= 5.  Some shapes have
    no valid cover (Z/2 with an odd number of nonzero images), so a random
    shape is redrawn after 20 failed draws of images."""
    while True:
        if shape is None:
            p, k, n = rng.choice((2, 3, 5)), rng.randint(1, 2), rng.randint(3, 5)
            exps = sorted(rng.randint(1, k) for _ in range(rng.randint(0, 2))) + [k]
            factors = tuple(p**e for e in exps)
        else:
            p, k, n, factors = shape
        for _ in range(20):
            rows = [tuple(rng.randrange(q) for q in factors) for _ in range(n - 1)]
            rows.append(tuple(-sum(r[j] for r in rows) % q for j, q in enumerate(factors)))
            spec = CoverSpec(p, k, n, factors, tuple(rows))
            if not validate(spec):
                return spec


def _equivalent_by_act(s1, s2):
    """Reference search: the first permutation in lexicographic order whose
    computed image of the second kernel equals the first kernel."""
    k1, k2 = kernel(s1), kernel(s2)
    for beta in all_perms(s1.n):
        if equal(act(beta, k2), k1):
            return beta
    return None


def test_equivalent_against_act_search():
    # relabelled copies, and independent covers with the same deck group,
    # hence kernels of equal order, which are mostly inequivalent
    rng = random.Random(13)
    found = missed = 0
    for _ in range(40):
        spec = _random_cover(rng)
        shape = (spec.p, spec.k, spec.n, spec.factor_orders)
        points = list(range(spec.n))
        rng.shuffle(points)
        relabelled = CoverSpec(*shape, tuple(spec.images[i] for i in points))
        other = _random_cover(rng, shape)
        for s1, s2 in ((spec, relabelled), (relabelled, spec), (spec, other)):
            beta = equivalent(s1, s2)
            assert beta == _equivalent_by_act(s1, s2), (s1, s2)
            found += beta is not None
            missed += beta is None
    assert found and missed


def test_target_pivots_computed_once(monkeypatch):
    # the relabelled pair is not matched by the identity, so the search
    # tries several candidates; the target's pivots are taken once for
    # the whole search, and once for all generators in fully_liftable
    calls = []

    def counting_pivots(basis):
        calls.append(basis)
        return _pivots(basis)

    monkeypatch.setattr("branchlift.action._pivots", counting_pivots)
    monkeypatch.setattr("branchlift.covers._pivots", counting_pivots)
    spec = CoverSpec(2, 1, 4, (2, 2), ((1, 0), (1, 0), (0, 1), (0, 1)))
    relabelled = CoverSpec(2, 1, 4, (2, 2), ((0, 1), (1, 0), (1, 0), (0, 1)))
    beta = equivalent(spec, relabelled)
    assert beta is not None and not beta.is_identity
    assert calls == [kernel(spec).basis]
    calls.clear()
    assert fully_liftable(kernel(ALL_ONES_3)).liftable
    assert calls == [kernel(ALL_ONES_3).basis]


def test_induced_automorphism_against_act():
    rng = random.Random(29)
    verdicts = set()
    for _ in range(25):
        spec = _random_cover(rng)
        ker = kernel(spec)
        for alpha in all_perms(spec.n):
            psi = induced_deck_automorphism(spec, alpha)
            invariant = equal(act(alpha, ker), ker)
            assert (psi is not None) == invariant, (spec, alpha)
            verdicts.add(invariant)
    assert verdicts == {True, False}


def test_induced_automorphism_identity_cases():
    psi = induced_deck_automorphism(ALL_ONES_3, Perm.identity(3))
    assert psi == ((1,),)
    psi = induced_deck_automorphism(ALL_ONES_3, Perm.transposition(3, 1, 2))
    assert psi == ((1,),)
    # every point permutation fixes the all-ones images, so the induced
    # deck automorphism solved from the defining equations is the identity
    psi = induced_deck_automorphism(ALL_ONES_3, swap_with_last(2, 2))
    assert psi == ((1,),)


def test_induced_automorphism_negation_two_points():
    spec = CoverSpec(3, 1, 2, (3,), ((1,), (2,)))
    psi = induced_deck_automorphism(spec, swap_with_last(1, 1))
    assert psi == ((2,),)  # the map a -> -a on Z/3


def _assert_induced(spec, alpha, psi):
    """psi sends the image of each loop class x to the image of alpha(x),
    and the images of the generators span the deck group."""
    from branchlift.action import action_matrix

    b = spec.n - 1
    n_mod = spec.p**spec.k
    tmat = action_matrix(alpha)
    for i in range(b):
        basis_vec = tuple(1 if j == i else 0 for j in range(b))
        moved = tuple(
            sum(basis_vec[r] * tmat[r][c] for r in range(b)) % n_mod
            for c in range(b)
        )
        lhs_input = apply_cover_map(spec, basis_vec)
        lhs = tuple(
            sum(lhs_input[t] * psi[t][j] for t in range(len(psi))) % q
            for j, q in enumerate(spec.factor_orders)
        )
        rhs = apply_cover_map(spec, moved)
        assert lhs == rhs
    # bijective: the images of the generators span the deck group
    ctx = spec.ctx
    t = len(spec.factor_orders)
    scales = [ctx.modulus // q for q in spec.factor_orders]
    emb = [[(x * s) % ctx.modulus for x, s in zip(row, scales)] for row in psi]
    assert order(span(ctx, t, emb)) == deck_group_order(spec)


def test_induced_automorphism_defining_property():
    three_factors = CoverSpec(
        2, 2, 4, (2, 2, 4), ((1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 1))
    )
    specs = [ALL_ONES_3, MIXED_224, case1_spec(2, 2, 4), three_factors]
    for spec in specs:
        ker = kernel(spec)
        for alpha in all_perms(spec.n):
            psi = induced_deck_automorphism(spec, alpha)
            if not invariant_under(ker, alpha):
                assert psi is None
                continue
            assert psi is not None
            _assert_induced(spec, alpha, psi)


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_induced_automorphism_on_fixed_kernels(spec):
    # The preimages are left unreduced against the kernel rows, which a
    # non-unit deck pivot, three factors or k = 3 exercise; the verdict
    # must still agree with act and the automorphism be the induced one.
    ker = kernel(spec)
    for alpha in all_perms(spec.n):
        psi = induced_deck_automorphism(spec, alpha)
        invariant = equal(act(alpha, ker), ker)
        assert (psi is not None) == invariant, alpha
        if invariant:
            _assert_induced(spec, alpha, psi)


def test_induced_automorphism_bijective_iff_invariant():
    specs = [ALL_ONES_3, MIXED_224]
    for spec in specs:
        ker = kernel(spec)
        for alpha in all_perms(spec.n):
            assert (induced_deck_automorphism(spec, alpha) is not None) == (
                invariant_under(ker, alpha)
            )


def test_primary_parts_z6():
    g = GeneralCoverSpec(6, (6,), ((1,),) * 6)
    parts = primary_parts(g)
    assert [(s.p, s.k, s.factor_orders) for s in parts] == [(2, 1, (2,)), (3, 1, (3,))]
    assert all(part.images == ((1,),) * 6 for part in parts)
    assert validate_general(g) == []


def test_primary_parts_p_group_identity():
    g = GeneralCoverSpec(3, (3,), ((1,), (1,), (1,)))
    parts = primary_parts(g)
    assert len(parts) == 1
    assert parts[0] == ALL_ONES_3


def test_primary_parts_kernel_orders_multiply():
    g = GeneralCoverSpec(3, (2, 9), ((1, 1), (1, 3), (0, 5)))
    assert validate_general(g) == []
    parts = primary_parts(g)
    combined = 1
    for part in parts:
        combined *= order(kernel(part, strict=False))
    exponent = 18
    brute = 0
    for v in product(range(exponent), repeat=2):
        img = tuple(
            sum(x * row[j] for x, row in zip(v, g.images[:2])) % q
            for j, q in enumerate(g.factor_orders)
        )
        brute += img == (0, 0)
    assert combined == brute


def _general_kernel_invariant(g):
    """Brute-force oracle over the full coefficient ring: the kernel of a
    general cover and its invariance under every point permutation,
    computed with no prime-power machinery.  The adjacent transpositions
    generate S_n and a set closed under each of them is closed under the
    group, so they decide invariance."""
    from branchlift.action import action_matrix
    from math import lcm

    exponent = lcm(*g.factor_orders)
    b = g.n - 1
    ker = frozenset(
        v
        for v in product(range(exponent), repeat=b)
        if all(
            sum(x * row[j] for x, row in zip(v, g.images[:b])) % q == 0
            for j, q in enumerate(g.factor_orders)
        )
    )
    for i in range(1, g.n):
        t = action_matrix(Perm.transposition(g.n, i, i + 1))
        moved = frozenset(
            tuple(sum(x * t[i][j] for i, x in enumerate(v)) % exponent for j in range(b))
            for v in ker
        )
        if moved != ker:
            return False
    return True


@pytest.mark.parametrize(
    "g",
    [
        GeneralCoverSpec(6, (6,), ((1,),) * 6),
        GeneralCoverSpec(3, (6,), ((1,), (1,), (4,))),
        GeneralCoverSpec(4, (6,), ((1,), (1,), (5,), (5,))),
        GeneralCoverSpec(3, (2, 9), ((1, 1), (1, 3), (0, 5))),
    ],
)
def test_general_cover_liftable_iff_every_part_is(g):
    assert validate_general(g, strict=False) == []
    parts = primary_parts(g)
    parts_liftable = all(
        fully_liftable(kernel(part, strict=False)).liftable for part in parts
    )
    assert parts_liftable == _general_kernel_invariant(g)


def test_validate_general_failures():
    bad_sum = GeneralCoverSpec(3, (6,), ((1,), (1,), (1,)))
    assert "NotSumZero" in validate_general(bad_sum)
    not_onto = GeneralCoverSpec(3, (6,), ((2,), (2,), (2,)))
    assert "NotSurjective" in validate_general(not_onto)
    zero_row = GeneralCoverSpec(3, (6,), ((1,), (5,), (0,)))
    assert "ZeroBranchImage" in validate_general(zero_row)
    assert validate_general(zero_row, strict=False) == []


def test_cover_json_round_trip():
    data = cover_to_json(MIXED_224)
    assert data == {
        "p": 2,
        "k": 2,
        "n": 4,
        "factors": [2, 4],
        "images": [[1, 1], [0, 1], [0, 1], [1, 1]],
    }
    assert cover_from_json(data) == MIXED_224


def test_cover_json_verifies_sum():
    data = cover_to_json(MIXED_224)
    data["images"][3] = [1, 2]  # corrupt the stored last row
    with pytest.raises(CoverValidationError):
        cover_from_json(data)
