import dataclasses
import random

import pytest

from branchlift import (
    ModulusContext,
    OmegaNotIdentityError,
    Perm,
    act,
    action_matrix,
    canonical_form,
    divisibility_criterion,
    enumerate_subgroups,
    equal,
    fully_liftable,
    generators,
    invariant_under,
    matmul,
    omega_normalize,
    rebuild,
    span,
    swap_with_last,
)
from branchlift import action
from branchlift.action import _carries_into
from branchlift.orbits import _identity_bases
from conftest import (
    ENUMERATED_GROUPS,
    all_perms,
    elementary_matrix,
    fully_liftable_reference,
    identity_matrix,
    inv_unitriangular,
    matadd,
    matsub,
    reduce_mod,
    valuation,
)

Z4 = ModulusContext(2, 2)
Z3 = ModulusContext(3, 1)
Z2 = ModulusContext(2, 1)


def _swap_closed_form(i, b):
    full = [[-1] * b if r == i - 1 else [1 if c == r else 0 for c in range(b)]
            for r in range(b)]
    return tuple(tuple(r) for r in full)


def _direct_action_matrix(alpha):
    """Independent oracle: row i expands the class the action sends the
    i-th basis loop to, using only the relation that all n loop classes
    sum to zero."""
    b = alpha.size - 1
    g = alpha.inverse()
    rows = []
    for i in range(1, b + 1):
        target = g(i)
        if target <= b:
            rows.append(tuple(1 if j == target - 1 else 0 for j in range(b)))
        else:
            rows.append(tuple(-1 for _ in range(b)))
    return tuple(rows)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_swap_matrices_closed_form(b):
    for i in range(1, b + 1):
        eta = swap_with_last(i, b)
        expected = matsub(
            matsub(identity_matrix(b), elementary_matrix(i, i, b)),
            tuple(tuple(1 if r == i - 1 else 0 for _ in range(b)) for r in range(b)),
        )
        assert action_matrix(eta) == expected == _swap_closed_form(i, b)


def test_action_matrix_identity():
    assert action_matrix(Perm.identity(3)) == identity_matrix(2)


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_action_matrix_against_direct_oracle(b):
    for alpha in all_perms(b + 1):
        assert action_matrix(alpha) == _direct_action_matrix(alpha)


@pytest.mark.parametrize("b", [2, 3])
def test_action_matrix_homomorphism(b):
    perms = all_perms(b + 1)
    for s in perms:
        for t in perms:
            assert action_matrix(s * t) == matmul(action_matrix(s), action_matrix(t))


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_swap_factorization_identity(b):
    # For alpha = (swap u) * sigma:  T_sigma - T_alpha has a single nonzero
    # row u equal to the all-ones row plus an extra unit in column
    # sigma^{-1}(u); exact integer matrices.
    for u in range(1, b + 1):
        for sigma in all_perms(b):
            sigma_up = sigma.extend(b + 1)
            alpha = swap_with_last(u, b) * sigma_up
            lhs = matsub(action_matrix(sigma_up), action_matrix(alpha))
            ones_row = tuple(
                tuple(1 if r == u - 1 else 0 for _ in range(b)) for r in range(b)
            )
            rhs = matadd(elementary_matrix(u, sigma.inverse()(u), b), ones_row)
            assert lhs == rhs


def _closure_size(gens):
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a * b
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return len(seen)


@pytest.mark.parametrize("b,size", [(1, 2), (2, 6), (3, 24), (4, 120)])
def test_generators_generate_everything(b, size):
    gens = generators(b)
    assert len(gens) == b
    assert _closure_size(gens) == size


def test_generators_b1():
    assert generators(1) == [swap_with_last(1, 1)]


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_generators_new_list_each_call(b):
    expected = [Perm.transposition(b + 1, i, i + 1) for i in range(1, b)]
    expected.append(swap_with_last(b, b))
    first, second = generators(b), generators(b)
    assert first == second == expected
    assert first is not second
    assert all(x is y for x, y in zip(first, second))
    # for b >= 2, (1 2) moves the span of e_1, and only the swap with the
    # last point moves the span of the all-ones row
    subs = [span(Z2, b, [(1,) + (0,) * (b - 1)]), span(Z2, b, [(1,) * b])]
    before = [fully_liftable(sub) for sub in subs]
    first.append(Perm.identity(b + 1))
    second.reverse()
    assert generators(b) == expected
    assert [fully_liftable(sub) for sub in subs] == before
    assert before == [fully_liftable_reference(sub) for sub in subs]


def _count_membership(monkeypatch) -> list:
    """Patch ``action._carries_into`` to record the permutation of each call."""
    calls = []

    def counting(images, rows, pivots, n):
        calls.append(images)
        return _carries_into(images, rows, pivots, n)

    monkeypatch.setattr("branchlift.action._carries_into", counting)
    return calls


def _transpositions_of(b):
    return [Perm.transposition(b + 1, a, c) for a in range(1, b + 2) for c in range(a + 1, b + 2)]


def _count_moved_rows(monkeypatch) -> list:
    """Patch ``action._moved_row`` to record the row of each call."""
    calls = []
    real = action._moved_row

    def counting(images, row):
        calls.append(row)
        return real(images, row)

    monkeypatch.setattr("branchlift.action._moved_row", counting)
    return calls


def test_transpositions_take_one_membership_test(monkeypatch):
    # a transposition is decided by the one vector p^m delta: no moved
    # rows on either side; a 3-cycle keeps the row-by-row paths
    sub = span(Z4, 3, [(1, 1, 1)])
    form = canonical_form(sub)
    assert form.colperm.is_identity and form.rank == 1
    taus = _transpositions_of(3)
    want = [equal(act(tau, sub), sub) for tau in taus]
    assert set(want) == {True, False}
    memberships = _count_membership(monkeypatch)
    moved = _count_moved_rows(monkeypatch)
    assert [invariant_under(sub, tau) for tau in taus] == want
    assert [divisibility_criterion(form, tau) for tau in taus] == want
    assert memberships == [] and moved == []
    cycle = Perm([2, 3, 1, 4])
    assert invariant_under(sub, cycle) and divisibility_criterion(form, cycle)
    assert memberships == [cycle.images]
    assert moved == [sub.basis[0], form.upper[0]]


def _count_steps(monkeypatch) -> list:
    """Patch ``action._least_step`` to record whether each step is zero."""
    steps = []
    real = action._least_step

    def counting(basis, b, a, c, n):
        vec = real(basis, b, a, c, n)
        steps.append(vec is None)
        return vec

    monkeypatch.setattr("branchlift.action._least_step", counting)
    return steps


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (2, 2, 4), (3, 1, 5)])
def test_fully_liftable_takes_one_step_per_generator(monkeypatch, p, k, n):
    # no moved rows: each generator up to the first failing one costs one
    # p^m delta, zero for the zero subgroup, nonzero on the full group
    ctx, b = ModulusContext(p, k), n - 1
    memberships = _count_membership(monkeypatch)
    steps = _count_steps(monkeypatch)
    full = span(ctx, b, identity_matrix(b))
    for sub, zero in ((span(ctx, b, []), True), (full, False)):
        steps.clear()
        assert fully_liftable(sub).liftable
        assert steps == [zero] * b
    for f in enumerate_subgroups(p, k, b):
        sub = rebuild(f)
        steps.clear()
        verdict = fully_liftable(sub)
        tried = b if verdict.liftable else generators(b).index(verdict.witness) + 1
        assert len(steps) == tried, (sub.basis, verdict)
    assert memberships == []


# The sweep benchmark's ambient groups with b <= 4 that ENUMERATED_GROUPS
# does not already hold.
_SWEEP_GROUPS = [(2, 2, 4), (2, 3, 3), (2, 4, 2), (3, 1, 4), (3, 2, 2),
                 (5, 1, 3), (5, 1, 4), (5, 2, 1)]


def test_fully_liftable_against_membership_reference(monkeypatch):
    # the generator steps are both zero and nonzero
    steps = _count_steps(monkeypatch)
    verdicts = set()
    witnesses = set()
    for p, k, b in ENUMERATED_GROUPS + _SWEEP_GROUPS:
        for f in enumerate_subgroups(p, k, b):
            sub = rebuild(f)
            verdict = fully_liftable(sub)
            assert verdict == fully_liftable_reference(sub), (sub.basis, verdict)
            verdicts.add(verdict.liftable)
            if verdict.witness is not None:
                witnesses.add(verdict.witness.images[-1] != b + 1)
    assert verdicts == {True, False}
    assert witnesses == {True, False}
    assert set(steps) == {True, False}


def test_every_transposition_against_act():
    # every transposition, not only the generators, on every subgroup and
    # on its twin with identity column permutation, through both tests;
    # each kind of transposition, (a c) and (a n), gets both verdicts
    seen = set()
    for p, k, b in ENUMERATED_GROUPS + _SWEEP_GROUPS:
        taus = _transpositions_of(b)
        for f in enumerate_subgroups(p, k, b):
            sub = rebuild(f)
            twin, form = omega_normalize(sub)
            for tau in taus:
                want = equal(act(tau, sub), sub)
                assert invariant_under(sub, tau) == want, (sub.basis, tau)
                want = equal(act(tau, twin), twin)
                assert invariant_under(twin, tau) == want, (twin.basis, tau)
                assert divisibility_criterion(form, tau) == want, (form, tau)
                seen.add((tau.images[-1] == b + 1, want))
    assert seen == {(last, verdict) for last in (True, False) for verdict in (True, False)}


def test_every_permutation_against_act_at_2_2_3():
    # all of S_4, so the row-by-row paths of 3-cycles, 4-cycles and
    # double transpositions are covered too
    perms = all_perms(4)
    verdicts = set()
    for f in enumerate_subgroups(2, 2, 3):
        sub = rebuild(f)
        twin, form = omega_normalize(sub)
        for alpha in perms:
            want = equal(act(alpha, twin), twin)
            assert invariant_under(sub, alpha) == equal(act(alpha, sub), sub), (sub.basis, alpha)
            assert invariant_under(twin, alpha) == want, (twin.basis, alpha)
            assert divisibility_criterion(form, alpha) == want, (form, alpha)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_act_examples():
    c = span(Z3, 2, [(1, 2)])
    assert equal(act(Perm.identity(3), c), c)
    assert equal(act(swap_with_last(2, 2), c), c)
    with pytest.raises(ValueError):
        act(Perm.identity(4), c)


@pytest.mark.parametrize("p,k,b", [(2, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_act_agrees_with_action_matrix(p, k, b):
    # act moves rows by the coordinate formula; the matrix is built
    # entry by entry, so the two share no code
    ctx = ModulusContext(p, k)
    n = ctx.modulus
    for f in enumerate_subgroups(p, k, b):
        sub = rebuild(f)
        for alpha in all_perms(b + 1):
            t = action_matrix(alpha)
            rows = [
                [sum(x * t[i][j] for i, x in enumerate(row)) % n for j in range(b)]
                for row in sub.basis
            ]
            assert act(alpha, sub) == span(ctx, b, rows)


def test_act_is_group_action_exhaustive():
    perms = all_perms(3)
    subs = [rebuild(f) for f in enumerate_subgroups(2, 2, 2)]
    assert len(subs) == 15
    for c in subs:
        for a in perms:
            for b in perms:
                assert equal(act(a, act(b, c)), act(b * a, c))


def test_act_is_group_action_sampled_s4():
    perms = all_perms(4)
    subs = [rebuild(f) for f in list(enumerate_subgroups(2, 1, 3))[::3]]
    for c in subs:
        for a in perms[::7]:
            for b in perms[::5]:
                assert equal(act(a, act(b, c)), act(b * a, c))


def test_criterion_examples():
    # no constraints bind when all exponents agree
    full = span(Z3, 2, [(1, 0), (0, 1)])
    form = canonical_form(full)
    for alpha in all_perms(3):
        assert divisibility_criterion(form, alpha)

    kernel_all_ones = span(Z3, 2, [(1, 2)])
    form = canonical_form(kernel_all_ones)
    assert form.upper == ((1, 2), (0, 1)) and form.exponents == (0, 1)
    assert divisibility_criterion(form, swap_with_last(2, 2))

    c2 = span(Z2, 2, [(1, 1)])
    form2 = canonical_form(c2)
    assert form2.upper == ((1, 1), (0, 1))
    assert not divisibility_criterion(form2, swap_with_last(2, 2))


def test_criterion_requires_identity_colperm():
    c = span(Z4, 2, [(2, 1)])
    form = canonical_form(c)
    assert not form.colperm.is_identity
    with pytest.raises(OmegaNotIdentityError):
        divisibility_criterion(form, Perm.identity(3))


@pytest.mark.parametrize("p,k,b", [(2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 1, 3)])
def test_criterion_agrees_with_invariance(p, k, b):
    perms = all_perms(b + 1)
    for f in enumerate_subgroups(p, k, b):
        sub, form = omega_normalize(rebuild(f))
        for alpha in perms:
            assert divisibility_criterion(form, alpha) == invariant_under(sub, alpha)


def _divisibility_holds(form, x):
    """The criterion's divisibility condition for an arbitrary integer
    matrix in place of an action matrix."""
    ctx = form.ctx
    u_inv = inv_unitriangular(form.upper, ctx)
    conj = reduce_mod(matmul(matmul(form.upper, x), u_inv), ctx)
    return all(
        valuation(conj[i][j], ctx) >= form.exponents[j] - form.exponents[i]
        for i in range(form.width)
        for j in range(i + 1, form.width)
    )


@pytest.mark.parametrize("p,k,b,sample", [
    (2, 3, 3, None), (5, 1, 3, None), (3, 2, 2, None), (2, 2, 4, 20),
])
def test_criterion_agrees_with_matrix_formula(p, k, b, sample):
    # the criterion moves cofactor rows and substitutes forward; the
    # reference conjugates by the action matrix with an explicit U^-1
    perms = all_perms(b + 1)
    if sample is not None:
        perms = random.Random(b).sample(perms, sample)
    ctx = ModulusContext(p, k)
    forms = [canonical_form(span(ctx, b, basis)) for basis in _identity_bases(ctx, b, max_rank=b)]
    verdicts = set()
    for form in forms:
        for alpha in perms:
            verdict = divisibility_criterion(form, alpha)
            assert verdict == _divisibility_holds(form, action_matrix(alpha)), (
                form, alpha,
            )
            verdicts.add(verdict)
    assert verdicts == {True, False}
    for alpha in (Perm.identity(b), Perm.identity(b + 2)):
        with pytest.raises(ValueError):
            divisibility_criterion(forms[-1], alpha)


@pytest.mark.parametrize("p,k,b", [(3, 1, 2), (2, 2, 3)])
def test_divisibility_condition_closed_under_differences(p, k, b):
    # On a fully invariant subgroup the condition holds for every action
    # matrix, hence for differences, and in particular for the matrices
    # with one unit entry minus another in the same row.
    perms = all_perms(b + 1)
    invariant = []
    for f in enumerate_subgroups(p, k, b):
        sub, form = omega_normalize(rebuild(f))
        if all(invariant_under(sub, a) for a in perms):
            invariant.append(form)
    assert invariant
    for form in invariant:
        mats = [action_matrix(a) for a in perms]
        for x in mats[:8]:
            for y in mats[:8]:
                assert _divisibility_holds(form, matsub(x, y))
        for u in range(1, b + 1):
            for v in range(1, b + 1):
                for w in range(1, b + 1):
                    if v != w:
                        diff = matsub(
                            elementary_matrix(u, v, b), elementary_matrix(u, w, b)
                        )
                        assert _divisibility_holds(form, diff)


def test_invariant_under_against_act():
    # membership of the moved basis rows against the computed image
    verdicts = set()
    for p, k, b in ENUMERATED_GROUPS:
        perms = all_perms(b + 1)
        for f in enumerate_subgroups(p, k, b):
            sub = rebuild(f)
            for alpha in perms:
                verdict = invariant_under(sub, alpha)
                assert verdict == equal(act(alpha, sub), sub), (sub.basis, alpha)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    for alpha in (Perm.identity(2), Perm.identity(4)):
        with pytest.raises(ValueError):
            invariant_under(span(Z2, 2, [(1, 1)]), alpha)


def test_fully_liftable_examples():
    assert fully_liftable(span(Z2, 2, [])).liftable
    assert fully_liftable(span(Z3, 2, [(1, 2)])).liftable
    verdict = fully_liftable(span(Z2, 2, [(1, 1)]))
    assert not verdict.liftable
    assert verdict.witness == swap_with_last(2, 2)
    assert verdict.to_json() == {"liftable": False, "witness": "(2 3)"}


@pytest.mark.parametrize("p,k,b", [(2, 2, 2), (3, 1, 2), (2, 1, 3)])
def test_generator_check_equals_full_sweep(p, k, b):
    perms = all_perms(b + 1)
    for f in enumerate_subgroups(p, k, b):
        sub = rebuild(f)
        assert fully_liftable(sub).liftable == all(
            invariant_under(sub, a) for a in perms
        )


def test_omega_normalize():
    # omega_normalize reads the twin off the form; acting by the inverse
    # column permutation and normalizing again is the reference
    moved = 0
    for p, k, b in ENUMERATED_GROUPS:
        for f in enumerate_subgroups(p, k, b):
            sub = rebuild(f)
            twin, form = omega_normalize(sub)
            assert twin.basis == act(f.colperm.inverse().extend(b + 1), sub).basis
            assert form.colperm.is_identity
            again = canonical_form(twin)
            for field in dataclasses.fields(form):
                assert getattr(again, field.name) == getattr(form, field.name), field.name
            if f.colperm.is_identity:
                assert twin is sub
            moved += twin.basis != sub.basis
    assert moved
