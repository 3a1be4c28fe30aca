import pytest

from branchlift import (
    ModulusContext,
    OmegaNotIdentityError,
    Perm,
    act,
    action_matrix,
    canonical_form,
    divisibility_criterion,
    elementary_matrix,
    enumerate_subgroups,
    equal,
    fully_liftable,
    generators,
    identity_matrix,
    inv_unitriangular,
    invariant_under,
    matmul,
    matsub,
    matadd,
    omega_normalize,
    rebuild,
    reduce_mod,
    span,
    swap_with_last,
    valuation,
)
from conftest import all_perms

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
    for f in enumerate_subgroups(2, 2, 2):
        sub = rebuild(f)
        moved, form = omega_normalize(sub)
        assert form.colperm.is_identity
        assert equal(rebuild(form), moved)
        # the twin is in the same orbit
        assert any(equal(act(a, sub), moved) for a in all_perms(3))
