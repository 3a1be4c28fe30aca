"""End-to-end acceptance checks.

Each test covers one exit criterion, runs it at its stated tolerance
(everything here is exact), and prints one PASS/FAIL line; run with
``pytest -s tests/test_acceptance.py`` to see the lines.

The exhaustive sweeps run over every (p, k, b) in a fixed grid of ambient
groups of order at most 4096 with p in {2, 3, 5}; points whose full
subgroup-by-permutation sweep would dominate the runtime by orders of
magnitude carry only the per-subgroup checks (criterion 3), which is
recorded in the grid constants below.
"""

import time

from branchlift import (
    action_matrix,
    canonical_form,
    deck_group_order,
    divisibility_criterion,
    enumerate_subgroups,
    equal,
    fully_liftable,
    invariant_under,
    kernel,
    omega_normalize,
    order,
    rebuild,
    structural_audit,
    swap_with_last,
    validate,
)
from conftest import (
    ACCEPTANCE_GRID,
    all_perms,
    brute_span,
    elementary_matrix,
    fully_liftable_reference,
    identity_matrix,
    matadd,
    matsub,
    subgroup_count,
)

# Ambient groups with order p^(k*b) <= 4096 swept exhaustively, with the
# full permutation group in criteria 2 and 4.
SWEEP = (
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5),
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4),
    (2, 3, 1), (2, 3, 2), (2, 3, 3),
    (2, 4, 1), (2, 4, 2),
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4),
    (3, 2, 1), (3, 2, 2),
    (5, 1, 1), (5, 1, 2), (5, 1, 3), (5, 1, 4),
    (5, 2, 1),
)

# Criterion 3 is cheap per subgroup, so it also covers the two largest
# ambient groups in range.
ROUND_TRIP_SWEEP = SWEEP + ((2, 2, 5), (3, 1, 5))


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_census_matches_prediction(census_cache):
    start = time.perf_counter()
    failures = []
    for p, k, n, expected in ACCEPTANCE_GRID:
        report = census_cache(p, k, n)
        lift = report.liftable_classes
        ok = report.match and len(lift) == expected
        if not ok:
            failures.append((p, k, n, len(lift), expected, report.match))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300
    _report(
        "criterion 1 (census = closed form on the 9-point grid)",
        ok,
        f"{len(ACCEPTANCE_GRID)} points in {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 300


def test_criterion_2_divisibility_matches_direct_invariance():
    pairs = 0
    disagreements = 0
    for p, k, b in SWEEP:
        alphas = all_perms(b + 1)
        normalized = {}
        for form in enumerate_subgroups(p, k, b):
            sub, nf = omega_normalize(rebuild(form))
            normalized[sub.basis] = (sub, nf)
        # distinct subgroups can normalize onto the same twin; both sides
        # below depend only on the twin, so each is checked once
        for sub, nf in normalized.values():
            for alpha in alphas:
                pairs += 1
                if divisibility_criterion(nf, alpha) != invariant_under(sub, alpha):
                    disagreements += 1
    ok = disagreements == 0
    _report(
        "criterion 2 (divisibility criterion = act-and-compare)",
        ok,
        f"{pairs} subgroup/permutation pairs, {disagreements} disagreements",
    )
    assert disagreements == 0


def _bounds_hold(form) -> bool:
    # independent restatement of the normal-form constraints
    p, k, m = form.ctx.p, form.ctx.k, form.width
    e = form.exponents
    if len(e) != m or list(e) != sorted(e):
        return False
    if any(not (0 <= e[i] < k) for i in range(form.rank)):
        return False
    if any(e[i] != k for i in range(form.rank, m)):
        return False
    for i in range(m):
        if form.upper[i][i] != 1:
            return False
        for j in range(i):
            if form.upper[i][j] != 0:
                return False
        for j in range(i + 1, m):
            if not (0 <= form.upper[i][j] < p ** (e[j] - e[i])):
                return False
    return True


def test_criterion_3_canonical_form_round_trip():
    checked = 0
    failures = 0
    miscounted = []
    for p, k, b in ROUND_TRIP_SWEEP:
        count = 0
        for form in enumerate_subgroups(p, k, b):
            sub = rebuild(form)
            again = canonical_form(sub)
            count += 1
            if not (_bounds_hold(again) and equal(rebuild(again), sub)):
                failures += 1
        checked += count
        if count != subgroup_count(p, k, b):
            miscounted.append((p, k, b, count))
    ok = failures == 0 and not miscounted
    _report(
        "criterion 3 (normal form round trip, bounds and subgroup count)",
        ok,
        f"{checked} subgroups, {failures} failures, {len(miscounted)} miscounted groups",
    )
    assert failures == 0
    assert not miscounted, miscounted


def test_criterion_4_generator_sufficiency():
    checked = 0
    failures = 0
    for p, k, b in SWEEP:
        alphas = all_perms(b + 1)
        for form in enumerate_subgroups(p, k, b):
            sub = rebuild(form)
            full_sweep = all(invariant_under(sub, alpha) for alpha in alphas)
            checked += 1
            if fully_liftable(sub).liftable != full_sweep:
                failures += 1
    ok = failures == 0
    _report(
        "criterion 4 (generator check = full permutation sweep)",
        ok,
        f"{checked} subgroups, {failures} failures",
    )
    assert failures == 0


def test_criterion_5_structural_audit(census_cache):
    kernels = 0
    violations = []
    for p, k, n, _ in ACCEPTANCE_GRID:
        audit = structural_audit(census_cache(p, k, n))
        kernels += len(audit.entries)
        for entry in audit.entries:
            violations.extend(entry.violations)
    ok = not violations
    _report(
        "criterion 5 (structural facts on liftable kernels)",
        ok,
        f"{kernels} liftable kernels, {len(violations)} violations",
    )
    assert not violations


def test_criterion_6_identity_suite():
    ok = True
    # closed form of the last-point swaps
    for b in range(1, 6):
        for i in range(1, b + 1):
            ones_row = tuple(
                tuple(1 if r == i - 1 else 0 for _ in range(b)) for r in range(b)
            )
            expected = matsub(
                matsub(identity_matrix(b), elementary_matrix(i, i, b)), ones_row
            )
            ok = ok and action_matrix(swap_with_last(i, b)) == expected
    # exact factorization identity over the integers
    for b in range(1, 5):
        for u in range(1, b + 1):
            for sigma in all_perms(b):
                sigma_up = sigma.extend(b + 1)
                alpha = swap_with_last(u, b) * sigma_up
                lhs = matsub(action_matrix(sigma_up), action_matrix(alpha))
                ones_row = tuple(
                    tuple(1 if r == u - 1 else 0 for _ in range(b)) for r in range(b)
                )
                rhs = matadd(elementary_matrix(u, sigma.inverse()(u), b), ones_row)
                ok = ok and lhs == rhs
    # subgroup count oracle for rank-two elementary ambient groups
    from branchlift import ModulusContext

    for p in (2, 3, 5):
        count = sum(1 for _ in enumerate_subgroups(p, 1, 2))
        ctx = ModulusContext(p, 1)
        vecs = [(a, b) for a in range(p) for b in range(p)]
        brute = {brute_span(ctx, 2, [v, w]) for v in vecs for w in vecs}
        ok = ok and count == len(brute) == p + 3
    _report("criterion 6 (matrix identities and subgroup-count oracle)", ok)
    assert ok


def test_criterion_7_first_isomorphism(census_cache):
    checked = 0
    failures = 0
    for p, k, n, _ in ACCEPTANCE_GRID:
        report = census_cache(p, k, n)
        specs = [rec.cover for rec in report.classes]
        specs.extend(pr.cover for pr in report.predicted)
        for spec in specs:
            assert validate(spec) == []
            checked += 1
            if order(kernel(spec)) * deck_group_order(spec) != p ** (k * (n - 1)):
                failures += 1
    ok = failures == 0
    _report(
        "criterion 7 (kernel order times deck order = homology order)",
        ok,
        f"{checked} covers, {failures} failures",
    )
    assert failures == 0


def test_class_kernels_lift_as_by_membership(census_cache):
    # the lifting check with relabelling agrees with membership alone, in
    # verdict and witness, on every class kernel of the grid
    checked = 0
    for p, k, n, _ in ACCEPTANCE_GRID:
        for rec in census_cache(p, k, n).classes:
            verdict = fully_liftable(rec.kernel)
            assert verdict == fully_liftable_reference(rec.kernel), (p, k, n, rec.kernel.basis)
            assert (verdict.liftable, verdict.witness) == (rec.liftable, rec.witness)
            checked += 1
    _report("lifting check by relabelling matches membership",
            checked > 0, f"{checked} class kernels")
