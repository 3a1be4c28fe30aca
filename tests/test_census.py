import hashlib
import itertools
import json
import re
import tracemalloc
from collections import deque
from math import factorial
from pathlib import Path

import pytest

from branchlift import (
    BoundExceededError,
    CoverSpec,
    ModulusContext,
    Perm,
    act,
    canonical_form,
    classify,
    classify_two_points,
    enumerate_subgroups,
    equal,
    equivalent,
    fully_liftable,
    generators,
    howell_reduce,
    invariant_under,
    kernel,
    order,
    predict_liftable,
    rebuild,
    report_to_json,
    span,
    structural_audit,
    structure_violations,
    validate,
    verify_classification,
    write_atlas,
)
from branchlift import action, census, cli, orbits, subgroups
from branchlift.census import atlas_filename
from branchlift.orbits import _identity_bases
from branchlift.subgroups import _identity_shape, _swap_columns
from conftest import (
    ACCEPTANCE_GRID,
    ENUMERATED_GROUPS,
    all_perms,
    gaussian_binomial,
    lift,
    orbit_reference,
    subgroup_count,
    unlift,
)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_subgroups(2, 1, 2)) == 5
    assert sum(1 for _ in enumerate_subgroups(2, 2, 1)) == 3
    assert sum(1 for _ in enumerate_subgroups(3, 1, 2)) == 6


@pytest.mark.parametrize("p", [2, 3, 5])
def test_census_birkhoff_count_agrees_with_the_oracle(p):
    for b in range(1, 9):
        for r in range(b + 1):
            assert orbits._gaussian_binomial(b, r, p) == gaussian_binomial(b, r, p)
        for k in range(5):
            assert orbits._subgroup_count(p, k, b) == subgroup_count(p, k, b)


def test_classify_refuses_a_walk_that_misses_an_orbit(monkeypatch):
    # The walk is run in full, so the seed loop's own drain check holds,
    # but the first orbit is not handed to classify.
    real_orbits = census._orbits

    def all_but_the_first(*args):
        orbits = real_orbits(*args)
        for _ in next(orbits):
            pass
        yield from orbits

    monkeypatch.setattr(census, "_orbits", all_but_the_first)
    with pytest.raises(AssertionError, match="Birkhoff's count is 66"):
        classify(2, 1, 5)


def test_subgroup_count_pinned_values():
    assert subgroup_count(2, 1, 4) == 67
    assert subgroup_count(2, 2, 5) == 55989
    assert subgroup_count(3, 1, 2) == 6
    assert subgroup_count(2, 0, 3) == 1


@pytest.mark.parametrize("p,k,b", ENUMERATED_GROUPS)
def test_enumerate_totals_match_subgroup_count(p, k, b):
    # A swap wrongly skipped by the walk would leave subgroups out.
    assert sum(1 for _ in enumerate_subgroups(p, k, b)) == subgroup_count(p, k, b)


@pytest.mark.parametrize("p,k,n", [pt[:3] for pt in ACCEPTANCE_GRID])
def test_subgroups_seen_matches_subgroup_count(census_cache, p, k, n):
    # The census walks the subgroups whose quotient has exponent exactly
    # p^k; the others are the subgroups containing p^(k-1) times the
    # ambient group, which correspond to subgroups of (Z/p^(k-1))^(n-1).
    report = census_cache(p, k, n)
    assert report.subgroups_seen == subgroup_count(p, k, n - 1) - subgroup_count(p, k - 1, n - 1)


@pytest.mark.parametrize("p,k,n", [(2, 1, 4), (2, 2, 4), (3, 1, 4)])
def test_class_sizes_are_whole_group_orbits(p, k, n):
    # Orbits under every permutation of the points, with no walk at all.
    report = classify(p, k, n, strict=False)
    perms = all_perms(n)
    for rec in report.classes:
        assert rec.size == len({act(alpha, rec.kernel).basis for alpha in perms})
    assert sum(rec.size for rec in report.classes) == report.subgroups_seen


def test_generators_are_involutions():
    for b in range(1, 7):
        ident = Perm.identity(b + 1)
        assert all(g * g == ident for g in generators(b))


@pytest.mark.parametrize(
    "walk,p,k,b,steps",
    [("classify", 2, 2, 4, 2130), ("enumerate", 2, 2, 3, 165), ("enumerate", 3, 1, 3, 39)],
    ids=["classify-2-2-4", "enumerate-2-2-3", "enumerate-3-1-3"],
)
def test_orbit_walk_swaps_only_undeduced_edges(monkeypatch, walk, p, k, b, steps):
    # The walked subgroups and generators, listed without the walk.  Both
    # walks use the transpositions (n 1), (1 2), ..., (b-1 b): the direct
    # (n 1) step and the adjacent column swaps.  The census walks the
    # forms of rank below b, whose quotient has exponent exactly p^k; the
    # full-rank walk ``_orbits(ctx, b, b)``, the ``enumerate`` cases,
    # walks every subgroup.  ``enumerate_subgroups`` writes its forms down
    # without a walk, so the full-rank walk is driven directly.
    walked = [rebuild(f) for f in enumerate_subgroups(p, k, b)
              if walk == "enumerate" or f.rank < b]
    gens = [Perm.transposition(b + 1, b + 1, 1)]
    gens += [Perm.transposition(b + 1, i, i + 1) for i in range(1, b)]
    images = {sub.basis: [action.act(g, sub).basis for g in gens] for sub in walked}
    fixed = sum(y == x for x, ys in images.items() for y in ys)
    # The orbits are the connected components of the generator graph.
    root = {x: x for x in images}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, ys in images.items():
        for y in ys:
            root[find(y)] = find(x)
    components = len({find(x) for x in images})
    # The steps computed: relabellings that succeed, eliminations and
    # (n 1) steps.  A relabelling that declines defers its edge and
    # computes nothing.
    calls = []
    real_relabel = orbits._relabel_columns
    real_swap, real_swap_1n = orbits._swap_columns, orbits._swap_1n

    def counting_relabel(basis, c, swap):
        moved = real_relabel(basis, c, swap)
        if moved is not None:
            calls.append(c + 1)
        return moved

    def counting_swap(ctx, basis, c, swap=None):
        calls.append(c + 1)
        return real_swap(ctx, basis, c, swap)

    def counting_swap_1n(ctx, basis):
        calls.append(0)
        return real_swap_1n(ctx, basis)

    monkeypatch.setattr(orbits, "_relabel_columns", counting_relabel)
    monkeypatch.setattr(orbits, "_swap_columns", counting_swap)
    monkeypatch.setattr(orbits, "_swap_1n", counting_swap_1n)
    if walk == "classify":
        assert classify(p, k, b + 1).subgroups_seen == len(walked)
    else:
        orbits_walked = orbits._orbits(ModulusContext(p, k), b, b)
        assert sum(1 for orbit in orbits_walked for _ in orbit) == len(walked)
    assert len(calls) == steps
    # Swapping each edge once costs one swap per fixed pair and one per
    # other edge for its two ends; the relations deduce some of those
    # edges.  Every subgroup but an orbit's seed is found by a swap.
    assert len(walked) - components <= len(calls) < fixed + (len(gens) * len(walked) - fixed) // 2


def _reference_orbit(ctx, seed):
    """Breadth-first orbit of ``seed`` that swaps along every edge and
    deduces none."""
    seen = {seed}
    queue = deque([seed])
    while queue:
        cur = queue.popleft()
        for c in range(len(seed[0]) - 1):
            moved = _swap_columns(ctx, cur, c)
            if moved not in seen:
                seen.add(moved)
                queue.append(moved)
    return seen


@pytest.mark.parametrize("p,k,b", ENUMERATED_GROUPS)
def test_orbit_walk_matches_reference_on_subgroups(p, k, b):
    # The seeds of every rank: the census walks those of rank below b, the
    # enumeration all of them.  The reference swaps every edge of the
    # lifted walk (``conftest.lift``); read through the unlift it is the
    # walk over the subgroups' own bases.  The walk defers eliminations,
    # so the order it finds bases in is its own: the seed comes first, and
    # each basis of the orbit comes once.
    ctx = ModulusContext(p, k)
    for seed in _identity_bases(ctx, b, max_rank=b):
        walked = orbits._orbit(ctx, b, seed)
        assert walked[0] == seed
        assert len(set(walked)) == len(walked)
        assert set(walked) == {unlift(x) for x in _reference_orbit(ctx, lift(ctx, b, seed))}


@pytest.mark.parametrize(
    "p,k,b,max_rank",
    [*((p, k, b, b) for p, k, b in ENUMERATED_GROUPS), (2, 2, 1, 1), (2, 2, 3, 2), (2, 1, 5, 4)],
    ids=[*(f"{p}-{k}-{b}" for p, k, b in ENUMERATED_GROUPS),
         "2-2-1", "census-2-2-4", "census-2-1-6"],
)
def test_orbit_walk_is_the_letter_by_letter_walk(monkeypatch, p, k, b, max_rank):
    # The straight-line deduction tries the commuting words before the
    # braid words; the reference follows every word letter by letter in
    # ascending order of h.  Any word that completes ends at s_i x, so
    # both walks take the same steps, declined relabellings included, and
    # find the same bases in the same order, from every seed of every
    # rank of the enumerated groups (at b = 2 no generator has a
    # commuting partner, at b = 1 there is no word at all) and from the
    # census seeds of (2,2,4) and (2,1,6).  The bases alone would not
    # tell: a deduction missed costs a step but finds no new basis.
    steps = []
    real_relabel = orbits._relabel_columns
    real_swap, real_swap_1n = orbits._swap_columns, orbits._swap_1n

    def relabel(basis, c, swap):
        steps.append(("relabel", basis, c))
        return real_relabel(basis, c, swap)

    def swap(ctx, basis, c, swap=None):
        steps.append(("swap", basis, c))
        return real_swap(ctx, basis, c, swap)

    def swap_1n(ctx, basis):
        steps.append(("swap_1n", basis))
        return real_swap_1n(ctx, basis)

    monkeypatch.setattr(orbits, "_relabel_columns", relabel)
    monkeypatch.setattr(orbits, "_swap_columns", swap)
    monkeypatch.setattr(orbits, "_swap_1n", swap_1n)
    ctx = ModulusContext(p, k)
    seeds = 0
    for seed in _identity_bases(ctx, b, max_rank):
        seeds += 1
        walked = orbits._orbit(ctx, b, seed)
        walked_steps = steps[:]
        steps.clear()
        assert walked == orbit_reference(ctx, b, seed)
        assert walked_steps == steps
        steps.clear()
    assert seeds > 1


@pytest.mark.parametrize("p,k,b", [(2, 2, 3), (3, 1, 3)])
def test_lifted_swaps_act_as_transpositions(p, k, b):
    # With lifted columns ordered (n, 1, ..., b), swap 0 is the
    # transposition (1 n) and swap c > 0 is (c c+1).
    ctx = ModulusContext(p, k)
    taus = [Perm.transposition(b + 1, 1, b + 1)]
    taus += [Perm.transposition(b + 1, c, c + 1) for c in range(1, b)]
    for form in enumerate_subgroups(p, k, b):
        sub = rebuild(form)
        lifted = lift(ctx, b, sub.basis)
        assert howell_reduce(ctx, b + 1, lifted) == lifted
        assert unlift(lifted) == sub.basis
        assert _identity_shape(lifted) == _identity_shape(sub.basis)
        for c, tau in enumerate(taus):
            moved = act(tau, sub).basis
            swapped = _swap_columns(ctx, lifted, c)
            assert unlift(swapped) == moved
            assert swapped == lift(ctx, b, moved)
            if c >= 1:
                # Swaps that fix n act on the subgroup's own basis, one
                # column to the left.
                assert _swap_columns(ctx, sub.basis, c - 1) == moved


@pytest.mark.parametrize("p,k,b", [(2, 2, 2), *ENUMERATED_GROUPS])
def test_swap_1n_is_the_transposition_1n(p, k, b):
    # Oracles: ``act`` of (1 n), and the swap of columns 0 and 1 of the
    # lifted basis read back through the unlift.
    ctx = ModulusContext(p, k)
    tau = Perm.transposition(b + 1, 1, b + 1)
    for form in enumerate_subgroups(p, k, b):
        sub = rebuild(form)
        moved = orbits._swap_1n(ctx, sub.basis)
        assert moved == act(tau, sub).basis
        assert moved == unlift(_swap_columns(ctx, lift(ctx, b, sub.basis), 0))


def test_swaps_eliminate_only_when_the_pivot_row_at_c_meets_c_plus_1(monkeypatch):
    # The rule restated from the pivot columns: a swap at c, c+1 runs the
    # elimination exactly when a row pivots at c and is nonzero at c+1;
    # every other swap is a relabelling.  The walk swaps only adjacent
    # columns of the subgroups' own bases, and (n 1) is ``_swap_1n``.  It
    # eliminates only at a deferred slot that is still open: the
    # relabelling declined there earlier, and neither end of the edge has
    # been computed since.
    def eliminates(basis, c):
        leads = [next(j for j, x in enumerate(r) if x) for r in basis]
        return c in leads and basis[leads.index(c)][c + 1] != 0

    calls = []
    real_columns = subgroups._howell_columns

    def counting_columns(*args):
        calls.append(args)
        return real_columns(*args)

    declined, computed = set(), set()
    real_relabel = orbits._relabel_columns

    def recording_relabel(basis, c, swap):
        moved = real_relabel(basis, c, swap)
        if moved is None:
            declined.add((basis, c))
        else:
            computed.update({(basis, c), (moved, c)})
        assert moved is None or not eliminates(basis, c)
        return moved

    expected, counted = [], []
    real_swap = orbits._swap_columns

    def counting_swap(ctx, basis, c, swap=None):
        assert (basis, c) in declined and (basis, c) not in computed
        expected.append(eliminates(basis, c))
        before = len(calls)
        moved = real_swap(ctx, basis, c, swap)
        counted.append(len(calls) - before)
        assert (moved, c) not in computed
        computed.update({(basis, c), (moved, c)})
        return moved

    monkeypatch.setattr(subgroups, "_howell_columns", counting_columns)
    monkeypatch.setattr(orbits, "_relabel_columns", recording_relabel)
    monkeypatch.setattr(orbits, "_swap_columns", counting_swap)
    classify(2, 2, 5)
    assert counted == expected
    assert all(expected)
    assert (len(declined), len(expected), sum(counted)) == (1227, 201, 201)


def _partitions(n, largest=None):
    """The partitions of n, parts in descending order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


@pytest.mark.parametrize("p,k,n", [(2, 1, 4), (2, 2, 4), (3, 1, 4), (3, 1, 5)])
def test_orbit_count_matches_burnside(census_cache, p, k, n):
    # Burnside: the number of orbits is the average number of fixed points,
    # summed here over the conjugacy classes of S_n; a class of cycle type
    # with centralizer order z has n!/z elements.  The walked subgroups
    # are the column permutations of the rank-below-b identity-form spans,
    # listed without any orbit walk.
    b = n - 1
    ctx = ModulusContext(p, k)
    column_perms = [g for g in all_perms(n) if g(n) == n]
    walked = {
        act(beta, span(ctx, b, basis)).basis
        for basis in _identity_bases(ctx, b, max_rank=b - 1)
        for beta in column_perms
    }
    subs = [span(ctx, b, basis) for basis in walked]
    total = 0
    for cycle_type in _partitions(n):
        images, start, centralizer = [], 1, 1
        for length in cycle_type:
            images += [*range(start + 1, start + length), start]
            start += length
            centralizer *= length
        for length in set(cycle_type):
            centralizer *= factorial(cycle_type.count(length))
        rep = Perm(images)
        total += factorial(n) // centralizer * sum(invariant_under(s, rep) for s in subs)
    orbits, rest = divmod(total, factorial(n))
    assert rest == 0
    report = census_cache(p, k, n)
    assert len(walked) == report.subgroups_seen
    assert orbits == len(report.classes) + report.dropped_unbranched


@pytest.mark.parametrize("p,k,b", [(2, 2, 2), *ENUMERATED_GROUPS])
def test_enumerate_emits_distinct_subgroups(p, k, b):
    # Distinct and as many as Birkhoff's count: every subgroup exactly once.
    seen = set()
    for form in enumerate_subgroups(p, k, b):
        sub = rebuild(form)
        assert sub.basis not in seen
        seen.add(sub.basis)
    assert len(seen) == subgroup_count(p, k, b)


def _seed_of(form):
    """The rows p^(e_i) U_i of the form's own identity seed."""
    p, n = form.ctx.p, form.ctx.modulus
    return tuple(tuple(p ** e * x % n for x in row)
                 for e, row in zip(form.exponents[:form.rank], form.upper))


@pytest.mark.parametrize("p,k,b", [(2, 2, 2), *ENUMERATED_GROUPS])
def test_enumerate_covers_each_column_permutation_orbit_once(p, k, b):
    # Oracle: all b! column permutations of each seed's span, reduced,
    # with no tie order.  A seed's images can hold other seeds (over Z/5,
    # swapping the columns of the span of (1, 2) gives that of (1, 3)), so
    # the count is taken per orbit of the column permutations: the forms
    # of the seeds in an orbit rebuild to distinct members of it, as many
    # as it has.  The forms of a seed come together, in seed order.
    ctx = ModulusContext(p, k)
    per_seed, order_seen = {}, []
    for form in enumerate_subgroups(p, k, b):
        seed = _seed_of(form)
        if seed not in per_seed:
            per_seed[seed] = []
            order_seen.append(seed)
        per_seed[seed].append(rebuild(form).basis)
    seeds = list(_identity_bases(ctx, b, max_rank=b))
    assert order_seen == seeds
    orbits = {}
    for seed in seeds:
        images = frozenset(
            howell_reduce(ctx, b, [tuple(row[c] for c in cols) for row in seed])
            for cols in itertools.permutations(range(b))
        )
        assert set(per_seed[seed]) <= images
        orbits.setdefault(images, []).extend(per_seed[seed])
    for images, emitted in orbits.items():
        assert len(emitted) == len(set(emitted)) == len(images)


@pytest.mark.parametrize("p,k,b", [(2, 2, 2), *ENUMERATED_GROUPS, (2, 1, 5), (3, 2, 2)])
def test_enumerated_forms_are_canonical(p, k, b):
    # Each form is, field by field (dataclass equality), the one
    # ``canonical_form`` eliminates its subgroup to; the seed's own form
    # comes first.
    last_seed = None
    for form in enumerate_subgroups(p, k, b):
        assert canonical_form(rebuild(form)) == form
        seed = _seed_of(form)
        if seed != last_seed:
            assert form.colperm.is_identity
            last_seed = seed


@pytest.mark.parametrize("p,k,b", [(2, 2, 2), *ENUMERATED_GROUPS])
def test_enumerated_forms_are_those_of_the_full_rank_walk(p, k, b):
    ctx = ModulusContext(p, k)
    walked = {
        canonical_form(subgroups._trusted_subgroup(ctx, b, basis))
        for orbit in orbits._orbits(ctx, b, b)
        for basis in orbit
    }
    forms = list(enumerate_subgroups(p, k, b))
    assert len(set(forms)) == len(forms)
    assert set(forms) == walked


@pytest.mark.parametrize("p,k,b", ENUMERATED_GROUPS)
def test_identity_shape_is_trivial_column_permutation(p, k, b):
    # Oracles: the normal form's column permutation, and the bases
    # ``_identity_bases`` writes down.
    ctx = ModulusContext(p, k)
    shaped = set()
    for form in enumerate_subgroups(p, k, b):
        sub = rebuild(form)
        is_shaped = _identity_shape(sub.basis)
        assert is_shaped == canonical_form(sub).colperm.is_identity
        if is_shaped:
            shaped.add(sub.basis)
    assert shaped == set(_identity_bases(ctx, b, max_rank=b))


@pytest.mark.parametrize("p,k,b,max_rank,count,digest", [
    (2, 1, 4, 0, 1, "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8"),
    (3, 2, 1, 1, 3, "affca3287bc2594915cce61105243e54830be1f65fa514d80b55ce36f31d05f1"),
    (2, 1, 4, 3, 33, "f72929b1e58545bd0c26a9a38de65dff5b209768f30ad6d7d7e84da25e65a70e"),
    (3, 1, 3, 3, 20, "63169c4af6bc4a8b692691b5107ac8947b68a1bc8bee0fd2511fc83397a7fd36"),
    (2, 3, 2, 2, 26, "e2c4ef8c5424bb2f8ee265a78521938c1fa8a6c6de11bc31dda35d80f2525039"),
    (5, 1, 3, 2, 51, "9e83075c4752aefae0bf9e650aa4709215ab7ef7f0c713ef40574241e71f0b96"),
    (2, 2, 5, 4, 17313, "c47f380f4a7865758b1aed3780c5dd75013cf227828d6050d70b84212563071d"),
])
def test_identity_bases_sequence_pinned(p, k, b, max_rank, count, digest):
    # The seed order fixes the walk order, so every swap count and every
    # output order; SHA-256 of the repr of the whole seed sequence.
    seeds = tuple(_identity_bases(ModulusContext(p, k), b, max_rank))
    assert len(seeds) == count
    assert hashlib.sha256(repr(seeds).encode()).hexdigest() == digest


@pytest.mark.parametrize("walk", ["classify", "enumerate"])
def test_pending_seeds_left_over_raise(monkeypatch, walk):
    # Bases flagged as seeds that never come up as seeds stay pending.
    # The ``enumerate`` case drives the full-rank walk over every subgroup
    # of (Z/2)^3.
    monkeypatch.setattr(orbits, "_identity_shape", lambda basis: True)
    with pytest.raises(AssertionError, match="never seeds"):
        if walk == "classify":
            classify(2, 1, 4)
        else:
            sum(1 for orbit in orbits._orbits(ModulusContext(2, 1), 3, 3) for _ in orbit)


def test_census_memory_follows_the_largest_orbit():
    # Keeping every walked subgroup peaked at about 600 KB on Python 3.11;
    # keeping only the pending seeds peaks at about 170 KB.
    classify(2, 2, 5)
    tracemalloc.start()
    try:
        classify(2, 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 350_000


def test_verify_checks_every_point_first(tmp_path):
    atlas = tmp_path / "atlas"
    for bad, error, message in [
        ((2, 1, 2), ValueError, "got n = 2"),
        ((2, 2, 30), BoundExceededError, "exceeds the bound"),
        # a repeated point would be reported, and its atlas written, twice
        ((2, 1, 3), ValueError, "the grid repeats the point 2,1,3"),
    ]:
        with pytest.raises(error, match=message):
            verify_classification([(2, 1, 3), bad], atlas_dir=atlas)
        assert not atlas.exists()


@pytest.mark.parametrize("point,bound,error,message", [
    ((2, 1, 1), census.DEFAULT_BOUND, ValueError, "at least 2 marked points, got n = 1"),
    ((2, 1, 2), census.DEFAULT_BOUND, ValueError,
     "got n = 2; use classify --n 2 or classify_two_points"),
    ((2, 2, 30), census.DEFAULT_BOUND, BoundExceededError, "2^58 exceeds the bound"),
    ((2, 1, 18), census.DEFAULT_BOUND, ValueError, "ambient rank 17 out of range"),
    ((2, 0, 3), census.DEFAULT_BOUND, ValueError, "k = 0 must be at least 1"),
    ((-3, 1, 3), census.DEFAULT_BOUND, ValueError, "p = -3 is not prime"),
    ((4, 1, 3), census.DEFAULT_BOUND, ValueError, "p = 4 is not prime"),
    ((257, 2, 3), 1 << 40, ValueError, "modulus p^k = 66049 exceeds 65536"),
])
def test_check_point_refusals(point, bound, error, message):
    with pytest.raises(error, match=re.escape(message)):
        census.check_point(*point, bound)


def test_check_point_returns_the_ring():
    assert census.check_point(3, 2, 3) == ModulusContext(3, 2)


def test_negative_p_refused_before_any_power():
    # (-3)^(3000000*16) would take minutes; p < 2 is refused as not prime
    with pytest.raises(ValueError, match="p = -3 is not prime"):
        next(enumerate_subgroups(-3, 3000000, 16))
    with pytest.raises(ValueError, match="ambient rank 17 out of range"):
        next(enumerate_subgroups(-3, 3000000, 17))


def test_bound_exceeded():
    with pytest.raises(BoundExceededError):
        list(enumerate_subgroups(2, 2, 12))
    with pytest.raises(BoundExceededError):
        classify(2, 2, 12, bound=1 << 10)


@pytest.mark.parametrize("bound", [0, -1, -1024])
def test_bound_below_1_is_invalid_input(bound):
    # Not a point past the bound: no point fits a bound below 1, so the
    # bound itself is refused, before the point is looked at.
    message = f"the bound must be at least 1, got {bound}"
    with pytest.raises(ValueError, match=re.escape(message)):
        classify(2, 1, 3, bound=bound)
    with pytest.raises(ValueError, match=re.escape(message)):
        next(enumerate_subgroups(2, 1, 1, bound))
    with pytest.raises(ValueError, match=re.escape(message)):
        classify_two_points(2, 1, bound=bound)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_classification([(2, 1, 3)], bound=bound)


def test_classify_small_points(census_cache):
    rep = census_cache(2, 1, 3)
    assert len(rep.liftable_classes) == 1 and rep.match
    assert rep.liftable_classes[0].family == 1

    rep = census_cache(3, 1, 3)
    assert len(rep.liftable_classes) == 2 and rep.match
    assert {c.family for c in rep.liftable_classes} == {1, 3}

    rep = census_cache(2, 2, 4)
    lift = rep.liftable_classes
    assert len(lift) == 3 and rep.match
    assert {(c.family, c.family_param) for c in lift} == {(1, None), (2, 1), (3, None)}


def test_classify_rejects_n2():
    with pytest.raises(ValueError):
        classify(2, 1, 2)


def test_classes_pairwise_inequivalent(census_cache):
    rep = census_cache(2, 2, 4)
    classes = rep.classes
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            assert equivalent(a.cover, b.cover) is None
        assert equivalent(a.cover, a.cover) is not None


def test_class_records_are_consistent(census_cache):
    rep = census_cache(2, 2, 4)
    total = 0
    for rec in rep.classes:
        assert equal(rebuild(rec.form), rec.kernel)
        assert validate(rec.cover) == []
        ker = kernel(rec.cover)
        # the listed cover represents the class of the listed kernel
        assert order(ker) == order(rec.kernel)
        assert rec.liftable == (rec.size == 1)
        assert rec.liftable == fully_liftable(rec.kernel).liftable
        total += rec.size
    assert total + rep.dropped_unbranched <= rep.subgroups_seen


def test_classify_completeness_by_sampling(census_cache):
    rep = census_cache(2, 2, 4)
    samples = [
        CoverSpec(2, 2, 4, (2, 4), ((1, 1), (0, 1), (0, 1), (1, 1))),
        CoverSpec(2, 2, 4, (4,), ((1,), (1,), (1,), (1,))),
        CoverSpec(2, 2, 4, (2, 4), ((1, 3), (1, 1), (0, 2), (0, 2))),
        CoverSpec(2, 2, 4, (4, 4), ((1, 0), (0, 1), (1, 1), (2, 2))),
    ]
    for spec in samples:
        if validate(spec) != []:
            continue
        hits = [rec for rec in rep.classes if equivalent(spec, rec.cover) is not None]
        assert len(hits) == 1


def test_strict_filter_drops_unbranched(census_cache):
    strict = census_cache(2, 1, 3)
    lax = classify(2, 1, 3, strict=False)
    assert strict.dropped_unbranched > 0
    assert len(lax.classes) > len(strict.classes)
    assert lax.match  # the closed form only concerns honestly branched covers


@pytest.mark.parametrize("p,k,n", [pt[:3] for pt in ACCEPTANCE_GRID])
def test_dropped_unbranched_counts_the_orbits_one_point_down(census_cache, p, k, n):
    """A strict census drops the orbits of kernels K holding some point
    class x_j; they number the orbits of a lax census at n - 1 points.

    The homology mod p^k of the sphere with points 1, ..., n - 1, the
    point n filled in, is (Z/p^k)^(n-1) / <x_n>.  So the kernels holding
    x_n correspond to its subgroups K / <x_n>, with the same quotient, and
    the correspondence commutes with S_(n-1), the permutations fixing n.
    Each dropped orbit meets those kernels: move j to n.  Two of them in
    one S_n orbit are in one S_(n-1) orbit: if K' = s K with K, K' both
    holding x_n, then K holds x_j, j = s^-1(n), and x_n.  For y in K with
    coefficients c_i, (j n) y - y = (c_j - c_n)(x_n - x_j) lies in K, so
    (j n) K = K and t = s (j n) fixes n with t K = K'.

    At n = 3 the quotient one point down is that of Z/p^k by K / <x_n>;
    only the trivial subgroup leaves exponent p^k, so K = <x_n>, and the
    <x_j> form one orbit.
    """
    dropped = census_cache(p, k, n).dropped_unbranched
    if n == 3:
        assert dropped == 1
    else:
        assert dropped == len(classify(p, k, n - 1, strict=False).classes)


def test_predict_examples():
    assert [pr.family for pr in predict_liftable(2, 1, 3)] == [1]
    assert [(pr.family, pr.param) for pr in predict_liftable(2, 2, 4)] == [
        (1, None),
        (2, 1),
        (3, None),
    ]
    assert [(pr.family, pr.param) for pr in predict_liftable(2, 2, 6)] == [
        (1, None),
        (2, 1),
    ]
    assert [(pr.family, pr.param) for pr in predict_liftable(2, 2, 8)] == [
        (1, None),
        (2, 1),
        (3, None),
    ]
    assert [(pr.family, pr.param) for pr in predict_liftable(3, 3, 9)] == [
        (1, None),
        (2, 1),
        (2, 2),
    ]
    with pytest.raises(ValueError):
        predict_liftable(2, 1, 2)


def test_predicted_covers_are_valid():
    for p, k, n in [(2, 1, 3), (2, 2, 4), (2, 2, 6), (3, 2, 3), (5, 1, 5)]:
        for pr in predict_liftable(p, k, n):
            assert validate(pr.cover) == []
            ker = kernel(pr.cover)
            assert fully_liftable(ker).liftable


def test_verify_classification(census_cache):
    summary = verify_classification([(2, 1, 3), (2, 1, 4), (3, 1, 3)])
    assert summary.all_match
    assert [e.liftable for e in summary.entries] == [1, 2, 2]
    # an empty grid verifies nothing, so it must not read as a match
    with pytest.raises(ValueError, match="the grid has no points"):
        verify_classification([])


def test_verify_beyond_the_default_grid():
    # n = 6 for two primes and further k = 2 points
    summary = verify_classification([(2, 1, 6), (3, 1, 6), (3, 2, 4), (5, 1, 5)])
    assert summary.all_match
    assert [e.liftable for e in summary.entries] == [2, 2, 1, 2]


def test_structural_audit_clean(census_cache):
    report = structural_audit(census_cache(2, 2, 4))
    assert report.ok
    assert len(report.entries) == 3
    # the trivial kernel passes vacuously: no constraint binds
    trivial_entries = [e for e in report.entries if order(e.kernel) == 1]
    assert trivial_entries and not trivial_entries[0].violations


def test_structure_violations_negative_control():
    # inject a nonzero entry where the zero pattern is mandatory
    exponents = (1, 1, 2)
    good = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
    assert structure_violations(exponents, good, 4, 2, 2) == []
    bad = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    violations = structure_violations(exponents, bad, 4, 2, 2)
    assert violations and "(1,2)" in violations[0]
    # the span the modified matrix generates is not fully liftable either
    ctx = ModulusContext(2, 2)
    rows = [
        tuple(2 * x % 4 for x in bad[0]),
        tuple(2 * x % 4 for x in bad[1]),
    ]
    sub = span(ctx, 3, rows)
    assert not fully_liftable(sub).liftable


def test_structure_violations_divisibility_check():
    # last-column entries must be -1 mod p^(k-r1), and p^(k-r1) must divide n
    exponents = (0, 0, 1)
    upper = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    violations = structure_violations(exponents, upper, 4, 2, 1)
    assert any("not -1" in v for v in violations)
    ok_upper = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
    assert structure_violations(exponents, ok_upper, 4, 2, 1) == []
    assert any("divisible" in v for v in structure_violations(exponents, ok_upper, 5, 2, 1))


def test_classify_two_points():
    rep = classify_two_points(2, 2)
    assert rep.all_liftable
    assert len(rep.subgroups) == 3
    assert rep.cover.factor_orders == (4,)
    assert validate(rep.cover) == []
    assert order(kernel(rep.cover)) == 1

    rep3 = classify_two_points(3, 1)
    assert rep3.all_liftable
    assert kernel(rep3.cover, strict=True) is not None
    assert classify_two_points(2, 2, bound=4).all_liftable
    with pytest.raises(BoundExceededError):
        classify_two_points(2, 2, bound=3)


def test_report_json_shape(census_cache):
    doc = report_to_json(census_cache(2, 2, 4))
    assert list(doc.keys()) == [
        "params",
        "classes",
        "predicted",
        "match",
        "counts",
        "elapsed_ms",
    ]
    assert doc["params"] == {"p": 2, "k": 2, "n": 4, "bound": 1 << 20, "strict": True}
    assert doc["match"] is True
    assert doc["counts"]["liftable"] == 3
    for entry in doc["classes"]:
        assert set(entry) == {
            "kernel",
            "form",
            "cover",
            "deck_group",
            "liftable",
            "witness",
            "size",
            "family",
            "family_param",
        }


def test_atlas_byte_stability(tmp_path, census_cache):
    report = census_cache(2, 1, 3)
    path = write_atlas(report, tmp_path)
    assert path.name == atlas_filename(2, 1, 3)
    first = path.read_bytes()
    # a rerun differs only in timing, so the file must not be rewritten
    rerun = classify(2, 1, 3)
    assert write_atlas(rerun, tmp_path) == path
    assert path.read_bytes() == first
    # changed content is rewritten
    other = classify(2, 1, 3, strict=False)
    write_atlas(other, tmp_path)
    assert path.read_bytes() != first
    doc = json.loads(path.read_text())
    assert doc["params"]["strict"] is False
    # a file that is not a JSON object is replaced, not compared
    for junk in ("5", '"ab"', "[1, 2]", "null", "{not json"):
        path.write_text(junk)
        assert write_atlas(report, tmp_path) == path
        assert path.read_bytes() == first
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


# SHA-256 of the atlas document without ``elapsed_ms`` at each acceptance
# grid point and at the benchmark's census points outside that grid,
# pinned when the census output was last known good.  A change here means
# the census output changed.
ATLAS_SHA256 = {
    (2, 1, 3): "4195d61ff8b5da4ff9b6ae335380890eb45a026d5960c29f2de7eb4f19696a65",
    (2, 1, 4): "6981044848d49417995e6cffab45725b46f0b65e4bcda6388aea2b779d7e167e",
    (2, 1, 5): "abacb558eca738c01578da03f06bdebe04030f5487241332f12700486030e9c2",
    (3, 1, 3): "70f87b921befe82283ef78e5a56f23435f568a286b59c4fd90dcd84ff9d62b22",
    (3, 1, 4): "d89861a4359346c5a9d6d261dad1b8ce68874db136dff26103f5f2cb7c2d8043",
    (2, 2, 4): "77742054b713b30bbd2a75faab52b01972137b1b71332c237a117f642929b76d",
    (2, 2, 5): "fb98c53bf640aec812e8dbc7221cbacddd6af5080e92610b2c13d82ed1c5c7a2",
    (2, 2, 6): "5b27c0e5979796e3898e15a538ca15aa2ef17e61f48888963bfeaf12b120742c",
    (3, 2, 3): "20b2e64066adff25c7a1d535a15e6f2fd12ca8dfa7f42009e2c8d4f5a3d56252",
    (2, 1, 7): "44dcc5609e8d80513ea8fbc6dc646e0d3ad73c2e37c22b2b05dc9277b98c4806",
    (2, 3, 4): "5286ef8e4779e3be471f3d27a2c0e911ef790e1cdd746cceb5f3a4501157e778",
    (3, 1, 5): "69e96fa0d4e66722a9ecd6ececfa42ff1f1443aa472267bb6ed480ff95813656",
}


@pytest.mark.parametrize("p,k,n", list(ATLAS_SHA256))
def test_atlas_document_pinned(census_cache, p, k, n):
    doc = report_to_json(census_cache(p, k, n))
    doc.pop("elapsed_ms")
    digest = hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
    assert digest == ATLAS_SHA256[(p, k, n)]


def test_classify_deterministic():
    a = classify(3, 1, 4)
    b = classify(3, 1, 4)
    assert a.classes == b.classes and a.predicted == b.predicted


def test_atlas_write_failure_keeps_previous_file(tmp_path, census_cache, monkeypatch):
    report = census_cache(2, 1, 3)
    path = write_atlas(report, tmp_path)
    before = path.read_bytes()
    real_write_text = Path.write_text

    def write_half_then_fail(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_atlas(classify(2, 1, 3, strict=False), tmp_path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("p,k,n", list(ATLAS_SHA256))
def test_atlas_rendering_is_the_standard_librarys(tmp_path, census_cache, p, k, n):
    # the atlas writer's own renderer, timing included, and the file a
    # fresh write leaves
    report = census_cache(p, k, n)
    doc = report_to_json(report)
    want = json.dumps(doc, indent=2)
    assert census._render(doc) == want
    assert write_atlas(report, tmp_path).read_text() == want + "\n"


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}],
    (1, 2), ((1,), [2, (3,)], ()), [1, True, None], [True, False], [True],
    True, False, None, 0, -5, 10**30, [-1, 0, 2**70, -(10**25)],
    [[1, -2], [3, 4]], [1, "a", [2]], {"a": 1, "b": [1, 2], "c": {"d": None}},
    "", 'say "hi"', "back\\slash", "\x00\x01\x1f\t\n\r\x7f", "caf\xe9",
    "\u65e5\u672c", "\U0001f600", {'k"\\\xe9\n': ['v"\\', "\u2028"]},
], ids=repr)
def test_render_edge_cases(value):
    assert census._render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, [1, 2.0], {1, 2}, [frozenset()], b"ab", {"a": bytearray(b"x")},
    {1: 2}, {"a": {None: 1}}, {True: 1}, [{(1, 2): 3}],
], ids=repr)
def test_render_refuses_what_an_atlas_does_not_hold(value):
    with pytest.raises(TypeError):
        census._render(value)


def test_atlas_write_memory_follows_the_file_size(tmp_path, census_cache):
    # The standard library's indented encoder collects every token of the
    # document before joining them: about 8 times the file size at its
    # peak at (2,2,6) on Python 3.11, against about 3.5 for the writer's
    # own renderer, which holds the document and at most two copies of
    # its text at once.
    report = census_cache(2, 2, 6)
    write_atlas(report, tmp_path / "warm")
    tracemalloc.start()
    try:
        path = write_atlas(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * path.stat().st_size


def test_verify_names_failing_generator_of_missing_prediction(monkeypatch):
    # A made-up fourth family whose kernel is not invariant, so the census
    # can never match it.
    original = census.predict_liftable
    bogus = CoverSpec(2, 2, 4, (2, 4), ((1, 1), (0, 1), (1, 1), (0, 1)))
    ker = kernel(bogus)
    verdict = fully_liftable(ker)
    assert not verdict.liftable

    def predict(p, k, n):
        return original(p, k, n) + [census.Predicted(4, None, bogus)]

    monkeypatch.setattr(census, "predict_liftable", predict)
    summary = verify_classification([(2, 2, 4)])
    assert not summary.all_match
    (missing,) = summary.entries[0].mismatches
    assert missing["kind"] == "missing_predicted_class"
    assert missing["kernel"]["basis"] == [list(r) for r in ker.basis]
    assert missing["witness"] == verdict.witness.cycles()
    # The orbit under every permutation of the points, with no walk.
    assert missing["size"] == len({act(alpha, ker).basis for alpha in all_perms(4)}) > 1


def test_unpredicted_liftable_class_is_a_mismatch(monkeypatch, capsys):
    # Drop family 3 from the prediction at (2,2,4): its class still lifts,
    # now with no prediction to match.
    original = census.predict_liftable

    def predict(p, k, n):
        return [pr for pr in original(p, k, n) if pr.family != 3]

    (family3,) = [pr for pr in original(2, 2, 4) if pr.family == 3]
    ker = kernel(family3.cover)
    monkeypatch.setattr(census, "predict_liftable", predict)
    report = classify(2, 2, 4)
    assert not report.match
    (rec,) = [c for c in report.liftable_classes if c.kernel.basis == ker.basis]
    assert rec.family is None and rec.family_param is None
    summary = verify_classification([(2, 2, 4)])
    assert not summary.all_match
    (unpredicted,) = summary.entries[0].mismatches
    assert unpredicted["kind"] == "unpredicted_liftable_class"
    assert unpredicted["kernel"]["basis"] == [list(r) for r in ker.basis]
    assert unpredicted["witness"] is None
    assert unpredicted["size"] == rec.size == 1
    assert cli.main(["verify", "--grid", "2,2,4"]) == 1
    assert f"kernel={unpredicted['kernel']['basis']} size=1" in capsys.readouterr().out


def test_predicted_kernels_are_distinct():
    # ``classify`` keys the predictions by kernel basis
    for p in (2, 3, 5):
        for k in range(1, 4):
            for n in range(3, 13):
                bases = [kernel(pr.cover).basis for pr in predict_liftable(p, k, n)]
                assert len(set(bases)) == len(bases), (p, k, n)
