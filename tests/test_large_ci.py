import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storalloc import large_ci
from storalloc.core import ProblemInstance, SolverConfig, compute_kappas, preprocess, theory_kappa_case2
from storalloc.driver import solve
from storalloc.errors import GuardError, InputError
from storalloc.evaluate import exact_objective_probs
from storalloc.junta import JuntaRequest, find_optimal_junta
from storalloc.large_ci import (
    TailTriple,
    construct_achievable_tails,
    dominance_front,
    find_near_opt_large_ci,
    front_candidates,
    live_slots,
    shifted_threshold,
    tail_state_bound,
    zero_tail_dominates,
)
from storalloc.util import ln_lower, ln_upper, sqrt_upper

from conftest import full_tail_triples, granular_instance, max_b_keys


def brute_force_triples(tail_probs, kappa, grid):
    """All (A,B,C) triples over granular tails, by direct enumeration."""
    jmax = int(1 / kappa)
    out = {}
    for combo in itertools.product(range(jmax + 1), repeat=len(tail_probs)):
        if sum(combo) > jmax:
            continue
        A = sum(j * j for j in combo)
        B = sum(j * int(p / grid) for j, p in zip(combo, tail_probs))
        C = sum(combo)
        out.setdefault((A, B, C), tuple(F(j) * kappa for j in combo))
    return out


def brute_front(points):
    """Positions of the (tau, C) points no other point dominates.

    j dominates i when tau_j <= tau_i and C_j <= C_i; of equal points the
    first one stays.
    """
    return [
        i
        for i, (tau, c) in enumerate(points)
        if not any(
            tj <= tau and cj <= c and ((tj, cj) != (tau, c) or j < i)
            for j, (tj, cj) in enumerate(points)
        )
    ]


def reference_front(inst, L, kappa):
    """front_candidates over every reachable triple (conftest.full_tail_triples)."""
    def every_triple(inst, L, kappa, config):
        return full_tail_triples(inst, L, kappa)

    with mock.patch.object(large_ci, "construct_achievable_tails", every_triple):
        return front_candidates(inst, L, kappa)


def triple_points(inst, triples, kappa):
    ln_bound = ln_upper(F(200) / inst.epsilon)
    return [(shifted_threshold(inst, t, kappa, ln_bound), t.C) for t in triples]


def headval(head_probs, tau, budget):
    return find_optimal_junta(JuntaRequest(head_probs, tau, budget)).value


class TestKappa:
    def test_theory_value_n2_L1(self):
        # 1/(n^2 (ceil(3^1.5) + 1)) = 1/(4 * 7)
        assert theory_kappa_case2(2, 1) == F(1, 28)

    def test_practical_override(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 20))
        assert compute_kappas(inst, 1, cfg) == (F(1, 20), F(1, 20))
        assert compute_kappas(inst, 3, cfg) == (None, F(1, 20))  # L = n: no tail for Case 2

    def test_guard_trips_on_tiny_kappa(self, rng):
        # the guard sits in the DP, ahead of any state: choosing kappa is free
        inst = granular_instance(rng, 8, F(1, 2), F(1, 4))
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 10**6))
        assert compute_kappas(inst, 2, cfg)[0] == F(1, 10**6)
        with mock.patch.object(large_ci, "sorted", side_effect=AssertionError("the DP ran"), create=True):
            with pytest.raises(GuardError) as err:
                construct_achievable_tails(inst, 2, F(1, 10**6), cfg)
        assert err.value.estimate > err.value.limit == cfg.state_space_limit

    def test_guard_admits_a_bound_equal_to_the_limit(self, rng):
        inst = granular_instance(rng, 8, F(1, 2), F(1, 4))
        kappa = F(1, 4)
        bound = tail_state_bound(live_slots(inst, 2, kappa), kappa)
        assert bound == 25  # min(5^4, (4^3 + 2 * 4 + 3) // 3) over 4 live slots
        assert construct_achievable_tails(inst, 2, kappa, SolverConfig(state_space_limit=bound))
        with pytest.raises(GuardError) as err:
            construct_achievable_tails(inst, 2, kappa, SolverConfig(state_space_limit=bound - 1))
        assert (err.value.estimate, err.value.limit) == (bound, bound - 1)


class TestConstructAchievableTails:
    def test_spec_projection_example(self, rng):
        # two tail slots at p=1/2, kappa=1/2
        inst = granular_instance(rng, 2, F(1, 2), F(2, 5), lo=F(1, 2), hi=F(1, 2))
        triples = construct_achievable_tails(inst, 0, F(1, 2))
        assert {(t.A, t.C) for t in triples} == {(0, 0), (1, 1), (2, 2), (4, 2)}

    def test_empty_tail(self, rng):
        inst = granular_instance(rng, 2, F(1, 2), F(1, 4))
        triples = construct_achievable_tails(inst, 2, F(1, 2))
        assert len(triples) == 1
        t = triples[0]
        assert t == TailTriple(0, 0, 0, ())

    def test_dp_matches_brute_force(self, rng):
        # acceptance criterion 3 exercises the full sweep; this is the
        # module-level spot check
        for n_tail in (1, 2, 3):
            for denom in (2, 4, 8):
                inst = granular_instance(rng, n_tail + 1, F(1, 2), F(1, 4))
                kappa = F(1, denom)
                L = 1
                triples = construct_achievable_tails(inst, L, kappa)
                brute = brute_force_triples(inst.probs[L:], kappa, inst.grid)
                assert {(t.A, t.B, t.C) for t in triples} == max_b_keys(brute)
                assert {(t.A, t.B, t.C) for t in full_tail_triples(inst, L, kappa)} == set(brute)

    def test_witnesses_reproduce_triples(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        k = F(1, 4)
        for t in construct_achievable_tails(inst, 1, k):
            # one (slot, j) pair per filled tail slot, slots ascending
            slots = [slot for slot, _ in t.path]
            assert slots == sorted(set(slots)) and all(1 < slot <= inst.n for slot in slots)
            tail = [j * k for _, j in t.path]
            assert all(w > 0 for w in tail)
            assert sum((w / k) ** 2 for w in tail) == t.A
            assert sum(w / k for w in tail) == t.C
            assert sum(j * k * inst.probs[slot - 1] for slot, j in t.path) == t.B * k * inst.grid
            assert sum(tail) <= 1


class TestFindNearOptLargeCI:
    def test_pool_feasible_and_sized(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        cands = find_near_opt_large_ci(inst, 2, F(1, 4))
        triples = construct_achievable_tails(inst, 2, F(1, 4))
        front = brute_front(triple_points(inst, triples, F(1, 4)))
        assert [c.triple for c in cands] == [triples[i] for i in front]
        for c in cands:
            assert all(w >= 0 for w in c.weights)
            assert sum(c.weights) <= 1
            # the tail is the triple's path, j units of kappa on each slot
            assert c.weights[:2] == c.head.weights
            assert [(i, w / F(1, 4)) for i, w in enumerate(c.weights, 1) if i > 2 and w] == list(c.triple.path)

    def test_zero_triple_is_plain_junta(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        cands = find_near_opt_large_ci(inst, 1, F(1, 4))
        zero = next(c for c in cands if (c.triple.A, c.triple.B, c.triple.C) == (0, 0, 0))
        assert zero.shifted_threshold == inst.theta
        assert zero.head_budget == 1
        assert all(w == 0 for w in zero.weights[1:])

    def test_shifted_threshold_formula(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        kappa = F(1, 4)
        for c in find_near_opt_large_ci(inst, 2, kappa):
            t = c.triple
            mu = t.B * kappa * inst.grid
            shift = kappa * sqrt_upper(ln_upper(F(200) / inst.epsilon) * t.A)
            assert c.shifted_threshold == inst.theta - mu + shift
            assert c.head_budget == 1 - t.C * kappa
            assert shifted_threshold(inst, t, kappa, ln_upper(F(200) / inst.epsilon)) == c.shifted_threshold

    def test_tiny_instance_covers_oracle_within_eps(self, rng):
        # n=3, L=1, practical kappa=1/4: some pool member (together with the
        # junta candidate) reaches opt - eps for eps = 0.3
        from storalloc.baselines import brute_force_optimum
        from storalloc.junta import JuntaRequest, find_optimal_junta

        for _ in range(5):
            inst = granular_instance(rng, 3, F(1, 2), F(3, 10))
            opt = brute_force_optimum(inst).opt_value
            cands = find_near_opt_large_ci(inst, 1, F(1, 4))
            junta = find_optimal_junta(JuntaRequest(inst.probs[:1], inst.theta, F(1)))
            best = max(
                [exact_objective_probs(inst.probs, c.weights, inst.theta) for c in cands]
                + [exact_objective_probs(inst.probs, junta.weights + (F(0), F(0)), inst.theta)]
            )
            assert best >= opt - F(3, 10)


@st.composite
def front_requests(draw):
    L = draw(st.integers(min_value=1, max_value=3))
    head = tuple(sorted((F(draw(st.integers(1, 19)), 20) for _ in range(L)), reverse=True))
    jmax = draw(st.integers(min_value=1, max_value=6))
    # a coarse tau grid and few C values, so ties and dominance both occur
    points = draw(
        st.lists(
            st.tuples(st.integers(-4, 12).map(lambda k: F(k, 8)), st.integers(0, jmax)),
            min_size=1,
            max_size=12,
        )
    )
    return head, F(1, jmax), points


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(front_requests())
def test_front_drops_only_dominated_points(request):
    head, kappa, points = request
    kept = dominance_front(points)
    assert kept == brute_front(points)
    # tau ascending and W strictly rising along the front
    by_tau = sorted(points[i] for i in kept)
    assert all(a[0] < b[0] and a[1] > b[1] for a, b in zip(by_tau, by_tau[1:]))
    for i, (tau, c) in enumerate(points):
        if i in kept:
            continue
        keeper = next(points[j] for j in kept if points[j][0] <= tau and points[j][1] <= c)
        # the kept head's junta value is at least the dropped one's
        assert headval(head, keeper[0], 1 - keeper[1] * kappa) >= headval(head, tau, 1 - c * kappa)


@st.composite
def small_case2_instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    eps = draw(st.sampled_from([F(1, 4), F(1, 10), F(3, 10)]))
    grid = eps / (4 * n)
    top = int((1 - eps) / grid) - 1  # keeps p_1 < 1 - eps
    probs = tuple(sorted((grid * draw(st.integers(1, top)) for _ in range(n)), reverse=True))
    theta = F(draw(st.integers(1, 9)), 10)
    inst = ProblemInstance(probs, theta, eps, F(1, 20), tuple(range(n)))
    L = draw(st.integers(min_value=1, max_value=n - 1))
    kappa = F(1, draw(st.integers(min_value=1, max_value=6)))
    return inst, L, kappa


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(small_case2_instances())
def test_skip_matches_dp_path(case):
    inst, L, kappa = case
    # at most 5 tail slots with p < 1 - eps: the skip holds on every draw
    assert zero_tail_dominates(inst, L, kappa)
    triples = construct_achievable_tails(inst, L, kappa)
    points = triple_points(inst, triples, kappa)
    assert all(tau >= inst.theta for tau, _ in points)
    skipped = find_near_opt_large_ci(inst, L, kappa)
    assert skipped == front_candidates(inst, L, kappa)
    assert [c.triple for c in skipped] == [triples[0]]


@st.composite
def tied_case2_instances(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    eps = draw(st.sampled_from([F(1, 4), F(1, 10), F(3, 10)]))
    grid = eps / (4 * n)
    top = int((1 - eps) / grid) - 1  # keeps p_1 < 1 - eps
    # at most three distinct p's, so many paths reach one (A, B, C) or (A, C)
    levels = draw(st.lists(st.integers(1, top), min_size=1, max_size=3))
    probs = tuple(sorted((grid * draw(st.sampled_from(levels)) for _ in range(n)), reverse=True))
    inst = ProblemInstance(probs, F(draw(st.integers(1, 9)), 10), eps, F(1, 20), tuple(range(n)))
    L = draw(st.integers(min_value=1, max_value=min(n - 1, 3)))  # heads the junta enumerates fast
    kappa = F(1, draw(st.integers(min_value=1, max_value=9)))
    return inst, L, kappa


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tied_case2_instances())
def test_kept_triples_are_the_max_b_projection(case):
    inst, L, kappa = case
    full = full_tail_triples(inst, L, kappa)
    kept = max_b_keys((t.A, t.B, t.C) for t in full)
    triples = construct_achievable_tails(inst, L, kappa)
    # the same triples, paths included, in the same order, although the DP
    # stops at slot L + min(n - L, J) and the reference runs to slot n
    assert triples == [t for t in full if (t.A, t.B, t.C) in kept]
    assert len(triples) <= tail_state_bound(inst.n - L, kappa)
    assert front_candidates(inst, L, kappa) == reference_front(inst, L, kappa)


def assert_zero_triple_answers_the_junta_request(inst, L, kappa):
    # the first candidate is the zero triple's, and its head is the junta's
    # answer to (probs[:L], theta, 1), on the skip path and on the DP path
    junta = find_optimal_junta(JuntaRequest(inst.probs[:L], inst.theta, F(1)))
    for build in (find_near_opt_large_ci, front_candidates):
        zero = build(inst, L, kappa)[0]
        assert zero.triple == TailTriple(0, 0, 0, ())
        assert (zero.shifted_threshold, zero.head_budget) == (inst.theta, 1)
        assert zero.head == junta
        assert zero.weights == junta.weights + (F(0),) * live_slots(inst, L, kappa)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(tied_case2_instances())
def test_zero_triple_head_is_the_junta(case):
    assert_zero_triple_answers_the_junta_request(*case)


@st.composite
def skip_test_instances(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    # eps numerators above 1 leave grid numerators above 1
    eps = draw(st.sampled_from([F(1, 4), F(1, 10), F(3, 10), F(7, 100), F(1, 1000)]))
    grid = eps / (4 * n)
    top = -(-(1 - eps) // grid) - 1  # the largest unit count below 1 - eps
    lo = draw(st.integers(1, top))
    probs = tuple(sorted((grid * draw(st.integers(lo, top)) for _ in range(n)), reverse=True))
    inst = ProblemInstance(probs, F(1, 2), eps, F(1, 20), tuple(range(n)))
    return inst, draw(st.integers(1, n - 1)), F(1, draw(st.integers(1, 40)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(skip_test_instances())
def test_skip_test_on_units_matches_the_fraction_sum(case):
    inst, L, kappa = case
    slots = min(inst.n - L, int(1 / kappa))
    fraction_test = sum(p * p for p in inst.probs[L : L + slots]) <= ln_lower(F(200) / inst.epsilon)
    assert zero_tail_dominates(inst, L, kappa) == fraction_test


@pytest.mark.parametrize("n_slots", [0, 1, 2, 3, 6, 12, 40])
@pytest.mark.parametrize("J", [1, 2, 3, 5, 8, 13, 32, 247])
def test_state_bound_is_the_count_of_tails_or_pairs(n_slots, J):
    # (J+1)^n_slots granular tails, or the (A, C) pairs with C <= A <= C^2
    pairs = 1 + sum(len(range(C, C * C + 1)) for C in range(1, J + 1))
    assert tail_state_bound(n_slots, F(1, J)) == min((J + 1) ** n_slots, pairs)
    # the DP reads min(n_slots, J) slots under the guard of all n_slots
    assert tail_state_bound(min(n_slots, J), F(1, J)) == tail_state_bound(n_slots, F(1, J))


# n = 16, p about 0.72 and kappa = 1/14: the 14 tail slots hold enough
# p^2 that the skip test fails, and 1 of the 11308 reachable triples has
# tau < theta.
NONTRIVIAL_FRONT = (
    (0.74, 0.73, 0.73, 0.72, 0.72, 0.72, 0.72, 0.72, 0.72, 0.72, 0.72, 0.71, 0.71, 0.71, 0.70, 0.70),
    2,
    F(1, 14),
)


def test_nontrivial_front_pinned():
    probs, L, kappa = NONTRIVIAL_FRONT
    inst = preprocess(probs, F(1, 2), F(1, 4), F(1, 20)).instance
    assert not zero_tail_dominates(inst, L, kappa)
    # the guard's pin moved to kappa 1/400; here the DP fits the default limit
    with pytest.raises(GuardError) as err:
        construct_achievable_tails(inst, L, F(1, 400))
    assert err.value.estimate == 21_333_601 > err.value.limit
    triples = construct_achievable_tails(inst, L, kappa)
    full = full_tail_triples(inst, L, kappa)
    assert (len(triples), len(full), tail_state_bound(inst.n - L, kappa)) == (280, 11308, 925)
    points = triple_points(inst, full, kappa)
    assert sum(tau < inst.theta for tau, _ in points) == 1
    cands = find_near_opt_large_ci(inst, L, kappa)
    assert cands == reference_front(inst, L, kappa)
    assert [(c.triple.A, c.triple.B, c.triple.C) for c in cands] == [(0, 0, 0), (14, 2559, 14)]
    assert cands[1].shifted_threshold < inst.theta
    kept = [(c.shifted_threshold, c.triple.C) for c in cands]
    for tau, c in points:
        assert any(kt <= tau and kc <= c for kt, kc in kept)


def test_skip_test_holds_when_both_sides_are_equal():
    # a log bound of exactly sum p_i^2 over the live slots: lhs == rhs
    inst = preprocess(NONTRIVIAL_FRONT[0], F(1, 2), F(1, 4), F(1, 20)).instance
    L, kappa = 2, F(1, 14)
    squares = sum(p * p for p in inst.probs[L : L + live_slots(inst, L, kappa)])
    for bound, skips in ((squares, True), (squares - F(1, 10**12), False)):
        with mock.patch.object(large_ci, "_skip_log_bound", return_value=bound):
            assert zero_tail_dominates(inst, L, kappa) is skips


def test_wide_equal_p_instance_solves_at_the_default_limit():
    # n = 20 at p = 0.72, kappa 1/16, L = 2: the skip fails, and the DP's
    # bound is 1377 states (the old estimate, 22378018 cells, was refused)
    inst = preprocess([0.72] * 20, 0.5, 0.25, 0.05).instance
    assert not zero_tail_dominates(inst, 2, F(1, 16))
    assert tail_state_bound(inst.n - 2, F(1, 16)) == 1377
    cands = find_near_opt_large_ci(inst, 2, F(1, 16))
    assert cands == reference_front(inst, 2, F(1, 16))
    assert [c.triple.C for c in cands] == [0, 13, 14, 15, 16]
    cfg = SolverConfig(mode="practical", kappa_override=F(1, 16), L_cap=2)
    rep = solve([0.72] * 20, 0.5, 0.25, 0.05, cfg)
    assert (rep.provenance, rep.per_case_counts["largeCI"]) == ("largeCI", 5)


@pytest.mark.parametrize(
    "probs, L, kappa",
    [NONTRIVIAL_FRONT, ([0.72] * 20, 2, F(1, 16))],
    ids=["nontrivial-front", "wide-equal-p"],
)
def test_zero_triple_head_is_the_junta_on_wide_fronts(probs, L, kappa):
    # fronts with members that spend tail weight (C > 0), where the DP runs
    inst = preprocess(probs, F(1, 2), F(1, 4), F(1, 20)).instance
    assert not zero_tail_dominates(inst, L, kappa)
    assert any(c.triple.C > 0 for c in find_near_opt_large_ci(inst, L, kappa))
    assert_zero_triple_answers_the_junta_request(inst, L, kappa)


def test_input_checks_precede_skip(rng):
    inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
    assert zero_tail_dominates(inst, 2, F(1, 4))
    for kappa in (F(0), F(-1, 4), F(5, 4)):
        with pytest.raises(InputError):
            find_near_opt_large_ci(inst, 2, kappa)
    with pytest.raises(InputError):
        construct_achievable_tails(inst, 2, F(0))
    for L in (0, 4, 5):
        with pytest.raises(InputError):
            find_near_opt_large_ci(inst, L, F(1, 4))


@pytest.mark.parametrize("eps", [F(1, 100), F(1, 20), F(59, 1000), F(1, 10), F(1, 4), F(1, 2), F(9, 10)])
def test_skip_holds_at_kappa_one_ninth(eps):
    # p within two grid steps of the 1 - eps cap in every tail slot: the
    # module docstring's claim that the skip holds at every kappa >= 1/9
    n = 12
    grid = eps / (4 * n)
    p = grid * (int((1 - eps) / grid) - 1)
    inst = ProblemInstance((p,) * n, F(1, 2), eps, F(1, 20), tuple(range(n)))
    for kappa in (F(1, 9), F(1, 4), F(1)):
        assert zero_tail_dominates(inst, 1, kappa)
