import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storalloc.core import ProblemInstance, SolverConfig, preprocess
from storalloc.errors import GuardError, InputError
from storalloc.evaluate import exact_objective_probs
from storalloc.junta import JuntaRequest, find_optimal_junta
from storalloc.large_ci import (
    case2_kappa,
    construct_achievable_tails,
    dominance_front,
    find_near_opt_large_ci,
    front_candidates,
    shifted_threshold,
    theory_kappa_case2,
    zero_tail_dominates,
)
from storalloc.util import ln_upper, sqrt_upper

from conftest import granular_instance


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


def triple_points(inst, triples):
    ln_bound = ln_upper(F(200) / inst.epsilon)
    return [(shifted_threshold(inst, t, ln_bound), t.C) for t in triples]


def headval(head_probs, tau, budget):
    return find_optimal_junta(JuntaRequest(head_probs, tau, budget)).value


class TestKappa:
    def test_theory_value_n2_L1(self):
        # 1/(n^2 (ceil(3^1.5) + 1)) = 1/(4 * 7)
        assert theory_kappa_case2(2, 1) == F(1, 28)

    def test_practical_override(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 20))
        assert case2_kappa(inst, 1, cfg) == F(1, 20)

    def test_guard_trips_on_tiny_kappa(self, rng):
        inst = granular_instance(rng, 8, F(1, 2), F(1, 4))
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 10**6))
        with pytest.raises(GuardError) as err:
            case2_kappa(inst, 2, cfg)
        assert err.value.estimate > err.value.limit


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
        assert (t.A, t.B, t.C) == (0, 0, 0) and t.witness == ()

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
                assert {(t.A, t.B, t.C) for t in triples} == set(brute)

    def test_witnesses_reproduce_triples(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        for t in construct_achievable_tails(inst, 1, F(1, 4)):
            k = t.kappa
            assert sum((w / k) ** 2 for w in t.witness) == t.A
            assert sum(w / k for w in t.witness) == t.C
            tail_probs = inst.probs[1:]
            assert (
                sum(w * p for w, p in zip(t.witness, tail_probs))
                == t.B * k * inst.grid
            )
            assert sum(t.witness) <= 1


class TestFindNearOptLargeCI:
    def test_pool_feasible_and_sized(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        cands = find_near_opt_large_ci(inst, 2, F(1, 4))
        triples = construct_achievable_tails(inst, 2, F(1, 4))
        front = brute_front(triple_points(inst, triples))
        assert [c.triple for c in cands] == [triples[i] for i in front]
        for c in cands:
            assert all(w >= 0 for w in c.weights)
            assert sum(c.weights) <= 1

    def test_zero_triple_is_plain_junta(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        cands = find_near_opt_large_ci(inst, 1, F(1, 4))
        zero = next(c for c in cands if (c.triple.A, c.triple.B, c.triple.C) == (0, 0, 0))
        assert zero.shifted_threshold == inst.theta
        assert zero.head_budget == 1
        assert all(w == 0 for w in zero.weights[1:])

    def test_shifted_threshold_formula(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        for c in find_near_opt_large_ci(inst, 2, F(1, 4)):
            t = c.triple
            mu = t.B * t.kappa * inst.grid
            shift = t.kappa * sqrt_upper(ln_upper(F(200) / inst.epsilon) * t.A)
            assert c.shifted_threshold == inst.theta - mu + shift
            assert c.head_budget == 1 - t.C * t.kappa

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
    points = triple_points(inst, triples)
    assert all(tau >= inst.theta for tau, _ in points)
    skipped = find_near_opt_large_ci(inst, L, kappa)
    assert skipped == front_candidates(inst, L, kappa)
    assert [c.triple for c in skipped] == [triples[0]]


# n = 16, p about 0.72 and kappa = 1/14: the 14 tail slots hold enough
# p^2 that the skip test fails, and 1 of the 11308 triples has tau < theta.
NONTRIVIAL_FRONT = (
    (0.74, 0.73, 0.73, 0.72, 0.72, 0.72, 0.72, 0.72, 0.72, 0.72, 0.72, 0.71, 0.71, 0.71, 0.70, 0.70),
    2,
    F(1, 14),
)


def test_nontrivial_front_pinned():
    probs, L, kappa = NONTRIVIAL_FRONT
    inst = preprocess(probs, F(1, 2), F(1, 4), F(1, 20)).instance
    assert not zero_tail_dominates(inst, L, kappa)
    triples = construct_achievable_tails(inst, L, kappa)
    points = triple_points(inst, triples)
    assert len(triples) == 11308
    assert sum(tau < inst.theta for tau, _ in points) == 1
    cands = find_near_opt_large_ci(inst, L, kappa)
    assert [(c.triple.A, c.triple.B, c.triple.C) for c in cands] == [(0, 0, 0), (14, 2559, 14)]
    assert cands[1].shifted_threshold < inst.theta
    kept = [(c.shifted_threshold, c.triple.C) for c in cands]
    for tau, c in points:
        assert any(kt <= tau and kc <= c for kt, kc in kept)


def test_input_checks_precede_skip(rng):
    inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
    assert zero_tail_dominates(inst, 2, F(1, 4))
    for kappa in (F(0), F(-1, 4), F(5, 4)):
        with pytest.raises(InputError):
            find_near_opt_large_ci(inst, 2, kappa)
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
