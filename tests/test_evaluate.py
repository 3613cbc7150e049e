import functools
import logging
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storalloc import evaluate
from storalloc.core import ProblemInstance
from storalloc.errors import GuardError, InputError
from storalloc.evaluate import (
    DiscreteDist,
    EmpiricalDist,
    ObjectiveEstimate,
    exact_objective_probs,
    kolmogorov_distance,
    linear_form_dist,
    mc_estimate_probs,
    mc_hit_counts,
    sample_tail_empirical,
    _chunk_rows,
    _packed_draws,
)

from conftest import (
    dfs_objective,
    fraction_hit_counts,
    fraction_tail_empirical,
    granular_instance,
    naive_objective,
    raw_lanes,
    sampled_rows,
    with_one_retry,
)


def small_instance():
    return ProblemInstance((F(1, 2), F(1, 2)), F(3, 5), F(2, 5), F(1, 20), (0, 1))


class TestExactObjective:
    def test_spec_examples(self):
        assert exact_objective_probs([F(1, 2)] * 2, [F(1, 2)] * 2, F(3, 5)) == F(1, 4)
        # all weight on the first node: event is X_1 = 1
        assert exact_objective_probs([F(7, 10), F(2, 5)], [1, 0], F(1, 2)) == F(7, 10)
        w = (F(1, 4), F(1, 4), F(1, 6), F(1, 6), F(1, 6))
        assert exact_objective_probs([F(9, 10)] * 5, w, F(5, 12)) == F(99711, 100000)

    def test_boundary_is_success(self):
        # w.x == theta counts
        assert exact_objective_probs([F(1, 2)], [F(1, 2)], F(1, 2)) == F(1, 2)

    def test_matches_naive_enumeration(self, rng):
        for _ in range(120):
            n = rng.randint(1, 6)
            probs = [F(rng.randint(1, 19), 20) for _ in range(n)]
            w = [F(rng.randint(0, 10), 20) for _ in range(n)]
            if sum(w) > 1:
                s = sum(w)
                w = [x / s for x in w]
            theta = F(rng.randint(1, 19), 20)
            assert exact_objective_probs(probs, w, theta) == naive_objective(probs, w, theta)

    def test_grouping_path_matches_naive_on_duplicates(self, rng):
        for _ in range(60):
            n = rng.randint(4, 10)
            values = [F(rng.randint(0, 4), 8) for _ in range(2)]
            w = [values[rng.randint(0, 1)] for _ in range(n)]
            if sum(w) > 1:
                s = sum(w)
                w = [x / s for x in w]
            probs = [F(rng.randint(1, 9), 10) for _ in range(n)]
            theta = F(rng.randint(1, 9), 10)
            assert exact_objective_probs(probs, w, theta) == naive_objective(probs, w, theta)

    def test_grouping_handles_large_n(self):
        # uniform split over 200 nodes: far beyond enumeration, 1 distinct weight
        probs = [F(9, 10)] * 200
        w = [F(1, 100)] * 100 + [F(0)] * 100
        value = exact_objective_probs(probs, w, F(1, 2))
        assert 0 <= value <= 1
        # Pr[Binomial(100, .9) >= 50] is essentially 1
        assert value > F(999, 1000)

    def test_monotone_in_theta(self, rng):
        probs = [F(3, 5), F(1, 2), F(2, 5)]
        w = [F(1, 2), F(1, 4), F(1, 4)]
        values = [
            exact_objective_probs(probs, w, F(t, 12)) for t in range(1, 13)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_probs(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            probs = [F(rng.randint(1, 8), 10) for _ in range(n)]
            bumped = [min(p + F(1, 10), F(9, 10)) for p in probs]
            w = [F(rng.randint(0, 4), 8) for _ in range(n)]
            theta = F(rng.randint(1, 9), 10)
            assert exact_objective_probs(probs, w, theta) <= exact_objective_probs(
                bumped, w, theta
            )

    def test_rescaling_never_hurts(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            probs = [F(rng.randint(1, 9), 10) for _ in range(n)]
            w = [F(rng.randint(0, 3), 12) for _ in range(n)]
            total = sum(w)
            if total == 0 or total >= 1:
                continue
            theta = F(rng.randint(1, 9), 10)
            scaled = [x / total for x in w]
            assert exact_objective_probs(probs, scaled, theta) >= exact_objective_probs(
                probs, w, theta
            )

    def test_sorted_weights_never_hurt(self, rng):
        # with p sorted descending, sorting w descending only helps
        for _ in range(40):
            n = rng.randint(2, 5)
            probs = sorted((F(rng.randint(1, 9), 10) for _ in range(n)), reverse=True)
            w = [F(rng.randint(0, 6), 12) for _ in range(n)]
            if sum(w) > 1:
                s = sum(w)
                w = [x / s for x in w]
            theta = F(rng.randint(1, 9), 10)
            w_sorted = sorted(w, reverse=True)
            assert exact_objective_probs(probs, w_sorted, theta) >= exact_objective_probs(
                probs, w, theta
            )

    def test_instance_probs_and_theta(self):
        inst = small_instance()
        assert exact_objective_probs(inst.probs, [F(1, 2), F(1, 2)], inst.theta) == F(1, 4)

    def test_thirty_distinct_grid_weights_evaluate(self):
        # 30 singleton groups, but every sum is a multiple of 1/1000 in
        # [0, 0.465]: each half law holds at most 466 values
        probs = [F(1, 2)] * 30
        w = [F(i + 1, 1000) for i in range(30)]
        # sum(w) = 0.465, so 1/5 is a threshold the vector can reach
        assert exact_objective_probs(probs, w, F(1, 5)) == dfs_objective(probs, w, F(1, 5))

    @pytest.mark.parametrize("theta", [F(1, 4), F(1, 3)])
    def test_many_coordinates_few_groups(self, theta):
        # 30 coordinates in 13 groups: 12 distinct weights and one weight
        # shared by 18, so at most 2^12 * 19 sums, far within SUPPORT_LIMIT
        probs = [F(i, 32) for i in range(1, 31)]
        w = [F(i, 997) for i in range(1, 13)] + [F(1, 50)] * 18
        assert exact_objective_probs(probs, w, theta) == dfs_objective(probs, w, theta)

    def test_trivial_thresholds_answer_before_the_guards(self):
        # the same out-of-reach vector as above: theta <= 0 is certain and
        # theta > sum(w) impossible, whatever the guards say
        probs = [F(1, 2)] * 30
        w = [F(i + 1, 1000) for i in range(30)]
        assert exact_objective_probs(probs, w, F(0)) == 1
        assert exact_objective_probs(probs, w, F(-1, 2)) == 1
        assert exact_objective_probs(probs, w, F(2)) == 0
        assert exact_objective_probs(probs, w, sum(w) + F(1, 10**9)) == 0

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_matches_dfs_on_distinct_weights(self, seed):
        # shaped like the benchmark's n = 22 evaluations: distinct weights
        # summing to 1 on eps/(4n)-grid probabilities, theta 1/2
        rng = random.Random(seed)
        n = rng.randint(20, 22)
        probs = granular_instance(rng, n, F(1, 2), F(1, 4)).probs
        raw = rng.sample(range(1, 1 << 10), n)
        w = [F(v, sum(raw)) for v in raw]
        assert exact_objective_probs(probs, w, F(1, 2)) == dfs_objective(probs, w, F(1, 2))

    def test_support_limit_edge(self, monkeypatch):
        # w . x = k / (2^n - 1) for the integer k with binary digits x, and
        # every k is equally likely: Pr[w . X >= t / (2^n - 1)] = (2^n - t) / 2^n.
        # At n = 24 and 25 the halves hold 2^12 and 2^13 values at most.
        for n in (24, 25):
            top = (1 << n) - 1
            w = [F(1 << i, top) for i in range(n)]
            probs = [F(1, 2)] * n
            for t in (1, 2, 3, 12_345, 1 << (n - 1), top - 1, top):  # every t is a reachable sum
                assert exact_objective_probs(probs, w, F(t, top)) == F((1 << n) - t, 1 << n)
            for t in (0, 12_345, top - 1):  # between two sums: the same as the next one up
                assert exact_objective_probs(probs, w, F(2 * t + 1, 2 * top)) == F((1 << n) - t - 1, 1 << n)
        # n = 25: the left half takes 13 singletons, whose law doubles to 2^13
        # values at its last copy; 2^12 refuses there, 2^13 admits it
        big = (1 << 25) - 1
        probs, w = [F(1, 2)] * 25, [F(1 << i, big) for i in range(25)]
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 1 << 12)
        with pytest.raises(GuardError) as info:
            exact_objective_probs(probs, w, F(1, 2))
        assert (info.value.estimate, info.value.limit) == (1 << 13, 1 << 12)
        assert str(info.value) == "exact law support exceeds 4096"
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 1 << 13)
        assert exact_objective_probs(probs, w, F(1, 2)) == F((1 << 25) - (big + 1) // 2, 1 << 25)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact_objective_probs", "linear_form_dist"])
    def test_a_law_at_the_limit_evaluates_and_one_more_value_refuses(self, monkeypatch, exact):
        # one group of k coordinates of weight 1/8 holds k + 1 values, one
        # more per shifted copy; the exact evaluation puts it in the left half
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 8)

        def run(k):
            probs, w = [F(1, 2)] * k, [F(1, 8)] * k
            return exact_objective_probs(probs, w, F(1, 2)) if exact else linear_form_dist(w, probs).values

        # Pr[Bin(7, 1/2) >= 4] = 1/2
        assert run(7) == (F(1, 2) if exact else tuple(F(c, 8) for c in range(8)))
        for k in (8, 20):  # a group of 20 refuses at its ninth copy, not its last
            with pytest.raises(GuardError) as info:
                run(k)
            assert (info.value.estimate, info.value.limit) == (9, 8)

    def test_debug_line_reports_the_half_laws(self, caplog):
        # 3 weights, 2 coordinates each: every group counts 0, 1 or 2.  The
        # halves are {1/4, 1/16}, whose 4 c + c' (in 1/16 units) takes 9
        # values, and {1/8}, which takes 3.
        probs, w = [F(1, 2)] * 6, [F(1, 4), F(1, 4), F(1, 8), F(1, 8), F(1, 16), F(1, 16)]
        with caplog.at_level(logging.DEBUG, logger="storalloc.evaluate"):
            value = exact_objective_probs(probs, w, F(1, 2))
        assert value == naive_objective(probs, w, F(1, 2))
        assert caplog.records[-1].getMessage() == (
            "exact_objective_probs: n=6 active, 3 groups, half laws of 9 and 3 values"
        )


@functools.lru_cache(maxsize=None)
def _denominators(max_den):
    # built once per bound, and drawn without one_of, which builds a
    # sampled_from strategy on every draw
    return st.integers(1, 64), st.integers(1, max_den)


# one strategy for every numerator, instead of an integers strategy built
# per draw: a draw inside the range is the numerator, as integers(low, high)
# would draw it (shrinking towards 0), and one outside wraps into it, so
# both ends are reachable
_NUMERATORS = st.integers(-(1 << 64), 1 << 64)


@st.composite
def rationals(draw, lo, hi, max_den=1 << 40):
    """A Fraction in [lo, hi]; small and huge denominators both occur."""
    small, large = _denominators(max_den)
    den = draw(small if draw(st.booleans()) else large)
    low, high = math.ceil(lo * den), math.floor(hi * den)
    return F(low + (draw(_NUMERATORS) - low) % (high - low + 1), den)


grid_probs = st.integers(0, 20).map(lambda k: F(k, 20))


@st.composite
def exact_cases(draw):
    n = draw(st.integers(0, 10))
    probs = draw(st.lists(st.one_of(grid_probs, rationals(0, 1)), min_size=n, max_size=n))
    if draw(st.booleans()):
        # a few repeated values, so coordinates group
        values = draw(st.lists(st.integers(0, 8).map(lambda k: F(k, 8 * max(n, 1))), min_size=1, max_size=3))
        weights = [draw(st.sampled_from(values)) for _ in range(n)]
    else:
        # distinct values: every group is a singleton
        weights = draw(st.lists(rationals(0, F(1, max(n, 1)), max_den=1 << 12), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        # a reachable sum, so some outcomes tie with theta
        chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        theta = sum((w for w, b in zip(weights, chosen) if b), F(0))
    else:
        theta = draw(rationals(F(-1, 4), F(5, 4), max_den=64))
    return probs, weights, theta


# 13 distinct weights, every coordinate its own group: 2^13 combinations.
@example(([F(k, 20) for k in range(3, 16)], [F(k, 120) for k in range(1, 14)], F(1, 2)))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(exact_cases())
def test_exact_matches_naive_property(case):
    probs, weights, theta = case
    expected = naive_objective(probs, weights, theta)
    assert exact_objective_probs(probs, weights, theta) == expected
    law = linear_form_dist(weights, probs)
    assert sum((p for v, p in zip(law.values, law.probs) if v >= theta), F(0)) == expected


class TestLinearFormDist:
    def test_two_coin_distribution(self):
        dist = linear_form_dist([F(1, 2), F(1, 4)], [F(1, 2), F(1, 2)])
        assert dist.values == (F(0), F(1, 4), F(1, 2), F(3, 4))
        assert all(p == F(1, 4) for p in dist.probs)

    def test_mass_at_least_matches_objective(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            probs = [F(rng.randint(1, 9), 10) for _ in range(n)]
            w = [F(rng.randint(0, 6), 12) for _ in range(n)]
            theta = F(rng.randint(1, 12), 12)
            dist = linear_form_dist(w, probs)
            mass = sum(p for v, p in zip(dist.values, dist.probs) if v >= theta)
            assert mass == naive_objective(probs, w, theta)

    def test_support_limit_checked_after_each_group(self, monkeypatch):
        w, probs = [F(1, 2), F(1, 4), F(1, 8)], [F(1, 2)] * 3
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 8)
        assert len(linear_form_dist(w, probs).values) == 8
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 5)
        with pytest.raises(GuardError) as info:
            linear_form_dist(w, probs)  # 2, 4, then 8 values
        assert (info.value.estimate, info.value.limit) == (8, 5)


class TestKolmogorov:
    def test_identical_is_zero(self):
        d = EmpiricalDist.from_points([0, F(1, 2), 1])
        assert kolmogorov_distance(d, d) == 0

    def test_disjoint_point_masses(self):
        assert kolmogorov_distance([0], [1]) == 1

    def test_uniform_supports(self):
        assert kolmogorov_distance([0, 1], [0, F(1, 2), 1]) == F(1, 6)

    def test_against_dense_scan(self, rng):
        # exact sup over jump points equals a dense scan over candidate t
        for _ in range(40):
            a = [F(rng.randint(0, 8), 8) for _ in range(rng.randint(1, 6))]
            b = [F(rng.randint(0, 8), 8) for _ in range(rng.randint(1, 6))]
            da, db = EmpiricalDist.from_points(a), EmpiricalDist.from_points(b)
            got = kolmogorov_distance(da, db)
            support = sorted(set(a) | set(b))
            best = F(0)
            for t in support:
                fa = F(sum(1 for x in a if x <= t), len(a))
                fb = F(sum(1 for x in b if x <= t), len(b))
                best = max(best, abs(fa - fb))
            assert got == best


class TestSampling:
    def test_mc_deterministic(self):
        inst = small_instance()
        w = [F(1, 2), F(1, 2)]
        a = mc_estimate_probs(inst.probs, w, inst.theta, 50_000, seed=11)
        b = mc_estimate_probs(inst.probs, w, inst.theta, 50_000, seed=11)
        assert a.value == b.value
        c = mc_estimate_probs(inst.probs, w, inst.theta, 50_000, seed=12)
        assert a.value != c.value  # different seed, almost surely different

    def test_threads_other_than_one_rejected(self):
        inst = small_instance()
        for threads in (0, 2):
            with pytest.raises(InputError, match="threads must be 1"):
                mc_estimate_probs(inst.probs, [F(1), F(0)], inst.theta, 10, seed=1, threads=threads)
            with pytest.raises(InputError, match="threads must be 1"):
                sample_tail_empirical(inst, [F(1, 2)], 10, seed=1, threads=threads)

    def test_theta_zero_like_event_always_succeeds(self):
        # weights summing over theta for every outcome with a 1 anywhere is
        # not guaranteed; use the all-weight vector with theta tiny instead
        inst = ProblemInstance((F(1, 2), F(1, 2)), F(1, 100), F(2, 5), F(1, 20), (0, 1))
        est = mc_estimate_probs(inst.probs, [F(1, 2), F(1, 2)], inst.theta, 1000, seed=0)
        # only the all-zero outcome fails
        assert abs(float(est.value) - 0.75) < 0.05

    def test_single_sample_is_zero_or_one(self):
        inst = small_instance()
        est = mc_estimate_probs(inst.probs, [F(1, 2), F(1, 2)], inst.theta, 1, seed=5)
        assert est.value in (F(0), F(1))

    def test_packed_buffer_guard_refuses_before_drawing(self, monkeypatch):
        # PACKED_LIMIT patched down to 2 000 draws of 8 bytes (n <= 64) or
        # 1 000 of 16 (n = 65): at the limit a call samples, past it both
        # samplers refuse with estimate and limit before their first draw,
        # on the width drawn (all n here), and so does a sample of one chunk
        # (1 000 draws of 24 bytes at n = 129)
        monkeypatch.setattr(evaluate, "PACKED_LIMIT", 16_000)
        inst = small_instance()
        w = [F(1, 2), F(1, 2)]
        assert mc_estimate_probs(inst.probs, w, inst.theta, 2_000, seed=0).m == 2_000
        drawn = []
        monkeypatch.setattr(evaluate, "derived_bits", lambda *parts: drawn.append(parts))
        calls = [
            (lambda: mc_estimate_probs(inst.probs, w, inst.theta, 2_001, seed=0), 8 * 2_001),
            (lambda: sample_tail_empirical(inst, [F(1, 2)], 2_001, seed=0), 8 * 2_001),
            (lambda: mc_estimate_probs([F(1, 2)] * 65, [F(1, 65)] * 65, F(1, 2), 1_025, seed=0), 16 * 1_025),
            (lambda: mc_estimate_probs([F(1, 2)] * 129, [F(1, 129)] * 129, F(1, 2), 1_000, seed=0), 24 * 1_000),
        ]
        for call, estimate in calls:
            with pytest.raises(GuardError) as info:
                call()
            assert (info.value.estimate, info.value.limit) == (estimate, 16_000)
        assert drawn == []

    def test_mc_chernoff_example_m40000(self):
        # exact Obj = 1/4; 100 seeds at m=40000: at least 95 within +-0.02
        inst = small_instance()
        w = [F(1, 2), F(1, 2)]

        def check(base):
            good = 0
            for s in range(100):
                est = mc_estimate_probs(inst.probs, w, inst.theta, 40_000, seed=1000 * base + s)
                if abs(est.value - F(1, 4)) <= F(2, 100):
                    good += 1
            assert good >= 95

        with_one_retry(check)

    def test_mc_concentration_at_section6_sample_size(self):
        # m = ceil((1/eps^2) ln(1/delta)) with mc_constant 1: the |mc-exact|
        # <= eps frequency must be at least 1-delta over seeds
        inst = small_instance()
        w = [F(1, 2), F(1, 2)]
        eps, delta = 0.1, 0.1
        m = math.ceil(1 / eps**2 * math.log(1 / delta))
        exact = F(1, 4)

        def check(base):
            seeds = [7000 * (base + 1) + s for s in range(100)]
            estimates = [mc_estimate_probs(inst.probs, w, inst.theta, m, seed) for seed in seeds]
            good = sum(abs(est.value - exact) <= F(1, 10) for est in estimates)
            assert good >= 90

        with_one_retry(check)

    def test_tail_sampling_reproducible_and_exact_valued(self):
        inst = small_instance()
        d1 = sample_tail_empirical(inst, [F(1, 2)], 40, seed=3)
        d2 = sample_tail_empirical(inst, [F(1, 2)], 40, seed=3)
        assert d1 == d2
        assert set(d1.values) <= {F(0), F(1, 2)}

    def test_tail_zero_weights(self):
        inst = small_instance()
        d = sample_tail_empirical(inst, [F(0), F(0)], 10, seed=1)
        assert d.values == (F(0),) and d.m == 10

    def test_tail_mean_close_to_expectation(self):
        probs = tuple([F(9, 10)] * 2)
        inst = ProblemInstance(probs, F(1, 2), F(1, 20), F(1, 20), (0, 1))
        d = sample_tail_empirical(inst, [F(3, 10), F(1, 5)], 100_000, seed=9)
        mean = sum(v * c for v, c in zip(d.values, d.counts)) / d.m
        assert abs(float(mean) - 0.45) < 0.01

    def test_dkw_acceptance(self):
        # m = ceil(ln(2/delta')/(2 eps'^2)); failure fraction over 200 trials
        # must stay within 2 * delta' * 1.5
        inst = ProblemInstance(
            (F(7, 10), F(1, 2), F(3, 10)), F(1, 2), F(1, 5), F(1, 20), (0, 1, 2)
        )
        tail = [F(1, 4), F(1, 8), F(1, 8)]
        eps_p, delta_p = 0.2, 0.1
        m = math.ceil(math.log(2 / delta_p) / (2 * eps_p**2))
        exact_law = linear_form_dist(tail, inst.probs)

        def check(base):
            bad = 0
            for trial in range(200):
                emp = sample_tail_empirical(inst, tail, m, seed=31_000 * (base + 1) + trial)
                if kolmogorov_distance(emp, exact_law) > F(1, 5):
                    bad += 1
            assert bad <= 200 * 2 * delta_p * 1.5

        with_one_retry(check)

    def test_errors(self):
        inst = small_instance()
        with pytest.raises(InputError):
            mc_estimate_probs(inst.probs, [F(1, 2)], inst.theta, 10, seed=0)  # wrong length
        with pytest.raises(InputError):
            mc_estimate_probs(inst.probs, [F(1, 2), F(1, 2)], inst.theta, 0, seed=0)


@st.composite
def mc_cases(draw):
    n = draw(st.integers(0, 80))  # packed rows of 0 to 10 bytes, across the 8-byte word
    probs = draw(st.lists(grid_probs, min_size=n, max_size=n))
    weight = rationals(0, F(3, 2 * max(n, 1)))
    vectors = draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=1, max_size=6))
    theta = draw(rationals(F(-1, 2), F(3, 2)))
    return probs, vectors, theta, draw(st.integers(1, 300)), draw(st.integers(0, 1 << 32))


HALVES = [F(1, 2)] * 3
# each p_i is exactly the first draw's lane u_i over 2^16, so X_i = 0 (the
# lane's interval lies at or above p_i): at theta = 1 that draw is no hit,
# and a <= in the sampler's comparison would hit
AT_FIRST_DRAW = [F(u, 1 << 16) for u in raw_lanes(7, 0, 1)[0]]


@example((AT_FIRST_DRAW, [[F(1, 4)] * 4], F(1), 1, 7))
@example((HALVES, [[F(1, 3)] * 3, [F(1, 2), 0, F(1, 4)]], F(0), 50, 1))  # theta <= 0: all hit
@example((HALVES, [[F(1, 3)] * 3, [F(1, 2), 0, F(1, 4)]], F(-1, 2), 50, 1))
@example((HALVES, [[F(1, 3)] * 3, [F(1, 2), 0, F(1, 4)]], F(1) + F(1, 1 << 40), 50, 1))  # above every sum
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mc_cases())
def test_hit_counts_match_fraction_oracle(case):
    # one call per vector, all on the same draws: m <= 300 within one
    # chunk, packed and classified by byte tables like any other sample
    probs, vectors, theta, m, seed = case
    got = [mc_hit_counts(probs, w, theta, m, seed) for w in vectors]
    assert got == fraction_hit_counts(probs, vectors, theta, m, seed)


@st.composite
def tail_cases(draw):
    n = draw(st.integers(1, 80))
    grid = F(1, 16 * n)  # eps/(4n) at eps = 1/4; p_1 < 3/4
    probs = sorted(draw(st.lists(st.integers(1, 12 * n - 1), min_size=n, max_size=n)), reverse=True)
    inst = ProblemInstance(tuple(grid * k for k in probs), F(1, 2), F(1, 4), F(1, 20), tuple(range(n)))
    length = draw(st.integers(0, n))
    tail = draw(st.lists(rationals(0, F(1, 2)), min_size=length, max_size=length))
    return inst, tail, draw(st.integers(1, 300)), draw(st.integers(0, 1 << 32))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(tail_cases())
def test_tail_sample_matches_fraction_oracle(case):
    inst, tail, m, seed = case
    values, counts = fraction_tail_empirical(inst.probs[inst.n - len(tail):], tail, m, seed)
    assert sample_tail_empirical(inst, tail, m, seed) == EmpiricalDist(values, counts, m)


WIDE = (1 << 63) + 1  # a weight (WIDE - 1)/WIDE scales past int64: object dtype


@st.composite
def prefix_cases(draw):
    n = draw(st.integers(1, 40))  # up to 5 packed bytes
    width = draw(st.integers(1, n))
    probs = draw(st.lists(grid_probs, min_size=n, max_size=n))
    others = draw(st.lists(grid_probs, min_size=n - width, max_size=n - width))
    weight = rationals(0, F(3, 2 * width))
    vectors = draw(st.lists(st.lists(weight, min_size=width, max_size=width), min_size=1, max_size=4))
    if draw(st.booleans()):
        vectors[0][0] = F(WIDE - 1, WIDE)
    theta = draw(rationals(F(-1, 2), F(3, 2)))
    return probs, others, vectors, theta, draw(st.integers(1, 300)), draw(st.integers(0, 1 << 32))


@example(([F(1, 2)] * 17, [F(1, 20)] * 8, [[F(1, 9)] * 9, [F(WIDE - 1, WIDE)] + [F(0)] * 8], F(1, 2), 200, 1))
@example(([F(1, 2)] * 16, [F(0)] * 8, [[F(1, 8)] * 8], F(1, 2), 200, 1))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(prefix_cases())
def test_prefix_draws_depend_only_on_the_prefix_probs(case):
    # width-w vectors over n >= w probabilities: the draws cover the first
    # w coordinates alone, so the counts are the oracle's on probs[:w], and
    # other probabilities past w change nothing
    probs, others, vectors, theta, m, seed = case
    width = len(vectors[0])
    expected = fraction_hit_counts(probs[:width], vectors, theta, m, seed)
    assert [mc_hit_counts(probs, w, theta, m, seed) for w in vectors] == expected
    assert [mc_hit_counts(probs[:width] + others, w, theta, m, seed) for w in vectors] == expected


class TestKernel:
    @pytest.mark.parametrize(
        "n, tail, bytes_per_draw",
        [(64, [F(k % 3, 64) for k in range(64)], 12), (8, [F(WIDE - 1 - k, WIDE) for k in range(8)], 10)],
        ids=["n64-int64", "n8-object"],
    )
    def test_tail_sampler_memory_is_the_rows_plus_blocks(self, n, tail, bytes_per_draw):
        # dots are taken per row block, so the peak is the packed rows
        # (8 and 1 bytes per draw) plus one block's dots, not an int64 or
        # a Python int per draw (24.1 and 58.0 bytes per draw when all m
        # dots were held at once)
        m = 1 << 20
        inst = ProblemInstance(
            tuple(F(12 * n - 1 - i, 16 * n) for i in range(n)), F(1, 2), F(1, 4), F(1, 20), tuple(range(n))
        )
        tracemalloc.start()
        try:
            dist = sample_tail_empirical(inst, tail, m, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.m == m and len(dist.values) > 1
        assert peak <= bytes_per_draw * m

    def test_chunks_merge(self):
        # m crosses a chunk: both classifiers read chunk 1 after chunk 0
        m = _chunk_rows(10) + 5_000
        probs = [F(k, 12) for k in range(1, 11)]
        vectors = [[F(1, 10)] * 10, [F(k, 55) for k in range(1, 11)]]
        theta = F(1, 2)
        got = [mc_hit_counts(probs, w, theta, m, 17) for w in vectors]
        assert got == fraction_hit_counts(probs, vectors, theta, m, 17)
        inst = ProblemInstance(tuple(F(k, 40) for k in range(29, 19, -1)), theta, F(1, 4), F(1, 20), tuple(range(10)))
        values, counts = fraction_tail_empirical(inst.probs, vectors[1], m, 17)
        assert sample_tail_empirical(inst, vectors[1], m, 17) == EmpiricalDist(values, counts, m)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 129])
    def test_packed_rows_match_the_raw_stream(self, n):
        # m crosses a chunk; at every width the rows are np.packbits of the
        # reference's draws over the first width coordinates (rebuilt from
        # the raw lanes), in draw order, ceil(width/8) bytes wide
        probs = [F(i % 5 + 1, 7) for i in range(n)]
        for width in sorted({n, n // 2, max(n - 9, 0), min(n, 1)}):
            m = _chunk_rows(width) + 1_000
            bits = np.array(sampled_rows(probs[:width], m, 23), dtype=bool).reshape(m, width)
            rows = _packed_draws(probs, m, 23, width)
            assert rows.shape == (m, (width + 7) // 8) and rows.dtype == np.uint8
            assert np.array_equal(rows, np.packbits(bits, axis=1))

    def test_forced_straddle_matches_the_reference(self):
        # p = (3 u0 + 1) / (3 2^16) lies strictly inside the first lane's
        # interval (u0, u0 + 1) / 2^16 of (seed 5, chunk 0), so that lane
        # straddles p and its bit comes from the chunk's next raw words;
        # every row matches the reference, the first one included
        lanes, _ = raw_lanes(5, 0, 2)
        u0, v = lanes[0], lanes[4]  # the first lane, and the low 16 bits of the second word
        p = F(3 * u0 + 1, 3 << 16)
        assert F(u0, 1 << 16) < p < F(u0 + 1, 1 << 16)
        m = 3 * _chunk_rows(2) // 2  # one chunk and a half
        bits = np.array(sampled_rows([p, F(1, 3)], m, 5), dtype=bool)
        rows = np.unpackbits(_packed_draws([p, F(1, 3)], m, 5, 2), axis=1)[:, :2]
        assert np.array_equal(rows, bits)
        # one draw over one coordinate reads one word for its lane; p just
        # above or at the refined interval (u0 2^16 + v, +1) / 2^32 of the
        # straddle makes its bit 1 or 0
        assert 0 < v < (1 << 16) - 1
        for p, bit in ((F((u0 << 16) + v + 1, 1 << 32), 1), (F((u0 << 16) + v, 1 << 32), 0)):
            assert F(u0, 1 << 16) < p < F(u0 + 1, 1 << 16)
            assert mc_hit_counts([p], [F(1)], F(1), 1, 5) == bit

    def test_boundary_lanes_read_no_further_words(self):
        # A lane whose interval ends exactly at p is settled at once: its
        # lower end at p gives 0 and its upper end 1, with no further word.
        # Column 0 meets p at the first lane's lower end, or at the upper
        # end of that lane refined by word 2; column 1 straddles
        # p1 = (3 u1 + 1) / (3 2^16) and is settled by the next unread
        # word w, 1 iff its low 16 bits are at most 21 844.  The seed is
        # the first where words 2, 3 and 4 settle column 1 alternately,
        # so a word read too many shows.
        def settles(lanes, word):
            return int(lanes[4 * (word - 1)] <= 21_844)

        def alternating(seed):
            lanes, _ = raw_lanes(seed, 0, 4)
            return settles(lanes, 2) != settles(lanes, 3) != settles(lanes, 4)

        seed = next(s for s in range(100) if alternating(s))
        lanes, _ = raw_lanes(seed, 0, 4)
        p1 = F(3 * lanes[1] + 1, 3 << 16)
        for p0, expected in (
            (F(lanes[0], 1 << 16), (0, settles(lanes, 2))),
            (F((lanes[0] << 16) + lanes[4] + 1, 1 << 32), (1, settles(lanes, 3))),
        ):
            rows = np.unpackbits(_packed_draws([p0, p1], 1, seed, 2), axis=1)[:, :2]
            assert tuple(rows[0].tolist()) == expected == sampled_rows([p0, p1], 1, seed)[0]

    def test_certain_columns_never_straddle(self):
        # p = 0 draws 0 and p = 1 draws 1 on every lane, 65 535 included,
        # which against p = 1 sits at the top of the 16-bit range: the
        # seed is the first whose chunk 0 has that lane in the p = 1 column
        probs = [F(0), F(1), F(1, 3)]
        m = _chunk_rows(3)
        seed = next(s for s in range(100) if 65_535 in raw_lanes(s, 0, -(-3 * m // 4))[0][1:3 * m:3])
        rows = np.unpackbits(_packed_draws(probs, m, seed, 3), axis=1)[:, :3]
        assert not rows[:, 0].any() and rows[:, 1].all()
        assert np.array_equal(rows, np.array(sampled_rows(probs, m, seed), dtype=np.uint8))

    @staticmethod
    def _branch_probs(columns, width, seed):
        # Probabilities for one branch of the draw loop, over width columns.
        # "exact": every p 2^16 an integer, so no lane is scanned for ties;
        # column 0 is p = u0 / 2^16 for the first lane u0, so that lane sits
        # at its digit and gives 0, and columns 1 and 2 are p = 0 and 1/2.
        # "mixed": exact and straddling k/7 columns, with column 0 forced to
        # straddle at chunk 0's first lane (in a long-row tile) and column 1
        # at chunk 1's last lane in it (past its whole tiles when m is
        # _chunk_rows(width) + 1 000).  "certain": p = 1 beside exact
        # columns, in the column of a lane of 65 535.
        lanes, _ = raw_lanes(seed, 0, 15 * width)
        probs = [F(1 + 7 * j % 1023, 1024) for j in range(width)]
        probs[:3] = [F(lanes[0], 1 << 16), F(0), F(1, 2)]
        if columns == "mixed":
            last = raw_lanes(seed, 1, 250 * width)[0][999 * width + 1]
            probs[:2] = [F(3 * lanes[0] + 1, 3 << 16), F(3 * last + 1, 3 << 16)]
            probs[3::2] = [F(j % 6 + 1, 7) for j in range(3, width, 2)]
        elif columns == "certain":
            probs[lanes.index(65_535) % width] = F(1)
        return probs

    @staticmethod
    def _seed_with_a_top_lane(width):
        # the first seed whose chunk 0 has a lane of 65 535 among its first 60 draws
        return next(s for s in range(10_000) if 65_535 in raw_lanes(s, 0, 15 * width)[0])

    @pytest.mark.parametrize("width", [8, 9, 64, 65])
    @pytest.mark.parametrize("columns", ["exact", "mixed", "certain"])
    def test_each_branch_of_the_draw_loop_matches_the_reference(self, columns, width):
        # m = _chunk_rows(width) + 1 000 ends in a partial tile of long
        # rows (widths 8 and 64) and m = 60 is one tile; widths 9 and 65
        # are padded to whole bytes and never tiled
        seed = self._seed_with_a_top_lane(width)
        probs = self._branch_probs(columns, width, seed)
        for m in (_chunk_rows(width) + 1_000, 60):
            bits = np.array(sampled_rows(probs, m, seed), dtype=bool)
            assert np.array_equal(_packed_draws(probs, m, seed, width), np.packbits(bits, axis=1))

    @pytest.mark.parametrize("columns", ["exact", "certain"])
    def test_exact_columns_read_only_their_lanes(self, monkeypatch, columns):
        # an all-exact chunk draws its lanes in one random_raw call and
        # settles no lane, not even the one at its digit; beside a p = 1
        # column the lanes at their digits are settled, its lane of 65 535
        # among them, and none reads a further word
        seed = self._seed_with_a_top_lane(8)
        probs = self._branch_probs(columns, 8, seed)
        reads, settled = [], []
        derived_bits, straddle_bit = evaluate.derived_bits, evaluate._straddle_bit

        class Spy:
            def __init__(self, *parts):
                self.bitgen = derived_bits(*parts)

            def random_raw(self, *size):
                reads.append(size)
                return self.bitgen.random_raw(*size)

        def spy_straddle(u, *rest):
            settled.append(u)
            return straddle_bit(u, *rest)

        monkeypatch.setattr(evaluate, "derived_bits", Spy)
        monkeypatch.setattr(evaluate, "_straddle_bit", spy_straddle)
        rows = np.unpackbits(_packed_draws(probs, 60, seed, 8), axis=1)
        assert np.array_equal(rows, np.array(sampled_rows(probs, 60, seed), dtype=np.uint8))
        assert reads == [(60 * 8 // 4,)]
        assert (settled == []) if columns == "exact" else (65_535 in settled)

    @pytest.mark.parametrize(
        "dtype, vectors, n, m",
        [(np.int64, 1, 20, 50), (np.int64, 3, 20, 50), (object, 2, 20, 50), (np.int64, 2, 0, 5), (object, 1, 0, 5),
         (np.int64, 3, 17, 1)],
        ids=["int64-V1", "int64-V3", "object", "int64-no-bytes", "object-no-bytes", "one-row"],
    )
    def test_byte_dots_is_the_sum_of_its_lookups(self, dtype, vectors, n, m):
        # each dot is the plain sum of one table entry per byte column;
        # rows carry one byte column more than the tables, which is ignored
        rng = np.random.default_rng(n * 100 + m)
        offset = 1 << 70 if dtype is object else 0
        columns = np.array(rng.integers(-1000, 1000, (n, vectors)), dtype=object) + offset
        tables = evaluate._byte_tables(columns.astype(dtype))
        rows = rng.integers(0, 256, (m, (n + 7) // 8 + 1), dtype=np.uint8)
        dots = evaluate._byte_dots(tables, rows)
        expected = [
            [sum(int(tables[j, row[j], v]) for j in range(len(tables))) for v in range(vectors)] for row in rows.tolist()
        ]
        assert dots.shape == (m, vectors) and dots.dtype == tables.dtype
        assert dots.tolist() == expected

    @pytest.mark.parametrize("grid", [1024, 7])
    def test_draws_hold_the_rows_and_one_chunk(self, grid):
        # one chunk's bool block and raw words, and its ties, at a time:
        # the traced peak stays within the packed rows plus 4.5 bytes per
        # chunk lane (a fresh block per chunk, drawn while the last chunk's
        # words were alive, read 857 KiB here)
        probs = [F(300 + 5 * j, 1024) for j in range(64)] if grid == 1024 else [F(j % 6 + 1, 7) for j in range(64)]
        _packed_draws(probs, 100, 1, 64)
        tracemalloc.start()
        try:
            rows = _packed_draws(probs, 25_000, 1, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows.nbytes + 4.5 * evaluate.CHUNK_LANES

    def test_column_frequencies_within_a_chernoff_bound(self):
        # each column's frequency over m draws is within the Hoeffding radius
        # sqrt(ln(2 k / delta) / (2 m)) of its p, delta = 10^-6 over k columns
        probs = [F(1, 3), F(2, 7), F(1, 2), F(999_999, 1_000_000), F(1, 1 << 20), F(5, 6), F(12_345, 65_536), F(0)]
        m = 200_000
        rows = np.unpackbits(_packed_draws(probs, m, 11, len(probs)), axis=1)[:, : len(probs)]
        radius = math.sqrt(math.log(2 * len(probs) / 1e-6) / (2 * m))
        for p, ones in zip(probs, rows.sum(axis=0).tolist()):
            assert abs(ones / m - float(p)) <= radius

    @pytest.mark.parametrize("n", [9, 65])
    def test_block_size_leaves_outputs_unchanged(self, monkeypatch, n):
        # BLOCK_BYTES = 64 puts 8 rows in a dot block; the draws and every
        # output stay the same
        m = _chunk_rows(n - 2) + 300
        inst = ProblemInstance(
            tuple(F(12 * n - 1 - 5 * i, 16 * n) for i in range(n)), F(1, 2), F(1, 4), F(1, 20), tuple(range(n))
        )
        d = (1 << 63) + 1  # the third vector's scaled sum is d: object dtype
        vectors = [
            [F(1, n)] * n,
            [F(i + 1, n * n) for i in range(n)],
            [F(d // 3 - 1, d), F(d // 3 + 1, d), F(1, 3)] + [F(0)] * (n - 3),
        ]
        tail = vectors[1][: n - 2]

        def outputs():
            return (
                _packed_draws(inst.probs, m, 5, n - 2).tobytes(),
                [mc_hit_counts(inst.probs, w, F(1, 2), m, seed=5) for w in vectors],
                sample_tail_empirical(inst, tail, m, seed=5),
            )

        default = outputs()
        monkeypatch.setattr(evaluate, "BLOCK_BYTES", 64)
        assert outputs() == default

    def _classify(self, caplog, vector, theta):
        probs = [F(1, 2)] * 3
        with caplog.at_level(logging.DEBUG, logger="storalloc.evaluate"):
            got = mc_hit_counts(probs, vector, theta, 2_000, seed=3)
        assert [got] == fraction_hit_counts(probs, [vector], theta, 2_000, 3)
        return got, caplog.records[-1].getMessage()

    def test_scaled_sum_past_int64_goes_to_object(self, caplog):
        # D = 2^63 + 1 is the lcm; each D w_j fits int64 but their sum does
        # not, so an int64 dot of (1, 1, 1) would wrap below D theta.
        d = (1 << 63) + 1
        vector = [F(d // 3 - 1, d), F(d // 3 + 1, d), F(1, 3)]
        hits, message = self._classify(caplog, vector, F(1, 3))
        assert message.endswith(", object dtype")
        assert hits > 0

    def test_scaled_sum_at_int64_max_stays_int64(self, caplog):
        d = (1 << 63) - 1  # the lcm; the scaled weights sum to exactly d
        a = 2 * (d // 7) - 1
        vector = [F(a, d), F(a, d), F(d - 2 * a, d)]
        _, message = self._classify(caplog, vector, F(3, 7))
        assert message.endswith(", int64 dtype")

    @pytest.mark.parametrize("m", [1024, 1025])
    def test_dtype_rule_holds_unpacked_and_packed(self, caplog, m):
        # at 1 024 draws and one more (both within one chunk, and both
        # packed), each vector's dtype is its own: a scaled sum past int64
        # goes to object dtype and one at exactly int64 max stays on int64,
        # named in that call's DEBUG line with its m
        big, d = (1 << 63) + 1, (1 << 63) - 1
        a = 2 * (d // 7) - 1
        vectors = [[F(big // 3 - 1, big), F(big // 3 + 1, big), F(1, 3)], [F(a, d), F(a, d), F(d - 2 * a, d)]]
        probs, theta = [F(1, 2)] * 3, F(3, 7)  # 7 divides d: D = d for the second
        got = []
        for w, dtype in zip(vectors, ("object", "int64")):
            with caplog.at_level(logging.DEBUG, logger="storalloc.evaluate"):
                got.append(mc_hit_counts(probs, w, theta, m, seed=3))
            message = caplog.records[-1].getMessage()
            assert message.startswith(f"mc_hit_counts: m={m}, ") and message.endswith(f", {dtype} dtype")
        assert got == fraction_hit_counts(probs, vectors, theta, m, 3)

    @pytest.mark.parametrize("m", [0, -5])
    def test_nonpositive_m_is_input_error(self, m):
        with pytest.raises(InputError, match="m must be >= 1"):
            mc_hit_counts([F(1, 2)] * 3, [F(1, 3)] * 3, F(1, 2), m, seed=1)
        inst = ProblemInstance((F(1, 2), F(1, 2)), F(1, 2), F(1, 4), F(1, 20), (0, 1))
        with pytest.raises(InputError, match="m must be >= 1"):
            sample_tail_empirical(inst, [F(1, 2), F(1, 2)], m, seed=1)


# Each entry point that takes (probs, weights) as given, with its other
# arguments fixed.
ENTRY_POINTS = {
    "exact": lambda probs, w: exact_objective_probs(probs, w, F(1, 2)),
    "linear_form_dist": lambda probs, w: linear_form_dist(w, probs),
    "mc": lambda probs, w: mc_estimate_probs(probs, w, F(1, 2), 1000, seed=0),
}


class TestInputCheck:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_bad_probs_and_weights(self, entry):
        call = ENTRY_POINTS[entry]
        call([F(1, 2), 1, 0], [F(1, 2), F(1, 4), F(1, 4)])  # endpoints are valid
        bad = [
            ([F(1, 2), F(1, 2)], [F(1, 2)], "length mismatch"),
            ([F(3, 2), F(1, 2), F(-1, 5)], [F(1, 3)] * 3, r"\[0,1\]"),
            ([F(1, 2), F(-1, 5)], [F(1, 2), F(1, 2)], r"\[0,1\]"),
            ([F(1, 2), F(1, 2)], [F(1, 2), F(-1, 4)], "non-negative"),
        ]
        for probs, w, message in bad:
            with pytest.raises(InputError, match=message):
                call(probs, w)


class TestSampleCounts:
    # m and seed follow SolverConfig's integer rule (util.to_int)
    CALLS = {
        "mc": lambda m, seed: mc_estimate_probs([F(1, 2), F(2, 3)], [F(1, 2)] * 2, F(1, 2), m, seed),
        "tail": lambda m, seed: sample_tail_empirical(small_instance(), [F(1, 4)], m, seed),
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    @pytest.mark.parametrize("bad", [2.5, 1500.0, "10", True, np.float64(10), None])
    def test_non_integers_refused(self, entry, bad):
        with pytest.raises(InputError, match="m must be an integer"):
            self.CALLS[entry](bad, 0)
        with pytest.raises(InputError, match="seed must be an integer"):
            self.CALLS[entry](10, bad)

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_numpy_integers_convert(self, entry):
        assert self.CALLS[entry](np.int64(100), np.int32(3)) == self.CALLS[entry](100, 3)

    def test_estimate_carries_python_ints(self):
        est = mc_estimate_probs([F(1, 2)], [F(1)], F(1, 2), np.int64(10), np.uint8(3))
        assert (type(est.m), type(est.seed), est.m, est.seed) == (int, int, 10, 3)


class TestTypes:
    def test_objective_estimate_kinds(self):
        ObjectiveEstimate(F(1, 2), "exact")
        ObjectiveEstimate(F(1, 2), "monte_carlo", m=1, seed=None)
        ObjectiveEstimate(F(1, 2), "monte_carlo", m=10, seed=3)
        bad = [
            (dict(kind="monte_carlo"), "m >= 1"),
            (dict(kind="monte_carlo", m=0, seed=3), "m >= 1"),
            (dict(kind="monte_carlo", m=-2), "m >= 1"),
            (dict(kind="exact", m=10), "m=0 and no seed"),
            (dict(kind="exact", seed=3), "m=0 and no seed"),
            (dict(kind="exact", seed=0), "m=0 and no seed"),
            (dict(kind="sampled", m=10), "unknown estimate kind"),
        ]
        for kwargs, message in bad:
            with pytest.raises(InputError, match=message):
                ObjectiveEstimate(F(1, 2), **kwargs)

    def test_discrete_dist_validation(self):
        with pytest.raises(InputError):
            DiscreteDist((F(0), F(0)), (F(1, 2), F(1, 2)))  # unsorted/dup
        with pytest.raises(InputError):
            DiscreteDist((F(0),), (F(1, 2),))  # doesn't sum to 1

    def test_empirical_roundtrip(self):
        d = EmpiricalDist.from_points([F(1, 2), 0, F(1, 2)])
        assert (d.values, d.counts, d.m) == ((F(0), F(1, 2)), (1, 2), 3)
        dd = d.to_discrete()
        assert dd.probs == (F(1, 3), F(2, 3))
