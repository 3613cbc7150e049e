import logging
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storalloc.core import ProblemInstance
from storalloc.driver import PoolMember, shared_mc_estimates
from storalloc.errors import GuardError, InputError
from storalloc.evaluate import (
    SAMPLE_CHUNK,
    DiscreteDist,
    EmpiricalDist,
    exact_objective_probs,
    kolmogorov_distance,
    linear_form_dist,
    mc_estimate_probs,
    mc_hit_counts,
    sample_tail_empirical,
    _pattern_counts,
)
from storalloc.util import derived_rng

from conftest import fraction_hit_counts, fraction_tail_empirical, naive_objective, with_one_retry


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

    def test_too_large_raises(self):
        probs = [F(1, 2)] * 30
        w = [F(i + 1, 1000) for i in range(30)]  # 30 distinct values
        with pytest.raises(GuardError):
            # sum(w) = 0.465, so 1/5 is a threshold the vector can reach
            exact_objective_probs(probs, w, F(1, 5), max_n=22)

    def test_trivial_thresholds_answer_before_the_guards(self):
        # the same out-of-reach vector as above: theta <= 0 is certain and
        # theta > sum(w) impossible, whatever the guards say
        probs = [F(1, 2)] * 30
        w = [F(i + 1, 1000) for i in range(30)]
        assert exact_objective_probs(probs, w, F(0), max_n=22) == 1
        assert exact_objective_probs(probs, w, F(-1, 2), max_n=22) == 1
        assert exact_objective_probs(probs, w, F(2), max_n=22) == 0
        assert exact_objective_probs(probs, w, sum(w) + F(1, 10**9), max_n=22) == 0


@st.composite
def rationals(draw, lo, hi, max_den=1 << 40):
    """A Fraction in [lo, hi]; small and huge denominators both occur."""
    den = draw(st.one_of(st.integers(1, 64), st.integers(1, max_den)))
    return F(draw(st.integers(math.ceil(lo * den), math.floor(hi * den))), den)


grid_probs = st.integers(0, 20).map(lambda k: F(k, 20))


@st.composite
def exact_cases(draw):
    n = draw(st.integers(0, 8))
    probs = draw(st.lists(grid_probs, min_size=n, max_size=n))
    if draw(st.booleans()):
        # a few repeated values, so coordinates group
        values = draw(st.lists(st.integers(0, 8).map(lambda k: F(k, 8 * max(n, 1))), min_size=1, max_size=3))
        weights = [draw(st.sampled_from(values)) for _ in range(n)]
    else:
        # distinct values: every group is a singleton
        weights = draw(st.lists(rationals(0, F(1, max(n, 1)), max_den=1 << 12), min_size=n, max_size=n, unique=True))
    return probs, weights, draw(rationals(F(-1, 4), F(5, 4), max_den=64))


# 13 distinct weights exceed MAX_GROUPS, so the singleton enumeration runs.
@example(([F(k, 20) for k in range(3, 16)], [F(k, 120) for k in range(1, 14)], F(1, 2)))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(exact_cases())
def test_exact_matches_naive_property(case):
    probs, weights, theta = case
    assert exact_objective_probs(probs, weights, theta) == naive_objective(probs, weights, theta)


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

    def test_hit_counts_match_single_vector_estimates(self):
        probs = [F(3, 5), F(1, 2), F(2, 5)]
        vectors = [
            (F(1, 2), F(1, 2), F(0)),
            (F(1, 3), F(1, 3), F(1, 3)),
            (F(1), F(0), F(0)),
        ]
        hits = mc_hit_counts(probs, vectors, F(1, 2), 3_000, seed=4)
        for w, h in zip(vectors, hits):
            assert F(h, 3_000) == mc_estimate_probs(probs, w, F(1, 2), 3_000, seed=4).value
        assert len(set(hits)) == 3  # the vectors really differ on this sample

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
    n = draw(st.integers(0, 12))
    probs = draw(st.lists(grid_probs, min_size=n, max_size=n))
    weight = rationals(0, F(3, 2 * max(n, 1)))
    vectors = draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=1, max_size=6))
    theta = draw(rationals(F(-1, 2), F(3, 2)))
    return probs, vectors, theta, draw(st.integers(1, 300)), draw(st.integers(0, 1 << 32))


HALVES = [F(1, 2)] * 3


@example((HALVES, [[F(1, 3)] * 3, [F(1, 2), 0, F(1, 4)]], F(0), 50, 1))  # theta <= 0: all hit
@example((HALVES, [[F(1, 3)] * 3, [F(1, 2), 0, F(1, 4)]], F(-1, 2), 50, 1))
@example((HALVES, [[F(1, 3)] * 3, [F(1, 2), 0, F(1, 4)]], F(1) + F(1, 1 << 40), 50, 1))  # above every sum
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mc_cases())
def test_hit_counts_match_fraction_oracle(case):
    probs, vectors, theta, m, seed = case
    assert mc_hit_counts(probs, vectors, theta, m, seed) == fraction_hit_counts(probs, vectors, theta, m, seed)


@st.composite
def tail_cases(draw):
    n = draw(st.integers(1, 12))
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


class TestKernel:
    def test_chunks_merge(self):
        m = SAMPLE_CHUNK + 5_000
        probs = [F(k, 12) for k in range(1, 11)]
        rows, counts = _pattern_counts(probs, m, seed=17)
        expected = Counter()
        for c, size in enumerate((SAMPLE_CHUNK, m - SAMPLE_CHUNK)):
            bits = derived_rng(17, c).random((size, len(probs))) < np.array([float(p) for p in probs])
            expected.update(row.tobytes() for row in np.packbits(bits, axis=1))
        assert {r.tobytes(): c for r, c in zip(rows, counts.tolist())} == expected
        vectors = [[F(1, 10)] * 10, [F(k, 55) for k in range(1, 11)]]
        theta = F(1, 2)
        assert mc_hit_counts(probs, vectors, theta, m, 17) == fraction_hit_counts(probs, vectors, theta, m, 17)
        inst = ProblemInstance(tuple(F(k, 40) for k in range(29, 19, -1)), theta, F(1, 4), F(1, 20), tuple(range(10)))
        values, counts = fraction_tail_empirical(inst.probs, vectors[1], m, 17)
        assert sample_tail_empirical(inst, vectors[1], m, 17) == EmpiricalDist(values, counts, m)

    def _classify(self, caplog, vector, theta):
        probs = [F(1, 2)] * 3
        with caplog.at_level(logging.DEBUG, logger="storalloc.evaluate"):
            got = mc_hit_counts(probs, [vector], theta, 2_000, seed=3)
        assert got == fraction_hit_counts(probs, [vector], theta, 2_000, 3)
        return got, caplog.records[-1].getMessage()

    def test_scaled_sum_past_int64_goes_to_object(self, caplog):
        # D = 2^63 + 1 is the lcm; each D w_j fits int64 but their sum does
        # not, so an int64 dot of (1, 1, 1) would wrap below D theta.
        d = (1 << 63) + 1
        vector = [F(d // 3 - 1, d), F(d // 3 + 1, d), F(1, 3)]
        (hits,), message = self._classify(caplog, vector, F(1, 3))
        assert "1 vectors, 1 on object dtype" in message
        assert hits > 0

    def test_scaled_sum_at_int64_max_stays_int64(self, caplog):
        d = (1 << 63) - 1  # the lcm; the scaled weights sum to exactly d
        a = 2 * (d // 7) - 1
        vector = [F(a, d), F(a, d), F(d - 2 * a, d)]
        _, message = self._classify(caplog, vector, F(3, 7))
        assert "1 vectors, 0 on object dtype" in message

    @pytest.mark.parametrize("m", [0, -5])
    def test_nonpositive_m_is_input_error(self, m):
        with pytest.raises(InputError, match="m must be >= 1"):
            mc_hit_counts([F(1, 2)] * 3, [[F(1, 3)] * 3], F(1, 2), m, seed=1)
        inst = ProblemInstance((F(1, 2), F(1, 2)), F(1, 2), F(1, 4), F(1, 20), (0, 1))
        member = PoolMember(weights=(F(1, 2), F(1, 2)), provenance="junta", rank=0)
        with pytest.raises(InputError, match="m must be >= 1"):
            shared_mc_estimates(inst, [member], m, seed=1)


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


class TestTypes:
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
