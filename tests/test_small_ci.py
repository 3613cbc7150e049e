import itertools
from fractions import Fraction as F

import pytest

from storalloc import small_ci
from storalloc.core import SolverConfig
from storalloc.errors import GuardError, InputError
from storalloc.lemmas import is_regular
from storalloc.small_ci import (
    case3_kappa,
    construct_achievable_regular_tails,
    find_approximately_best_head,
    find_best_head,
    find_near_opt_small_ci,
    sample_count,
    theory_kappa_case3,
)

from conftest import granular_instance, grid_best_head_value, literal_best_head_value


def brute_force_quintuples(tail_probs, kappa, grid):
    """(A,B,C,D,E) map over all granular tails, by direct enumeration."""
    jmax = int(1 / kappa)
    inv_grid = 1 / grid
    out = {}
    for combo in itertools.product(range(jmax + 1), repeat=len(tail_probs)):
        if sum(combo) > jmax:
            continue
        A = sum(j * int(p / grid) for j, p in zip(combo, tail_probs))
        B = sum(
            j * j * int(p / grid) * (inv_grid - int(p / grid))
            for j, p in zip(combo, tail_probs)
        )
        C = sum(combo)
        D = sum(j * j for j in combo)
        E = max(combo) if combo else 0
        out.setdefault((A, B, C, D, E), tuple(F(j) * kappa for j in combo))
    return out


class TestKappa:
    def test_strictly_finer_than_case2(self, rng):
        from storalloc.large_ci import theory_kappa_case2

        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        k3 = theory_kappa_case3(inst.n, 2, inst.epsilon, inst.gamma)
        assert k3 < theory_kappa_case2(inst.n, 2)

    def test_practical_override(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 10))
        assert case3_kappa(inst, 2, cfg) == F(1, 10)

    def test_theory_guard_trips_n10_L3(self, rng):
        # theory kappa at n=10, L=3 is tiny; at eps'=1 the 10 slots pass the
        # closed-form test, so the DP is about to run and its guard refuses
        inst = granular_instance(rng, 10, F(1, 2), F(1, 4))
        kappa = case3_kappa(inst, 3, SolverConfig())
        with pytest.raises(GuardError) as err:
            construct_achievable_regular_tails(inst, 1, kappa, F(1))
        assert err.value.estimate > err.value.limit == SolverConfig().state_space_limit


class TestRegularTails:
    def test_single_slot_regularity_boundary(self, rng):
        # w=(1/2): D=1, E=1, so regular iff eps' >= 1
        inst = granular_instance(rng, 2, F(1, 2), F(2, 5), lo=F(1, 2), hi=F(1, 2))
        at_one = construct_achievable_regular_tails(inst, 2, F(1, 2), F(1))
        assert {(q.D, q.E) for q in at_one} <= {(1, 1), (4, 2)}
        below = construct_achievable_regular_tails(inst, 2, F(1, 2), F(99, 100))
        assert below == []

    def test_two_slot_rms_ratio(self, rng):
        # w=(1/2,1/2): D=2, E=1, ratio 1/sqrt(2); present iff eps'^2 >= 1/2
        inst = granular_instance(rng, 2, F(1, 2), F(2, 5), lo=F(1, 2), hi=F(1, 2))
        qs = construct_achievable_regular_tails(inst, 1, F(1, 2), F(3, 4))
        assert {(q.C, q.D, q.E) for q in qs} == {(2, 2, 1)}
        qs = construct_achievable_regular_tails(inst, 1, F(1, 2), F(7, 10))
        assert qs == []

    def test_zero_tail_excluded(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        qs = construct_achievable_regular_tails(inst, 2, F(1, 4), F(1))
        assert all(q.D > 0 for q in qs)

    def test_filter_matches_is_regular_on_witness(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        eps_p = F(4, 5)
        kappa = F(1, 4)
        brute = brute_force_quintuples(inst.probs[1:], kappa, inst.grid)
        kept = construct_achievable_regular_tails(inst, 2, kappa, eps_p)
        kept_keys = {(q.A, q.B, q.C) for q in kept}
        for (A, B, C, D, E), witness in brute.items():
            if D == 0:
                continue
            regular = E * E <= eps_p * eps_p * D
            stripped = [w for w in witness if w != 0]
            assert regular == is_regular(stripped, eps_p)
            if regular:
                assert (A, B, C) in kept_keys

    def test_dp_matches_brute_force(self, rng):
        for n_tail in (1, 2, 3):
            for denom in (2, 4, 8):
                inst = granular_instance(rng, n_tail + 1, F(1, 2), F(1, 4))
                K = inst.n - n_tail + 1
                kappa = F(1, denom)
                eps_p = F(9, 10)
                brute = brute_force_quintuples(inst.probs[K - 1:], kappa, inst.grid)
                expected = {
                    (A, B, C)
                    for (A, B, C, D, E) in brute
                    if D > 0 and E * E <= eps_p * eps_p * D
                }
                got = construct_achievable_regular_tails(inst, K, kappa, eps_p)
                assert {(q.A, q.B, q.C) for q in got} == expected

    def test_emptiness_bound_both_sides(self, rng, monkeypatch):
        # kappa=1/4 over 4 tail slots: eps'^2 floor(1/kappa) is 1 at eps'=1/2,
        # where only w=(1/4,1/4,1/4,1/4) is regular, and below 1 at 49/100.
        # Over the last 2 slots eps'^2 * 2 < 1 at eps'=3/5, although
        # eps'^2 floor(1/kappa) > 1: the slot count binds.
        inst = granular_instance(rng, 5, F(1, 2), F(1, 4))
        kappa = F(1, 4)

        def no_dp(*args):
            raise AssertionError("the tail DP ran")

        sizes = {}
        for K, eps_p, closed_form in ((2, F(1, 2), False), (2, F(49, 100), True), (4, F(3, 5), True)):
            brute = brute_force_quintuples(inst.probs[K - 1:], kappa, inst.grid)
            expected = {
                (A, B, C)
                for (A, B, C, D, E) in brute
                if D > 0 and E * E <= eps_p * eps_p * D
            }
            if closed_form:
                monkeypatch.setattr(small_ci, "_tail_dp", no_dp)
            got = construct_achievable_regular_tails(inst, K, kappa, eps_p)
            monkeypatch.undo()
            assert {(q.A, q.B, q.C) for q in got} == expected
            sizes[eps_p] = len(expected)
        assert sizes == {F(1, 2): 1, F(49, 100): 0, F(3, 5): 0}

    def test_witnesses_reproduce_quintuples(self, rng):
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        for q in construct_achievable_regular_tails(inst, 2, F(1, 4), F(1)):
            k = q.kappa
            tail_probs = inst.probs[1:]
            assert sum(w * p for w, p in zip(q.witness, tail_probs)) == q.A * k * inst.grid
            assert (
                sum(w * w * p * (1 - p) for w, p in zip(q.witness, tail_probs))
                == q.B * k * k * inst.grid * inst.grid
            )
            assert sum(q.witness) == q.C * k
            assert sum(w * w for w in q.witness) == q.D * k * k
            assert max(q.witness) == q.E * k


class TestFindBestHead:
    def test_threads_other_than_one_rejected(self):
        with pytest.raises(InputError, match="threads must be 1"):
            find_best_head((F(4, 5),), [F(0)], F(1), F(1, 2), threads=2)

    def test_already_met_threshold(self):
        r = find_best_head((F(4, 5),), [F(3, 4)], F(1), F(1, 2))
        assert r.value == 1 and r.weights == (F(0),)

    def test_two_point_example(self):
        r = find_best_head((F(4, 5),), [F(0), F(1, 2)], F(1), F(1, 2))
        assert r.value == F(9, 10)

    def test_chain_equals_literal_and_grid(self, rng):
        # micro-suite: K-1 <= 2, m <= 2, grid-friendly data
        for _ in range(12):
            k = rng.randint(1, 2)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(k)), reverse=True)
            )
            m = rng.randint(1, 2)
            pts = sorted(F(rng.randint(0, 16), 16) for _ in range(m))
            W = F(rng.randint(8, 16), 16)
            theta = F(rng.randint(1, 16), 16)
            a = find_best_head(probs, pts, W, theta)
            b = literal_best_head_value(probs, pts, W, theta)
            g = grid_best_head_value(probs, pts, W, theta)
            assert a.value == b == g

    def test_chain_matches_grid_at_m3(self, rng):
        # module invariant covers m <= 3; the literal oracle joins on one case
        for trial in range(6):
            k = rng.randint(1, 2)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(k)), reverse=True)
            )
            pts = sorted(F(rng.randint(0, 16), 16) for _ in range(3))
            W = F(rng.randint(8, 16), 16)
            theta = F(rng.randint(1, 16), 16)
            a = find_best_head(probs, pts, W, theta)
            g = grid_best_head_value(probs, pts, W, theta)
            assert a.value == g
            if trial == 0:
                assert literal_best_head_value(probs, pts, W, theta) == a.value

    def test_monotone_in_budget(self, rng):
        probs = (F(7, 10), F(1, 2))
        pts = [F(0), F(1, 4)]
        values = [
            find_best_head(probs, pts, F(j, 8), F(1, 2)).value for j in range(9)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_duplicate_points_collapse(self):
        probs = (F(3, 5),)
        a = find_best_head(probs, [F(1, 4)] * 5, F(1), F(1, 2))
        b = find_best_head(probs, [F(1, 4)], F(1), F(1, 2))
        assert a.value == b.value and a.weights == b.weights

    def test_guard_on_pattern_explosion(self):
        probs = (F(3, 5), F(1, 2))
        pts = [F(j, 100) for j in range(40)]
        with pytest.raises(GuardError):
            find_best_head(probs, pts, F(1), F(1, 2), max_patterns=50)
        # k = 1 has 3 upward-closed sets: 3 one-level chains, 6 two-level
        for pts, count in (([F(1, 4)], 3), ([F(1, 4), F(1, 2)], 6)):
            with pytest.raises(GuardError) as err:
                find_best_head((F(3, 5),), pts, F(1), F(1, 2), max_patterns=count - 1)
            assert (err.value.estimate, err.value.limit) == (count, count - 1)
            r = find_best_head((F(3, 5),), pts, F(1), F(1, 2), max_patterns=count)
            assert r.patterns_examined == count

    def test_empty_head(self):
        # k = 0: no head coordinates, only the tail points can reach theta
        for pts in ([F(1, 4)], [F(0), F(1, 2)], [F(1, 8), F(3, 8), F(3, 4)]):
            for theta in (F(-1, 4), F(0), F(3, 8), F(1, 2), F(1)):
                for W in (F(0), F(1, 2), F(1)):
                    r = find_best_head((), pts, W, theta)
                    assert r.weights == ()
                    assert r.value == literal_best_head_value((), pts, W, theta)
        assert find_best_head((), [F(0), F(1, 2), F(1, 2)], F(1), F(1, 2)).value == F(2, 3)


class TestApproximatelyBestHead:
    def test_sample_count_example(self):
        assert sample_count(F(1, 10), F(1, 2), F(1)) == 70

    def test_deterministic_given_seed(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        tail = (F(1, 4), F(1, 4))
        a = find_approximately_best_head(inst, tail, F(1, 10), F(1, 2), seed=5)
        b = find_approximately_best_head(inst, tail, F(1, 10), F(1, 2), seed=5)
        assert a.head == b.head
        assert a.m == 70

    def test_budget_respected(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        tail = (F(1, 2), F(1, 4))
        r = find_approximately_best_head(inst, tail, F(1, 5), F(1, 2), seed=5)
        assert sum(r.head.weights) <= 1 - sum(tail)


class TestFindNearOptSmallCI:
    def test_empty_when_regularity_unreachable(self, rng):
        # practical kappa=1/8 with eps*gamma/100 regularity: nothing passes
        inst = granular_instance(rng, 4, F(1, 2), F(1, 4))
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 8))
        cands = find_near_opt_small_ci(inst, 2, F(1, 20), F(1, 8), cfg)
        assert cands == []
