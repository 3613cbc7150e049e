import hashlib
import itertools
import json
import logging
import math
import random
import re
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storalloc import driver, evaluate, large_ci
from storalloc.core import MAX_K, ProblemInstance, SolverConfig, preprocess
from storalloc.driver import (
    PoolMember,
    _check_feasible,
    case3_verdict,
    exact_scores,
    no_regular_tail,
    regularity_eps,
    selection_sample_size,
    solve,
    solve_instance,
)
from storalloc.errors import GuardError, InputError
from storalloc.junta import JuntaRequest, find_optimal_junta
from storalloc.evaluate import exact_objective_probs

import case3
import test_large_ci
from conftest import dfs_objective, fewest_regular_slots, sampled_rows, splitmix_lanes


PRACTICAL = dict(mode="practical", kappa_override=F(1, 8), L_cap=2)


class TestTrivialPaths:
    def test_high_probability_shortcut_report(self):
        cfg = SolverConfig(**PRACTICAL)
        rep = solve([0.99, 0.5], 0.5, 0.05, 0.05, cfg)
        assert rep.provenance == "trivial"
        assert rep.reason == "high_prob_shortcut"
        assert rep.pool_size == 1
        assert rep.exact_objective == rep.estimate.value
        assert rep.chosen_weights == (F(1), F(0))

    def test_theta_zero(self):
        rep = solve([0.6, 0.5], 0, 0.25, 0.05, SolverConfig(**PRACTICAL))
        assert rep.provenance == "trivial" and rep.estimate.value == 1


def test_candidate_feasibility_check():
    _check_feasible((F(1, 2), F(1, 2), F(0)))
    for bad in ((F(-1, 4), F(1, 4)), (F(3, 4), F(1, 2))):
        with pytest.raises(AssertionError, match="infeasible candidate"):
            _check_feasible(bad)


def test_exact_scores_check_and_evaluate_each_distinct_vector_once(monkeypatch):
    # equal members (separate tuples) share one feasibility check and one
    # value; the junta head takes its scan value unevaluated, and an
    # infeasible member stops the scoring before it is evaluated
    inst = ProblemInstance((F(5, 8), F(1, 2), F(1, 2), F(3, 8)), F(1, 2), F(1, 4), F(1, 20), (0, 1, 2, 3))
    vectors = [(F(1, 2), F(1, 2), F(0), F(0)), (F(1, 3), F(1, 3), F(1, 3), F(0)), (F(1, 2), F(0), F(1, 2), F(0))]
    picks = [0, 1, 0, 2, 1, 0]
    members = [PoolMember(weights=tuple(F(w) for w in vectors[i]), provenance="largeCI", rank=1) for i in picks]
    checked, evaluated = [], []

    def evaluating(probs, w, theta):
        evaluated.append(w)
        return exact_objective_probs(probs, w, theta)

    monkeypatch.setattr(driver, "_check_feasible", lambda w: checked.append(w) or _check_feasible(w))
    monkeypatch.setattr(driver, "exact_objective_probs", evaluating)
    head_value = F(7, 10)  # taken as given, not evaluated
    scores = exact_scores(inst, members, vectors[0], head_value)
    assert checked == vectors and evaluated == vectors[1:]
    values = [head_value] + [exact_objective_probs(inst.probs, w, inst.theta) for w in vectors[1:]]
    assert scores == [values[i] for i in picks]
    checked.clear()
    evaluated.clear()
    bad = PoolMember(weights=(F(3, 4), F(1, 2), F(0), F(0)), provenance="largeCI", rank=1)
    with pytest.raises(AssertionError, match="infeasible candidate"):
        exact_scores(inst, [members[1], bad, members[3]], vectors[0], head_value)
    assert checked == [vectors[1], bad.weights] and evaluated == [vectors[1]]


class TestSolve:
    def test_pool_union_law(self):
        cfg = SolverConfig(**PRACTICAL)
        rep = solve([0.55, 0.45, 0.6], 0.5, 0.25, 0.05, cfg)
        counts = rep.per_case_counts
        assert rep.pool_size == sum(counts.values())
        assert counts["junta"] == 1
        assert set(counts) == {"junta", "smallCI(1)", "smallCI(2)", "largeCI"}

    def test_report_json_shape_and_weights_order(self):
        cfg = SolverConfig(**PRACTICAL)
        rep = solve([0.31, 0.62, 0.45], 0.5, 0.25, 0.05, cfg)
        data = json.loads(rep.to_json())
        assert data["format"] == "storalloc-report-v1"
        assert len(data["chosen_weights"]) == 3
        assert "timings" not in data
        timed = json.loads(rep.to_json(include_timings=True))
        phases = ("junta_s", "small_ci_s", "large_ci_s", "selection_s", "exact_eval_s", "preprocess_s")
        assert set(timed["timings"]) == set(phases) and all(timed["timings"][k] >= 0 for k in phases)
        # a shortcut times its preprocessing alone
        trivial = solve([0.9, 0.8], 0, 0.1, 0.1, cfg)
        assert set(trivial.timings) == {"preprocess_s"} and "timings" not in json.loads(trivial.to_json())
        # weights come back in caller order and stay feasible
        w = [F(s) for s in data["chosen_weights"]]
        assert sum(w) <= 1 and all(x >= 0 for x in w)

    def test_same_seed_same_report(self):
        cfg = SolverConfig(**PRACTICAL, seed=123)
        reports = [solve([0.5, 0.62, 0.41, 0.33], 0.45, 0.25, 0.05, cfg) for _ in range(3)]
        blobs = {r.to_json() for r in reports}
        assert len(blobs) == 1

    def test_threads_other_than_one_rejected(self):
        for threads in (0, 2, 4):
            with pytest.raises(InputError, match="threads must be 1"):
                solve([0.5, 0.6], 0.5, 0.25, 0.05, SolverConfig(**PRACTICAL), threads=threads)

    def test_different_seed_changes_estimate(self):
        a = solve([0.5, 0.6], 0.5, 0.25, 0.05, SolverConfig(**PRACTICAL, seed=1))
        b = solve([0.5, 0.6], 0.5, 0.25, 0.05, SolverConfig(**PRACTICAL, seed=2))
        assert a.estimate.seed != b.estimate.seed

    def test_exact_objective_attached_for_small_n(self):
        rep = solve([0.5, 0.6], 0.5, 0.25, 0.05, SolverConfig(**PRACTICAL))
        assert rep.exact_objective is not None
        # the chosen vector re-evaluates to the reported exact value
        inst = preprocess([0.5, 0.6], 0.5, 0.25, 0.05).instance
        w_sorted = [rep.chosen_weights[i] for i in inst.permutation]
        assert exact_objective_probs(inst.probs, w_sorted, inst.theta) == rep.exact_objective

    def test_guard_propagates_with_context(self):
        # n=20 at p=0.72: Case 2 fails its closed-form skip at kappa 1/400
        # and its tail DP's bound is (400^3 + 800 + 3)/3 states
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 400), L_cap=2)
        with pytest.raises(GuardError) as err:
            solve([0.72] * 20, 0.5, 0.25, 0.05, cfg)
        assert err.value.estimate == 21_333_601 > err.value.limit == cfg.state_space_limit

    def test_head_cutoff_guard_precedes_the_cases(self):
        # L = n = 6 exceeds the largest enumerable head in theory mode and in
        # practical mode without L_cap
        for cfg in (SolverConfig(), SolverConfig(mode="practical", kappa_override=F(1, 8))):
            with pytest.raises(GuardError) as err:
                solve([0.62, 0.45, 0.31, 0.58, 0.5, 0.4], 0.5, 0.25, 0.05, cfg)
            assert (err.value.estimate, err.value.limit) == (6, MAX_K)

    def test_draw_guard_precedes_the_cases(self, monkeypatch):
        # PACKED_LIMIT patched one byte below the pool-size-1 selection
        # sample, 16 ln 20 -> 48 draws of 8 bytes: the solve refuses with
        # that estimate, and no case solver is reached (the closed-form
        # kappas run first: the guard reads the pool's width from them)
        def case_ran(*args, **kwargs):
            raise AssertionError("a case ran before the draw guard")

        for name in ("find_optimal_junta", "case3_verdict", "find_near_opt_large_ci"):
            monkeypatch.setattr(driver, name, case_ran)
        m = selection_sample_size(F(1, 4), F(1, 20), 1, F(1))
        assert m == 48
        monkeypatch.setattr(evaluate, "PACKED_LIMIT", 8 * m - 1)
        with pytest.raises(GuardError) as err:
            solve([0.62, 0.55, 0.48, 0.45, 0.4, 0.37, 0.33, 0.31], 0.5, 0.25, 0.05, SolverConfig(**PRACTICAL))
        assert (err.value.estimate, err.value.limit) == (8 * m, 8 * m - 1)

    @pytest.mark.parametrize("eps", [F(1, 10), F(1, 40)])
    def test_draw_guard_counts_the_drawn_columns(self, monkeypatch, eps):
        # n = 200 at kappa 1/8 and L_cap 2: pool vectors end at slot
        # P = 2 + 8, so a draw of the winner's sample is one 8-byte guard
        # word, where all n coordinates would take 32.  A limit of 8 bytes
        # per draw of the report's m (a few hundred at eps 1/10, thousands
        # at 1/40) admits the same report; one byte less refuses at the sample.
        args = (q_probs(200), F(3, 5), eps, F(1, 20), SolverConfig(**PRACTICAL))
        report = solve(*args)
        m = report.estimate.m
        assert m == selection_sample_size(eps, F(1, 20), report.pool_size, args[-1].mc_constant)
        monkeypatch.setattr(evaluate, "PACKED_LIMIT", 8 * m)
        assert solve(*args).to_json() == report.to_json()
        monkeypatch.setattr(evaluate, "PACKED_LIMIT", 8 * m - 1)
        with pytest.raises(GuardError) as err:
            solve(*args)
        assert (err.value.estimate, err.value.limit) == (8 * m, 8 * m - 1)

    @pytest.mark.parametrize("denom, value", [(12, 0.9345), (16, 0.9689)])
    def test_case2_dp_wins_at_the_default_limit(self, denom, value):
        # n=32, p ~ U(0.6, 0.85): Case 2 fails its skip at kappa 1/12 and 1/16,
        # and its DP's bounds, 585 and 1377 states, fit the default limit
        p_raw = q_probs(32)
        cfg = SolverConfig(mode="practical", kappa_override=F(1, denom), L_cap=2)
        rep = solve(p_raw, F(3, 5), F(1, 10), F(1, 20), cfg)
        assert rep.provenance == "largeCI"
        assert round(float(rep.exact_objective), 4) == value

    @pytest.mark.parametrize("n, kappa", [(67, F(1, 8)), (128, F(1, 8)), (64, F(1, 9)), (8, F(1, 16))])
    def test_wide_solves_run_no_tail_dp(self, n, kappa):
        # each case's state-space estimate exceeds the default limit, but
        # Case 3 returns in closed form and Case 2 skips its DP, so no guard
        rng = random.Random(n)
        p_raw = [round(rng.uniform(0.3, 0.7), 6) for _ in range(n)]
        cfg = SolverConfig(mode="practical", kappa_override=kappa, L_cap=2, seed=7)
        rep = solve(p_raw, F(1, 2), F(1, 4), F(1, 20), cfg)
        assert rep.per_case_counts == {"junta": 1, "smallCI(1)": 0, "smallCI(2)": 0, "largeCI": 1}
        assert rep.provenance == "junta"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_theory_mode_exact_at_small_n(self, n):
        # L = n, so the junta is the exact optimum; Case 3 returns [] in
        # closed form at any kappa because n slots are too few to be regular
        from storalloc.baselines import brute_force_optimum

        rng = random.Random(40 + n)
        for _ in range(3):
            p_raw = [round(rng.uniform(0.3, 0.7), 6) for _ in range(n)]
            rep = solve(p_raw, F(1, 2), F(1, 4), F(1, 20), SolverConfig())
            inst = preprocess(p_raw, F(1, 2), F(1, 4), F(1, 20)).instance
            assert rep.L == n
            assert rep.kappa_case2 is None  # no tail, so no Case 2
            assert rep.exact_objective == brute_force_optimum(inst).opt_value

    def test_junta_exact_when_L_equals_n(self):
        # tiny n: L=min(n, formula)=n makes the junta candidate exactly opt
        from storalloc.baselines import brute_force_optimum

        cfg = SolverConfig(mode="practical", kappa_override=F(1, 8))
        rep = solve([0.55, 0.6], 0.5, 0.25, 0.05, cfg)
        inst = preprocess([0.55, 0.6], 0.5, 0.25, 0.05).instance
        assert rep.exact_objective == brute_force_optimum(inst).opt_value

    def test_estimate_within_declared_tolerance_of_exact(self):
        # |MC estimate - exact Obj(chosen)| <= eps holds w.h.p. at the
        # selection sample size; seeds below are verified stable
        rng = random.Random(2)
        for i in range(8):
            n = rng.choice((2, 3))
            p_raw = [round(rng.uniform(0.35, 0.65), 6) for _ in range(n)]
            cfg = SolverConfig(**PRACTICAL, seed=100 + i)
            rep = solve(p_raw, F(1, 2), F(1, 4), F(1, 20), cfg)
            assert rep.exact_objective is not None
            assert abs(rep.estimate.value - rep.exact_objective) <= rep.epsilon

    def test_n3_practical_quarter_kappa_within_eps(self):
        # spec-pinned setting: n=3, kappa=1/4, L_cap=2, eps=0.3
        from storalloc.baselines import brute_force_optimum

        rng = random.Random(17)
        for i in range(5):
            p_raw = [round(rng.uniform(0.3, 0.65), 6) for _ in range(3)]
            cfg = SolverConfig(mode="practical", kappa_override=F(1, 4), L_cap=2, seed=i)
            rep = solve(p_raw, F(1, 2), F(3, 10), F(1, 20), cfg)
            inst = preprocess(p_raw, F(1, 2), F(3, 10), F(1, 20)).instance
            opt = brute_force_optimum(inst).opt_value
            assert rep.exact_objective >= opt - F(3, 10)

    def test_selection_sample_size_formula(self):
        import math

        m = selection_sample_size(F(1, 4), F(1, 20), 10, F(1))
        assert m == math.ceil(16 * math.log(10 / 0.05))
        assert selection_sample_size(F(1, 4), F(1, 20), 1, F(1)) >= 1

    def test_selection_sample_size_past_float_range(self):
        # float(delta) = 0 and float(eps)^2 = 0: the logs come from the
        # integers, 16 ln(2 10^400) = 14747.6 and 10^400 ln 40 = 3.6888 10^400
        assert selection_sample_size(F(1, 4), F(1, 10**400), 2, F(1)) == 14_748
        assert selection_sample_size(F(1, 10**200), F(1, 20), 2, F(1)) // 10**396 == 36_888


class TestReportBytes:
    # sha256 of to_json() for two practical solves: any change to a report
    # byte fails here, so update a digest only for an intended report change
    @pytest.mark.parametrize(
        "probs, L_cap, digest",
        [
            (
                [0.62, 0.45, 0.31, 0.58, 0.5],
                2,
                "a2c9b0b23b9350dc97e2dcf8e2d8e934043c55d2d7f5526fb0660c8df2461863",
            ),
            (
                [0.62, 0.45, 0.31, 0.58, 0.5, 0.41],
                3,
                "963b58b5fe72182718b7b2a1a0071c0185552cf53d9044e28e99d5cec5da8520",
            ),
        ],
        ids=["n5-L2", "n6-L3"],
    )
    def test_practical_report_digest_pinned(self, probs, L_cap, digest):
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=L_cap, seed=3)
        rep = solve(probs, F(1, 2), F(1, 4), F(1, 20), cfg)
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest

    # Case-2 winners at n = 32 and 256, L = 2: their pool vectors are
    # shorter than n (L + J live slots), so these pin the prefix format
    @pytest.mark.parametrize(
        "n, denom, digest",
        [
            (32, 12, "77019d4b856d29ab519845678879d09a962a61d94fbdde55c6bf6493668adf66"),
            (32, 16, "f5d1a556bc75614f7e33ecc2642835ea76ebefeb83fe9f91675871ac7cb9310b"),
            (256, 16, "ca3bd23586cd3cff7e5161771206d161e015c69223b73d5483ddfca917095cea"),
        ],
        ids=["q32-k12", "q32-k16", "q256-k16"],
    )
    def test_prefix_report_digest_pinned(self, n, denom, digest):
        cfg = SolverConfig(mode="practical", kappa_override=F(1, denom), L_cap=2)
        rep = solve(q_probs(n), F(3, 5), F(1, 10), F(1, 20), cfg)
        assert rep.provenance == "largeCI"
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest

    # The solutions behind the two digests, pinned on their own: a digest
    # re-taken for a pool or estimate change must not hide a new solution.
    @pytest.mark.parametrize(
        "probs, L_cap, weights, exact",
        [
            ([0.62, 0.45, 0.31, 0.58, 0.5], 2, ["1/2", "0", "0", "1/2", "0"], "2673/3200"),
            ([0.62, 0.45, 0.31, 0.58, 0.5, 0.41], 3, ["1/2", "0", "0", "1/2", "0", "0"], "7699/9216"),
        ],
        ids=["n5-L2", "n6-L3"],
    )
    def test_practical_report_solution_pinned(self, probs, L_cap, weights, exact):
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=L_cap, seed=3)
        data = solve(probs, F(1, 2), F(1, 4), F(1, 20), cfg).to_dict()
        assert data["chosen_weights"] == weights
        assert data["exact_objective"] == exact

    def test_refused_exact_evaluation_is_logged(self, monkeypatch, caplog):
        # the n = 32, kappa 1/12 Case-2 winner of
        # test_case2_dp_wins_at_the_default_limit puts 1/12 on twelve tail
        # slots and nothing on the head, so no junta scan knows its value:
        # exact_objective_probs builds one group of 12, whose law holds 13
        # values, and a limit of 12 refuses it.  The refused member leaves
        # the pick, and the junta head wins with its scan value.
        p_raw = q_probs(32)
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 12), L_cap=2)
        args = (p_raw, F(3, 5), F(1, 10), F(1, 20), cfg)
        with caplog.at_level(logging.DEBUG, logger="storalloc.driver"):
            answered = solve(*args).to_dict()
        assert answered["provenance"] == "largeCI"
        assert "exact_objective from exact_objective_probs" in driver_messages(caplog)
        caplog.clear()
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 12)
        with caplog.at_level(logging.DEBUG, logger="storalloc.driver"):
            refused = solve(*args).to_dict()
        infos = [r.getMessage() for r in caplog.records if r.name == "storalloc.driver" and r.levelno >= logging.INFO]
        assert infos == ["exact_objective_probs refused a pool member, which leaves the pick: estimate=13 limit=12"]
        assert "exact_objective from the junta scan" in driver_messages(caplog)
        assert refused["provenance"] == "junta" and refused["chosen_weights"].count("0") == 31
        # the junta head's value is its exact objective, below the refused winner's
        inst = preprocess(*args[:4]).instance
        w_sorted = [F(refused["chosen_weights"][i]) for i in inst.permutation]
        exact = F(refused["exact_objective"])
        assert exact == exact_objective_probs(inst.probs, w_sorted, inst.theta) < F(answered["exact_objective"])
        # the rest of the report is the same: the estimate is the junta
        # member's, drawn with the same m and seed
        moved = {key for key in answered if answered[key] != refused[key]}
        assert moved <= {"provenance", "chosen_weights", "chosen_weights_float", "estimate_value",
                         "estimate_value_float", "exact_objective", "exact_objective_float"}
        assert (refused["estimate_m"], refused["estimate_seed"]) == (answered["estimate_m"], answered["estimate_seed"])

    def test_junta_winner_keeps_its_exact_objective_under_a_refusing_limit(self, monkeypatch, caplog):
        # the n5-L2 winner (1/2 on two head coordinates) is the junta head
        # with a zero tail; its value comes from the junta scan, so a limit
        # that refuses its evaluation (a law of 3 values > 2) changes no byte
        cfg = SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=2, seed=3)
        args = ([0.62, 0.45, 0.31, 0.58, 0.5], F(1, 2), F(1, 4), F(1, 20), cfg)
        answered = solve(*args).to_json()
        monkeypatch.setattr(evaluate, "SUPPORT_LIMIT", 2)
        with caplog.at_level(logging.DEBUG, logger="storalloc.driver"):
            report = solve(*args)
        assert report.provenance == "junta" and report.exact_objective == F(2673, 3200)
        assert report.to_json() == answered
        assert "exact_objective from the junta scan" in driver_messages(caplog)
        assert not any(r.levelno >= logging.INFO for r in caplog.records if r.name == "storalloc.driver")


def driver_messages(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "storalloc.driver"]


def q_probs(n: int) -> list[float]:
    """The q-{n}-0.6 probabilities: p ~ U(0.6, 0.85), rounded to 3 places."""
    rng = random.Random(f"q-{n}-0.6")
    return [round(rng.uniform(0.6, 0.85), 3) for _ in range(n)]


def test_case2_members_hold_few_values(monkeypatch, caplog):
    # A Case-2 member's head takes at most 2^L sums, and its tail, j kappa
    # on at most s = live_slots slots with C <= J units in all, takes
    # multiples of kappa in [0, J kappa]: at most 2^L min(J + 1, 2^s)
    # values, far under evaluate.SUPPORT_LIMIT at every default-limit kappa
    fronts = []

    def recording(instance, L, kappa, config=None):
        cands = large_ci.find_near_opt_large_ci(instance, L, kappa, config)
        fronts.append((instance, L, kappa, cands))
        return cands

    monkeypatch.setattr(driver, "find_near_opt_large_ci", recording)
    # the three prefix-digest solves, then q-64-0.6 at kappa 1/32
    for n, denom in ((32, 12), (32, 16), (256, 16), (64, 32)):
        cfg = SolverConfig(mode="practical", kappa_override=F(1, denom), L_cap=2)
        solve(q_probs(n), F(3, 5), F(1, 10), F(1, 20), cfg)
    probs, L, kappa = test_large_ci.NONTRIVIAL_FRONT
    inst = preprocess(probs, F(1, 2), F(1, 4), F(1, 20)).instance
    fronts.append((inst, L, kappa, large_ci.find_near_opt_large_ci(inst, L, kappa)))
    assert [len(cands) for *_, cands in fronts] == [2, 6, 7, 22, 2]
    supports = {}
    for inst, L, kappa, cands in fronts:
        J, s = kappa.denominator // kappa.numerator, large_ci.live_slots(inst, L, kappa)
        bound = 2**L * min(J + 1, 2**s)
        for cand in cands:
            w, probs = cand.weights, inst.probs[: len(cand.weights)]
            support = len(evaluate.linear_form_dist(w, probs).values)
            # the halves do not depend on theta, and theta = sum(w) builds them
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="storalloc.evaluate"):
                exact_objective_probs(probs, w, sum(w))
            halves = re.search(r"half laws of (\d+) and (\d+) values", caplog.records[-1].getMessage())
            assert max(support, *map(int, halves.groups())) <= bound
            supports.setdefault((inst.n, kappa), []).append(support)
    # the largest, at q-64-0.6 with kappa 1/32, against a bound of 2^2 x 33
    assert max(map(max, supports.values())) == max(supports[64, F(1, 32)]) == 33


@pytest.mark.parametrize(
    "probs, theta, eps, cfg, front",
    [
        ([0.62, 0.45, 0.31, 0.58, 0.5], F(1, 2), F(1, 4), SolverConfig(**PRACTICAL), 1),
        (q_probs(32), F(3, 5), F(1, 10), SolverConfig(mode="practical", kappa_override=F(1, 16), L_cap=2), 6),
        ([0.62, 0.45, 0.31], F(1, 2), F(1, 4), SolverConfig(), 0),
    ],
    ids=["skip", "dp", "no-tail"],
)
def test_one_zero_tail_junta_request_per_solve(monkeypatch, probs, theta, eps, cfg, front):
    # the junta member's request (probs[:L], theta, 1) is solved once: by
    # Case 2 as its zero triple's (skip path and DP path), or, with no
    # tail (L = n), by the driver; every other request is a front triple's
    requests = []

    def counting(req):
        requests.append(req)
        return find_optimal_junta(req)

    for module in (driver, large_ci):
        monkeypatch.setattr(module, "find_optimal_junta", counting)
    rep = solve(probs, theta, eps, F(1, 20), cfg)
    inst = preprocess(probs, theta, eps, F(1, 20)).instance
    assert rep.per_case_counts["largeCI"] == front
    assert requests.count(JuntaRequest(inst.probs[: rep.L], inst.theta, F(1))) == 1
    assert len(requests) == max(front, 1)


def test_selection_classifies_only_the_live_prefix(monkeypatch):
    # q-256-0.6 at kappa 1/16, L = 2, a pool of 8: every pool vector stops
    # at slot L + J = 18.  The solve samples once, for the winner alone,
    # on those 18 columns with the report's m and seed, from the
    # splitmix64 stream: its estimate is the share of the reference's rows
    # over that stream's lanes that meet theta.  The report pads the
    # winner back to n = 256
    calls = []

    def capture(probs, weights, theta, m, seed, stream):
        calls.append((probs, weights, m, seed))
        return evaluate.mc_hit_counts(probs, weights, theta, m, seed, stream)

    monkeypatch.setattr(driver, "mc_hit_counts", capture)
    args = (q_probs(256), F(3, 5), F(1, 10), F(1, 20))
    rep = solve(*args, SolverConfig(mode="practical", kappa_override=F(1, 16), L_cap=2))
    assert rep.L == 2 and rep.pool_size == 8
    ((probs, weights, m, seed),) = calls
    assert len(probs) == len(weights) == 18 and (m, seed) == (rep.estimate.m, rep.estimate.seed)
    inst = preprocess(*args).instance
    w_sorted = [rep.chosen_weights[i] for i in inst.permutation]
    assert list(weights) == w_sorted[:18] and not any(w_sorted[18:])
    rows = sampled_rows(inst.probs[:18], m, seed, splitmix_lanes)
    hits = sum(sum(itertools.compress(weights, row)) >= inst.theta for row in rows)
    assert rep.estimate.value == F(hits, m) and rep.estimate.kind == "monte_carlo"
    assert len(rep.chosen_weights) == 256 and sum(w > 0 for w in rep.chosen_weights) <= 18


@st.composite
def case2_pools(draw):
    """Solves whose Case 2 runs its DP on q-{n}-0.6-like probabilities
    (p ~ k/1000, k in [600, 850]), n in [16, 40], kappa 1/12 to 1/20."""
    n = draw(st.integers(16, 40))
    probs = [draw(st.integers(600, 850)) / 1000 for _ in range(n)]
    cfg = SolverConfig(mode="practical", kappa_override=F(1, draw(st.sampled_from((12, 16, 20)))),
                       L_cap=draw(st.integers(1, 2)), seed=draw(st.integers(0, 1 << 16)))
    return probs, cfg


# a q-like pool at kappa 1/20 where one shared sample of every member, as
# the solve once drew, ranked them otherwise than their exact values (0.826
# against the best 0.839)
MISRANKED = ([0.679, 0.746, 0.721, 0.839, 0.732, 0.709, 0.696, 0.818, 0.629, 0.752, 0.834, 0.633, 0.635,
              0.608, 0.776, 0.662, 0.757, 0.666, 0.629, 0.673],
             SolverConfig(mode="practical", kappa_override=F(1, 20), L_cap=1, seed=58))


@example(MISRANKED)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case2_pools())
def test_winner_has_the_largest_exact_value_in_the_pool(case):
    # every pool member's exact objective on its prefix, by the DFS oracle:
    # the winner's value, which the report carries, is the largest
    probs, cfg = case
    pools = []

    def capture(instance, members, head, head_value):
        pools.append((instance, members))
        return exact_scores(instance, members, head, head_value)

    with mock.patch.object(driver, "exact_scores", capture):
        rep = solve(probs, F(3, 5), F(1, 10), F(1, 20), cfg)
    ((inst, members),) = pools
    values = {m.weights: dfs_objective(inst.probs[: len(m.weights)], m.weights, inst.theta) for m in members}
    w_sorted = [rep.chosen_weights[i] for i in inst.permutation]
    assert rep.exact_objective == dfs_objective(inst.probs, w_sorted, inst.theta) == max(values.values())


def ladder_probs(n: int) -> list[float]:
    """bench/ladder.py's probabilities for n (seed 1): one per stratum of
    U(0.3, 0.7), rounded to 6 places, shuffled."""
    rng = random.Random(f"storalloc-ladder-{n}-1")
    probs = [round(0.3 + (0.7 - 0.3) * (i + rng.random()) / n, 6) for i in range(n)]
    rng.shuffle(probs)
    return probs


@pytest.mark.parametrize(
    "probs, L_cap, seed",
    [
        ([0.62, 0.45, 0.31, 0.58, 0.5], 2, 3),
        ([0.62, 0.45, 0.31, 0.58, 0.5, 0.41], 3, 3),
        *((ladder_probs(n), L_cap, 1) for n in (4, 8, 12, 16) for L_cap in (2, 3)),
    ],
)
def test_exact_objective_equals_a_fresh_evaluation(probs, L_cap, seed):
    # the TestReportBytes instances and the ladder: whichever source the
    # report's exact value came from, it is the chosen weights' value
    cfg = SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=L_cap, seed=seed)
    rep = solve(probs, F(1, 2), F(1, 4), F(1, 20), cfg)
    inst = preprocess(probs, F(1, 2), F(1, 4), F(1, 20)).instance
    w_sorted = [rep.chosen_weights[i] for i in inst.permutation]
    assert rep.exact_objective == exact_objective_probs(inst.probs, w_sorted, inst.theta)


def _case3_outcome(run):
    """None when ``run`` returns, else its GuardError as (message, estimate, limit)."""
    try:
        run()
    except GuardError as exc:
        return str(exc), exc.estimate, exc.limit
    return None


def _case3_refusal(estimate, limit, eps_prime):
    # case3_verdict's refusal text: the reference DP's estimate and limit,
    # and the coarsest kappa 1/J that runs, J the largest with eps'^2 J < 1
    J = math.ceil(1 / eps_prime**2) - 1
    return (
        f"tail DP needs ~{estimate} cells (limit {limit}), and Case 3 refuses at any limit; "
        f"use practical mode with --kappa 1/{J} or coarser, where no regular tail fits"
    )


def _reference_case3(instance, L, kappa, config):
    # the per-K loop case3_verdict replaces: each K yields no candidate, or
    # its refusal ends the solve
    def run():
        for K in range(1, L + 1):
            assert case3.find_near_opt_small_ci(instance, K, F(1, 20) / (2 * L), kappa, config) == []

    return _case3_outcome(run)


@st.composite
def case3_stubs(draw):
    """(instance, L, kappa, config) on a stub with n, epsilon and gamma only.

    eps and gamma satisfy A2 (eps < 1 - p_1, gamma = min(p_n, 1 - p_1)) with
    p_1 near 1/2, so a regular tail needs about 160 000 to 180 000 slots;
    n and floor(1/kappa) are drawn at or just above it, or one of them
    below it.  The limit stays below 4 * 10^26, under every estimate that
    refuses: at a larger limit the reference would start its DP.  The stub
    has no grid units, so a DP that did start would fail at once instead.
    """
    p_1 = F(500 - draw(st.integers(0, 20)), 1000)
    p_n = p_1 - F(draw(st.integers(0, 5)), 1000)
    eps = 1 - p_1 - F(draw(st.integers(1, 20)), 1000)
    gamma = min(p_n, 1 - p_1)
    eps_prime = eps * gamma / 100
    threshold = fewest_regular_slots(eps_prime)

    n, J = (threshold + draw(st.integers(0, 2)) for _ in range(2))
    short = draw(st.sampled_from((None, "n", "J")))  # which falls below the threshold, if any
    if short == "n":
        n = draw(st.integers(1, threshold - 1))
    elif short == "J":
        J = draw(st.integers(1, threshold - 1))
    a = draw(st.integers(1, 3))
    kappa = F(a, a * J + draw(st.integers(0, a - 1)))  # floor(1/kappa) = J
    L = draw(st.integers(1, min(n, MAX_K)))
    limit = draw(st.integers(1, 4 * 10**26))
    return SimpleNamespace(n=n, epsilon=eps, gamma=gamma), L, kappa, SolverConfig(state_space_limit=limit)


def _threshold_stub(n, limit=5_000_000):
    # eps' = (49/100)(1/2)/100 = 49/20000: a regular tail needs 166 598 slots
    return SimpleNamespace(n=n, epsilon=F(49, 100), gamma=F(1, 2)), 2, F(1, n), SolverConfig(state_space_limit=limit)


@settings(derandomize=True, database=None, max_examples=16, deadline=None)
@given(case3_stubs())
@example(_threshold_stub(166_597))
@example(_threshold_stub(166_598))
def test_case3_verdict_once_per_solve_matches_every_K(stub):
    # each refusal costs about 0.25 s (the estimate's (J+1)^n term), so few examples
    instance, L, kappa, config = stub
    expected = _reference_case3(instance, L, kappa, config)
    got = _case3_outcome(lambda: case3_verdict(instance, kappa, config))
    eps_prime = regularity_eps(instance)
    if expected is not None:  # the reference DP's estimate and limit, with the verdict's text
        expected = (_case3_refusal(*expected[1:], eps_prime), *expected[1:])
    assert got == expected
    assert (expected is None) == no_regular_tail(eps_prime, kappa, instance.n)


class TestCase3GuardAtTheThreshold:
    # every p = 1/2 and eps = 49/100: eps' = 49/20000, so a regular tail needs
    # 166 598 slots, and n = 1/kappa = 170 000 has them
    N = 170_000
    ARGS = ([F(1, 2)] * N, F(1, 2), F(49, 100), F(1, 20))
    KAPPA = F(1, N)
    ESTIMATE = 1159073756861646715567527348

    def message(self, limit):
        return (
            f"tail DP needs ~{self.ESTIMATE} cells (limit {limit}), and Case 3 refuses at any limit; "
            f"use practical mode with --kappa 1/166597 or coarser, where no regular tail fits"
        )

    def test_solve_refuses_as_the_reference_dp_does(self):
        cfg = SolverConfig(mode="practical", kappa_override=self.KAPPA, L_cap=2)
        got = _case3_outcome(lambda: solve(*self.ARGS, cfg))
        assert got == (self.message(5_000_000), self.ESTIMATE, 5_000_000)
        inst = preprocess(*self.ARGS).instance
        ref = _case3_outcome(
            lambda: case3.construct_achievable_regular_tails(inst, 1, self.KAPPA, regularity_eps(inst), cfg)
        )
        assert ref[1:] == got[1:]  # the same estimate and limit as the DP's own refusal
        # the text names the coarsest setting that runs: 1/166597 returns
        # (no regular tail fits), 1/166598 refuses
        assert case3_verdict(inst, F(1, 166597), cfg) is None
        assert _case3_outcome(lambda: case3_verdict(inst, F(1, 166598), cfg)) is not None
        # a limit at or above the estimate refuses too (the reference would
        # start a DP of billions of states); never run the reference here
        big = SolverConfig(mode="practical", kappa_override=self.KAPPA, L_cap=2, state_space_limit=10**28)
        assert _case3_outcome(lambda: solve_instance(inst, big)) == (self.message(10**28), self.ESTIMATE, 10**28)
