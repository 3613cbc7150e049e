"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion also enforces its runtime budget.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from storalloc.baselines import brute_force_optimum, kleinberg_counterexample
from storalloc.cli import main as cli_main
from storalloc.core import SolverConfig, preprocess
from storalloc.driver import solve
from storalloc.evaluate import (
    exact_objective_probs,
    kolmogorov_distance,
    linear_form_dist,
    mc_estimate_probs,
    sample_tail_empirical,
)
from storalloc.formats import save_instance
from storalloc.large_ci import construct_achievable_tails
from storalloc.small_ci import find_best_head

from case3 import construct_achievable_regular_tails
from conftest import (
    child_env,
    full_tail_triples,
    granular_instance,
    grid_best_head_value,
    literal_best_head_value,
    lp_threshold_masks,
    max_b_keys,
    with_one_retry,
)
from lemmas import canonicalize_tail, is_regular
from margin_table import grid_family
from test_large_ci import brute_force_triples
from test_lp import event_members, random_sorted_unit_weights
from test_small_ci import brute_force_quintuples


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_counterexample_reproduction():
    t0 = time.time()
    rep = kleinberg_counterexample()
    elapsed = time.time() - t0
    assert rep.candidate_value == F(99711, 100000)
    assert rep.best_uniform_value == F(9963, 10000)
    assert rep.best_uniform_k == 4
    assert rep.passed
    assert elapsed < 1.0
    report(1, f"0.99711 > 0.9963 (k=4), exact rationals, {elapsed:.2f}s")


def test_criterion_2_oracle_gap_suite():
    t0 = time.time()
    rng = random.Random(20260810)
    eps = F(1, 4)
    hits = 0
    for i in range(50):
        n = rng.choice((2, 3, 4))
        theta = rng.choice((F(3, 10), F(1, 2), F(7, 10)))
        p_raw = [round(rng.uniform(0.3, 0.7), 6) for _ in range(n)]
        cfg = SolverConfig(
            mode="practical",
            kappa_override=F(1, 8),
            L_cap=2,
            mc_constant=F(1),
            seed=i,
        )
        rep = solve(p_raw, theta, eps, F(1, 20), cfg)
        inst = preprocess(p_raw, theta, eps, F(1, 20)).instance
        opt = brute_force_optimum(inst).opt_value
        assert rep.exact_objective is not None
        if rep.exact_objective >= opt - eps:
            hits += 1
    elapsed = time.time() - t0
    assert hits >= 48, f"only {hits}/50 instances within eps of opt"
    assert elapsed < 300
    report(2, f"{hits}/50 instances with exact Obj >= opt - 0.25, {elapsed:.1f}s")


def test_criterion_3_dp_equivalence():
    t0 = time.time()
    rng = random.Random(33)
    checked = 0
    for n_tail, denom, trial in itertools.product((1, 2, 3), (2, 4, 8), range(3)):
        kappa = F(1, denom)
        inst = granular_instance(rng, n_tail + 1, F(1, 2), F(1, 4))
        L = inst.n - n_tail
        # case-2 triples
        triples = construct_achievable_tails(inst, L, kappa)
        brute = brute_force_triples(inst.probs[L:], kappa, inst.grid)
        assert {(t.A, t.B, t.C) for t in triples} == max_b_keys(brute)
        assert {(t.A, t.B, t.C) for t in full_tail_triples(inst, L, kappa)} == set(brute)
        for t in triples:
            slots = [slot for slot, _ in t.path]
            assert slots == sorted(set(slots)) and all(L < slot <= inst.n for slot in slots)
            assert all(j >= 1 for _, j in t.path)
            assert sum(j * j for _, j in t.path) == t.A
            assert sum(j for _, j in t.path) == t.C
            assert sum(j * inst.units[slot - 1] for slot, j in t.path) == t.B
        # case-3 quintuples under the regularity filter
        K = inst.n - n_tail + 1
        eps_p = F(9, 10)
        bruteq = brute_force_quintuples(inst.probs[K - 1:], kappa, inst.grid)
        expected = {
            (A, B, C)
            for (A, B, C, D, E) in bruteq
            if D > 0 and E * E <= eps_p * eps_p * D
        }
        got = construct_achievable_regular_tails(inst, K, kappa, eps_p)
        assert {(q.A, q.B, q.C) for q in got} == expected
        for q in got:
            tail_probs = inst.probs[K - 1:]
            assert sum(w * p for w, p in zip(q.witness, tail_probs)) == q.A * kappa * inst.grid
            assert sum(w for w in q.witness) == q.C * kappa
            assert sum(w * w for w in q.witness) == q.D * kappa * kappa
            assert max(q.witness) == q.E * kappa
            stripped = [w for w in q.witness if w != 0]
            assert is_regular(stripped, eps_p)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report(3, f"{checked} (n-L, kappa, seed) combinations, zero mismatches, {elapsed:.1f}s")


def test_criterion_4_ltf_enumeration_counts():
    t0 = time.time()
    expected = {1: 4, 2: 14, 3: 104, 4: 1882}
    for k, count in expected.items():
        f = lp_threshold_masks(k)
        g = list(grid_family(k, False))
        assert len(f) == count, f"LP oracle k={k}: {len(f)} != {count}"
        assert list(f) == g
    elapsed = time.time() - t0
    assert elapsed < 120
    report(4, f"counts 4/14/104/1882 for k=1..4, grid and LP oracle identical, {elapsed:.1f}s")


def test_criterion_5_canonicalizer_suite():
    t0 = time.time()
    rng = random.Random(55)
    for trial in range(200):
        n = rng.randint(2, 6)
        w = random_sorted_unit_weights(rng, n)
        K = rng.randint(1, n)
        theta = F(rng.randint(1, 11), 12)
        res = canonicalize_tail(w, K, theta)
        v = res.v
        # (a) sum-1, sorted, non-negative
        assert sum(v) == 1
        assert all(v[i] >= v[i + 1] for i in range(n - 1)) and v[-1] >= 0
        # (b) S-preservation, exact
        for x in event_members(w, theta):
            assert sum(vi * b for vi, b in zip(v, x)) >= theta
        # (c) junta or bounded head mass (squared exact comparison)
        tail = sum(v[K:])
        if tail != 0:
            head = sum(v[:K])
            assert head * head <= (K + 2) ** (K + 2) * tail * tail
        # objective never decreases
        probs = [F(rng.randint(1, 9), 10) for _ in range(n)]
        assert exact_objective_probs(probs, v, theta) >= exact_objective_probs(
            probs, w, theta
        )
    elapsed = time.time() - t0
    assert elapsed < 120
    report(5, f"200 random (w, K, theta) cases, zero violations, {elapsed:.1f}s")


def test_criterion_6_statistical_suites():
    t0 = time.time()
    # DKW at m = ceil(ln(2/delta')/(2 eps'^2)) over 200 trials
    inst = preprocess([0.7, 0.5, 0.3], 0.5, 0.2, 0.05).instance
    tail = [F(1, 4), F(1, 8), F(1, 8)]
    eps_p, delta_p = 0.2, 0.1
    m = math.ceil(math.log(2 / delta_p) / (2 * eps_p**2))
    exact_law = linear_form_dist(tail, inst.probs)

    def dkw_check(base):
        bad = sum(
            kolmogorov_distance(
                sample_tail_empirical(inst, tail, m, seed=41_000 * (base + 1) + t),
                exact_law,
            )
            > F(1, 5)
            for t in range(200)
        )
        assert bad <= 200 * 2 * delta_p * 1.5

    with_one_retry(dkw_check)

    # MC-Chernoff at the section-6 sample size with mc_constant = 1
    inst2 = preprocess([0.5, 0.5], 0.6, 0.4, 0.05).instance
    w = [F(1, 2), F(1, 2)]
    exact = exact_objective_probs(inst2.probs, w, inst2.theta)
    eps_mc, delta_mc = 0.1, 0.1
    m2 = math.ceil(1 / eps_mc**2 * math.log(1 / delta_mc))

    def chernoff_check(base):
        seeds = [9_000 * (base + 1) + s for s in range(100)]
        estimates = [mc_estimate_probs(inst2.probs, w, inst2.theta, m2, seed) for seed in seeds]
        good = sum(abs(est.value - exact) <= F(1, 10) for est in estimates)
        assert good >= 90

    with_one_retry(chernoff_check)
    elapsed = time.time() - t0
    report(6, f"DKW (200 trials, m={m}) and MC-Chernoff (100 seeds, m={m2}), {elapsed:.1f}s")


def test_criterion_7_find_best_head_optimality():
    t0 = time.time()
    point_pool = [F(0), F(1, 4), F(3, 8), F(1, 2), F(3, 4)]
    checked = 0
    for k in (1, 2):
        probs = tuple(sorted((F(7, 10), F(2, 5))[:k], reverse=True))
        for m in (1, 2):
            for pts in itertools.combinations_with_replacement(point_pool, m):
                for theta in (F(1, 4), F(1, 2), F(3, 4)):
                    for W in (F(1, 2), F(1)):
                        chain = find_best_head(probs, pts, W, theta)
                        literal = literal_best_head_value(probs, pts, W, theta)
                        grid = grid_best_head_value(probs, pts, W, theta)
                        assert chain.value == literal == grid, (
                            k, pts, theta, W, chain.value, literal, grid,
                        )
                        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(7, f"{checked} micro-instances: chain == literal == 1/64 grid, {elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    inst = tmp_path / "inst.json"
    save_instance(inst, [0.62, 0.45, 0.31, 0.58], 0.5, 0.25, 0.05)
    args = ["solve", str(inst), "--mode", "practical", "--kappa", "1/8",
            "--l-cap", "2", "--seed", "42", "--out"]
    assert cli_main(args + [str(tmp_path / "rep0.json")]) == 0
    for run, hash_seed in ((1, "1"), (2, "2")):
        proc = subprocess.run(
            [sys.executable, "-m", "storalloc.cli", *args, str(tmp_path / f"rep{run}.json")],
            capture_output=True,
            text=True,
            env=child_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
    blobs = [(tmp_path / f"rep{run}.json").read_bytes() for run in range(3)]
    assert blobs[0] == blobs[1] == blobs[2]
    elapsed = time.time() - t0
    report(
        8,
        f"byte-identical reports across 3 runs (in-process, and fresh interpreters "
        f"at PYTHONHASHSEED 1 and 2), {elapsed:.1f}s",
    )
