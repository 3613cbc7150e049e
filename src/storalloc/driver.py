"""End-to-end solve: run every case, estimate the pool, pick the winner.

The three case solvers are run unconditionally (the optimum's type is
unknowable), their candidates are pooled, and every member is scored on
one *shared* Monte-Carlo sample set of size

    m = ceil(mc_constant * (1/eps^2) * ln(|pool| / delta))

drawn once from the instance seed.  Sharing the sample across candidates
keeps the argmax fair, reduces variance, and makes the chosen vector a
deterministic function of (instance, config), which the byte-stable report
relies on.  Ties break by case provenance, then lexicographically.

Wall-clock timings are collected but excluded from the canonical report
bytes; they are the one inherently nondeterministic field.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    ProblemInstance,
    SolverConfig,
    TrivialSolution,
    compute_L,
    preprocess,
)
from .errors import GuardError, InputError
from .evaluate import ObjectiveEstimate, exact_objective_probs, mc_hit_counts
from .halfspaces import MAX_K
from .junta import JuntaRequest, find_optimal_junta
from .large_ci import case2_kappa, find_near_opt_large_ci
from .small_ci import case3_kappa, find_near_opt_small_ci
from .util import derive_seed, frac_str, to_fraction

SELECT_SEED_TAG = 0x5E7


@dataclass(frozen=True)
class PoolMember:
    weights: tuple[Fraction, ...]  # sorted-instance order, full length
    provenance: str  # "junta" | "smallCI(K)" | "largeCI" | "trivial"
    rank: int  # provenance order for tie-breaking
    estimate: Optional[ObjectiveEstimate] = None


@dataclass
class SolveReport:
    provenance: str
    chosen_weights: tuple[Fraction, ...]  # original index order
    estimate: ObjectiveEstimate
    exact_objective: Optional[Fraction]  # under the probabilities rounded to the eps/(4n) grid
    pool_size: int
    per_case_counts: dict
    n: int
    theta: Fraction
    epsilon: Fraction
    delta: Fraction
    gamma: Optional[Fraction]
    L: Optional[int]
    kappa_case2: Optional[Fraction]
    kappa_case3: Optional[Fraction]
    config: SolverConfig
    seed: int
    reason: Optional[str] = None  # set for trivial shortcuts
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> dict:
        def opt_frac(q):
            return None if q is None else frac_str(q)

        def opt_float(q):
            return None if q is None else float(q)

        d = {
            "format": "storalloc-report-v1",
            "provenance": self.provenance,
            "reason": self.reason,
            "chosen_weights": [frac_str(w) for w in self.chosen_weights],
            "chosen_weights_float": [float(w) for w in self.chosen_weights],
            "estimate_value": frac_str(self.estimate.value),
            "estimate_value_float": float(self.estimate.value),
            "estimate_kind": self.estimate.kind,
            "estimate_m": self.estimate.m,
            "estimate_seed": self.estimate.seed,
            "exact_objective": opt_frac(self.exact_objective),
            "exact_objective_float": opt_float(self.exact_objective),
            "pool_size": self.pool_size,
            "per_case_counts": dict(self.per_case_counts),
            "n": self.n,
            "theta": frac_str(self.theta),
            "epsilon": frac_str(self.epsilon),
            "delta": frac_str(self.delta),
            "gamma": opt_frac(self.gamma),
            "L": self.L,
            "kappa_case2": opt_frac(self.kappa_case2),
            "kappa_case3": opt_frac(self.kappa_case3),
            "config": {
                "mode": self.config.mode,
                "c_L": frac_str(self.config.c_L),
                "kappa_override": opt_frac(self.config.kappa_override),
                "L_cap": self.config.L_cap,
                "mc_constant": frac_str(self.config.mc_constant),
                "seed": self.config.seed,
                "exact_eval_max_n": self.config.exact_eval_max_n,
                "state_space_limit": self.config.state_space_limit,
            },
            "seed": self.seed,
        }
        if include_timings:
            d["timings"] = dict(self.timings)
        return d

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2) + "\n"


def selection_sample_size(epsilon: Fraction, delta: Fraction, pool_size: int, mc_constant: Fraction) -> int:
    raw = float(mc_constant) / float(epsilon) ** 2 * math.log(max(pool_size, 1) / float(delta))
    return max(1, math.ceil(raw))


def shared_mc_estimates(
    instance: ProblemInstance,
    members: Sequence[PoolMember],
    m: int,
    seed: int,
) -> list[ObjectiveEstimate]:
    """Score every member on one shared sample set (exact classification)."""
    hits = mc_hit_counts(instance.probs, [member.weights for member in members], instance.theta, m, seed)
    return [ObjectiveEstimate(value=Fraction(h, m), kind="monte_carlo", m=m, seed=seed) for h in hits]


def _check_feasible(weights: Sequence[Fraction]):
    if any(w < 0 for w in weights) or sum(weights, Fraction(0)) > 1:
        raise AssertionError(f"case solver produced an infeasible candidate: {weights}")


def _trivial_report(shortcut: TrivialSolution, n: int, theta, epsilon, delta, config) -> SolveReport:
    estimate = ObjectiveEstimate(value=shortcut.objective, kind="exact")
    return SolveReport(
        provenance="trivial",
        chosen_weights=shortcut.weights,
        estimate=estimate,
        exact_objective=shortcut.objective,
        pool_size=1,
        per_case_counts={"trivial": 1},
        n=n,
        theta=to_fraction(theta, limit_denominator=True),
        epsilon=to_fraction(epsilon, limit_denominator=True),
        delta=to_fraction(delta, limit_denominator=True),
        gamma=None,
        L=None,
        kappa_case2=None,
        kappa_case3=None,
        config=config,
        seed=config.seed,
        reason=shortcut.reason,
    )


def solve(
    p_raw: Sequence,
    theta,
    epsilon,
    delta,
    config: Optional[SolverConfig] = None,
    threads: int = 1,
) -> SolveReport:
    """Full pipeline on raw inputs; see solve_instance for the main path."""
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    config = config or SolverConfig()
    pre = preprocess(p_raw, theta, epsilon, delta)
    if pre.is_trivial:
        return _trivial_report(pre.shortcut, len(p_raw), theta, epsilon, delta, config)
    return solve_instance(pre.instance, config)


def solve_instance(instance: ProblemInstance, config: Optional[SolverConfig] = None) -> SolveReport:
    """Run every case, score the pool on one shared sample, report the winner.

    GuardError before any case runs when the head cutoff L exceeds MAX_K,
    the largest head the halfspace enumeration covers.
    """
    config = config or SolverConfig()
    timings: dict = {}
    n = instance.n
    theta = instance.theta

    t0 = time.perf_counter()
    L = compute_L(instance, config)
    if L > MAX_K:
        raise GuardError(
            f"head cutoff L={L} exceeds {MAX_K}, the largest head the halfspace "
            f"enumeration covers; use practical mode with --l-cap",
            estimate=L,
            limit=MAX_K,
        )
    kappa3 = case3_kappa(instance, L, config)
    kappa2 = case2_kappa(instance, L, config) if L < n else None

    pool: list[PoolMember] = []
    counts: dict = {}

    junta = find_optimal_junta(JuntaRequest(instance.probs[:L], theta, Fraction(1)))
    head = junta.weights + (Fraction(0),) * (n - L)
    pool.append(PoolMember(weights=head, provenance="junta", rank=0))
    counts["junta"] = 1
    timings["junta_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for K in range(1, L + 1):
        cands = find_near_opt_small_ci(instance, K, instance.delta / (2 * L), kappa3, config)
        counts[f"smallCI({K})"] = len(cands)
        for cand in cands:
            pool.append(PoolMember(weights=cand.weights, provenance=f"smallCI({K})", rank=K))
    timings["small_ci_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if L < n:
        cands = find_near_opt_large_ci(instance, L, kappa2, config)
        counts["largeCI"] = len(cands)
        for cand in cands:
            pool.append(PoolMember(weights=cand.weights, provenance="largeCI", rank=L + 1))
    else:
        counts["largeCI"] = 0
    timings["large_ci_s"] = time.perf_counter() - t0

    for member in pool:
        _check_feasible(member.weights)

    t0 = time.perf_counter()
    m_sel = selection_sample_size(instance.epsilon, instance.delta, len(pool), config.mc_constant)
    select_seed = derive_seed(config.seed, SELECT_SEED_TAG)
    estimates = shared_mc_estimates(instance, pool, m_sel, select_seed)
    best_idx = min(
        range(len(pool)),
        key=lambda i: (-estimates[i].value, pool[i].rank, pool[i].weights),
    )
    chosen = pool[best_idx]
    timings["selection_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact: Optional[Fraction] = None
    try:
        exact = exact_objective_probs(
            instance.probs, chosen.weights, theta, max_n=config.exact_eval_max_n
        )
    except GuardError:
        exact = None
    timings["exact_eval_s"] = time.perf_counter() - t0

    return SolveReport(
        provenance=chosen.provenance,
        chosen_weights=instance.to_original_order(chosen.weights),
        estimate=estimates[best_idx],
        exact_objective=exact,
        pool_size=len(pool),
        per_case_counts=counts,
        n=n,
        theta=theta,
        epsilon=instance.epsilon,
        delta=instance.delta,
        gamma=instance.gamma,
        L=L,
        kappa_case2=kappa2,
        kappa_case3=kappa3,
        config=config,
        seed=config.seed,
        timings=timings,
    )
