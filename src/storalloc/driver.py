"""End-to-end solve: run every case, score the pool exactly, pick the winner.

Every case is run (the optimum's type is unknowable): the junta and
Case 2 by their solvers, Case 3 by its closed-form verdict, which adds no
candidate or refuses (case3_verdict).  The candidates are
pooled, each distinct member is checked feasible and scored once by its
exact objective, and the best exact value wins; ties break by case
provenance, then lexicographically.

The paper scores the pool by sampling, because Pr[w . X >= theta] is
#P-hard in general.  For the pool's own vectors it is polynomial.  A
member has a head on L <= MAX_K coordinates and a tail of multiples of
kappa on s = live_slots slots, summing to at most J kappa with
J = floor(1/kappa), so its w . X takes at most 2^L min(J + 1, 2^s)
values: 7 904 at the default state_space_limit, far under
evaluate.SUPPORT_LIMIT = 2^20.  exact_objective_probs builds laws of that
size in time polynomial in n and J, within the paper's
poly(n) 2^poly(1/eps) budget.

Pool vectors end at slot P = L + large_ci.live_slots (n if L = n), the
last a case can weight, and are scored on probs[:P]; to_original_order
pads the winner with zeros.  The junta member is the head-only optimum
for (probs[:L], theta, 1) plus a zero tail.  For L < n that request is
Case 2's zero triple's, whose candidate, always the first, is the member;
its solve is timed in ``large_ci_s``, and only for L = n does the driver
solve it, in ``junta_s``.  The junta member is scored by the junta scan:
the scan returns the most probable feasible set S with P(S), its witness
realizes a feasible superset R of S, so P(R) = P(S) (junta module
docstring), and a zero tail leaves the event unchanged.  Every other
member goes to exact_objective_probs.  Only a raised state_space_limit
can make it refuse one; that member then leaves the pick, logged at INFO
with the guard's estimate and limit.  The junta member always has its
value, so the pool never empties and the winner's exact objective is
always known.

The report also carries the winner's Monte-Carlo estimate, drawn after
the pick, for the winner alone, from the instance seed over its P
coordinates, with m = ceil(mc_constant (1/eps^2) ln(|pool| / delta))
draws: a deterministic function of (instance, config), as the
byte-stable report needs.  The pick does not read it.  m keeps the
|pool| term from when the sample ranked the pool (a union bound over
it), so that every report byte stays as it was until ROADMAP item 2b
drops sampling from the solve.

Wall-clock timings are collected but excluded from the canonical report
bytes; they are the one inherently nondeterministic field.
"""

from __future__ import annotations

import json
import logging
import math
import time
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    MAX_K,
    ProblemInstance,
    SolverConfig,
    TrivialSolution,
    compute_kappas,
    compute_L,
    preprocess,
)
from .errors import GuardError, InputError
from .evaluate import ObjectiveEstimate, check_draws, exact_objective_probs, mc_hit_counts
from .junta import JuntaRequest, find_optimal_junta
from .large_ci import find_near_opt_large_ci, live_slots
from .util import Record, derive_seed, frac_str, lcm_scaled, to_fraction

logger = logging.getLogger(__name__)

SELECT_SEED_TAG = 0x5E7


class PoolMember(Record):
    __slots__ = ("weights", "provenance", "rank")

    def __init__(
        self,
        weights: tuple[Fraction, ...],  # sorted order, the P-coordinate prefix (module docstring)
        provenance: str,  # "junta" | "largeCI"
        rank: int,  # provenance order for tie-breaking
    ):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "rank", rank)


class SolveReport(Record):
    __slots__ = (
        "provenance", "chosen_weights", "estimate", "exact_objective", "pool_size", "per_case_counts",
        "n", "theta", "epsilon", "delta", "gamma", "L", "kappa_case2", "kappa_case3", "config", "seed",
        "reason", "timings",
    )

    def __init__(
        self,
        provenance: str,
        chosen_weights: tuple[Fraction, ...],  # original index order
        estimate: ObjectiveEstimate,
        exact_objective: Fraction,  # under the probabilities rounded to the eps/(4n) grid
        pool_size: int,
        per_case_counts: dict,
        n: int,
        theta: Fraction,
        epsilon: Fraction,
        delta: Fraction,
        gamma: Optional[Fraction],
        L: Optional[int],
        kappa_case2: Optional[Fraction],
        kappa_case3: Optional[Fraction],
        config: SolverConfig,
        seed: int,
        reason: Optional[str] = None,  # set for trivial shortcuts
        timings: Optional[dict] = None,  # None: a fresh {}
    ):
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "chosen_weights", chosen_weights)
        object.__setattr__(self, "estimate", estimate)
        object.__setattr__(self, "exact_objective", exact_objective)
        object.__setattr__(self, "pool_size", pool_size)
        object.__setattr__(self, "per_case_counts", per_case_counts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "kappa_case2", kappa_case2)
        object.__setattr__(self, "kappa_case3", kappa_case3)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "timings", {} if timings is None else timings)

    def to_dict(self, include_timings: bool = False) -> dict:
        def opt_frac(q):
            return None if q is None else frac_str(q)

        def echo(value):
            return frac_str(value) if isinstance(value, Fraction) else value

        d = {
            "format": "storalloc-report-v1",
            "provenance": self.provenance,
            "reason": self.reason,
            "chosen_weights": [frac_str(w) if w else "0" for w in self.chosen_weights],
            "chosen_weights_float": [float(w) if w else 0.0 for w in self.chosen_weights],
            "estimate_value": frac_str(self.estimate.value),
            "estimate_value_float": float(self.estimate.value),
            "estimate_kind": self.estimate.kind,
            "estimate_m": self.estimate.m,
            "estimate_seed": self.estimate.seed,
            "exact_objective": frac_str(self.exact_objective),
            "exact_objective_float": float(self.exact_objective),
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
            "config": {name: echo(getattr(self.config, name)) for name in SolverConfig.__slots__},
            "seed": self.seed,
        }
        if include_timings:
            d["timings"] = dict(self.timings)
        return d

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2) + "\n"


def selection_sample_size(epsilon: Fraction, delta: Fraction, pool_size: int, mc_constant: Fraction) -> int:
    """m of the module docstring, by core.L_formula's rule for floats out of range."""
    try:  # a / b is float(a/b), correctly rounded, as in core.L_formula
        eps, dlt = epsilon.numerator / epsilon.denominator, delta.numerator / delta.denominator
        raw = mc_constant.numerator / mc_constant.denominator / eps**2 * math.log(max(pool_size, 1) / dlt)
        return max(1, math.ceil(raw))
    except (OverflowError, ZeroDivisionError):
        log = math.log(max(pool_size, 1) * delta.denominator) - math.log(delta.numerator)
        return max(1, math.ceil(mc_constant / epsilon**2 * Fraction(log)))


def _distinct(members: Sequence[PoolMember]) -> tuple[list, list[int]]:
    """The distinct weight vectors of members, in first-seen order, and
    each member's index into them.  Vectors are compared by tuple
    equality, as pools are a few members long."""
    distinct: list = []
    slots = []
    for member in members:
        for slot, weights in enumerate(distinct):
            if weights == member.weights:
                break
        else:
            slot = len(distinct)
            distinct.append(member.weights)
        slots.append(slot)
    return distinct, slots


def exact_scores(
    instance: ProblemInstance,
    members: Sequence[PoolMember],
    head: tuple[Fraction, ...],
    head_value: Fraction,
) -> list[Optional[Fraction]]:
    """Each member's exact objective on probs[:len(weights)], or None where refused.

    Each distinct weight vector is checked feasible (AssertionError
    otherwise), then evaluated once.  The junta head takes
    head_value, its scan value (module docstring).  A vector whose
    evaluation raises GuardError scores None and is logged at INFO with
    the guard's estimate and limit.
    """
    distinct, slots = _distinct(members)
    values: list[Optional[Fraction]] = []
    for weights in distinct:
        _check_feasible(weights)
        if weights == head:
            values.append(head_value)
            continue
        try:
            values.append(exact_objective_probs(instance.probs[: len(weights)], weights, instance.theta))
        except GuardError as exc:
            logger.info(
                "exact_objective_probs refused a pool member, which leaves the pick: estimate=%s limit=%s",
                exc.estimate,
                exc.limit,
            )
            values.append(None)
    return [values[slot] for slot in slots]


def _check_feasible(weights: Sequence[Fraction]):
    d, scaled = lcm_scaled(weights)  # sum(w) <= 1 iff sum(d w) <= d
    if min(scaled, default=0) < 0 or sum(scaled) > d:
        raise AssertionError(f"case solver produced an infeasible candidate: {weights}")


def _state_space_estimate(n_slots: int, kappa: Fraction, instance: ProblemInstance) -> int:
    """Cheap upper bound on DP cells: min(granular tails, conceivable triples),
    the tails (jmax + 1)^n_slots built only while they stay the smaller."""
    jmax = int(1 / kappa)
    b_max = int(4 * instance.n / (kappa * instance.epsilon)) + 1
    triples = (jmax * jmax + 1) * (b_max + 1) * (jmax + 1)
    tails = 1
    for _ in range(n_slots):  # kappa <= 1 gives jmax >= 1: at most log2(triples) + 1 rounds
        tails *= jmax + 1
        if tails >= triples:
            return triples
    return tails


def regularity_eps(instance: ProblemInstance) -> Fraction:
    """eps' = eps gamma / 100, the regularity parameter of Case 3."""
    eps, gamma = instance.epsilon, instance.gamma
    return Fraction(eps.numerator * gamma.numerator, 100 * eps.denominator * gamma.denominator)


def no_regular_tail(eps_prime: Fraction, kappa: Fraction, slots: int) -> bool:
    """eps'^2 min(floor(1/kappa), slots) < 1 as e_n^2 min(..) < e_d^2, eps' = e_n/e_d:
    no eps'-regular tail fits in ``slots`` slots (case3_verdict)."""
    return eps_prime.numerator**2 * min(kappa.denominator // kappa.numerator, slots) < eps_prime.denominator**2


def case3_verdict(instance: ProblemInstance, kappa: Fraction, config: SolverConfig) -> None:
    """Case 3 for every K <= L at once: return (no candidate) or refuse.

    A nonzero tail with s nonzero slots has D = sum j^2 <= s E^2, so
    regularity E^2 <= eps'^2 D needs eps'^2 s >= 1.  Each nonzero slot
    spends at least one kappa unit and there are n - K + 1 slots, so
    s <= min(floor(1/kappa), n - K + 1).  That bound falls as K rises, so
    when no_regular_tail holds over the n slots of K = 1 no K <= L has a
    regular tail, and the function returns.

    Otherwise it refuses with the tail DP's state-space estimate at K = 1
    over n slots, even at a config.state_space_limit above it, and names
    the coarsest kappa that runs, 1/J for the largest J with eps'^2 J < 1.
    The estimate is then above 4 * 10^26.  Every ProblemInstance enforces
    A2, p_1 < 1 - eps, and gamma = min(p_n, 1 - p_1) <= p_n <= p_1, so
    eps gamma < p_1 (1 - p_1) <= 1/4 and eps' = eps gamma / 100 < 1/400.
    A regular tail thus needs s > 160 000, so n > 160 000 and
    J = floor(1/kappa) > 160 000.  With eps < 1 the estimate is at least
    (J^2 + 1)(4nJ + 2)(J + 1) > 4.19 * 10^26, and within its first two
    slots the DP would hold about J^2 / 4 > 6.4 * 10^9 states.
    """
    n, eps_prime = instance.n, regularity_eps(instance)
    if no_regular_tail(eps_prime, kappa, n):
        return
    estimate = _state_space_estimate(n, kappa, instance)
    coarse = (eps_prime.denominator**2 - 1) // eps_prime.numerator**2  # largest J with eps'^2 J < 1
    raise GuardError(
        f"tail DP needs ~{estimate} cells (limit {config.state_space_limit}), and Case 3 refuses at any "
        f"limit; use practical mode with --kappa 1/{coarse} or coarser, where no regular tail fits",
        estimate=estimate,
        limit=config.state_space_limit,
    )


def _trivial_report(shortcut: TrivialSolution, n: int, theta, epsilon, delta, config) -> SolveReport:
    return SolveReport(
        provenance="trivial",
        chosen_weights=shortcut.weights,
        estimate=ObjectiveEstimate(value=shortcut.objective, kind="exact"),
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
    t0 = time.perf_counter()
    pre = preprocess(p_raw, theta, epsilon, delta)
    preprocess_s = time.perf_counter() - t0
    report = (_trivial_report(pre.shortcut, len(p_raw), theta, epsilon, delta, config) if pre.is_trivial
              else solve_instance(pre.instance, config))
    report.timings["preprocess_s"] = preprocess_s
    return report


def solve_instance(instance: ProblemInstance, config: Optional[SolverConfig] = None) -> SolveReport:
    """Run every case, score the pool exactly, report the winner with its sample.

    GuardError before any case runs when the head cutoff L exceeds MAX_K,
    the largest head the committed margin table covers, or when the
    winner's sample for a pool of one, over the pool's P columns (module
    docstring), already fails evaluate.check_draws: m grows with the pool,
    so the sample would refuse it after the cases.
    """
    config = config or SolverConfig()
    timings: dict = {}
    n = instance.n
    theta = instance.theta

    t0 = time.perf_counter()
    L = compute_L(instance, config)
    if L > MAX_K:
        raise GuardError(
            f"head cutoff L={L} exceeds {MAX_K}, the largest head the committed "
            f"margin table covers; use practical mode with --l-cap",
            estimate=L,
            limit=MAX_K,
        )
    kappa2, kappa3 = compute_kappas(instance, L, config)
    P = L + live_slots(instance, L, kappa2) if L < n else n
    check_draws(selection_sample_size(instance.epsilon, instance.delta, 1, config.mc_constant), P)

    if L == n:  # no tail, so no Case 2 to answer the head-only request
        junta = find_optimal_junta(JuntaRequest(instance.probs, theta, Fraction(1)))
    timings["junta_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    case3_verdict(instance, kappa3, config)  # no candidate at any K, or GuardError
    timings["small_ci_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cands = find_near_opt_large_ci(instance, L, kappa2, config) if L < n else []
    if cands:
        junta = cands[0].head  # the zero triple's, for the request (probs[:L], theta, 1)
    timings["large_ci_s"] = time.perf_counter() - t0

    head = cands[0].weights if cands else junta.weights
    pool = [PoolMember(weights=head, provenance="junta", rank=0)]
    pool += [PoolMember(weights=cand.weights, provenance="largeCI", rank=1) for cand in cands]
    counts = {"junta": 1, **{f"smallCI({K})": 0 for K in range(1, L + 1)}, "largeCI": len(cands)}

    t0 = time.perf_counter()
    scores = exact_scores(instance, pool, head, junta.value)
    timings["exact_eval_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scored = [i for i, score in enumerate(scores) if score is not None]  # the junta member's always is
    best_idx = min(scored, key=lambda i: (-scores[i], pool[i].rank, pool[i].weights))
    chosen = pool[best_idx]
    m_sel = selection_sample_size(instance.epsilon, instance.delta, len(pool), config.mc_constant)
    select_seed = derive_seed(config.seed, SELECT_SEED_TAG)
    hits = mc_hit_counts(instance.probs[:P], chosen.weights, theta, m_sel, select_seed)  # pool vectors are checked
    estimate = ObjectiveEstimate(Fraction(hits, m_sel), "monte_carlo", m_sel, select_seed)
    timings["selection_s"] = time.perf_counter() - t0
    logger.debug(
        "exact_objective from %s", "the junta scan" if chosen.weights == head else "exact_objective_probs"
    )

    return SolveReport(
        provenance=chosen.provenance,
        chosen_weights=instance.to_original_order(chosen.weights),
        estimate=estimate,
        exact_objective=scores[best_idx],
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
