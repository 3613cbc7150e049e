"""Reference implementation of the paper's Case 3; not on the solve path.

Case 3 (small critical index K <= L) completes eps'-regular tails,
eps' = eps gamma / 100.  Beyond coordinate K the optimal tail is regular,
so its law is close to a Gaussian and only its mean, variance, and weight
matter.  The tail DP therefore tracks the quintuple

    A = sum w_i p_i / (kappa eps/4n)            (mean)
    B = sum w_i^2 p_i (1-p_i) / (kappa eps/4n)^2 (variance)
    C = sum w_i / kappa                          (weight)
    D = sum w_i^2 / kappa^2
    E = max w_i / kappa

and keeps one witness per regular (A,B,C) projection, where regularity is
the exact test E^2 <= eps'^2 D (i.e. max w <= eps' ||w||_2).  B is kept as
an exact rational: it is integral only when 4n/eps is an integer, which
the granularity assumption does not force.

Heads are completed against a sampled surrogate of the tail: m exact draws
of tail . X justify (via the DKW inequality) replacing the tail law by the
empirical multiset R, and the best head against R is found exactly by
small_ci.find_best_head.

On every ProblemInstance this path either returns no candidate in closed
form or refuses at its state guard before building a state
(driver.case3_verdict gives the proof), so the solver runs
driver.case3_verdict instead.  This module is the executable reference
that verdict is checked against, and the DP, sampler and head completion
keep their tests here on small inputs with a large eps'.  It shares the
verdict's closed forms (regularity_eps, no_regular_tail and the state-space
estimate) with the driver.  Nothing in the solver imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from storalloc.core import ProblemInstance, SolverConfig
from storalloc.errors import GuardError, InputError
from storalloc.evaluate import EmpiricalDist, sample_tail_empirical
from storalloc.driver import _state_space_estimate, no_regular_tail, regularity_eps
from storalloc.small_ci import HeadResult, find_best_head
from storalloc.util import derive_seed, to_fraction


@dataclass(frozen=True)
class RegularTailQuintuple:
    A: int
    B: Fraction
    C: int
    D: int
    E: int
    kappa: Fraction
    witness: tuple[Fraction, ...]


def _tail_dp(instance: ProblemInstance, K: int, kappa: Fraction, config: SolverConfig) -> dict:
    """Layered reachability of the quintuples (A,B,C,D,E) over slots K..n.

    States map to (slot, predecessor, j) for witness reconstruction;
    determinism comes from sorted snapshots and ascending j.  Refuses with
    the state-space estimate, before any work, when it exceeds
    config.state_space_limit.
    """
    estimate = _state_space_estimate(instance.n - K + 1, kappa, instance)
    if estimate > config.state_space_limit:
        raise GuardError(
            f"tail DP needs ~{estimate} cells (limit {config.state_space_limit}); "
            f"use practical mode with a coarser --kappa or raise --state-space-limit",
            estimate=estimate,
            limit=config.state_space_limit,
        )
    inv_grid = 1 / instance.grid  # = 4n/eps
    jmax = int(1 / kappa)
    states: dict = {(0, Fraction(0), 0, 0, 0): (None, None, 0)}
    for t in range(K, instance.n + 1):
        m_t = instance.units[t - 1]
        for state in sorted(states):
            a, b, c, d, e = state
            for j in range(1, jmax - c + 1):
                nxt = (a + j * m_t, b + j * j * m_t * (inv_grid - m_t), c + j, d + j * j, max(e, j))
                if nxt not in states:
                    states[nxt] = (t, state, j)
                    if len(states) > config.state_space_limit:
                        raise GuardError(
                            f"tail DP exceeded {config.state_space_limit} states",
                            estimate=len(states),
                            limit=config.state_space_limit,
                        )
    return states


def _witness(states: dict, state, start_slot: int, n: int, kappa: Fraction) -> tuple[Fraction, ...]:
    tail = [Fraction(0)] * (n - start_slot + 1)
    cur = state
    while True:
        t, prev, j = states[cur]
        if t is None:
            break
        tail[t - start_slot] = j * kappa
        cur = prev
    return tuple(tail)


def construct_achievable_regular_tails(
    instance: ProblemInstance,
    K: int,
    kappa: Fraction,
    eps_prime: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[RegularTailQuintuple]:
    """eps'-regular achievable triples over slots K..n, one witness each.

    The zero tail is excluded: regularity is undefined at D = 0, and
    junta-style solutions cover it anyway.

    Without running the DP, the result is empty when
    eps'^2 min(floor(1/kappa), n - K + 1) < 1.  A nonzero tail with s
    nonzero slots has D = sum j^2 <= s E^2, so regularity E^2 <= eps'^2 D
    needs eps'^2 s >= 1.  Each nonzero slot spends at least one kappa unit
    and there are n - K + 1 slots, so s <= min(floor(1/kappa), n - K + 1).
    """
    config = config or SolverConfig()
    kappa = to_fraction(kappa)
    eps_prime = to_fraction(eps_prime)
    if not 0 < kappa <= 1:
        raise InputError("kappa must lie in (0,1]")
    if eps_prime <= 0:
        raise InputError("eps_prime must be positive")
    if not 1 <= K <= instance.n:
        raise InputError(f"K={K} outside [1, n]")
    if no_regular_tail(eps_prime, kappa, instance.n - K + 1):
        return []

    states = _tail_dp(instance, K, kappa, config)

    eps_sq = eps_prime * eps_prime
    chosen: dict[tuple, tuple] = {}
    for state in sorted(states):
        a, b, c, d, e = state
        if d and e * e <= eps_sq * d:
            chosen.setdefault((a, b, c), state)
    return [
        RegularTailQuintuple(*chosen[key], kappa=kappa, witness=_witness(states, chosen[key], K, instance.n, kappa))
        for key in sorted(chosen)
    ]


@dataclass(frozen=True)
class ApproxHeadResult:
    head: HeadResult
    samples: EmpiricalDist
    m: int
    seed: int


def sample_count(eps_prime: Fraction, delta_prime: Fraction, mc_constant: Fraction) -> int:
    """m = ceil(mc_constant * ln(1/delta') / eps'^2)."""
    ratio = float(mc_constant) * math.log(1.0 / float(delta_prime)) / float(eps_prime) ** 2
    return max(1, math.ceil(ratio))


def find_approximately_best_head(
    instance: ProblemInstance,
    tail_weights: Sequence[Fraction],
    eps_prime,
    delta_prime,
    seed: int,
    mc_constant=Fraction(1),
    max_patterns: int = 200_000,
) -> ApproxHeadResult:
    """DKW-sampled head completion for a fixed tail.

    Samples m = ceil(mc ln(1/delta')/eps'^2) exact points of tail . X,
    then optimizes the head exactly against the empirical surrogate with
    budget 1 - sum(tail).  Deterministic given the seed.
    """
    eps_prime = to_fraction(eps_prime)
    delta_prime = to_fraction(delta_prime)
    if not 0 < delta_prime < 1 or eps_prime <= 0:
        raise InputError("need eps' > 0 and 0 < delta' < 1")
    tail = tuple(to_fraction(w) for w in tail_weights)
    k = instance.n - len(tail)
    if k < 0:
        raise InputError("tail longer than instance")
    budget = 1 - sum(tail, Fraction(0))
    if budget < 0:
        raise InputError("tail already exceeds the unit budget")
    m = sample_count(eps_prime, delta_prime, to_fraction(mc_constant))
    samples = sample_tail_empirical(instance, tail, m, seed)
    head = find_best_head(instance.probs[:k], samples, budget, instance.theta, max_patterns=max_patterns)
    return ApproxHeadResult(head=head, samples=samples, m=m, seed=seed)


@dataclass(frozen=True)
class SmallCICandidate:
    quintuple: RegularTailQuintuple
    head: ApproxHeadResult
    weights: tuple[Fraction, ...]  # full n-vector, sorted-instance order


SMALL_CI_SEED_TAG = 0x5C1


def find_near_opt_small_ci(
    instance: ProblemInstance,
    K: int,
    delta,
    kappa: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[SmallCICandidate]:
    """Case-3 pool for one K: regular tails completed by sampled-best heads.

    Per-head confidence is delta/(2 |T|) with |T| the regular-triple count;
    the regularity parameter is eps gamma / 100 and the sampling accuracy
    eps/200, as in the algorithm.  An empty triple list yields an empty
    pool (the other cases cover those optima).
    """
    config = config or SolverConfig()
    delta = to_fraction(delta)
    if not 1 <= K <= instance.n:
        raise InputError(f"K={K} outside [1, n]")
    triples = construct_achievable_regular_tails(instance, K, kappa, regularity_eps(instance), config)
    if not triples:
        return []
    delta_head = delta / (2 * len(triples))
    out = []
    for idx, q in enumerate(triples):
        seed = derive_seed(config.seed, SMALL_CI_SEED_TAG, K, idx)
        approx = find_approximately_best_head(
            instance,
            q.witness,
            instance.epsilon / 200,
            delta_head,
            seed,
            mc_constant=config.mc_constant,
        )
        out.append(SmallCICandidate(quintuple=q, head=approx, weights=approx.head.weights + q.witness))
    return out
