"""Case 3: the optimum has small critical index K <= L.

Beyond coordinate K the optimal tail is regular, so its law is close to a
Gaussian and only its mean, variance, and weight matter.  The tail DP
therefore tracks the quintuple

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
empirical multiset R, and the best head against R is found exactly by a
search over nested chains of upward-closed realizable sets (find_best_head
gives the search and its proof).

Case 3 yields candidates only when eps'^2 min(floor(1/kappa), n - K + 1)
>= 1: a regular tail needs at least 1/eps'^2 nonzero slots (proof in
construct_achievable_regular_tails).  The solver's eps' = eps gamma/100 is
below 1/200 (eps < 1, gamma <= 1/2), so this needs more than 40000 tail
slots and kappa < 1/40000.  no_regular_tail decides the test on
numerators.  Its left side falls as K rises, so it holds at K = 1 exactly
when it holds at every K <= L, and a solve decides it once, before any K.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import ProblemInstance, SolverConfig
from .errors import GuardError, InputError
from .evaluate import BLOCK_BYTES, EmpiricalDist, sample_tail_empirical
from .junta import chain_lp, family_numerators, outcome_numerators, set_margin, upward_family
from .lp import lp_solve
from .util import derive_seed, half_power_ceil, to_fraction

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RegularTailQuintuple:
    A: int
    B: Fraction
    C: int
    D: int
    E: int
    kappa: Fraction
    witness: tuple[Fraction, ...]


def theory_kappa_case3(n: int, L: int, epsilon: Fraction, gamma: Fraction) -> Fraction:
    """kappa = eps gamma^2 / (200 ((L+2)^((L+2)/2)+1)^2 n^3)."""
    big = half_power_ceil(L + 2, L + 2) + 1
    return epsilon * gamma * gamma / (200 * big * big * n**3)


def case3_kappa(instance: ProblemInstance, L: int, config: SolverConfig) -> Fraction:
    """Tail granularity for Case 3; practical mode may override it."""
    if config.mode == "practical" and config.kappa_override is not None:
        return config.kappa_override
    return theory_kappa_case3(instance.n, L, instance.epsilon, instance.gamma)


def _state_space_estimate(n_slots: int, kappa: Fraction, instance: ProblemInstance) -> int:
    """Cheap upper bound on DP cells: min(granular tails, conceivable triples)."""
    jmax = int(1 / kappa)
    b_max = int(4 * instance.n / (kappa * instance.epsilon)) + 1
    return min((jmax + 1) ** n_slots, (jmax * jmax + 1) * (b_max + 1) * (jmax + 1))


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


def regularity_eps(instance: ProblemInstance) -> Fraction:
    """eps' = eps gamma / 100, the regularity parameter of Case 3."""
    return instance.epsilon * instance.gamma / 100


def no_regular_tail(eps_prime: Fraction, kappa: Fraction, slots: int) -> bool:
    """eps'^2 min(floor(1/kappa), slots) < 1 as e_n^2 min(..) < e_d^2, eps' = e_n/e_d:
    no eps'-regular tail fits in ``slots`` slots (construct_achievable_regular_tails)."""
    return eps_prime.numerator**2 * min(kappa.denominator // kappa.numerator, slots) < eps_prime.denominator**2


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


# ---------------------------------------------------------------------------
# Exact head optimization against a sampled tail surrogate


@dataclass(frozen=True)
class HeadResult:
    weights: tuple[Fraction, ...]
    value: Fraction
    patterns_examined: int


def find_best_head(
    head_probs: Sequence[Fraction],
    points,
    W,
    theta,
    max_patterns: int = 200_000,
    threads: int = 1,
) -> HeadResult:
    """Exact maximizer of Pr[u . X + R >= theta], R uniform over the points.

    ``head_probs`` are the probabilities of the K-1 head coordinates (may
    be empty).  Budget: u >= 0, sum(u) <= W.  ``patterns_examined`` is the
    number of chains enumerated.

    Why the first feasible chain is exact.  Take the distinct points
    ascending, t_1 < ... < t_r, with counts c_i, at thresholds
    tau_i = theta - t_i.  A nested chain S_1 <= ... <= S_r of upward-closed
    realizable sets has value sum(c_i P(S_i)) / m, taken as an integer over
    D m with every D P(S) from one pass of junta.family_numerators, and
    the chains are visited by value descending, then enumeration order.
    Let C be the first chain whose membership LP (junta.chain_lp) is
    feasible, and u its witness.  u realizes the sets
    R_i(u) = {x : u.x >= tau_i}; they contain the S_i and form a nested
    chain of upward-closed realizable sets, which is enumerated and
    feasible (u satisfies it), and u's value is R(u)'s value.  That is at
    least C's value, and not more, or R(u) would have been visited before
    C.  The optimum's own chain is enumerated and feasible too, so its
    value, the optimum, is at most C's.  So u is optimal, with C's value.
    Ties go to the first chain in that order, with the LP's vertex as the
    witness.

    Before its LP, a chain is skipped when some level has tau_i > 0, S_i
    non-empty and tau_i > W v(S_i), with v the cached junta.set_margin:
    each level alone is then infeasible (junta module docstring), so the
    test never skips a feasible chain.
    """
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    head_probs = tuple(to_fraction(p) for p in head_probs)
    W = to_fraction(W)
    theta = to_fraction(theta)
    if W < 0:
        raise InputError("negative head budget")
    dist = points if isinstance(points, EmpiricalDist) else EmpiricalDist.from_points(points)
    counts, m = dist.counts, dist.m
    taus = [theta - t for t in dist.values]
    k = len(head_probs)
    if not k:  # the one point of {0,1}^0 reaches tau_i exactly when tau_i <= 0
        hits = sum(cnt for tau, cnt in zip(taus, counts) if tau <= 0)
        logger.debug("find_best_head: k=0, %d points, no chains", len(taus))
        return HeadResult((), Fraction(hits, m), 0)

    nums, D = outcome_numerators(head_probs)
    chains = _nested_chains(k, len(taus), max_patterns)
    set_num = dict(zip(upward_family(k)[0], family_numerators(nums, k).tolist()))
    scores = [sum(cnt * set_num[mask] for cnt, mask in zip(counts, chain)) for chain in chains]

    def margin_allows(mask, tau) -> bool:
        return tau <= 0 or not mask or tau <= W * set_margin(mask, k)[0]

    skipped = solved = 0
    for rank, idx in enumerate(sorted(range(len(chains)), key=lambda i: (-scores[i], i)), 1):
        chain = chains[idx]
        if not all(margin_allows(mask, tau) for mask, tau in zip(chain, taus)):
            skipped += 1
            continue
        solved += 1
        res = lp_solve(chain_lp(chain, taus, W, k))
        if res.status == "optimal":
            break
    # The all-empty chain is always feasible (u = 0), so the loop breaks.
    logger.debug(
        "find_best_head: k=%d, %d points, %d chains, %d skipped by margin, %d LPs, winner rank %d",
        k, len(taus), len(chains), skipped, solved, rank,
    )
    return HeadResult(tuple(res.x), Fraction(scores[idx], D * m), len(chains))


def _nested_chains(k: int, r: int, max_patterns: int) -> list[tuple[int, ...]]:
    """Every chain S_1 <= ... <= S_r of upward-closed realizable masks over
    {0,1}^k, in lexicographic mask order; GuardError if there are more
    than ``max_patterns``.  Superset lists, built only when r > 1, come from
    the test a & ~b == 0 on blocks of rows a, each (rows, len(masks))
    within BLOCK_BYTES."""
    masks, array, _ = upward_family(k)
    supersets = {}
    step = max(1, BLOCK_BYTES // (8 * len(masks)))
    for start in range(0, len(masks) if r > 1 else 0, step):
        hits = (array[start:start + step, None] & ~array) == 0
        for a, row in zip(masks[start:start + step], hits):
            supersets[a] = array[row].tolist()
    ways = dict.fromkeys(masks, 1)  # chains of the remaining length starting at a
    for _ in range(r - 1):
        ways = {a: sum(ways[b] for b in supersets[a]) for a in masks}
    total = sum(ways.values())
    if total > max_patterns:
        raise GuardError(
            f"nested-chain patterns {total} exceed {max_patterns}",
            estimate=total,
            limit=max_patterns,
        )
    chains = [(a,) for a in masks]
    for _ in range(r - 1):
        chains = [ch + (b,) for ch in chains for b in supersets[ch[-1]]]
    return chains


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
