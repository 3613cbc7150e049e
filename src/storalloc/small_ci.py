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
empirical multiset R, and the best head against R is found exactly.  Any
head vector realizes, per sampled point t_i, the event set
{x : u.x >= theta - t_i}; with points sorted ascending these sets are
nested, so instead of all |S|^m tuples it suffices to enumerate nested
chains of upward-closed realizable sets, certify each chain by the junta's
membership-only feasibility LP, and score the witness's true event
probability.  A witness realizes a chain containing the certified one, so
its score is at least the chain's value, and the optimum's own chain is
enumerated and feasible; the best score is therefore exact (proof in
find_best_head).

Case 3 yields candidates only when eps'^2 min(floor(1/kappa), n - K + 1)
>= 1: a regular tail needs at least 1/eps'^2 nonzero slots (proof in
construct_achievable_regular_tails).  The solver's eps' = eps gamma/100 is
below 1/200 (eps < 1, gamma <= 1/2), so this needs more than 40000 tail
slots and kappa < 1/40000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import ProblemInstance, SolverConfig
from .errors import GuardError, InputError
from .evaluate import EmpiricalDist, sample_tail_empirical
from .halfspaces import enumerate_halfspace_sets
from .junta import chain_lp, mask_probability, outcome_probabilities, realized_event_mask
from .large_ci import _tail_dp, _witness
from .lp import lp_solve
from .util import derive_seed, half_power_ceil, to_fraction


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
    if eps_prime * eps_prime * min(math.floor(1 / kappa), instance.n - K + 1) < 1:
        return []

    inv_grid = 1 / instance.grid  # = 4n/eps

    def extend(state, j, m_t):
        a, b, c, d, e = state
        return (
            a + j * m_t,
            b + j * j * m_t * (inv_grid - m_t),
            c + j,
            d + j * j,
            max(e, j),
        )

    zero = (0, Fraction(0), 0, 0, 0)
    states = _tail_dp(instance.probs, K, kappa, instance, config, extend, zero)

    eps_sq = eps_prime * eps_prime
    chosen: dict[tuple, tuple] = {}
    for state in sorted(states):
        a, b, c, d, e = state
        if d == 0 or e * e > eps_sq * d:
            continue
        key = (a, b, c)
        if key not in chosen:
            chosen[key] = state
    out = []
    for key in sorted(chosen):
        a, b, c, d, e = chosen[key]
        out.append(
            RegularTailQuintuple(
                A=a,
                B=b,
                C=c,
                D=d,
                E=e,
                kappa=kappa,
                witness=_witness(states, chosen[key], K, instance.n, kappa),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Exact head optimization against a sampled tail surrogate


@dataclass(frozen=True)
class HeadResult:
    weights: tuple[Fraction, ...]
    value: Fraction
    patterns_examined: int


def _compress_points(points) -> tuple[list[Fraction], list[int], int]:
    if isinstance(points, EmpiricalDist):
        return list(points.values), list(points.counts), points.m
    dist = EmpiricalDist.from_points(points)
    return list(dist.values), list(dist.counts), dist.m


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
    be empty).  Budget: u >= 0, sum(u) <= W.

    Why the chain search is exact.  Take the distinct points ascending,
    t_1 < ... < t_r, at thresholds tau_i = theta - t_i, and a nested chain
    S_1 <= ... <= S_r of upward-closed realizable sets.  If the chain's
    membership LP (junta.chain_lp) is feasible, its witness u realizes sets
    R_i(u) = {x : u.x >= tau_i} containing S_i, so u's value is at least
    the chain's.  The optimum u* realizes its own chain R(u*); that chain
    is nested, upward-closed and realizable, so it is enumerated, and its
    LP is feasible because u* satisfies it.  So the best witness value over
    all chains is the optimum.  Ties break toward the lexicographically
    smallest descending-sorted head, then the first chain enumerated.
    """
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    head_probs = tuple(to_fraction(p) for p in head_probs)
    W = to_fraction(W)
    theta = to_fraction(theta)
    if W < 0:
        raise InputError("negative head budget")
    values, counts, m = _compress_points(points)
    taus = [theta - t for t in values]
    k = len(head_probs)
    point_probs = outcome_probabilities(head_probs)

    def score(u) -> Fraction:
        hits = sum(
            (cnt * mask_probability(point_probs, realized_event_mask(u, tau, k))
             for tau, cnt in zip(taus, counts)),
            Fraction(0),
        )
        return hits / m

    if not k:  # no head coordinate, so no LP (it would have no variable)
        return HeadResult((), score(()), 0)

    def certify(chain):
        res = lp_solve(chain_lp(chain, taus, W, k))
        return res.x if res.status == "optimal" else None

    chains = _nested_chains(k, len(taus), max_patterns)
    witnesses = [certify(chain) for chain in chains]
    # The all-empty chain is always feasible (u = 0), so some witness exists.
    value, witness = max(
        ((score(u), u) for u in witnesses if u is not None),
        key=lambda item: (item[0], [-x for x in sorted(item[1], reverse=True)]),
    )
    return HeadResult(tuple(witness), value, len(chains))


def _nested_chains(k: int, r: int, max_patterns: int) -> list[tuple[int, ...]]:
    """Every chain S_1 <= ... <= S_r of upward-closed realizable masks over
    {0,1}^k, in lexicographic mask order; GuardError if there are more
    than ``max_patterns``."""
    masks = [s.mask for s in enumerate_halfspace_sets(k, monotone=True)]
    supersets = {a: [b for b in masks if a & ~b == 0] for a in masks}
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
    eps_reg = instance.epsilon * instance.gamma / 100
    triples = construct_achievable_regular_tails(instance, K, kappa, eps_reg, config)
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
