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
chains of upward-closed realizable sets, certify each chain by an exact LP
(with a maximized slack variable keeping boundary patterns honest), and
score the witness's true event probability.

Case 3 yields candidates only when eps'^2 floor(1/kappa) >= 1, hence only
when kappa <= eps'^2: otherwise no nonzero granular tail is regular (proof in
construct_achievable_regular_tails).  The solver's eps' = eps gamma/100 is
below 1/200 (eps < 1, gamma <= 1/2), so this needs kappa < 1/40000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import ProblemInstance, SolverConfig
from .errors import GuardError, InputError
from .evaluate import EmpiricalDist, sample_tail_empirical
from .halfspaces import enumerate_halfspace_sets, point_bits
from .junta import outcome_probabilities
from .large_ci import _state_space_estimate, _tail_dp, _witness
from .lp import LinearProgram, lp_solve
from .util import derive_seed, half_power_ceil, ordered_map, to_fraction


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
        kappa = config.kappa_override
    else:
        kappa = theory_kappa_case3(instance.n, L, instance.epsilon, instance.gamma)
    if kappa > 1:
        raise InputError(f"kappa={kappa} exceeds the unit budget")
    estimate = _state_space_estimate(instance.n, kappa, instance)
    if estimate > config.state_space_limit:
        raise GuardError(
            f"case-3 tail DP needs ~{estimate} cells (limit "
            f"{config.state_space_limit}); use practical mode with a coarser "
            f"--kappa or raise --state-space-limit",
            estimate=estimate,
            limit=config.state_space_limit,
        )
    return kappa


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

    Without running the DP, the result is empty when eps'^2 floor(1/kappa) < 1.
    A nonzero tail has E >= 1 and C <= floor(1/kappa), so D = sum j^2 <= E C
    <= E floor(1/kappa).  Regularity E^2 <= eps'^2 D then gives
    1 <= E <= eps'^2 floor(1/kappa).
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
    if eps_prime * eps_prime * math.floor(1 / kappa) < 1:
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


def _witness_value(
    dots: Sequence[Fraction],
    point_probs: Sequence[Fraction],
    theta: Fraction,
    values: Sequence[Fraction],
    counts: Sequence[int],
    m: int,
) -> Fraction:
    total = Fraction(0)
    for t, cnt in zip(values, counts):
        need = theta - t
        mass = sum((pr for d, pr in zip(dots, point_probs) if d >= need), Fraction(0))
        total += cnt * mass
    return total / m


def _sorted_key(weights):
    return tuple(sorted(weights, reverse=True))


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
    """
    head_probs = tuple(to_fraction(p) for p in head_probs)
    W = to_fraction(W)
    theta = to_fraction(theta)
    if W < 0:
        raise InputError("negative head budget")
    values, counts, m = _compress_points(points)
    k = len(head_probs)
    point_probs = outcome_probabilities(head_probs) if k else (Fraction(1),)
    cube = [point_bits(x, k) for x in range(1 << k)]

    def dots_of(u):
        return [sum((w for w, b in zip(u, bits) if b), Fraction(0)) for bits in cube]

    candidates = _chain_candidates(values, k, W, theta, max_patterns, threads)

    best = None
    examined = 0
    for witness in candidates:
        examined += 1
        if witness is None:
            continue
        value = _witness_value(dots_of(witness), point_probs, theta, values, counts, m)
        key = (value, [-x for x in _sorted_key(witness)])
        if best is None or key > best[0]:
            best = (key, witness, value)
    if best is None:
        zero = (Fraction(0),) * k
        value = _witness_value(dots_of(zero), point_probs, theta, values, counts, m)
        return HeadResult(zero, value, examined)
    return HeadResult(tuple(best[1]), best[2], examined)


def _chain_lp(chain, values, k: int, W: Fraction, theta: Fraction):
    """LP certifying a nested chain; variables u_1..u_k, eta, all >= 0.

    Membership binds at each point's entry level, non-membership at the
    level just before entry (or the last level for points never entering),
    with slack eta maximized; eta = 0 patterns are kept (ties favor
    membership, matching the non-strict event).
    """
    nv = k + 1
    eta = k
    cons = []
    if k:
        cons.append(([Fraction(1)] * k + [Fraction(0)], "<=", W))
    row = [Fraction(0)] * nv
    row[eta] = Fraction(1)
    cons.append((row, "<=", Fraction(1)))
    r = len(values)
    for x in range(1 << k):
        bits = point_bits(x, k)
        entry = next((lev for lev in range(r) if (chain[lev] >> x) & 1), None)
        if entry is not None:
            row = [Fraction(b) for b in bits] + [Fraction(0)]
            cons.append((row, ">=", theta - values[entry]))
        if entry != 0:
            out_level = r - 1 if entry is None else entry - 1
            row = [Fraction(b) for b in bits] + [Fraction(1)]
            cons.append((row, "<=", theta - values[out_level]))
    objective = [Fraction(0)] * nv
    objective[eta] = Fraction(1)
    res = lp_solve(LinearProgram(nv, cons, (objective, "max")))
    if res.status != "optimal":
        return None
    return tuple(res.x[:k])


def _chain_candidates(values, k, W, theta, max_patterns, threads):
    sets = enumerate_halfspace_sets(k, monotone=True)
    masks = [s.mask for s in sets]
    supersets = {
        a: [b for b in masks if a & ~b == 0] for a in masks
    }
    r = len(values)
    chains: list[tuple[int, ...]] = []

    def grow(prefix):
        if len(chains) > max_patterns:
            raise GuardError(
                f"nested-chain patterns exceed {max_patterns}",
                estimate=len(chains),
                limit=max_patterns,
            )
        if len(prefix) == r:
            chains.append(tuple(prefix))
            return
        options = masks if not prefix else supersets[prefix[-1]]
        for nxt in options:
            prefix.append(nxt)
            grow(prefix)
            prefix.pop()

    grow([])
    return ordered_map(lambda ch: _chain_lp(ch, values, k, W, theta), chains, threads)


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
    threads: int = 1,
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
    head = find_best_head(
        instance.probs[:k],
        samples,
        budget,
        instance.theta,
        max_patterns=max_patterns,
        threads=threads,
    )
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
    threads: int = 1,
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

    def complete(item):
        idx, q = item
        seed = derive_seed(config.seed, SMALL_CI_SEED_TAG, K, idx)
        approx = find_approximately_best_head(
            instance,
            q.witness,
            instance.epsilon / 200,
            delta_head,
            seed,
            mc_constant=config.mc_constant,
        )
        weights = approx.head.weights + q.witness
        return SmallCICandidate(quintuple=q, head=approx, weights=weights)

    return ordered_map(complete, list(enumerate(triples)), threads)
