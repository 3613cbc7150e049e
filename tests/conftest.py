"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's optimized paths: the
naive objective enumerates all 2^n outcomes with itertools, the DFS
objective walks grouped partial sums in Fractions, the grid
oracles scan dense 1/64-step weight grids, the threshold-set oracle
decides every Boolean function on {0,1}^k by an exact separation LP, the
set families come from the table generator's weight grid
(margin_table.grid_family), never from the committed table, and
the Fraction classifiers sum one Fraction per (vector, sampled pattern)
over patterns rebuilt from the raw random stream by one integer interval
test per 16-bit lane,
the LP junta scan solves one feasibility LP per event set, the uniform
split reference evaluates each k-split from scratch, the Fraction
junta scan tests tau <= W v(S) on rationals, grid rounding divides
Fractions, the A1 order, gamma and the Case-3 regular-tail verdict are
taken on Fractions, preprocessing converts, checks, sorts and rounds one
Fraction at a time through the standard library, the Case-2
tail reference keeps every reachable triple, and the
exhaustive best-head search certifies every nested chain by its LP and
scores every witness by Fraction event probabilities, the set sums and
nested chains loop over masks one at a time, and the Fraction
simplex pivots on rationals with no rescaling.  They
exist so that every optimized routine is checked against an implementation
too simple to share its bugs.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import storalloc
from storalloc import evaluate, junta
from storalloc.baselines import UniformSplitResult
from storalloc.core import ProblemInstance, TrivialSolution
from storalloc.errors import InputError
from storalloc.evaluate import exact_objective_probs
from storalloc.halfspaces import point_bits
from storalloc.junta import JuntaRequest, JuntaResult
from storalloc.large_ci import TailTriple
from storalloc.lp import LinearProgram, LPResult, lp_solve
from storalloc.small_ci import _nested_chains, chain_lp

from margin_table import grid_family, set_margin


def naive_objective(probs, weights, theta) -> Fraction:
    """Pr[w . X >= theta] by full outcome enumeration, no shortcuts."""
    probs = [Fraction(p) for p in probs]
    weights = [Fraction(w) for w in weights]
    theta = Fraction(theta)
    total = Fraction(0)
    for outcome in itertools.product((0, 1), repeat=len(probs)):
        pr = Fraction(1)
        for p, b in zip(probs, outcome):
            pr *= p if b else 1 - p
        if sum(w * b for w, b in zip(weights, outcome)) >= theta:
            total += pr
    return total


def _count_pmf(ps) -> list[Fraction]:
    """Poisson-binomial PMF of the number of successes among Bernoulli(ps)."""
    pmf = [Fraction(1)]
    for p in ps:
        nxt = [Fraction(0)] * (len(pmf) + 1)
        for k, mass in enumerate(pmf):
            if mass:
                nxt[k] += mass * (1 - p)
                nxt[k + 1] += mass * p
        pmf = nxt
    return pmf


def dfs_objective(probs, weights, theta) -> Fraction:
    """Pr[w . X >= theta] by a memoized DFS over Fraction partial sums.

    Coordinates sharing a weight form one Poisson-binomial count; the DFS
    takes the groups in descending weight, stops at partial >= theta, and
    prunes once the remaining groups cannot reach theta.  No guards.
    """
    theta = Fraction(theta)
    by_weight: dict[Fraction, list[Fraction]] = {}
    for p, w in zip(probs, weights):
        if Fraction(w) != 0:
            by_weight.setdefault(Fraction(w), []).append(Fraction(p))
    gw = sorted(by_weight, reverse=True)
    pmfs = [_count_pmf(by_weight[w]) for w in gw]
    max_rest = [Fraction(0)] * (len(gw) + 1)
    for g in range(len(gw) - 1, -1, -1):
        max_rest[g] = max_rest[g + 1] + gw[g] * (len(pmfs[g]) - 1)

    @functools.lru_cache(maxsize=None)
    def success_prob(g: int, partial: Fraction) -> Fraction:
        if partial >= theta:
            return Fraction(1)
        if g == len(gw) or partial + max_rest[g] < theta:
            return Fraction(0)
        return sum(
            (mass * success_prob(g + 1, partial + gw[g] * count)
             for count, mass in enumerate(pmfs[g]) if mass),
            Fraction(0),
        )

    return success_prob(0, Fraction(0))


def raw_lanes(seed: int, chunk: int, words: int) -> tuple[list[int], np.random.PCG64]:
    """The 16-bit lanes of the first ``words`` raw words of the sampler's
    chunk generator, PCG64 seeded by SeedSequence([seed, chunk]), each
    word's four lanes from its low quarter up; and that generator, which
    has drawn them."""
    gen = np.random.PCG64(np.random.SeedSequence([seed % (1 << 64), chunk]))
    return [(word >> shift) & 0xFFFF for word in gen.random_raw(words).tolist() for shift in (0, 16, 32, 48)], gen


def sampled_rows(probs, m: int, seed: int) -> list[tuple[int, ...]]:
    """The m bit rows of the library's sampler over probs, in draw order.

    Built from the raw stream the sampler documents.  Chunk c holds
    max(1, CHUNK_LANES // w) draws over w = len(probs) coordinates and
    reads their lanes row-major (raw_lanes).  Each lane is decided on its
    own interval [u, u + 1) / 2^16 against p = a/b, on integers: 1 when
    it lies at or below p, 0 when at or above.
    A lane that straddles p, after all of its chunk's lanes and in
    row-major order, refines its interval by the low 16 bits of the
    generator's next raw words until it lies on one side.  This shares
    neither the sampler's threshold digits nor its packing.
    """
    ratios = [(Fraction(p).numerator, Fraction(p).denominator) for p in probs]
    w = len(ratios)
    per_chunk = max(1, evaluate.CHUNK_LANES // max(w, 1))
    out = []
    for c, start in enumerate(range(0, m, per_chunk)):
        rows = min(per_chunk, m - start)
        lanes, gen = raw_lanes(seed, c, -(-rows * w // 4))
        lanes = lanes[: rows * w]
        columns = []
        for j, (a, b) in enumerate(ratios):
            top = a << 16  # lane u: 1 if (u + 1) b <= a 2^16, 0 if u b >= a 2^16, else it straddles
            columns.append([1 if (u + 1) * b <= top else 0 if u * b >= top else None for u in lanes[j::w]])
        straddles = sorted((r, j) for j, column in enumerate(columns) for r, bit in enumerate(column) if bit is None)
        for r, j in straddles:
            (a, b), low, scale = ratios[j], lanes[r * w + j], 1 << 16
            while columns[j][r] is None:
                low, scale = (low << 16) + (int(gen.random_raw()) & 0xFFFF), scale << 16
                if (low + 1) * b <= a * scale:
                    columns[j][r] = 1
                elif low * b >= a * scale:
                    columns[j][r] = 0
        out += zip(*columns) if w else [()] * rows
    return out


def sampled_patterns(probs, m: int, seed: int) -> Counter:
    """Count of each bit tuple among the m draws of the library's sampler (sampled_rows)."""
    return Counter(sampled_rows(probs, m, seed))


def _over_common_denominator(values) -> tuple[int, list[int]]:
    """(d, [d v for v in values]) with d the lcm of the values' denominators:
    the values as plain ints over one positive denominator."""
    values = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def fraction_hit_counts(probs, vectors, theta, m: int, seed: int) -> list[int]:
    """mc_hit_counts by one exact sum per (vector, pattern): each vector and
    theta are put over the lcm of their denominators once, so a pattern's
    w . x >= theta is a sum of plain ints against one int.

    The patterns are counted from the raw stream (sampled_patterns), so
    this checks the sampler's lanes and packing as well as the
    classification.
    """
    scaled = []
    for weights in vectors:
        _, (*ints, bar) = _over_common_denominator([*weights, theta])
        scaled.append((ints, bar))
    hits = [0] * len(vectors)
    for bits, count in sampled_patterns(probs, m, seed).items():
        for i, (ints, bar) in enumerate(scaled):
            if sum(itertools.compress(ints, bits)) >= bar:
                hits[i] += count
    return hits


def fraction_tail_empirical(tail_probs, tail, m: int, seed: int):
    """(values, counts) of sample_tail_empirical by one exact sum per
    pattern, taken on the tail's ints over the lcm d of its denominators."""
    d, ints = _over_common_denominator(tail)
    agg: dict[int, int] = {}
    for bits, count in sampled_patterns(tail_probs, m, seed).items():
        value = sum(itertools.compress(ints, bits))
        agg[value] = agg.get(value, 0) + count
    values = sorted(agg)
    return tuple(Fraction(v, d) for v in values), tuple(agg[v] for v in values)


def granular_instance(rng: random.Random, n: int, theta, epsilon, delta=Fraction(1, 20),
                      lo=Fraction(3, 10), hi=Fraction(7, 10)) -> ProblemInstance:
    """Random instance with p_i already on the eps/(4n) grid, sorted."""
    theta, epsilon, delta = Fraction(theta), Fraction(epsilon), Fraction(delta)
    grid = epsilon / (4 * n)
    k_lo = max(1, int(-(-lo / grid // 1)))  # ceil
    k_hi = int(min(hi, 1 - epsilon) / grid)
    if min(hi, 1 - epsilon) / grid == k_hi:
        k_hi -= 1  # keep p_1 strictly below 1 - eps
    k_hi = max(k_lo, k_hi)
    probs = sorted(
        (grid * rng.randint(k_lo, k_hi) for _ in range(n)), reverse=True
    )
    return ProblemInstance(
        probs=tuple(probs),
        theta=theta,
        epsilon=epsilon,
        delta=delta,
        permutation=tuple(range(n)),
    )


def per_k_uniform_split(instance: ProblemInstance) -> UniformSplitResult:
    """baselines.uniform_split_baseline with one general exact evaluation
    of w = (1/k,...,1/k,0,...,0) per k; ties go to the smallest k."""
    values = []
    for k in range(1, instance.n + 1):
        w = [Fraction(1, k)] * k + [Fraction(0)] * (instance.n - k)
        values.append(exact_objective_probs(instance.probs, w, instance.theta))
    best_k = max(range(instance.n), key=lambda i: (values[i], -i)) + 1
    return UniformSplitResult(best_k=best_k, value=values[best_k - 1], per_k=tuple(values))


def fraction_sort_order(probs) -> list[int]:
    """core.preprocess's A1 order on Fractions: indices by probability
    descending, ties in index order (a stable reverse sort)."""
    return sorted(range(len(probs)), key=[Fraction(p) for p in probs].__getitem__, reverse=True)


def fraction_gamma(probs) -> Fraction:
    """core.compute_gamma on a sorted probability tuple: min(p_n, 1 - p_1)."""
    return min(Fraction(probs[-1]), 1 - Fraction(probs[0]))


def fraction_value(value) -> Fraction:
    """A probability or parameter as the instance format reads it, by the
    standard library alone: a float (numpy's float64 included) is snapped
    by Fraction.limit_denominator(10^6); anything else is exact."""
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**6)
    return Fraction(int(value) if isinstance(value, np.integer) else value)


def fraction_preprocess(p_raw, theta, epsilon, delta):
    """core.preprocess one Fraction at a time, as it was before its integer
    path: the same checks, messages, order, shortcuts and rounding.

    Returns the shortcut's TrivialSolution, or the instance's
    (probs, units, permutation, theta, epsilon, delta, gamma)."""
    if len(p_raw) == 0:
        raise InputError("empty probability vector")
    theta, epsilon, delta = map(fraction_value, (theta, epsilon, delta))
    if not 0 <= theta <= 1:
        raise InputError(f"theta={theta} outside [0,1]")
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon={epsilon} outside (0,1)")
    if not 0 < delta < 1:
        raise InputError(f"delta={delta} outside (0,1)")
    probs = [fraction_value(p) for p in p_raw]
    for i, p in enumerate(probs):
        if not 0 <= p <= 1:
            raise InputError(f"p[{i}]={p} outside [0,1]")
    n = len(probs)
    order = fraction_sort_order(probs)
    best = order[0]

    def unit(index, objective, reason, eps_optimal):
        weights = tuple(Fraction(int(i == index)) for i in range(n))
        return TrivialSolution(weights, objective, reason, eps_optimal)

    grid = epsilon / (4 * n)
    if theta == 0:
        return unit(0, Fraction(1), "theta_zero", False)
    if theta == 1:
        return unit(best, probs[best], "theta_one", False)
    if probs[best] >= 1 - epsilon:
        return unit(best, probs[best], "high_prob_shortcut", True)
    if grid >= 1 - epsilon:
        return unit(best, probs[best], "below_grid_shortcut", True)
    rounded = tuple(fraction_round_to_grid(probs[i], grid) for i in order)
    units = tuple(int(p / grid) for p in rounded)
    return rounded, units, tuple(order), theta, epsilon, delta, fraction_gamma(rounded)


def fraction_no_regular_tail(eps_prime: Fraction, kappa: Fraction, n: int, K: int) -> bool:
    """small_ci.no_regular_tail as the Fraction test
    eps'^2 min(floor(1/kappa), n - K + 1) < 1."""
    return eps_prime * eps_prime * min(math.floor(1 / kappa), n - K + 1) < 1


def fewest_regular_slots(eps_prime: Fraction) -> int:
    """ceil(1/eps'^2): the fewest nonzero slots of an eps'-regular tail."""
    return -(-eps_prime.denominator**2 // eps_prime.numerator**2)


def fraction_round_to_grid(p: Fraction, grid: Fraction) -> Fraction:
    """preprocess's rounding (core._grid_units) in Fraction arithmetic:
    floor(p / grid) grid units, clamped up to one unit."""
    k = p / grid
    return grid * max(k.numerator // k.denominator, 1)


def full_tail_triples(instance: ProblemInstance, L: int, kappa: Fraction) -> list[TailTriple]:
    """Every reachable (A,B,C) tail triple over all slots L+1..n, in (A,B,C)
    order, each with the first path, as (slot, j) pairs by slot, that a
    layered DP over sorted (A,B,C) snapshots, j ascending, finds.
    large_ci.construct_achievable_tails keeps only the largest B per (A, C)
    of these, and reads fewer slots."""
    jmax = int(1 / kappa)
    states: dict = {(0, 0, 0): None}  # triple -> (slot, predecessor, j)
    for t in range(L + 1, instance.n + 1):
        m_t = int(instance.probs[t - 1] / instance.grid)
        for state in sorted(states):
            a, b, c = state
            for j in range(1, jmax - c + 1):
                states.setdefault((a + j * j, b + j * m_t, c + j), (t, state, j))
    out = []
    for state in sorted(states):
        path, cur = [], state
        while states[cur] is not None:
            t, cur, j = states[cur]
            path.append((t, j))
        out.append(TailTriple(*state, path=tuple(reversed(path))))
    return out


def max_b_keys(triples) -> set:
    """The (A, B, C) triples whose B is the largest at their (A, C)."""
    best: dict = {}
    for a, b, c in triples:
        best[a, c] = max(b, best.get((a, c), b))
    return {(a, b, c) for (a, c), b in best.items()}


def grid_weights(dims: int, budget: Fraction, step: Fraction):
    """All non-negative weight vectors on the step grid with sum <= budget."""
    top = int(budget / step)
    for combo in itertools.product(range(top + 1), repeat=dims):
        if sum(combo) <= top:
            yield tuple(step * j for j in combo)


def _outcome_probs(head_probs):
    k = len(head_probs)
    outcomes = list(itertools.product((0, 1), repeat=k))
    point_pr = []
    for x in outcomes:
        pr = Fraction(1)
        for p, b in zip(head_probs, x):
            pr *= p if b else 1 - p
        point_pr.append(pr)
    return outcomes, point_pr


@functools.lru_cache(maxsize=None)
def _grid_masks(k: int, top: int, thresholds: tuple) -> frozenset:
    """Realized event masks (one per threshold) over integer grid weights.

    Integer dot products make the scan exact and fast (an integer d reaches
    t iff it reaches ceil(t)); masks are deduped so probabilities are
    computed once per distinct event tuple.  A pure function of its
    arguments, so repeated (k, top, thresholds) keys are enumerated once.
    """
    cuts = [math.ceil(t) for t in thresholds]
    seen = set()
    for combo in itertools.product(range(top + 1), repeat=k):
        if sum(combo) > top:
            continue
        dots = [0]  # combo . x over itertools.product((0, 1), repeat=k), in its order
        for j in combo:
            dots = [d + c for d in dots for c in (0, j)]
        key = tuple(
            sum(1 << i for i, d in enumerate(dots) if d >= c) for c in cuts
        )
        seen.add(key)
    return frozenset(seen)


def grid_junta_value(head_probs, tau, W, step=Fraction(1, 64)) -> Fraction:
    """Dense-grid maximum of Pr[w . X >= tau] over feasible heads (exact)."""
    head_probs = [Fraction(p) for p in head_probs]
    tau, W, step = Fraction(tau), Fraction(W), Fraction(step)
    k = len(head_probs)
    top = int(W / step)
    _, point_pr = _outcome_probs(head_probs)
    best = Fraction(0)
    for (mask,) in _grid_masks(k, top, (tau / step,)):
        value = sum(
            (pr for i, pr in enumerate(point_pr) if (mask >> i) & 1), Fraction(0)
        )
        best = max(best, value)
    return best


def lp_scan_junta(head_probs, tau, W, masks) -> Fraction:
    """Max of Pr[w . X >= tau] over heads w >= 0, sum(w) <= W, by one
    feasibility LP (``small_ci.chain_lp``) per event set in ``masks``; each
    feasible set's witness is scored by full outcome enumeration, and the
    zero head is always a candidate."""
    head_probs = [Fraction(p) for p in head_probs]
    tau, W = Fraction(tau), Fraction(W)
    k = len(head_probs)
    best = naive_objective(head_probs, [Fraction(0)] * k, tau)
    for mask in masks:
        res = lp_solve(chain_lp((mask,), (tau,), W, k))
        if res.status == "optimal":
            best = max(best, naive_objective(head_probs, res.x, tau))
    return best


# set_margin solves one LP per call; the references and strategies that ask
# for the same margins over and over share this test-side cache
cached_set_margin = functools.lru_cache(maxsize=None)(set_margin)


def fraction_junta_scan(req: JuntaRequest) -> JuntaResult:
    """junta.find_optimal_junta in Fraction arithmetic: the non-empty
    upward-closed sets of the table generator's weight grid
    (margin_table.py) by (-P(S), mask), P(S) a Fraction sum over the set's
    points, and the first set with tau <= W v(S) gives the witness
    (tau / v(S)) u_S, from the generator's LP; neither comes from the
    committed table."""
    L, tau, W = req.L, req.tau, req.W
    if tau <= 0:
        return JuntaResult((Fraction(0),) * L, Fraction(1), 0)
    point_probs = outcome_probabilities(req.head_probs)
    sets = sorted(
        (-mask_probability(point_probs, mask), mask) for mask in grid_family(L, True) if mask
    )
    for examined, (neg_prob, mask) in enumerate(sets, 1):
        v, u = cached_set_margin(mask, L)
        if tau <= W * v:
            return JuntaResult(tuple(tau / v * x for x in u), -neg_prob, examined)
    return JuntaResult((Fraction(0),) * L, Fraction(0), len(sets))


def grid_best_head_value(head_probs, points, W, theta, step=Fraction(1, 64)) -> Fraction:
    """Dense-grid maximum of Pr[u . X + R >= theta] over feasible heads."""
    head_probs = [Fraction(p) for p in head_probs]
    theta, W, step = Fraction(theta), Fraction(W), Fraction(step)
    points = [Fraction(t) for t in points]
    k = len(head_probs)
    top = int(W / step)
    _, point_pr = _outcome_probs(head_probs)
    thresholds = tuple((theta - t) / step for t in points)
    m = len(points)
    best = Fraction(0)
    for masks in _grid_masks(k, top, thresholds):
        value = Fraction(0)
        for mask in masks:
            value += sum(
                (pr for i, pr in enumerate(point_pr) if (mask >> i) & 1), Fraction(0)
            )
        best = max(best, value / m)
    return best


def _literal_lp(masks, points, k: int, W: Fraction, theta: Fraction):
    """Head u >= 0, sum(u) <= W, realizing event ``masks[i]`` at ``points[i]``.

    Membership constraints only, as in the paper: x in masks[i] needs
    u . x >= theta - points[i].  Returns u, or None when infeasible.
    """
    nv = max(k, 1)
    cons = [([Fraction(1)] * k if k else [Fraction(0)], "<=", W)]
    for mask, t in zip(masks, points):
        for x in range(1 << k):
            if (mask >> x) & 1:
                row = [Fraction(b) for b in point_bits(x, k)] or [Fraction(0)]
                cons.append((row, ">=", theta - t))
    res = lp_solve(LinearProgram(nv, cons, objective=None))
    if res.status != "optimal":
        return None
    return tuple(res.x[:k])


def head_value(head_probs, points, theta, u) -> Fraction:
    """Pr[u . X + R >= theta] with R uniform over the points, by
    enumerating every outcome of the head."""
    outcomes, point_pr = _outcome_probs([Fraction(p) for p in head_probs])
    theta = Fraction(theta)
    total = Fraction(0)
    for x, pr in zip(outcomes, point_pr):
        dot = sum((w for w, b in zip(u, x) if b), Fraction(0))
        total += pr * sum(1 for t in points if dot + Fraction(t) >= theta)
    return total / len(points)


def upward_closure(mask: int, k: int) -> int:
    """The points of {0,1}^k at or above some point of mask, coordinatewise."""
    closed = 0
    for x in range(1 << k):
        if (mask >> x) & 1:
            for y in range(1 << k):
                if y & x == x:
                    closed |= 1 << y
    return closed


def literal_best_head_value(head_probs, points, W, theta) -> Fraction:
    """Max of Pr[u . X + R >= theta] by the paper's literal search.

    Every tuple in S^m of threshold-realizable sets, upward-closed or not,
    from the table generator's weight grid (one per sampled point) has its
    feasibility LP; each feasible witness is scored by full enumeration.
    Exponential in m, so for micro-instances only.

    Each LP is solved once per tuple of upward closures.  With u >= 0,
    u . y >= u . x whenever y >= x, so a set's membership rows hold
    exactly when its closure's rows hold, and a tuple of sets has the same
    feasible region as the tuple of their closures.  The maximum is
    unchanged whichever witness a region yields: every witness is a
    feasible head, and the optimum u* realizes the upward-closed sets
    {x : u* . x >= theta - t}, a tuple of grid sets that is its own
    closure tuple, whose witness realizes supersets of them and so scores
    at least u*'s value.
    """
    head_probs = [Fraction(p) for p in head_probs]
    points = sorted(Fraction(t) for t in points)
    W, theta = Fraction(W), Fraction(theta)
    k = len(head_probs)
    closures = sorted({upward_closure(mask, k) for mask in grid_family(k, False)})
    best = head_value(head_probs, points, theta, (Fraction(0),) * k)
    for tup in itertools.product(closures, repeat=len(points)):
        u = _literal_lp(tup, points, k, W, theta)
        if u is not None:
            best = max(best, head_value(head_probs, points, theta, u))
    return best


def outcome_probabilities(probs) -> tuple[Fraction, ...]:
    """Probability of every point x of {0,1}^k (coordinate j is bit j of x)
    under the product law, one Fraction product per point."""
    k = len(probs)
    out = []
    for x in range(1 << k):
        pr = Fraction(1)
        for j, p in enumerate(probs):
            pr *= Fraction(p) if (x >> j) & 1 else 1 - Fraction(p)
        out.append(pr)
    return tuple(out)


def mask_probability(point_probs, mask: int) -> Fraction:
    """Fraction sum of the point probabilities over the set bits of mask."""
    return sum(
        (pr for x, pr in enumerate(point_probs) if (mask >> x) & 1), Fraction(0)
    )


def set_numerators(nums, masks) -> list[int]:
    """The sum of the point numerators over each mask's set bits.

    ``nums`` becomes one table of 256 partial sums per byte of a mask
    (the sum over every subset of those eight points, each built from a
    smaller subset's), so a mask costs one lookup per byte."""
    masks = list(masks)
    scores = [0] * len(masks)
    for base in range(0, len(nums), 8):
        chunk = nums[base : base + 8]
        table = [0]
        for v in range(1, 1 << len(chunk)):
            low = v & -v
            table.append(table[v ^ low] + chunk[low.bit_length() - 1])
        scores = [s + table[(m >> base) & 255] for s, m in zip(scores, masks)]
    return scores


def nested_chains(k: int, r: int) -> list[tuple[int, ...]]:
    """Every chain S_1 <= ... <= S_r of upward-closed realizable masks over
    {0,1}^k, from the table generator's weight grid, in lexicographic mask
    order, by a pairwise superset test."""
    masks = grid_family(k, True)
    chains = [(a,) for a in masks]
    for _ in range(r - 1):
        chains = [ch + (b,) for ch in chains for b in masks if ch[-1] & ~b == 0]
    return chains


def exhaustive_best_head(head_probs, points, W, theta) -> tuple[Fraction, tuple]:
    """(value, witness) of max Pr[u . X + R >= theta] over u >= 0 with
    sum(u) <= W, by certifying every nested chain with its own
    ``small_ci.chain_lp`` and scoring every feasible witness by the Fraction
    probabilities of the event sets it realizes.  Keeps the best score, and
    among equal scores the lexicographically smallest descending-sorted
    head."""
    head_probs = [Fraction(p) for p in head_probs]
    W, theta = Fraction(W), Fraction(theta)
    points = sorted(Fraction(t) for t in points)
    k = len(head_probs)
    if not k:
        return head_value((), points, theta, ()), ()
    taus = sorted({theta - t for t in points}, reverse=True)
    point_pr = outcome_probabilities(head_probs)

    def score(u) -> Fraction:
        hits = sum(
            (mask_probability(point_pr, realize_mask(u, theta - t, k)) for t in points),
            Fraction(0),
        )
        return hits / len(points)

    best = None
    for chain in _nested_chains(k, len(taus), 10**9):
        res = lp_solve(chain_lp(chain, taus, W, k))
        if res.status != "optimal":
            continue
        key = (score(res.x), [-x for x in sorted(res.x, reverse=True)])
        if best is None or key > best[0]:
            best = (key, tuple(res.x))
    return best[0][0], best[1]


def realize_mask(u, c, k: int) -> int:
    """Bitmask of the points x of {0,1}^k with u . x >= c."""
    mask = 0
    for x in range(1 << k):
        dot = sum(uj for j, uj in enumerate(u) if (x >> j) & 1)
        if dot >= c:
            mask |= 1 << x
    return mask


def lp_separation(mask: int, k: int) -> Optional[tuple[tuple[int, ...], int]]:
    """Integer (u, c) with mask = {x : u . x >= c}, or None if there is none.

    One feasibility LP over free (u, c): u . x >= c on the set and
    u . x <= c - 1 off it.  Each free variable is split into interleaved
    non-negative columns (u_1+, u_1-, ..., c+, c-).  Scaling the rational
    solution by the lcm of its denominators keeps both sides
    (t(c - 1) <= tc - 1 for integer t >= 1).
    """
    nv = k + 1
    cons = []
    for x in range(1 << k):
        row = [Fraction(b) for b in point_bits(x, k)] + [Fraction(-1)]
        split = [part for a in row for part in (a, -a)]
        if (mask >> x) & 1:
            cons.append((split, ">=", Fraction(0)))
        else:
            cons.append((split, "<=", Fraction(-1)))
    res = lp_solve(LinearProgram(2 * nv, cons, objective=None))
    if res.status != "optimal":
        return None
    x = [res.x[2 * j] - res.x[2 * j + 1] for j in range(nv)]
    scale = lcm(*(v.denominator for v in x))
    u = tuple(int(v * scale) for v in x[:k])
    c = int(x[k] * scale)
    assert realize_mask(u, c, k) == mask
    return u, c


@functools.lru_cache(maxsize=None)
def _low_masks(k: int) -> tuple[int, ...]:
    """Per coordinate, the bitmask of points with that coordinate = 0."""
    out = []
    for j in range(k):
        low = 0
        for x in range(1 << k):
            if not (x >> j) & 1:
                low |= 1 << x
        out.append(low)
    return tuple(out)


def _direction(mask: int, k: int, j: int) -> Optional[int]:
    """+1 if non-decreasing in coordinate j, -1 if non-increasing (prefers
    +1 when both), None if neither."""
    full = (1 << (1 << k)) - 1
    low = _low_masks(k)[j]
    step = 1 << j
    if ((mask & low) << step) & ~mask & full == 0:
        return 1
    if ((mask & ~low & full) >> step) & ~mask & full == 0:
        return -1
    return None


def is_unate(mask: int, k: int) -> bool:
    """Monotone non-decreasing or non-increasing in every coordinate."""
    return all(_direction(mask, k, j) is not None for j in range(k))


def _orient(mask: int, k: int) -> Optional[tuple[int, int]]:
    """Flip set making the function monotone non-decreasing, or None.

    Returns (monotone_mask, flips); flipping coordinate j permutes point
    indices by XOR with bit j.  flips == 0 exactly when the set is
    upward-closed.
    """
    flips = 0
    for j in range(k):
        d = _direction(mask, k, j)
        if d is None:
            return None
        if d < 0:
            flips |= 1 << j
    if flips == 0:
        return mask, 0
    mono = 0
    for y in range(1 << k):
        if (mask >> (y ^ flips)) & 1:
            mono |= 1 << y
    return mono, flips


@functools.lru_cache(maxsize=None)
def lp_threshold_masks(k: int, monotone: bool = False) -> tuple[int, ...]:
    """Every threshold-realizable subset of {0,1}^k, as increasing masks.

    Walks all 2^(2^k) Boolean functions (k <= 4).  Non-unate ones are not
    threshold functions; thresholdness is invariant under coordinate flips,
    so each unate function is decided by ``lp_separation`` on its monotone
    reorientation, which keeps the LP count at Dedekind(k).
    ``monotone=True`` keeps the upward-closed sets only.  Cached for the
    session: k = 4 solves 168 exact LPs.
    """
    if monotone:
        return tuple(m for m in lp_threshold_masks(k) if _orient(m, k)[1] == 0)
    decided: dict[int, bool] = {}
    out = []
    for mask in range(1 << (1 << k)):
        oriented = _orient(mask, k)
        if oriented is None:
            continue
        mono, _ = oriented
        verdict = decided.get(mono)
        if verdict is None:
            verdict = decided[mono] = lp_separation(mono, k) is not None
        if verdict:
            out.append(mask)
    return tuple(out)


def _fraction_pivot(rows, obj, basis, r, c):
    inv = 1 / rows[r][c]
    rows[r] = [v * inv for v in rows[r]]
    prow = rows[r]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    if obj[c] != 0:
        f = obj[c]
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[r] = c


def _fraction_optimize(rows, obj, basis, allowed) -> str:
    """Maximize with Bland's rule; obj holds reduced costs z_j - c_j."""
    while True:
        enter = next((j for j in allowed if obj[j] < 0), -1)
        if enter < 0:
            return "optimal"
        leave, best = -1, None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            return "unbounded"
        _fraction_pivot(rows, obj, basis, leave, enter)


def _fraction_price(costs, rows, basis):
    obj = [-c for c in costs] + [Fraction(0)]
    for row, b in zip(rows, basis):
        if costs[b] != 0:
            obj = [a + costs[b] * v for a, v in zip(obj, row)]
    return obj


def fraction_lp_solve(lp: LinearProgram) -> LPResult:
    """``lp_solve`` on a Fraction tableau, unscaled: two-phase Bland simplex
    with the same column layout (structural, slacks, artificials), phase-1
    cost -1 on every artificial, and the same drive-out of artificials."""
    lp = lp.normalized()
    n = lp.n_vars
    rows_spec = []
    for coeffs, rel, rhs in lp.constraints:
        if rhs < 0:
            coeffs, rhs = tuple(-c for c in coeffs), -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows_spec.append((coeffs, rel, rhs))
    slacks = sum(1 for _, rel, _ in rows_spec if rel != "=")
    art_start = n + slacks
    width = art_start + sum(1 for _, rel, _ in rows_spec if rel != "<=")
    rows, basis = [], []
    slack_at, art_at = n, art_start
    for coeffs, rel, rhs in rows_spec:
        row = list(coeffs) + [Fraction(0)] * (width - n) + [rhs]
        if rel != "=":
            row[slack_at] = Fraction(1 if rel == "<=" else -1)
            slack_at += 1
        if rel == "<=":
            basis.append(slack_at - 1)
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        rows.append(row)
    if width > art_start:
        costs = [Fraction(0)] * art_start + [Fraction(-1)] * (width - art_start)
        obj = _fraction_price(costs, rows, basis)
        assert _fraction_optimize(rows, obj, basis, range(width)) == "optimal"
        if obj[-1] < 0:
            return LPResult(status="infeasible")
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] >= art_start:
                col = next((j for j in range(art_start) if rows[i][j] != 0), None)
                if col is None:
                    rows.pop(i)
                    basis.pop(i)
                else:
                    _fraction_pivot(rows, obj, basis, i, col)
    value = None
    if lp.objective is not None:
        coeffs, direction = lp.objective
        sign = 1 if direction == "max" else -1
        costs = [sign * c for c in coeffs] + [Fraction(0)] * (width - n)
        obj = _fraction_price(costs, rows, basis)
        if _fraction_optimize(rows, obj, basis, range(art_start)) == "unbounded":
            return LPResult(status="unbounded")
        value = sign * obj[-1]
    point = [Fraction(0)] * width
    for row, b in zip(rows, basis):
        point[b] = row[-1]
    return LPResult(status="optimal", x=tuple(point[:n]), objective_value=value)


def child_env(**extra) -> dict:
    """Environment for a fresh interpreter that imports this storalloc."""
    src = str(Path(storalloc.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def with_one_retry(check, seeds=(0, 1)):
    """Statistical suites get one rerun on a fresh seed before failing."""
    try:
        check(seeds[0])
    except AssertionError:
        check(seeds[1])


@pytest.fixture
def rng():
    return random.Random(0xA110C)


@pytest.fixture
def cold_junta(monkeypatch):
    """An empty junta cache for one test: a fresh cache of _load_table
    stands in for the process's, which comes back afterwards."""
    monkeypatch.setattr(junta, "_load_table", functools.lru_cache(maxsize=None)(junta._load_table.__wrapped__))
