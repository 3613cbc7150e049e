"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's optimized paths: the
naive objective enumerates all 2^n outcomes with itertools, the grid
oracles scan dense 1/64-step weight grids, the threshold-set oracle
decides every Boolean function on {0,1}^k by an exact separation LP, and
the Fraction classifiers sum one Fraction per (vector, sampled pattern), and
the LP junta scan solves one feasibility LP per event set.  They
exist so that every optimized routine is checked against an implementation
too simple to share its bugs.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import storalloc
from storalloc.core import ProblemInstance
from storalloc.evaluate import _pattern_counts
from storalloc.halfspaces import enumerate_halfspace_sets, point_bits
from storalloc.junta import chain_lp
from storalloc.lp import LinearProgram, lp_solve


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


def _sampled_patterns(probs, m: int, seed: int):
    """(bits as a list of ints, count) per distinct pattern the library draws."""
    rows, counts = _pattern_counts(probs, m, seed)
    for row, count in zip(rows, counts.tolist()):
        yield np.unpackbits(row)[: len(probs)].tolist(), count


def _fraction_dot(weights, bits) -> Fraction:
    return sum((Fraction(w) for w, b in zip(weights, bits) if b), Fraction(0))


def fraction_hit_counts(probs, vectors, theta, m: int, seed: int) -> list[int]:
    """mc_hit_counts by one Fraction sum per (vector, pattern).

    The patterns come from the library's sampler, so this checks the
    classification alone.
    """
    theta = Fraction(theta)
    hits = [0] * len(vectors)
    for bits, count in _sampled_patterns(probs, m, seed):
        for i, weights in enumerate(vectors):
            if _fraction_dot(weights, bits) >= theta:
                hits[i] += count
    return hits


def fraction_tail_empirical(tail_probs, tail, m: int, seed: int):
    """(values, counts) of sample_tail_empirical by one Fraction sum per pattern."""
    agg: dict[Fraction, int] = {}
    for bits, count in _sampled_patterns(tail_probs, m, seed):
        value = _fraction_dot(tail, bits)
        agg[value] = agg.get(value, 0) + count
    values = sorted(agg)
    return tuple(values), tuple(agg[v] for v in values)


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


def _grid_masks(k: int, top: int, thresholds):
    """Realized event masks (one per threshold) over integer grid weights.

    Integer dot products make the scan exact and fast; masks are deduped so
    probabilities are computed once per distinct event tuple.
    """
    outcomes = list(itertools.product((0, 1), repeat=k))
    seen = set()
    for combo in itertools.product(range(top + 1), repeat=k):
        if sum(combo) > top:
            continue
        dots = [sum(j * b for j, b in zip(combo, x)) for x in outcomes]
        key = tuple(
            sum(1 << i for i, d in enumerate(dots) if d >= t) for t in thresholds
        )
        seen.add(key)
    return seen


def grid_junta_value(head_probs, tau, W, step=Fraction(1, 64)) -> Fraction:
    """Dense-grid maximum of Pr[w . X >= tau] over feasible heads (exact)."""
    head_probs = [Fraction(p) for p in head_probs]
    tau, W, step = Fraction(tau), Fraction(W), Fraction(step)
    k = len(head_probs)
    top = int(W / step)
    _, point_pr = _outcome_probs(head_probs)
    best = Fraction(0)
    for (mask,) in _grid_masks(k, top, [tau / step]):
        value = sum(
            (pr for i, pr in enumerate(point_pr) if (mask >> i) & 1), Fraction(0)
        )
        best = max(best, value)
    return best


def lp_scan_junta(head_probs, tau, W, sets) -> Fraction:
    """Max of Pr[w . X >= tau] over heads w >= 0, sum(w) <= W, by one
    feasibility LP (``junta.chain_lp``) per event set in ``sets``; each
    feasible set's witness is scored by full outcome enumeration, and the
    zero head is always a candidate."""
    head_probs = [Fraction(p) for p in head_probs]
    tau, W = Fraction(tau), Fraction(W)
    k = len(head_probs)
    best = naive_objective(head_probs, [Fraction(0)] * k, tau)
    for set_ in sets:
        res = lp_solve(chain_lp((set_.mask,), (tau,), W, k))
        if res.status == "optimal":
            best = max(best, naive_objective(head_probs, res.x, tau))
    return best


def grid_best_head_value(head_probs, points, W, theta, step=Fraction(1, 64)) -> Fraction:
    """Dense-grid maximum of Pr[u . X + R >= theta] over feasible heads."""
    head_probs = [Fraction(p) for p in head_probs]
    theta, W, step = Fraction(theta), Fraction(W), Fraction(step)
    points = [Fraction(t) for t in points]
    k = len(head_probs)
    top = int(W / step)
    _, point_pr = _outcome_probs(head_probs)
    thresholds = [(theta - t) / step for t in points]
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


def literal_best_head_value(head_probs, points, W, theta) -> Fraction:
    """Max of Pr[u . X + R >= theta] by the paper's literal search.

    Every tuple in S^m of halfspace sets (one per sampled point) gets a
    feasibility LP; each feasible witness is scored by full enumeration.
    Exponential in m, so for micro-instances only.
    """
    head_probs = [Fraction(p) for p in head_probs]
    points = sorted(Fraction(t) for t in points)
    W, theta = Fraction(W), Fraction(theta)
    k = len(head_probs)
    outcomes, point_pr = _outcome_probs(head_probs)

    def value(u):
        total = Fraction(0)
        for x, pr in zip(outcomes, point_pr):
            dot = sum((w for w, b in zip(u, x) if b), Fraction(0))
            total += pr * sum(1 for t in points if dot + t >= theta)
        return total / len(points)

    masks = [s.mask for s in enumerate_halfspace_sets(k)]
    best = value((Fraction(0),) * k)
    for tup in itertools.product(masks, repeat=len(points)):
        u = _literal_lp(tup, points, k, W, theta)
        if u is not None:
            best = max(best, value(u))
    return best


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
