"""Case 3's exact head search: the best head against a sampled tail.

find_best_head maximizes Pr[u . X + R >= theta] over heads u, R uniform
over a sample of tail values, by nested chains of upward-closed sets and
one membership LP (chain_lp) per chain.  No solve calls it: the driver
decides Case 3 in closed form (driver.case3_verdict), so the search
serves the Case-3 test reference (tests/case3.py), which completes its
heads with it, and the oracle benchmark.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from typing import Sequence

from .errors import GuardError, InputError
from .evaluate import BLOCK_BYTES, EmpiricalDist
from .halfspaces import minimal_members, point_bits
from .junta import family_numerators, margin_admits, outcome_numerators, upward_family
from .lp import LinearProgram, lp_solve
from .util import Record, to_fraction

logger = logging.getLogger(__name__)


class HeadResult(Record):
    __slots__ = ("weights", "value", "patterns_examined")

    def __init__(self, weights: tuple[Fraction, ...], value: Fraction, patterns_examined: int):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "patterns_examined", patterns_examined)


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
    Let C be the first chain whose membership LP (chain_lp) is
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
    non-empty and tau_i > W v(S_i), by the junta scan's own test on its
    committed margin table (junta.margin_admits): each level alone is then
    infeasible (junta module docstring), so the test never skips a
    feasible chain.
    """
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    head_probs = tuple(to_fraction(p) for p in head_probs)
    W = to_fraction(W)
    theta = to_fraction(theta)
    if W < 0:
        raise InputError("negative head budget")
    if not all(0 <= p.numerator <= p.denominator for p in head_probs):
        raise InputError("head probabilities must lie in [0,1]")
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
    index = {mask: i for i, mask in enumerate(upward_family(k)[0])}
    set_num = family_numerators(nums, k).tolist()
    scores = [sum(cnt * set_num[index[mask]] for cnt, mask in zip(counts, chain)) for chain in chains]
    bounds = [(tau.numerator * W.denominator, W.numerator * tau.denominator) for tau in taus]

    skipped = solved = 0
    for rank, idx in enumerate(sorted(range(len(chains)), key=lambda i: (-scores[i], i)), 1):
        chain = chains[idx]
        if not all(lhs <= 0 or not mask or margin_admits(index[mask], k, lhs, rhs)
                   for mask, (lhs, rhs) in zip(chain, bounds)):
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


def chain_lp(chain: Sequence[int], taus: Sequence[Fraction], W: Fraction, k: int) -> LinearProgram:
    """Feasibility program for heads u >= 0, sum(u) <= W, reaching tau_i on
    every member of the upward-closed S_i, for a chain S_1 <= ... <= S_r of
    masks over {0,1}^k with taus descending.

    Rows go level by level: u.x >= tau_i for each minimal member x of S_i
    not already in S_{i-1}, in ascending point index; the budget row comes
    last.  The rows left out are implied: u >= 0 lifts a minimal member's
    bound to every member above it, and a member of S_{i-1} already reaches
    tau_{i-1} >= tau_i.
    """
    cons, prev = [], 0
    for mask, tau in zip(chain, taus):
        for x in minimal_members(mask, k):
            if not (prev >> x) & 1:
                cons.append(([Fraction(b) for b in point_bits(x, k)], ">=", tau))
        prev = mask
    cons.append(([Fraction(1)] * k, "<=", W))
    return LinearProgram(k, cons, objective=None)


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


