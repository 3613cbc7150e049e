"""Exact and Monte-Carlo evaluation of Pr[w . X >= theta].

Exact evaluation is #P-hard in general, so two bounded exact paths are
provided:

  * enumeration over outcomes for n <= exact_eval_max_n, run as a pruned
    DFS with memoization on the partial weight sum;
  * a grouping path for vectors with few distinct weight values (uniform
    splits, granular tails): coordinates sharing a weight collapse into a
    success-count variable with a Poisson-binomial law, shrinking the
    search to products of group sizes.

The boundary w . x = theta counts as success everywhere, and every exact
comparison is done in rational arithmetic: float dot products misclassify
ties, which are common for granular weights.

Monte-Carlo sampling draws Bernoulli bits with numpy PCG64 in fixed-size
chunks, one generator per chunk, and deduplicates them into distinct bit
patterns with counts.  The patterns are classified in
exact integer arithmetic: a weight vector and theta are scaled by the lcm
D of their denominators, so w . x >= theta becomes (D w) . x >= D theta,
computed by blocked numpy matmuls over many vectors at once.  A vector
runs on int64 when sum |D w_j| and |D theta| are at most 2^63 - 1, so no
dot can overflow, and on Python ints (dtype=object) otherwise.  Everything
is bit-reproducible from the seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import GuardError, InputError
from .core import ProblemInstance, SolverConfig
from .util import derived_rng, to_fraction

logger = logging.getLogger(__name__)

SAMPLE_CHUNK = 1 << 15

# Default cap on outcome enumeration; the value is SolverConfig's default.
EXACT_EVAL_MAX_N = SolverConfig.exact_eval_max_n

# Enumeration guards: widest allowed product of (group size + 1) factors and
# the most distinct weight values the grouping path accepts.
MAX_GROUPS = 12
COMBO_LIMIT = 1 << 24


@dataclass(frozen=True)
class ObjectiveEstimate:
    """Value of Obj(w), exact or sampled.  m=0 for the exact kind."""

    value: Fraction
    kind: str  # "exact" | "monte_carlo"
    m: int = 0
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise InputError(f"objective value {self.value} outside [0,1]")
        if self.kind not in ("exact", "monte_carlo"):
            raise InputError(f"unknown estimate kind {self.kind!r}")


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support distribution with exact probabilities, sorted support."""

    values: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise InputError("malformed discrete distribution")
        if any(self.values[i] >= self.values[i + 1] for i in range(len(self.values) - 1)):
            raise InputError("support must be strictly sorted")
        if sum(self.probs, Fraction(0)) != 1 or any(p < 0 for p in self.probs):
            raise InputError("probabilities must be non-negative and sum to 1")


@dataclass(frozen=True)
class EmpiricalDist:
    """Multiset of m sampled points, stored run-length compressed and sorted."""

    values: tuple[Fraction, ...]
    counts: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 1 or sum(self.counts) != self.m:
            raise InputError("empirical distribution needs m >= 1 matching counts")

    @classmethod
    def from_points(cls, points: Sequence) -> "EmpiricalDist":
        pts = sorted(to_fraction(p) for p in points)
        if not pts:
            raise InputError("empty sample")
        values, counts = [], []
        for p in pts:
            if values and values[-1] == p:
                counts[-1] += 1
            else:
                values.append(p)
                counts.append(1)
        return cls(tuple(values), tuple(counts), len(pts))

    def to_discrete(self) -> DiscreteDist:
        return DiscreteDist(self.values, tuple(Fraction(c, self.m) for c in self.counts))


def _as_discrete(dist) -> DiscreteDist:
    if isinstance(dist, DiscreteDist):
        return dist
    if isinstance(dist, EmpiricalDist):
        return dist.to_discrete()
    return EmpiricalDist.from_points(dist).to_discrete()


def kolmogorov_distance(d1, d2) -> Fraction:
    """sup_t |F1(t) - F2(t)| for step CDFs, exact over the merged jump points."""
    a, b = _as_discrete(d1), _as_discrete(d2)
    ia = ib = 0
    fa = fb = Fraction(0)
    best = Fraction(0)
    while ia < len(a.values) or ib < len(b.values):
        va = a.values[ia] if ia < len(a.values) else None
        vb = b.values[ib] if ib < len(b.values) else None
        if vb is None or (va is not None and va <= vb):
            t = va
        else:
            t = vb
        while ia < len(a.values) and a.values[ia] == t:
            fa += a.probs[ia]
            ia += 1
        while ib < len(b.values) and b.values[ib] == t:
            fb += b.probs[ib]
            ib += 1
        best = max(best, abs(fa - fb))
    return best


def _probs_and_weights(probs: Sequence, weights: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Exact copies of (probs, weights), checked: equal length, p in [0,1], w >= 0."""
    probs = [to_fraction(p) for p in probs]
    weights = [to_fraction(w) for w in weights]
    if len(probs) != len(weights):
        raise InputError("probs and weights length mismatch")
    if any(not 0 <= p <= 1 for p in probs):
        raise InputError("probabilities must lie in [0,1]")
    if any(w < 0 for w in weights):
        raise InputError("weights must be non-negative")
    return probs, weights


# ---------------------------------------------------------------------------
# Exact evaluation


def _count_pmf(ps: Sequence[Fraction]) -> list[Fraction]:
    """Poisson-binomial PMF of the number of successes among Bernoulli(ps)."""
    pmf = [Fraction(1)]
    for p in ps:
        q = 1 - p
        nxt = [Fraction(0)] * (len(pmf) + 1)
        for k, mass in enumerate(pmf):
            if mass:
                nxt[k] += mass * q
                nxt[k + 1] += mass * p
        pmf = nxt
    return pmf


def _grouped(probs: Sequence[Fraction], weights: Sequence[Fraction]):
    """Distinct nonzero weights (descending) with their probability lists."""
    groups: dict[Fraction, list[Fraction]] = {}
    for p, w in zip(probs, weights):
        if w != 0:
            groups.setdefault(w, []).append(p)
    return sorted(groups.items(), key=lambda kv: kv[0], reverse=True)


def exact_objective_probs(
    probs: Sequence,
    weights: Sequence,
    theta,
    max_n: int = EXACT_EVAL_MAX_N,
) -> Fraction:
    """Exact Pr[w . X >= theta] for arbitrary probability vectors.

    Thresholds at or below 0 give 1 and thresholds above sum(w) give 0;
    otherwise GuardError when both exact paths are out of reach.
    """
    probs, weights = _probs_and_weights(probs, weights)
    theta = to_fraction(theta)
    if theta <= 0:
        return Fraction(1)
    if theta > sum(weights, Fraction(0)):
        return Fraction(0)

    groups = _grouped(probs, weights)
    if len(groups) > MAX_GROUPS:
        active = sum(1 for w in weights if w != 0)
        if active > max_n:
            raise GuardError(
                f"exact evaluation needs n <= {max_n} or <= {MAX_GROUPS} distinct "
                f"weights; got n={active} with {len(groups)} values",
                estimate=active,
                limit=max_n,
            )
        # singleton groups: plain outcome enumeration with pruning
        groups = [(w, [p]) for w, p in sorted(
            ((w, p) for p, w in zip(probs, weights) if w != 0), reverse=True)]

    combos = 1
    for _, ps in groups:
        combos *= len(ps) + 1
        if combos > COMBO_LIMIT:
            raise GuardError(
                f"exact grouping state space exceeds {COMBO_LIMIT}",
                estimate=combos,
                limit=COMBO_LIMIT,
            )

    pmfs = [_count_pmf(ps) for _, ps in groups]
    gw = [w for w, _ in groups]
    max_rest = [Fraction(0)] * (len(groups) + 1)
    for g in range(len(groups) - 1, -1, -1):
        max_rest[g] = max_rest[g + 1] + gw[g] * (len(pmfs[g]) - 1)

    memo: dict[tuple[int, Fraction], Fraction] = {}

    def success_prob(g: int, partial: Fraction) -> Fraction:
        if partial >= theta:
            return Fraction(1)
        if g == len(groups) or partial + max_rest[g] < theta:
            return Fraction(0)
        key = (g, partial)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = Fraction(0)
        for count, mass in enumerate(pmfs[g]):
            if mass:
                acc += mass * success_prob(g + 1, partial + gw[g] * count)
        memo[key] = acc
        return acc

    return success_prob(0, Fraction(0))


def linear_form_dist(weights: Sequence, probs: Sequence, support_limit: int = 1 << 20) -> DiscreteDist:
    """Exact law of w . X over Bernoulli(probs), grouped by distinct weight."""
    probs, weights = _probs_and_weights(probs, weights)
    dist: dict[Fraction, Fraction] = {Fraction(0): Fraction(1)}
    for w, ps in _grouped(probs, weights):
        pmf = _count_pmf(ps)
        nxt: dict[Fraction, Fraction] = {}
        for value, mass in dist.items():
            for count, cmass in enumerate(pmf):
                if cmass:
                    key = value + w * count
                    nxt[key] = nxt.get(key, Fraction(0)) + mass * cmass
        dist = nxt
        if len(dist) > support_limit:
            raise GuardError(
                f"linear-form support exceeds {support_limit}",
                estimate=len(dist),
                limit=support_limit,
            )
    values = tuple(sorted(dist))
    return DiscreteDist(values, tuple(dist[v] for v in values))


# ---------------------------------------------------------------------------
# Sampling

# Size budget for each temporary array of the classification kernel.
BLOCK_BYTES = 1 << 20
_INT64_MAX = int(np.iinfo(np.int64).max)


def _pattern_counts(probs: Sequence[Fraction], m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed Bernoulli bit rows over m draws, with int64 counts.

    Draws come in chunks of SAMPLE_CHUNK rows, chunk c from the generator
    derived from (seed, c).  The chunks fix the random stream a seed
    yields, so every sampled output (and the report pins) stays
    bit-identical, and they bound each draw's float temporary to
    SAMPLE_CHUNK * n = 32768 n doubles.  The packed draws of all chunks
    (m * ceil(n/8) bytes) are deduplicated by one np.unique over a 1-D void
    view of the rows, which compares each row as one byte string
    (np.unique(axis=0) sorts field by field and is several times slower);
    rows come out in ascending byte order.
    """
    n = len(probs)
    pf = np.array([float(p) for p in probs])
    chunks = []
    for c, start in enumerate(range(0, m, SAMPLE_CHUNK)):
        draws = derived_rng(seed, c).random((min(SAMPLE_CHUNK, m - start), n))
        chunks.append(np.packbits(draws < pf, axis=1))
    packed = np.concatenate(chunks)
    width = packed.shape[1]
    if not width:  # n = 0: one empty pattern; a zero-width void view is wrong
        return packed[:1], np.array([m], dtype=np.int64)
    keys = packed.view(np.dtype((np.void, width))).ravel()
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq.view(np.uint8).reshape(-1, width), counts.astype(np.int64)


def _lcm_scaled(values: Sequence) -> tuple[int, list[int]]:
    """(D, [D v for v in values]) with D > 0 the lcm of the denominators."""
    values = [to_fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _fits_int64(weights: Sequence[int], theta: int) -> bool:
    """No partial sum of weights . x over x in {0,1}^n, nor theta, leaves int64."""
    return sum(map(abs, weights)) <= _INT64_MAX and abs(theta) <= _INT64_MAX


def _block_rows(n: int) -> int:
    """Pattern rows per block, so an int64 block of n columns fits BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * max(n, 1)))


def mc_hit_counts(
    probs: Sequence[Fraction],
    weight_vectors: Sequence[Sequence[Fraction]],
    theta: Fraction,
    m: int,
    seed: int,
) -> list[int]:
    """Per weight vector, how many of m draws X ~ D_p have w . X >= theta.

    Every vector is classified exactly on the same draws, so the counts of
    different vectors are comparable draw for draw.

    The classification is integer arithmetic.  Let D > 0 be the lcm of
    theta's and every w_j's denominator.  Then w . x >= theta holds iff
    (D w) . x >= D theta, and both sides are integers.  A pattern x is 0/1,
    so every partial sum of (D w) . x lies within +-sum_j |D w_j|.  A vector
    therefore runs on int64 when that sum and |D theta| are both at most
    2^63 - 1, where no sum can overflow, and on Python ints (dtype=object)
    otherwise.  The dtype is chosen per vector; both groups take the same
    path: hits = counts @ (bits @ W >= T), blocked over pattern rows and
    vectors so no temporary exceeds about BLOCK_BYTES.
    """
    if m < 1:
        raise InputError("m must be >= 1")
    rows, counts = _pattern_counts(probs, m, seed)
    bits = np.unpackbits(rows, axis=1, count=len(probs))
    scaled = []
    for weights in weight_vectors:
        _, ints = _lcm_scaled([*weights, theta])
        scaled.append((ints[:-1], ints[-1]))
    narrow = [_fits_int64(w, t) for w, t in scaled]
    logger.debug(
        "mc_hit_counts: m=%d, %d unique patterns, %d vectors, %d on object dtype",
        m, len(rows), len(scaled), narrow.count(False),
    )
    rows_per_block = _block_rows(len(probs))
    vectors_per_block = max(1, BLOCK_BYTES // (8 * min(rows_per_block, len(rows))))
    hits = np.zeros(len(scaled), dtype=np.int64)
    for dtype, fits in ((np.int64, True), (object, False)):
        group = [i for i, ok in enumerate(narrow) if ok == fits]
        for start in range(0, len(group), vectors_per_block):
            block = group[start:start + vectors_per_block]
            W = np.array([scaled[i][0] for i in block], dtype=dtype).T
            T = np.array([scaled[i][1] for i in block], dtype=dtype)
            for r in range(0, len(bits), rows_per_block):
                x = bits[r:r + rows_per_block].astype(dtype)
                hits[block] += counts[r:r + rows_per_block] @ (x @ W >= T)
    return hits.tolist()


def mc_estimate_probs(
    probs: Sequence,
    weights: Sequence,
    theta,
    m: int,
    seed: int,
    threads: int = 1,
) -> ObjectiveEstimate:
    """Fraction of m independent draws X ~ D_p with w . X >= theta.

    Deterministic given the seed; the pattern classification is exact.
    """
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    probs, weights = _probs_and_weights(probs, weights)
    theta = to_fraction(theta)
    (hits,) = mc_hit_counts(probs, [weights], theta, m, seed)
    return ObjectiveEstimate(value=Fraction(hits, m), kind="monte_carlo", m=m, seed=seed)


def sample_tail_empirical(
    instance: ProblemInstance,
    tail_weights: Sequence,
    m: int,
    seed: int,
    threads: int = 1,
) -> EmpiricalDist:
    """m i.i.d. draws of tail_weights . X over the instance's last coordinates.

    tail_weights pair with probs[n - len(tail_weights):] (tails are suffixes).
    Sample values are exact rationals, so jump points line up with the exact
    tail law in Kolmogorov-distance comparisons.  Each distinct pattern's
    value is the integer dot (D t) . x over D, D the lcm of the tail's
    denominators, on int64 or Python ints by the rule of mc_hit_counts.
    """
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    if m < 1:
        raise InputError("m must be >= 1")
    tail = [to_fraction(w) for w in tail_weights]
    if any(w < 0 for w in tail):
        raise InputError("tail weights must be non-negative")
    if len(tail) > instance.n:
        raise InputError("tail longer than the instance")
    probs = instance.probs[instance.n - len(tail):]
    rows, counts = _pattern_counts(probs, m, seed)
    bits = np.unpackbits(rows, axis=1, count=len(tail))
    d, scaled = _lcm_scaled(tail)
    dtype = np.int64 if _fits_int64(scaled, 0) else object
    w = np.array(scaled, dtype=dtype)
    step = _block_rows(len(tail))
    dots = np.concatenate([bits[r:r + step].astype(dtype) @ w for r in range(0, len(bits), step)])
    values, inverse = np.unique(dots, return_inverse=True)
    totals = np.zeros(len(values), dtype=np.int64)
    np.add.at(totals, inverse, counts)
    return EmpiricalDist(tuple(Fraction(v, d) for v in values.tolist()), tuple(totals.tolist()), m)
