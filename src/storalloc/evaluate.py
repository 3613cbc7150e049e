"""Exact and Monte-Carlo evaluation of Pr[w . X >= theta].

Exact evaluation is #P-hard in general, so it is bounded by one rule:
coordinates sharing a weight collapse into one success-count variable with
a Poisson-binomial law, and a law being built may hold at most
SUPPORT_LIMIT = 2^20 values.  _sum_law checks after each shifted copy of
a group and refuses as soon as the law outgrows the limit, so no law ever
holds more than 2 SUPPORT_LIMIT values.  The rule counts distinct sums,
not count-vectors: few distinct weights run at any n (uniform splits,
granular tails), so do any number of weights on a grid of at most 2^20
points, and so do 40 generic distinct weights (two halves of 2^20
values).  The bound is reached late, not refused up front: 40 distinct
power-of-two weights evaluate in about 3 s at a 0.3 GB peak, and 41 or
more are refused after about 2 s at 0.34 GB.  A Case-2 pool member holds
at most 2^L min(J + 1, 2^s) values, s = live_slots and J = floor(1/kappa):
7 904 at the default state_space_limit, so no solve winner is refused
there.

The evaluation is a meet-in-the-middle merge in integer arithmetic.  The
weights and theta are scaled by the lcm D of their denominators; each
group's count law is kept as integer numerators over the product of its
probabilities' denominators.  The groups are split into two halves of
balanced prod(size + 1), each half's law of the scaled partial sum becomes
a dict from integer value to integer mass, and the right half is sorted
with suffix sums of its masses.  Each left value v then finds its
successes by one bisection for D theta - v, so about 2^(n/2) values are
built instead of 2^n outcomes.  The result is one Fraction over the
product of all denominators.  linear_form_dist builds its full law from
the same integer group laws.

The boundary w . x = theta counts as success everywhere, and no exact
comparison uses floats: float dot products misclassify ties, which are
common for granular weights.

Monte-Carlo sampling draws exact Bernoulli(p) bits, p = a/b rational,
from 16-bit lanes of the raw PCG64 stream, over only the w coordinates
that the vector weights.  The draws come in chunks of
max(1, CHUNK_LANES // w), chunk c from the PCG64 seeded by
SeedSequence([seed, c]).  A chunk reads its rows x w lanes row-major from
random_raw words, each word split into its four 16-bit quarters from the
low one up through an explicit little-endian view, so the lanes are the
same on every platform.  Lane u stands for the interval [u, u + 1) / 2^16:
it gives 1 when (u + 1) b <= a 2^16 and 0 when u b >= a 2^16.  Otherwise
it straddles p, once in 2^16 lanes; the chunk's straddling lanes are
settled in row-major order after its main lanes, each appending the low
16 bits of the generator's next raw words until its interval lies on one
side of p.  A bit is thus 1 exactly when a uniform point of [0, 1), read
to as many digits as it takes, lies below p: Pr = p exactly, for every
rational p, with no float in the draw.  Only a column with p 2^16 not an
integer can straddle.  At an integer p 2^16 = q < 2^16 (p = 0 among
them) the lanes below q give 1 and the lanes from q up give 0, so a chunk
whose columns are all exact compares each lane once and scans none for
ties; p = 1, whose digit is capped at 2^16 - 1, is scanned, and its lane
65 535 gives 1 without a further word.
The draws over the first w coordinates depend on probs[:w] alone.  Each
chunk's bits are packed into bytes, keeping the m rows in draw order.

Every row is classified in exact integer arithmetic: the weight vector
and theta are scaled by the lcm D of their denominators, so
w . x >= theta becomes (D w) . x >= D theta, and a packed row's dot is
one lookup per byte in 256-entry tables of partial sums of D w.  Every
entry and partial dot is a subset sum of D w, so the dots run on int64
when sum |D w_j| and |D theta| are at most 2^63 - 1, and on Python ints
(dtype=object) otherwise.  The tail sampler takes the same dots with
theta = 0.  Everything is bit-reproducible from the seed.

A solve samples its winner alone; its m keeps a pool-size term so that
reports stay byte-stable until sampling leaves the solve (driver module
docstring).
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Optional, Sequence

import numpy as np

from .errors import GuardError, InputError
from .core import ProblemInstance
from .util import Record, derived_bits, lcm_scaled, to_fraction, to_int

logger = logging.getLogger(__name__)

# 16-bit lanes a sampling chunk reads for its draws (module docstring).
CHUNK_LANES = 1 << 17

# Exact-evaluation guard: most values a law may hold while it is built.
SUPPORT_LIMIT = 1 << 20

# Lanes in one row of a sampling chunk's long-row compare (_draw_chunks).
TILE_LANES = 1 << 12

# Sampling guard on m x 8 ceil(w/64) bytes over the w columns drawn, at least
# the m x ceil(w/8) packed rows a sampler holds beside its row blocks, so at
# most 256 MiB of them.
PACKED_LIMIT = 1 << 28


class ObjectiveEstimate(Record):
    """Value of Obj(w), exact or sampled.

    A Monte-Carlo estimate has m >= 1 draws; an exact one has m = 0 and no
    seed.
    """

    __slots__ = ("value", "kind", "m", "seed")

    def __init__(
        self,
        value: Fraction,
        kind: str,  # "exact" | "monte_carlo"
        m: int = 0,
        seed: Optional[int] = None,
    ):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "seed", seed)
        if not 0 <= value.numerator <= value.denominator:  # a/b in [0, 1], b > 0
            raise InputError(f"objective value {self.value} outside [0,1]")
        if self.kind == "monte_carlo":
            if self.m < 1:
                raise InputError(f"a monte_carlo estimate needs m >= 1 draws; got m={self.m}")
        elif self.kind == "exact":
            if self.m != 0 or self.seed is not None:
                raise InputError(f"an exact estimate has m=0 and no seed; got m={self.m}, seed={self.seed}")
        else:
            raise InputError(f"unknown estimate kind {self.kind!r}")


class DiscreteDist(Record):
    """Finite-support distribution with exact probabilities, sorted support."""

    __slots__ = ("values", "probs")

    def __init__(self, values: tuple[Fraction, ...], probs: tuple[Fraction, ...]):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if len(self.values) != len(self.probs) or not self.values:
            raise InputError("malformed discrete distribution")
        if any(self.values[i] >= self.values[i + 1] for i in range(len(self.values) - 1)):
            raise InputError("support must be strictly sorted")
        if sum(self.probs, Fraction(0)) != 1 or any(p < 0 for p in self.probs):
            raise InputError("probabilities must be non-negative and sum to 1")


class EmpiricalDist(Record):
    """Multiset of m sampled points, stored run-length compressed and sorted."""

    __slots__ = ("values", "counts", "m")

    def __init__(self, values: tuple[Fraction, ...], counts: tuple[int, ...], m: int):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "m", m)
        if self.m < 1 or sum(self.counts) != self.m:
            raise InputError("empirical distribution needs m >= 1 matching counts")

    @classmethod
    def from_points(cls, points: Sequence) -> "EmpiricalDist":
        pts = sorted(to_fraction(p) for p in points)
        if not pts:
            raise InputError("empty sample")
        runs = [(value, len(list(run))) for value, run in groupby(pts)]
        return cls(tuple(v for v, _ in runs), tuple(c for _, c in runs), len(pts))

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
    jumps_a, jumps_b = dict(zip(a.values, a.probs)), dict(zip(b.values, b.probs))
    fa = fb = best = Fraction(0)
    for t in sorted(jumps_a.keys() | jumps_b.keys()):
        fa += jumps_a.get(t, 0)
        fb += jumps_b.get(t, 0)
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


def _count_law(ps: Sequence[Fraction]) -> tuple[list[int], int]:
    """Poisson-binomial law of the number of successes among Bernoulli(ps).

    Returns (numerators, den) with Pr[count = k] = numerators[k] / den and
    den the product of the ps' own denominators, not a power of their lcm,
    so one huge denominator does not inflate every factor.
    """
    law, den = [1], 1
    for p in ps:
        a, b = p.numerator, p.denominator
        law = [x * (b - a) + y * a for x, y in zip(law + [0], [0] + law)]
        den *= b
    return law, den


def _integer_groups(
    scaled: Sequence[int], groups: Sequence[tuple[Fraction, list[Fraction]]]
) -> tuple[list[tuple[int, list[int]]], int]:
    """Each group's scaled weight with its count law, and the laws' common denominator.

    scaled[g] is group g's weight times the lcm of the weights'
    denominators; the common denominator is the product of every law's own.
    """
    out, den = [], 1
    for w, (_, ps) in zip(scaled, groups):
        counts, group_den = _count_law(ps)
        out.append((w, counts))
        den *= group_den
    return out, den


def _sum_law(groups: Sequence[tuple[int, list[int]]]) -> dict[int, int]:
    """Law of sum_g w_g C_g as {value: numerator}, positive masses only.

    Each group is (integer weight w_g, numerators of the law of C_g), as
    _integer_groups gives them.  GuardError as soon as the law holds more
    than SUPPORT_LIMIT values, checked after each shifted copy; its
    estimate is the number held then.
    """
    law = {0: 1}
    for w, counts in groups:
        nxt: dict[int, int] = {}
        for c, cmass in enumerate(counts):
            if cmass:
                shift = w * c
                for value, mass in law.items():
                    key = value + shift
                    nxt[key] = nxt.get(key, 0) + mass * cmass
                if len(nxt) > SUPPORT_LIMIT:
                    raise GuardError(
                        f"exact law support exceeds {SUPPORT_LIMIT}", estimate=len(nxt), limit=SUPPORT_LIMIT
                    )
        law = nxt
    return law


def _grouped(probs: Sequence[Fraction], weights: Sequence[Fraction]):
    """Distinct nonzero weights (descending) with their probability lists."""
    groups: dict[Fraction, list[Fraction]] = {}
    for p, w in zip(probs, weights):
        if w != 0:
            groups.setdefault(w, []).append(p)
    return sorted(groups.items(), key=lambda kv: kv[0], reverse=True)


def exact_objective_probs(probs: Sequence, weights: Sequence, theta) -> Fraction:
    """Exact Pr[w . X >= theta] for arbitrary probability vectors.

    Thresholds at or below 0 give 1 and thresholds above sum(w) give 0.
    Otherwise the nonzero weights are grouped by value, and each half's
    law is built under SUPPORT_LIMIT (see the module docstring).
    """
    probs, weights = _probs_and_weights(probs, weights)
    theta = to_fraction(theta)
    if theta <= 0:
        return Fraction(1)
    if theta > sum(weights, Fraction(0)):
        return Fraction(0)

    groups = _grouped(probs, weights)
    # Meet in the middle (module docstring): success mass is the sum over
    # left values v of mass(v) * mass(right >= D theta - v).
    _, scaled = lcm_scaled([*(w for w, _ in groups), theta])
    target = scaled.pop()
    int_groups, den = _integer_groups(scaled, groups)
    halves, sizes = ([], []), [1, 1]
    for group in sorted(int_groups, key=lambda g: len(g[1]), reverse=True):
        side = int(sizes[1] < sizes[0])
        halves[side].append(group)
        sizes[side] *= len(group[1])
    left, right = map(_sum_law, halves)
    logger.debug(
        "exact_objective_probs: n=%d active, %d groups, half laws of %d and %d values",
        sum(len(ps) for _, ps in groups), len(groups), len(left), len(right),
    )
    values = sorted(right)
    tails = list(accumulate((right[v] for v in reversed(values)), initial=0))[::-1]
    hits = sum(mass * tails[bisect_left(values, target - v)] for v, mass in left.items())
    return Fraction(hits, den)


def linear_form_dist(weights: Sequence, probs: Sequence) -> DiscreteDist:
    """Exact law of w . X over Bernoulli(probs), grouped by distinct weight,
    built under SUPPORT_LIMIT (see the module docstring)."""
    probs, weights = _probs_and_weights(probs, weights)
    groups = _grouped(probs, weights)
    d, scaled = lcm_scaled([w for w, _ in groups])
    int_groups, den = _integer_groups(scaled, groups)
    law = _sum_law(int_groups)
    values = sorted(law)
    return DiscreteDist(tuple(Fraction(v, d) for v in values), tuple(Fraction(law[v], den) for v in values))


# ---------------------------------------------------------------------------
# Sampling

# Size budget for each table set and dot block of the sampling kernel.
BLOCK_BYTES = 1 << 20
_LANE = 1 << 16
_INT64_MAX = int(np.iinfo(np.int64).max)
# Row h is the four bits of h, high bit first (np.packbits order).
_NIBBLE_BITS = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1)[:, 4:]


def check_draws(m: int, width: int) -> None:
    """GuardError when m draws over ``width`` coordinates exceed PACKED_LIMIT.

    The estimate is m x 8 ceil(width/64) bytes: the packed rows rounded up
    to whole 8-byte words.  The samplers call this on the width they draw
    before their first draw, and the driver on the pool's width before any
    case runs.
    """
    row_bytes = 8 * -(-width // 64)
    if m * row_bytes > PACKED_LIMIT:
        message = f"packed draw buffer of {m} draws x {row_bytes} bytes exceeds {PACKED_LIMIT} bytes"
        raise GuardError(message, estimate=m * row_bytes, limit=PACKED_LIMIT)


def _chunk_rows(width: int) -> int:
    """Draws per sampling chunk over width coordinates: max(1, CHUNK_LANES // width)."""
    return max(1, CHUNK_LANES // max(width, 1))


def _straddle_bit(u: int, a: int, b: int, bitgen) -> bool:
    """The bit of a lane u equal to its column's threshold digit, p = a/b.

    It is 1 when the lane's interval [u, u + 1) / 2^16 lies at or below p
    and 0 when it lies at or above p.  While it straddles p, each step
    appends the low 16 bits of the chunk's next raw word to u, narrowing
    the interval 2^16-fold.
    """
    scale = _LANE
    while True:
        if (u + 1) * b <= a * scale:
            return True
        if u * b >= a * scale:
            return False
        u = (u << 16) | (bitgen.random_raw() & 0xFFFF)
        scale <<= 16


def _draw_chunks(probs: Sequence[Fraction], m: int, seed: int, width: int):
    """Yield (start, bits) for each chunk of the m draws over probs[:width].

    bits is the chunk's bool block of draws start, start + 1, and so on,
    by the module docstring's lane rule: one row per draw, its first width
    columns the draw and the rest zero up to a multiple of 8, so that a
    flat np.packbits packs it row by row.  One block serves every chunk,
    so a block is valid only until the next chunk is drawn.  A column's
    threshold digit is floor(p 2^16), capped at 2^16 - 1.  Lanes below it
    give 1 and lanes above it 0; a lane equal to it is settled by
    _straddle_bit, in row-major order after the chunk's main lanes, and
    reads further words only if it straddles p.  The equal lanes are
    scanned only when some column has p 2^16 not an integer, or p = 1
    (module docstring).  A chunk of more than one tile of
    TILE_LANES // width draws (width a multiple of 8) is compared as
    rows of whole tiles against the digits tiled that often.
    """
    probs = probs[:width]
    digits, scan = [], False
    for p in probs:
        q, r = divmod(p.numerator << 16, p.denominator)
        digits.append(min(q, _LANE - 1))
        scan = scan or r != 0 or q == _LANE
    threshold = np.array(digits, dtype=np.uint16)
    rows = min(_chunk_rows(width), m)
    per_tile = TILE_LANES // width if width and width % 8 == 0 else 0
    tiled = np.tile(threshold, per_tile) if 0 < per_tile < rows else None

    def compare(op, lanes, out):
        whole = len(lanes) // per_tile * per_tile if tiled is not None else 0
        if whole:
            op(lanes[:whole].reshape(-1, tiled.size), tiled, out=out[:whole].reshape(-1, tiled.size))
        op(lanes[whole:], threshold, out=out[whole:])
        return out

    bits = np.zeros((rows, -(-width // 8) * 8), dtype=bool)
    ties = np.empty((rows, width), dtype=bool) if scan else None
    for c, start in enumerate(range(0, m, rows)):
        count = min(rows, m - start)
        bitgen = derived_bits(seed, c)
        raw = bitgen.random_raw(-(-count * width // 4)).astype("<u8", copy=False)
        lanes = raw.view("<u2")[: count * width].reshape(count, width)
        block = bits[:count]
        compare(np.less, lanes, block[:, :width])
        if scan:
            for i in np.flatnonzero(compare(np.equal, lanes, ties[:count])).tolist():
                r, j = divmod(i, width)
                block[r, j] = _straddle_bit(digits[j], probs[j].numerator, probs[j].denominator, bitgen)
        del raw, lanes  # so the next chunk's words are drawn with no others alive
        yield start, block


def _packed_draws(probs: Sequence[Fraction], m: int, seed: int, width: int) -> np.ndarray:
    """The m packed Bernoulli bit rows over the first ``width`` coordinates,
    in draw order, as an (m, ceil(width/8)) uint8 array.

    A row is np.packbits of one draw's width bits: coordinate 8j + k in
    bit 7 - k of byte j, the last byte zero-padded.  The draws are
    _draw_chunks', so they depend on probs[:width] alone, and so does the
    guard, check_draws on the width.
    """
    check_draws(m, width)
    packed = np.empty((m, (width + 7) // 8), dtype=np.uint8)
    for start, bits in _draw_chunks(probs, m, seed, width):
        packed[start:start + len(bits)] = np.packbits(bits.reshape(-1)).reshape(len(bits), -1)
    return packed


def _dot_dtype(weights: Sequence[int], theta: int):
    """np.int64 if every subset sum of weights, and theta, fits int64; else object (Python ints)."""
    return np.int64 if sum(map(abs, weights)) <= _INT64_MAX and abs(theta) <= _INT64_MAX else object


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """Per-byte partial-sum tables for packed rows, one set per column.

    columns is (n, V): column v holds a vector's scaled weights D w.  The
    result is (ceil(n/8), 256, V): entry [j, b, v] is the sum of
    columns[i, v] over the coordinates i whose bit is set in value b of
    byte j of a packed row (coordinate 8j + k sits in bit 7 - k), so a
    row's dot (D w) . x is the sum over j of tables[j, row[j]].  A byte's
    table is the sum of its two nibbles' 16-entry tables, each one product
    with the 0/1 matrix of nibble bits; every partial sum along the way is
    a subset sum of the column.
    """
    n, vectors = columns.shape
    width = (n + 7) // 8
    padded = np.zeros((8 * width, vectors), dtype=columns.dtype)
    padded[:n] = columns
    nibbles = _NIBBLE_BITS @ padded.reshape(width, 2, 4, vectors)
    return (nibbles[:, 0, :, None] + nibbles[:, 1, None, :]).reshape(width, 256, vectors)


def _byte_dots(tables: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), V) dots of packed rows, one lookup in each of their first len(tables) byte columns."""
    if not len(tables):
        return np.zeros((len(rows), tables.shape[2]), dtype=tables.dtype)
    dots = tables[0].take(rows[:, 0], axis=0)
    for j in range(1, len(tables)):
        dots += tables[j].take(rows[:, j], axis=0)
    return dots


def _dot_blocks(probs: Sequence[Fraction], weights: Sequence[int], dtype, m: int, seed: int, reduce):
    """Yield reduce(dots) for each block of at most BLOCK_BYTES // 8 rows
    of the m draws over probs[:len(weights)], in draw order, from
    _packed_draws (guarded on that width before the first draw); dots
    holds each row's weights . x from per-byte tables on dtype.  A
    block's dots are dropped before it yields."""
    if m < 1:
        raise InputError("m must be >= 1")
    tables = _byte_tables(np.array(weights, dtype=dtype).reshape(-1, 1))
    rows, step = _packed_draws(probs, m, seed, len(weights)), max(1, BLOCK_BYTES // 8)
    for r in range(0, m, step):
        yield reduce(_byte_dots(tables, rows[r:r + step])[:, 0])


def mc_hit_counts(probs: Sequence[Fraction], weights: Sequence[Fraction], theta: Fraction, m: int, seed: int) -> int:
    """How many of m draws X ~ D_p have w . X >= theta.

    The draws cover probs[:len(weights)] alone, and check_draws guards
    them on that width.  Each is classified exactly, by the module
    docstring's (D w) . x >= D theta on its dtype rule.
    """
    _, (*scaled, target) = lcm_scaled([*weights, theta])
    dtype = _dot_dtype(scaled, target)
    hits = sum(_dot_blocks(probs, scaled, dtype, m, seed, lambda dots: int((dots >= target).sum())))
    logger.debug("mc_hit_counts: m=%d, %d hits, %s dtype", m, hits, np.dtype(dtype))
    return hits


def mc_estimate_probs(
    probs: Sequence,
    weights: Sequence,
    theta,
    m: int,
    seed: int,
    threads: int = 1,
) -> ObjectiveEstimate:
    """Fraction of m independent draws X ~ D_p with w . X >= theta.

    Deterministic given the seed; every draw is classified exactly.
    """
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    m, seed = to_int(m, "m"), to_int(seed, "seed")
    probs, weights = _probs_and_weights(probs, weights)
    theta = to_fraction(theta)
    return ObjectiveEstimate(Fraction(mc_hit_counts(probs, weights, theta, m, seed), m), "monte_carlo", m, seed)


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
    tail law in Kolmogorov-distance comparisons.  Each draw's value is the
    integer dot (D t) . x over D, D the lcm of the tail's denominators,
    from the per-byte tables on the module docstring's dtype rule; each
    row block's distinct dots are counted by np.unique and merged.
    """
    if threads != 1:  # bench/ passes threads=1; ROADMAP item 1's next benchmark change drops it
        raise InputError(f"threads must be 1 (the library runs on the calling thread); got {threads!r}")
    m, seed = to_int(m, "m"), to_int(seed, "seed")
    tail = [to_fraction(w) for w in tail_weights]
    if any(w < 0 for w in tail):
        raise InputError("tail weights must be non-negative")
    if len(tail) > instance.n:
        raise InputError("tail longer than the instance")
    probs = instance.probs[instance.n - len(tail):]
    d, scaled = lcm_scaled(tail)
    dtype, merged = _dot_dtype(scaled, 0), {}
    for values, counts in _dot_blocks(probs, scaled, dtype, m, seed, lambda dots: np.unique(dots, return_counts=True)):
        merged.update({v: merged.get(v, 0) + c for v, c in zip(values.tolist(), counts.tolist())})
    logger.debug(
        "sample_tail_empirical: m=%d, %d distinct values, %s dtype", m, len(merged), np.dtype(dtype)
    )
    values, counts = zip(*sorted(merged.items()))
    return EmpiricalDist(tuple(Fraction(v, d) for v in values), counts, m)
