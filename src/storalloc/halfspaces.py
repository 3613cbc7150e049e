"""Enumeration of threshold-realizable subsets of the Boolean cube.

A subset S of {0,1}^k is threshold-realizable when S = {x : u.x >= c} for
some weights u and threshold c; integer (u, c) always exist.  Sets are
enumerated from canonical sorted non-negative integer weight vectors up to
a per-k bound.  Each vector takes one subset-sum sweep: its 2^k dot
products are built by adding one weight to a smaller point's sum, and the
points, taken by dot product descending, are ORed into a mask that is
kept at every change of value, which gives every threshold's set at once.
The family is then closed under coordinate permutations and flips.
Non-negative weights give upward-closed sets and permutations keep them
so, which makes the permutation closure alone exactly the upward-closed
family.  The bounds are checked by the tests: for k <= 4 the family
equals, as an ordered list of masks, the one an exact LP separability
test picks out of all 2^(2^k) Boolean functions, and at k = 5 the counts
match the known ones and the mask lists match pinned digests.

Counts by dimension (distinct realizable sets, k = 0..5):
2, 4, 14, 104, 1882, 94572; upward-closed ones: 2, 3, 6, 20, 150, 3287.

Points are indexed by integers x in [0, 2^k) with coordinate j equal to
(x >> j) & 1; sets are bitmasks over point indices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import InputError

# Per-k weight bounds for the grid; see the module docstring for how they
# are checked.
GRID_BOUND = {1: 1, 2: 1, 3: 2, 4: 3, 5: 9}

MAX_K = max(GRID_BOUND)


def point_bits(x: int, k: int) -> tuple[int, ...]:
    return tuple((x >> j) & 1 for j in range(k))


def is_upward_closed(mask: int, k: int) -> bool:
    for x in range(1 << k):
        if (mask >> x) & 1:
            for j in range(k):
                y = x | (1 << j)
                if not (mask >> y) & 1:
                    return False
    return True


class HalfspaceSet:
    """One realizable subset of {0,1}^k, as a bitmask over point indices."""

    __slots__ = ("k", "mask")

    def __init__(self, k: int, mask: int):
        self.k = k
        self.mask = mask

    def __repr__(self):
        return f"HalfspaceSet(k={self.k}, mask={self.mask:#x}, size={self.mask.bit_count()})"


def minimal_members(mask: int, k: int) -> tuple[int, ...]:
    """Members of ``mask`` none of whose single-bit-down neighbors are
    members, in ascending point index."""
    return tuple(
        x
        for x in range(1 << k)
        if (mask >> x) & 1
        and not any((x >> j) & 1 and (mask >> (x & ~(1 << j))) & 1 for j in range(k))
    )


def _canonical_grid_masks(k: int, bound: int) -> set[int]:
    """Masks from sorted non-negative integer weights up to ``bound``.

    One subset-sum sweep per weight vector u: dots[x] = dots[x without its
    lowest bit] + u[that bit] gives every u.x, the points are bucketed by
    that value (a counting sort), and ORing the buckets in from the top
    value down yields {x : u.x >= c} at each value c; the empty mask
    stands for any c above every sum."""
    lows = [(x & (x - 1), (x & -x).bit_length() - 1) for x in range(1, 1 << k)]
    masks: set[int] = {0}
    for u in itertools.combinations_with_replacement(range(bound, -1, -1), k):
        dots = [0]
        for rest, j in lows:
            dots.append(dots[rest] + u[j])
        level = [0] * (sum(u) + 1)
        for x, dot in enumerate(dots):
            level[dot] |= 1 << x
        mask = 0
        for bits in reversed(level):
            if bits:
                mask |= bits
                masks.add(mask)
    return masks


def _transform_tables(k: int, flips: bool) -> np.ndarray:
    """Point-index remap tables for coordinate permutations (x flips)."""
    tables = []
    flip_sets = range(1 << k) if flips else (0,)
    for perm in itertools.permutations(range(k)):
        for fs in flip_sets:
            table = np.empty(1 << k, dtype=np.int64)
            for y in range(1 << k):
                x = 0
                for j in range(k):
                    bit = (y >> j) & 1
                    if (fs >> j) & 1:
                        bit ^= 1
                    if bit:
                        x |= 1 << perm[j]
                table[y] = x
            tables.append(table)
    return np.stack(tables)


def _expand(masks: set[int], k: int, flips: bool) -> set[int]:
    """Close a mask family under signed coordinate permutations."""
    npoints = 1 << k
    base = np.array(sorted(masks), dtype=np.uint64)
    bits = ((base[:, None] >> np.arange(npoints, dtype=np.uint64)[None, :]) & 1).astype(bool)
    tables = _transform_tables(k, flips)
    weights = (1 << np.arange(npoints, dtype=np.uint64))
    out: set[int] = set()
    for table in tables:
        moved = bits[:, table]
        vals = moved @ weights
        out.update(int(v) for v in vals)
    return out


@lru_cache(maxsize=None)
def _cached(k: int, monotone: bool) -> tuple[HalfspaceSet, ...]:
    canonical = _canonical_grid_masks(k, GRID_BOUND[k])
    # Non-negative weights realize upward-closed sets, and coordinate
    # permutations keep them so; only flips leave that family.
    closed = _expand(canonical, k, flips=not monotone)
    return tuple(HalfspaceSet(k, m) for m in sorted(closed))


def enumerate_halfspace_sets(k: int, monotone: bool = False) -> list[HalfspaceSet]:
    """All threshold-realizable subsets of {0,1}^k, one per distinct set,
    in increasing mask order.

    ``monotone=True`` restricts to upward-closed sets (exactly the sets
    realizable with non-negative weights, which is all that matters when
    optimizing over non-negative allocations).
    """
    if k < 0:
        raise InputError("dimension must be non-negative")
    if k > MAX_K:
        raise InputError(f"halfspace enumeration supports k <= {MAX_K}; got k={k}")
    if k == 0:
        return [HalfspaceSet(0, 0), HalfspaceSet(0, 1)]
    return list(_cached(k, monotone))
