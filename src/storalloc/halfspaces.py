"""Enumeration of threshold-realizable subsets of the Boolean cube.

A subset S of {0,1}^k is threshold-realizable when S = {x : u.x >= c} for
some weights u and threshold c; integer (u, c) always exist.  Sets are
enumerated from canonical sorted non-negative integer weight vectors up to
a per-k bound.  The whole grid takes one vectorized sweep: U @ bits holds
every vector's 2^k dot products, one comparison with every threshold
level from 0 to one above the largest sum gives each level's set as a
row of point bits at once, and np.packbits turns the rows into masks.
The family is then closed under coordinate permutations and flips by one
gather of the masks' bits through each transform's point table, and
deduplicated by sort.
Non-negative weights give upward-closed sets and permutations keep them
so, which makes the permutation closure alone exactly the upward-closed
family.  The bounds are checked by the tests: for k <= 4 the family
equals, as an ordered list of masks, the one an exact LP separability
test picks out of all 2^(2^k) Boolean functions, and at k = 5 the counts
match the known ones and the mask lists match pinned digests.

The solver enumerates nothing: the junta reads its upward-closed families
from its committed table (junta module docstring).  The grid's callers
are that table's generator (tests/margin_table.py), the tests, whose
oracles it serves, and the benchmark's enumerate op.

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

# Size budget for each temporary array of the family build.
_BLOCK_BYTES = 1 << 16


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


def _masks(members: np.ndarray) -> np.ndarray:
    """uint64 masks of boolean rows of point membership (point x last):
    the rows' little-endian packed bytes, 1, 2 or 4 per row for k <= 5."""
    packed = np.ascontiguousarray(np.packbits(members, axis=-1, bitorder="little"))
    return packed.view(f"<u{packed.shape[-1]}")[..., 0].astype(np.uint64)


def _merge(masks: np.ndarray, more: np.ndarray) -> np.ndarray:
    """Distinct values of both, ascending.  Without return_counts,
    np.unique imports numpy.ma on first use (about 10 ms)."""
    return np.unique(np.concatenate((masks, more.ravel())), return_counts=True)[0]


def _canonical_grid_masks(bits: np.ndarray, bound: int) -> np.ndarray:
    """Masks from sorted non-negative integer weights up to ``bound``,
    distinct and ascending: {x : u.x >= c} for every threshold c from 0 to
    one above the largest sum, over one block of weight vectors u at a
    time.  ``bits`` is the (k, 2^k) matrix of point coordinates."""
    k, npoints = bits.shape
    grid = np.array(list(itertools.combinations_with_replacement(range(bound, -1, -1), k)))
    levels = np.arange(bound * k + 2)[:, None]
    masks = np.zeros(0, dtype=np.uint64)
    step = max(1, _BLOCK_BYTES // (len(levels) * npoints))
    for start in range(0, len(grid), step):
        masks = _merge(masks, _masks(grid[start:start + step, None] @ bits >= levels))
    return masks


def _close(masks: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The masks and their images under every point table (bit y of an
    image is bit table[y] of the mask), distinct and ascending: one gather
    of the masks' point bits per block of tables."""
    members = ((masks[:, None] >> np.arange(tables.shape[1], dtype=np.uint64)) & 1).astype(bool)
    step = max(1, _BLOCK_BYTES // members.size)
    for start in range(0, len(tables), step):
        masks = _merge(masks, _masks(members[:, tables[start:start + step]]))
    return masks


@lru_cache(maxsize=None)
def _cached(k: int, monotone: bool) -> tuple[HalfspaceSet, ...]:
    points = np.arange(1 << k)
    bits = (points >> np.arange(k)[:, None]) & 1
    perms = np.array(list(itertools.permutations(range(k))))
    # Non-negative weights realize upward-closed sets, and permutations
    # (table[y] moves bit j of y to bit perm[j]) keep them so.  Flips
    # (table[y] = y ^ f) then reach every realizable set, as each signed
    # permutation is a flip after a permutation.
    closed = _close(_canonical_grid_masks(bits, GRID_BOUND[k]), (1 << perms) @ bits)
    if not monotone:
        closed = _close(closed, points[:, None] ^ points)
    return tuple(HalfspaceSet(k, m) for m in closed.tolist())


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
