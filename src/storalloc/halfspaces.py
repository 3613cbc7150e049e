"""Threshold-realizable subsets of the Boolean cube.

A subset S of {0,1}^k is threshold-realizable when S = {x : u.x >= c} for
some weights u and threshold c; integer (u, c) always exist.  Non-negative
weights realize exactly the upward-closed ones, which are all that matters
when optimizing over non-negative allocations.

The library computes no family.  enumerate_halfspace_sets returns the
upward-closed family as the junta's committed margin table states it
(junta.upward_family).  The table's generator, tests/margin_table.py,
takes the masks from an integer weight grid, and the tests check that
grid against an exact LP separability oracle for k <= 4 and by count and
digest at k = 5.

Counts by dimension (distinct realizable sets, k = 0..5):
2, 4, 14, 104, 1882, 94572; upward-closed ones: 2, 3, 6, 20, 150, 3287.

Points are indexed by integers x in [0, 2^k) with coordinate j equal to
(x >> j) & 1; sets are bitmasks over point indices.
"""

from __future__ import annotations

from .core import MAX_K
from .errors import InputError
from .junta import upward_family


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


def enumerate_halfspace_sets(k: int, *, monotone: bool) -> list[HalfspaceSet]:
    """The upward-closed threshold-realizable subsets of {0,1}^k, one per
    distinct set, in increasing mask order, from the committed margin table.

    ``monotone`` must be True: the full family, which flips of coordinates
    reach, is built only by the table's generator in the tests.
    """
    if not monotone:
        raise InputError("only the upward-closed family (monotone=True) is available")
    if k < 0:
        raise InputError("dimension must be non-negative")
    if k > MAX_K:
        raise InputError(f"the committed margin table covers k <= {MAX_K}; got k={k}")
    if k == 0:
        return [HalfspaceSet(0, 0), HalfspaceSet(0, 1)]
    return [HalfspaceSet(k, m) for m in upward_family(k)[0]]
