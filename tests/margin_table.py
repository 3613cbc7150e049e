"""Generator of the junta's committed margin table and its certificates,
and the tests' weight-grid families.

    PYTHONPATH=src python tests/margin_table.py

rewrites ``src/storalloc/junta_margins.txt`` (package data) and
``tests/margin_certificates.txt`` from the weight grid below and exact
LPs.

The grid.  ``grid_family(k, monotone)`` builds the threshold-realizable
subsets of {0,1}^k from canonical sorted non-negative integer weight
vectors up to a per-k bound (``GRID_BOUND``).  The whole grid takes one
vectorized sweep: U @ bits holds every vector's 2^k dot products, one
comparison with every threshold level from 0 to one above the largest sum
gives each level's set as a row of point bits at once, and np.packbits
turns the rows into masks.  The family is then closed under coordinate
permutations and, unless ``monotone``, flips, by one gather of the masks'
bits through each transform's point table, and deduplicated by sort.
Non-negative weights give upward-closed sets and permutations keep them
so, which makes the permutation closure alone exactly the upward-closed
family.  The bounds are checked by the tests: for k <= 4 the family
equals, as an ordered list of masks, the one an exact LP separability
test picks out of all 2^(2^k) Boolean functions, and at k = 5 the counts
match the known ones and the mask lists match pinned digests.  The grid
is the tests' full-family reference, and the only code that computes a
family: the package reads its families from the table.

The table holds one row per upward-closed realizable set S over
{0,1}^k, k = 1..5, in ascending mask order, the sets taken from
``grid_family(k, monotone=True)``, never from the package, which reads
them back from this table: line k is k's rows run together.  A row is
S's mask as max(1, 2^k / 4) lowercase hex digits (bit x = point x), then
the k + 1 decimal digits (e, c_1..c_k).  The test that compares the
table's bytes with this generator's output so checks the committed
families against the grid as well as the margins against the LPs.  For
a set S with margin v(S) > 0 and ``set_margin``'s maximizer u_S, c / e
is u_S / v(S) in lowest common terms (``util.lcm_scaled``), so the
junta's witnesses are the LP vertices they always were.  Every
maximizer with v > 0 has sum(u_S) = 1 (scaling u up to sum 1 would raise
the minimum), so v(S) = e / sum(c); the generator checks that identity on
every set.  The full cube holds the zero point, so v = 0 and every u is a
maximizer: its row is (0, 1, ..., 1).  The empty set has no minimal
member and v = +inf: its row is (1, 0, ..., 0), read by neither caller.

The certificates file has one line per non-empty set, in the same order:
the digits (d, lambda_1..lambda_m), lambda / d a dual solution, weights
over min(S) in ascending point order with sum(lambda) = d and
max_j sum_x lambda_x x_j / d = v(S).  tests/test_junta.py checks every
pair in integer arithmetic; the LPs here only produce them.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from storalloc.core import MAX_K
from storalloc.halfspaces import minimal_members, point_bits
from storalloc.lp import LinearProgram, lp_solve
from storalloc.util import lcm_scaled

ROOT = Path(__file__).resolve().parents[1]
TABLE_PATH = ROOT / "src" / "storalloc" / "junta_margins.txt"
CERTIFICATES_PATH = Path(__file__).resolve().with_name("margin_certificates.txt")

# Per-k weight bounds for the grid; see the module docstring for how they
# are checked.
GRID_BOUND = {1: 1, 2: 1, 3: 2, 4: 3, 5: 9}

# Size budget for each temporary array of the family build.
_BLOCK_BYTES = 1 << 16


def _masks(members: np.ndarray) -> np.ndarray:
    """uint64 masks of boolean rows of point membership (point x last):
    the rows' little-endian packed bytes, 1, 2 or 4 per row for k <= 5."""
    packed = np.ascontiguousarray(np.packbits(members, axis=-1, bitorder="little"))
    return packed.view(f"<u{packed.shape[-1]}")[..., 0].astype(np.uint64)


def _merge(masks: np.ndarray, more: np.ndarray) -> np.ndarray:
    """Distinct values of both, ascending."""
    return np.unique(np.concatenate((masks, more.ravel())))


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
def grid_family(k: int, monotone: bool) -> tuple[int, ...]:
    """Every threshold-realizable subset of {0,1}^k, or with ``monotone``
    every upward-closed one, as ascending masks, from the weight grid."""
    if k == 0:
        return (0, 1)
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
    return tuple(closed.tolist())


def set_margin(mask: int, k: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(v(S), u_S) for the upward-closed mask S over {0,1}^k: the largest
    t with u.x >= t on every minimal member x of S, over u >= 0 with
    sum(u) <= 1, and the u attaining it.  Variables are (u_1..u_k, t)."""
    cons = [
        ([Fraction(b) for b in point_bits(x, k)] + [Fraction(-1)], ">=", Fraction(0))
        for x in minimal_members(mask, k)
    ]
    cons.append(([Fraction(1)] * k + [Fraction(0)], "<=", Fraction(1)))
    objective = ([Fraction(0)] * k + [Fraction(1)], "max")
    res = lp_solve(LinearProgram(k + 1, cons, objective))
    return res.objective_value, res.x[:k]


def margin_row(mask: int, k: int) -> tuple[int, ...]:
    """(e, c_1..c_k) for set S = mask (module docstring)."""
    if not mask:
        return (1,) + (0,) * k
    v, u = set_margin(mask, k)
    if not v:
        return (0,) + (1,) * k
    e, c = lcm_scaled([x / v for x in u])
    if Fraction(e, sum(c)) != v:
        raise AssertionError(f"v != e / sum(c) at k={k}, mask={mask}")
    return (e, *c)


def dual_certificate(mask: int, k: int) -> tuple[int, ...]:
    """(d, lambda over min(S)) from the dual LP: minimize s over
    lambda >= 0 with sum(lambda) = 1 and sum_x lambda_x x_j <= s for every j."""
    members = minimal_members(mask, k)
    m = len(members)
    cons = [
        ([Fraction(point_bits(x, k)[j]) for x in members] + [Fraction(-1)], "<=", Fraction(0))
        for j in range(k)
    ]
    cons.append(([Fraction(1)] * m + [Fraction(0)], "=", Fraction(1)))
    res = lp_solve(LinearProgram(m + 1, cons, ([Fraction(0)] * m + [Fraction(1)], "min")))
    d, lam = lcm_scaled(res.x[:m])
    return (d, *lam)


def _digits(row) -> str:
    if not all(0 <= x <= 9 for x in row):
        raise AssertionError(f"row {row} needs more than one digit per integer")
    return "".join(map(str, row))


def mask_digits(mask: int, k: int) -> str:
    """The mask as max(1, 2^k / 4) lowercase hex digits, bit x = point x."""
    return format(mask, f"0{max(1, (1 << k) // 4)}x")


def table_bytes() -> bytes:
    """The package table, regenerated from the weight grid and set_margin's LPs."""
    lines = [
        "".join(mask_digits(mask, k) + _digits(margin_row(mask, k)) for mask in grid_family(k, True))
        for k in range(1, MAX_K + 1)
    ]
    return ("\n".join(lines) + "\n").encode()


def certificates_text() -> str:
    return "".join(
        _digits(dual_certificate(mask, k)) + "\n"
        for k in range(1, MAX_K + 1)
        for mask in grid_family(k, True)[1:]
    )


if __name__ == "__main__":
    TABLE_PATH.write_bytes(table_bytes())
    CERTIFICATES_PATH.write_text(certificates_text())
    print(f"wrote {TABLE_PATH} and {CERTIFICATES_PATH}", file=sys.stderr)
