"""Head-only optimization: best allocation supported on the first L nodes.

The realized event {x : w.x >= tau} of a head w >= 0 is an upward-closed
threshold-realizable subset S of the head cube {0,1}^L, and its value is
P(S), the probability of S under the product law.  So the optimum is the
most probable such S that some head with sum(w) <= W lifts to tau on all of
S.  That is decided without an LP per request, by each set's margin

    v(S) = max over u >= 0 with sum(u) <= 1 of min over x in min(S) of u.x,

where min(S) are the minimal members of S, and u_S is the maximizer.  Both
depend on (S, L) alone.

Why the scan is exact.  Take tau > 0.  The program "w >= 0, sum(w) <= W,
w.x >= tau on min(S)" is homogeneous in (w, tau), so S is feasible iff
tau <= W v(S) (LP duality, read as the value of a game), and then
(tau / v(S)) u_S is a witness.  Members above a minimal one reach tau
too, because w >= 0.  The witness so realizes an upward-closed,
threshold-realizable superset R of S, and R is feasible.  The scan visits
the non-empty sets by (-P(S), mask) and stops at the first feasible S; if
P(R) > P(S), R would have come earlier and stopped the scan, so
P(R) = P(S), and P(S) is the optimum.  A set holding the zero point has
v = 0, and every v <= 1, so tau > W rejects every set and the zero head
with value 0 is returned.  For tau <= 0 every outcome qualifies and the
zero head has value 1.

The margin table.  The family, each set's v(S) and u_S are constants:
line k = 1..5 of the package file junta_margins.txt holds one row per
upward-closed realizable set S over {0,1}^k, in ascending mask order,
read per k on first use.  A row is S's mask as max(1, 2^k / 4) lowercase
hex digits (bit x = point x), then the digits (e, c_1..c_k) with
u_S / v(S) = c / e, the LP vertex of the table's generator,
tests/margin_table.py, which takes the masks from its integer weight
grid.  The table is the package's one source of families: the scan,
small_ci.find_best_head and halfspaces.enumerate_halfspace_sets read it,
and no module enumerates one.
Then v(S) = e / sum(c), as sum(u_S) = 1 at every maximizer with v > 0
(else u_S / sum(u_S) raises the positive minimum).
The full cube holds the zero point: v = 0, every u attains it, and its row
(0, 1, ..., 1) refuses every tau > 0.  The empty set's row (1, 0, ..., 0)
is never read.  margin_admits, which the scan and
small_ci.find_best_head share, tests tau <= W v(S) as
tau_n W_d sum(c) <= W_n tau_d e.

Certificates.  tests/margin_certificates.txt holds, per non-empty set,
integers lambda >= 0 over min(S) that sum to d, and a test checks in
integer arithmetic that c >= 0 and c.x >= e on min(S) (u = c / sum(c)
attains e / sum(c)), and that sum_x lambda_x x_j sum(c) <= e d for every j
(every feasible u has min_x u.x <= sum_x (lambda_x / d) u.x <= e / sum(c)).
So e / sum(c) is v(S), with no simplex.  Another test regenerates the
table, masks and margins, and compares bytes.

Built per request, on the head's (numerator, denominator) pairs: point x
has probability nums[x] / D, D the product of the denominators, D P(S)
for the family is one product of its 0/1 member matrix with nums, and a
stable argsort of -D P(S) orders the scan, which tests tau <= W v(S)
cross-multiplied and returns tau c / e.

Called with (p_1..p_L, theta, 1) this is exactly optimal whenever the
optimal allocation is supported on the first L coordinates; it also serves
the large-critical-index case with shifted thresholds and reduced budgets
(which may leave (0,1) and are handled naturally).
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import MAX_K
from .errors import InputError
from .evaluate import _INT64_MAX, _byte_dots, _byte_tables
from .util import Record, to_fraction

_ZERO = Fraction(0)
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "junta_margins.txt")


class JuntaRequest(Record):
    __slots__ = ("head_probs", "tau", "W")

    def __init__(self, head_probs: tuple[Fraction, ...], tau: Fraction, W: Fraction):
        probs, W = tuple(map(to_fraction, head_probs)), to_fraction(W)
        object.__setattr__(self, "head_probs", probs)
        object.__setattr__(self, "tau", to_fraction(tau))
        object.__setattr__(self, "W", W)
        if not probs:
            raise InputError("empty head")
        c, d = 1, 1  # denominators are positive: a/b > c/d iff a d > c b
        for p in probs:
            a, b = p.numerator, p.denominator
            if not 0 < a < b:
                raise InputError("head probabilities must lie in (0,1)")
            if a * d > c * b:
                raise InputError("head probabilities must be sorted non-increasing")
            c, d = a, b
        if not 0 <= W.numerator <= W.denominator:
            raise InputError("budget W must lie in [0,1]")

    @property
    def L(self) -> int:
        return len(self.head_probs)


class JuntaResult(Record):
    __slots__ = ("weights", "value", "sets_examined")

    def __init__(self, weights: tuple[Fraction, ...], value: Fraction, sets_examined: int):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "sets_examined", sets_examined)


def outcome_numerators(probs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(nums, D) for p_j = a_j / b_j: point x of {0,1}^k has probability
    nums[x] / D, D = prod(b_j).  Built by doubling: coordinate j appends
    the points with bit j set."""
    nums, D = [1], 1
    for p in probs:
        a, b = p.numerator, p.denominator
        nums = [v * c for c in (b - a, a) for v in nums]
        D *= b
    return tuple(nums), D


@lru_cache(maxsize=None)
def _load_table(k: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, list[int], list[int]]:
    """(masks, array, members, rows, e, sums) from line k of the committed
    table (module docstring): the family's masks, ascending, as ints and as
    uint64; the 0/1 matrix of their point bits, point x in column x, int64
    up to k = 4 (19 KB) and uint8 at k = 5 (105 KB, where int64 would take
    841 KB); the uint8 matrix whose row i is set i's digits (e, c_1..c_k);
    and e[i] and sums[i] = sum(c) as ints, so v = e[i] / sums[i]."""
    with open(_TABLE_PATH, "rb") as fh:
        line = fh.read().split(b"\n")[k - 1]
    width = max(1, (1 << k) // 4)
    table = np.frombuffer(line, dtype=np.uint8).reshape(-1, width + k + 1)
    # the hex digits, left-padded to whole bytes, decode to big-endian masks
    hexdigits = np.full((len(table), width + width % 2), ord("0"), dtype=np.uint8)
    hexdigits[:, width % 2:] = table[:, :width]
    big_endian = bytes.fromhex(hexdigits.tobytes().decode())
    array = np.frombuffer(big_endian, dtype=f">u{hexdigits.shape[1] // 2}").astype(np.uint64)
    low_bytes = array.astype("<u8").view(np.uint8).reshape(-1, 8)
    members = np.unpackbits(low_bytes, axis=1, bitorder="little")[:, : 1 << k]
    members = members if k == MAX_K else members.astype(np.int64)
    rows = table[:, width:] - ord("0")
    members.setflags(write=False)  # the cache shares both
    rows.setflags(write=False)
    return array.tolist(), array, members, rows, rows[:, 0].tolist(), rows[:, 1:].sum(axis=1).tolist()


def upward_family(k: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(masks, array, members) of _load_table(k): the upward-closed
    realizable masks over {0,1}^k, ascending, as ints, as uint64, and as
    the 0/1 matrix of their point bits."""
    return _load_table(k)[:3]


def family_numerators(nums: Sequence[int], k: int) -> np.ndarray:
    """D P(S) for every set S of upward_family(k), aligned with its masks.
    Every partial sum is a subset sum of the non-negative nums (p_j in
    [0, 1]), at most sum(nums) = D, so
    when D fits int64 they come from one integer product with the member
    matrix (numpy's integer matmul casts whole operands, so the uint8 one
    goes through einsum, which casts in small buffers), and otherwise from
    evaluate's per-byte tables on Python ints."""
    members = upward_family(k)[2]
    if sum(nums) <= _INT64_MAX:
        column = np.array(nums, dtype=np.int64)
        return members @ column if members.dtype == np.int64 else np.einsum("ij,j->i", members, column)
    tables = _byte_tables(np.array(nums, dtype=object).reshape(-1, 1))
    return _byte_dots(tables, np.packbits(members, axis=1))[:, 0]


def margin_admits(i: int, k: int, lhs: int, rhs: int) -> bool:
    """tau <= W v(S) for set i of upward_family(k), as lhs sum(c) <= rhs e with
    lhs = tau_n W_d and rhs = W_n tau_d."""
    _, _, _, _, e, sums = _load_table(k)
    return lhs * sums[i] <= rhs * e[i]


def _scan_order(probs: Sequence[Fraction]) -> tuple[int, np.ndarray, np.ndarray]:
    """(D, scores, order) for a head's probabilities: scores[i] is D P(S)
    for set i of upward_family(k), and order indexes the non-empty sets by
    probability descending, then mask ascending."""
    nums, D = outcome_numerators(probs)
    scores = family_numerators(nums, len(probs))
    # masks ascend and the sort is stable, so ties keep mask order; every
    # -score <= 0 is in range, and the empty set at 0, given 1, goes last
    negated = -scores
    negated[0] = 1
    return D, scores, negated.argsort(kind="stable")[:-1]


def find_optimal_junta(req: JuntaRequest) -> JuntaResult:
    """Exact maximizer of Pr[w . X >= tau] over heads w >= 0, sum(w) <= W.

    Returns (tau / v(S)) u_S for the first set S of the scan (module
    docstring) with tau <= W v(S), valued P(S); ``sets_examined`` counts
    the sets the scan visited."""
    L, tau, W = req.L, req.tau, req.W
    tau_n, tau_d = tau.numerator, tau.denominator
    if tau_n <= 0:
        return JuntaResult((_ZERO,) * L, Fraction(1), 0)
    D, scores, order = _scan_order(req.head_probs)
    lhs, rhs = tau_n * W.denominator, W.numerator * tau_d  # denominators are positive
    for examined, i in enumerate(order.tolist(), 1):
        if margin_admits(i, L, lhs, rhs):
            e, *c = _load_table(L)[3][i].tolist()
            weights = tuple([Fraction(tau_n * x, tau_d * e) if x else _ZERO for x in c])
            return JuntaResult(weights, Fraction(int(scores[i]), D), examined)
    return JuntaResult((_ZERO,) * L, _ZERO, len(order))
