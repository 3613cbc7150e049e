"""Head-only optimization: best allocation supported on the first L nodes.

The realized event {x : w.x >= tau} of a head w >= 0 is an upward-closed
threshold-realizable subset S of the head cube {0,1}^L, and its value is
P(S), the probability of S under the product law.  So the optimum is the
most probable such S that some head with sum(w) <= W lifts to tau on all of
S.  That is decided without an LP per request, by each set's margin

    v(S) = max over u >= 0 with sum(u) <= 1 of min over x in min(S) of u.x,

where min(S) are the minimal members of S, and u_S is the maximizer.  Both
depend on (S, L) alone, and v(S) not even on the order of the coordinates.

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

Cached per k, in one table: one v per orbit of sets under coordinate
permutations (the 5, 19, 149 and 3286 non-empty sets at k = 2..5 form 4,
9, 26 and 118), and each solved set's u_S / v(S) as integers c / e.  The
scan and small_ci.find_best_head test tau <= W v(S) by margin_admits; an
orbit's first test solves the LP (``set_margin``) of the set asked about,
which fills its witness too; a returned set whose LP has not run solves
it then.  So witnesses are the LP vertices they always were, and at most
one LP runs per set asked about.

Built per request, on the head's (numerator, denominator) pairs: point x
has probability nums[x] / D, D the product of the denominators, D P(S)
for the family is one product of its 0/1 member matrix with nums, and a
stable argsort of -D P(S) orders the scan, which tests tau <= W v(S)
cross-multiplied and returns tau c / e.

``chain_lp`` is the membership program of a nested chain of such sets at
descending thresholds, which the Case-3 head search solves after the same
margin test and integer ranking (small_ci.find_best_head).

Called with (p_1..p_L, theta, 1) this is exactly optimal whenever the
optimal allocation is supported on the first L coordinates; it also serves
the large-critical-index case with shifted thresholds and reduced budgets
(which may leave (0,1) and are handled naturally).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InputError
from .evaluate import _INT64_MAX, _byte_dots, _byte_tables
from .halfspaces import MAX_K, enumerate_halfspace_sets, minimal_members, point_bits
from .lp import LinearProgram, lp_solve
from .util import lcm_scaled, to_fraction

_ZERO = Fraction(0)


@dataclass(frozen=True)
class JuntaRequest:
    head_probs: tuple[Fraction, ...]
    tau: Fraction
    W: Fraction

    def __post_init__(self):
        probs, W = tuple(map(to_fraction, self.head_probs)), to_fraction(self.W)
        object.__setattr__(self, "head_probs", probs)
        object.__setattr__(self, "tau", to_fraction(self.tau))
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


@dataclass(frozen=True)
class JuntaResult:
    weights: tuple[Fraction, ...]
    value: Fraction
    sets_examined: int


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
def upward_family(k: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(masks, array, members): the upward-closed realizable masks over
    {0,1}^k, ascending, as ints, as uint64, and as the 0/1 matrix of their
    point bits, point x in column x: int64 up to k = 4 (19 KB), uint8 at
    k = 5 (105 KB, where int64 would take 841 KB)."""
    masks = [s.mask for s in enumerate_halfspace_sets(k, monotone=True)]
    array = np.array(masks, dtype=np.uint64)
    low_bytes = array.astype("<u8").view(np.uint8).reshape(-1, 8)
    members = np.unpackbits(low_bytes, axis=1, bitorder="little")[:, : 1 << k]
    members = members if k == MAX_K else members.astype(np.int64)
    members.setflags(write=False)  # the cache shares it
    return masks, array, members


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
    cons = []
    prev = 0
    for mask, tau in zip(chain, taus):
        for x in minimal_members(mask, k):
            if not (prev >> x) & 1:
                cons.append(([Fraction(b) for b in point_bits(x, k)], ">=", tau))
        prev = mask
    cons.append(([Fraction(1)] * k, "<=", W))
    return LinearProgram(k, cons, objective=None)


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


@lru_cache(maxsize=None)
def _margin_table(k: int) -> tuple[list[int], list, list]:
    """(orbit, margins, witnesses) over upward_family(k): orbit[i] is the
    least index in set i's orbit; _solve_set fills margins[orbit[i]] and
    witnesses[i].  A swap of coordinates j, j + 1 moves mask bit x by 2^j
    where x_j != x_(j+1); k (k - 1) / 2 swaps reach any order."""
    array, moves = upward_family(k)[1], []
    for j in range(k - 1):
        low, s = np.uint64(sum(1 << x for x in range(1 << k) if x >> j & 3 == 1)), np.uint64(1 << j)
        moves.append(np.searchsorted(array, array & ~(low | low << s) | (array & low) << s | array >> s & low))
    orbit = np.arange(len(array))
    for _ in range(k * (k - 1) // 2):
        orbit = np.minimum.reduce([orbit, *(orbit[move] for move in moves)])
    return orbit.tolist(), [None] * len(array), [None] * len(array)


def _solve_set(i: int, k: int) -> tuple[int, int]:
    """Solve set i's margin LP: store its orbit's v as (v_n, v_d), returned,
    and unless v = 0 (S holds the zero point) its u_S / v = c / e as (e, c)."""
    orbit, margins, witnesses = _margin_table(k)
    v, u = set_margin(upward_family(k)[0][i], k)
    if v:
        witnesses[i] = lcm_scaled([x / v for x in u])
    margins[orbit[i]] = v.numerator, v.denominator
    return margins[orbit[i]]


def margin_admits(i: int, k: int, lhs: int, rhs: int) -> bool:
    """tau <= W v(S) for set i of upward_family(k), as lhs v_d <= rhs v_n with
    lhs = tau_n W_d and rhs = W_n tau_d; the orbit's first test solves set i."""
    orbit, margins, _ = _margin_table(k)
    v_n, v_d = margins[orbit[i]] or _solve_set(i, k)
    return lhs * v_d <= rhs * v_n


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
    witnesses = _margin_table(L)[2]
    lhs, rhs = tau_n * W.denominator, W.numerator * tau_d  # denominators are positive
    for examined, i in enumerate(order, 1):
        if margin_admits(i, L, lhs, rhs):
            if witnesses[i] is None:  # another member filled the orbit's margin
                _solve_set(i, L)
            e, c = witnesses[i]
            weights = tuple([Fraction(tau_n * x, tau_d * e) if x else _ZERO for x in c])
            return JuntaResult(weights, Fraction(int(scores[i]), D), examined)
    return JuntaResult((_ZERO,) * L, _ZERO, len(order))
