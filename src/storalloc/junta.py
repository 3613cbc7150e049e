"""Head-only optimization: best allocation supported on the first L nodes.

The realized event {x : w.x >= tau} of a head w >= 0 is an upward-closed
threshold-realizable subset S of the head cube {0,1}^L, and its value is
P(S), the probability of S under the product law.  So the optimum is the
most probable such S that some head with sum(w) <= W lifts to tau on all of
S.  That is decided without an LP per request, by each set's margin

    v(S) = max over u >= 0 with sum(u) <= 1 of min over x in min(S) of u.x,

where min(S) are the minimal members of S, and u_S is the maximizer.  Both
depend on (S, L) alone, so each is one LP solved once and cached.

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

The scan ranks sets on integers.  Every point x of the head cube has
probability nums[x] / D, with D the product of the denominators of the
p_j (``outcome_numerators``), so D P(S) is the integer sum of nums over S,
taken for a whole family at once as one product of its cached 0/1 member
matrix with nums (``family_numerators``; past int64, the Monte-Carlo
classifier's per-byte tables on Python ints).  All sets share the one D,
so one stable argsort of -D P(S) over the ascending masks gives the
(-P(S), mask) order, and the scan walks it index by index, so a scan that
stops early touches only the sets it visits.  The test tau <= W v(S) is
cross-multiplied, and only the returned set's value and witness become
Fractions.

``chain_lp`` is the membership program of a nested chain of such sets at
descending thresholds, which the Case-3 head search solves after the same
margin pre-test and integer ranking (small_ci.find_best_head).

Called with (p_1..p_L, theta, 1) this is exactly optimal whenever the
optimal allocation is supported on the first L coordinates; it also serves
the large-critical-index case with shifted thresholds and reduced budgets
(which may leave (0,1) and are handled naturally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InputError
from .evaluate import _byte_dots, _byte_tables, _fits_int64
from .halfspaces import enumerate_halfspace_sets, minimal_members, point_bits
from .lp import LinearProgram, lp_solve
from .util import to_fraction


@dataclass(frozen=True)
class JuntaRequest:
    head_probs: tuple[Fraction, ...]
    tau: Fraction
    W: Fraction

    def __post_init__(self):
        probs = tuple(to_fraction(p) for p in self.head_probs)
        object.__setattr__(self, "head_probs", probs)
        object.__setattr__(self, "tau", to_fraction(self.tau))
        object.__setattr__(self, "W", to_fraction(self.W))
        if not probs:
            raise InputError("empty head")
        # on numerators: denominators are positive, a/b < c/d iff a d < c b
        if any(not 0 < p.numerator < p.denominator for p in probs):
            raise InputError("head probabilities must lie in (0,1)")
        if any(p.numerator * q.denominator < q.numerator * p.denominator for p, q in zip(probs, probs[1:])):
            raise InputError("head probabilities must be sorted non-increasing")
        if not 0 <= self.W.numerator <= self.W.denominator:
            raise InputError("budget W must lie in [0,1]")

    @property
    def L(self) -> int:
        return len(self.head_probs)


@dataclass(frozen=True)
class JuntaResult:
    weights: tuple[Fraction, ...]
    value: Fraction
    sets_examined: int
    request: JuntaRequest = field(repr=False)  # the request this answers


def outcome_numerators(probs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(nums, D): the probability of point x of {0,1}^k under the product
    law is nums[x] / D, with D = prod(denominator of p_j).  Built by
    doubling: coordinate j = a/b appends the points with bit j set."""
    nums, D = [1], 1
    for p in probs:
        a, b = p.numerator, p.denominator
        nums = [v * (b - a) for v in nums] + [v * a for v in nums]
        D *= b
    return tuple(nums), D


@lru_cache(maxsize=None)
def upward_family(k: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(masks, array, rows): the upward-closed realizable masks over
    {0,1}^k, ascending, as ints, as uint64, and as packed rows of their 2^k
    point bits, point x as coordinate x in np.packbits order (the form
    evaluate's tables read)."""
    masks = [s.mask for s in enumerate_halfspace_sets(k, monotone=True)]
    array = np.array(masks, dtype=np.uint64)
    width = ((1 << k) + 7) // 8
    low_bytes = array.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width]
    return masks, array, np.packbits(np.unpackbits(low_bytes, axis=1, bitorder="little"), axis=1)


@lru_cache(maxsize=None)
def member_matrix(k: int) -> np.ndarray:
    """The 0/1 uint8 matrix of upward_family(k): row i holds set i's point
    bits, point x in column x, unpacked from the family's packed rows."""
    members = np.unpackbits(upward_family(k)[2], axis=1)[:, : 1 << k]
    members.flags.writeable = False  # the cache shares it
    return members


def family_numerators(nums: Sequence[int], k: int) -> np.ndarray:
    """D P(S) for every set S of upward_family(k), aligned with its masks.
    Every partial sum is a subset sum of nums, at most sum(nums) = D, so
    when D fits int64 the sums are one integer product of member_matrix(k)
    with nums; otherwise they run on Python ints through evaluate's
    per-byte tables, where a 0/1 product of objects is an order of
    magnitude slower (mc_hit_counts)."""
    if _fits_int64(nums, 0):
        return member_matrix(k) @ np.array(nums, dtype=np.int64)
    tables = _byte_tables(np.array(nums, dtype=object).reshape(-1, 1))
    return _byte_dots(tables, upward_family(k)[2])[:, 0]


def chain_lp(
    chain: Sequence[int], taus: Sequence[Fraction], W: Fraction, k: int
) -> LinearProgram:
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=4)
def _scan_order(head_probs: tuple[Fraction, ...]) -> tuple[int, np.ndarray, np.ndarray]:
    """(D, scores, order): scores[i] is D P(S) for set i of
    upward_family(k), every set sharing the one D, and order indexes the
    non-empty sets by probability descending, then mask ascending.  The
    Case-2 requests of one solve share one head, so it is kept across
    calls."""
    nums, D = outcome_numerators(head_probs)
    scores = family_numerators(nums, len(head_probs))
    # index 0 holds the empty set; masks ascend and the sort is stable, so
    # ties keep mask order, and 0 <= score <= D leaves -score in range
    order = np.argsort(-scores[1:], kind="stable") + 1
    scores.flags.writeable = order.flags.writeable = False  # the cache shares them
    return D, scores, order


def find_optimal_junta(req: JuntaRequest) -> JuntaResult:
    """Exact maximizer of Pr[w . X >= tau] over heads w >= 0, sum(w) <= W.

    Returns (tau / v(S)) u_S for the first set S of the scan (see the module
    docstring) that tau <= W v(S) admits, with value P(S); ``sets_examined``
    counts the sets the scan visited.
    """
    L, tau, W = req.L, req.tau, req.W
    if tau <= 0:
        return JuntaResult((Fraction(0),) * L, Fraction(1), 0, req)
    D, scores, order = _scan_order(req.head_probs)
    masks = upward_family(L)[0]
    # tau <= W v as tau_n W_d v_d <= W_n tau_d v_n (positive denominators)
    lhs, rhs = tau.numerator * W.denominator, W.numerator * tau.denominator
    for examined, i in enumerate(order, 1):
        v, u = set_margin(masks[i], L)
        if lhs * v.denominator <= rhs * v.numerator:
            return JuntaResult(tuple(map((tau / v).__mul__, u)), Fraction(int(scores[i]), D), examined, req)
    return JuntaResult((Fraction(0),) * L, Fraction(0), len(order), req)
