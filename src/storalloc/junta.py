"""Head-only optimization: best allocation supported on the first L nodes.

For every threshold-realizable S over the head cube, an LP feasibility
check asks whether some head w >= 0 with sum(w) <= W reaches tau on all of
S; the witness's realized event probability is computed exactly and the
best witness wins.  With non-negative weights only upward-closed sets can
be realized, and the upward closure of a feasible S is feasible with the
same witness, so the enumeration is restricted to monotone sets without
changing the optimum.

The program (``chain_lp``) serves a nested chain S_1 <= ... <= S_r of such
sets at descending thresholds tau_1 >= ... >= tau_r, as the Case-3 head
completion against sampled tail points needs (small_ci.find_best_head); the
junta is the one-level case.  Its rows are membership constraints only.

Called with (p_1..p_L, theta, 1) this is exactly optimal whenever the
optimal allocation is supported on the first L coordinates; it also serves
the large-critical-index case with shifted thresholds and reduced budgets
(which may leave (0,1) and are handled naturally).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError
from .halfspaces import HalfspaceSet, enumerate_halfspace_sets, minimal_members, point_bits
from .lp import LinearProgram, lp_solve
from .util import ordered_map, to_fraction


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
        if any(not 0 < p < 1 for p in probs):
            raise InputError("head probabilities must lie in (0,1)")
        if any(probs[i] < probs[i + 1] for i in range(len(probs) - 1)):
            raise InputError("head probabilities must be sorted non-increasing")
        if not 0 <= self.W <= 1:
            raise InputError("budget W must lie in [0,1]")

    @property
    def L(self) -> int:
        return len(self.head_probs)


@dataclass(frozen=True)
class JuntaResult:
    weights: tuple[Fraction, ...]
    value: Fraction
    sets_examined: int


def outcome_probabilities(probs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact probability of every point of {0,1}^k under the product law."""
    k = len(probs)
    out = []
    for x in range(1 << k):
        pr = Fraction(1)
        for j, p in enumerate(probs):
            pr *= p if (x >> j) & 1 else 1 - p
        out.append(pr)
    return tuple(out)


def mask_probability(point_probs: Sequence[Fraction], mask: int) -> Fraction:
    return sum(
        (pr for x, pr in enumerate(point_probs) if (mask >> x) & 1), Fraction(0)
    )


def realized_event_mask(weights: Sequence[Fraction], tau: Fraction, k: int) -> int:
    mask = 0
    for x in range(1 << k):
        dot = sum((w for w, b in zip(weights, point_bits(x, k)) if b), Fraction(0))
        if dot >= tau:
            mask |= 1 << x
    return mask


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


def _head_witness(set_: HalfspaceSet, tau: Fraction, W: Fraction, L: int) -> Optional[tuple[Fraction, ...]]:
    res = lp_solve(chain_lp((set_.mask,), (tau,), W, L))
    return res.x if res.status == "optimal" else None


def _sort_key(weights: Sequence[Fraction]) -> tuple:
    return tuple(sorted(weights, reverse=True))


def find_optimal_junta(
    req: JuntaRequest,
    sets: Optional[Sequence[HalfspaceSet]] = None,
    threads: int = 1,
    strategy: str = "exhaustive",
) -> JuntaResult:
    """Exact maximizer of Pr[w . X >= tau] over heads with sum(w) <= W.

    ``sets`` defaults to the upward-closed realizable sets of the head cube,
    which lose nothing (see the module docstring).  Ties between equally
    good witnesses break toward the lexicographically smallest
    descending-sorted weight vector.

    strategy="first_feasible" scans sets by event probability descending and
    stops at the first feasible one.  Any witness's value is the probability
    of its realized set, which is itself a feasible enumerated set, so the
    first feasible set in this order already carries the optimal value; only
    the tie-break among equally-good witnesses differs.  Used by the n=5
    oracle, where the exhaustive scan costs thousands of LPs.
    """
    L = req.L
    tau, W = req.tau, req.W
    point_probs = outcome_probabilities(req.head_probs)

    if tau <= 0:
        # Every outcome qualifies regardless of w; the zero head wins ties.
        return JuntaResult((Fraction(0),) * L, Fraction(1), 0)

    if sets is None:
        sets = enumerate_halfspace_sets(L, monotone=True)

    def quick_reject(set_: HalfspaceSet) -> bool:
        if set_.mask and tau > W:
            return True  # w.x <= sum(w) <= W < tau for every x
        return bool(set_.mask & 1)  # all-zeros point can never reach tau > 0

    if strategy == "first_feasible":
        order = sorted(
            sets, key=lambda s: (-mask_probability(point_probs, s.mask), s.mask)
        )
        examined = 0
        for set_ in order:
            if quick_reject(set_):
                continue
            examined += 1
            witness = _head_witness(set_, tau, W, L)
            if witness is None:
                continue
            realized = realized_event_mask(witness, tau, L)
            value = mask_probability(point_probs, realized)
            assert value == mask_probability(point_probs, set_.mask)
            return JuntaResult(tuple(witness), value, examined)
        return JuntaResult((Fraction(0),) * L, Fraction(0), examined)
    if strategy != "exhaustive":
        raise InputError(f"unknown strategy {strategy!r}")

    def examine(set_: HalfspaceSet):
        if quick_reject(set_):
            return None
        witness = _head_witness(set_, tau, W, L)
        if witness is None:
            return None
        return witness, mask_probability(point_probs, realized_event_mask(witness, tau, L))

    results = ordered_map(examine, sets, threads)
    best: Optional[tuple] = None
    for item in results:
        if item is None:
            continue
        witness, value = item
        key = (value, [-x for x in _sort_key(witness)])
        if best is None or key > best[0]:
            best = (key, witness, value)
    if best is None:
        # Only the empty set was feasible: the zero head with value 0.
        return JuntaResult((Fraction(0),) * L, Fraction(0), len(sets))
    return JuntaResult(tuple(best[1]), best[2], len(sets))
