"""Case 2: the optimum has critical index beyond the head cutoff L.

The tail of a near-optimal solution can then be assumed kappa-granular and
sharply concentrated, so only three integer statistics of the tail matter:

    A = sum w_i^2 / kappa^2          (concentration radius)
    B = sum w_i p_i / (kappa eps/4n) (mean, integral by granularity A2)
    C = sum w_i / kappa              (weight spent)

A triple T asks the junta solver to complete the head against the
shifted threshold and budget

    tau_T = theta - mu + s,  mu = B kappa (eps/4n),  s = kappa sqrt(ln(200/eps) A)
    W_T   = 1 - C kappa.

If the optimum really is of this type, one of the assembled candidates is
within eps/2 of it.

A DP over the tail slots keeps, per reached (A, C), the largest B and one
witness path of (slot, j) pairs, j units of kappa on that slot.  The kept
triples give the same front, with the same paths, as every reachable
triple would:

  * a step spending j units on slot t adds (j^2, j m_t, j) to any state,
    so the largest B at an (A, C) stays largest after any common extension;
  * at a fixed (A, C), tau falls as B rises and W depends on C alone, so a
    smaller-B triple is strictly dominated (below) and never on the front;
  * every predecessor of a kept triple was kept at its slot, and the
    predecessors of one triple at one slot differ in A.  Each slot visits
    the kept states in (A, C) order, j ascending, and replaces a state
    only on a strictly larger B, so each witness is the first path the
    full reachability DP (sorted (A,B,C) snapshots) finds.

A granular tail spends at most J = floor(1/kappa) units, so it fills at
most J slots, and the DP stops at slot L + min(n - L, J) (live_slots).
That changes no kept triple and no path.  The tail p's are non-increasing,
so moving the j units of a slot past L + J to an empty slot among the
first J keeps A and C, and B does not fall.  Every reachable (A, C) and
its largest B are thus reached within the first J slots, and a later slot,
which replaces a state only on a strictly larger B, would change nothing.

With C >= 1 units spent, C <= A <= C^2, so at most
1 + sum_{C=1}^{J} (C^2 - C + 1) = (J^3 + 2J + 3)/3 states exist, and at
most (J+1)^min(n-L, J) granular tails.  tail_state_bound is the smaller
one; the DP refuses before any state when it exceeds the state-space
limit, and otherwise takes states x min(n - L, J) x J steps.  As
(J+1)^J >= (J^3 + 2J + 3)/3, the bound over min(n - L, J) slots equals
the one over n - L slots.

Only the (tau, W) dominance front is completed.  Head and tail are
independent and Hoeffding gives Pr[tail < mu - s] <= (eps/200)^2, so T's
candidate is worth at least headval(tau_T, W_T) (1 - (eps/200)^2), where
headval is the junta optimum.  headval cannot rise as tau rises nor fall
as W rises, so a triple with tau' <= tau_T and W' >= W_T keeps T's
guarantee and T can go.  The front keeps tau ascending and W strictly
rising (ties keep the first triple in (A,B,C) order) and is emitted in
(A,B,C) order.  The zero triple has tau = theta and W = 1, the junta's own
request, so it is always on the front, first, and drops every triple
with tau >= theta.  The driver takes the junta from its candidate.

The front is the zero triple alone unless some triple has mu > s.  By
Cauchy-Schwarz mu <= sqrt(sum w^2) sqrt(sum_support p^2), while
s >= sqrt(ln(200/eps) sum w^2).  A tail has at most min(n - L, J)
non-zero slots and the tail p's are non-increasing, so

    sum_{i=L+1}^{L+min(n-L, J)} p_i^2 <= ln(200/eps)

rules such triples out.  zero_tail_dominates evaluates it exactly, on
the instance's integer grid units, against a rational lower bound on the
log, and then Case 2 runs no DP at all.  With p_1 < 1 - eps it holds at
every kappa >= 1/9.

A finer kappa can lower the solve's value: the front keeps triples by the
lower bound headval(tau, W), not by their exact value (README's 32-node
example: 0.9689 at kappa 1/16, 0.9471 at 1/32).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .core import ProblemInstance, SolverConfig
from .errors import GuardError, InputError
from .junta import JuntaRequest, JuntaResult, find_optimal_junta
from .util import Record, ln_lower, ln_upper, sqrt_upper, to_fraction


class TailTriple(Record):
    __slots__ = ("A", "B", "C", "path")

    def __init__(
        self,
        A: int,
        B: int,
        C: int,
        path: tuple[tuple[int, int], ...],  # (slot, j): j kappa units on 1-based slot
    ):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "path", path)


def tail_state_bound(n_slots: int, kappa: Fraction) -> int:
    """States the tail DP can hold, min((J+1)^n_slots, (J^3 + 2J + 3)/3)
    with J = floor(1/kappa): granular tails, and (A, C) pairs (module docstring)."""
    J = kappa.denominator // kappa.numerator
    return min((J + 1) ** n_slots, (J**3 + 2 * J + 3) // 3)


def live_slots(instance: ProblemInstance, L: int, kappa: Fraction) -> int:
    """min(n - L, J), J = floor(1/kappa): the tail slots a granular tail can
    fill, and the ones the DP and the skip test read (module docstring)."""
    return min(instance.n - L, kappa.denominator // kappa.numerator)


def construct_achievable_tails(
    instance: ProblemInstance,
    L: int,
    kappa: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[TailTriple]:
    """One triple per reached (A, C) over slots L+1..L+live_slots, with the
    largest B and one path, in (A,B,C) order (module docstring).

    Refuses with tail_state_bound, before any state, when it exceeds
    config.state_space_limit.  L = n yields exactly the zero-tail triple
    (0,0,0).
    """
    config = config or SolverConfig()
    kappa = to_fraction(kappa)
    if not 0 < kappa <= 1:
        raise InputError("kappa must lie in (0,1]")
    if not 0 <= L <= instance.n:
        raise InputError(f"L={L} outside [0, n]")
    slots = live_slots(instance, L, kappa)
    estimate = tail_state_bound(slots, kappa)
    if estimate > config.state_space_limit:
        raise GuardError(
            f"tail DP may hold {estimate} states (limit {config.state_space_limit}); "
            f"use practical mode with a coarser --kappa or raise --state-space-limit",
            estimate=estimate,
            limit=config.state_space_limit,
        )
    jmax = kappa.denominator // kappa.numerator
    states = {(0, 0): (0, ())}  # (A, C) -> (largest B, ((slot, j), ...))
    for t in range(L + 1, L + slots + 1):
        m_t = instance.units[t - 1]
        for (a, c), (b, path) in sorted(states.items()):
            for j in range(1, jmax - c + 1):
                key, b_next = (a + j * j, c + j), b + j * m_t
                if key not in states or states[key][0] < b_next:
                    states[key] = (b_next, path + ((t, j),))
    return [TailTriple(*row) for row in sorted((a, b, c, path) for (a, c), (b, path) in states.items())]


class LargeCICandidate(Record):
    __slots__ = ("triple", "head", "weights", "shifted_threshold", "head_budget")

    def __init__(
        self,
        triple: TailTriple,
        head: JuntaResult,
        weights: tuple[Fraction, ...],  # sorted order, slots 1..L + live_slots (zero past them)
        shifted_threshold: Fraction,
        head_budget: Fraction,
    ):
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shifted_threshold", shifted_threshold)
        object.__setattr__(self, "head_budget", head_budget)


def shifted_threshold(
    instance: ProblemInstance, triple: TailTriple, kappa: Fraction, ln_bound: Fraction
) -> Fraction:
    """theta - B kappa eps/(4n) + kappa sqrt(ln_bound A), rounded up.

    ``ln_bound`` is ln_upper(200/eps), computed once per Case-2 call.  The
    upward rounding of the irrational shift only tightens the head
    problem, which the analysis tolerates.
    """
    mu = triple.B * kappa * instance.grid
    shift = kappa * sqrt_upper(ln_bound * triple.A)
    return instance.theta - mu + shift


def dominance_front(points: Sequence[tuple[Fraction, int]]) -> list[int]:
    """Positions, ascending, of the (tau, C) points on the dominance front.

    A point goes when another has tau' <= tau and C' <= C (so W' >= W);
    of equal points the first stays.
    """
    kept = []
    for i in sorted(range(len(points)), key=lambda i: points[i]):
        if not kept or points[i][1] < points[kept[-1]][1]:
            kept.append(i)
    return sorted(kept)


@lru_cache(maxsize=16)
def _skip_log_bound(eps_num: int, eps_den: int) -> Fraction:
    """ln_lower(200/eps), eps = eps_num/eps_den, for zero_tail_dominates (ints hash fast)."""
    return ln_lower(Fraction(200 * eps_den, eps_num))


def zero_tail_dominates(instance: ProblemInstance, L: int, kappa: Fraction) -> bool:
    """The closed-form test that no triple has tau < theta (module docstring).

    With p_i = u_i gn/gd (grid units), sum p_i^2 <= ln_n/ln_d is
    sum u_i^2 gn^2 ln_d <= ln_n gd^2, all integers, in any terms of eps/(4n) = gn/gd.
    """
    slots = live_slots(instance, L, kappa)
    gn, gd = instance.epsilon.numerator, 4 * instance.n * instance.epsilon.denominator
    bound = _skip_log_bound(gn, instance.epsilon.denominator)
    lhs = sum(u * u for u in instance.units[L : L + slots]) * gn**2 * bound.denominator
    return lhs <= bound.numerator * gd**2


def _complete(
    instance: ProblemInstance, L: int, kappa: Fraction, triple: TailTriple, tau: Fraction
) -> LargeCICandidate:
    budget = Fraction(kappa.denominator - triple.C * kappa.numerator, kappa.denominator)  # 1 - C kappa
    head = find_optimal_junta(JuntaRequest(instance.probs[:L], tau, budget))
    tail = [Fraction(0)] * live_slots(instance, L, kappa)
    for t, j in triple.path:
        tail[t - L - 1] = j * kappa
    return LargeCICandidate(triple, head, head.weights + tuple(tail), tau, budget)


def front_candidates(
    instance: ProblemInstance,
    L: int,
    kappa: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[LargeCICandidate]:
    """The DP path: the kept triples, then one candidate per front triple."""
    triples = construct_achievable_tails(instance, L, kappa, config)
    ln_bound = ln_upper(Fraction(200) / instance.epsilon)
    taus = [shifted_threshold(instance, t, kappa, ln_bound) for t in triples]
    front = dominance_front([(tau, t.C) for tau, t in zip(taus, triples)])
    return [_complete(instance, L, kappa, triples[i], taus[i]) for i in front]


def find_near_opt_large_ci(
    instance: ProblemInstance,
    L: int,
    kappa: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[LargeCICandidate]:
    """One candidate per triple on the (tau, W) dominance front (Case 2 pool).

    The first is the zero triple's, whose head answers the junta's request
    (probs[:L], theta, 1).  When zero_tail_dominates holds, it is the only
    one, built without the DP.
    """
    if not 1 <= L < instance.n:
        raise InputError("case 2 needs 1 <= L < n")
    kappa = to_fraction(kappa)
    if not 0 < kappa.numerator <= kappa.denominator:  # kappa in (0, 1], denominators positive
        raise InputError("kappa must lie in (0,1]")
    if zero_tail_dominates(instance, L, kappa):
        return [_complete(instance, L, kappa, TailTriple(0, 0, 0, ()), instance.theta)]
    return front_candidates(instance, L, kappa, config)
