"""Case 2: the optimum has critical index beyond the head cutoff L.

The tail of a near-optimal solution can then be assumed kappa-granular and
sharply concentrated, so only three integer statistics of the tail matter:

    A = sum w_i^2 / kappa^2          (concentration radius)
    B = sum w_i p_i / (kappa eps/4n) (mean, integral by granularity A2)
    C = sum w_i / kappa              (weight spent)

A reachability DP over tail slots lists every achievable (A,B,C) with one
witness tail each.  A triple T asks the junta solver to complete the head
against the shifted threshold and budget

    tau_T = theta - mu + s,  mu = B kappa (eps/4n),  s = kappa sqrt(ln(200/eps) A)
    W_T   = 1 - C kappa.

If the optimum really is of this type, one of the assembled candidates is
within eps/2 of it.

Only the (tau, W) dominance front is completed.  Head and tail are
independent and Hoeffding gives Pr[tail < mu - s] <= (eps/200)^2, so T's
candidate is worth at least headval(tau_T, W_T) (1 - (eps/200)^2), where
headval is the junta optimum.  headval cannot rise as tau rises nor fall
as W rises, so a triple with tau' <= tau_T and W' >= W_T keeps T's
guarantee and T can go.  The front keeps tau ascending and W strictly
rising (ties keep the first triple in (A,B,C) order) and is emitted in
(A,B,C) order.  The zero triple has tau = theta and W = 1, the junta's own
request, so it is always on the front and drops every triple with
tau >= theta.

The front is the zero triple alone unless some triple has mu > s.  By
Cauchy-Schwarz mu <= sqrt(sum w^2) sqrt(sum_support p^2), while
s >= sqrt(ln(200/eps) sum w^2).  A tail has at most min(n - L,
floor(1/kappa)) non-zero slots and the tail p's are non-increasing, so

    sum_{i=L+1}^{L+min(n-L, floor(1/kappa))} p_i^2 <= ln(200/eps)

rules such triples out.  zero_tail_dominates evaluates it exactly against
a rational lower bound on the log, and then Case 2 runs no DP at all.
With p_1 < 1 - eps it holds at every kappa >= 1/9.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import ProblemInstance, SolverConfig
from .errors import GuardError, InputError
from .junta import JuntaRequest, JuntaResult, find_optimal_junta
from .util import half_power_ceil, ln_lower, ln_upper, sqrt_upper, to_fraction


@dataclass(frozen=True)
class TailTriple:
    A: int
    B: int
    C: int
    kappa: Fraction
    witness: tuple[Fraction, ...]


def theory_kappa_case2(n: int, L: int) -> Fraction:
    """kappa = 1/(n^2 ((L+2)^((L+2)/2) + 1)), the half power rounded up."""
    return Fraction(1, n * n * (half_power_ceil(L + 2, L + 2) + 1))


def _state_space_estimate(n_slots: int, kappa: Fraction, instance: ProblemInstance) -> int:
    """Cheap upper bound on DP cells: min(granular tails, conceivable triples)."""
    jmax = int(1 / kappa)
    tails = (jmax + 1) ** n_slots
    a_max = jmax * jmax
    c_max = jmax
    b_max = int(4 * instance.n / (kappa * instance.epsilon)) + 1
    return min(tails, (a_max + 1) * (b_max + 1) * (c_max + 1))


def case2_kappa(instance: ProblemInstance, L: int, config: SolverConfig) -> Fraction:
    """Tail granularity for Case 2; practical mode may override it."""
    if config.mode == "practical" and config.kappa_override is not None:
        return config.kappa_override
    return theory_kappa_case2(instance.n, L)


def _tail_dp(
    probs: tuple[Fraction, ...],
    start_slot: int,
    kappa: Fraction,
    instance: ProblemInstance,
    config: SolverConfig,
    extend,
    zero_state,
):
    """Layered reachability over slots start_slot..n (1-based).

    ``extend(state, j, m_t)`` returns the successor after spending j kappa
    units on slot t with granular probability multiplier m_t.  States map
    to (slot, predecessor, j) for witness reconstruction; determinism comes
    from sorted snapshots and ascending j.  Refuses with the state-space
    estimate, before any work, when it exceeds config.state_space_limit.
    """
    estimate = _state_space_estimate(instance.n - start_slot + 1, kappa, instance)
    if estimate > config.state_space_limit:
        raise GuardError(
            f"tail DP needs ~{estimate} cells (limit {config.state_space_limit}); "
            f"use practical mode with a coarser --kappa or raise --state-space-limit",
            estimate=estimate,
            limit=config.state_space_limit,
        )
    grid = instance.grid
    jmax = int(1 / kappa)
    states: dict = {zero_state: (None, None, 0)}
    for t in range(start_slot, instance.n + 1):
        m_t = probs[t - 1] / grid
        if m_t.denominator != 1:
            raise InputError("probabilities are not eps/(4n)-granular (A2)")
        m_t = int(m_t)
        snapshot = sorted(states)
        for state in snapshot:
            budget_used = state[2]  # C component, third slot by convention
            for j in range(1, jmax - budget_used + 1):
                nxt = extend(state, j, m_t)
                if nxt not in states:
                    states[nxt] = (t, state, j)
                    if len(states) > config.state_space_limit:
                        raise GuardError(
                            f"tail DP exceeded {config.state_space_limit} states",
                            estimate=len(states),
                            limit=config.state_space_limit,
                        )
    return states


def _witness(states: dict, state, start_slot: int, n: int, kappa: Fraction) -> tuple[Fraction, ...]:
    tail = [Fraction(0)] * (n - start_slot + 1)
    cur = state
    while True:
        t, prev, j = states[cur]
        if t is None:
            break
        tail[t - start_slot] = j * kappa
        cur = prev
    return tuple(tail)


def construct_achievable_tails(
    instance: ProblemInstance,
    L: int,
    kappa: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[TailTriple]:
    """Every achievable (A,B,C) triple over slots L+1..n, with one witness.

    L = n yields exactly the zero-tail triple (0,0,0).
    """
    config = config or SolverConfig()
    kappa = to_fraction(kappa)
    if not 0 < kappa <= 1:
        raise InputError("kappa must lie in (0,1]")
    if not 0 <= L <= instance.n:
        raise InputError(f"L={L} outside [0, n]")

    def extend(state, j, m_t):
        a, b, c = state
        return (a + j * j, b + j * m_t, c + j)

    states = _tail_dp(instance.probs, L + 1, kappa, instance, config, extend, (0, 0, 0))
    out = []
    for state in sorted(states):
        a, b, c = state
        out.append(
            TailTriple(
                A=a,
                B=b,
                C=c,
                kappa=kappa,
                witness=_witness(states, state, L + 1, instance.n, kappa),
            )
        )
    return out


@dataclass(frozen=True)
class LargeCICandidate:
    triple: TailTriple
    head: JuntaResult
    weights: tuple[Fraction, ...]  # full n-vector, sorted-instance order
    shifted_threshold: Fraction
    head_budget: Fraction


def shifted_threshold(instance: ProblemInstance, triple: TailTriple, ln_bound: Fraction) -> Fraction:
    """theta - B kappa eps/(4n) + kappa sqrt(ln_bound A), rounded up.

    ``ln_bound`` is ln_upper(200/eps), computed once per Case-2 call.  The
    upward rounding of the irrational shift only tightens the head
    problem, which the analysis tolerates.
    """
    kappa = triple.kappa
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


def zero_tail_dominates(instance: ProblemInstance, L: int, kappa: Fraction) -> bool:
    """The closed-form test that no triple has tau < theta (module docstring)."""
    slots = min(instance.n - L, int(1 / kappa))
    top = instance.probs[L : L + slots]
    return sum((p * p for p in top), Fraction(0)) <= ln_lower(Fraction(200) / instance.epsilon)


def _complete(instance: ProblemInstance, L: int, triple: TailTriple, tau: Fraction) -> LargeCICandidate:
    budget = 1 - triple.C * triple.kappa
    head = find_optimal_junta(JuntaRequest(instance.probs[:L], tau, budget))
    return LargeCICandidate(
        triple=triple,
        head=head,
        weights=head.weights + triple.witness,
        shifted_threshold=tau,
        head_budget=budget,
    )


def front_candidates(
    instance: ProblemInstance,
    L: int,
    kappa: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[LargeCICandidate]:
    """The DP path: every achievable triple, then one candidate per front triple."""
    triples = construct_achievable_tails(instance, L, kappa, config)
    ln_bound = ln_upper(Fraction(200) / instance.epsilon)
    taus = [shifted_threshold(instance, t, ln_bound) for t in triples]
    front = dominance_front([(tau, t.C) for tau, t in zip(taus, triples)])
    return [_complete(instance, L, triples[i], taus[i]) for i in front]


def find_near_opt_large_ci(
    instance: ProblemInstance,
    L: int,
    kappa: Fraction,
    config: Optional[SolverConfig] = None,
) -> list[LargeCICandidate]:
    """One candidate per triple on the (tau, W) dominance front (Case 2 pool).

    When zero_tail_dominates holds, that is the zero triple's candidate
    alone, built without the DP.
    """
    if not 1 <= L < instance.n:
        raise InputError("case 2 needs 1 <= L < n")
    kappa = to_fraction(kappa)
    if not 0 < kappa <= 1:
        raise InputError("kappa must lie in (0,1]")
    if zero_tail_dominates(instance, L, kappa):
        zero = TailTriple(A=0, B=0, C=0, kappa=kappa, witness=(Fraction(0),) * (instance.n - L))
        return [_complete(instance, L, zero, instance.theta)]
    return front_candidates(instance, L, kappa, config)
