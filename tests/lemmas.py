"""Checkers for the paper's structural lemmas; not on the solve path.

The scheme's case split rests on statements about optimal solutions, not
on steps the algorithm runs.  This module makes those statements
computable so they can be checked on concrete vectors:

  * tau-regularity (no weight dominates the l2 norm) and the critical
    index (the first suffix that is regular);
  * heavy-tail canonicalization: any feasible allocation can be rebuilt,
    through the Charnes-Cooper linearization of a linear-fractional
    program, into one that keeps every satisfying outcome, keeps the
    weight sum at 1, and is either supported on the first K coordinates
    or has tail mass at least (K+2)^(-(K+2)/2) of the head mass.

Nothing in the solver imports this module; the tests and the acceptance
suite call it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from storalloc.errors import GuardError, InputError
from storalloc.lp import LinearProgram, lp_solve
from storalloc.util import to_fraction

INFINITE_INDEX = math.inf


# ---------------------------------------------------------------------------
# Regularity and the critical index


@dataclass(frozen=True)
class RegularityReport:
    """Critical-index computation for one weight vector.

    sigma_sq[k] = sum_{i>=k} w_i^2 (0-based, exact); critical_index is
    1-based against the zero-stripped vector, math.inf when no suffix is
    regular; stripped counts the removed zero entries.
    """

    tau: Fraction
    sigma_sq: tuple[Fraction, ...]
    critical_index: float  # int-valued or math.inf
    stripped: int


def _validated_weights(w: Sequence) -> list[Fraction]:
    vec = [to_fraction(x) for x in w]
    if not vec:
        raise InputError("empty weight vector")
    return vec


def critical_index(w: Sequence, tau) -> RegularityReport:
    """Smallest i (1-based) with |w_i| <= tau * sigma_i, inf if none.

    Requires |w_1| >= ... >= |w_m| > 0 after stripping zero entries (zeros
    sort last by magnitude and are removed first; the count is reported).
    """
    tau = to_fraction(tau)
    vec = [abs(x) for x in _validated_weights(w)]
    stripped = sum(1 for x in vec if x == 0)
    vec = [x for x in vec if x != 0]
    if not vec:
        raise InputError("critical_index of an all-zero vector")
    for i in range(1, len(vec)):
        if vec[i] > vec[i - 1]:
            raise InputError("weights must be sorted by non-increasing magnitude")

    m = len(vec)
    sigma_sq = [Fraction(0)] * m
    acc = Fraction(0)
    for i in range(m - 1, -1, -1):
        acc += vec[i] * vec[i]
        sigma_sq[i] = acc

    c: float = INFINITE_INDEX
    tau_sq = tau * tau
    for i in range(m):
        if vec[i] * vec[i] <= tau_sq * sigma_sq[i]:
            c = i + 1
            break
    return RegularityReport(
        tau=tau, sigma_sq=tuple(sigma_sq), critical_index=c, stripped=stripped
    )


def is_regular(w: Sequence, tau) -> bool:
    """True iff max |w_i| <= tau * ||w||_2 (exact, via squares)."""
    tau = to_fraction(tau)
    vec = [abs(x) for x in _validated_weights(w)]
    norm_sq = sum(x * x for x in vec)
    if norm_sq == 0:
        raise InputError("is_regular of a zero vector")
    top = max(vec)
    return top * top <= tau * tau * norm_sq


# ---------------------------------------------------------------------------
# Constructive heavy-tail canonicalization


@dataclass(frozen=True)
class LfpVertexSolution:
    """Optimal vertex of the linearized program: (t*, s*, delta*)."""

    t_star: Fraction
    s_star: tuple[Fraction, ...]
    delta_star: Fraction


@dataclass(frozen=True)
class CanonicalizeResult:
    v: tuple[Fraction, ...]
    case: int  # 0: tail already zero; 1: junta vertex (t*=0); 2: heavy tail
    vertex: Optional[LfpVertexSolution]


def _tail_sums(tail: Sequence[Fraction]) -> list[Fraction]:
    sums = {Fraction(0)}
    for w in tail:
        sums |= {s + w for s in sums}
    return sorted(sums)


def canonicalize_tail(
    w: Sequence,
    K: int,
    theta,
    members: Optional[Sequence[Sequence[int]]] = None,
    max_half_bits: int = 20,
) -> CanonicalizeResult:
    """Rebuild w into an equally-good allocation with a junta-or-heavy tail.

    Preserves S = {x : w.x >= theta} pointwise (so the objective can only
    improve), keeps the weight sum at 1 and the sorting, and guarantees
    either a zero tail beyond K or head mass <= (K+2)^((K+2)/2) times the
    tail mass.  ``members`` may supply S explicitly; otherwise it is derived
    from subset sums (needs 2^K and 2^(n-K) within reach).
    """
    w = [to_fraction(x) for x in w]
    n = len(w)
    theta = to_fraction(theta)
    if not 0 < theta < 1:
        raise InputError("canonicalize_tail needs 0 < theta < 1")
    if not 1 <= K <= n:
        raise InputError(f"K={K} outside [1, n]")
    if any(x < 0 for x in w) or any(w[i] < w[i + 1] for i in range(n - 1)):
        raise InputError("weights must be sorted non-increasing and non-negative")
    if sum(w) != 1:
        raise InputError("weights must sum to exactly 1")

    tail = w[K:]
    W_T = sum(tail, Fraction(0))
    if W_T == 0:
        return CanonicalizeResult(v=tuple(w), case=0, vertex=None)

    head = w[:K]
    # Constraint rows of (i) depend only on (head bits, tail dot); with
    # t >= 0 only the smallest tail dot per head pattern binds.
    binding: dict[tuple[int, ...], Fraction] = {}
    if members is not None:
        for x in members:
            x = tuple(int(b) for b in x)
            if len(x) != n:
                raise InputError("member length mismatch")
            hd = x[:K]
            td = sum((wi for wi, b in zip(tail, x[K:]) if b), Fraction(0))
            if hd not in binding or td < binding[hd]:
                binding[hd] = td
    else:
        if K > max_half_bits or n - K > max_half_bits:
            raise GuardError(
                f"set enumeration needs 2^{K} and 2^{n - K} patterns",
                estimate=max(K, n - K),
                limit=max_half_bits,
            )
        sums = _tail_sums(tail)
        for hmask in range(1 << K):
            hd = tuple((hmask >> j) & 1 for j in range(K))
            hdot = sum((hw for hw, b in zip(head, hd) if b), Fraction(0))
            need = theta - hdot
            if need <= 0:
                binding[hd] = Fraction(0)
            else:
                i = bisect.bisect_left(sums, need)
                if i < len(sums):
                    binding[hd] = sums[i]

    # Charnes-Cooper linearization; variables t, s_1..s_K, delta, all >= 0
    # (delta >= 0 and s_i >= 0 are redundant at the optimum but keep the
    # program in non-negative form so the solution is a true vertex).
    nv = K + 2
    T, DELTA = 0, K + 1
    cons = []
    for hd, td in sorted(binding.items()):
        row = [Fraction(0)] * nv
        row[T] = td
        for i, b in enumerate(hd):
            if b:
                row[1 + i] = Fraction(1)
        row[DELTA] = Fraction(-1)
        cons.append((row, ">=", Fraction(0)))
    for i in range(K - 1):
        row = [Fraction(0)] * nv
        row[1 + i] = Fraction(1)
        row[2 + i] = Fraction(-1)
        cons.append((row, ">=", Fraction(0)))
    row = [Fraction(0)] * nv
    row[1 + K - 1] = Fraction(1)
    row[T] = -w[K]
    cons.append((row, ">=", Fraction(0)))
    row = [Fraction(0)] * nv
    row[T] = W_T
    for i in range(K):
        row[1 + i] = Fraction(1)
    cons.append((row, "=", Fraction(1)))

    objective = [Fraction(0)] * nv
    objective[DELTA] = Fraction(1)
    result = lp_solve(LinearProgram(nv, cons, (objective, "max")))
    if result.status != "optimal":
        raise AssertionError(f"canonicalization LP {result.status}; should never happen")
    t_star = result.x[T]
    s_star = result.x[1 : 1 + K]
    delta_star = result.x[DELTA]
    if delta_star < theta:
        raise AssertionError("LP optimum below theta; (w, theta) was feasible for it")
    vertex = LfpVertexSolution(t_star=t_star, s_star=tuple(s_star), delta_star=delta_star)

    if t_star == 0:
        v = tuple(s_star) + (Fraction(0),) * (n - K)
        return CanonicalizeResult(v=v, case=1, vertex=vertex)
    v = tuple(s_star) + tuple(t_star * wi for wi in tail)
    return CanonicalizeResult(v=v, case=2, vertex=vertex)
