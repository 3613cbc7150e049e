"""Problem representation and preprocessing.

The storage-allocation problem: given node survival probabilities
p_1 >= ... >= p_n and a recovery threshold theta, maximize
Pr[w . X >= theta] over w >= 0 with ||w||_1 <= 1, where X_i ~ Bernoulli(p_i)
independently.

Preprocessing establishes the two standing assumptions:

  A1:  probabilities sorted in non-increasing order (a stored permutation
       maps solutions back to the caller's index order);
  A2:  p_1 < 1 - eps and every p_i a positive integer multiple of the grid
       eps/(4n) (rounding moves any event probability by at most eps/4,
       by coupling).

Degenerate thresholds (theta in {0,1}) and near-certain nodes
(max p >= 1 - eps) short-circuit to closed-form solutions before any
rounding happens.

It also derives the quantities every case solver reads: gamma (the
instance's distance from {0,1}) and the head-size cutoff L of Eq. (1).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError
from .halfspaces import MAX_K
from .util import to_fraction

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Solver-wide knobs, including the constants the analysis hides in Theta(.).

    mode="theory" uses the paper-faithful L and kappa formulas (astronomical
    for all but degenerate-tiny instances); mode="practical" allows capping L
    and overriding kappa.
    """

    mode: str = "theory"
    c_L: Fraction = Fraction(1)
    kappa_override: Optional[Fraction] = None
    L_cap: Optional[int] = None
    mc_constant: Fraction = Fraction(1)
    seed: int = 0
    exact_eval_max_n: int = 22
    state_space_limit: int = 5_000_000

    def __post_init__(self):
        if self.mode not in ("theory", "practical"):
            raise InputError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "c_L", to_fraction(self.c_L))
        object.__setattr__(self, "mc_constant", to_fraction(self.mc_constant))
        if self.kappa_override is not None:
            object.__setattr__(self, "kappa_override", to_fraction(self.kappa_override))
        if self.c_L <= 0 or self.mc_constant <= 0:
            raise InputError("c_L and mc_constant must be positive")
        if self.kappa_override is not None and not 0 < self.kappa_override <= 1:
            raise InputError(f"kappa_override must lie in (0, 1]; got {self.kappa_override}")
        if self.L_cap is not None and not 1 <= self.L_cap <= MAX_K:
            raise InputError(
                f"L_cap (--l-cap) must lie in [1, {MAX_K}], the head sizes "
                f"halfspace enumeration covers; got {self.L_cap}"
            )
        if self.state_space_limit < 1 or self.exact_eval_max_n < 1:
            raise InputError("limits must be positive")
        if self.mode == "theory" and (self.kappa_override is not None or self.L_cap is not None):
            raise InputError("theory mode forbids kappa_override and L_cap")


@dataclass(frozen=True)
class ProblemInstance:
    """A preprocessed instance: sorted, granular probabilities plus parameters.

    ``permutation[i]`` is the original index of sorted slot i.
    """

    probs: tuple[Fraction, ...]
    theta: Fraction
    epsilon: Fraction
    delta: Fraction
    permutation: tuple[int, ...]

    def __post_init__(self):
        n = len(self.probs)
        if n == 0:
            raise InputError("empty probability vector")
        if not 0 < self.theta < 1:
            raise InputError("instance requires 0 < theta < 1")
        if not 0 < self.epsilon < 1 or not 0 < self.delta < 1:
            raise InputError("epsilon and delta must lie in (0,1)")
        grid = self.grid
        for i, p in enumerate(self.probs):
            if p <= 0 or (p / grid).denominator != 1:
                raise InputError(f"p[{i}]={p} is not a positive multiple of eps/(4n)={grid}")
            if i and p > self.probs[i - 1]:
                raise InputError("probabilities must be sorted non-increasing (A1)")
        if self.probs[0] >= 1 - self.epsilon:
            raise InputError("p_1 must be < 1 - eps (A2); preprocessing handles the shortcut")
        if sorted(self.permutation) != list(range(n)):
            raise InputError("permutation must be a permutation of range(n)")

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def grid(self) -> Fraction:
        return self.epsilon / (4 * self.n)

    @property
    def gamma(self) -> Fraction:
        return compute_gamma(self)

    def to_original_order(self, weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Map a sorted-order weight vector back to the caller's index order."""
        out = [Fraction(0)] * self.n
        for slot, w in enumerate(weights):
            out[self.permutation[slot]] = Fraction(w)
        return tuple(out)


@dataclass(frozen=True)
class TrivialSolution:
    """Closed-form answer produced by preprocessing, in original index order."""

    weights: tuple[Fraction, ...]
    objective: Fraction
    reason: str  # "theta_zero" | "theta_one" | "high_prob_shortcut"
    eps_optimal: bool


@dataclass(frozen=True)
class PreprocessResult:
    instance: Optional[ProblemInstance] = None
    shortcut: Optional[TrivialSolution] = None

    @property
    def is_trivial(self) -> bool:
        return self.shortcut is not None


def round_to_grid(p: Fraction, grid: Fraction) -> Fraction:
    """Round down to the grid; values landing at 0 are clamped up one unit."""
    k = p / grid
    floored = k.numerator // k.denominator
    return grid * max(floored, 1)


def preprocess(p_raw: Sequence, theta, epsilon, delta) -> PreprocessResult:
    """Validate, sort, and round an instance; or return a trivial solution.

    Shortcuts: theta=0 (any unit vector wins with probability 1), theta=1
    (all weight on the most reliable node), and max p >= 1-eps (unit weight
    on the most reliable node is eps-optimal, per A2's first claim).
    """
    if len(p_raw) == 0:
        raise InputError("empty probability vector")
    theta = to_fraction(theta, limit_denominator=True)
    epsilon = to_fraction(epsilon, limit_denominator=True)
    delta = to_fraction(delta, limit_denominator=True)
    if not 0 <= theta <= 1:
        raise InputError(f"theta={theta} outside [0,1]")
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon={epsilon} outside (0,1)")
    if not 0 < delta < 1:
        raise InputError(f"delta={delta} outside (0,1)")

    probs = [to_fraction(p, limit_denominator=True) for p in p_raw]
    for i, p in enumerate(probs):
        if not 0 <= p <= 1:
            raise InputError(f"p[{i}]={p} outside [0,1]")

    n = len(probs)
    best = max(range(n), key=lambda i: (probs[i], -i))

    def unit(index: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) if i == index else Fraction(0) for i in range(n))

    if theta == 0:
        return PreprocessResult(shortcut=TrivialSolution(unit(0), Fraction(1), "theta_zero", False))
    if theta == 1:
        # w.X >= 1 with ||w||_1 <= 1 forces all weight on one surviving node.
        return PreprocessResult(
            shortcut=TrivialSolution(unit(best), probs[best], "theta_one", False)
        )
    if probs[best] >= 1 - epsilon:
        return PreprocessResult(
            shortcut=TrivialSolution(unit(best), probs[best], "high_prob_shortcut", True)
        )

    # A1: stable sort, descending probability.
    order = sorted(range(n), key=lambda i: (-probs[i], i))
    grid = epsilon / (4 * n)
    rounded = tuple(round_to_grid(probs[i], grid) for i in order)
    instance = ProblemInstance(
        probs=rounded,
        theta=theta,
        epsilon=epsilon,
        delta=delta,
        permutation=tuple(order),
    )
    return PreprocessResult(instance=instance)


def compute_gamma(instance: ProblemInstance) -> Fraction:
    """gamma = min(p_n, 1 - p_1): distance of the instance from {0,1}."""
    return min(instance.probs[-1], 1 - instance.probs[0])


def L_formula(epsilon: Fraction, gamma: Fraction, c_L: Fraction = Fraction(1)) -> int:
    """ceil(c_L / (eps^2 gamma^3) * ln(1/(eps gamma)) * ln(1/eps)), natural logs."""
    eps = float(epsilon)
    gam = float(gamma)
    raw = float(c_L) / (eps * eps * gam * gam) / gam
    raw *= math.log(1.0 / (eps * gam)) * math.log(1.0 / eps)
    return max(1, math.ceil(raw))


def compute_L(instance: ProblemInstance, config: SolverConfig) -> int:
    """The head-size cutoff, Eq. (1), with c_L absorbing the Theta constant.

    Practical mode additionally caps at L_cap; the uncapped value is logged.
    """
    uncapped = L_formula(instance.epsilon, instance.gamma, config.c_L)
    L = min(instance.n, uncapped)
    logger.info("L cutoff: formula value %d, after min with n: %d", uncapped, L)
    if config.mode == "practical" and config.L_cap is not None:
        L = min(L, config.L_cap)
    return L
