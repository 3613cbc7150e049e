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

Degenerate thresholds (theta in {0,1}), near-certain nodes
(max p >= 1 - eps) and grids too coarse for A2 (eps/(4n) >= 1 - eps)
short-circuit to closed-form solutions before any rounding happens.

Preprocessing runs on integers: each p enters once as its exact ratio a/b
(util.to_ratio), is sorted on a (M // b), M the lcm of the denominators,
and rounded to grid units u = max(a gd // (b gn), 1), grid gn/gd = eps/(4n)
(ProblemInstance.units, which the tail DPs and the Case-2 skip test read).
ProblemInstance checks A1 and A2 on the units and builds each rounded p's
Fraction once.  gamma (from the units) and the head cutoff L of Eq. (1)
follow.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import InputError
from .util import Record, half_power_ceil, to_fraction, to_int, to_ratio

logger = logging.getLogger(__name__)

_ZERO, _ONE = Fraction(0), Fraction(1)

# The largest head L: the committed margin table (junta module docstring)
# holds the upward-closed families of {0,1}^k for k = 1..MAX_K.
MAX_K = 5


class SolverConfig(Record):
    """Solver-wide knobs, including the constants the analysis hides in Theta(.).

    mode="theory" uses the paper-faithful L and kappa formulas (astronomical
    for all but degenerate-tiny instances); mode="practical" allows capping L
    and overriding kappa, and theory mode refuses both.  state_space_limit
    caps Case 2's tail DP, checked on large_ci.tail_state_bound before any
    state.  Case 3 runs no DP and refuses at every limit where a regular
    tail fits (driver.case3_verdict); the limit is only reported in that
    refusal.  A report's "config" echoes every field in
    ``__slots__`` order, so a knob is defined here alone.  Integer knobs are
    ints: numpy ints convert; bools, floats and strings are refused.
    """

    __slots__ = ("mode", "c_L", "kappa_override", "L_cap", "mc_constant", "seed", "state_space_limit")

    def __init__(
        self,
        mode: str = "theory",
        c_L: Fraction = Fraction(1),
        kappa_override: Optional[Fraction] = None,
        L_cap: Optional[int] = None,
        mc_constant: Fraction = Fraction(1),
        seed: int = 0,
        state_space_limit: int = 5_000_000,
    ):
        if mode not in ("theory", "practical"):
            raise InputError(f"unknown mode {mode!r}")
        if L_cap is not None:
            L_cap = to_int(L_cap, "L_cap")
        seed = to_int(seed, "seed")
        state_space_limit = to_int(state_space_limit, "state_space_limit")
        c_L = to_fraction(c_L)
        mc_constant = to_fraction(mc_constant)
        if kappa_override is not None:
            kappa_override = to_fraction(kappa_override)
        if c_L <= 0 or mc_constant <= 0:
            raise InputError("c_L and mc_constant must be positive")
        if kappa_override is not None and not 0 < kappa_override <= 1:
            raise InputError(f"kappa_override must lie in (0, 1]; got {kappa_override}")
        if L_cap is not None and not 1 <= L_cap <= MAX_K:
            raise InputError(
                f"L_cap (--l-cap) must lie in [1, {MAX_K}], the head sizes "
                f"the committed margin table covers; got {L_cap}"
            )
        if state_space_limit < 1:
            raise InputError("state_space_limit must be positive")
        if mode == "theory" and (kappa_override is not None or L_cap is not None):
            raise InputError("theory mode forbids kappa_override and L_cap")
        values = (mode, c_L, kappa_override, L_cap, mc_constant, seed, state_space_limit)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


class ProblemInstance(Record):
    """A preprocessed instance: sorted, granular probabilities plus parameters.

    ``permutation[i]`` is the original index of sorted slot i.  The rational
    fields convert through util.to_ratio, as SolverConfig's do; A1 and A2
    are checked on the integer grid units, and ``probs`` is built from them.
    """

    # units: probs[i] / grid, the integer grid units of A2; not a field, so
    # left out of equality, hash and repr.  __dict__ holds the cached properties.
    __slots__ = ("probs", "theta", "epsilon", "delta", "permutation", "units", "__dict__")
    _fields = __slots__[:5]

    def __init__(
        self,
        probs: tuple[Fraction, ...],
        theta: Fraction,
        epsilon: Fraction,
        delta: Fraction,
        permutation: tuple[int, ...],
    ):
        given = (*probs, epsilon)  # as given, for the grid refusal
        ratios = [to_ratio(p) for p in given[:-1]]
        theta, epsilon, delta = to_fraction(theta), to_fraction(epsilon), to_fraction(delta)
        if not ratios:
            raise InputError("empty probability vector")
        if not 0 < theta.numerator < theta.denominator:  # denominators are positive
            raise InputError("instance requires 0 < theta < 1")
        if not 0 < epsilon.numerator < epsilon.denominator or not 0 < delta.numerator < delta.denominator:
            raise InputError("epsilon and delta must lie in (0,1)")
        # p = a/b is k units of grid = gn/gd iff b gn divides a gd; _set refuses k = 0
        gn, gd = epsilon.numerator, 4 * len(ratios) * epsilon.denominator
        units = [0 if rem else k for k, rem in (divmod(a * gd, b * gn) for a, b in ratios)]
        self._set(units, theta, epsilon, delta, permutation, given)

    def _set(self, units, theta, epsilon, delta, permutation, given=()) -> None:
        """Check A1, A2 and the permutation on the grid units, then write the fields."""
        n = len(units)
        gn, gd = epsilon.numerator, 4 * n * epsilon.denominator
        previous = units[0]
        for i, k in enumerate(units):
            if k <= 0:
                p, floats = to_fraction(given[i]), any(isinstance(q, float) for q in given)
                hint = '; floats convert exactly, so pass "a/b" strings or use preprocess' if floats else ""
                raise InputError(f"p[{i}]={p} is not a positive multiple of eps/(4n)={Fraction(gn, gd)}{hint}")
            if k > previous:
                raise InputError("probabilities must be sorted non-increasing (A1)")
            previous = k
        if units[0] * gn >= gd - 4 * n * gn:  # p_1 >= 1 - eps, as (gd - 4n gn)/gd = 1 - eps
            raise InputError("p_1 must be < 1 - eps (A2); preprocessing handles the shortcut")
        if sorted(permutation) != list(range(n)):
            raise InputError("permutation must be a permutation of range(n)")
        probs = tuple([Fraction(k * gn, gd) for k in units])
        for name, value in zip(self.__slots__, (probs, theta, epsilon, delta, permutation, tuple(units))):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.units)

    @cached_property
    def grid(self) -> Fraction:
        return Fraction(self.epsilon.numerator, 4 * self.n * self.epsilon.denominator)

    @cached_property
    def gamma(self) -> Fraction:
        return compute_gamma(self)

    def to_original_order(self, weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Map a sorted-order weight vector, or a prefix of one, to the caller's order (zeros past it)."""
        out = [_ZERO] * self.n
        for slot, w in zip(self.permutation, weights):
            out[slot] = w
        return tuple(out)


class TrivialSolution(Record):
    """Closed-form answer produced by preprocessing, in original index order."""

    __slots__ = ("weights", "objective", "reason", "eps_optimal")

    def __init__(
        self,
        weights: tuple[Fraction, ...],
        objective: Fraction,
        reason: str,  # "theta_zero" | "theta_one" | "high_prob_shortcut" | "below_grid_shortcut"
        eps_optimal: bool,
    ):
        for name, value in zip(self.__slots__, (weights, objective, reason, eps_optimal)):
            object.__setattr__(self, name, value)


class PreprocessResult(Record):
    __slots__ = ("instance", "shortcut")

    def __init__(self, instance: Optional[ProblemInstance] = None, shortcut: Optional[TrivialSolution] = None):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "shortcut", shortcut)

    @property
    def is_trivial(self) -> bool:
        return self.shortcut is not None


def _grid_units(ratios, gn: int, gd: int) -> list[int]:
    """floor(p / grid), clamped up to 1, for each p = a/b >= 0 and grid = gn/gd: (a gd) // (b gn) or 1."""
    return [a * gd // (b * gn) or 1 for a, b in ratios]


def preprocess(p_raw: Sequence, theta, epsilon, delta) -> PreprocessResult:
    """Validate, sort, and round an instance; or return a trivial solution.

    On integer ratios (module docstring), with the instance format's float rule.

    Shortcuts: theta=0 (any unit vector wins with probability 1), theta=1
    (all weight on the most reliable node), max p >= 1-eps (unit weight
    on the most reliable node is eps-optimal, per A2's first claim), and
    eps/(4n) >= 1-eps ("below_grid_shortcut": then every p < 1-eps lies
    below one grid unit, and as theta > 0 needs a surviving node,
    opt <= sum p_i < eps/4, so the same unit weight is eps-optimal).
    """
    if len(p_raw) == 0:
        raise InputError("empty probability vector")
    theta = to_fraction(theta, limit_denominator=True)
    epsilon = to_fraction(epsilon, limit_denominator=True)
    delta = to_fraction(delta, limit_denominator=True)
    if not 0 <= theta.numerator <= theta.denominator:  # a/b in [0, 1] iff 0 <= a <= b
        raise InputError(f"theta={theta} outside [0,1]")
    if not 0 < epsilon.numerator < epsilon.denominator:
        raise InputError(f"epsilon={epsilon} outside (0,1)")
    if not 0 < delta.numerator < delta.denominator:
        raise InputError(f"delta={delta} outside (0,1)")

    ratios = [to_ratio(p, limit_denominator=True) for p in p_raw]
    for i, (a, b) in enumerate(ratios):
        if not 0 <= a <= b:
            raise InputError(f"p[{i}]={Fraction(a, b)} outside [0,1]")

    n = len(ratios)
    # A1: descending p, sorted on the integers M p (M the lcm of the denominators);
    # reverse=True keeps the sort stable, so equal probabilities stay in index
    # order, as with the key (-p, i), and order[0] is the first most probable node.
    M = math.lcm(*(b for _, b in ratios))
    order = sorted(range(n), key=[a * (M // b) for a, b in ratios].__getitem__, reverse=True)
    best = order[0]

    def unit(index: int, objective: Fraction, reason: str, eps_optimal: bool) -> PreprocessResult:
        weights = (_ZERO,) * index + (_ONE,) + (_ZERO,) * (n - 1 - index)
        return PreprocessResult(shortcut=TrivialSolution(weights, objective, reason, eps_optimal))

    if theta.numerator == 0:
        return unit(0, _ONE, "theta_zero", False)
    a, b = ratios[best]
    if theta.numerator == theta.denominator:
        # w.X >= 1 with ||w||_1 <= 1 forces all weight on one surviving node.
        return unit(best, Fraction(a, b), "theta_one", False)
    e_n, e_d = epsilon.numerator, epsilon.denominator  # p = a/b >= 1 - eps iff a e_d >= (e_d - e_n) b
    if a * e_d >= (e_d - e_n) * b:
        return unit(best, Fraction(a, b), "high_prob_shortcut", True)
    # eps/(4n) >= 1 - eps as e_n >= 4n (e_d - e_n): every p is now below one
    # grid unit, and the clamp would lift p_1 to 1 - eps or more (A2)
    if e_n >= 4 * n * (e_d - e_n):
        return unit(best, Fraction(a, b), "below_grid_shortcut", True)

    instance = ProblemInstance.__new__(ProblemInstance)  # __init__ less what was converted and checked above
    units = _grid_units(ratios, e_n, 4 * n * e_d)
    instance._set(list(map(units.__getitem__, order)), theta, epsilon, delta, tuple(order))
    return PreprocessResult(instance=instance)


def compute_gamma(instance: ProblemInstance) -> Fraction:
    """gamma = min(p_n, 1 - p_1): distance of the instance from {0,1}, on the
    grid units: p_i = u_i gn/gd and 1 - p_1 = (gd - u_1 gn)/gd."""
    gn, gd = instance.epsilon.numerator, 4 * instance.n * instance.epsilon.denominator
    return Fraction(min(instance.units[-1] * gn, gd - instance.units[0] * gn), gd)


def L_formula(epsilon: Fraction, gamma: Fraction, c_L: Fraction = Fraction(1)) -> int:
    """ceil(c_L / (eps^2 gamma^3) * ln(1/(eps gamma)) * ln(1/eps)), natural logs, in floats;
    where a float leaves its range, on the exact prefactor and logs of integers."""
    try:  # a / b is float(a/b), correctly rounded, without Fraction.__float__
        eps = epsilon.numerator / epsilon.denominator
        gam = gamma.numerator / gamma.denominator
        raw = c_L.numerator / c_L.denominator / (eps * eps * gam * gam) / gam
        raw *= math.log(1.0 / (eps * gam)) * math.log(1.0 / eps)
        return max(1, math.ceil(raw))
    except (OverflowError, ZeroDivisionError):
        (e, f), (g, h) = epsilon.as_integer_ratio(), gamma.as_integer_ratio()
        logs = (math.log(f * h) - math.log(e * g)) * (math.log(f) - math.log(e))
        return max(1, math.ceil(c_L / (epsilon**2 * gamma**3) * Fraction(logs)))


def theory_kappa_case2(n: int, L: int) -> Fraction:
    """kappa = 1/(n^2 ((L+2)^((L+2)/2) + 1)), the half power rounded up."""
    return Fraction(1, n * n * (half_power_ceil(L + 2, L + 2) + 1))


def theory_kappa_case3(n: int, L: int, epsilon: Fraction, gamma: Fraction) -> Fraction:
    """kappa = eps gamma^2 / (200 ((L+2)^((L+2)/2)+1)^2 n^3)."""
    big = half_power_ceil(L + 2, L + 2) + 1
    return epsilon * gamma * gamma / (200 * big * big * n**3)


def compute_L(instance: ProblemInstance, config: SolverConfig) -> int:
    """The head-size cutoff, Eq. (1), with c_L absorbing the Theta constant,
    capped at L_cap when set (practical mode alone allows it); the uncapped
    value is logged.
    """
    uncapped = L_formula(instance.epsilon, instance.gamma, config.c_L)
    L = min(instance.n, uncapped)
    logger.info("L cutoff: formula value %d, after min with n: %d", uncapped, L)
    if config.L_cap is not None:
        L = min(L, config.L_cap)
    return L


def compute_kappas(instance: ProblemInstance, L: int, config: SolverConfig) -> tuple[Optional[Fraction], Fraction]:
    """The tail granularities (kappa_case2, kappa_case3) at head cutoff L:
    kappa_override for both when set (practical mode alone allows it), else
    the theory formulas.  kappa_case2 is None at L = n, where no tail is
    left for Case 2."""
    if config.kappa_override is not None:
        kappa2 = kappa3 = config.kappa_override
    else:
        kappa2 = theory_kappa_case2(instance.n, L)
        kappa3 = theory_kappa_case3(instance.n, L, instance.epsilon, instance.gamma)
    return (kappa2 if L < instance.n else None), kappa3
