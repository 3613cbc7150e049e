"""Small shared helpers: rational conversions, directed rounding, RNG derivation.

Everything that needs to stay exact is a Fraction; the only deliberate float
crossings are the logarithms (bounded above explicitly) and reporting.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InputError

# Floats from instance files are snapped to rationals with denominators
# bounded by this before any exact arithmetic happens.
FLOAT_DENOMINATOR_LIMIT = 10**6


def to_fraction(value, limit_denominator: bool = False) -> Fraction:
    """Convert int/float/str/Fraction to Fraction.

    Strings accept "a/b" and decimal literals and are exact.  Floats are
    exact by default (every float is a dyadic rational); pass
    ``limit_denominator=True`` for file inputs, per the instance format.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a number, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"non-finite number {value!r}")
        frac = Fraction(value)
        if limit_denominator:
            frac = frac.limit_denominator(FLOAT_DENOMINATOR_LIMIT)
        return frac
    raise InputError(f"cannot convert {type(value).__name__} to rational")


def frac_str(q: Fraction) -> str:
    """Render a Fraction as the canonical "a/b" (or "a") string."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def isqrt_ceil(n: int) -> int:
    """Smallest integer s with s*s >= n."""
    if n < 0:
        raise ValueError("negative operand")
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def half_power_ceil(base: int, exponent: int) -> int:
    """Integer ceiling of base**(exponent/2) for non-negative integers.

    Used for the (K+2)^((K+2)/2) constants, which are irrational for odd
    exponents; rounding up only shrinks the derived granularity kappa.
    """
    if exponent % 2 == 0:
        return base ** (exponent // 2)
    return isqrt_ceil(base**exponent)


def sqrt_upper(q: Fraction, bits: int = 64) -> Fraction:
    """Rational upper bound on sqrt(q), within 2**-bits relative slack."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative operand")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    a, b = q.numerator, q.denominator
    # sqrt(a/b) = sqrt(a*b)/b; bound sqrt(a*b*scale^2) from above.
    s = isqrt_ceil(a * b * scale * scale)
    return Fraction(s, b * scale)


def ln_upper(q: Fraction) -> Fraction:
    """Rational upper bound on ln(q) for q > 1.

    math.log is correctly rounded to ~1 ulp; a 2**-40 pad makes the bound
    safe, and upward slack is harmless everywhere this is used (it only
    makes threshold shifts more conservative).
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("ln_upper requires q > 1")
    return Fraction(math.log(q)) + Fraction(1, 1 << 40)


def ln_lower(q: Fraction) -> Fraction:
    """Rational lower bound on ln(q) for q > 1, the mirror of ln_upper.

    Downward slack is harmless where this is used: it only makes the
    Case-2 skip test (large_ci.zero_tail_dominates) stricter.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValueError("ln_lower requires q > 1")
    return Fraction(math.log(q)) - Fraction(1, 1 << 40)


# ---------------------------------------------------------------------------
# Reproducible randomness.  All sampling in the package goes through PCG64
# generators derived from explicit integer seed tuples, so results are
# bit-identical across runs and platforms.


def derived_rng(*seed_parts: int) -> np.random.Generator:
    """Generator seeded from a tuple of non-negative integers."""
    parts = [int(p) & 0xFFFFFFFFFFFFFFFF for p in seed_parts]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(parts)))


def derive_seed(*seed_parts: int) -> int:
    """Collapse a seed tuple to one 64-bit integer, stably."""
    parts = [int(p) & 0xFFFFFFFFFFFFFFFF for p in seed_parts]
    state = np.random.SeedSequence(parts).generate_state(2, dtype=np.uint64)
    return int(state[0])

