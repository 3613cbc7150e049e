"""Small shared helpers: the Record base, rational conversions, directed
rounding, seed derivation and the splitmix64 stream.

Everything that needs to stay exact is a Fraction or an integer ratio; the
only deliberate float crossings are the logarithms (bounded above
explicitly) and reporting.

This module refers to no numpy.random name, so importing it, or drawing
from SplitMix64, loads no numpy.random module (nine extension modules,
several ms in a fresh process).  The PCG64 chunk generators live in
evaluate and the instance generator in cli.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import InputError

# Floats from instance files are snapped to rationals with denominators
# bounded by this before any exact arithmetic happens.
FLOAT_DENOMINATOR_LIMIT = 10**6


class Record:
    """Base of the package's value records: equality, hashing and repr over
    the fields, read-only attributes, and pickling.

    A subclass lists its fields in ``__slots__`` and writes each in its own
    ``__init__`` with object.__setattr__; ``_fields``, the fields compared,
    shown and pickled, is ``__slots__`` unless the subclass names a prefix
    of it.  Unpickling calls ``__init__`` on those fields.  The package
    avoids ``dataclasses``, which builds each class's methods by compiling
    generated source at import: that took 11 of the 41 ms a fresh
    interpreter spent importing the package and building a solve's inputs.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def to_ratio(value, limit_denominator: bool = False) -> tuple[int, int]:
    """(numerator, denominator) of the Fraction of an int, float, str or
    Fraction, or of a numpy integer or float scalar: lowest terms, b > 0.

    Strings accept "a/b" and decimal literals and are exact.  Floats are
    exact by default (every float is a dyadic rational); pass
    ``limit_denominator=True`` for file inputs, per the instance format,
    for Fraction(value).limit_denominator(FLOAT_DENOMINATOR_LIMIT).  A numpy
    float must convert to a Python float exactly.  Booleans are refused.
    """
    if isinstance(value, float):  # numpy float64 included
        if not math.isfinite(value):
            raise InputError(f"non-finite number {value!r}")
        num, den = value.as_integer_ratio()
        return limit_ratio(num, den, FLOAT_DENOMINATOR_LIMIT) if limit_denominator else (num, den)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, (bool, np.bool_)):
        raise InputError(f"expected a number, got bool {value!r}")
    if isinstance(value, (int, np.integer)):
        return operator.index(value), 1
    if isinstance(value, str):
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {value!r}") from exc
        return q.numerator, q.denominator
    if isinstance(value, np.floating):
        as_float = float(value)
        if math.isfinite(as_float) and as_float != value:
            raise InputError(f"{type(value).__name__} {value!r} is not exactly a float")
        return to_ratio(as_float, limit_denominator)
    raise InputError(f"cannot convert {type(value).__name__} to rational")


def to_fraction(value, limit_denominator: bool = False) -> Fraction:
    """to_ratio(value, limit_denominator) as a Fraction; a Fraction is returned as is."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*to_ratio(value, limit_denominator))


def to_int(value, name: str) -> int:
    """value as an int: numpy ints convert; bools, floats and strings are refused."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"{name} must be an integer; got {value!r}")
    return operator.index(value)


def limit_ratio(num: int, den: int, limit: int) -> tuple[int, int]:
    """Fraction(num, den).limit_denominator(limit) as a ratio, for num/den in lowest terms, den > 0.

    Fast path: let r = k/limit be num/den rounded to a multiple of
    1/limit.  Any other c/d with d <= limit is at least 1/limit^2 from r,
    so when |num/den - r| < 1/(2 limit^2) r is the unique closest.  A
    float read from a decimal with at most log10(limit) places passes;
    anything else goes to the standard library.
    """
    if den <= limit:
        return num, den
    k = (2 * num * limit + den) // (2 * den)
    if 2 * limit * abs(num * limit - k * den) < den:
        g = math.gcd(k, limit)
        return k // g, limit // g
    q = Fraction(num, den).limit_denominator(limit)
    return q.numerator, q.denominator


def lcm_scaled(values) -> tuple[int, list[int]]:
    """(D, [D v for v in values]) for Fractions or ints, D > 0 the lcm of their denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def frac_str(q: Fraction) -> str:
    """Render a Fraction as the canonical "a/b" (or "a") string."""
    num, den = to_ratio(q)
    return str(num) if den == 1 else f"{num}/{den}"


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


def _ln_bound(q: Fraction, sign: int) -> Fraction:
    """ln(q) + sign * pad for q > 1.  math.log is within ~1 ulp, and ln(q) < 710
    wherever float(q) is finite: pad = 2**-40.  Past float range the logs of
    q's integer numerator and denominator are each within a few ulps of their
    own size: pad = 2**-40 (1 + both logs)."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("the ln bounds require q > 1")
    try:
        return Fraction(math.log(q)) + sign * Fraction(1, 1 << 40)
    except OverflowError:
        a, b = math.log(q.numerator), math.log(q.denominator)
        return Fraction(a) - Fraction(b) + sign * Fraction(1 + a + b) / (1 << 40)


def ln_upper(q: Fraction) -> Fraction:
    """Rational upper bound on ln(q) for q > 1.  Upward slack is harmless
    everywhere this is used (it only makes threshold shifts more conservative)."""
    return _ln_bound(q, 1)


def ln_lower(q: Fraction) -> Fraction:
    """Rational lower bound on ln(q) for q > 1, the mirror of ln_upper.
    Downward slack is harmless where this is used: it only makes the Case-2
    skip test (large_ci.zero_tail_dominates) stricter."""
    return _ln_bound(q, -1)


# ---------------------------------------------------------------------------
# Reproducible randomness: seed tuples collapse to 64-bit keys, and a key
# drives a splitmix64 counter stream (Steele, Lea & Flood, "Fast Splittable
# Pseudorandom Number Generators", OOPSLA 2014).  Both are bit-identical
# across runs and platforms.

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX64 = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _mix64(z: int) -> int:
    """The splitmix64 finalizer of a 64-bit integer, in plain Python ints."""
    z = ((z ^ (z >> 30)) * _MIX64[0]) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX64[1]) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*seed_parts: int) -> int:
    """Collapse a seed tuple to one 64-bit integer, stably: _mix64 folded
    over the parts' low 64 bits, each added to the golden gamma."""
    state = 0
    for part in seed_parts:
        state = _mix64(((state ^ (int(part) & _MASK64)) + _GOLDEN64) & _MASK64)
    return state


class SplitMix64:
    """The splitmix64 stream keyed by derive_seed(*seed_parts), behind the
    random_raw interface of a numpy bit generator.

    Word k = 1, 2, ... of the stream is _mix64(key + k 0x9E3779B97F4A7C15
    mod 2^64).  random_raw(n) returns the next n words as a uint64 array,
    computed on wrapping uint64 arrays with numpy core ops;
    random_raw() returns the next word as an int.
    """

    __slots__ = ("_key", "_drawn")
    name = "splitmix64"

    def __init__(self, *seed_parts: int):
        self._key = derive_seed(*seed_parts)
        self._drawn = 0

    def random_raw(self, size=None):
        if size is None:
            self._drawn += 1
            return _mix64((self._key + self._drawn * _GOLDEN64) & _MASK64)
        z = np.arange(self._drawn + 1, self._drawn + size + 1, dtype=np.uint64)
        self._drawn += size
        z *= np.uint64(_GOLDEN64)
        z += np.uint64(self._key)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX64[0])
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX64[1])
        z ^= z >> np.uint64(31)
        return z
