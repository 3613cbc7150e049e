import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storalloc.driver import solve
from storalloc.errors import InputError
from storalloc.util import FLOAT_DENOMINATOR_LIMIT, limit_ratio, ln_lower, ln_upper, to_fraction, to_int


def same_ratio(a: F, b: F) -> bool:
    return (a.numerator, a.denominator) == (b.numerator, b.denominator)


@settings(derandomize=True, database=None, max_examples=2000, deadline=None)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),  # huge and subnormal included
        st.floats(min_value=0, max_value=1),
        st.integers(-(10**7), 10**7).map(lambda k: k / 10**6),  # six decimals
        st.integers(0, 10**9).map(lambda k: k / 10**9),  # nine decimals: the library decides
        st.integers(1, 2**20).map(lambda k: k * 5e-324),  # subnormal multiples
    )
)
@example(5e-324)
@example(1.7976931348623157e308)
@example(0.5 / FLOAT_DENOMINATOR_LIMIT)
@example(1 / 3)
def test_snapped_float_is_limit_denominator(x):
    assert same_ratio(
        to_fraction(x, limit_denominator=True),
        F(x).limit_denominator(FLOAT_DENOMINATOR_LIMIT),
    )
    assert same_ratio(to_fraction(x), F(x))


def farey(M: int) -> list[F]:
    return sorted({F(a, b) for b in range(1, M + 1) for a in range(b + 1)})


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.integers(1, 40), st.data())
def test_fast_path_leaves_ties_to_the_library(M, data):
    # The midpoint of neighbours a/b < c/d in the Farey sequence of order M
    # ties between them, and sits at least 1/(2bd) >= 1/(2M^2) from every
    # k/M, so the strict fast-path bound must pass it on to the library.
    seq = farey(M)
    i = data.draw(st.integers(0, len(seq) - 2))
    shift = data.draw(st.integers(-3, 3))
    for x in ((seq[i] + seq[i + 1]) / 2 + shift, -((seq[i] + seq[i + 1]) / 2) + shift):
        assert same_ratio(limit_ratio(x.numerator, x.denominator, M), x.limit_denominator(M))


@pytest.mark.parametrize(
    "value, expected",
    [
        (np.int64(1), F(1)),
        (np.int32(-7), F(-7)),
        (np.uint8(200), F(200)),
        (np.float32(0.75), F(3, 4)),
        (np.float16(0.5), F(1, 2)),
        (np.float64(0.1), F(0.1)),
    ],
)
def test_numpy_scalars_convert_exactly(value, expected):
    got = to_fraction(value)
    assert type(got) is F and got == expected


def test_numpy_float_snaps_like_its_python_float():
    x = np.float32(0.6)  # 0.60000002384185791015625
    assert to_fraction(x) == F(float(x)) != F(3, 5)
    assert to_fraction(x, limit_denominator=True) == F(3, 5)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
def test_booleans_are_refused(value):
    with pytest.raises(InputError, match="bool"):
        to_fraction(value)


@pytest.mark.parametrize("value", [np.float32("nan"), np.float32("inf"), float("-inf"), None, [0.5]])
def test_non_numbers_are_refused(value):
    with pytest.raises(InputError):
        to_fraction(value)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is a double here")
def test_inexact_long_double_is_refused():
    with pytest.raises(InputError, match="not exactly a float"):
        to_fraction(np.longdouble(1) / 3)
    assert to_fraction(np.longdouble(0.25)) == F(1, 4)


def test_solve_accepts_float32_and_int64_inputs():
    reference = solve([0.6, 0.5, 0.4, 0.3], 0.5, 0.25, 0.05)
    report = solve(np.array([0.6, 0.5, 0.4, 0.3], dtype=np.float32), 0.5, 0.25, 0.05)
    assert report.to_json() == reference.to_json()


@pytest.mark.parametrize("value", [0, -3, 7, np.int64(7), np.uint8(7), np.int32(-3)])
def test_integers_and_numpy_integers_become_ints(value):
    assert type(to_int(value, "m")) is int and to_int(value, "m") == int(value)


@pytest.mark.parametrize("value", [True, np.bool_(False), 2.5, 2.0, np.float64(2), "2", F(2), None])
def test_non_integers_are_refused_by_name(value):
    with pytest.raises(InputError, match="seed must be an integer"):
        to_int(value, "seed")


@pytest.mark.parametrize("q", [F(800), F(200 * 10**300), F(10**309), F(200 * 10**400), F(3 * 10**5000, 7)])
def test_ln_bounds_bracket_ln_past_float_range(q):
    # within float range the bounds are math.log(q) -+ 2^-40, as always;
    # past it they still bracket ln(q), checked against 60-digit Decimals
    lower, upper = ln_lower(q), ln_upper(q)
    if q < 2**1024:
        pad = F(1, 1 << 40)
        assert (lower, upper) == (F(math.log(q)) - pad, F(math.log(q)) + pad)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(q.numerator).ln() - Decimal(q.denominator).ln()
        assert Decimal(lower.numerator) / lower.denominator < exact < Decimal(upper.numerator) / upper.denominator
