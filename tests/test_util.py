import math
import pickle
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storalloc.baselines import CounterexampleReport, OracleResult, UniformSplitResult
from storalloc.core import PreprocessResult, ProblemInstance, SolverConfig, TrivialSolution
from storalloc.driver import PoolMember, SolveReport, solve
from storalloc.errors import InputError
from storalloc.evaluate import DiscreteDist, EmpiricalDist, ObjectiveEstimate
from storalloc.junta import JuntaRequest, JuntaResult
from storalloc.large_ci import LargeCICandidate, TailTriple
from storalloc.lp import LinearProgram, LPResult
from storalloc.small_ci import HeadResult
from storalloc.util import (
    FLOAT_DENOMINATOR_LIMIT,
    Record,
    limit_ratio,
    ln_lower,
    ln_upper,
    to_fraction,
    to_int,
    to_ratio,
)


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
@example(0.1)  # 100000/10^6 on the fast path, in lowest terms 1/10
def test_snapped_float_is_limit_denominator(x):
    assert same_ratio(
        to_fraction(x, limit_denominator=True),
        F(x).limit_denominator(FLOAT_DENOMINATOR_LIMIT),
    )
    assert same_ratio(to_fraction(x), F(x))
    # to_ratio gives the same ratios, in lowest terms
    q = F(x).limit_denominator(FLOAT_DENOMINATOR_LIMIT)
    assert to_ratio(x, limit_denominator=True) == (q.numerator, q.denominator)
    assert to_ratio(x) == x.as_integer_ratio()


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
        q = x.limit_denominator(M)
        assert limit_ratio(x.numerator, x.denominator, M) == (q.numerator, q.denominator)


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


# Two field sets per record type that differ in one field, both valid.
_ESTIMATE = ObjectiveEstimate(F(1, 2), "exact")
_REPORT = dict(
    provenance="junta", chosen_weights=(F(1), F(0)), estimate=_ESTIMATE, exact_objective=F(1, 2),
    pool_size=1, per_case_counts={"junta": 1}, n=2, theta=F(1, 2), epsilon=F(1, 4), delta=F(1, 20),
    gamma=F(1, 4), L=2, kappa_case2=None, kappa_case3=F(1, 8), config=SolverConfig(), seed=0,
)
_INSTANCE = dict(probs=(F(1, 2), F(1, 4)), theta=F(1, 2), epsilon=F(1, 4), delta=F(1, 20), permutation=(1, 0))
RECORDS = {
    SolverConfig: ({}, {"seed": 1}),
    ProblemInstance: (_INSTANCE, {**_INSTANCE, "permutation": (0, 1)}),
    TrivialSolution: (((F(1), F(0)), F(1), "theta_zero", False), ((F(1), F(0)), F(1), "theta_one", False)),
    PreprocessResult: ({"shortcut": TrivialSolution((F(1),), F(1), "theta_zero", False)}, {}),
    ObjectiveEstimate: ((F(1, 2), "monte_carlo", 10, 3), (F(1, 2), "monte_carlo", 11, 3)),
    DiscreteDist: (((F(0), F(1)), (F(1, 2), F(1, 2))), ((F(0), F(1)), (F(1, 4), F(3, 4)))),
    EmpiricalDist: (((F(0), F(1)), (1, 3), 4), ((F(0), F(1)), (2, 2), 4)),
    OracleResult: ((F(1, 2), (F(1), F(0)), 3), (F(1, 2), (F(1), F(0)), 4)),
    UniformSplitResult: ((1, F(1, 2), (F(1, 2),)), (1, F(1, 3), (F(1, 2),))),
    CounterexampleReport: (
        ((F(1, 2), F(1, 2)), F(3, 4), 2, F(1, 2), True),
        ((F(1, 2), F(1, 2)), F(3, 4), 2, F(1, 2), False),
    ),
    JuntaRequest: (((F(1, 2), F(1, 3)), F(1, 2), F(1)), ((F(1, 2), F(1, 3)), F(1, 2), F(1, 2))),
    JuntaResult: (((F(1),), F(1, 2), 2), ((F(1),), F(1, 2), 3)),
    TailTriple: ((1, 2, 1, ((1, 1),)), (1, 3, 1, ((1, 1),))),
    LargeCICandidate: (
        (TailTriple(0, 0, 0, ()), JuntaResult((F(1),), F(1, 2), 2), (F(1), F(0)), F(1, 2), F(1)),
        (TailTriple(0, 0, 0, ()), JuntaResult((F(1),), F(1, 2), 2), (F(1), F(0)), F(1, 2), F(1, 2)),
    ),
    HeadResult: (((F(1),), F(1, 2), 1), ((F(1),), F(1, 2), 2)),
    LinearProgram: ((1, [((F(1),), "<=", F(1))], ((F(1),), "max")), (1, [((F(1),), "<=", F(1))])),
    LPResult: (("optimal", (F(1),), F(1)), ("optimal", (F(1),), F(2))),
    PoolMember: (((F(1),), "junta", 0), ((F(1),), "junta", 1)),
    SolveReport: (_REPORT, {**_REPORT, "pool_size": 2}),
}


def _build(cls, args):
    return cls(**args) if isinstance(args, dict) else cls(*args)


def test_every_record_type_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    args, other_args = RECORDS[cls]
    a, b, other = _build(cls, args), _build(cls, args), _build(cls, other_args)
    assert a == b and not a != b
    assert a != other
    assert a.__eq__(object()) is NotImplemented
    if cls in (LinearProgram, SolveReport):  # a list or dict field
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={getattr(a, n)!r}' for n in a._fields)})"
    for name in (cls.__slots__[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        delattr(a, cls.__slots__[0])
    assert b == a  # unchanged by the refused writes
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is cls and copy == a
    if cls is ProblemInstance:
        assert "units" not in repr(a)
        assert (copy.units, copy.grid, copy.gamma) == (a.units, F(1, 32), F(1, 4))
    if cls is SolveReport:
        assert a.timings == {} and a.timings is not b.timings
