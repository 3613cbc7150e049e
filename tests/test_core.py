import json
import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storalloc.core import (
    L_formula,
    MAX_K,
    ProblemInstance,
    SolverConfig,
    TrivialSolution,
    _grid_units,
    compute_L,
    compute_gamma,
    preprocess,
)
from storalloc.errors import InputError
from storalloc.evaluate import exact_objective_probs
from storalloc.util import to_fraction

from conftest import (
    fraction_gamma,
    fraction_preprocess,
    fraction_round_to_grid,
    fraction_sort_order,
    granular_instance,
)
from lemmas import critical_index, is_regular


class TestPreprocess:
    def test_theta_zero_is_trivial(self):
        res = preprocess([0.9, 0.8], 0, 0.1, 0.1)
        assert res.is_trivial
        assert res.shortcut.objective == 1
        assert res.shortcut.weights == (F(1), F(0))
        assert res.shortcut.reason == "theta_zero"

    def test_theta_one_puts_weight_on_most_reliable(self):
        res = preprocess([0.4, 0.8, 0.6], 1, 0.1, 0.1)
        assert res.is_trivial
        assert res.shortcut.weights == (F(0), F(1), F(0))
        assert res.shortcut.objective == F(4, 5)

    def test_high_probability_shortcut(self):
        # p_1 >= 1 - eps fires the eps-optimal unit allocation.
        res = preprocess([0.95, 0.5], 0.5, 0.1, 0.1)
        assert res.is_trivial
        assert res.shortcut.reason == "high_prob_shortcut"
        assert res.shortcut.eps_optimal
        assert res.shortcut.weights == (F(1), F(0))

    @pytest.mark.parametrize(
        "probs, epsilon, best",
        [([0.05], 0.9, 0), ([0.001], 0.8, 0), ([0, 0], 0.9, 0), ([0.01, 0.02], 0.9, 1)],
    )
    def test_below_grid_shortcut(self, probs, epsilon, best):
        # eps/(4n) >= 1 - eps: every p < 1 - eps is below one grid unit, so
        # opt <= sum p < eps/4 and the unit weight on the best node is eps-optimal
        res = preprocess(probs, 0.5, epsilon, 0.05)
        assert res.is_trivial
        assert res.shortcut.reason == "below_grid_shortcut"
        assert res.shortcut.eps_optimal
        assert res.shortcut.weights == tuple(F(int(i == best)) for i in range(len(probs)))
        ps = [to_fraction(p, limit_denominator=True) for p in probs]
        assert res.shortcut.objective == ps[best]
        assert sum(ps) < to_fraction(epsilon, limit_denominator=True) / 4

    def test_no_shortcut_just_below_threshold(self):
        res = preprocess([0.95, 0.5], 0.5, 0.04, 0.1)
        # 0.95 < 1 - 0.04, so preprocessing proceeds to rounding.
        assert not res.is_trivial

    def test_grid_rounding_values(self):
        # eps=0.2, n=2: grid 0.025; 0.87 -> 0.85 (34 units), 0.61 -> 0.60 (24)
        assert _grid_units([(87, 100), (61, 100)], 1, 40) == [34, 24]

    def test_rounding_clamps_zero_up(self):
        assert _grid_units([(1, 1000), (0, 1)], 1, 40) == [1, 1]

    def test_sorted_descending_with_permutation(self):
        res = preprocess([0.31, 0.62, 0.45], 0.5, 0.25, 0.05)
        inst = res.instance
        assert inst.probs[0] >= inst.probs[1] >= inst.probs[2]
        assert inst.permutation == (1, 2, 0)
        # solution mapping goes back to caller order
        back = inst.to_original_order((F(1), F(0), F(0)))
        assert back == (F(0), F(1), F(0))

    def test_instance_invariants(self):
        inst = preprocess([0.31, 0.62, 0.45], 0.5, 0.25, 0.05).instance
        grid = inst.grid
        for p, u in zip(inst.probs, inst.units):
            assert p > 0 and (p / grid).denominator == 1
            assert type(u) is int and u * grid == p
        assert inst.probs[0] < 1 - inst.epsilon
        assert inst.gamma >= grid

    def test_errors(self):
        with pytest.raises(InputError):
            preprocess([], 0.5, 0.1, 0.1)
        with pytest.raises(InputError):
            preprocess([0.5], 1.5, 0.1, 0.1)
        with pytest.raises(InputError):
            preprocess([0.5], 0.5, 0, 0.1)
        with pytest.raises(InputError):
            preprocess([0.5], 0.5, 0.1, 1)
        with pytest.raises(InputError):
            preprocess([1.5], 0.5, 0.1, 0.1)

    def test_trivial_solutions_feasible(self):
        for args in ([0.9, 0.8], 0, 0.1, 0.1), ([0.4, 0.8], 1, 0.1, 0.1), ([0.99], 0.5, 0.1, 0.1):
            res = preprocess(*args)
            w = res.shortcut.weights
            assert all(x >= 0 for x in w) and sum(w) <= 1

    def test_rounding_perturbs_objective_by_at_most_quarter_eps(self):
        # coupling bound: rounding each p_i by < eps/4n moves any event
        # probability by at most eps/4
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randint(1, 5)
            eps = F(rng.randint(5, 40), 100)
            p_raw = [F(rng.randint(1, 99), 100) for _ in range(n)]
            if max(p_raw) >= 1 - eps:
                continue
            theta = F(rng.randint(1, 9), 10)
            w = [F(rng.randint(0, 8), 8) for _ in range(n)]
            total = sum(w)
            if total > 1:
                w = [x / total for x in w]
            res = preprocess(p_raw, theta, eps, F(1, 20))
            inst = res.instance
            w_sorted = [w[i] for i in inst.permutation]
            before = exact_objective_probs(p_raw, w, theta)
            after = exact_objective_probs(
                [inst.probs[inst.permutation.index(i)] for i in range(n)], w, theta
            )
            assert abs(before - after) <= eps / 4
            # sanity: sorted view evaluates identically
            assert exact_objective_probs(inst.probs, w_sorted, theta) == after


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.fractions(min_value=F(1, 10**4), max_value=1, max_denominator=10**4),
    st.integers(1, 64),
)
def test_integer_rounding_matches_fraction_formula(p, eps, n):
    grid = eps / (4 * n)
    # p, a few grid units exactly, and one below, as granular inputs land
    k = max(1, p.numerator % 50)
    qs = (p, k * grid, k * grid - grid / 3)
    units = _grid_units([(q.numerator, q.denominator) for q in qs], grid.numerator, grid.denominator)
    assert [u * grid for u in units] == [fraction_round_to_grid(q, grid) for q in qs]


@pytest.mark.parametrize(
    "probs, message",
    [
        ((F(1, 2), F(1, 3)), "not a positive multiple"),  # 1/3 is 6 2/3 units of 1/20
        ((F(1, 2), F(0)), "not a positive multiple"),
        ((F(1, 2), F(-1, 80)), "not a positive multiple"),
        ((F(1, 4), F(1, 2)), "sorted non-increasing"),
        ((F(3, 5), F(1, 2)), "p_1 must be < 1 - eps"),  # 12 units of 1/20 is 1 - eps exactly
    ],
)
def test_granularity_and_order_checked_on_units(probs, message):
    with pytest.raises(InputError, match=message):
        ProblemInstance(probs, F(1, 2), F(2, 5), F(1, 20), (0, 1))


def test_float_fields_convert_exactly():
    # rational fields go through util.to_fraction: floats convert exactly,
    # so a dyadic grid is met and a non-dyadic one is an input error that
    # says so and names the ways out
    inst = ProblemInstance((0.75, 0.5), 0.5, 0.125, 0.25, (0, 1))
    assert (inst.probs, inst.theta, inst.epsilon, inst.delta) == ((F(3, 4), F(1, 2)), F(1, 2), F(1, 8), F(1, 4))
    assert all(type(q) is F for q in (*inst.probs, inst.theta, inst.epsilon, inst.delta))
    assert inst.units == (48, 32)
    assert ProblemInstance(["1/2", "1/4"], "1/2", "2/5", np.float64(0.5), (0, 1)).probs == (F(1, 2), F(1, 4))
    way_out = 'not a positive multiple .*; floats convert exactly, so pass "a/b" strings or use preprocess$'
    with pytest.raises(InputError, match=way_out):
        ProblemInstance((0.5, 0.5), F(1, 2), 0.1, F(1, 20), (0, 1))
    with pytest.raises(InputError, match=way_out):
        ProblemInstance((0.3, 0.25), F(1, 2), F(1, 10), F(1, 20), (0, 1))
    with pytest.raises(InputError, match="not a positive multiple .*=1/80$"):  # no float, no hint
        ProblemInstance((F(1, 3), F(1, 4)), F(1, 2), F(1, 10), F(1, 20), (0, 1))


@pytest.mark.parametrize("field", ["theta", "epsilon", "delta"])
def test_parameters_refused_at_their_bounds(field):
    # the public constructor checks theta, epsilon and delta itself, on
    # their integer ratios: 0 and 1 are out, and a value just inside is in
    args = dict(probs=(F(1, 2), F(1, 4)), theta=F(1, 2), epsilon=F(1, 4), delta=F(1, 20), permutation=(0, 1))
    message = "0 < theta < 1" if field == "theta" else "must lie in \\(0,1\\)"
    for bad in (F(0), F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(InputError, match=message):
            ProblemInstance(**{**args, field: bad})
    for good in (F(1, 10**6), F(10**6 - 1, 10**6)) if field != "epsilon" else (F(1, 10**6), F(2, 5)):
        assert getattr(ProblemInstance(**{**args, field: good}), field) == good


@pytest.mark.parametrize("field", ["probs", "theta", "epsilon", "delta"])
@pytest.mark.parametrize("bad", [None, True, "half", float("nan")])
def test_non_numbers_refused_in_rational_fields(field, bad):
    args = dict(probs=(F(1, 2), F(1, 2)), theta=F(1, 2), epsilon=F(2, 5), delta=F(1, 20), permutation=(0, 1))
    args[field] = (bad, F(1, 2)) if field == "probs" else bad
    with pytest.raises(InputError):
        ProblemInstance(**args)


def as_raw(draw, q):
    """q as the caller may write it: a float or an "a/b" string."""
    return draw(st.sampled_from([float(q), f"{q.numerator}/{q.denominator}"]))


@st.composite
def raw_instances(draw):
    n = draw(st.integers(1, 8))
    # coarse denominators make ties common; 0 and 1 occur at every one
    den = draw(st.sampled_from([2, 3, 10, 97, 1000]))
    # top = den // 2 keeps most draws clear of the high-probability shortcut
    top = draw(st.sampled_from([den, den // 2]))
    probs = draw(st.lists(st.integers(0, top).map(lambda k: F(k, den)), min_size=n, max_size=n))
    theta = draw(st.integers(0, 20).map(lambda k: F(k, 20)))
    eps = draw(st.sampled_from([F(1, 10), F(1, 4), F(3, 10), F(1, 2)]))
    weights = draw(st.lists(st.integers(0, 9).map(lambda k: F(k, 9)), min_size=n, max_size=n))
    raw = [as_raw(draw, q) for q in probs]
    return probs, raw, theta, as_raw(draw, theta), eps, weights


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(raw_instances())
def test_preprocess_round_trip(case):
    probs, raw, theta, raw_theta, eps, weights = case
    res = preprocess(raw, raw_theta, eps, F(1, 20))
    if theta == 0:
        reason = "theta_zero"
    elif theta == 1:
        reason = "theta_one"
    elif max(probs) >= 1 - eps:
        reason = "high_prob_shortcut"
    elif eps / (4 * len(probs)) >= 1 - eps:
        reason = "below_grid_shortcut"
    else:
        reason = None
    assert res.is_trivial == (reason is not None)
    if res.is_trivial:
        assert res.shortcut.reason == reason
        return
    inst = res.instance
    n, grid, perm = len(probs), eps / (4 * len(probs)), inst.permutation
    assert inst.theta == theta
    for slot, (p, u) in enumerate(zip(inst.probs, inst.units)):
        assert (p / grid).denominator == 1 and u * grid == p
        assert slot == 0 or p <= inst.probs[slot - 1]
        q = probs[perm[slot]]
        # one grid step below the raw value, or the clamp of a raw value below one step
        assert q - grid < p <= q or (p == grid and q < grid)
    for a, b in zip(perm, perm[1:]):
        assert probs[a] > probs[b] or (probs[a] == probs[b] and a < b)
    # to_original_order inverts the sort
    original = inst.to_original_order(weights)
    assert [original[perm[slot]] for slot in range(n)] == weights
    assert inst.to_original_order([weights[i] for i in perm]) == tuple(weights)


@st.composite
def order_instances(draw):
    """Probabilities with many ties, each written as a float, a Fraction or
    an "a/b" string whose terms carry a large common factor."""
    n = draw(st.integers(1, 10))
    den = draw(st.sampled_from([4, 7, 1000, 999_983, 2**61 - 1]))
    values = draw(st.lists(st.integers(0, den - 1), min_size=1, max_size=4))
    raw = []
    for _ in range(n):
        q = F(draw(st.sampled_from(values)), den)
        scale = draw(st.sampled_from([1, 10**9 + 7, 3**40]))
        form = draw(st.sampled_from(["fraction", "string", "float"]))
        if form == "float" and den <= 1000:
            raw.append(float(q))  # den <= 10^6 snaps back to q exactly
        elif form == "string":
            raw.append(f"{q.numerator * scale}/{q.denominator * scale}")
        else:
            raw.append(q)
    return raw


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(order_instances())
def test_integer_sort_order_matches_fraction_order(raw):
    # eps = 1/10^6 keeps every draw below the high-probability shortcut
    res = preprocess(raw, F(1, 2), F(1, 10**6), F(1, 20))
    probs = [F(p).limit_denominator(10**6) if isinstance(p, float) else F(p) for p in raw]
    assert res.instance.permutation == tuple(fraction_sort_order(probs))
    # the most probable node is the first of its tie under either order
    top = preprocess(raw, F(1), F(1, 2), F(1, 20)).shortcut
    assert top.weights.index(1) == fraction_sort_order(probs)[0]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 1 << 32), st.sampled_from([F(1, 10), F(1, 4), F(2, 5)]))
def test_gamma_is_computed_once_and_matches_the_fraction_formula(n, seed, eps):
    inst = granular_instance(random.Random(seed), n, F(1, 2), eps, lo=F(1, 100), hi=F(99, 100))
    assert "gamma" not in vars(inst)
    first = inst.gamma
    assert vars(inst)["gamma"] is first and inst.gamma is first
    assert first == compute_gamma(inst) == fraction_gamma(inst.probs)


class TestSolverConfigIntegers:
    FIELDS = ("L_cap", "seed", "state_space_limit")

    def test_numpy_integers_become_ints(self):
        cfg = SolverConfig(mode="practical", L_cap=np.int64(2), seed=np.int64(4), state_space_limit=np.int32(9))
        assert [type(getattr(cfg, f)) for f in self.FIELDS] == [int, int, int]
        assert (cfg.L_cap, cfg.seed, cfg.state_space_limit) == (2, 4, 9)
        assert SolverConfig(mode="practical", L_cap=None).L_cap is None

    def test_numpy_integer_config_report_serializes(self):
        from storalloc.driver import solve

        args = ([0.62, 0.45, 0.31], F(1, 2), F(1, 4), F(1, 20))
        numpy_cfg = SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=np.int64(2), seed=np.int64(4))
        plain_cfg = SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=2, seed=4)
        text = solve(*args, numpy_cfg).to_json()
        assert text == solve(*args, plain_cfg).to_json()
        data = json.loads(text)
        assert data["L"] == 2 and data["config"]["L_cap"] == 2 and data["seed"] == 4

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), 2.5, 2.0, np.float64(2), "2", F(2)])
    def test_non_integers_refused(self, field, bad):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            SolverConfig(mode="practical", **{field: bad})


class TestDerivedParameters:
    def test_gamma_examples(self):
        inst = ProblemInstance((F(17, 20), F(3, 5)), F(1, 2), F(1, 10), F(1, 20), (0, 1))
        assert compute_gamma(inst) == F(3, 20)
        inst = granular_instance(random.Random(1), 4, F(1, 2), F(2, 5))
        assert compute_gamma(inst) == min(inst.probs[-1], 1 - inst.probs[0])

    def test_gamma_symmetric_and_tied(self):
        inst = ProblemInstance((F(1, 2), F(1, 2)), F(1, 2), F(2, 5), F(1, 20), (0, 1))
        assert compute_gamma(inst) == F(1, 2)
        inst = ProblemInstance((F(3, 4), F(1, 4)), F(1, 2), F(1, 5), F(1, 20), (0, 1))
        assert compute_gamma(inst) == F(1, 4)

    def test_L_formula_hand_value(self):
        # eps = gamma = 1/2: 16 * 2 * ln 4 * ln 2 = 30.7 -> 31
        assert L_formula(F(1, 2), F(1, 2)) == 31

    def test_L_formula_past_float_range(self):
        # eps = 10^-200 underflows eps^2 and eps = 10^-160 overflows the
        # quotient; the fallback agrees with a 50-digit Decimal evaluation
        for eps in (F(1, 10**200), F(1, 10**160)):
            with localcontext() as ctx:
                ctx.prec = 50
                e, g = 1 / Decimal(eps.denominator), Decimal(1) / 4
                ref = (1 / (e * e * g**3)) * (1 / (e * g)).ln() * (1 / e).ln()
            assert abs(L_formula(eps, F(1, 4)) - ref) <= ref * Decimal(10) ** -12

    def test_L_min_clamps_at_n(self):
        # formula value far above n=3 clamps to n
        inst = ProblemInstance((F(7, 15),) * 3, F(1, 2), F(2, 5), F(1, 20), (0, 1, 2))
        assert L_formula(inst.epsilon, inst.gamma) > 3
        assert compute_L(inst, SolverConfig()) == 3

    def test_L_cap_in_practical_mode(self):
        inst = ProblemInstance(
            (F(47, 100),) * 10, F(1, 2), F(2, 5), F(1, 20), tuple(range(10))
        )
        cfg = SolverConfig(mode="practical", L_cap=4)
        assert compute_L(inst, cfg) <= 4

    def test_L_cap_bounded_by_head_enumeration(self):
        assert SolverConfig(mode="practical", L_cap=MAX_K).L_cap == MAX_K
        for bad in (0, MAX_K + 1):
            with pytest.raises(InputError, match="--l-cap"):
                SolverConfig(mode="practical", L_cap=bad)

    def test_theory_mode_forbids_overrides(self):
        with pytest.raises(InputError):
            SolverConfig(mode="theory", L_cap=2)
        with pytest.raises(InputError):
            SolverConfig(mode="theory", kappa_override=F(1, 8))

    def test_kappa_override_within_unit_budget(self):
        assert SolverConfig(mode="practical", kappa_override=F(1)).kappa_override == 1
        for kappa in (F(0), F(-1, 8), F(9, 8), F(2)):
            with pytest.raises(InputError, match="kappa_override"):
                SolverConfig(mode="practical", kappa_override=kappa)

    @pytest.mark.parametrize("field", ["c_L", "mc_constant"])
    def test_constants_must_be_positive(self, field):
        assert getattr(SolverConfig(**{field: F(1, 10**9)}), field) == F(1, 10**9)
        for bad in (F(0), F(-1, 2)):
            with pytest.raises(InputError, match="must be positive"):
                SolverConfig(**{field: bad})


class TestRegularity:
    def test_critical_index_examples(self):
        rep = critical_index([2, 1], 1)
        assert rep.critical_index == 1  # 4 <= 1 * 5
        rep = critical_index([2, 1], F(1, 2))
        assert rep.critical_index == math.inf
        rep = critical_index([1, 1, 1], F(3, 5))
        assert rep.critical_index == 1  # 1 <= 0.36 * 3

    def test_sigma_recurrence_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 8)
            w = sorted((F(rng.randint(1, 40), 40) for _ in range(n)), reverse=True)
            rep = critical_index(w, F(1, 3))
            for k in range(len(w) - 1):
                assert rep.sigma_sq[k] == rep.sigma_sq[k + 1] + w[k] * w[k]
            assert rep.sigma_sq[-1] == w[-1] * w[-1]
            # sigma is non-increasing
            assert all(
                rep.sigma_sq[i] >= rep.sigma_sq[i + 1] for i in range(len(w) - 1)
            )

    def test_monotone_in_tau_and_regular_iff_index_one(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(1, 7)
            w = sorted((F(rng.randint(1, 30), 30) for _ in range(n)), reverse=True)
            taus = sorted(F(rng.randint(1, 24), 12) for _ in range(3))
            indices = [critical_index(w, t).critical_index for t in taus]
            assert indices[0] >= indices[1] >= indices[2]
            for t in taus:
                assert (critical_index(w, t).critical_index == 1) == is_regular(w, t)

    def test_zero_stripping(self):
        rep = critical_index([2, 1, 0, 0], 1)
        assert rep.stripped == 2
        assert rep.critical_index == 1
        with pytest.raises(InputError):
            critical_index([0, 0], 1)

    def test_is_regular_examples(self):
        assert is_regular([1, 1, 1, 1], F(1, 2))
        assert not is_regular([1, F(1, 10)], F(1, 2))
        rng = random.Random(9)
        for _ in range(20):
            w = [F(rng.randint(1, 9), 9) for _ in range(rng.randint(1, 6))]
            assert is_regular(w, 1)

    def test_unsorted_weights_rejected(self):
        with pytest.raises(InputError):
            critical_index([1, 2], 1)


@st.composite
def raw_numbers(draw, bases):
    """One of the bases (mostly in [0, 1]) as a caller may write it: a float
    of at most six decimals, which snaps back to it, or of more, which the
    library snaps; an "a/b" or decimal string; a Fraction; a numpy float64
    or, for 0 and 1, an int64 or int."""
    q = draw(st.sampled_from(bases))
    forms = ["float", "ratio", "fraction", "float64", "long float"]
    if q.denominator in (1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100, 1000):
        forms.append("decimal")
    if q.denominator == 1:
        forms += ["int64", "int"]
    form = draw(st.sampled_from(forms))
    if form == "float":
        return float(q)
    if form == "long float":  # nine decimals, or any float near q: limit_denominator's fallback
        return draw(st.sampled_from([float(q) + draw(st.integers(-999, 999)) * 1e-9, float(q) * (1 + 2**-40)]))
    if form == "ratio":
        scale = draw(st.sampled_from([1, 3, 10**9 + 7]))
        return f"{q.numerator * scale}/{q.denominator * scale}"
    if form == "decimal":
        return str(Decimal(q.numerator) / Decimal(q.denominator))
    if form == "float64":
        return np.float64(float(q))
    if form == "int64":
        return np.int64(q.numerator)
    if form == "int":
        return q.numerator
    return q


@st.composite
def preprocess_inputs(draw):
    """Raw preprocess inputs with many ties and, now and then, an
    out-of-range probability or parameter."""
    den = draw(st.sampled_from([2, 5, 8, 10, 97, 1000, 10**6, 10**7 + 19]))
    top = draw(st.sampled_from([den, den // 2, (9 * den) // 10]))
    bases = [F(k, den) for k in draw(st.lists(st.integers(0, top), min_size=1, max_size=4))]
    if draw(st.integers(0, 9)) == 0:
        bases.append(draw(st.sampled_from([F(-1, 10), F(11, 10), F(3, 2)])))
    n = draw(st.integers(1, 12))
    p_raw = [draw(raw_numbers(bases)) for _ in range(n)]
    # in-range values first and most often; the shortcuts' and the refusals' later
    thetas = [F(k, 20) for k in range(1, 20)] + [F(0), F(1), F(-1, 20), F(21, 20)]
    epsilons = [F(1, 10), F(1, 4), F(2, 5), F(1, 20), F(3, 10), F(1, 10**6), F(9, 10), F(0), F(1), F(6, 5)]
    deltas = [F(1, 20), F(1, 2), F(1, 10), F(3, 4), F(1, 10**9), F(0), F(1)]
    theta = draw(raw_numbers(thetas))
    epsilon = draw(raw_numbers(epsilons))
    delta = draw(raw_numbers(deltas))
    return p_raw, theta, epsilon, delta


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(preprocess_inputs())
@example(([], 0.5, 0.25, 0.05))
@example(([0.3, "7/10", F(3, 10), np.float64(0.3), 0.123456789], "3/5", 0.1, np.float64(0.05)))
@example(([np.int64(1), 0.2], 0.5, 0.25, 0.05))
@example(([0.2, 1.5], 0.5, 0.25, 0.05))
@example(([0.01, "1/50"], 0.5, 0.9, 0.05))
def test_integer_preprocess_matches_the_fraction_oracle(case):
    # the integer path gives the Fraction path's instance or shortcut, and
    # refuses what it refuses with the same text
    p_raw, theta, epsilon, delta = case
    try:
        expected = fraction_preprocess(p_raw, theta, epsilon, delta)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            preprocess(p_raw, theta, epsilon, delta)
        assert str(got.value) == str(exc)
        return
    res = preprocess(p_raw, theta, epsilon, delta)
    if isinstance(expected, TrivialSolution):
        assert res.shortcut == expected
        assert all(type(q) is F for q in (*res.shortcut.weights, res.shortcut.objective))
        return
    inst = res.instance
    assert (inst.probs, inst.units, inst.permutation, inst.theta, inst.epsilon, inst.delta, inst.gamma) == expected
    assert all(type(q) is F for q in (*inst.probs, inst.theta, inst.epsilon, inst.delta, inst.gamma))
    assert all(type(u) is int for u in inst.units)
    # the public constructor on the same Fractions gives an equal instance
    probs, _, permutation, *parameters, _ = expected
    direct = ProblemInstance(probs, *parameters, permutation)
    assert direct == inst and hash(direct) == hash(inst) and repr(direct) == repr(inst)
    assert direct.units == inst.units and direct.gamma == inst.gamma
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == direct and hash(copy) == hash(direct) and copy.units == inst.units
