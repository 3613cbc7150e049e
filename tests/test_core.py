import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storalloc.core import (
    L_formula,
    ProblemInstance,
    SolverConfig,
    compute_L,
    compute_gamma,
    preprocess,
    round_to_grid,
)
from storalloc.errors import InputError
from storalloc.evaluate import exact_objective_probs
from storalloc.halfspaces import MAX_K
from storalloc.lemmas import critical_index, is_regular

from conftest import granular_instance


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

    def test_no_shortcut_just_below_threshold(self):
        res = preprocess([0.95, 0.5], 0.5, 0.04, 0.1)
        # 0.95 < 1 - 0.04, so preprocessing proceeds to rounding.
        assert not res.is_trivial

    def test_grid_rounding_values(self):
        # eps=0.2, n=2: grid 0.025; 0.87 -> 0.85, 0.61 -> 0.60.
        grid = F(1, 40)
        assert round_to_grid(F(87, 100), grid) == F(17, 20)
        assert round_to_grid(F(61, 100), grid) == F(3, 5)

    def test_rounding_clamps_zero_up(self):
        assert round_to_grid(F(1, 1000), F(1, 40)) == F(1, 40)

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
        for p in inst.probs:
            assert p > 0 and (p / grid).denominator == 1
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
    else:
        reason = None
    assert res.is_trivial == (reason is not None)
    if res.is_trivial:
        assert res.shortcut.reason == reason
        return
    inst = res.instance
    n, grid, perm = len(probs), eps / (4 * len(probs)), inst.permutation
    assert inst.theta == theta
    for slot, p in enumerate(inst.probs):
        assert (p / grid).denominator == 1
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
