from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storalloc.baselines import (
    brute_force_optimum,
    kleinberg_counterexample,
    uniform_split_baseline,
)
from storalloc.core import ProblemInstance, preprocess
from storalloc.errors import InputError
from storalloc.evaluate import exact_objective_probs
from storalloc.junta import JuntaRequest, find_optimal_junta

from conftest import granular_instance, grid_junta_value, per_k_uniform_split


class TestOracle:
    def test_single_node(self):
        # 0.7 rounds down to the eps/(4n)=1/16 grid: 11/16
        inst = preprocess([0.7], 0.5, 0.25, 0.05).instance
        res = brute_force_optimum(inst)
        assert res.opt_value == inst.probs[0] == F(11, 16)
        assert exact_objective_probs(inst.probs, res.witness, inst.theta) == res.opt_value

    def test_two_fair_nodes_spec_example_corrected(self):
        # p=(1/2,1/2), theta=3/5: the spec's tentative 0.75 needs w=(0.6,0.6)
        # which violates the budget; enumeration and the grid oracle agree
        # the optimum is 0.5 (all weight reaching one node's event)
        inst = ProblemInstance((F(1, 2), F(1, 2)), F(3, 5), F(2, 5), F(1, 20), (0, 1))
        res = brute_force_optimum(inst)
        assert res.opt_value == F(1, 2)
        assert grid_junta_value(inst.probs, inst.theta, F(1)) == F(1, 2)

    def test_theta_near_one_prefers_single_node(self, rng):
        inst = granular_instance(rng, 2, F(49, 50), F(1, 4))
        res = brute_force_optimum(inst)
        assert res.opt_value == inst.probs[0]

    def test_witness_reevaluates_to_opt(self, rng):
        for _ in range(8):
            n = rng.randint(1, 4)
            inst = granular_instance(rng, n, F(rng.randint(3, 7), 10), F(1, 4))
            res = brute_force_optimum(inst)
            assert (
                exact_objective_probs(inst.probs, res.witness, inst.theta)
                == res.opt_value
            )

    def test_oracle_dominates_uniform_baseline(self, rng):
        for _ in range(8):
            n = rng.randint(1, 4)
            inst = granular_instance(rng, n, F(rng.randint(3, 7), 10), F(1, 4))
            res = brute_force_optimum(inst)
            base = uniform_split_baseline(inst)
            assert res.opt_value >= max(base.per_k)

    def test_grid_oracle_never_beats(self, rng):
        for _ in range(100):
            n = rng.randint(1, 3)
            inst = granular_instance(rng, n, F(rng.randint(2, 8), 10), F(1, 4))
            res = brute_force_optimum(inst)
            assert grid_junta_value(inst.probs, inst.theta, F(1)) <= res.opt_value

    def test_n5_needs_flag(self, rng):
        inst = granular_instance(rng, 5, F(1, 2), F(1, 4))
        with pytest.raises(InputError):
            brute_force_optimum(inst)
        res = brute_force_optimum(inst, allow_grid_n5=True)
        assert (
            exact_objective_probs(inst.probs, res.witness, inst.theta) == res.opt_value
        )
        # sets_examined is what the scan visited, not the 3287 sets it could
        junta = find_optimal_junta(JuntaRequest(inst.probs, inst.theta, F(1)))
        assert 1 <= res.sets_examined == junta.sets_examined < 3287

    def test_n6_rejected(self, rng):
        inst = granular_instance(rng, 6, F(1, 2), F(1, 4))
        with pytest.raises(InputError):
            brute_force_optimum(inst, allow_grid_n5=True)


class TestUniformSplit:
    def test_counterexample_table(self):
        inst = preprocess([0.9] * 5, F(5, 12), 0.05, 0.05).instance
        res = uniform_split_baseline(inst)
        assert res.per_k == (
            F(9, 10),
            F(99, 100),
            F(972, 1000),
            F(9963, 10000),
            F(99144, 100000),
        )
        assert res.best_k == 4 and res.value == F(9963, 10000)

    def test_tiny_theta_any_split_wins(self):
        inst = preprocess([0.6, 0.5, 0.4], 0.01, 0.25, 0.05).instance
        res = uniform_split_baseline(inst)
        # one success suffices for every k
        for k, v in enumerate(res.per_k, start=1):
            assert v == 1 - _all_fail(inst.probs[:k])

    def test_k1_equals_p1(self, rng):
        inst = granular_instance(rng, 3, F(1, 2), F(1, 4))
        res = uniform_split_baseline(inst)
        assert res.per_k[0] == inst.probs[0]


@st.composite
def uniform_instances(draw):
    """n <= 12 nodes on the eps/(4n) grid, eps <= 1/2 with a denominator up
    to 10^12 (so grids as fine as 10^-13), and theta an exact tie c/k of
    some split, within 10^-9 of 0 or 1, or free."""
    n = draw(st.integers(1, 12))
    e_d = draw(st.sampled_from([4, 10, 97]) | st.integers(2, 10**12))
    eps = F(draw(st.integers(1, e_d // 2)), e_d)
    grid = eps / (4 * n)
    top = -(-(1 - eps) // grid) - 1  # the largest unit below 1 - eps
    units = sorted(draw(st.lists(st.integers(1, top), min_size=n, max_size=n)), reverse=True)
    kind = draw(st.sampled_from(["tie", "near_zero", "near_one", "free"]))
    if kind == "tie":
        k = draw(st.integers(2, max(2, n)))
        theta = F(draw(st.integers(1, k - 1)), k)
    elif kind == "near_zero":
        theta = F(1, draw(st.integers(2, 10**9)))
    elif kind == "near_one":
        theta = 1 - F(1, draw(st.integers(2, 10**9)))
    else:
        theta = F(draw(st.integers(1, 10**12 - 1)), 10**12)
    return ProblemInstance(tuple(u * grid for u in units), theta, eps, F(1, 20), tuple(range(n)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(uniform_instances())
def test_one_pass_uniform_split_matches_per_k_evaluation(inst):
    # per_k, best_k and value all equal one exact evaluation per k
    assert uniform_split_baseline(inst) == per_k_uniform_split(inst)


def _all_fail(probs):
    out = F(1)
    for p in probs:
        out *= 1 - p
    return out


class TestCounterexample:
    def test_exact_values_and_strict_win(self):
        rep = kleinberg_counterexample()
        assert rep.candidate_value == F(99711, 100000)
        assert rep.best_uniform_value == F(9963, 10000)
        assert rep.best_uniform_k == 4
        assert rep.passed
