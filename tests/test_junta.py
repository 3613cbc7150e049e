import hashlib
from fractions import Fraction as F

import pytest

from storalloc.errors import InputError
from storalloc.halfspaces import enumerate_halfspace_sets
from storalloc.junta import JuntaRequest, find_optimal_junta

from conftest import grid_junta_value


class TestSpecExamples:
    def test_single_node(self):
        r = find_optimal_junta(JuntaRequest((F(7, 10),), F(1, 2), F(1)))
        assert r.value == F(7, 10)

    def test_two_nodes_full_budget(self):
        r = find_optimal_junta(JuntaRequest((F(7, 10), F(3, 5)), F(3, 4), F(1)))
        assert r.value == F(7, 10)

    def test_two_nodes_small_budget_infeasible(self):
        r = find_optimal_junta(JuntaRequest((F(7, 10), F(3, 5)), F(3, 4), F(1, 2)))
        assert r.value == 0
        assert r.weights == (F(0), F(0))


class TestProperties:
    def test_grid_never_beats_solver(self, rng):
        for _ in range(25):
            L = rng.randint(1, 3)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(L)), reverse=True)
            )
            tau = F(rng.randint(1, 16), 16)
            W = F(rng.randint(8, 16), 16)
            r = find_optimal_junta(JuntaRequest(probs, tau, W))
            assert grid_junta_value(probs, tau, W, step=F(1, 16)) <= r.value

    def test_solver_matches_grid_on_grid_friendly_instances(self, rng):
        # thresholds and budgets on the 1/64 grid: 2x2 0/1 systems are
        # unimodular so LP vertices stay on the grid and equality holds
        for _ in range(12):
            L = rng.randint(1, 2)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(L)), reverse=True)
            )
            tau = F(rng.randint(1, 64), 64)
            W = F(rng.randint(32, 64), 64)
            r = find_optimal_junta(JuntaRequest(probs, tau, W))
            assert r.value == grid_junta_value(probs, tau, W)

    def test_monotone_in_budget_and_threshold(self, rng):
        probs = (F(7, 10), F(1, 2))
        values_w = [
            find_optimal_junta(JuntaRequest(probs, F(1, 2), F(k, 8))).value
            for k in range(0, 9)
        ]
        assert all(a <= b for a, b in zip(values_w, values_w[1:]))
        values_t = [
            find_optimal_junta(JuntaRequest(probs, F(k, 8), F(1))).value
            for k in range(1, 9)
        ]
        assert all(a >= b for a, b in zip(values_t, values_t[1:]))

    def test_self_consistency_rerun_with_spent_budget(self, rng):
        for _ in range(10):
            L = rng.randint(1, 3)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(L)), reverse=True)
            )
            tau = F(rng.randint(1, 12), 12)
            r = find_optimal_junta(JuntaRequest(probs, tau, F(1)))
            spent = sum(r.weights)
            again = find_optimal_junta(JuntaRequest(probs, tau, spent))
            assert again.value == r.value

    def test_feasibility_of_witness(self, rng):
        for _ in range(20):
            L = rng.randint(1, 3)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(L)), reverse=True)
            )
            tau = F(rng.randint(1, 12), 12)
            W = F(rng.randint(0, 12), 12)
            r = find_optimal_junta(JuntaRequest(probs, tau, W))
            assert all(w >= 0 for w in r.weights)
            assert sum(r.weights) <= W

    def test_monotone_restriction_is_lossless(self, rng):
        for _ in range(20):
            L = rng.randint(1, 3)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(L)), reverse=True)
            )
            tau = F(rng.randint(1, 12), 12)
            W = F(rng.randint(4, 12), 12)
            a = find_optimal_junta(JuntaRequest(probs, tau, W))
            b = find_optimal_junta(
                JuntaRequest(probs, tau, W), sets=enumerate_halfspace_sets(L)
            )
            assert a.value == b.value

    def test_threads_do_not_change_result(self):
        probs = (F(7, 10), F(3, 5), F(1, 2))
        a = find_optimal_junta(JuntaRequest(probs, F(1, 2), F(1)), threads=1)
        b = find_optimal_junta(JuntaRequest(probs, F(1, 2), F(1)), threads=4)
        assert a == b

    def test_nonpositive_threshold_degenerates_to_full_event(self):
        r = find_optimal_junta(JuntaRequest((F(1, 2),), F(-1, 4), F(1)))
        assert r.value == 1 and r.weights == (F(0),)

    def test_validation(self):
        with pytest.raises(InputError):
            JuntaRequest((), F(1, 2), F(1))
        with pytest.raises(InputError):
            JuntaRequest((F(1, 2), F(3, 4)), F(1, 2), F(1))  # unsorted
        with pytest.raises(InputError):
            JuntaRequest((F(1, 2),), F(1, 2), F(3, 2))  # budget > 1


# sha256 of every witness, value and sets_examined over the grid below,
# taken before the junta's LP was shared with the best-head chain search.
PINNED_WITNESSES = "7f877eff5f758fe3c50836b5e28cff7c3084d29bb3286a0a57d531534b047783"


def test_witnesses_pinned():
    heads = {
        1: (F(7, 10),),
        2: (F(7, 10), F(3, 5)),
        3: (F(3, 4), F(3, 5), F(2, 5)),
        4: (F(4, 5), F(2, 3), F(1, 2), F(1, 3)),
    }
    h = hashlib.sha256()
    for L, probs in heads.items():
        for tau in (F(0), F(1, 8), F(1, 3), F(1, 2), F(3, 4), F(5, 4)):
            for W in (F(1, 4), F(1, 2), F(1)):
                r = find_optimal_junta(JuntaRequest(probs, tau, W))
                weights = " ".join(map(str, r.weights))
                h.update(f"{L} {tau} {W} {weights} {r.value} {r.sets_examined}\n".encode())
    assert h.hexdigest() == PINNED_WITNESSES
