import ast
import hashlib
import inspect
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storalloc
from storalloc import evaluate, halfspaces, junta, lp
from storalloc.baselines import brute_force_optimum
from storalloc.core import MAX_K, SolverConfig
from storalloc.errors import InputError
from storalloc.halfspaces import is_upward_closed, minimal_members, point_bits
from storalloc.junta import (
    JuntaRequest,
    _scan_order,
    family_numerators,
    find_optimal_junta,
    outcome_numerators,
    upward_family,
)
from storalloc.lp import lp_solve
from storalloc.small_ci import chain_lp, find_best_head

import margin_table
import test_halfspaces
from margin_table import grid_family
from conftest import (
    cached_set_margin,
    fraction_junta_scan,
    granular_instance,
    grid_junta_value,
    literal_best_head_value,
    lp_threshold_masks,
    lp_scan_junta,
    mask_probability,
    naive_objective,
    outcome_probabilities,
    set_numerators,
)


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
        # The LP scan over every realizable set, upward-closed or not,
        # finds nothing the library's upward-closed scan misses.
        for _ in range(20):
            L = rng.randint(1, 3)
            probs = tuple(
                sorted((F(rng.randint(2, 8), 10) for _ in range(L)), reverse=True)
            )
            tau = F(rng.randint(1, 12), 12)
            W = F(rng.randint(4, 12), 12)
            a = find_optimal_junta(JuntaRequest(probs, tau, W))
            assert a.value == lp_scan_junta(probs, tau, W, grid_family(L, False))

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
        with pytest.raises(InputError):
            JuntaRequest((F(1, 2),), F(1, 2), F(-1, 2))  # budget < 0
        for p in (F(0), F(1), F(-1, 3), F(4, 3)):
            with pytest.raises(InputError):
                JuntaRequest((p,), F(1, 2), F(1))  # p outside (0, 1)
        # ties and budgets at the ends of [0, 1] are accepted
        JuntaRequest((F(2, 3), F(4, 6), F(1, 7)), F(1, 2), F(0))
        JuntaRequest((F(1, 2),), F(1, 2), F(1))


@st.composite
def junta_requests(draw):
    L = draw(st.integers(min_value=1, max_value=4))
    probs = tuple(
        sorted((F(draw(st.integers(1, 19)), 20) for _ in range(L)), reverse=True)
    )
    tau = F(draw(st.integers(-4, 52)), 40)  # [-1/10, 13/10]
    W = F(draw(st.integers(0, 24)), 24)
    return probs, tau, W


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(junta_requests())
def test_scan_matches_lp_scan(request):
    probs, tau, W = request
    r = find_optimal_junta(JuntaRequest(probs, tau, W))
    assert r.value == lp_scan_junta(probs, tau, W, grid_family(len(probs), True))
    assert all(w >= 0 for w in r.weights) and sum(r.weights) <= W
    assert naive_objective(probs, r.weights, tau) == r.value


@st.composite
def scan_requests(draw):
    """Requests at the edges of the integer test tau W_d v_d <= W_n tau_d v_n:
    tau <= 0, tau > W, W = 0, and tau exactly W v(S) for a set S of the
    head's family (equal margins), besides free draws."""
    L = draw(st.integers(min_value=1, max_value=4))
    probs = tuple(sorted((F(draw(st.integers(1, 19)), 20) for _ in range(L)), reverse=True))
    W = draw(st.sampled_from([F(0), F(1), F(draw(st.integers(1, 23)), 24)]))
    kind = draw(st.sampled_from(["free", "nonpositive", "above_budget", "on_margin"]))
    if kind == "nonpositive":
        tau = F(-draw(st.integers(0, 4)), 40)
    elif kind == "above_budget":
        tau = W + F(draw(st.integers(1, 8)), 40)
    elif kind == "on_margin":
        masks = upward_family(L)[0][1:]
        tau = W * cached_set_margin(draw(st.sampled_from(masks)), L)[0]
    else:
        tau = F(draw(st.integers(-4, 52)), draw(st.sampled_from([40, 41, 120])))
    return probs, tau, W


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(scan_requests())
def test_integer_scan_matches_fraction_scan(request):
    # weights, value and sets_examined all equal the Fraction reference's
    req = JuntaRequest(*request)
    assert find_optimal_junta(req) == fraction_junta_scan(req)


@st.composite
def granular_heads(draw):
    """Sorted probabilities on a 1/8 or 1/40 grid (the coarse one ties
    often), n <= 8, L <= min(n, 5), and theta free or exactly the margin
    v(S) of a non-empty upward-closed set S of the head (tau = W v(S))."""
    n = draw(st.integers(1, 8))
    L = draw(st.integers(1, min(n, 5)))
    den = draw(st.sampled_from([8, 40]))
    probs = tuple(sorted((F(draw(st.integers(1, den - 1)), den) for _ in range(n)), reverse=True))
    if draw(st.booleans()):
        theta = cached_set_margin(draw(st.sampled_from(upward_family(L)[0][1:])), L)[0]
    else:
        theta = F(draw(st.integers(1, 47)), 48)
    return probs, L, theta


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(granular_heads())
def test_junta_value_is_the_exact_objective_of_its_head_with_a_zero_tail(case):
    # the identity the driver's exact_objective rests on: the scan's P(S)
    # is the probability of the event its witness realizes on the full
    # instance when every tail weight is zero
    probs, L, theta = case
    r = find_optimal_junta(JuntaRequest(probs[:L], theta, F(1)))
    weights = r.weights + (F(0),) * (len(probs) - L)
    assert r.value == evaluate.exact_objective_probs(probs, weights, theta)


def test_margin_decides_feasibility(rng):
    # tau <= W v(S) iff the membership LP of S is feasible, for every
    # non-empty upward-closed S with k <= 4 and v(S) = e / sum(c) read from
    # the committed table, at random (tau > 0, W) and on the boundary
    # tau = W v(S); margin_admits agrees, and u = c / sum(c) attains v(S).
    for k in range(1, 5):
        rows = junta._load_table(k)[3].tolist()
        for i, mask in enumerate(upward_family(k)[0][1:], 1):
            e, *c = rows[i]
            v = F(e, sum(c))
            dots = [sum(b * x for b, x in zip(point_bits(p, k), c)) for p in minimal_members(mask, k)]
            assert F(min(dots), sum(c)) == v
            cases = [(F(rng.randint(1, 30), 24), F(rng.randint(0, 24), 24)) for _ in range(3)]
            if v:
                cases.append((v / 2, F(1, 2)))
            for tau, W in cases:
                res = lp_solve(chain_lp((mask,), (tau,), W, k))
                assert (tau <= W * v) == (res.status == "optimal"), (k, mask, tau, W)
                lhs, rhs = tau.numerator * W.denominator, W.numerator * tau.denominator
                assert junta.margin_admits(i, k, lhs, rhs) == (tau <= W * v)


def test_every_margin_carries_a_checked_certificate():
    # integer arithmetic only (junta module docstring): for each non-empty
    # set, the row's u = c / sum(c) attains e / sum(c) on min(S), and the
    # dual weights lambda / d bound every head's margin by e / sum(c); the
    # empty set's row is (1, 0, ..., 0)
    lines = iter(margin_table.CERTIFICATES_PATH.read_text().splitlines())
    for k in range(1, MAX_K + 1):
        masks, rows = upward_family(k)[0], junta._load_table(k)[3].tolist()
        assert len(rows) == len(masks) and rows[0] == [1] + [0] * k
        for mask, (e, *c) in zip(masks[1:], rows[1:]):
            d, *lam = map(int, next(lines))
            members = [point_bits(x, k) for x in minimal_members(mask, k)]
            total = sum(c)
            assert e >= 0 and min(c) >= 0 and total > 0
            assert all(sum(b * x for b, x in zip(bits, c)) >= e for bits in members), (k, mask)
            assert len(lam) == len(members) and min(lam) >= 0 and sum(lam) == d > 0
            for j in range(k):
                assert sum(w * bits[j] for w, bits in zip(lam, members)) * total <= e * d, (k, mask, j)
    assert next(lines, None) is None


def test_committed_table_is_the_generators_output():
    # about 3 500 exact margin LPs
    with open(junta._TABLE_PATH, "rb") as fh:
        assert fh.read() == margin_table.table_bytes()


# The names of the weight grid and its closures in the table's generator
GRID_CODE = {
    "GRID_BOUND", "_BLOCK_BYTES", "_canonical_grid_masks", "_close", "_masks", "_merge", "grid_family",
}


def test_solve_and_oracle_run_no_lp(cold_junta, monkeypatch):
    # from empty junta caches, seeded solves at every L_cap and the exact
    # oracle at every n it covers read the committed table and solve no LP
    tree = ast.parse(inspect.getsource(junta))
    assert "lp" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}

    def refuse(program):
        raise AssertionError("an LP was solved")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "storalloc":
            for attr, value in list(vars(module).items()):
                if value is lp.lp_solve:
                    monkeypatch.setattr(module, attr, refuse)
    rng = random.Random("no-lp")
    for L_cap in range(1, MAX_K + 1):
        probs = [rng.randint(30, 70) / 100 for _ in range(8)]
        config = SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=L_cap, seed=rng.randrange(1 << 31))
        assert storalloc.solve(probs, F(1, 2), F(1, 4), F(1, 20), config).L == L_cap
    for n in range(1, MAX_K + 1):
        inst = granular_instance(rng, n, F(1, 2), F(1, 4))
        res = brute_force_optimum(inst, allow_grid_n5=True)
        assert naive_objective(inst.probs, res.witness, inst.theta) == res.opt_value


def test_solve_and_oracle_enumerate_no_halfspaces(cold_junta):
    # no package module holds the weight grid or its closures, which the
    # table's generator does, and halfspaces hands out the table's family
    # (one table line loaded from a cold cache), so no solve, oracle call
    # or best-head search enumerates halfspaces; a best-head search on
    # the table's family agrees with the literal search on the grid's
    for path in Path(storalloc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assigned = (node.targets for node in tree.body if isinstance(node, ast.Assign))
        names |= {t.id for targets in assigned for t in targets if isinstance(t, ast.Name)}
        assert not names & GRID_CODE, path.name
    assert GRID_CODE <= set(vars(margin_table))
    halfspaces.enumerate_halfspace_sets(4, monotone=True)
    assert junta._load_table.cache_info().currsize == 1
    args = ((F(3, 4), F(3, 5), F(2, 5)), [F(0), F(1, 4)], F(1), F(1, 2))
    assert find_best_head(*args).value == literal_best_head_value(*args)


def test_committed_families_are_the_upward_closed_threshold_sets():
    # the masks the table states, checked with no margin LP and no weight
    # grid: ascending, upward-closed, the known counts, the empty set and
    # the full cube at the ends with their fixed rows, the separability
    # oracle's family up to k = 4 (cached for the session) and the pinned
    # digest at k = 5
    for k, count in zip(range(1, MAX_K + 1), (3, 6, 20, 150, 3287)):
        masks, array, _, rows, _, _ = junta._load_table(k)
        rows = rows.tolist()
        assert len(masks) == len(rows) == count and array.tolist() == masks
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert all(is_upward_closed(mask, k) for mask in masks)
        assert masks[0] == 0 and rows[0] == [1] + [0] * k
        assert masks[-1] == (1 << (1 << k)) - 1 and rows[-1] == [0] + [1] * k
        if k <= 4:
            assert masks == list(lp_threshold_masks(k, monotone=True))
    digest = hashlib.sha256(" ".join(map(str, masks)).encode()).hexdigest()
    assert digest == test_halfspaces.TestEnumeration.K5_DIGESTS[True]


@pytest.mark.parametrize("k", range(1, 6))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_integer_numerators_match_fraction_sums(k, data):
    # P(S) = family_numerators / D for every upward-closed S, at arbitrary
    # (large) denominators; D is the product of the p_j's denominators.
    probs = data.draw(st.lists(st.fractions(min_value=0, max_value=1), min_size=k, max_size=k))
    nums, D = outcome_numerators(probs)
    assert D == math.prod(p.denominator for p in probs) and sum(nums) == D
    point_probs = outcome_probabilities(probs)
    masks = upward_family(k)[0]
    for mask, num in zip(masks, family_numerators(nums, k).tolist(), strict=True):
        assert F(num, D) == mask_probability(point_probs, mask)


_head_prob = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=4),  # ties in P(S)
    st.fractions(min_value=0, max_value=1),
)


def _scan_pairs(probs):
    """_scan_order's (D, [(D P(S), mask) in scan order]), after checking
    that its scores align with the family's masks."""
    D, scores, order = _scan_order(probs)
    masks = upward_family(len(probs))[0]
    assert scores.tolist() == set_numerators(outcome_numerators(probs)[0], masks)
    return D, [(int(scores[i]), masks[i]) for i in order.tolist()]


def _sorted_reference(probs):
    """(D, the non-empty upward-closed sets' (D P(S), mask) by (-P(S), mask))."""
    nums, D = outcome_numerators(probs)
    masks = [mask for mask in grid_family(len(probs), True) if mask]
    return D, sorted(zip(set_numerators(nums, masks), masks), key=lambda item: (-item[0], item[1]))


@pytest.mark.parametrize("k", range(1, 6))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_scan_order_matches_sorted_reference(k, data):
    probs = tuple(sorted(data.draw(st.lists(_head_prob, min_size=k, max_size=k)), reverse=True))
    assert _scan_pairs(probs) == _sorted_reference(probs)


@pytest.mark.parametrize(
    "probs, dtype",
    [
        ((F(2, 3), F(1, 2**62 + 1)), object),  # D = 3 (2^62 + 1) > 2^63 - 1
        ((F(2, 3), F(1, 2**61)), np.int64),  # D = 3 2^61 fits
        # k = 5 with D of 250 bits: odd 50-bit denominators, coprime to 2^(49 - j)
        (tuple(F(2 ** (49 - j), 2**50 - 2 * j - 1) for j in range(5)), object),
    ],
)
def test_scan_order_dtype_follows_the_common_denominator(monkeypatch, probs, dtype):
    # past int64 the scores are Python ints from the per-byte tables; within
    # it they are one int64 product with the member matrix, and no tables
    seen = []

    def spy(columns):
        seen.append(columns.dtype)
        return evaluate._byte_tables(columns)

    monkeypatch.setattr(junta, "_byte_tables", spy)
    if len(probs) == 5:
        assert outcome_numerators(probs)[1].bit_length() == 250
    assert _scan_pairs(probs) == _sorted_reference(probs)
    assert seen == ([np.dtype(object)] if dtype is object else [])
    assert _scan_order(probs)[1].dtype == np.dtype(dtype)


@pytest.mark.parametrize(
    "n, seed, theta", [(4, 0, F(1, 2)), (4, 1, F(3, 4)), (4, 2, F(1, 3)), (5, 0, F(3, 5))]
)
def test_oracle_matches_lp_scan(n, seed, theta):
    # The exact oracle (the integer scan at full dimension) against one
    # feasibility LP per upward-closed set, each witness scored by naive
    # enumeration.
    inst = granular_instance(random.Random(f"oracle-{n}-{seed}"), n, theta, F(1, 4))
    res = brute_force_optimum(inst, allow_grid_n5=True)
    assert res.opt_value == lp_scan_junta(inst.probs, inst.theta, 1, grid_family(n, True))
    assert naive_objective(inst.probs, res.witness, inst.theta) == res.opt_value


# sha256 of every witness and value over the grid below, taken before the
# junta scan used cached set margins; sets_examined is checked on its own.
PINNED_WITNESSES = "39492b454b52b2b40f9cf70f0215504457942f948eb32a147279ac51cc452e56"


def test_witnesses_pinned():
    heads = {
        1: (F(7, 10),),
        2: (F(7, 10), F(3, 5)),
        3: (F(3, 4), F(3, 5), F(2, 5)),
        4: (F(4, 5), F(2, 3), F(1, 2), F(1, 3)),
    }
    h = hashlib.sha256()
    for L, probs in heads.items():
        n_sets = len(grid_family(L, True)) - 1  # the empty set is never scanned
        for tau in (F(0), F(1, 8), F(1, 3), F(1, 2), F(3, 4), F(5, 4)):
            for W in (F(1, 4), F(1, 2), F(1)):
                r = find_optimal_junta(JuntaRequest(probs, tau, W))
                weights = " ".join(map(str, r.weights))
                h.update(f"{L} {tau} {W} {weights} {r.value}\n".encode())
                assert r.sets_examined <= n_sets
                if tau > 0:
                    assert r.sets_examined >= 1
    assert h.hexdigest() == PINNED_WITNESSES


# Prints the results of a fixed list of requests and an n = 5 oracle;
# with "warm", unrelated requests of every head length run first and load
# the family and margin tables.
_CACHE_SCRIPT = """
import sys
from fractions import Fraction as F
from storalloc.baselines import brute_force_optimum
from storalloc.core import preprocess
from storalloc.junta import JuntaRequest, find_optimal_junta

def run(requests):
    return [find_optimal_junta(JuntaRequest(*req)) for req in requests]

if sys.argv[1] == "warm":
    run([
        ((F(9, 10),), F(1, 3), F(1)),
        ((F(3, 5), F(1, 2)), F(1, 4), F(1, 2)),
        ((F(2, 3), F(1, 2), F(1, 4)), F(2, 3), F(1)),
        ((F(4, 5), F(3, 5), F(2, 5), F(1, 5)), F(1, 2), F(3, 4)),
        ((F(3, 5), F(11, 20), F(1, 2), F(9, 20), F(2, 5)), F(1, 3), F(1)),
        ((F(1, 2), F(1, 2), F(1, 3)), F(9, 10), F(1)),
    ])
heads = [
    (F(7, 10), F(3, 5)),
    (F(3, 4), F(3, 5), F(2, 5)),
    (F(4, 5), F(2, 3), F(1, 2), F(1, 3)),
    (F(3, 5), F(3, 5), F(1, 2), F(2, 5)),
    (F(9, 10), F(1, 10)),
]
requests = [(head, tau, W) for head in heads for tau in (F(1, 3), F(3, 5)) for W in (F(1, 2), F(1))]
requests += requests[:4]  # the first head again, on the tables it filled
for r in run(requests):
    print(r)
pre = preprocess([0.55, 0.62, 0.41, 0.33, 0.7], 0.5, 0.25, 0.05)
print(brute_force_optimum(pre.instance, allow_grid_n5=True))
"""


def test_results_do_not_depend_on_cache_state():
    src = str(Path(storalloc.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for mode in ("cold", "warm"):
        proc = subprocess.run(
            [sys.executable, "-c", _CACHE_SCRIPT, mode],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("JuntaResult") == 24 and "OracleResult" in outputs[0]
