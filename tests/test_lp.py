import itertools
import logging
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storalloc.errors import InputError
from storalloc.lp import LinearProgram, lp_solve

from conftest import fraction_lp_solve, naive_objective
from lemmas import CanonicalizeResult, canonicalize_tail


class TestSimplex:
    def test_single_variable(self):
        r = lp_solve(LinearProgram(1, [([F(1)], "<=", F(1))], ([F(1)], "max")))
        assert r.status == "optimal" and r.x == (F(1),) and r.objective_value == 1

    def test_contradiction_infeasible(self):
        r = lp_solve(
            LinearProgram(1, [([F(1)], ">=", F(1)), ([F(1)], "<=", F(0))], None)
        )
        assert r.status == "infeasible"

    def test_unbounded(self):
        r = lp_solve(LinearProgram(1, [([F(1)], ">=", F(0))], ([F(1)], "max")))
        assert r.status == "unbounded"

    def test_head_program_for_singleton_set(self):
        # the head feasibility program for S={(1,1)}, tau=3/4, W=1
        cons = [
            ([F(1), F(1)], ">=", F(3, 4)),
            ([F(1), F(1)], "<=", F(1)),
        ]
        r = lp_solve(LinearProgram(2, cons, None))
        assert r.status == "optimal"
        x = r.x
        assert x[0] >= 0 and x[1] >= 0 and x[0] + x[1] >= F(3, 4) and x[0] + x[1] <= 1

    def test_equality_and_min(self):
        cons = [([F(1), F(1)], "=", F(2)), ([F(1), F(-1)], "=", F(0))]
        r = lp_solve(LinearProgram(2, cons, ([F(3), F(1)], "min")))
        assert r.status == "optimal" and r.x == (F(1), F(1)) and r.objective_value == 4

    def test_malformed(self):
        with pytest.raises(InputError):
            lp_solve(LinearProgram(2, [([F(1)], "<=", F(1))], None))
        with pytest.raises(InputError):
            lp_solve(LinearProgram(1, [([F(1)], "<>", F(1))], None))

    def test_agrees_with_vertex_enumeration(self):
        # random bounded 3-variable programs: optimal value must match the
        # max over all basis candidates (triples of tight constraints)
        rng = random.Random(99)
        for trial in range(60):
            rows = [
                (
                    [F(rng.randint(-4, 4)) for _ in range(3)],
                    "<=",
                    F(rng.randint(-2, 8)),
                )
                for _ in range(4)
            ]
            # box keeps it bounded; x >= 0 implicit in lp_solve
            for j in range(3):
                e = [F(0)] * 3
                e[j] = F(1)
                rows.append((e, "<=", F(5)))
            obj = [F(rng.randint(-3, 3)) for _ in range(3)]
            got = lp_solve(LinearProgram(3, rows, (obj, "max")))
            status, best = _brute_force_lp(3, rows, (obj, "max"))
            assert status != "unbounded"
            assert got.status == status
            if status == "optimal":
                assert got.objective_value == best

    def test_returned_point_is_vertex(self):
        # for all-nonnegative programs, n linearly independent constraints
        # (including nonnegativity) must be tight at the solution
        rng = random.Random(5)
        for _ in range(30):
            rows = [
                (
                    [F(rng.randint(0, 4)) for _ in range(3)],
                    "<=",
                    F(rng.randint(1, 8)),
                )
                for _ in range(4)
            ]
            obj = [F(rng.randint(1, 3)) for _ in range(3)]
            got = lp_solve(LinearProgram(3, rows, (obj, "max")))
            if got.status != "optimal":
                continue
            tight = []
            for coef, _, rhs in [(r[0], r[1], r[2]) for r in rows]:
                if sum(c * v for c, v in zip(coef, got.x)) == rhs:
                    tight.append(tuple(coef))
            for j in range(3):
                if got.x[j] == 0:
                    e = [F(0)] * 3
                    e[j] = F(1)
                    tight.append(tuple(e))
            assert _rank3(tight) == 3


def _solve_square(a, b):
    """The unique x with a x = b (exact Gauss-Jordan), None if a is singular."""
    n = len(a)
    mat = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col] / mat[col][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return [mat[i][n] / mat[i][i] for i in range(n)]


def _holds(coeffs, rel, rhs, x):
    lhs = sum(c * v for c, v in zip(coeffs, x))
    return {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[rel]


def _vertices(n, rows):
    """Every vertex of {x >= 0 : rows}, by solving each n-subset of the
    constraints (rows and x_j >= 0) with equality and keeping feasible points."""
    planes = [(tuple(F(c) for c in coeffs), F(rhs)) for coeffs, _, rhs in rows]
    planes += [(tuple(F(int(i == j)) for i in range(n)), F(0)) for j in range(n)]
    out = []
    for subset in itertools.combinations(planes, n):
        x = _solve_square([p[0] for p in subset], [p[1] for p in subset])
        if x is not None and min(x) >= 0 and all(_holds(*row, x) for row in rows):
            out.append(x)
    return out


def _brute_force_lp(n, rows, objective):
    """(status, optimal value) of max/min objective over {x >= 0 : rows}.

    The set has a vertex iff it is non-empty (x >= 0 rules out lines).  The
    objective is unbounded iff some recession direction d >= 0 improves it;
    scaled to sum(d) = 1 these directions form a polytope, so both questions
    reduce to vertex enumeration.
    """
    points = _vertices(n, rows)
    if not points:
        return "infeasible", None
    if objective is None:
        return "optimal", None
    coeffs, direction = objective
    sign = 1 if direction == "max" else -1
    cone = [(c, rel, 0) for c, rel, _ in rows] + [([1] * n, "=", 1)]
    if any(sign * sum(c * d for c, d in zip(coeffs, v)) > 0 for v in _vertices(n, cone)):
        return "unbounded", None
    values = [sum(c * x for c, x in zip(coeffs, p)) for p in points]
    return "optimal", max(values) if sign == 1 else min(values)


small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def small_lps(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(small_int, min_size=n, max_size=n),
                st.sampled_from(("<=", ">=", "=")),
                st.integers(min_value=-4, max_value=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    objective = None
    if draw(st.integers(min_value=0, max_value=3)):  # 0: a pure feasibility program
        coeffs = draw(st.lists(small_int, min_size=n, max_size=n))
        objective = (coeffs, draw(st.sampled_from(("max", "min"))))
    return n, rows, objective


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(small_lps())
def test_simplex_matches_vertex_enumeration(lp):
    n, rows, objective = lp
    got = lp_solve(LinearProgram(n, rows, objective))
    status, value = _brute_force_lp(n, rows, objective)
    assert got.status == status
    if status == "optimal":
        assert min(got.x) >= 0 and all(_holds(*row, got.x) for row in rows)
        if objective is not None:
            assert got.objective_value == value
            assert sum(c * x for c, x in zip(objective[0], got.x)) == value


# Coefficients with mixed small denominators, so rows scale by different
# lcms; small numerators make tied ratios common.
mixed = st.builds(F, st.integers(-5, 5), st.sampled_from((1, 1, 2, 3, 4, 6, 7)))


@st.composite
def rational_lps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(
        st.lists(mixed, min_size=n, max_size=n), st.sampled_from(("<=", ">=", "=")), mixed
    )
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):  # duplicates, rescaled
        coeffs, rel, rhs = draw(st.sampled_from(rows))
        k = draw(st.sampled_from((F(1), F(2), F(1, 3))))
        rows.append(([k * c for c in coeffs], rel, k * rhs))
    eqs = [r for r in rows if r[1] == "="]
    if len(eqs) >= 2 and draw(st.booleans()):  # a redundant equality
        (a, _, b), (c, _, d) = eqs[:2]
        rows.append(([x + y for x, y in zip(a, c)], "=", b + d))
    objective = draw(
        st.one_of(
            st.none(),
            st.tuples(st.lists(mixed, min_size=n, max_size=n), st.sampled_from(("max", "min"))),
        )
    )
    return n, rows, objective


def _solved(solve, lp):
    res = solve(LinearProgram(*lp))
    return res.status, res.x, res.objective_value


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(rational_lps())
def test_integer_simplex_matches_fraction_simplex(lp):
    assert _solved(lp_solve, lp) == _solved(fraction_lp_solve, lp)


def test_integer_simplex_matches_fraction_simplex_on_every_status():
    # Seeded programs of the same shape: all three statuses occur, so the
    # agreement is not carried by one kind of program.
    seen = set()
    for seed in range(300):
        lp = _seeded_lp(random.Random(seed))
        got = _solved(lp_solve, lp)
        assert got == _solved(fraction_lp_solve, lp)
        seen.add(got[0])
    assert seen == {"optimal", "infeasible", "unbounded"}


def _seeded_lp(rng):
    def q():
        return F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4, 6, 7)))

    n = rng.randint(1, 4)
    rows = [
        ([q() for _ in range(n)], rng.choice(("<=", ">=", "=")), q())
        for _ in range(rng.randint(1, 5))
    ]
    objective = None if rng.random() < 0.25 else ([q() for _ in range(n)], rng.choice(("max", "min")))
    return n, rows, objective


def test_negative_drive_out_pivot():
    # Both equalities have rhs 0, so phase 1 ends at once with both
    # artificials basic.  Driving out the last one pivots on its -1 (the
    # tableau is negated), and the first row becomes redundant and is dropped.
    lp = (2, [([F(1), F(-1)], "=", F(0)), ([F(-1), F(1)], "=", F(0)), ([F(1), F(1)], "<=", F(2))],
          ([F(1), F(0)], "max"))
    assert _solved(lp_solve, lp) == ("optimal", (F(1), F(1)), F(1)) == _solved(fraction_lp_solve, lp)


def test_debug_line_per_solve(caplog):
    lp = LinearProgram(2, [([F(1), F(1)], ">=", F(1, 2)), ([F(1, 3), F(1)], "<=", F(1))],
                       ([F(1), F(2)], "max"))
    with caplog.at_level(logging.DEBUG, logger="storalloc.lp"):
        res = lp_solve(lp)
        lp_solve(LinearProgram(1, [([F(1)], ">=", F(1)), ([F(1)], "<=", F(0))], None))
    assert res.x == (F(3), F(0)) and res.objective_value == 3
    assert [r.getMessage() for r in caplog.records if r.name == "storalloc.lp"] == [
        "lp_solve: 2 rows, 2 columns, 1 phase-1 and 3 phase-2 pivots, optimal",
        "lp_solve: 2 rows, 1 columns, 1 phase-1 and 0 phase-2 pivots, infeasible",
    ]


def _rank3(rows):
    rank = 0
    mat = [list(r) for r in rows]
    for col in range(3):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == 3:
            break
    return rank


def random_sorted_unit_weights(rng, n):
    raw = sorted((rng.randint(1, 12) for _ in range(n)), reverse=True)
    total = sum(raw)
    return tuple(F(a, total) for a in raw)


def event_members(w, theta):
    n = len(w)
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if sum(x * b for x, b in zip(w, bits)) >= theta:
            out.append(bits)
    return out


class TestCanonicalizeTail:
    def test_zero_tail_returns_unchanged(self):
        w = (F(3, 5), F(2, 5), F(0), F(0))
        res = canonicalize_tail(w, 2, F(1, 2))
        assert res.case == 0 and res.v == w

    def test_spec_example_postconditions(self):
        w = (F(1, 2), F(1, 4), F(1, 4))
        res = canonicalize_tail(w, 1, F(1, 2))
        _check_postconditions(w, 1, F(1, 2), res)

    def test_random_suite_with_objective_comparison(self, rng):
        for trial in range(60):
            n = rng.randint(2, 6)
            w = random_sorted_unit_weights(rng, n)
            K = rng.randint(1, n)
            theta = F(rng.randint(1, 11), 12)
            res = canonicalize_tail(w, K, theta)
            _check_postconditions(w, K, theta, res)
            probs = [F(rng.randint(1, 9), 10) for _ in range(n)]
            before = naive_objective(probs, w, theta)
            after = naive_objective(probs, res.v, theta)
            assert after >= before

    def test_case2_t_star_lower_bound(self, rng):
        # whenever the heavy-tail case fires, t* >= (K+2)^(-(K+2)/2) / W_T,
        # compared exactly via squares
        seen = 0
        for trial in range(80):
            n = rng.randint(2, 6)
            w = random_sorted_unit_weights(rng, n)
            K = rng.randint(1, n - 1)
            theta = F(rng.randint(1, 11), 12)
            res = canonicalize_tail(w, K, theta)
            if res.case != 2:
                continue
            seen += 1
            W_T = sum(w[K:])
            lhs = (res.vertex.t_star * W_T) ** 2 * (K + 2) ** (K + 2)
            assert lhs >= 1
        assert seen > 0  # the suite must actually exercise case II

    def test_vertex_satisfies_linearized_constraints(self, rng):
        # (t*, s*, delta*) must satisfy the Charnes-Cooper system exactly
        for _ in range(25):
            n = rng.randint(2, 5)
            w = random_sorted_unit_weights(rng, n)
            K = rng.randint(1, n - 1)
            theta = F(rng.randint(1, 11), 12)
            res = canonicalize_tail(w, K, theta)
            if res.vertex is None:
                continue
            t, s, delta = res.vertex.t_star, res.vertex.s_star, res.vertex.delta_star
            assert delta >= theta
            W_T = sum(w[K:])
            # (iii) normalization
            assert sum(s) + W_T * t == 1
            # (ii) ordering chain down to the first tail weight
            for i in range(K - 1):
                assert s[i] >= s[i + 1]
            assert s[K - 1] >= w[K] * t
            # (i) every satisfying outcome keeps the linearized margin
            for x in event_members(w, theta):
                lhs = sum(si * b for si, b in zip(s, x[:K]))
                lhs += t * sum(wi * b for wi, b in zip(w[K:], x[K:]))
                assert lhs >= delta
            # (iv)
            assert t >= 0

    def test_validation_errors(self):
        with pytest.raises(InputError):
            canonicalize_tail((F(1, 2), F(1, 2)), 1, F(0))
        with pytest.raises(InputError):
            canonicalize_tail((F(1, 4), F(1, 4)), 1, F(1, 2))  # sum != 1
        with pytest.raises(InputError):
            canonicalize_tail((F(1, 4), F(3, 4)), 1, F(1, 2))  # unsorted


def _check_postconditions(w, K, theta, res: CanonicalizeResult):
    v = res.v
    n = len(w)
    # (a) sum 1, sorted, non-negative
    assert sum(v) == 1
    assert all(v[i] >= v[i + 1] for i in range(n - 1))
    assert v[-1] >= 0
    # (b) S-preservation, exact
    for x in event_members(w, theta):
        assert sum(vi * b for vi, b in zip(v, x)) >= theta
    # (c) junta or bounded head/tail ratio (squared comparison, exact)
    tail = sum(v[K:])
    head = sum(v[:K])
    if tail != 0:
        assert head * head <= (K + 2) ** (K + 2) * tail * tail
