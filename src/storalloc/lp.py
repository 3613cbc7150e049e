"""Exact rational linear programming, sized for this package's programs.

Two-phase primal simplex over Fractions with Bland's rule (deterministic,
cycle-free).  Programs here have at most a few dozen variables and a few
hundred constraints, so a dense tableau is the right tool; there is
deliberately no floating-point path.

Every variable is non-negative, and the returned optimum is a basic
feasible solution, i.e. a vertex of the feasible polytope.  A caller that
needs an unrestricted variable splits it into two non-negative columns
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .util import to_fraction

RELATIONS = ("<=", ">=", "=")


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


@dataclass
class LinearProgram:
    """max/min of a linear objective over linear constraints.

    Every variable is non-negative.  ``objective`` None means a pure
    feasibility problem.
    """

    n_vars: int
    constraints: list
    objective: Optional[tuple] = None  # (coeffs, "max" | "min")

    def normalized(self) -> "LinearProgram":
        if self.n_vars < 1:
            raise InputError("LP needs at least one variable")
        rows = []
        for item in self.constraints:
            coeffs, rel, rhs = item
            coeffs = tuple(to_fraction(c) for c in coeffs)
            if len(coeffs) != self.n_vars:
                raise InputError("constraint row length mismatch")
            if rel not in RELATIONS:
                raise InputError(f"unknown relation {rel!r}")
            rows.append(Constraint(coeffs, rel, to_fraction(rhs)))
        objective = None
        if self.objective is not None:
            ocoeffs, direction = self.objective
            ocoeffs = tuple(to_fraction(c) for c in ocoeffs)
            if len(ocoeffs) != self.n_vars or direction not in ("max", "min"):
                raise InputError("malformed objective")
            objective = (ocoeffs, direction)
        return LinearProgram(self.n_vars, rows, objective)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None


def _pivot(rows, obj, basis, r, c):
    piv = rows[r][c]
    inv = 1 / piv
    rows[r] = [v * inv for v in rows[r]]
    prow = rows[r]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    if obj[c] != 0:
        f = obj[c]
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[r] = c


def _optimize(rows, obj, basis, allowed) -> str:
    """Maximize with Bland's rule; obj holds reduced costs z_j - c_j."""
    while True:
        enter = -1
        for j in allowed:
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(rows, obj, basis, leave, enter)


def _price_out(costs, rows, basis, width):
    obj = [-c for c in costs] + [Fraction(0)]
    for i, b in enumerate(basis):
        cb = costs[b]
        if cb != 0:
            obj = [a + cb * v for a, v in zip(obj, rows[i])]
    assert len(obj) == width + 1
    return obj


def lp_solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex.  See module docstring for guarantees."""
    lp = lp.normalized()

    # Column layout: structural columns, then slacks, then artificials.
    n_struct = lp.n_vars

    slack_count = sum(1 for c in lp.constraints if c.relation != "=")
    rows_spec = []
    for con in lp.constraints:
        coeffs, rel, rhs = con.coeffs, con.relation, con.rhs
        if rhs < 0:
            coeffs = tuple(-c for c in coeffs)
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows_spec.append((coeffs, rel, rhs))

    art_count = sum(1 for _, rel, _ in rows_spec if rel != "<=")
    width = n_struct + slack_count + art_count
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = n_struct
    art_at = n_struct + slack_count
    for coeffs, rel, rhs in rows_spec:
        row = [Fraction(0)] * (width + 1)
        row[:n_struct] = coeffs
        row[-1] = rhs
        if rel == "<=":
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        rows.append(row)

    art_start = n_struct + slack_count
    non_art_cols = list(range(art_start))
    all_cols = list(range(width))

    # Phase 1: maximize -sum(artificials).
    if art_count:
        costs1 = [Fraction(0)] * width
        for j in range(art_start, width):
            costs1[j] = Fraction(-1)
        obj = _price_out(costs1, rows, basis, width)
        status = _optimize(rows, obj, basis, all_cols)
        assert status == "optimal"  # phase 1 is always bounded
        if obj[-1] < 0:
            return LPResult(status="infeasible")
        # Drive remaining artificials out of the basis (degenerate pivots);
        # rows that cannot pivot are redundant and get dropped.
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] >= art_start:
                pivot_col = next(
                    (j for j in non_art_cols if rows[i][j] != 0), None
                )
                if pivot_col is None:
                    rows.pop(i)
                    basis.pop(i)
                else:
                    _pivot(rows, obj, basis, i, pivot_col)

    # Phase 2 (skipped for pure feasibility problems).
    value: Optional[Fraction] = None
    if lp.objective is not None:
        ocoeffs, direction = lp.objective
        sign = 1 if direction == "max" else -1
        costs2 = [sign * cval for cval in ocoeffs] + [Fraction(0)] * (width - n_struct)
        obj = _price_out(costs2, rows, basis, width)
        status = _optimize(rows, obj, basis, non_art_cols)
        if status == "unbounded":
            return LPResult(status="unbounded")
        value = obj[-1] if sign == 1 else -obj[-1]

    point = [Fraction(0)] * width
    for i, b in enumerate(basis):
        point[b] = rows[i][-1]
    return LPResult(status="optimal", x=tuple(point[:n_struct]), objective_value=value)
