"""Exact rational linear programming, sized for this package's programs.

Two-phase primal simplex with Bland's rule (deterministic, cycle-free) on
a dense tableau of Python ints.  Programs here have at most a few dozen
variables and a few hundred constraints, so a dense tableau is the right
tool; there is deliberately no floating-point path.

Every variable is non-negative, and the returned optimum is a basic
feasible solution, i.e. a vertex of the feasible polytope.  A caller that
needs an unrestricted variable splits it into two non-negative columns
itself.

Integer representation.  The tableau T is held as ints over one common
denominator d > 0: the true tableau is T / d, the basic column of row i
holds d in row i, and the objective row is carried along like any other.
Pivoting on p = T[r][c] is the fraction-free (Bareiss / Edmonds) update

    T[i][j] <- (T[i][j] * p - T[i][c] * T[r][j]) // d    for every i != r,

row r keeps its integers, and then d <- p.  The division is exact: each
entry of T is, up to sign, a minor of the starting tableau, and d is the
determinant of the current basis.  A drive-out pivot may have p < 0; the
whole tableau and d are then negated, which leaves T / d unchanged and
keeps d > 0, so every sign test reads T directly.  The ratio test
cross-multiplies, so d cancels, and only x and the objective value
become Fractions, at the end.

The program solved is a rescaling of the one given.  Row i (its sign
flipped first if its right-hand side is negative) is multiplied by
lambda_i, the lcm of its own denominators, and its slack and artificial
keep coefficient +-1, so those two columns stand for lambda_i times the
original slack and artificial.  Phase 1 therefore costs row i's
artificial at -1/lambda_i, and each priced objective row is multiplied by
the lcm of its cost denominators.  Row scaling changes neither basic
solutions nor reduced costs.  Scaling column j by a positive factor (and
its cost with it) scales its reduced cost by that factor and every ratio
of the ratio test by one common factor, and scaling an objective scales
all its reduced costs alike.  So every reduced cost keeps its sign, every
ratio keeps its order, Bland's rule makes the same pivots as on the
unscaled program, and the structural columns, which are never scaled,
end at the same vertex.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import InputError
from .util import Record, lcm_scaled, to_fraction

logger = logging.getLogger(__name__)

RELATIONS = ("<=", ">=", "=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


class LinearProgram(Record):
    """max/min of a linear objective over linear constraints.

    Every variable is non-negative.  ``objective`` None means a pure
    feasibility problem.
    """

    __slots__ = ("n_vars", "constraints", "objective")

    def __init__(
        self,
        n_vars: int,
        constraints: list,
        objective: Optional[tuple] = None,  # (coeffs, "max" | "min")
    ):
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "objective", objective)

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
            rows.append((coeffs, rel, to_fraction(rhs)))
        objective = None
        if self.objective is not None:
            ocoeffs, direction = self.objective
            ocoeffs = tuple(to_fraction(c) for c in ocoeffs)
            if len(ocoeffs) != self.n_vars or direction not in ("max", "min"):
                raise InputError("malformed objective")
            objective = (ocoeffs, direction)
        return LinearProgram(self.n_vars, rows, objective)


class LPResult(Record):
    __slots__ = ("status", "x", "objective_value")

    def __init__(
        self,
        status: str,  # "optimal" | "infeasible" | "unbounded"
        x: Optional[tuple[Fraction, ...]] = None,
        objective_value: Optional[Fraction] = None,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "objective_value", objective_value)


class _Tableau:
    """Integer rows and objective row over the common denominator d > 0."""

    def __init__(self, rows, basis):
        self.rows = rows
        self.basis = basis
        self.obj: list[int] = []
        self.d = 1
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        rows, d = self.rows, self.d
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, p, d, c)
        self.obj = _eliminate(self.obj, prow, p, d, c)
        if p < 0:
            self.rows = [[-v for v in row] for row in rows]
            self.obj = [-v for v in self.obj]
            p = -p
        self.d = p
        self.basis[r] = c
        self.pivots += 1

    def price(self, costs: list[int]) -> None:
        """Objective row for maximizing costs . x (integer costs, one per
        column): d times the reduced costs z_j - c_j, and the value last."""
        d = self.d
        obj = [-cost * d for cost in costs] + [0]
        for row, b in zip(self.rows, self.basis):
            cb = costs[b]
            if cb:
                obj = [a + cb * v for a, v in zip(obj, row)]
        self.obj = obj

    def optimize(self, allowed) -> str:
        """Maximize with Bland's rule over the entering columns ``allowed``."""
        rows, basis = self.rows, self.basis
        while True:
            obj = self.obj
            enter = next((j for j in allowed if obj[j] < 0), -1)
            if enter < 0:
                return "optimal"
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave >= 0:  # ratios row[-1] / a, cross-multiplied
                        now, best = row[-1] * rows[leave][enter], rows[leave][-1] * a
                        if now > best or (now == best and basis[i] > basis[leave]):
                            continue
                    leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def _eliminate(row: list[int], prow: list[int], p: int, d: int, c: int) -> list[int]:
    f = row[c]
    if not f:
        return row if p == d else [v * p // d for v in row]
    return [(v * p - f * w) // d for v, w in zip(row, prow)]


def lp_solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex.  See module docstring for guarantees."""
    lp = lp.normalized()

    # Column layout: structural columns, then slacks, then artificials.
    n_struct = lp.n_vars
    specs = []  # (lambda_i, integer row with its rhs last, relation), rhs >= 0
    for coeffs, rel, rhs in lp.constraints:
        scale, ints = lcm_scaled(coeffs + (rhs,))
        if ints[-1] < 0:
            specs.append((scale, [-v for v in ints], _FLIPPED[rel]))
        else:
            specs.append((scale, ints, rel))
    slack_count = sum(1 for _, _, rel in specs if rel != "=")
    art_start = n_struct + slack_count
    width = art_start + sum(1 for _, _, rel in specs if rel != "<=")
    rows, basis, art_scales = [], [], []
    slack_at, art_at = n_struct, art_start
    for scale, ints, rel in specs:
        row = ints[:-1] + [0] * (width - n_struct) + ints[-1:]
        if rel == "<=":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        else:
            if rel == ">=":
                row[slack_at] = -1
                slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_scales.append(scale)
            art_at += 1
        rows.append(row)
    tab = _Tableau(rows, basis)
    pivots1 = 0

    if art_scales:
        # Phase 1: row i's artificial costs -1/lambda_i, times the lcm.
        art_lcm = lcm(*art_scales)
        tab.price([0] * art_start + [-(art_lcm // scale) for scale in art_scales])
        status = tab.optimize(range(width))
        assert status == "optimal"  # phase 1 is always bounded
        if tab.obj[-1] < 0:
            return _logged(lp, tab.pivots, 0, LPResult(status="infeasible"))
        # Drive remaining artificials out of the basis (degenerate pivots);
        # rows that cannot pivot are redundant and get dropped.
        for i in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[i] >= art_start:
                row = tab.rows[i]
                pivot_col = next((j for j in range(art_start) if row[j]), None)
                if pivot_col is None:
                    tab.rows.pop(i)
                    tab.basis.pop(i)
                else:
                    tab.pivot(i, pivot_col)
        # Artificial columns never enter again; no later update reads them.
        tab.rows = [row[:art_start] + row[-1:] for row in tab.rows]
        pivots1 = tab.pivots

    # Phase 2 (skipped for pure feasibility problems).
    value: Optional[Fraction] = None
    if lp.objective is not None:
        ocoeffs, direction = lp.objective
        sign = 1 if direction == "max" else -1
        scale, costs2 = lcm_scaled(ocoeffs)
        tab.price([sign * c for c in costs2] + [0] * slack_count)
        status = tab.optimize(range(art_start))
        if status == "unbounded":
            return _logged(lp, pivots1, tab.pivots - pivots1, LPResult(status="unbounded"))
        value = Fraction(sign * tab.obj[-1], tab.d * scale)

    point = [0] * n_struct
    for row, b in zip(tab.rows, tab.basis):
        if b < n_struct:
            point[b] = row[-1]
    x = tuple(Fraction(v, tab.d) for v in point)
    result = LPResult(status="optimal", x=x, objective_value=value)
    return _logged(lp, pivots1, tab.pivots - pivots1, result)


def _logged(lp: LinearProgram, pivots1: int, pivots2: int, result: LPResult) -> LPResult:
    logger.debug(
        "lp_solve: %d rows, %d columns, %d phase-1 and %d phase-2 pivots, %s",
        len(lp.constraints), lp.n_vars, pivots1, pivots2, result.status,
    )
    return result
