"""Generator of the junta's committed margin table and its certificates.

    PYTHONPATH=src python tests/margin_table.py

rewrites ``src/storalloc/junta_margins.txt`` (package data) and
``tests/margin_certificates.txt`` from the halfspace weight grid and
exact LPs.

The table holds one row per upward-closed realizable set S over
{0,1}^k, k = 1..5, in ascending mask order, the sets taken from
``halfspaces.enumerate_halfspace_sets(k, monotone=True)``: line k is k's
rows run together.  A row is S's mask as max(1, 2^k / 4) lowercase hex
digits (bit x = point x), then the k + 1 decimal digits (e, c_1..c_k).
The junta reads its families from these masks and enumerates nothing,
so the test that compares the table's bytes with this generator's
output checks the committed families against the grid as well as the
margins against the LPs.  For a set S with margin v(S) > 0 and
``set_margin``'s maximizer u_S, c / e is u_S / v(S) in lowest common
terms (``util.lcm_scaled``), so the junta's witnesses are the LP vertices
they always were.  Every maximizer with v > 0 has sum(u_S) = 1 (scaling u
up to sum 1 would raise the minimum), so v(S) = e / sum(c); the generator
checks that identity on every set.  The full cube holds the zero point, so
v = 0 and every u is a maximizer: its row is (0, 1, ..., 1).  The empty set
has no minimal member and v = +inf: its row is (1, 0, ..., 0), read by
neither caller.

The certificates file has one line per non-empty set, in the same order:
the digits (d, lambda_1..lambda_m), lambda / d a dual solution, weights
over min(S) in ascending point order with sum(lambda) = d and
max_j sum_x lambda_x x_j / d = v(S).  tests/test_junta.py checks every
pair in integer arithmetic; the LPs here only produce them.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from storalloc.halfspaces import MAX_K, enumerate_halfspace_sets, minimal_members, point_bits
from storalloc.lp import LinearProgram, lp_solve
from storalloc.util import lcm_scaled

ROOT = Path(__file__).resolve().parents[1]
TABLE_PATH = ROOT / "src" / "storalloc" / "junta_margins.txt"
CERTIFICATES_PATH = Path(__file__).resolve().with_name("margin_certificates.txt")


def set_margin(mask: int, k: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(v(S), u_S) for the upward-closed mask S over {0,1}^k: the largest
    t with u.x >= t on every minimal member x of S, over u >= 0 with
    sum(u) <= 1, and the u attaining it.  Variables are (u_1..u_k, t)."""
    cons = [
        ([Fraction(b) for b in point_bits(x, k)] + [Fraction(-1)], ">=", Fraction(0))
        for x in minimal_members(mask, k)
    ]
    cons.append(([Fraction(1)] * k + [Fraction(0)], "<=", Fraction(1)))
    objective = ([Fraction(0)] * k + [Fraction(1)], "max")
    res = lp_solve(LinearProgram(k + 1, cons, objective))
    return res.objective_value, res.x[:k]


def margin_row(mask: int, k: int) -> tuple[int, ...]:
    """(e, c_1..c_k) for set S = mask (module docstring)."""
    if not mask:
        return (1,) + (0,) * k
    v, u = set_margin(mask, k)
    if not v:
        return (0,) + (1,) * k
    e, c = lcm_scaled([x / v for x in u])
    if Fraction(e, sum(c)) != v:
        raise AssertionError(f"v != e / sum(c) at k={k}, mask={mask}")
    return (e, *c)


def dual_certificate(mask: int, k: int) -> tuple[int, ...]:
    """(d, lambda over min(S)) from the dual LP: minimize s over
    lambda >= 0 with sum(lambda) = 1 and sum_x lambda_x x_j <= s for every j."""
    members = minimal_members(mask, k)
    m = len(members)
    cons = [
        ([Fraction(point_bits(x, k)[j]) for x in members] + [Fraction(-1)], "<=", Fraction(0))
        for j in range(k)
    ]
    cons.append(([Fraction(1)] * m + [Fraction(0)], "=", Fraction(1)))
    res = lp_solve(LinearProgram(m + 1, cons, ([Fraction(0)] * m + [Fraction(1)], "min")))
    d, lam = lcm_scaled(res.x[:m])
    return (d, *lam)


def _digits(row) -> str:
    if not all(0 <= x <= 9 for x in row):
        raise AssertionError(f"row {row} needs more than one digit per integer")
    return "".join(map(str, row))


def family(k: int) -> list[int]:
    """The upward-closed realizable masks over {0,1}^k, ascending, from the weight grid."""
    return [s.mask for s in enumerate_halfspace_sets(k, monotone=True)]


def mask_digits(mask: int, k: int) -> str:
    """The mask as max(1, 2^k / 4) lowercase hex digits, bit x = point x."""
    return format(mask, f"0{max(1, (1 << k) // 4)}x")


def table_bytes() -> bytes:
    """The package table, regenerated from the weight grid and set_margin's LPs."""
    lines = [
        "".join(mask_digits(mask, k) + _digits(margin_row(mask, k)) for mask in family(k))
        for k in range(1, MAX_K + 1)
    ]
    return ("\n".join(lines) + "\n").encode()


def certificates_text() -> str:
    return "".join(
        _digits(dual_certificate(mask, k)) + "\n" for k in range(1, MAX_K + 1) for mask in family(k)[1:]
    )


if __name__ == "__main__":
    TABLE_PATH.write_bytes(table_bytes())
    CERTIFICATES_PATH.write_text(certificates_text())
    print(f"wrote {TABLE_PATH} and {CERTIFICATES_PATH}", file=sys.stderr)
