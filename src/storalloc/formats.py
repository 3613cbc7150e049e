"""Instance and table file formats.

Instance files are JSON objects

    {"probs": [0.61, "87/100", ...], "theta": 0.5,
     "epsilon": 0.25, "delta": 0.05}

where any number may be given as a float or an exact "a/b" string.
Rational strings are preserved exactly; floats are snapped to the nearest
rational with denominator <= 10^6 (util.to_ratio).  Files are UTF-8.

Bench results can be emitted as JSON or TSV; the TSV column set is fixed
(one row per instance) with empty oracle cells where n is out of oracle
range.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import InputError
from .util import frac_str, to_fraction


def load_instance(path) -> tuple[list[Fraction], Fraction, Fraction, Fraction]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise InputError(f"instance file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    try:
        probs, *parameters = (data[key] for key in ("probs", "theta", "epsilon", "delta"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"instance file missing field: {exc}") from exc
    if not isinstance(probs, list) or not probs:
        raise InputError("probs must be a non-empty list")
    return ([to_fraction(p, limit_denominator=True) for p in probs],
            *(to_fraction(v, limit_denominator=True) for v in parameters))


def save_instance(path, probs: Sequence, theta, epsilon, delta) -> None:
    def number(v):  # a Fraction as its "a/b" string
        return frac_str(v) if isinstance(v, Fraction) else v

    data = {"probs": [number(p) for p in probs]}
    data.update(theta=number(theta), epsilon=number(epsilon), delta=number(delta))
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def parse_weights(text: str, n: int) -> list[Fraction]:
    """Comma-separated weights, each a float or "a/b" string."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise InputError(f"expected {n} weights, got {len(parts)}")
    weights = [to_fraction(p, limit_denominator=True) for p in parts]
    if any(w < 0 for w in weights):
        raise InputError("weights must be non-negative")
    if sum(weights) > 1:
        raise InputError("weights must sum to at most 1")
    return weights


BENCH_COLUMNS = (
    "instance",
    "n",
    "theta",
    "epsilon",
    "solver_estimate",
    "solver_exact",
    "solver_provenance",
    "baseline_best_k",
    "baseline_value",
    "oracle_value",
    "gap_solver",
    "gap_baseline",
)


def bench_rows_to_tsv(rows: Sequence[dict]) -> str:
    lines = ["\t".join(BENCH_COLUMNS)]
    for row in rows:
        lines.append(
            "\t".join("" if row.get(col) is None else str(row.get(col)) for col in BENCH_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def bench_rows_to_json(rows: Sequence[dict]) -> str:
    return json.dumps(list(rows), indent=2) + "\n"
