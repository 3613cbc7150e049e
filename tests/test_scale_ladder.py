import hashlib
import importlib.util
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import storalloc
import storalloc.cli
from storalloc.formats import load_instance

ROOT = Path(__file__).resolve().parents[1]
ROWS = (
    "mc64", "mc22", "exact22", "tail32", "selection", "draw_chunks", "packed_draws", "byte_dots", "draw_chunks22",
    "exact_small",
)
COLD_ROWS = ("cli_solve_k8", "cli_solve_k32", "cli_import")


def load_ladder():
    spec = importlib.util.spec_from_file_location("scale_ladder", ROOT / "tools" / "scale_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


def run_quick(ladder, out: Path, label: str) -> dict:
    ladder.main(["--quick", "--label", label, "--out", str(out)])
    return json.loads((out / f"BENCH_{label}.json").read_text(encoding="utf-8"))


def test_quick_ladder_writes_its_rows_and_repeats_its_digests(tmp_path, monkeypatch):
    # every row holds three ordered timings and a digest of its output;
    # the inputs come from fixed seeds, so a second run digests the same.
    # A cold run takes about 0.6 s on a 2-vCPU host, an exact-bound run up
    # to a few seconds and a first-solve run about 0.3 s, so these runs
    # leave those rows to the tests below.
    ladder = load_ladder()
    monkeypatch.setattr(sys, "path", sys.path[:])  # the ladder puts its --src first
    monkeypatch.setattr(ladder, "cold_commands", lambda instance, report: [])
    monkeypatch.setattr(ladder, "exact_inputs", lambda core: [])
    monkeypatch.setattr(ladder, "first_solve_inputs", lambda: [])
    first, second = run_quick(ladder, tmp_path, "a"), run_quick(ladder, tmp_path, "b")
    assert first["label"] == "a" and first["quick"] is True
    assert tuple(row["op"] for row in first["rows"]) == ROWS
    for row in first["rows"]:
        assert row["reps"] == 3 and 0 < row["q1_s"] <= row["median_s"] <= row["q3_s"]
        assert len(row["digest"]) == 64
    assert [row["digest"] for row in first["rows"]] == [row["digest"] for row in second["rows"]]


def test_cold_solve_row_digests_the_report_an_in_process_solve_writes(tmp_path):
    # the cold kappa-1/8 row, run once in a fresh interpreter with an empty
    # bytecode-cache prefix, hashes the same report bytes as this process
    ladder = load_ladder()
    instance, report = tmp_path / "gen-64.json", tmp_path / "report.json"
    assert storalloc.cli.main([*ladder.GEN_64, "--out", str(instance)]) == 0
    commands = ladder.cold_commands(instance, report)
    assert tuple(name for name, *_ in commands) == COLD_ROWS
    _, _, argv, out = commands[0]
    row = ladder.cold(ROOT, argv, 1, out)
    assert row["reps"] == 1 and 0 < row["q1_s"] == row["median_s"] == row["q3_s"]
    probs, theta, epsilon, delta = load_instance(instance)
    config = storalloc.SolverConfig(mode="practical", kappa_override="1/8", L_cap=2)
    expected = storalloc.solve(probs, theta, epsilon, delta, config).to_json().encode()
    assert row["digest"] == hashlib.sha256(expected).hexdigest()


def test_exact_child_digests_the_value_an_in_process_call_returns():
    # the exact-bound rows' inputs have 40 and 41 power-of-two weights; one
    # child run of a small input reports its seconds, its peak RSS and the
    # digest of the value this process computes
    ladder = load_ladder()
    inputs = ladder.exact_inputs(storalloc.core)
    assert [(name, len(probs), len(weights)) for name, _, probs, weights in inputs] == [
        ("exact40", 40, 40), ("exact41", 41, 41),
    ]
    assert all(sum(weights) == 1 for *_, weights in inputs)
    probs, weights = inputs[0][2][:5], [F(1 << i, 31) for i in range(5)]
    row = ladder.exact_child(ROOT, probs, weights, 1)
    assert row["reps"] == 1 and 0 < row["q1_s"] == row["median_s"] == row["q3_s"]
    assert 0 < row["q1_rss_mb"] == row["median_rss_mb"] == row["q3_rss_mb"]
    assert row["digest"] == ladder.digest(str(storalloc.exact_objective_probs(probs, weights, F(1, 2))))


def test_first_solve_row_imports_no_numpy_random():
    # one fresh interpreter's first solve, in the benchmark's n = 8 shape:
    # the modules it newly imports, digested, and numpy.random not among them
    ladder = load_ladder()
    ((name, _, probs, L_cap, seed),) = ladder.first_solve_inputs()
    assert name == "first_solve" and len(probs) == 8 and L_cap == 2
    row = ladder.first_solve(ROOT, probs, L_cap, seed, 1)
    assert row["reps"] == 1 and 0 < row["q1_s"] == row["median_s"] == row["q3_s"]
    assert row["modules"] == sorted(row["modules"]) and row["digest"] == ladder.digest(row["modules"])
    assert not [module for module in row["modules"] if module.startswith("numpy.random")]
