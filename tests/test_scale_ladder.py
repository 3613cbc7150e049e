import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import storalloc
import storalloc.cli
from storalloc.formats import load_instance

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("mc64", "mc22", "exact22", "tail32", "selection", "draw_chunks", "packed_draws", "byte_dots")
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
    # A cold run takes about 0.6 s on a 2-vCPU host, so these runs leave
    # the cold rows to the next test.
    ladder = load_ladder()
    monkeypatch.setattr(sys, "path", sys.path[:])  # the ladder puts its --src first
    monkeypatch.setattr(ladder, "cold_commands", lambda instance, report: [])
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
