import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("mc64", "mc22", "exact22", "tail32", "selection", "draw_chunks", "packed_draws", "byte_dots")


def run_quick(out: Path, label: str) -> dict:
    cmd = [sys.executable, str(ROOT / "tools" / "scale_ladder.py"), "--quick", "--label", label, "--out", str(out)]
    subprocess.run(cmd, check=True, capture_output=True, env=child_env(), timeout=60)
    return json.loads((out / f"BENCH_{label}.json").read_text(encoding="utf-8"))


def test_quick_ladder_writes_its_rows_and_repeats_its_digests(tmp_path):
    # every row holds three ordered timings and a digest of its output;
    # the inputs come from fixed seeds, so a second run digests the same
    first, second = run_quick(tmp_path, "a"), run_quick(tmp_path, "b")
    assert first["label"] == "a" and first["quick"] is True
    assert tuple(row["op"] for row in first["rows"]) == ROWS
    for row in first["rows"]:
        assert row["reps"] == 3 and 0 < row["q1_s"] <= row["median_s"] <= row["q3_s"]
        assert len(row["digest"]) == 64
    assert [row["digest"] for row in first["rows"]] == [row["digest"] for row in second["rows"]]
