"""Self-check of the benchmark at a tiny size.

    python -m pytest bench/test_bench.py -q

Runs every workload once with ``--trace 1`` (which also runs the untraced
``--trace 0`` command as a child) and checks the output contract: every
declared metric present with its unit, every op checked and passed, equal
report digests between the two runs, and a trace that covers at least 90%
of the timed wall.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1"]
    return subprocess.run(cmd + ["--trace", str(trace)], capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in WORKLOADS:
        proc = run_bench(workload, 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[workload] = proc.stdout.strip().splitlines()
    return out


def check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(traced, workload):
    line = next(x for x in traced[workload] if x.startswith("untraced "))
    result = json.loads(line.split(" ", 1)[1])
    check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_covers_the_wall(traced, workload):
    lines = traced[workload]
    assert not any(x.startswith(("FAILED", "digest mismatch")) for x in lines)
    result = json.loads(lines[-1])
    check_result(result, SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_each_layer_does_work_in_some_workload(traced):
    # Case 3 yields no regular triples under the default limits, so its
    # counts are zero everywhere at this size.
    idle = {"small_ci.regular_triples", "small_ci.candidates"}
    busy = set()
    for lines in traced.values():
        busy |= {k for k, v in json.loads(lines[-1])["metrics"].items() if v["value"]}
    assert {m["name"] for m in SPEC["per_layer"]} - idle <= busy


def test_sample_workload_leaves_solver_layers_idle(traced):
    metrics = json.loads(traced["sample"][-1])["metrics"]
    for name in ("lp.feasibility.calls", "lp.separation.calls", "lp.chain.calls", "junta.calls", "halfspaces.sets"):
        assert metrics[name]["value"] == 0, name


def test_runs_are_repeatable(traced):
    # Same seed and length: same ops, same report digest.
    first = traced["solve"]
    again = run_bench("solve", 0).stdout.strip().splitlines()
    digest = next(x for x in first if x.startswith("digest "))
    assert digest in again


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("solve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
