"""storalloc benchmark: one seeded workload, checked, metrics as JSON.

    python3 bench/run.py --workload {solve,oracle,sample} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every run is a fresh interpreter, so lazy caches (the halfspace
enumerations) are paid in every run, as on each CLI invocation.

``--trace 0`` times the workload untraced and prints the end-to-end
metrics named in BENCHMARK.json.  Timings are at reference speed (see
calibrate.py); ``setup_s`` is the median over several fresh interpreters
of the time to import the package (numpy already loaded) and build the
run's inputs.

``--trace 1`` first runs the same command with ``--trace 0`` as a child,
then runs the workload again with every layer spanned (see tracer.py) and
prints the per-layer metrics.  Both runs must produce the same report
digest.  Spans are written to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Earlier lines give the digest,
failures and per-op figures.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("solve", "oracle", "sample"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_package():
    """Import the package from this checkout's sources, never from elsewhere."""
    init = SRC / "storalloc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a storalloc source checkout")
    sys.path.insert(0, str(SRC))
    import storalloc

    if Path(storalloc.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported storalloc from {storalloc.__file__}, not from {SRC}")
    import workloads

    return workloads


def declared_metrics(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def own_command(args, trace: int, setup_only: bool = False) -> list:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def measure_setup(args) -> float:
    """Median over fresh interpreters of the reference-speed time to import
    the package and build the run's inputs (see ``setup_once``)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            own_command(args, 0, setup_only=True),
            check=True,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        samples.append(float(child.stdout.split()[-1]))
    return statistics.median(samples)


def setup_once(args) -> None:
    """Import the package and build the inputs; print the time taken at
    reference speed.

    numpy is imported first and left out: no library change can alter its
    import, and it tracked the host's speed differently from the rest
    (scaled by it, set-up medians still moved by 30% between sets of runs).
    The probe's samples read the host poorly while import thrashes the
    caches, so the reference loop is timed just before and just after."""
    import numpy  # noqa: F401

    ref_before = calibrate.reference_s()
    t0 = time.perf_counter()
    workloads = import_package()
    workloads.plan(args.workload, args.seed, args.seconds)
    elapsed = time.perf_counter() - t0
    ref_after = calibrate.reference_s()
    print(calibrate.scale(elapsed, (ref_before + ref_after) / 2))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_figures(outcome) -> dict:
    """Per op kind: sample count, median seconds, median at reference speed."""
    return {
        kind: {
            "n": len(times),
            "p50_s": statistics.median(times),
            "p50_ref_s": statistics.median(outcome.ref_times[kind]),
        }
        for kind, times in sorted(outcome.times.items())
    }


def primary_ref_times(workload: str, outcome) -> list:
    """The samples op_ref_s_p50 is the median of.  On ``solve`` each sample
    is one L_cap-2 plus one L_cap-3 solve, so the median does not fall
    between the two groups' costs."""
    t = outcome.ref_times
    if workload == "solve":
        return [a + b for a, b in zip(t.get("solve_L2", []), t.get("solve_L3", []))]
    return t.get({"oracle": "oracle", "sample": "mc64"}[workload], [])


def end_to_end(workload: str, outcome, setup_s: float) -> dict:
    primary = primary_ref_times(workload, outcome) or [float("nan")]
    objectives = outcome.objectives or [float("nan")]
    return {
        "setup_s": setup_s,
        "wall_ref_s": outcome.wall_ref_s,
        "op_ref_s_p50": statistics.median(primary),
        "objective_mean": float(sum(objectives)) / len(objectives),
        "peak_rss_mb": peak_rss_mb(),
    }


def figures(outcome) -> dict:
    """Per-workload figures under descriptive names (logged, not gated).

    Timings are at reference speed; wall_s is the plain wall time, and
    ref_per_raw is wall_ref_s over wall_s, the run's overall speed factor."""
    t = outcome.ref_times
    named = {
        "wall_s": outcome.wall_s,
        "ref_per_raw": outcome.wall_ref_s / outcome.wall_s if outcome.wall_s else None,
        "failed_ratio": len(outcome.failures) / max(outcome.attempted, 1),
        "solve_s_p50": t.get("solve") or (t.get("solve_L2", []) + t.get("solve_L3", []) or None),
        "solve_L2_s_p50": t.get("solve_L2"),
        "solve_L3_s_p50": t.get("solve_L3"),
        "oracle_s_p50": t.get("oracle"),
        "oracle_cold_s": t.get("enumerate"),
        "mc_s_p50": t.get("mc64"),
        "exact_eval_s_p50": t.get("exact"),
        "oracle_gap_max": float(max(outcome.gaps)) if outcome.gaps else None,
    }
    return {k: statistics.median(v) if isinstance(v, list) else v for k, v in named.items() if v is not None}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """Print the result line; a missing or non-finite metric makes it incorrect."""
    values = {}
    for name in units:
        value = metrics.get(name)
        if value is None or not math.isfinite(value):
            print(f"metric {name} missing or not finite: {value}")
            correct, value = False, 0
        values[name] = value
    out = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out), flush=True)


def run_untraced(args) -> None:
    units = declared_metrics("end_to_end")
    workloads = import_package()
    setup_s = measure_setup(args)
    outcome = workloads.execute(workloads.plan(args.workload, args.seed, args.seconds))
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print(f"digest {outcome.digest}")
    print("ops " + json.dumps(op_figures(outcome)))
    print("figures " + json.dumps(figures(outcome)))
    metrics = end_to_end(args.workload, outcome, setup_s)
    correct = not outcome.failures
    emit(correct, outcome.attempted, len(outcome.failures), metrics, units)


def run_traced(args) -> None:
    units = declared_metrics("per_layer")
    child = subprocess.run(
        own_command(args, 0), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    if child.returncode != 0:
        sys.stderr.write(child.stdout + child.stderr)
        sys.exit(f"bench: untraced run exited with {child.returncode}")
    lines = child.stdout.strip().splitlines()
    untraced = json.loads(lines[-1])
    untraced_digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    print("untraced " + lines[-1])

    workloads = import_package()
    from tracer import Tracer

    segments = workloads.plan(args.workload, args.seed, args.seconds)
    tracer = Tracer()
    with tracer.installed():
        outcome = workloads.execute(segments, quiet=tracer.paused)
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)

    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print(f"digest {outcome.digest}")
    same = outcome.digest == untraced_digest
    if not same:
        print(f"digest mismatch: untraced {untraced_digest}")
    # A declared layer that did no work in this workload reads 0.
    metrics = dict.fromkeys(units, 0)
    # Spans include the probe samples taken inside them; so does the denominator.
    layers = tracer.layer_metrics(outcome.wall_s + outcome.probe_s)
    # Self times at reference speed, by the run's overall factor.
    speed = outcome.wall_ref_s / outcome.wall_s
    metrics.update({k: v * speed if k.endswith(".self_s") else v for k, v in layers.items()})
    metrics["trace.overhead_ratio"] = outcome.wall_ref_s / untraced["metrics"]["wall_ref_s"]["value"]
    print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    extra = {k: v for k, v in sorted(metrics.items()) if k not in units}
    print("layers " + json.dumps(extra))
    correct = same and untraced["correct"] and not outcome.failures
    emit(correct, outcome.attempted, len(outcome.failures), metrics, units)


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.setup_only:
        setup_once(args)
    elif args.trace:
        run_traced(args)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
