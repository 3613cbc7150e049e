"""One-shot solve ladder with per-phase timings (not a gated workload).

    python3 bench/ladder.py [--label NAME]

Solves one instance per (n, L_cap), n in {4, 8, 12, 16} and L_cap in
{2, 3}, made from a fixed seed, in practical mode (kappa = 1/8,
theta = 1/2, eps = 1/4, delta = 1/20, p ~ U(0.3, 0.7) stratified as in the
workloads), prints a markdown table of wall time and the phase times from
``SolveReport.timings``, and writes the rows to
``bench/out/BENCH_<label>.json``, so a before and an after table can sit
side by side.  Rows run in one interpreter, smallest n first; the ladder
takes several minutes at n = 16.
"""

from __future__ import annotations

import argparse
import json
import random
import time

from run import OUT_DIR, import_package

PHASES = ("junta_s", "small_ci_s", "large_ci_s", "selection_s", "exact_eval_s")
N = (4, 8, 12, 16)
CAPS = (2, 3)
SEED = 1


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="ladder")
    args = ap.parse_args(argv)

    workloads = import_package()
    from storalloc import driver

    rows = []
    print("| n | L_cap | wall s | " + " | ".join(PHASES) + " | pool | exact objective |")
    print("|---|---|---|" + "---|" * len(PHASES) + "---|---|")
    for n in N:
        probs = workloads.stratified_probs(random.Random(f"storalloc-ladder-{n}-{SEED}"), n)
        for cap in CAPS:
            cfg = workloads.practical_config(cap, SEED)
            t0 = time.perf_counter()
            report = driver.solve(probs, workloads.THETA, workloads.EPS, workloads.DELTA, cfg, threads=1)
            wall = time.perf_counter() - t0
            exact = report.exact_objective
            row = {
                "n": n,
                "L_cap": cap,
                "seed": SEED,
                "probs": probs,
                "wall_s": wall,
                "timings": dict(report.timings),
                "pool_size": report.pool_size,
                "per_case_counts": dict(report.per_case_counts),
                "exact_objective": None if exact is None else str(exact),
            }
            rows.append(row)
            phases = " | ".join(f"{report.timings.get(p, 0.0):.2f}" for p in PHASES)
            shown = "-" if exact is None else f"{float(exact):.4f}"
            print(f"| {n} | {cap} | {wall:.2f} | {phases} | {report.pool_size} | {shown} |", flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({"label": args.label, "rows": rows}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
