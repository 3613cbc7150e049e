"""Seeded timings of the sampling layer and of cold CLI runs, written as BENCH_<label>.json.

    python3 tools/scale_ladder.py [--src PATH] [--label NAME] [--quick] [--out DIR]

Imports storalloc from PATH/src (default: the checkout holding this
script), so a parent and a change can be timed alternately in one
sitting.  Every input is built here from fixed seeds, in the shapes of
the benchmark's ``sample`` workload (theta = 1/2, eps = 1/4,
delta = 1/20, p ~ U(0.3, 0.7) stratified and rounded by
``core.preprocess``, m = 25 000 draws):

- ``mc64``: ``mc_estimate_probs`` at n = 64, uniform weights;
- ``mc22`` and ``exact22``: the same at n = 22 on one generic weight
  vector, and ``exact_objective_probs`` on it;
- ``tail32``: ``sample_tail_empirical`` of a 32-long tail of an n = 40
  instance;
- ``selection``: ``mc_estimate_probs`` on one vector over 8 coordinates
  and m = 60, the sample a small solve draws for its winner;
- ``draw_chunks``, ``packed_draws`` and ``byte_dots``: the three layers
  under ``mc64``, on its input.

Each row holds the median and quartiles of its call's seconds over
``reps`` timed calls after one untimed call, and a SHA-256 digest of that
call's output, so a row also shows whether the answer moved.  ``--quick``
times 3 calls per row.

The cold rows time whole fresh interpreters, ``python -B -X
pycache_prefix=<empty directory>``, so no bytecode cache is read or
written, neither the package's nor numpy's nor the standard library's:

- ``cli_solve_k8`` and ``cli_solve_k32``: ``storalloc solve`` on
  ``gen-64`` (``storalloc gen --n 64 --lo 0.6 --hi 0.85 --theta 0.6
  --epsilon 0.1 --seed 1``) in practical mode at kappa 1/8 and 1/32,
  L_cap 2, each with the SHA-256 of its report file;
- ``cli_import``: a bare ``import storalloc.cli``.

Each holds the median and quartiles of 5 runs (1 under ``--quick``).
These are the sampling and cold-CLI rows of the scale ladder in ROADMAP
item 14; its in-process phase, Case-2 and exact-bound rows are not here
yet.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
THETA, EPS, DELTA = Fraction(1, 2), Fraction(1, 4), Fraction(1, 20)
DRAWS = 25_000
REPS, QUICK_REPS = 300, 3
COLD_RUNS, QUICK_COLD_RUNS = 5, 1
GEN_64 = ["gen", "--n", "64", "--lo", "0.6", "--hi", "0.85", "--theta", "0.6", "--epsilon", "0.1", "--seed", "1"]


def import_package(src: Path):
    """Import storalloc from src/src, and refuse any other copy."""
    init = src / "src" / "storalloc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"scale_ladder: {init} not found; --src must be a storalloc source checkout")
    sys.path.insert(0, str(src / "src"))
    import storalloc

    if Path(storalloc.__file__).resolve() != init.resolve():
        sys.exit(f"scale_ladder: imported storalloc from {storalloc.__file__}, not from {init.parent}")
    from storalloc import cli, core, evaluate

    return cli, core, evaluate


def stratified_probs(rng: random.Random, n: int) -> list[float]:
    """n probabilities in [0.3, 0.7], one per stratum of width 0.4/n, shuffled."""
    probs = [round(0.3 + 0.4 * (i + rng.random()) / n, 6) for i in range(n)]
    rng.shuffle(probs)
    return probs


def digest(value) -> str:
    """SHA-256 of an op's output: its bytes if it is an array, else its repr."""
    data = value.tobytes() if hasattr(value, "tobytes") else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def ops(core, evaluate) -> list[tuple]:
    """(name, shape, call[, output]) per row: output, or else call, returns what the digest covers."""
    rng = random.Random("storalloc-scale-ladder")

    def granular(n):
        return core.preprocess(stratified_probs(rng, n), THETA, EPS, DELTA).instance

    p64 = list(granular(64).probs)
    w64, s64 = [Fraction(1, 64)] * 64, rng.randrange(1 << 31)
    p22 = list(granular(22).probs)
    raw = rng.sample(range(1, 1 << 10), 22)
    w22, s22 = [Fraction(v, sum(raw)) for v in raw], rng.randrange(1 << 31)
    inst40 = granular(40)
    tail, s40 = [Fraction(rng.randint(0, 2), 64) for _ in range(32)], rng.randrange(1 << 31)
    p8 = list(granular(8).probs)
    w8 = [Fraction(k, 36) for k in range(1, 9)]
    s8 = rng.randrange(1 << 31)

    tables = evaluate._byte_tables(np.ones((64, 1), dtype=np.int64))
    rows64 = evaluate._packed_draws(p64, DRAWS, s64, 64)

    def chunks():
        for _ in evaluate._draw_chunks(p64, DRAWS, s64, 64):
            pass

    def packed_chunks():  # each chunk's block is valid until the next is drawn
        return [(start, np.packbits(bits).tobytes()) for start, bits in evaluate._draw_chunks(p64, DRAWS, s64, 64)]

    def tail_sample():
        dist = evaluate.sample_tail_empirical(inst40, tail, DRAWS, s40)
        return dist.values, dist.counts

    return [
        ("mc64", "n=64 m=25000 uniform weights", lambda: evaluate.mc_estimate_probs(p64, w64, THETA, DRAWS, s64).value),
        ("mc22", "n=22 m=25000 generic weights", lambda: evaluate.mc_estimate_probs(p22, w22, THETA, DRAWS, s22).value),
        ("exact22", "n=22 generic weights", lambda: evaluate.exact_objective_probs(p22, w22, THETA)),
        ("tail32", "32-long tail of n=40, m=25000", tail_sample),
        ("selection", "w=8 m=60 one vector", lambda: evaluate.mc_estimate_probs(p8, w8, THETA, 60, s8).value),
        ("draw_chunks", "mc64's draws, chunks unpacked", chunks, packed_chunks),
        ("packed_draws", "mc64's draws", lambda: evaluate._packed_draws(p64, DRAWS, s64, 64)),
        ("byte_dots", "mc64's rows, one int64 vector", lambda: evaluate._byte_dots(tables, rows64)),
    ]


def quartiles(times: list[float]) -> dict:
    """The count, median and quartiles of times; one time is all three."""
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"reps": len(times), "median_s": median, "q1_s": q1, "q3_s": q3}


def measure(call, reps: int, output=None) -> dict:
    """Median and quartiles of reps timed calls, after one untimed call of output (default: call), digested."""
    out = digest((output or call)())
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return {**quartiles(times), "digest": out}


def cold_commands(instance: Path, report: Path) -> list[tuple]:
    """(name, shape, interpreter arguments, report file or None) per cold row."""
    solve = ["-m", "storalloc.cli", "solve", str(instance), "--mode", "practical", "--l-cap", "2", "--out", str(report)]
    return [
        ("cli_solve_k8", "storalloc solve gen-64, kappa 1/8, L_cap 2", [*solve, "--kappa", "1/8"], report),
        ("cli_solve_k32", "storalloc solve gen-64, kappa 1/32, L_cap 2", [*solve, "--kappa", "1/32"], report),
        ("cli_import", "import storalloc.cli", ["-c", "import storalloc.cli"], None),
    ]


def cold(src: Path, args: list[str], runs: int, report: Path = None) -> dict:
    """Wall seconds of runs fresh interpreters running args on src/src's
    storalloc, each with an empty bytecode-cache prefix and none written,
    and the SHA-256 of the report file they write (None without one)."""
    path = os.pathsep.join(filter(None, (str(src / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    times, digests = [], set()
    for _ in range(runs):
        with tempfile.TemporaryDirectory() as cache:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-B", "-X", f"pycache_prefix={cache}", *args], check=True, env=env)
            times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(report.read_bytes()).hexdigest() if report else None)
    if len(digests) > 1:
        sys.exit(f"scale_ladder: the report of {args} moved between runs")
    return {**quartiles(times), "digest": digests.pop()}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT, help="storalloc checkout to time (default: this one)")
    ap.add_argument("--label", default="ladder")
    ap.add_argument("--quick", action="store_true", help=f"{QUICK_REPS} timed calls per row, not {REPS}")
    ap.add_argument("--out", type=Path, default=ROOT, help="directory for BENCH_<label>.json")
    args = ap.parse_args(argv)

    src = args.src.resolve()
    cli, core, evaluate = import_package(src)
    reps, runs = (QUICK_REPS, QUICK_COLD_RUNS) if args.quick else (REPS, COLD_RUNS)
    rows = []
    for name, shape, call, *output in ops(core, evaluate):
        rows.append({"op": name, "shape": shape, **measure(call, reps, *output)})
        print(f"{name:13s} {rows[-1]['median_s'] * 1e3:9.3f} ms  {rows[-1]['digest'][:12]}", flush=True)
    with tempfile.TemporaryDirectory() as work:
        instance, report = Path(work) / "gen-64.json", Path(work) / "report.json"
        cli.main([*GEN_64, "--out", str(instance)])
        for name, shape, argv, out in cold_commands(instance, report):
            rows.append({"op": name, "shape": shape, **cold(src, argv, runs, out)})
            print(f"{name:13s} {rows[-1]['median_s'] * 1e3:9.3f} ms  {(rows[-1]['digest'] or '-')[:12]}", flush=True)
    report = {
        "label": args.label,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
