"""Seeded timings of sampling, of exact evaluation and of cold CLI runs, written as BENCH_<label>.json.

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
- ``selection``: ``mc_hit_counts`` on one vector over 8 coordinates and
  m = 60 from the solve's own stream, the sample a small solve draws for
  its winner: ``util.SplitMix64``, or PCG64 in a tree without it, whose
  solves sampled PCG64;
- ``draw_chunks``, ``packed_draws`` and ``byte_dots``: the three layers
  under ``mc64``, on its input, ``byte_dots`` on the dtype that
  ``_dot_dtype`` picks for it;
- ``draw_chunks22``: ``draw_chunks`` on ``mc22``'s draws, whose width is
  not a multiple of 8;
- ``exact_small``: ``exact_objective_probs`` on the counterexample of
  ``baselines.kleinberg_counterexample``, a law of two groups.

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

The exact-bound rows run ``exact_objective_probs`` once per fresh
interpreter, on 40 and on 41 coordinates with the distinct power-of-two
weights 2^i / (2^n - 1), whose 2^n sums are all distinct, granular
probabilities and theta = 1/2:

- ``exact40``: two half laws of 2^20 values, which evaluate;
- ``exact41``: a half law of 2^21 values, refused by SUPPORT_LIMIT.

Each of these holds the median and quartiles over its runs of the call's
seconds and of the interpreter's peak RSS in MiB (``ru_maxrss``,
``*_rss_mb``), and the SHA-256 of the value or of the refusal's
estimate.

The ``first_solve`` row runs, in a fresh interpreter that has imported
numpy and storalloc, one practical ``solve`` in the benchmark's
``solve`` shape (n = 8 stratified probabilities, kappa 1/8, L_cap 2): the
first solve of a process, which pays for every module it imports.  It
holds the median and quartiles of that call's seconds, the sorted names
of the modules the call newly imported (``modules``) and their SHA-256,
which are the same on every run of a tree.

Each cold, exact-bound and first-solve row holds 5 runs (1 under
``--quick``).
These are the sampling, exact-bound and cold-CLI rows of the scale ladder
in ROADMAP item 14; its in-process phase and Case-2 rows are not here
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
    from storalloc import util  # the copy import_package loaded

    solve_stream = getattr(util, "SplitMix64", None)

    def selection():
        return evaluate.mc_hit_counts(p8, w8, THETA, 60, s8, *([solve_stream] if solve_stream else []))

    tables = evaluate._byte_tables(np.ones((64, 1), dtype=evaluate._dot_dtype([1] * 64, 32)))  # mc64's D w and D theta
    rows64 = evaluate._packed_draws(p64, DRAWS, s64, 64)

    def dots64():
        return evaluate._byte_dots(tables, rows64)

    def chunks():
        for _ in evaluate._draw_chunks(p64, DRAWS, s64, 64):
            pass

    def packed_chunks():  # each chunk's block is valid until the next is drawn
        return [(start, np.packbits(bits).tobytes()) for start, bits in evaluate._draw_chunks(p64, DRAWS, s64, 64)]

    def tail_sample():
        dist = evaluate.sample_tail_empirical(inst40, tail, DRAWS, s40)
        return dist.values, dist.counts

    def chunks22():
        for _ in evaluate._draw_chunks(p22, DRAWS, s22, 22):
            pass

    def packed_chunks22():
        return [(start, np.packbits(bits).tobytes()) for start, bits in evaluate._draw_chunks(p22, DRAWS, s22, 22)]

    small = core.preprocess([0.9] * 5, Fraction(5, 12), Fraction(1, 20), Fraction(1, 20)).instance.probs
    candidate = [Fraction(1, 4)] * 2 + [Fraction(1, 6)] * 3

    return [
        ("mc64", "n=64 m=25000 uniform weights", lambda: evaluate.mc_estimate_probs(p64, w64, THETA, DRAWS, s64).value),
        ("mc22", "n=22 m=25000 generic weights", lambda: evaluate.mc_estimate_probs(p22, w22, THETA, DRAWS, s22).value),
        ("exact22", "n=22 generic weights", lambda: evaluate.exact_objective_probs(p22, w22, THETA)),
        ("tail32", "32-long tail of n=40, m=25000", tail_sample),
        ("selection", "w=8 m=60 one vector, the solve's stream", selection),
        ("draw_chunks", "mc64's draws, chunks unpacked", chunks, packed_chunks),
        ("packed_draws", "mc64's draws", lambda: evaluate._packed_draws(p64, DRAWS, s64, 64)),
        ("byte_dots", "mc64's rows, one vector on its dot dtype", dots64, lambda: dots64().astype(np.int64)),
        ("draw_chunks22", "mc22's draws, chunks unpacked", chunks22, packed_chunks22),
        ("exact_small", "n=5 counterexample, 2 groups", lambda: evaluate.exact_objective_probs(small, candidate, Fraction(5, 12))),
    ]


def quartiles(values: list[float], unit: str = "s") -> dict:
    """The count, median and quartiles of values, keyed by unit; one value is all three."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"reps": len(values), f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3}


def measure(call, reps: int, output=None) -> dict:
    """Median and quartiles of reps timed calls, after one untimed call of output (default: call), digested."""
    out = digest((output or call)())
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return {**quartiles(times), "digest": out}


def child_env(src: Path) -> dict:
    """Environment for a fresh interpreter that imports src/src's storalloc."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src / "src"), os.environ.get("PYTHONPATH")))))


# One exact evaluation in a fresh interpreter: argv is the probabilities
# and the weights, comma-separated; it prints the call's seconds, the
# peak RSS in KiB and the value, or the refusal's estimate.
EXACT_CHILD = """
import resource, sys, time
from fractions import Fraction
from storalloc import evaluate
from storalloc.errors import GuardError
probs, weights = ([Fraction(x) for x in arg.split(",")] for arg in sys.argv[1:3])
t0 = time.perf_counter()
try:
    out = str(evaluate.exact_objective_probs(probs, weights, Fraction(1, 2)))
except GuardError as refused:
    out = f"refused: estimate {refused.estimate}, limit {refused.limit}"
seconds = time.perf_counter() - t0
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, out)
"""


def exact_inputs(core) -> list[tuple]:
    """(name, shape, probabilities, weights) per exact-bound row."""
    rng = random.Random("storalloc-scale-ladder-exact")
    rows = []
    for name, n in (("exact40", 40), ("exact41", 41)):
        probs = core.preprocess(stratified_probs(rng, n), THETA, EPS, DELTA).instance.probs
        weights = [Fraction(1 << i, (1 << n) - 1) for i in range(n)]
        rows.append((name, f"n={n} power-of-two weights, theta=1/2", list(probs), weights))
    return rows


def exact_child(src: Path, probs, weights, runs: int) -> dict:
    """Seconds and peak RSS of runs fresh interpreters that each evaluate
    (probs, weights) once on src/src's storalloc, and the digest of what
    they return."""
    env = child_env(src)
    args = [",".join(map(str, probs)), ",".join(map(str, weights))]
    times, rss, outs = [], [], set()
    for _ in range(runs):
        line = subprocess.run(
            [sys.executable, "-c", EXACT_CHILD, *args], check=True, env=env, capture_output=True, text=True
        ).stdout.split(maxsplit=2)
        times.append(float(line[0]))
        rss.append(int(line[1]) / 1024)
        outs.add(line[2].strip())
    if len(outs) > 1:
        sys.exit("scale_ladder: an exact evaluation moved between runs")
    return {**quartiles(times), **quartiles(rss, "rss_mb"), "digest": digest(outs.pop())}


# One solve in a fresh interpreter with numpy and storalloc imported: argv
# is the probabilities, comma-separated, the L_cap and the seed; it prints
# the call's seconds and the modules the call newly imported.
FIRST_SOLVE_CHILD = """
import sys, time
from fractions import Fraction
import numpy
import storalloc
probs = [float(x) for x in sys.argv[1].split(",")]
cfg = storalloc.SolverConfig(mode="practical", kappa_override=Fraction(1, 8), L_cap=int(sys.argv[2]), seed=int(sys.argv[3]))
before = set(sys.modules)
t0 = time.perf_counter()
storalloc.solve(probs, Fraction(1, 2), Fraction(1, 4), Fraction(1, 20), cfg)
seconds = time.perf_counter() - t0
print(seconds, *sorted(set(sys.modules) - before))
"""


def first_solve_inputs() -> list[tuple]:
    """(name, shape, probabilities, L_cap, seed) per first-solve row."""
    rng = random.Random("storalloc-scale-ladder-first-solve")
    return [("first_solve", "a fresh process's first solve, n=8, L_cap 2", stratified_probs(rng, 8), 2, rng.randrange(1 << 31))]


def first_solve(src: Path, probs, L_cap: int, seed: int, runs: int) -> dict:
    """Seconds of runs fresh interpreters' first solve of (probs, L_cap,
    seed) on src/src's storalloc, and the modules that solve imported."""
    env = child_env(src)
    args = [",".join(map(repr, probs)), str(L_cap), str(seed)]
    times, lists = [], set()
    for _ in range(runs):
        seconds, *modules = subprocess.run(
            [sys.executable, "-c", FIRST_SOLVE_CHILD, *args], check=True, env=env, capture_output=True, text=True
        ).stdout.split()
        times.append(float(seconds))
        lists.add(tuple(modules))
    if len(lists) > 1:
        sys.exit("scale_ladder: a first solve's imports moved between runs")
    modules = list(lists.pop())
    return {**quartiles(times), "modules": modules, "digest": digest(modules)}


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
    env = child_env(src)
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
    for name, shape, probs, weights in exact_inputs(core):
        rows.append({"op": name, "shape": shape, **exact_child(src, probs, weights, runs)})
        row = rows[-1]
        print(f"{name:13s} {row['median_s'] * 1e3:9.3f} ms  {row['median_rss_mb']:7.1f} MB  {row['digest'][:12]}", flush=True)
    for name, shape, probs, L_cap, seed in first_solve_inputs():
        rows.append({"op": name, "shape": shape, **first_solve(src, probs, L_cap, seed, runs)})
        row = rows[-1]
        print(f"{name:13s} {row['median_s'] * 1e3:9.3f} ms  {len(row['modules']):4d} modules  {row['digest'][:12]}", flush=True)
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
