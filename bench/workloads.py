"""Seeded workloads that drive storalloc from outside, and check every output.

One caller, a closed loop, ``threads=1``.  ``plan`` makes every input from
the seed (and the run length) before anything is timed; ``execute`` then
runs the ops in order and checks each result outside its own timing.  The
library receives only the generated numbers.

Each plan entry is one segment (a solve, or an oracle round with its
baseline and solver reference).  A ``calibrate.SpeedProbe`` samples the
host's speed throughout, and every time is also reported at reference
speed, scaled by the samples taken during its segment.  Only the library
calls are timed; the checks are not, and in a traced run they run with the
tracer paused, so neither the times nor the layer figures include them.

Run length sets how many ops a plan holds, through fixed per-op costs
measured at the commit that introduced the benchmark, so the same seed and
``seconds`` always run the same ops and per-layer counts repeat exactly.

Probabilities are drawn one per equal-width stratum of U(0.3, 0.7) and
shuffled: each coordinate is still uniform on the range, but every
instance spans the range, so the cost of a run varies less with its seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from storalloc import baselines, core, driver, evaluate, halfspaces, small_ci

import calibrate

WORKLOADS = ("solve", "oracle", "sample")

THETA = Fraction(1, 2)
EPS = Fraction(1, 4)
DELTA = Fraction(1, 20)
KAPPA = Fraction(1, 8)

# Chance that a correct Monte-Carlo estimate still fails its Hoeffding or
# DKW check; small enough that a reported failure means a defect.
CHECK_DELTA = 1e-9
MC_DRAWS = 25_000

# Upward-closed threshold sets of {0,1}^4, i.e. positive threshold
# functions of 4 variables with the two constants (OEIS A000617).
MONOTONE_SETS_K4 = 150

# Per-op costs in reference-speed seconds (see calibrate), used only to
# turn ``seconds`` into an op count.  Plans fill BUDGET_SHARE of the run
# length at these costs, which leaves room for a host that runs slower.
BUDGET_SHARE = 0.75
SOLVE_PAIR_S = 3.2  # one n=8 solve at L_cap=2 plus one at L_cap=3
ORACLE_FIXED_S = 9.0  # cold k=4 enumeration, chain searches, n=5 oracles
ORACLE_ROUND_S = 0.11  # one n=4 oracle + uniform baseline + solve
SAMPLE_ROUND_S = 2.7  # mc n=64, exact + mc n=22, tail sample n=32
CHAIN_R3_MIN_S = 10  # below this run length, skip the 887-LP chain search


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def stratified_probs(rng: random.Random, n: int, lo: float = 0.3, hi: float = 0.7) -> list[float]:
    probs = [round(lo + (hi - lo) * (i + rng.random()) / n, 6) for i in range(n)]
    rng.shuffle(probs)
    return probs


def granular_instance(rng: random.Random, n: int) -> core.ProblemInstance:
    return core.preprocess(stratified_probs(rng, n), THETA, EPS, DELTA).instance


def practical_config(L_cap: int, seed: int) -> core.SolverConfig:
    return core.SolverConfig(mode="practical", kappa_override=KAPPA, L_cap=L_cap, seed=seed)


def hoeffding_radius(m: int, events: int = 1) -> float:
    """Two-sided Hoeffding radius for m draws, union-bounded over events."""
    return math.sqrt(math.log(2 * events / CHECK_DELTA) / (2 * m))


def fracs(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


@dataclass
class Outcome:
    """What one execution of a plan measured and found."""

    wall_s: float = 0.0  # all timed library calls, less the speed probe's time
    wall_ref_s: float = 0.0  # the same at reference speed
    probe_s: float = 0.0  # time the speed probe took inside timed calls
    attempted: int = 0
    failures: list = field(default_factory=list)
    times: dict = field(default_factory=lambda: defaultdict(list))  # kind -> seconds per call
    ref_times: dict = field(default_factory=lambda: defaultdict(list))  # the same at reference speed
    objectives: list = field(default_factory=list)  # exact objectives of chosen or evaluated weights
    gaps: list = field(default_factory=list)  # oracle opt - solve exact
    digest: str = ""


def plan(workload: str, seed: int, seconds: int) -> list:
    """Every input of one run as (kind, payload) segments, made from the
    seed alone (and the run length)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"storalloc-bench-{workload}-{seed}")
    budget = BUDGET_SHARE * seconds
    ops: list = []
    if workload == "solve":
        for _ in range(max(1, round(budget / SOLVE_PAIR_S))):
            for L_cap in (2, 3):
                ops.append((f"solve_L{L_cap}", (stratified_probs(rng, 8), L_cap, rng.randrange(1 << 31))))
    elif workload == "oracle":
        ops.append(("enumerate", 4))
        ops.append(("counterexample", None))
        n4 = max(2, round((budget - ORACLE_FIXED_S) / ORACLE_ROUND_S))
        for _ in range(n4):
            probs = stratified_probs(rng, 4)
            inst = core.preprocess(probs, THETA, EPS, DELTA).instance
            ops.append(("gap4", (probs, inst, rng.randrange(1 << 31))))
        for _ in range(3 if seconds >= CHAIN_R3_MIN_S else 1):
            ops.append(("oracle5", granular_instance(rng, 5)))
        for r in (2, 3) if seconds >= CHAIN_R3_MIN_S else (2,):
            head = sorted((Fraction(rng.randint(20, 44), 64) for _ in range(3)), reverse=True)
            points = sorted(Fraction(v, 16) for v in rng.sample(range(9), r))
            ops.append(("best_head", (head, points)))
    else:
        # Evaluation runs on the solver's granular probabilities, as in solve.
        for _ in range(max(1, round(budget / SAMPLE_ROUND_S))):
            ops.append(("mc64", (granular_instance(rng, 64).probs, rng.randrange(1 << 31))))
            raw = rng.sample(range(1, 1 << 10), 22)
            weights = [Fraction(v, sum(raw)) for v in raw]
            ops.append(("eval22", (granular_instance(rng, 22).probs, weights, rng.randrange(1 << 31))))
            tail = [Fraction(rng.randint(0, 2), 64) for _ in range(32)]
            ops.append(("tail32", (granular_instance(rng, 40), tail, rng.randrange(1 << 31))))
    return ops


class _Recorder:
    def __init__(self, outcome: Outcome, probe: calibrate.SpeedProbe, quiet: Callable):
        self.outcome = outcome
        self.probe = probe
        self.quiet = quiet
        self.segment_times: list = []  # (kind, seconds less probe time, probe seconds) of the current segment
        self._digest = hashlib.sha256()

    def op(self, kind: str, call: Callable, check: Callable[..., str]):
        """Time ``call()``; then ``check(result)``, inside ``quiet()``, verifies
        it and returns the canonical text that enters the digest.  A raised
        error or a failed check counts the op as failed and returns None."""
        self.outcome.attempted += 1
        mark = self.probe.mark()
        t0 = time.perf_counter()
        try:
            result = call()
            elapsed = time.perf_counter() - t0
            probe_s = self.probe.since(mark)[1]
            self.segment_times.append((kind, elapsed - probe_s, probe_s))
            with self.quiet():
                text = check(result)
        except Exception as exc:  # any error is a failed op, reported by name
            self.outcome.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self._digest.update(f"{kind}\n{text}\n".encode())
        return result

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _rounded_probs(p_raw) -> list[Fraction]:
    """The solver's eps/(4n)-rounded probabilities, in the caller's order."""
    inst = core.preprocess(p_raw, THETA, EPS, DELTA).instance
    out = [Fraction(0)] * inst.n
    for slot, p in enumerate(inst.probs):
        out[inst.permutation[slot]] = p
    return out


def _check_solve(report, p_raw, outcome: Outcome) -> str:
    w = report.chosen_weights
    require(all(x >= 0 for x in w) and sum(w) <= 1, "chosen weights must be >= 0 and sum to <= 1")
    require(report.exact_objective is not None, "report has no exact objective")
    exact = evaluate.exact_objective_probs(_rounded_probs(p_raw), w, THETA)
    require(report.exact_objective == exact, "report's exact objective differs from a fresh evaluation")
    # The chosen estimate is the best of pool_size estimates on one sample.
    est = report.estimate
    radius = hoeffding_radius(est.m, report.pool_size)
    require(abs(float(est.value - exact)) <= radius, "selection estimate outside its Hoeffding radius")
    outcome.objectives.append(exact)
    return report.to_json()


def _best_head_value(head, points, theta, weights) -> Fraction:
    """Pr[u . X + R >= theta] with R uniform over the points, by enumeration."""
    total = Fraction(0)
    for x in range(1 << len(head)):
        pr = Fraction(1)
        dot = Fraction(0)
        for j, (p, u) in enumerate(zip(head, weights)):
            bit = (x >> j) & 1
            pr *= p if bit else 1 - p
            dot += u * bit
        total += pr * sum(1 for t in points if dot + t >= theta)
    return total / len(points)


def execute(segments: list, quiet: Callable = nullcontext) -> Outcome:
    """Run the plan's segments in order under a speed probe.

    wall_s sums the timed library calls, less the probe's own time; checks
    are left out.  Each op is scaled to reference speed by the reference
    times sampled during its segment.  Checks run inside ``quiet()``."""
    outcome = Outcome()
    probe = calibrate.SpeedProbe()
    rec = _Recorder(outcome, probe, quiet)
    with probe.running():
        for kind, payload in segments:
            rec.segment_times = []
            mark = probe.mark()
            _run_segment(rec, outcome, kind, payload)
            ref_s = probe.since(mark)[0]
            for op_kind, op_s, probe_s in rec.segment_times:
                ref_op_s = calibrate.scale(op_s, ref_s)
                outcome.times[op_kind].append(op_s)
                outcome.ref_times[op_kind].append(ref_op_s)
                outcome.wall_s += op_s
                outcome.wall_ref_s += ref_op_s
                outcome.probe_s += probe_s
    outcome.digest = rec.hexdigest()
    return outcome


def _run_segment(rec: _Recorder, outcome: Outcome, kind: str, payload) -> None:
    if kind.startswith("solve_L"):
        probs, L_cap, seed = payload
        cfg = practical_config(L_cap, seed)
        rec.op(
            kind,
            lambda: driver.solve(probs, THETA, EPS, DELTA, cfg, threads=1),
            lambda rep: _check_solve(rep, probs, outcome),
        )
    elif kind == "enumerate":
        k = payload

        def check_sets(sets):
            require(len(sets) == MONOTONE_SETS_K4, f"k=4 has {len(sets)} upward-closed sets")
            require(all(halfspaces.is_upward_closed(s.mask, k) for s in sets), "set not upward closed")
            return ",".join(str(s.mask) for s in sets)

        rec.op("enumerate", lambda: halfspaces.enumerate_halfspace_sets(k, monotone=True), check_sets)
    elif kind == "counterexample":

        def check_cex(rep):
            require(rep.passed, "the non-uniform split must beat every uniform split")
            return f"{rep.candidate_value} {rep.best_uniform_k} {rep.best_uniform_value}"

        rec.op("counterexample", baselines.kleinberg_counterexample, check_cex)
    elif kind == "gap4":
        _gap_round(rec, outcome, *payload)
    elif kind == "oracle5":
        inst = payload
        uniform = rec.op(
            "uniform", lambda: baselines.uniform_split_baseline(inst), lambda u: f"{u.best_k} {u.value}"
        )

        def check_oracle5(res):
            require(uniform is not None and res.opt_value >= uniform.value, "n=5 oracle below uniform split")
            return f"{res.opt_value} {fracs(res.witness)}"

        rec.op("oracle5", lambda: baselines.brute_force_optimum(inst, allow_grid_n5=True), check_oracle5)
    elif kind == "best_head":
        head, points = payload
        budget = Fraction(1, 2)

        def check_head(res):
            u = res.weights
            require(all(x >= 0 for x in u) and sum(u) <= budget, "head outside its budget")
            require(res.patterns_examined > 0, "no chains examined")
            require(res.value == _best_head_value(head, points, THETA, u), "head value does not match its weights")
            return f"{fracs(u)} {res.value} {res.patterns_examined}"

        rec.op("best_head", lambda: small_ci.find_best_head(head, points, budget, THETA, threads=1), check_head)
    elif kind == "mc64":
        probs, seed = payload
        weights = [Fraction(1, len(probs))] * len(probs)

        def check_mc64(est):
            exact = evaluate.exact_objective_probs(probs, weights, THETA)
            require(abs(float(est.value - exact)) <= hoeffding_radius(est.m), "mc estimate outside Hoeffding radius")
            outcome.objectives.append(exact)
            return str(est.value)

        rec.op("mc64", lambda: evaluate.mc_estimate_probs(probs, weights, THETA, MC_DRAWS, seed, threads=1), check_mc64)
    elif kind == "eval22":
        probs, weights, seed = payload

        def check_exact(value):
            require(0 <= value <= 1, "probability outside [0,1]")
            outcome.objectives.append(value)
            return str(value)

        exact = rec.op("exact", lambda: evaluate.exact_objective_probs(probs, weights, THETA), check_exact)

        def check_mc22(est):
            require(exact is not None, "no exact reference")
            require(abs(float(est.value - exact)) <= hoeffding_radius(est.m), "mc estimate outside Hoeffding radius")
            return str(est.value)

        rec.op("mc22", lambda: evaluate.mc_estimate_probs(probs, weights, THETA, MC_DRAWS, seed, threads=1), check_mc22)
    elif kind == "tail32":
        inst, tail, seed = payload

        def check_tail(dist):
            require(dist.m == MC_DRAWS and sum(dist.counts) == MC_DRAWS, "sample count mismatch")
            law = evaluate.linear_form_dist(tail, inst.probs[inst.n - len(tail):])
            gap = evaluate.kolmogorov_distance(dist, law)
            dkw = math.sqrt(math.log(2 / CHECK_DELTA) / (2 * dist.m))
            require(float(gap) <= dkw, "empirical tail law outside its DKW band")
            return f"{fracs(dist.values)} {','.join(map(str, dist.counts))}"

        rec.op("tail_sample", lambda: evaluate.sample_tail_empirical(inst, tail, MC_DRAWS, seed, threads=1), check_tail)
    else:
        raise ValueError(f"unknown op {kind!r}")


def _gap_round(rec: _Recorder, outcome: Outcome, probs, inst, seed: int) -> None:
    """Warm n=4 oracle against the uniform baseline and the solver."""
    uniform = rec.op("uniform", lambda: baselines.uniform_split_baseline(inst), lambda u: f"{u.best_k} {u.value}")
    cfg = practical_config(2, seed)
    report = rec.op(
        "solve",
        lambda: driver.solve(probs, THETA, EPS, DELTA, cfg, threads=1),
        lambda rep: _check_solve(rep, probs, outcome),
    )

    def check_oracle(res):
        require(uniform is not None and res.opt_value >= uniform.value, "oracle below uniform split")
        require(report is not None, "no solver result to compare")
        gap = res.opt_value - report.exact_objective
        require(gap >= 0, "solver beat the exact oracle")
        require(gap <= EPS, "solver more than eps below the oracle")
        outcome.gaps.append(gap)
        return f"{res.opt_value} {fracs(res.witness)} {res.sets_examined}"

    rec.op("oracle", lambda: baselines.brute_force_optimum(inst), check_oracle)
