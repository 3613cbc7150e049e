"""Command-line front end.

Subcommands: solve | eval | oracle | baseline | counterexample | bench | gen.
``--log-level`` (before the subcommand) sets the storalloc log on stderr.
Exit codes: 0 success, 2 invalid input, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .baselines import brute_force_optimum, kleinberg_counterexample, uniform_split_baseline
from .core import SolverConfig, preprocess
from .driver import solve
from .errors import GuardError, InputError
from .evaluate import exact_objective_probs, mc_estimate_probs
from .formats import (
    BENCH_COLUMNS,
    bench_rows_to_json,
    bench_rows_to_tsv,
    load_instance,
    parse_weights,
    save_instance,
)
from .util import derived_rng, frac_str, to_fraction


_DEFAULTS = SolverConfig()

# Every solver flag; solve and bench take them all, the other commands only
# the ones they read.
_SOLVER_FLAGS = {
    "--mode": dict(choices=("theory", "practical"), default=_DEFAULTS.mode),
    "--kappa": dict(default=None, help="practical-mode tail granularity (a/b or float)"),
    "--l-cap": dict(type=int, default=None, help="practical-mode cap on L"),
    "--c-l": dict(default=str(_DEFAULTS.c_L), help="constant in the L formula"),
    "--mc-constant": dict(default=str(_DEFAULTS.mc_constant), help="constant in sample-size formulas"),
    "--seed": dict(type=int, default=_DEFAULTS.seed),
    "--state-space-limit": dict(type=int, default=_DEFAULTS.state_space_limit),
}


def _add_solver_flags(p: argparse.ArgumentParser, names=tuple(_SOLVER_FLAGS)):
    for name in names:
        p.add_argument(name, **_SOLVER_FLAGS[name])


def _config(args) -> SolverConfig:
    return SolverConfig(
        mode=args.mode,
        c_L=to_fraction(args.c_l, limit_denominator=True),
        kappa_override=None if args.kappa is None else to_fraction(args.kappa, limit_denominator=True),
        L_cap=args.l_cap,
        mc_constant=to_fraction(args.mc_constant, limit_denominator=True),
        seed=args.seed,
        state_space_limit=args.state_space_limit,
    )


def _emit(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    probs, theta, epsilon, delta = load_instance(args.instance)
    report = solve(probs, theta, epsilon, delta, config=_config(args))
    _emit(report.to_json(include_timings=args.timings), args.out)
    return 0


def _cmd_eval(args) -> int:
    probs, theta, _, _ = load_instance(args.instance)
    weights = parse_weights(args.weights, len(probs))
    result = {
        "weights": [frac_str(w) for w in weights],
        "theta": frac_str(theta),
    }
    if args.mc is not None:
        est = mc_estimate_probs(probs, weights, theta, args.mc, args.seed)
        result["mc_estimate"] = frac_str(est.value)
        result["mc_estimate_float"] = float(est.value)
        result["m"] = est.m
        result["seed"] = est.seed
    else:
        value = exact_objective_probs(probs, weights, theta)
        result["exact_objective"] = frac_str(value)
        result["exact_objective_float"] = float(value)
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def _instance_or_shortcut(probs, theta, epsilon, delta):
    pre = preprocess(probs, theta, epsilon, delta)
    if pre.is_trivial:
        raise InputError(
            f"instance short-circuits in preprocessing ({pre.shortcut.reason}); "
            "nothing for this command to do"
        )
    return pre.instance


def _cmd_oracle(args) -> int:
    probs, theta, epsilon, delta = load_instance(args.instance)
    instance = _instance_or_shortcut(probs, theta, epsilon, delta)
    res = brute_force_optimum(instance, allow_grid_n5=args.allow_grid_n5)
    result = {
        "opt_value": frac_str(res.opt_value),
        "opt_value_float": float(res.opt_value),
        "witness": [frac_str(w) for w in instance.to_original_order(res.witness)],
        "sets_examined": res.sets_examined,
    }
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def _cmd_baseline(args) -> int:
    probs, theta, epsilon, delta = load_instance(args.instance)
    instance = _instance_or_shortcut(probs, theta, epsilon, delta)
    res = uniform_split_baseline(instance)
    result = {
        "best_k": res.best_k,
        "value": frac_str(res.value),
        "value_float": float(res.value),
        "per_k": [frac_str(v) for v in res.per_k],
        "per_k_float": [float(v) for v in res.per_k],
    }
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def _cmd_counterexample(args) -> int:
    rep = kleinberg_counterexample()
    result = {
        "candidate": [frac_str(w) for w in rep.candidate],
        "candidate_value": frac_str(rep.candidate_value),
        "candidate_value_float": float(rep.candidate_value),
        "best_uniform_k": rep.best_uniform_k,
        "best_uniform_value": frac_str(rep.best_uniform_value),
        "best_uniform_value_float": float(rep.best_uniform_value),
        "passed": rep.passed,
    }
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0 if rep.passed else 1


def _cmd_bench(args) -> int:
    rows = []
    config = _config(args)
    for path in args.instances:
        probs, theta, epsilon, delta = load_instance(path)
        report = solve(probs, theta, epsilon, delta, config=config)
        row = dict.fromkeys(BENCH_COLUMNS)  # the columns in order, oracle cells None until filled
        row.update(
            instance=str(path),
            n=len(probs),
            theta=frac_str(theta),
            epsilon=frac_str(epsilon),
            solver_estimate=float(report.estimate.value),
            solver_exact=float(report.exact_objective),
            solver_provenance=report.provenance,
        )
        pre = preprocess(probs, theta, epsilon, delta)
        if not pre.is_trivial:
            instance = pre.instance
            base = uniform_split_baseline(instance)
            row["baseline_best_k"] = base.best_k
            row["baseline_value"] = float(base.value)
            oracle_max = 5 if args.oracle_n5 else 4
            if instance.n <= oracle_max:
                orc = brute_force_optimum(instance, allow_grid_n5=args.oracle_n5)
                row["oracle_value"] = float(orc.opt_value)
                row["gap_baseline"] = float(orc.opt_value - base.value)
                row["gap_solver"] = float(orc.opt_value - report.exact_objective)
        rows.append(row)
    text = bench_rows_to_tsv(rows) if args.tsv else bench_rows_to_json(rows)
    _emit(text, args.out)
    return 0


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise InputError("n must be >= 1")
    if not 0 <= args.lo <= args.hi <= 1:
        raise InputError("need 0 <= lo <= hi <= 1")
    rng = derived_rng(args.seed, 0x6E6)
    probs = [round(float(v), 6) for v in rng.uniform(args.lo, args.hi, size=args.n)]
    save_instance(args.out or "instance.json", probs, args.theta, args.epsilon, args.delta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storalloc",
        description="Fault-tolerant storage allocation: approximation scheme, "
        "exact oracle, and baselines.",
    )
    parser.add_argument("--version", action="version", version=f"storalloc {__version__}")
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="level of the storalloc log on stderr (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the full approximation pipeline")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate a weight vector on an instance")
    p.add_argument("instance")
    p.add_argument("--weights", required=True, help='comma-separated, e.g. "1/4,1/4,1/2"')
    p.add_argument("--mc", type=int, default=None, help="Monte-Carlo sample count (default: exact)")
    p.add_argument("--out", default=None)
    _add_solver_flags(p, ("--seed",))
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("oracle", help="exact optimum for tiny n")
    p.add_argument("instance")
    p.add_argument("--allow-grid-n5", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("baseline", help="uniform k-split values")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("counterexample", help="reproduce the non-uniform counterexample")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("bench", help="solver vs baseline vs oracle table")
    p.add_argument("instances", nargs="+")
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--oracle-n5", action="store_true")
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lo", type=float, default=0.3)
    p.add_argument("--hi", type=float, default=0.7)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log = logging.getLogger("storalloc")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous_level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        guard = {"guard": str(exc), "estimate": exc.estimate, "limit": exc.limit}
        print(json.dumps(guard), file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
