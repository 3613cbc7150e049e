"""The public surface: the root API, the report's config echo, the CLI
options and the process-wide caches.

The package root exports the solve and oracle API and nothing else.
"""

import argparse
import ast
import importlib.util
import inspect
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import storalloc
from storalloc import driver, small_ci
from storalloc.cli import build_parser

from conftest import child_env

ROOT_API = {
    "solve",
    "solve_instance",
    "SolveReport",
    "SolverConfig",
    "ProblemInstance",
    "preprocess",
    "exact_objective_probs",
    "mc_estimate_probs",
    "ObjectiveEstimate",
    "brute_force_optimum",
    "OracleResult",
    "uniform_split_baseline",
    "kleinberg_counterexample",
    "StorallocError",
    "InputError",
    "GuardError",
}


def test_all_is_the_root_api():
    assert len(storalloc.__all__) == len(ROOT_API) == 16
    assert set(storalloc.__all__) == ROOT_API


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from storalloc import *", namespace)
    assert ROOT_API <= set(namespace)
    for name in ROOT_API:
        assert namespace[name] is getattr(storalloc, name)


def test_solver_and_cli_do_not_load_the_lemma_checkers():
    # the lemma checkers are test code (tests/lemmas.py), not a package module
    assert importlib.util.find_spec("storalloc.lemmas") is None
    # nor a thread pool: the library runs on the calling thread (numpy
    # alone does not load concurrent.futures); nor, through a practical
    # solve, the exact head search, the simplex or the halfspace helpers:
    # a solve decides Case 3 in closed form (driver.case3_verdict)
    unloaded = ("concurrent.futures", "storalloc.lp", "storalloc.small_ci", "storalloc.halfspaces")
    code = (
        "import sys, storalloc.driver, storalloc.baselines, storalloc.cli, storalloc.evaluate\n"
        "cfg = storalloc.SolverConfig(mode='practical', kappa_override='1/8', L_cap=2)\n"
        "storalloc.solve([0.62, 0.55, 0.48, 0.45, 0.4, 0.37, 0.33, 0.31], 0.5, 0.25, 0.05, cfg)\n"
        f"print(*(name in sys.modules for name in {unloaded!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * len(unloaded)


# Package import, CLI import, then practical solves at eps 1/4 (m = 60)
# and at eps 1/100 (m = 36 889, three chunks), each followed by a look at
# sys.modules
_NUMPY_RANDOM_SCRIPT = """
import sys
import numpy
loaded = []
import storalloc
loaded.append("numpy.random" in sys.modules)
import storalloc.cli
loaded.append("numpy.random" in sys.modules)
cfg = storalloc.SolverConfig(mode="practical", kappa_override="1/8", L_cap=2)
for eps, m in ((0.25, 60), (0.01, 36_889)):
    report = storalloc.solve([0.62, 0.55, 0.48, 0.45, 0.4, 0.37, 0.33, 0.31], 0.5, eps, 0.05, cfg)
    assert report.estimate.m == m, report.estimate.m
    loaded.append("numpy.random" in sys.modules)
print(*loaded)
"""


def test_solves_do_not_import_numpy_random():
    # the solve's sample reads the splitmix64 stream (util.SplitMix64);
    # PCG64 would import numpy.random, nine extension modules
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_SCRIPT],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 4


# Case 3's DP, sampler and head completion: the test reference, tests/case3.py
CASE3_REFERENCE = {
    "RegularTailQuintuple",
    "_tail_dp",
    "_witness",
    "construct_achievable_regular_tails",
    "ApproxHeadResult",
    "sample_count",
    "find_approximately_best_head",
    "SmallCICandidate",
    "SMALL_CI_SEED_TAG",
    "find_near_opt_small_ci",
}
SMALL_CI_API = {
    "HeadResult",
    "find_best_head",
    "chain_lp",
}


def _module_level_names(module) -> set:
    """Names a module's own source binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_case3_reference_stays_out_of_the_solver():
    # no runnable configuration completes Case 3 (driver.case3_verdict)
    for module in (small_ci, driver):
        assert not CASE3_REFERENCE & set(vars(module)), module.__name__
    public = {name for name in _module_level_names(small_ci) if not name.startswith("_")}
    assert public - {"logger"} == SMALL_CI_API


# Calls into every numpy-backed layer: selection and the junta in a solve,
# the n = 5 oracle, the k = 5 family, sampling (at 1000 draws and at
# 2000) and tail sampling.
_NUMPY_MA_SCRIPT = """
import sys
from fractions import Fraction as F
import storalloc
from storalloc.evaluate import mc_estimate_probs, sample_tail_empirical
from storalloc.halfspaces import enumerate_halfspace_sets

cfg = storalloc.SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=3)
storalloc.solve([0.62, 0.55, 0.48, 0.45, 0.4, 0.37, 0.33, 0.31], 0.5, 0.25, 0.05, cfg)
pre = storalloc.preprocess([0.55, 0.62, 0.41, 0.33, 0.7], 0.5, 0.25, 0.05)
storalloc.brute_force_optimum(pre.instance, allow_grid_n5=True)
enumerate_halfspace_sets(5, monotone=True)
mc_estimate_probs([F(1, 2), F(2, 3), F(3, 5)], [F(1, 3)] * 3, F(1, 2), 1000, 0)
mc_estimate_probs([F(1, 2), F(2, 3), F(3, 5)], [F(1, 3)] * 3, F(1, 2), 2000, 0)
sample_tail_empirical(pre.instance, [F(1, 8), F(1, 4)], 1000, 0)
print("numpy.ma" in sys.modules)
"""


def test_library_calls_do_not_import_numpy_ma():
    # plain np.unique(x) imports numpy.ma on first use, 9-12 ms
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_SCRIPT],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


_NO_DATACLASSES_SCRIPT = """
import sys
import storalloc
from storalloc import baselines, core, driver, evaluate, halfspaces, lp, small_ci
print("dataclasses" in sys.modules)
"""


def test_package_import_does_not_load_dataclasses():
    # dataclasses compiles each record's methods at import (util.Record)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_DATACLASSES_SCRIPT],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    for path in Path(storalloc.__file__).parent.glob("*.py"):
        assert "@dataclass" not in path.read_text(), path.name


def test_report_config_echoes_every_solver_config_field():
    cfg = storalloc.SolverConfig(mode="practical", kappa_override=F(1, 8), L_cap=2)
    config = storalloc.solve([0.62, 0.45, 0.31], 0.5, 0.25, 0.05, cfg).to_dict()["config"]
    fields = list(storalloc.SolverConfig.__slots__)
    assert list(config) == fields
    # every __init__ parameter is a field, in the same order
    assert list(inspect.signature(storalloc.SolverConfig).parameters) == fields


def test_option_count_per_subcommand():
    # a new flag shows up here as a test diff
    def options(parser):
        return [a for a in parser._actions if a.option_strings and a.dest not in ("help", "version")]

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    counts = {name: len(options(p)) for name, p in sub.choices.items()}
    assert counts == {
        "solve": 9, "eval": 4, "oracle": 2, "baseline": 1, "counterexample": 1, "bench": 10, "gen": 8,
    }
    assert [a.dest for a in options(parser)] == ["log_level"]


# Every function in src/ that holds results for the life of the process; a
# new cache shows up here as a test diff.
PROCESS_CACHES = {"junta._load_table", "large_ci._skip_log_bound"}


def test_process_wide_caches_are_pinned():
    found = set()
    for path in Path(storalloc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("cache", "lru_cache"):
                        found.add(f"{path.stem}.{node.name}")
    assert found == PROCESS_CACHES
