"""The package root exports the solve and oracle API and nothing else."""

import os
import subprocess
import sys
from pathlib import Path

import storalloc

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
    src = str(Path(storalloc.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, storalloc.driver, storalloc.baselines, storalloc.cli; "
        "print('storalloc.lemmas' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
