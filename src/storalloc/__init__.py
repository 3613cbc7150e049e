"""storalloc: fault-tolerant storage allocation.

Maximize Pr[w . X >= theta] over non-negative allocations with unit budget,
where X is a product of Bernoulli node-survival indicators.  The root
exports the solve and oracle API: the case-split approximation pipeline,
preprocessing, exact and Monte-Carlo evaluation, the exact brute-force
optimizer for tiny instances, and the baselines.  The case solvers and
their building blocks live in the submodules.
"""

__version__ = "0.1.0"

from .core import ProblemInstance, SolverConfig, preprocess
from .errors import GuardError, InputError, StorallocError
from .evaluate import ObjectiveEstimate, exact_objective_probs, mc_estimate_probs
from .baselines import (
    OracleResult,
    brute_force_optimum,
    kleinberg_counterexample,
    uniform_split_baseline,
)
from .driver import SolveReport, solve, solve_instance

__all__ = [
    "GuardError",
    "InputError",
    "ObjectiveEstimate",
    "OracleResult",
    "ProblemInstance",
    "SolveReport",
    "SolverConfig",
    "StorallocError",
    "brute_force_optimum",
    "exact_objective_probs",
    "kleinberg_counterexample",
    "mc_estimate_probs",
    "preprocess",
    "solve",
    "solve_instance",
    "uniform_split_baseline",
]
