"""Ground truth for tiny instances and the classical heuristic baseline.

The brute-force oracle is the junta solver run at full dimension: when L
equals n there is no tail, so the junta's scan over all upward-closed
realizable event sets is exhaustive and the result is exactly optimal;
``sets_examined`` is the number of sets that scan visited.  The event sets
are the junta's committed families, which the tests check against an
exact LP separability oracle for n <= 4, by count and digest at n = 5,
and against the weight grid of the table's generator at every n.
Desk scale caps the oracle at n = 4; n = 5 (3287 upward-closed sets) is
available behind a flag.

The uniform k-split baseline and the n=5 counterexample that beats it are
kept here for benchmarking: with five nodes at p = 0.9 and theta = 5/12,
the split (1/4, 1/4, 1/6, 1/6, 1/6) achieves 0.99711 while the best
uniform split (k=4) only reaches 0.9963.  A uniform split succeeds when
enough of its k nodes survive, so one pass that grows the survivor
count's law node by node values every k exactly in O(n^2) big-int steps,
at any n.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ProblemInstance, preprocess
from .errors import InputError
from .evaluate import exact_objective_probs
from .junta import JuntaRequest, find_optimal_junta
from .util import Record


class OracleResult(Record):
    __slots__ = ("opt_value", "witness", "sets_examined")

    def __init__(
        self,
        opt_value: Fraction,
        witness: tuple[Fraction, ...],  # sorted-instance order
        sets_examined: int,
    ):
        object.__setattr__(self, "opt_value", opt_value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "sets_examined", sets_examined)


ORACLE_FLAG_MAX_N = 5


def brute_force_optimum(instance: ProblemInstance, allow_grid_n5: bool = False) -> OracleResult:
    """Exactly optimal allocation by exhaustive event-set enumeration.

    n = 5 requires ``allow_grid_n5``.
    """
    n = instance.n
    if n > ORACLE_FLAG_MAX_N:
        raise InputError(f"oracle supports n <= {ORACLE_FLAG_MAX_N}; got n={n}")
    if n == ORACLE_FLAG_MAX_N and not allow_grid_n5:
        raise InputError("n=5 oracle requires allow_grid_n5=True")
    result = find_optimal_junta(JuntaRequest(instance.probs, instance.theta, Fraction(1)))
    return OracleResult(result.value, result.weights, result.sets_examined)


class UniformSplitResult(Record):
    __slots__ = ("best_k", "value", "per_k")

    def __init__(self, best_k: int, value: Fraction, per_k: tuple[Fraction, ...]):
        object.__setattr__(self, "best_k", best_k)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "per_k", per_k)


def uniform_split_baseline(instance: ProblemInstance) -> UniformSplitResult:
    """Exact value of w = (1/k,...,1/k,0,...,0) for every k; argmax reported.

    w . X >= theta iff the success count C_k of the first k nodes reaches
    ceil(k theta), so the value at k is a tail of C_k's Poisson-binomial
    law.  The law grows one node at a time, as integer numerators over the
    product D_k of the first k denominators: O(n^2) steps for every k.
    """
    a, b = instance.theta.numerator, instance.theta.denominator
    law, den, values = [1], 1, []
    for k, p in enumerate(instance.probs, 1):
        pa, pb = p.numerator, p.denominator
        law = [x * (pb - pa) + y * pa for x, y in zip(law + [0], [0] + law)]
        den *= pb
        need = -(-k * a // b)  # ceil(k theta)
        values.append(Fraction(sum(law[need:]), den))
    best_k = max(range(instance.n), key=lambda i: (values[i], -i)) + 1
    return UniformSplitResult(best_k=best_k, value=values[best_k - 1], per_k=tuple(values))


class CounterexampleReport(Record):
    __slots__ = ("candidate", "candidate_value", "best_uniform_k", "best_uniform_value", "passed")

    def __init__(
        self,
        candidate: tuple[Fraction, ...],
        candidate_value: Fraction,
        best_uniform_k: int,
        best_uniform_value: Fraction,
        passed: bool,
    ):
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "candidate_value", candidate_value)
        object.__setattr__(self, "best_uniform_k", best_uniform_k)
        object.__setattr__(self, "best_uniform_value", best_uniform_value)
        object.__setattr__(self, "passed", passed)


def kleinberg_counterexample() -> CounterexampleReport:
    """Reproduce the non-uniform-beats-uniform example exactly.

    n=5, theta=5/12, p_i = 1 - eps0 with eps0 = 0.1 (verified sufficient);
    the candidate (1/4,1/4,1/6,1/6,1/6) must strictly beat every uniform
    split.
    """
    eps0 = Fraction(1, 10)
    p = [1 - eps0] * 5
    theta = Fraction(5, 12)
    # eps=0.05 keeps p granular (0.9 = 360/400) and below the 1-eps shortcut.
    instance = preprocess(p, theta, Fraction(1, 20), Fraction(1, 20)).instance
    candidate = (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 6),
    )
    candidate_value = exact_objective_probs(instance.probs, candidate, theta)
    uniform = uniform_split_baseline(instance)
    return CounterexampleReport(
        candidate=candidate,
        candidate_value=candidate_value,
        best_uniform_k=uniform.best_k,
        best_uniform_value=uniform.value,
        passed=candidate_value > uniform.value,
    )
