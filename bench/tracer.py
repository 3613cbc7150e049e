"""Per-layer spans recorded from outside the storalloc package.

Installing a Tracer replaces the public functions of each layer with
wrappers, in every loaded ``storalloc`` module that holds a reference to
them, so nested calls the library makes itself (driver -> large_ci ->
junta -> lp) are spanned without editing ``src/``.  Each span records its
name, start, end and parent; spans of one top-level call share an op id.
Counts are read from arguments and return values at the same boundaries.
Spans stay in memory and are written out by the caller when the run ends.
Calls made while the tracer is ``paused()`` (the benchmark's own checks)
pass through unrecorded.

``lp_solve`` is named by the module that calls it: halfspace separation,
junta feasibility and best-head chain maximisation are three different
uses of the same simplex.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LP_USE = {
    "storalloc.halfspaces": "lp.separation",
    "storalloc.junta": "lp.feasibility",
    "storalloc.small_ci": "lp.chain",
}


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_solve(counts, result, fn, args, kwargs):
    counts["driver.pool_size"] += result.pool_size


def _count_selection(counts, result, fn, args, kwargs):
    call = _bound(fn, args, kwargs)
    counts["driver.selection.members"] += len(call["members"])
    counts["driver.selection.m"] += call["m"]


def _count_mc(counts, result, fn, args, kwargs):
    counts["evaluate.mc.draws"] += result.m


def _count_len(key):
    def count(counts, result, fn, args, kwargs):
        counts[key] += len(result)

    return count


def _count_best_head(counts, result, fn, args, kwargs):
    counts["small_ci.best_head.chains"] += result.patterns_examined


def _count_junta(counts, result, fn, args, kwargs):
    counts["junta.sets_examined"] += result.sets_examined


def _count_lp(counts, result, fn, args, kwargs):
    counts["lp.calls"] += 1
    counts["lp.optimal"] += result.status == "optimal"


# (defining module, public function, span name, counter).  A span name of
# None means "lp.<use>", resolved per importing module through LP_USE.
TARGETS = (
    ("driver", "solve", "driver.solve", _count_solve),
    ("driver", "shared_mc_estimates", "driver.selection", _count_selection),
    ("evaluate", "mc_estimate_probs", "evaluate.mc", _count_mc),
    ("evaluate", "sample_tail_empirical", "evaluate.tail_sample", None),
    ("evaluate", "exact_objective_probs", "evaluate.exact", None),
    ("large_ci", "find_near_opt_large_ci", "large_ci", None),
    ("large_ci", "construct_achievable_tails", "large_ci.tail_dp", _count_len("large_ci.triples")),
    ("small_ci", "find_near_opt_small_ci", "small_ci", _count_len("small_ci.candidates")),
    (
        "small_ci",
        "construct_achievable_regular_tails",
        "small_ci.tail_dp",
        _count_len("small_ci.regular_triples"),
    ),
    ("small_ci", "find_best_head", "small_ci.best_head", _count_best_head),
    ("junta", "find_optimal_junta", "junta", _count_junta),
    ("lp", "lp_solve", None, _count_lp),
    ("halfspaces", "enumerate_halfspace_sets", "halfspaces.enumerate", None),
    ("baselines", "brute_force_optimum", "baselines.oracle", None),
    ("baselines", "uniform_split_baseline", "baselines.uniform", None),
    ("baselines", "kleinberg_counterexample", "baselines.counterexample", None),
    ("core", "preprocess", "core.preprocess", None),
)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ops = 0
        self._enumerated: set = set()
        self._paused = False

    @contextmanager
    def paused(self):
        """Let calls made inside the block pass through unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if stack:
                parent = stack[-1]
                op = tracer.spans[parent][4]
            else:
                parent = None
                op = tracer._ops
                tracer._ops += 1
            record = [name, time.perf_counter(), None, parent, op]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, result, fn, args, kwargs)
            return result

        return spanned

    def _count_enumeration(self, counts, result, fn, args, kwargs):
        # Sets are built once per (k, monotone) and cached by the library;
        # count them on the first call only, which is the one that builds.
        call = _bound(fn, args, kwargs)
        key = (call["k"], call["monotone"])
        if key not in self._enumerated:
            self._enumerated.add(key)
            counts["halfspaces.sets"] += len(result)

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "storalloc" or name.startswith("storalloc."))
        }
        restore = []
        try:
            for defining, func_name, span_name, count in TARGETS:
                original = getattr(modules.get(f"storalloc.{defining}"), func_name, None)
                if original is None:
                    continue
                if func_name == "enumerate_halfspace_sets":
                    count = self._count_enumeration
                wrappers: dict[str, object] = {}
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is not original:
                            continue
                        label = span_name or LP_USE.get(mod_name, "lp.other")
                        if label not in wrappers:
                            wrappers[label] = self._wrap(original, label, count)
                        restore.append((mod, attr, original))
                        setattr(mod, attr, wrappers[label])
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def layer_metrics(self, wall_s: float) -> dict:
        """Self time and calls per span name, counts, coverage of ``wall_s``."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        top_level = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += end - start - child_time[idx]
            calls[name] += 1
            if parent is None:
                top_level += end - start
        out: dict = {}
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        lp_calls = self.counts["lp.calls"]
        out["lp.optimal_ratio"] = self.counts["lp.optimal"] / lp_calls if lp_calls else 0.0
        out["trace.coverage"] = top_level / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
