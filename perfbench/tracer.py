"""Wrapper spans around aoisched's public functions, installed from outside.

The library is not edited: `install` replaces each wrapped function at every
module binding that holds it, including names imported with `from .mdp
import build_kernels`. Generator functions are timed over their iteration,
not their creation. Run as a program, it installs the spans and then runs
the real CLI, writing the span aggregates to a JSON file when it exits:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json solve --config c.yaml
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# Wrapped functions per module. `model` and `stability` are closed-form and
# take milliseconds, so they are left out.
TARGETS = {
    "cli": ("load_config", "cmd_solve", "cmd_compare", "cmd_simulate"),
    "mdp": (
        "build_kernels",
        "relative_value_iteration",
        "solve_optimal_policy",
        "stationary_distribution",
        "policy_chain_matrix",
        "mixture_chain_matrix",
        "table_rows",
    ),
    "decomposed": (
        "solve_sisp_values",
        "build_policy_table_with_pruning",
        "build_policy_table",
    ),
    "policies": ("build_myopic_policy", "policy_to_table", "round_robin_chain"),
    "sim": ("monte_carlo", "divergence_probe", "run_episode"),
    "dynamics": ("step_system_traced",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TARGETS.items() for f in fns)

# Spans kept per name for the span log; aggregates always cover every call.
KEEP_PER_NAME = 2000


class Tracer:
    """Nested spans with per-name calls, total and self time.

    A span's self time is its duration minus the time covered by its
    direct child spans.
    """

    def __init__(self, clock=time.perf_counter, keep_per_name: int = KEEP_PER_NAME):
        self.clock = clock
        self.keep_per_name = keep_per_name
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.counts = {}
        self._kept = Counter()
        self._stack = []  # [id, name, start, time covered by children]
        self._next_id = 0

    def enter(self, name: str, count: bool = True) -> None:
        if count:
            self.calls[name] += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self) -> float:
        end = self.clock()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if self._kept[name] < self.keep_per_name:
            self._kept[name] += 1
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else -1)
            )
        return duration

    def wrap(self, name: str, fn, after=None):
        """Span-timed version of fn; `after(tracer, bound_args, result, seconds)`
        derives counts outside the span."""
        signature = inspect.signature(fn)

        def derive(args, kwargs, result, seconds):
            # The derivation is a span of its own so that it is not charged
            # to the caller's self time.
            self.enter("trace.derived")
            try:
                after(self, signature.bind(*args, **kwargs).arguments, result, seconds)
            finally:
                self.exit()

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._timed_iter(name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.exit()
            if after is not None:
                derive(args, kwargs, result, seconds)
            return result

        return wrapper

    def _timed_iter(self, name, it):
        while True:
            self.enter(name, count=False)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item

    def report(self) -> dict:
        return {
            "functions": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(set(self.calls) | set(self.total))
            },
            "counts": self.counts,
            "spans": self.spans,
        }


# Derived counts, read from arguments and return values. They accumulate in
# `tracer.counts` as raw sums and maxima; run.py turns them into ratios.


def _add(tracer, key, value):
    tracer.counts[key] = tracer.counts.get(key, 0) + value


def _max(tracer, key, value):
    tracer.counts[key] = max(tracer.counts.get(key, value), value)


def _after_build_kernels(tracer, args, kernels, seconds):
    _max(tracer, "n_states", args["space"].n_states)
    _add(tracer, "kernel_nnz", sum(int(k.nnz) for k in kernels))
    # Computed from the CSR array sizes, not measured.
    _add(
        tracer,
        "kernel_bytes",
        sum(k.data.nbytes + k.indices.nbytes + k.indptr.nbytes for k in kernels),
    )


def _after_rvi(tracer, args, result, seconds):
    # Backup speed is reported for the largest solve only, so the small
    # per-sensor solves do not dilute it.
    n = len(args["cost"])
    iterations = result[0].iterations
    largest = tracer.counts.get("rvi_n", 0)
    if n > largest:
        tracer.counts.update(rvi_n=n, rvi_iterations=0, rvi_seconds=0.0)
    if n >= largest:
        _add(tracer, "rvi_iterations", iterations)
        _add(tracer, "rvi_seconds", seconds)


def _after_stationary(tracer, args, xi, seconds):
    p = args["p"]
    _add(tracer, "stationary_states", int(p.shape[0]))
    residual = float(abs(p.T @ xi - xi).sum())
    _max(tracer, "stationary_residual_max", residual)


def _after_pruning(tracer, args, result, seconds):
    _add(tracer, "pruned_copied", int(result[1]))
    _add(tracer, "pruned_states", int(args["space"].n_states))


def _after_run_episode(tracer, args, result, seconds):
    _add(tracer, "slots", int(args["horizon"]))


AFTER = {
    "mdp.build_kernels": _after_build_kernels,
    "mdp.relative_value_iteration": _after_rvi,
    "mdp.stationary_distribution": _after_stationary,
    "decomposed.build_policy_table_with_pruning": _after_pruning,
    "sim.run_episode": _after_run_episode,
}


def install(tracer: Tracer) -> int:
    """Wrap every target at every aoisched module binding; returns bindings patched."""
    wrappers = {}
    for module, names in TARGETS.items():
        mod = importlib.import_module(f"aoisched.{module}")
        for fn_name in names:
            name = f"{module}.{fn_name}"
            fn = getattr(mod, fn_name)
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, AFTER.get(name)))
    patched = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "aoisched" or mod_name.startswith("aoisched.")):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                patched += 1
    return patched


def span_cost(n: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call costs more than a plain call (best of repeats)."""

    def noop():
        return None

    t = Tracer(keep_per_name=0)
    wrapped = t.wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import aoisched.cli

    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.counts["bindings_patched"] = install(tracer)
    tracer.counts["span_cost_s"] = span_cost()
    tracer.counts["tracer_setup_s"] = time.perf_counter() - t0
    try:
        return aoisched.cli.main(cli_args)
    finally:
        tracer.counts["spans_entered"] = tracer._next_id
        with open(spans_path, "w") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
