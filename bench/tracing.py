"""Span recorder that wraps hjbpi's public functions from outside the package.

A wrapper is installed wherever a module binds the wrapped function (for
example both ``hjbpi.grid.gradient_central_values`` and the copy that
``hjbpi.scheme`` imported), and every binding is restored afterwards.
Private ``_`` functions are never wrapped: their cost is the caller's self
time, so a refactor that inlines or renames them cannot drop a span.

Spans are kept in memory as ``[name, start, end, parent, run, failed, work]``
lists and written out once, when the benchmark run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("cli", "benchmarks", "grid", "problem", "scheme", "pi", "legendre",
          "analysis", "io")

# Per-layer metrics reported by a traced run, with their units.  A name
# ending in ``_s`` is inclusive span time (children included); one ending
# in ``self_s`` subtracts the time covered by child spans.
PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "benchmarks.grid_s": "s",
    "benchmarks.callback_calls": "count",
    "benchmarks.callback_s": "s",
    "grid.stencil_calls": "count",
    "grid.stencil_s": "s",
    "grid.gradients_per_level": "ratio",
    "problem.check_calls": "count",
    "problem.check_s": "s",
    "problem.improve_calls": "count",
    "problem.improve_s": "s",
    "scheme.sweeps": "count",
    "scheme.point_updates": "count",
    "scheme.solve_self_s": "s",
    "scheme.evaluate_self_s": "s",
    "scheme.updates_per_s": "1/s",
    "pi.iterations": "count",
    "pi.self_s": "s",
    "legendre.iterations": "count",
    "legendre.self_s": "s",
    "legendre.modify_s": "s",
    "analysis.oracle_calls": "count",
    "analysis.oracle_s": "s",
    "analysis.self_s": "s",
    "io.write_calls": "count",
    "io.write_s": "s",
    "io.bytes": "B",
    "io.bytes_per_s": "B/s",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

NAME, START, END, PARENT, RUN, FAILED, WORK = range(7)


class Recorder:
    """Single-threaded span stack plus the flat list of finished spans."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` recording a span per call; ``work(args, kwargs, result)``
        attaches a count (points updated, bytes written, ...) to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run, False, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "run", "failed",
                                 "work"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _sweep_work(args, kwargs, solution):
    return {"updates": solution.grid.npoints * solution.params.steps,
            "levels": solution.params.steps}


def _pi_work(args, kwargs, run):
    return {"iterations": run.iterations_used}


def _legendre_work(args, kwargs, run):
    # one forward direct sweep plus one linear sweep per iteration
    return {"iterations": run.iterations_used,
            "levels": run.params.steps * (run.iterations_used + 1)}


def _bytes_written(fn):
    signature = inspect.signature(fn)

    def work(args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {"bytes": os.path.getsize(path)}

    return work


class Installed:
    """Wrappers for one traced pass; ``restore()`` puts every binding back."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._undo = []
        self._modules = [importlib.import_module("hjbpi")] + [
            importlib.import_module(f"hjbpi.{layer}") for layer in LAYERS]

    def _rebind(self, original, wrapper):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def function(self, layer, name, work=None, returns=None):
        original = getattr(importlib.import_module(f"hjbpi.{layer}"), name)
        wrapped = self.recorder.wrap(f"{layer}.{name}", original, work)
        if returns is not None:
            inner = wrapped

            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                return returns(inner(*args, **kwargs))

        self._rebind(original, wrapped)

    def method(self, layer, cls, name):
        original = getattr(cls, name)
        self._undo.append((cls, name, original))
        setattr(cls, name, self.recorder.wrap(f"{layer}.{cls.__name__}.{name}", original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(recorder):
    """Wrap the public surface of every layer; return the handle that undoes it."""
    from hjbpi import io as artifact_io
    from hjbpi.benchmarks import Benchmark

    wrap = recorder.wrap

    def counted_callbacks(benchmark):
        problem = benchmark.problem
        counted = dataclasses.replace(
            problem,
            dynamics=wrap("benchmarks.dynamics", problem.dynamics),
            running_cost=wrap("benchmarks.running_cost", problem.running_cost),
            terminal_cost=wrap("benchmarks.terminal_cost", problem.terminal_cost))
        return dataclasses.replace(benchmark, problem=counted)

    def counted_oracle(oracle):
        return None if oracle is None else wrap("analysis.oracle", oracle)

    handle = Installed(recorder)
    handle.function("cli", "main")
    handle.function("cli", "parse_config")
    handle.function("benchmarks", "get_benchmark", returns=counted_callbacks)
    handle.function("benchmarks", "lq_feedback_policies")
    handle.method("benchmarks", Benchmark, "make_grid")
    handle.function("grid", "gradient_central_values")
    handle.function("grid", "laplacian_values")
    handle.function("problem", "validate_f_bound")
    handle.function("problem", "discrete_sup_norms")
    handle.function("problem", "improve_policy")
    handle.function("scheme", "solve_hjb_direct", work=_sweep_work)
    handle.function("scheme", "evaluate_policy", work=_sweep_work)
    handle.function("pi", "run_policy_iteration", work=_pi_work)
    handle.function("pi", "build_initial_policies")
    handle.function("pi", "fit_geometric_rate")
    handle.function("legendre", "generalized_pi", work=_legendre_work)
    handle.function("legendre", "modify_hamiltonian")
    handle.function("analysis", "oracle_for", returns=counted_oracle)
    handle.function("analysis", "run_h_rate_study")
    handle.function("analysis", "solution_error_vs_oracle")
    for name in sorted(vars(artifact_io)):
        if name.startswith("write_"):
            handle.function("io", name, work=_bytes_written(getattr(artifact_io, name)))
    return handle


def pass_metrics(spans):
    """Per-layer metrics of every traced CLI invocation, keyed by run id."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    runs = {}
    for i, span in enumerate(spans):
        runs.setdefault(span[RUN], []).append(i)
    return {run: _run_metrics(spans, child_time, mine) for run, mine in runs.items()}


def _run_metrics(spans, child_time, mine):
    def select(*prefixes):
        return [i for i in mine if spans[i][NAME].startswith(prefixes)]

    def total(ids):
        return sum(spans[i][END] - spans[i][START] for i in ids)

    def self_time(ids):
        return sum(spans[i][END] - spans[i][START] - child_time[i] for i in ids)

    def work(ids, key):
        return sum((spans[i][WORK] or {}).get(key, 0) for i in ids)

    def layer(name):
        return select(name + ".")

    def ratio(num, den):
        return num / den if den else 0.0

    sweeps = select("scheme.solve_hjb_direct", "scheme.evaluate_policy")
    stencil = select("grid.gradient_central_values", "grid.laplacian_values")
    gradients = select("grid.gradient_central_values")
    legendre_runs = select("legendre.generalized_pi")
    writes = layer("io")
    levels = work(sweeps, "levels") + work(legendre_runs, "levels")
    updates = work(sweeps, "updates")
    metrics = {
        "cli.parse_s": total(select("cli.parse_config")),
        "cli.self_s": self_time(layer("cli")),
        "benchmarks.grid_s": total(select("benchmarks.Benchmark.make_grid")),
        "benchmarks.callback_calls": len(select("benchmarks.dynamics",
                                                "benchmarks.running_cost",
                                                "benchmarks.terminal_cost")),
        "benchmarks.callback_s": total(select("benchmarks.dynamics",
                                              "benchmarks.running_cost",
                                              "benchmarks.terminal_cost")),
        "grid.stencil_calls": len(stencil),
        "grid.stencil_s": total(stencil),
        "grid.gradients_per_level": ratio(len(gradients), levels),
        "problem.check_calls": len(select("problem.validate_f_bound",
                                          "problem.discrete_sup_norms")),
        "problem.check_s": total(select("problem.validate_f_bound",
                                        "problem.discrete_sup_norms")),
        "problem.improve_calls": len(select("problem.improve_policy")),
        "problem.improve_s": total(select("problem.improve_policy")),
        "scheme.sweeps": len(sweeps),
        "scheme.point_updates": updates,
        "scheme.solve_self_s": self_time(select("scheme.solve_hjb_direct")),
        "scheme.evaluate_self_s": self_time(select("scheme.evaluate_policy")),
        "scheme.updates_per_s": ratio(updates, total(sweeps)),
        "pi.iterations": work(select("pi.run_policy_iteration"), "iterations"),
        "pi.self_s": self_time(layer("pi")),
        "legendre.iterations": work(legendre_runs, "iterations"),
        "legendre.self_s": self_time(layer("legendre")),
        "legendre.modify_s": total(select("legendre.modify_hamiltonian")),
        "analysis.oracle_calls": len(select("analysis.oracle")),
        "analysis.oracle_s": total(select("analysis.oracle")),
        "analysis.self_s": self_time(layer("analysis")),
        "io.write_calls": len(writes),
        "io.write_s": total(writes),
        "io.bytes": work(writes, "bytes"),
        "io.bytes_per_s": ratio(work(writes, "bytes"), total(writes)),
        "trace.spans": len(mine),
    }
    for name in LAYERS:
        metrics[f"{name}.failed"] = sum(1 for i in layer(name) if spans[i][FAILED])
    return metrics


def median_metrics(per_pass):
    """Median of each metric over traced passes; counts stay whole numbers."""
    medians = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        whole = all(isinstance(v, int) for v in values)
        medians[key] = (statistics.median_low if whole else statistics.median)(values)
    return medians
