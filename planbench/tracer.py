"""Span tracer that times the planner's layers from outside the program.

The tracer changes nothing in ``src/``: :meth:`Tracer.install` replaces each
layer function listed in :data:`TARGETS` with a timing wrapper, by object
identity, in every loaded ``repro.*`` module that holds a reference to it
(``estimate_config_memory`` is imported by ``search`` as well as defined in
``execution``, so both names are patched).  Methods are patched on their
class.  A refactor that moves a call site to another module is therefore
still traced; a refactor that removes a target makes :meth:`install` raise.

Spans live in memory as ``(id, name, start_ns, end_ns, parent_id,
request_id)`` tuples and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Every traced function: (span name, module, attribute path).  The span
#: name's prefix before the last dot is the layer the span belongs to.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("config_space.parallel_configs", "repro.core.config_space", "parallel_configs"),
    ("execution.estimate_config_memory", "repro.core.execution", "estimate_config_memory"),
    ("execution.config_time_lower_bound", "repro.core.execution", "config_time_lower_bound"),
    ("execution.evaluate_config", "repro.core.execution", "evaluate_config"),
    ("batch_eval.batch_candidate_times", "repro.core.batch_eval", "batch_candidate_times"),
    ("batch_eval.non_dominated_mask", "repro.core.batch_eval", "non_dominated_mask"),
    ("search.find_optimal_config", "repro.core.search", "find_optimal_config"),
    ("search.find_pareto_configs", "repro.core.search", "find_pareto_configs"),
    ("search.adapt_warm_hints", "repro.core.search", "adapt_warm_hints"),
    ("inference.find_serving_config", "repro.core.inference", "find_serving_config"),
    ("executor.run", "repro.runtime.executor", "SweepExecutor.run"),
    ("executor.map", "repro.runtime.executor", "SweepExecutor.map"),
    ("cache.fingerprint", "repro.runtime.cache", "SearchCache.fingerprint"),
    ("cache.get", "repro.runtime.cache", "SearchCache.get"),
    ("cache.put", "repro.runtime.cache", "SearchCache.put"),
    ("cache.save", "repro.runtime.cache", "SearchCache.save"),
    ("cache.warm_hints", "repro.runtime.cache", "SearchCache.warm_hints"),
    ("schema.parse_search_request", "repro.serve_api.schema", "parse_search_request"),
    ("schema.parse_pareto_request", "repro.serve_api.schema", "parse_pareto_request"),
    ("schema.parse_serve_request", "repro.serve_api.schema", "parse_serve_request"),
    ("schema.parse_sweep_request", "repro.serve_api.schema", "parse_sweep_request"),
    ("schema.parse_evaluate_request", "repro.serve_api.schema", "parse_evaluate_request"),
    ("schema.result_body", "repro.serve_api.schema", "result_body"),
    ("schema.pareto_body", "repro.serve_api.schema", "pareto_body"),
    ("schema.pareto_point_body", "repro.serve_api.schema", "pareto_point_body"),
    ("schema.evaluate_body", "repro.serve_api.schema", "evaluate_body"),
    ("schema.sweep_body", "repro.serve_api.schema", "sweep_body"),
    ("app.search", "repro.serve_api.app", "PlannerApp.search"),
    ("app.serve", "repro.serve_api.app", "PlannerApp.serve"),
    ("app.pareto", "repro.serve_api.app", "PlannerApp.pareto"),
    ("app.sweep", "repro.serve_api.app", "PlannerApp.sweep"),
    ("app.evaluate", "repro.serve_api.app", "PlannerApp.evaluate"),
    ("app.status", "repro.serve_api.app", "PlannerApp.status"),
)

#: Solver entry points whose results carry ``SearchStatistics``; only the
#: outermost one on a thread is counted (a serving-objective
#: ``find_optimal_config`` returns ``find_serving_config``'s result).
_SOLVERS = (
    "search.find_optimal_config",
    "search.find_pareto_configs",
    "inference.find_serving_config",
)

#: Metric of each span group: a span name maps to the first group whose
#: prefix it starts with.  Every ``*_s`` layer metric is *self* time.
_TIME_METRICS: Tuple[Tuple[str, str], ...] = (
    ("config_space.", "config_space.enumerate_s"),
    ("execution.estimate_config_memory", "execution.memory_filter_s"),
    ("execution.config_time_lower_bound", "execution.bound_s"),
    ("execution.evaluate_config", "execution.price_s"),
    ("batch_eval.batch_candidate_times", "batch_eval.price_s"),
    ("batch_eval.non_dominated_mask", "batch_eval.dominance_s"),
    ("search.", "search.self_s"),
    ("inference.", "inference.solve_s"),
    ("executor.", "executor.self_s"),
    ("cache.fingerprint", "cache.fingerprint_s"),
    ("cache.get", "cache.get_s"),
    ("cache.put", "cache.put_s"),
    ("cache.save", "cache.save_s"),
    ("cache.warm_hints", "cache.hints_s"),
    ("schema.parse_", "schema.parse_s"),
    ("schema.", "schema.render_s"),
    ("app.", "app.self_s"),
)

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("config_space.enumerate_s", "s"),
    ("config_space.configs", "count"),
    ("execution.memory_filter_s", "s"),
    ("execution.memory_calls", "count"),
    ("execution.memory_pass_ratio", "ratio"),
    ("execution.bound_s", "s"),
    ("execution.bound_calls", "count"),
    ("execution.price_s", "s"),
    ("execution.price_calls", "count"),
    ("batch_eval.price_s", "s"),
    ("batch_eval.rows", "count"),
    ("batch_eval.dominance_s", "s"),
    ("batch_eval.dominance_rows", "count"),
    ("search.self_s", "s"),
    ("search.candidates", "count"),
    ("search.prune_ratio", "ratio"),
    ("search.warm_hits", "count"),
    ("search.warm_seed_s", "s"),
    ("inference.solve_s", "s"),
    ("inference.calls", "count"),
    ("executor.self_s", "s"),
    ("cache.fingerprint_s", "s"),
    ("cache.get_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.put_s", "s"),
    ("cache.save_s", "s"),
    ("cache.save_bytes", "bytes"),
    ("cache.hints_s", "s"),
    ("schema.parse_s", "s"),
    ("schema.render_s", "s"),
    ("app.self_s", "s"),
    ("http.s", "s"),
    ("trace.overhead_pct", "%"),
)

#: Per workload, the counters that must be non-zero in a traced run: the
#: layers the README's layer table expects to do work there.
EXPECTED_WORK: Dict[str, Tuple[str, ...]] = {
    "design-sweep": (
        "execution.config_time_lower_bound.calls",
        "execution.evaluate_config.calls",
        "search.calls",
        "executor.calls",
    ),
    "pareto-frontier": (
        "config_space.configs",
        "execution.estimate_config_memory.calls",
        "execution.config_time_lower_bound.calls",
        "batch_eval.rows",
        "batch_eval.dominance_rows",
    ),
    "api-replay": (
        "config_space.configs",
        "execution.estimate_config_memory.calls",
        "batch_eval.rows",
        "search.calls",
        "inference.calls",
        "cache.get.calls",
        "cache.save.calls",
        "schema.calls",
        "app.calls",
        "http.requests",
    ),
}


@dataclass(frozen=True)
class Span:
    """One timed call: ids link a span to the span that caused it."""

    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    request: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so a nanosecond is never subtracted twice.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    out: Dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = span.duration_ns - covered
    return out


def _time_metric(name: str) -> Optional[str]:
    for prefix, metric in _TIME_METRICS:
        if name.startswith(prefix):
            return metric
    return None


def _resolve(module: str, path: str):
    """``(owner, attribute, raw object)`` of a target; raises if it is gone."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise LookupError(f"traced layer {module}.{path} no longer exists") from None
    return owner, attr, raw


def replace_everywhere(original: Callable, replacement: Callable) -> Callable[[], None]:
    """Rebind every ``repro.*`` module name that refers to ``original``.

    Returns the function that undoes it.  Call sites that look the name up
    at call time (``from x import f`` at module level, ``module.f`` lazy
    imports) all reach ``replacement``.
    """
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                patched.append((mod, key))

    def restore() -> None:
        for mod, key in patched:
            setattr(mod, key, original)

    return restore


class Tracer:
    """Records spans and counters around the functions in :data:`TARGETS`.

    Single-process: spans from several threads are kept apart by a
    per-thread parent stack.  ``request`` tags every new span; the workload
    runner sets it before each op (one op is in flight at a time, since every
    workload is a closed loop with one client).
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _context(self) -> List[float]:
        hbm = getattr(self._local, "hbm", None)
        if hbm is None:
            hbm = self._local.hbm = []
        return hbm

    def _call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.request))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of ``name`` (its time leaves its parent's self time)."""
        return self._call(name, fn, args, kwargs)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        count = self.counters
        key = name.split(".")[0]

        if name == "execution.estimate_config_memory":
            def after(result):
                hbm = self._context()
                if hbm and result.fits(hbm[-1]):
                    count["execution.memory_pass"] += 1
        elif name == "batch_eval.batch_candidate_times":
            def after(result):
                count["batch_eval.rows"] += len(result)
        elif name == "batch_eval.non_dominated_mask":
            def after(result):
                count["batch_eval.dominance_rows"] += len(result)
        elif name == "cache.get":
            def after(result):
                count["cache.hits"] += result is not None
        elif name == "cache.save":
            def after(result):
                if result is not None:
                    count["cache.save_bytes"] += os.path.getsize(result)
        else:
            after = None

        if name in _SOLVERS:
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def solver(*args, **kwargs):
                system = signature.bind_partial(*args, **kwargs).arguments.get("system")
                hbm = self._context()
                outermost = not getattr(self._local, "solving", False)
                self._local.solving = True
                hbm.append(system.gpu.hbm_capacity)
                try:
                    result = self._call(name, fn, args, kwargs)
                finally:
                    hbm.pop()
                    if outermost:
                        self._local.solving = False
                count[f"{key}.calls"] += 1
                if outermost:
                    stats = result.statistics
                    count["search.candidates"] += stats.candidates_evaluated
                    count["search.pruned"] += stats.pruned_configs
                    count["search.parallel_configs"] += stats.parallel_configs
                    count["search.warm_hits"] += stats.warm_start_hits
                    count["search.warm_seed_s"] += stats.warm_seed_time
                return result

            return solver

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            count[f"{key}.calls"] += 1
            count[f"{name}.calls"] += 1
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time only the work done inside the generator, one span per item."""
        count = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = self._call(name, next, (inner,), {})
                    except StopIteration:
                        return
                    count["config_space.configs"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target in every loaded ``repro`` module; idempotent."""
        if self._restore:
            return
        for name, module, path in TARGETS:
            owner, attr, raw = _resolve(module, path)
            if not isinstance(owner, type):
                self._restore.append(replace_everywhere(raw, self._wrap(name, raw)))
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._restore.append(functools.partial(setattr, owner, attr, raw))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def span_records(self) -> List[Span]:
        return [Span(*record) for record in self.spans]

    def layer_metrics(self, passes: int, http_client_s: float = 0.0) -> Dict[str, float]:
        """Per-layer metrics, per pass (sums divided by ``passes``)."""
        spans = self.span_records()
        own = self_times(spans)
        values: Dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
        app_inclusive_ns = 0
        for span in spans:
            metric = _time_metric(span.name)
            if metric is not None:
                values[metric] += own[span.id] / 1e9
            if span.name.startswith("app."):
                app_inclusive_ns += span.duration_ns
        c = self.counters
        values["config_space.configs"] = c["config_space.configs"]
        values["execution.memory_calls"] = c["execution.estimate_config_memory.calls"]
        values["execution.bound_calls"] = c["execution.config_time_lower_bound.calls"]
        values["execution.price_calls"] = c["execution.evaluate_config.calls"]
        values["batch_eval.rows"] = c["batch_eval.rows"]
        values["batch_eval.dominance_rows"] = c["batch_eval.dominance_rows"]
        values["search.candidates"] = c["search.candidates"]
        values["search.warm_hits"] = c["search.warm_hits"]
        values["search.warm_seed_s"] = c["search.warm_seed_s"]
        values["inference.calls"] = c["inference.calls"]
        values["cache.save_bytes"] = c["cache.save_bytes"]
        if http_client_s:
            values["http.s"] = http_client_s - app_inclusive_ns / 1e9
        for name in values:
            values[name] /= passes
        values["execution.memory_pass_ratio"] = _ratio(
            c["execution.memory_pass"], c["execution.estimate_config_memory.calls"]
        )
        values["search.prune_ratio"] = _ratio(c["search.pruned"], c["search.parallel_configs"])
        values["cache.hit_ratio"] = _ratio(c["cache.hits"], c["cache.get.calls"])
        return values

    def missing_work(self, workload: str, http_requests: int = 0) -> List[str]:
        """Counters :data:`EXPECTED_WORK` requires that stayed at zero."""
        counts = dict(self.counters)
        counts["http.requests"] = http_requests
        return [name for name in EXPECTED_WORK[workload] if not counts.get(name)]

    def dump(self, path: Path) -> Path:
        """Write every span once, gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "request"]) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
        return path


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
