"""The planning application: a warm engine shared by concurrent requests.

:class:`PlannerApp` is the long-running heart of the service and is
deliberately transport-free — the HTTP layer in
:mod:`repro.serve_api.handlers` only ever calls its public methods, and the
tests can drive it directly with in-process threads.  It owns exactly three
pieces of process-wide state:

* a hot :class:`~repro.runtime.cache.SearchCache` — fingerprints are
  content hashes of *all* task inputs, so serving a cached result to any
  requester is always correct, and repeated requests never touch the
  engine (or, for reads, the disk) again;
* a shared :class:`~repro.runtime.executor.SweepExecutor` — its worker
  pool starts with the first parallel batch and stays up until
  :meth:`PlannerApp.close`, so concurrent requests multiplex their engine
  solves onto the same workers;
* an **in-flight table** deduplicating identical concurrent searches: the
  first request of a fingerprint becomes the *owner* and runs the solve,
  every later identical request attaches to the owner's future and waits —
  N simultaneous identical requests cost exactly one engine solve, pinned
  by the :attr:`dedup_hits` counter.

Long solves can stream progress: :meth:`solve_events` yields
newline-delimited-JSON-ready event dictionaries fed by the executor's
existing ``progress(done, total)`` report hook.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.cache import SearchCache
from repro.runtime.executor import ProgressCallback, SearchTask, SweepExecutor, solve_search_task
from repro.serve_api import schema
from repro.serve_api.schema import ApiError

#: Sentinel closing a streaming event queue.
_STREAM_END = None


def _solve_capturing(task: SearchTask) -> Tuple[str, Any]:
    """Solve ``task``, capturing engine errors as data.

    Module-level so the worker pool can pickle it.  Batches are solved
    through one ``map`` call; capturing per-task keeps one structurally
    invalid task from poisoning the whole batch (and lets the owner relay
    the error to every deduplicated waiter).
    """
    try:
        return ("ok", solve_search_task(task))
    except (ValueError, KeyError) as exc:
        return ("error", str(exc.args[0] if exc.args else exc))


class PlannerApp:
    """Process-wide planning engine behind the JSON API.

    Parameters
    ----------
    cache_path:
        Optional journal file the warm cache persists to.  The cache
        itself always lives in memory; when a path is given it is replayed
        once at start-up, and every solved batch appends its new records
        to the file (other writers' appends are replayed first), so a
        restarted server warms up from disk.
    jobs:
        Worker processes of the shared pool.  ``1`` (the default) solves
        in the request thread — with ``ThreadingHTTPServer`` each request
        already has its own thread, so single-task requests lose nothing;
        sweeps benefit from ``jobs > 1``.
    solver:
        The engine entry point per unique task.  Injectable for tests
        (e.g. a solver blocked on an event makes dedup deterministic);
        defaults to the same :func:`solve_search_task` the CLI sweeps use.

    Every engine solve is seeded from the cache's structure-keyed hint
    index (the nearest prior winner of the same model/system/structure, see
    :meth:`~repro.runtime.cache.SearchCache.warm_hints`).  Results are
    provably identical to a cold solve; ``warm_start_hits`` in
    :meth:`status` counts the seeds that took.
    """

    def __init__(
        self,
        *,
        cache_path=None,
        jobs: Optional[int] = None,
        solver: Callable[[SearchTask], Any] = None,
    ):
        self.cache = SearchCache(cache_path)
        self.executor = SweepExecutor(jobs)
        self._solver = solver
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._counters: Dict[str, int] = {
            "requests": 0,
            "engine_solves": 0,
            "dedup_hits": 0,
            "errors": 0,
            "warm_start_hits": 0,
        }
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Core solve path: cache -> in-flight dedup -> engine
    # ------------------------------------------------------------------
    def _solve_fn(self) -> Callable[[SearchTask], Tuple[str, Any]]:
        if self._solver is None:
            return _solve_capturing
        injected = self._solver

        def call(task: SearchTask) -> Tuple[str, Any]:
            try:
                return ("ok", injected(task))
            except (ValueError, KeyError) as exc:
                return ("error", str(exc.args[0] if exc.args else exc))

        return call

    def solve_batch(
        self,
        tasks: Sequence[SearchTask],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[List[Any], List[str]]:
        """Solve every task, returning ``(results, sources)`` in input order.

        Each task is satisfied from, in order of preference: the warm
        in-memory cache (``"cache"``), an identical solve another request
        currently has in flight (``"dedup"`` — this thread waits on the
        owner's future instead of re-solving), or a fresh engine solve
        (``"solved"``) fanned onto the shared worker pool.  Duplicate
        fingerprints *within* the batch are solved once.

        ``progress`` fires as ``progress(done, total)`` over the batch —
        cache hits immediately, solved/attached tasks as they complete.
        """
        tasks = list(tasks)
        total = len(tasks)
        results: List[Any] = [None] * total
        sources: List[str] = ["cache"] * total
        owned: Dict[str, Future] = {}
        owned_order: List[str] = []
        owned_tasks: List[SearchTask] = []
        attached: List[Tuple[str, Future]] = []
        positions: Dict[str, List[int]] = {}
        done = 0

        with self._lock:
            self._counters["requests"] += 1
            for idx, task in enumerate(tasks):
                # The one fingerprint of this task: get and put reuse it.
                fp = SearchCache.fingerprint(task)
                if fp in positions:  # duplicate within this batch
                    positions[fp].append(idx)
                    continue
                hit = self.cache.get(task, fingerprint=fp)
                if hit is not None:
                    results[idx] = hit
                    done += 1
                    continue
                positions[fp] = [idx]
                fut = self._inflight.get(fp)
                if fut is not None:
                    self._counters["dedup_hits"] += 1
                    attached.append((fp, fut))
                else:
                    fut = Future()
                    self._inflight[fp] = fut
                    owned[fp] = fut
                    owned_order.append(fp)
                    owned_tasks.append(task)
        if progress is not None and done:
            progress(done, total)

        try:
            if owned_tasks:
                # Seed each miss from the nearest prior winner of its
                # structure.  Hints are compare-excluded on SearchTask, so
                # the in-flight fingerprints (computed on the bare tasks
                # above) still match the hinted copies.
                dispatch = [
                    replace(task, warm_hints=self.cache.warm_hints(task))
                    for task in owned_tasks
                ]
                solved = self.executor.map(
                    self._solve_fn(),
                    dispatch,
                    progress=progress,
                    _done_offset=done,
                    _total=total,
                )
                done += len(owned_tasks)
                dirty = False
                for fp, task, outcome in zip(owned_order, owned_tasks, solved):
                    status, value = outcome
                    with self._lock:
                        self._counters["engine_solves"] += 1
                        if status == "ok":
                            self.cache.put(task, value, fingerprint=fp)
                            dirty = True
                            stats = getattr(value, "statistics", None)
                            self._counters["warm_start_hits"] += getattr(
                                stats, "warm_start_hits", 0
                            )
                        else:
                            self._counters["errors"] += 1
                    if status == "ok":
                        owned[fp].set_result(value)
                    else:
                        owned[fp].set_exception(ApiError(value))
                if dirty:
                    self.cache.save()
        finally:
            # Unregister owned fingerprints even on unexpected failure, and
            # never leave an attached waiter hanging on an unresolved future.
            with self._lock:
                for fp in owned_order:
                    self._inflight.pop(fp, None)
            for fp in owned_order:
                if not owned[fp].done():
                    owned[fp].set_exception(
                        ApiError("solver aborted before producing a result", status=500)
                    )

        for fp in owned_order:
            fut = owned[fp]
            exc = fut.exception()
            if exc is not None:
                raise exc
            for idx in positions[fp]:
                results[idx] = fut.result()
                sources[idx] = "solved"
            # In-batch duplicates complete "for free" with their unique
            # solve; report them so progress still reaches the total.
            for _ in positions[fp][1:]:
                done += 1
                if progress is not None:
                    progress(done, total)
        for fp, fut in attached:
            exc = fut.exception()  # waits for the owner
            if exc is not None:
                raise exc if isinstance(exc, ApiError) else ApiError(str(exc), status=500)
            for pos in positions[fp]:
                results[pos] = fut.result()
                sources[pos] = "dedup"
            for _ in positions[fp]:
                done += 1
                if progress is not None:
                    progress(done, total)
        return results, sources

    def solve_task(
        self,
        task: SearchTask,
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[Any, str]:
        """Solve one task; returns ``(result, source)`` (a batch of one)."""
        results, sources = self.solve_batch([task], progress=progress)
        return results[0], sources[0]

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def solve_events(
        self,
        tasks: Sequence[SearchTask],
        *,
        body: Callable[[List[Any], List[str]], Dict[str, Any]],
    ) -> Iterator[Dict[str, Any]]:
        """Yield NDJSON-ready events for a (batch) solve.

        Event order: one ``accepted`` event (with the batch size), then
        ``progress`` events as points complete — fed by the executor's
        ``progress(done, total)`` hook — and finally exactly one ``result``
        (rendered by ``body``) or ``error`` event.  The solve runs on a
        helper thread so events stream while the engine works.
        """
        tasks = list(tasks)
        events: "queue.Queue" = queue.Queue()

        def report(done: int, total: int) -> None:
            events.put({"event": "progress", "done": done, "total": total})

        def work() -> None:
            try:
                results, sources = self.solve_batch(tasks, progress=report)
                events.put({"event": "result", **body(results, sources)})
            except ApiError as exc:
                events.put({"event": "error", **exc.body()})
            except Exception as exc:  # noqa: BLE001 — stream must terminate
                events.put({"event": "error", "error": str(exc), "status": 500})
            events.put(_STREAM_END)

        yield {"event": "accepted", "tasks": len(tasks)}
        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        while True:
            item = events.get()
            if item is _STREAM_END:
                break
            yield item

    # ------------------------------------------------------------------
    # Endpoint-facing methods (payload dict in, body dict out)
    # ------------------------------------------------------------------
    def search(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/search`` — one training search."""
        task = schema.parse_search_request(payload)
        result, source = self.solve_task(task)
        return schema.result_body(result, source=source)

    def search_events(self, payload: Any) -> Iterator[Dict[str, Any]]:
        """Streaming variant of :meth:`search` (``"stream": true``)."""
        task = schema.parse_search_request(payload)
        return self.solve_events(
            [task],
            body=lambda results, sources: schema.result_body(results[0], source=sources[0]),
        )

    def serve(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/serve`` — one inference-serving search."""
        task = schema.parse_serve_request(payload)
        result, source = self.solve_task(task)
        return schema.result_body(result, source=source)

    def serve_events(self, payload: Any) -> Iterator[Dict[str, Any]]:
        """Streaming variant of :meth:`serve`."""
        task = schema.parse_serve_request(payload)
        return self.solve_events(
            [task],
            body=lambda results, sources: schema.result_body(results[0], source=sources[0]),
        )

    def pareto(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/pareto`` — one multi-objective (frontier) search."""
        task = schema.parse_pareto_request(payload)
        result, source = self.solve_task(task)
        return schema.pareto_body(result, source=source)

    def pareto_events(self, payload: Any) -> Iterator[Dict[str, Any]]:
        """Streaming variant of :meth:`pareto`.

        On top of the usual ``accepted``/``progress``/``result`` stream,
        every frontier member is emitted as its own ``frontier`` event line
        just before the final ``result`` — a client can render the frontier
        incrementally without parsing the (larger) result body, which
        therefore omits the ``frontier`` list it already streamed.
        """
        task = schema.parse_pareto_request(payload)

        def stream() -> Iterator[Dict[str, Any]]:
            events = self.solve_events(
                [task],
                body=lambda results, sources: schema.pareto_body(
                    results[0], source=sources[0]
                ),
            )
            for event in events:
                if event.get("event") == "result":
                    for point in event.pop("frontier", ()):
                        yield {"event": "frontier", "point": point}
                yield event

        return stream()

    def sweep(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/sweep`` — a batch of searches over a GPU-count list."""
        tasks = schema.parse_sweep_request(payload)
        results, sources = self.solve_batch(tasks)
        return schema.sweep_body(results, sources)

    def sweep_events(self, payload: Any) -> Iterator[Dict[str, Any]]:
        """Streaming variant of :meth:`sweep`."""
        tasks = schema.parse_sweep_request(payload)
        return self.solve_events(tasks, body=schema.sweep_body)

    def evaluate(self, payload: Any) -> Dict[str, Any]:
        """``POST /v1/evaluate`` — price one explicit configuration.

        A single deterministic plan build, so it runs inline (no cache
        entry, no dedup): the engine's own memoization makes repeats cheap.
        """
        with self._lock:
            self._counters["requests"] += 1
        estimate = schema.run_evaluate(schema.parse_evaluate_request(payload))
        return schema.evaluate_body(estimate)

    def status(self) -> Dict[str, Any]:
        """``GET /v1/status`` — counters the smoke tests and operators read."""
        with self._lock:
            counters = dict(self._counters)
            in_flight = len(self._inflight)
        return {
            "ok": True,
            "uptime_s": round(time.time() - self.started_at, 3),
            "jobs": self.executor.jobs,
            "in_flight": in_flight,
            **counters,
            "cache": {
                **self.cache.stats(),
                "path": str(self.cache.path) if self.cache.path else None,
            },
        }

    def close(self) -> None:
        """Release the worker pool, persist the cache one last time and
        release its journal descriptor."""
        self.executor.close()
        self.cache.save()
        self.cache.close()
