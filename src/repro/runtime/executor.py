"""Parallel fan-out of independent solver invocations.

Every figure-level experiment decomposes into *independent*
:func:`~repro.core.search.find_optimal_config` calls — one per GPU count
(Fig. 4), per (generation, NVS-domain, GPU-count) grid cell (Fig. 5), or per
synthetic-GPU heatmap point (Figs. A5/A6).  The searches share no state, so
they fan out perfectly across a :class:`concurrent.futures.ProcessPoolExecutor`.

:class:`SweepExecutor` provides that fan-out with three guarantees:

* **deterministic ordering** — results come back in submission order
  regardless of which worker finishes first, so a parallel sweep is
  bit-identical to a serial one;
* **in-process fallback** — ``jobs=1`` (the default) never starts a pool,
  and a pool that cannot run a batch is dropped while the batch finishes
  in-process;
* **progress callbacks** — an optional ``progress(done, total)`` hook fires
  as points complete (including cache hits), for long sweeps.

:meth:`SweepExecutor.run` layers the content-addressed
:class:`~repro.runtime.cache.SearchCache` underneath: hits skip dispatch
entirely, misses are solved cold (in parallel) and written back, and a
path-backed cache is saved once at the end of the batch.  A sweep does not
seed one point's search from another point's winner: on the paper's sweeps
the seeds cost more time than the candidates they saved (see
``docs/performance.md``, Layer 5).
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config_space import DEFAULT_SEARCH_SPACE, SearchSpace, count_configurations
from repro.core.execution import DEFAULT_BACKEND, DEFAULT_OPTIONS, ModelingOptions, clear_caches
from repro.core.inference import ServingSpec, find_serving_config
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import ParallelConfig
from repro.core.search import (
    TRAINING_OBJECTIVE,
    SearchResult,
    find_optimal_config,
    find_pareto_configs,
    resolve_strategies,
)
from repro.core.system import SystemSpec
from repro.runtime.cache import SearchCache

#: ``progress(done, total)`` — invoked after every completed point.
ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class SearchTask:
    """One self-contained search: training, serving or Pareto.

    The task carries *values*, not references to shared state, so it can be
    pickled to a worker process and fingerprinted by the cache.  It names
    neither solver nor pricer: :func:`solve_search_task` picks the solver
    from ``objectives`` and ``objective`` and the pricer from ``backend``.
    """

    model: TransformerConfig
    system: SystemSpec
    n_gpus: int
    global_batch_size: int
    strategy: Union[str, Tuple[str, ...]] = "tp1d"
    space: SearchSpace = DEFAULT_SEARCH_SPACE
    options: ModelingOptions = DEFAULT_OPTIONS
    top_k: int = 0
    #: Evaluation backend per candidate (see :mod:`repro.core.backends`).
    backend: str = DEFAULT_BACKEND
    #: Search objective: the training iteration time by default, or one of
    #: the serving objectives (``throughput``/``ttft``/``tpot``), in which
    #: case the task solves in inference mode against ``serving`` and its
    #: result is a :class:`~repro.core.inference.ServingSearchResult`.
    objective: str = TRAINING_OBJECTIVE
    #: Traffic description for serving-objective tasks (``None`` -> defaults).
    serving: Optional[ServingSpec] = None
    #: Multi-objective mode: a non-empty tuple of registered objective names
    #: (see :mod:`repro.core.objectives`) switches the task to
    #: :func:`~repro.core.search.find_pareto_configs` and its result to a
    #: :class:`~repro.core.search.ParetoResult`.  Unlike ``warm_hints`` this
    #: *is* part of equality and of the cache fingerprint — a Pareto solve
    #: and a scalar solve of the same point are different computations.
    objectives: Tuple[str, ...] = ()
    #: Warm-start hints: winner configs of neighboring points, evaluated
    #: first to seed the branch-and-bound threshold (see
    #: :func:`repro.core.search.find_optimal_config`).  The planning API
    #: attaches them from the cache's hint index
    #: (:meth:`~repro.runtime.cache.SearchCache.warm_hints`);
    #: :meth:`SweepExecutor.run` attaches none.  Hints provably never
    #: change the result, so they are **excluded from equality and hashing**
    #: (batch dedup treats a hinted and an unhinted copy of the same search
    #: as one task) and from the cache fingerprint (a warm solve and a cold
    #: solve share one cache entry).
    warm_hints: Tuple[ParallelConfig, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        # Normalise strategy sequences to tuples so tasks stay hashable
        # (batch dedup uses them as dict keys) and picklable.
        if not isinstance(self.strategy, str):
            object.__setattr__(self, "strategy", tuple(self.strategy))
        if not isinstance(self.warm_hints, tuple):
            object.__setattr__(self, "warm_hints", tuple(self.warm_hints))
        if not isinstance(self.objectives, tuple):
            object.__setattr__(self, "objectives", tuple(self.objectives))


def _eval_mode(task: SearchTask) -> str:
    """The pricer of ``task``'s training or Pareto search.

    The vectorized batch pricer is bit-exact against the scalar oracle but
    only for the analytic closed forms, so the analytic backend gets batch
    and any other backend prices per candidate.
    """
    return "batch" if task.backend == DEFAULT_BACKEND else "scalar"


def estimate_task_cost(task: SearchTask) -> int:
    """Estimated solve cost of ``task``: the size of its enumeration.

    :func:`repro.core.config_space.count_configurations` summed over the
    task's strategies, with the GPU count standing in for each strategy the
    enumeration itself rejects (the solver will surface the real error).
    Used by :meth:`SweepExecutor.run` to dispatch the longest searches
    first (longest-processing-time order), so one huge GPU-count point
    submitted last does not serialize the tail of a sweep.
    """
    try:
        strategies = resolve_strategies(task.strategy)
    except ValueError:
        strategies = ()
    cost = 0
    for strategy in strategies:
        try:
            cost += count_configurations(
                task.model,
                task.n_gpus,
                task.global_batch_size,
                strategy,
                task.system.nvs_domain_size,
                task.space,
            )[1]
        except (ValueError, KeyError):
            cost += task.n_gpus
    return cost


def solve_search_task(task: SearchTask):
    """Run the search described by ``task``: the one place a task picks its solver.

    Module-level (not a method) so :class:`ProcessPoolExecutor` can pickle
    it.  A task with a non-empty ``objectives`` tuple runs
    :func:`~repro.core.search.find_pareto_configs` and returns a
    :class:`~repro.core.search.ParetoResult`; a serving objective runs
    :func:`~repro.core.inference.find_serving_config` (with the task's
    ``warm_hints``) and returns a
    :class:`~repro.core.inference.ServingSearchResult`; anything else runs
    :func:`~repro.core.search.find_optimal_config` and returns a
    :class:`~repro.core.search.SearchResult`.

    The pricer is chosen here too: training and Pareto tasks on the
    analytic backend are priced by the vectorized
    :mod:`repro.core.batch_eval`, any other backend per candidate (the
    serving search always prices per candidate).  The answers are
    bit-identical either way; only the speed differs.
    """
    if task.objectives:
        return find_pareto_configs(
            task.model,
            task.system,
            n_gpus=task.n_gpus,
            global_batch_size=task.global_batch_size,
            objectives=task.objectives,
            strategy=task.strategy,
            space=task.space,
            options=task.options,
            backend=task.backend,
            eval_mode=_eval_mode(task),
        )
    if task.objective != TRAINING_OBJECTIVE:
        return find_serving_config(
            task.model,
            task.system,
            task.n_gpus,
            serving=task.serving if task.serving is not None else ServingSpec(),
            objective=task.objective,
            space=task.space,
            options=task.options,
            top_k=task.top_k,
            backend=task.backend,
            warm_hints=task.warm_hints,
        )
    return find_optimal_config(
        task.model,
        task.system,
        n_gpus=task.n_gpus,
        global_batch_size=task.global_batch_size,
        strategy=task.strategy,
        space=task.space,
        options=task.options,
        top_k=task.top_k,
        backend=task.backend,
        eval_mode=_eval_mode(task),
        warm_hints=task.warm_hints,
    )


class SweepExecutor:
    """Executes batches of independent solver calls, serially or in parallel.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``None`` or ``1`` runs serially in-process;
        ``N > 1`` fans out across a :class:`ProcessPoolExecutor` of ``N``
        workers.
    cache:
        Optional :class:`SearchCache` consulted by :meth:`run` before
        dispatching and updated with every solved point.
    progress:
        Optional ``progress(done, total)`` callback.  :meth:`map` and
        :meth:`run` also accept a per-call ``progress=`` override, so one
        shared executor can report each caller's batch to that caller only.

    The pool has one lifecycle: the first parallel batch starts it, later
    batches reuse its workers, and :meth:`close` (or leaving a ``with``
    block) shuts it down.  Workers start with cold memoization caches
    (``clear_caches`` is the pool initializer) and share no search state,
    so a task is solved in a worker exactly as it would be in-process.
    When the pool cannot run a batch — it cannot start, a submit fails, or
    a worker dies — the executor drops it and finishes the batch
    in-process; the next parallel batch starts a fresh pool.

    One instance may be used from several threads concurrently (the
    planning API shares one across request threads): per-call state
    (progress callbacks) is passed down the call chain rather than stored
    on the instance, and pool creation and teardown are guarded by a lock.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        cache: Optional[SearchCache] = None,
        progress: Optional[ProgressCallback] = None,
    ):
        self.jobs = max(1, int(jobs)) if jobs else 1
        self.cache = cache
        self.progress = progress
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _acquire_pool(self) -> ProcessPoolExecutor:
        """The worker pool, started on first use.

        Raises the ``ProcessPoolExecutor`` start-up errors of the host
        (handled by :meth:`_map_parallel`'s in-process fallback).
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=clear_caches
                )
            return self._pool

    def _discard_pool(self, pool: Optional[ProcessPoolExecutor]) -> None:
        """Drop a pool that failed a batch so the next batch starts a new one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down the worker pool, waiting for its workers to exit."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Generic fan-out
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        progress: Optional[ProgressCallback] = None,
        _done_offset: int = 0,
        _total: Optional[int] = None,
    ) -> List:
        """Apply ``fn`` to every item, returning results in input order.

        ``fn`` and the items must be picklable when ``jobs > 1``.  A failure
        to run *in parallel* — the pool cannot start, a submit fails, or a
        worker dies mid-batch — degrades to in-process execution of the
        items whose results were not collected; exceptions raised by ``fn``
        itself always propagate.  ``progress`` overrides the instance-level
        callback for this call only.
        """
        items = list(items)
        total = _total if _total is not None else len(items)
        report = progress if progress is not None else self.progress
        if self.jobs <= 1 or len(items) <= 1:
            return self._map_serial(fn, items, _done_offset, total, report)
        return self._map_parallel(fn, items, _done_offset, total, report)

    @staticmethod
    def _report(done: int, total: int, report: Optional[ProgressCallback]) -> None:
        if report is not None:
            report(done, total)

    def _map_serial(
        self,
        fn: Callable,
        items: List,
        done: int,
        total: int,
        report: Optional[ProgressCallback],
    ) -> List:
        results = []
        for item in items:
            results.append(fn(item))
            done += 1
            self._report(done, total, report)
        return results

    def _map_parallel(
        self,
        fn: Callable,
        items: List,
        done: int,
        total: int,
        report: Optional[ProgressCallback],
    ) -> List:
        results: List = [None] * len(items)
        uncollected = dict(enumerate(items))
        pool = None
        try:
            pool = self._acquire_pool()
            futures = {pool.submit(fn, item): idx for idx, item in enumerate(items)}
        except (OSError, NotImplementedError, ImportError, RuntimeError):
            # The pool could not start (no fork, no semaphores, ...) or could
            # not take the batch (broken, or shut down under us).
            futures = {}
        try:
            for fut in as_completed(futures):
                if isinstance(fut.exception(), BrokenProcessPool):
                    continue  # a worker died: the item is finished below
                idx = futures[fut]
                results[idx] = fut.result()  # fn's own exceptions propagate
                del uncollected[idx]
                done += 1
                self._report(done, total, report)
        finally:
            # Once fn has raised, the batch's queued items need not run.
            for fut in futures:
                fut.cancel()
        if uncollected:
            # The one fallback: drop the pool and finish in-process, in
            # input order, exactly the items whose results were not
            # collected, so progress stays monotonic up to the total.
            self._discard_pool(pool)
            for idx, item in uncollected.items():
                results[idx] = fn(item)
                done += 1
                self._report(done, total, report)
        return results

    # ------------------------------------------------------------------
    # Cache-aware search batches
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SearchTask],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> List[SearchResult]:
        """Solve every task (cache hits first), preserving input order.

        Duplicate tasks within the batch are solved once and fanned back to
        every occurrence (the ``speedup`` sweep, for instance, can submit
        the same baseline search for many grid points).  Every miss is
        solved cold by :func:`solve_search_task`, with only the hints the
        task itself carries, so a serial run, a fanned-out run and direct
        :func:`solve_search_task` calls agree on every result and on every
        deterministic work counter.
        """
        tasks = list(tasks)
        total = len(tasks)
        report = progress if progress is not None else self.progress
        results: List[Optional[SearchResult]] = [None] * total

        pending: Dict[SearchTask, List[int]] = {}
        # One cache fingerprint per distinct task, shared by get and put.
        fingerprints: Dict[SearchTask, str] = {}
        done = 0
        for idx, task in enumerate(tasks):
            hit = None
            if self.cache is not None:
                if task not in fingerprints:
                    fingerprints[task] = self.cache.fingerprint(task)
                hit = self.cache.get(task, fingerprint=fingerprints[task])
            if hit is not None:
                results[idx] = hit
                done += 1
                self._report(done, total, report)
            else:
                pending.setdefault(task, []).append(idx)

        unique_tasks = list(pending)
        if self.jobs > 1 and len(unique_tasks) > 1:
            # Longest-processing-time dispatch: hand the biggest searches to
            # the pool first so the sweep's critical path is the single
            # largest point, not "whatever happened to be submitted last".
            # Results are fanned back to their original positions through
            # ``pending``, so the returned order (and every result) is
            # identical to serial execution.
            unique_tasks.sort(key=estimate_task_cost, reverse=True)

        solved = self.map(
            solve_search_task,
            unique_tasks,
            progress=report,
            _done_offset=done,
            _total=total,
        )
        done += len(unique_tasks)
        for task, result in zip(unique_tasks, solved):
            for idx in pending[task]:
                results[idx] = result
            # Duplicate occurrences complete "for free" once their unique
            # task is solved; report them so progress still reaches total.
            for _ in pending[task][1:]:
                done += 1
                self._report(done, total, report)
            if self.cache is not None:
                self.cache.put(task, result, fingerprint=fingerprints[task])
        if self.cache is not None:
            self.cache.save()
        return results  # type: ignore[return-value]
