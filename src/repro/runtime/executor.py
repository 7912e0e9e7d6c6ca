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
* **serial fallback** — ``jobs=1`` (the default), a failed pool start, or a
  broken pool mid-flight all degrade to plain in-process execution;
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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config_space import (
    DEFAULT_SEARCH_SPACE,
    SearchSpace,
    count_configurations,
    gpu_assignments,
    parallel_configs,
)
from repro.core.execution import DEFAULT_BACKEND, DEFAULT_OPTIONS, ModelingOptions, clear_caches
from repro.core.inference import ServingSpec
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
    """One self-contained :func:`find_optimal_config` invocation.

    The task carries *values*, not references to shared state, so it can be
    pickled to a worker process and fingerprinted by the cache.  It names
    no pricer: :func:`solve_search_task` picks one from ``backend``.
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


#: Relative per-candidate cost of the vectorized batch pricer versus the
#: scalar oracle.  Batch mode prices ~5x faster per candidate
#: (``scripts/perf_guard.py`` gates it at no less than 3x), so an analytic
#: training task is a much *shorter* job than a ``sim`` or serving task of
#: equal candidate count — LPT dispatch must know that or it misorders
#: mixed task lists.
_BATCH_MODE_COST_FACTOR = 0.2


def _eval_mode(task: SearchTask) -> str:
    """The pricer of ``task``'s training or Pareto search.

    The vectorized batch pricer is bit-exact against the scalar oracle but
    only for the analytic closed forms, so the analytic backend gets batch
    and any other backend prices per candidate.
    """
    return "batch" if task.backend == DEFAULT_BACKEND else "scalar"


def _serving_task_candidates(task: SearchTask) -> int:
    """Candidate count of a serving-objective task's *actual* enumeration.

    Serving searches do not run the training enumeration: they restrict to
    the tp1d strategy, collapse the training-only axes (microbatch size,
    schedule, interleaving — see
    :func:`repro.core.inference._serving_space`) and apply the prompt's
    tensor-parallel divisibility rules.  Counting the training space instead
    (as this function's caller once did) overstated a serving task's cost by
    the collapsed axes' product — enough to push every serving point to the
    front of the longest-first dispatch order ahead of genuinely larger
    training searches.
    """
    from repro.core.inference import ServingSpec, _serving_space

    serving = task.serving if task.serving is not None else ServingSpec()
    serving_space = _serving_space(task.space)
    prefill_model = task.model.scaled(seq_len=serving.prompt_tokens)
    total = 0
    for config in parallel_configs(
        prefill_model, task.n_gpus, task.n_gpus, "tp1d", serving_space
    ):
        total += len(
            gpu_assignments(config, task.system.nvs_domain_size, serving_space)
        )
    return total


def estimate_task_cost(task: SearchTask) -> float:
    """Estimated solve cost of ``task`` (arbitrary units, larger = longer).

    Counts the full (parallelization, NVS-assignment) candidate set the
    task's solver actually enumerates: for training (and Pareto) tasks,
    :func:`repro.core.config_space.count_configurations` summed over the
    task's strategies; for serving-objective tasks the post-filter tp1d
    serving enumeration (:func:`_serving_task_candidates`) — the training
    count would overstate serving work by the collapsed microbatch/schedule
    axes.  The count of an analytic training or Pareto task is then scaled
    by the batch pricer's per-candidate cost
    (:data:`_BATCH_MODE_COST_FACTOR`): :func:`solve_search_task` prices it
    in vectorized chunks, ~5x sooner than the per-candidate pricing of a
    ``sim`` or serving task of the same size.  Used by
    :meth:`SweepExecutor.run` to dispatch the longest searches first
    (longest-processing-time order), so one huge GPU-count point submitted
    last no longer serializes the tail of a sweep.  Falls back to the GPU
    count, unscaled in either mode, for each strategy the enumeration
    itself rejects (the solver will surface the real error).
    """
    counted = fallback = 0
    serving = task.objective != TRAINING_OBJECTIVE and not task.objectives
    if serving:
        try:
            counted = _serving_task_candidates(task)
        except (ValueError, KeyError):
            fallback = task.n_gpus
    else:
        try:
            strategies = resolve_strategies(task.strategy)
        except ValueError:
            strategies = ()
        for strategy in strategies:
            try:
                _, n_candidates = count_configurations(
                    task.model,
                    task.n_gpus,
                    task.global_batch_size,
                    strategy,
                    task.system.nvs_domain_size,
                    task.space,
                )
                counted += n_candidates
            except (ValueError, KeyError):
                fallback += task.n_gpus
    if not serving and _eval_mode(task) == "batch":
        return float(counted) * _BATCH_MODE_COST_FACTOR + fallback
    return float(counted + fallback)


def solve_search_task(task: SearchTask):
    """Run the optimal-configuration search described by ``task``.

    Module-level (not a method) so :class:`ProcessPoolExecutor` can pickle
    it.  Returns a :class:`~repro.core.search.SearchResult` for training
    tasks, a :class:`~repro.core.inference.ServingSearchResult` for
    serving-objective tasks and a :class:`~repro.core.search.ParetoResult`
    for tasks with a non-empty ``objectives`` tuple.

    This is the one place the pricer is chosen: training and Pareto tasks
    on the analytic backend are priced by the vectorized
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
        objective=task.objective,
        serving=task.serving,
        eval_mode=_eval_mode(task),
        warm_hints=task.warm_hints,
    )


class SweepExecutor:
    """Executes batches of independent solver calls, serially or in parallel.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``None`` or ``1`` runs serially in-process;
        ``N > 1`` fans out across a :class:`ProcessPoolExecutor` (falling
        back to serial execution if a pool cannot be started or breaks).
    cache:
        Optional :class:`SearchCache` consulted by :meth:`run` before
        dispatching and updated with every solved point.
    progress:
        Optional ``progress(done, total)`` callback.  :meth:`map` and
        :meth:`run` also accept a per-call ``progress=`` override, so one
        shared executor can report each caller's batch to that caller only.
    persistent:
        Keep one worker pool alive across :meth:`map`/:meth:`run` calls
        instead of starting a fresh pool per batch.  This is what the
        long-running API server uses: concurrent request threads are
        multiplexed onto the same warm workers (``ProcessPoolExecutor`` is
        thread-safe), amortizing process start-up across requests.  Call
        :meth:`close` (or use the executor as a context manager) to release
        the workers.

    Workers start with cold memoization caches and share no search state,
    so a task is solved in a worker exactly as it would be in-process.

    One instance may be used from several threads concurrently: per-call
    state (progress callbacks) is passed down the call chain rather than
    stored on the instance, and pool creation/teardown is guarded by a
    lock.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        cache: Optional[SearchCache] = None,
        progress: Optional[ProgressCallback] = None,
        persistent: bool = False,
    ):
        self.jobs = max(1, int(jobs)) if jobs else 1
        self.cache = cache
        self.progress = progress
        self.persistent = bool(persistent)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _acquire_pool(self, n_items: int) -> Tuple[ProcessPoolExecutor, bool]:
        """A pool to run one batch on, plus whether the *caller* owns it.

        Transient (per-batch) pools are sized to the batch; the persistent
        pool is sized to ``jobs``, started once and reused.  Workers start
        from a cold, explicitly bounded memoization state (``clear_caches``
        covers every model-layer cache), so a long-lived worker's memory is
        bounded by the caches' sizes rather than by whatever the parent had
        accumulated.  Raises the ``ProcessPoolExecutor`` start-up errors of
        the host (handled by :meth:`_map_parallel`'s serial fallback).
        """
        if not self.persistent:
            return (
                ProcessPoolExecutor(
                    max_workers=min(self.jobs, n_items), initializer=clear_caches
                ),
                True,
            )
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=clear_caches
                )
            return self._pool, False

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken persistent pool so the next batch starts a new one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down the persistent worker pool (no-op for per-batch pools)."""
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

        ``fn`` and the items must be picklable when ``jobs > 1``.  Failures
        to run *in parallel* — worker processes cannot be started, or the
        pool breaks mid-batch — degrade to serial execution of the items
        that have not completed yet; exceptions raised by ``fn`` itself
        always propagate.  ``progress`` overrides the instance-level
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
        try:
            pool, owned = self._acquire_pool(len(items))
        except (OSError, NotImplementedError, ImportError):
            # This host cannot start worker processes at all (restricted
            # sandbox, missing semaphores, ...): run everything in-process.
            return self._map_serial(fn, items, done, total, report)

        results: List = [None] * len(items)
        completed = [False] * len(items)
        try:
            futures = {}
            try:
                for idx, item in enumerate(items):
                    futures[pool.submit(fn, item)] = idx
            except (OSError, RuntimeError):
                # Worker processes could not be forked, or a shared
                # persistent pool was shut down under us (distinct from fn
                # raising, which surfaces via fut.result() below): drop the
                # pool and run everything in-process.
                for fut in futures:
                    fut.cancel()
                if not owned:
                    self._discard_pool(pool)
                return self._map_serial(fn, items, done, total, report)
            try:
                pending = set(futures)
                while pending:
                    finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        idx = futures[fut]
                        # fn's own exceptions re-raise here and propagate.
                        results[idx] = fut.result()
                        completed[idx] = True
                        done += 1
                        self._report(done, total, report)
            except BrokenProcessPool:
                # A worker died mid-batch: keep every completed result and
                # finish only the incomplete items serially, so no work is
                # repeated and progress stays monotonic.  A broken
                # persistent pool is discarded so later batches recover.
                if not owned:
                    self._discard_pool(pool)
                for idx, item in enumerate(items):
                    if not completed[idx]:
                        results[idx] = fn(item)
                        completed[idx] = True
                        done += 1
                        self._report(done, total, report)
        finally:
            if owned:
                pool.shutdown(wait=False, cancel_futures=True)
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
