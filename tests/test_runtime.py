"""Sweep-execution runtime: executor, search cache and search pruning."""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.analysis.sweeps import scaling_sweep
from repro.core.config_space import SearchSpace, gpu_assignments, parallel_configs
from repro.core.execution import (
    clear_caches,
    config_time_lower_bound,
    estimate_config_memory,
    evaluate_config,
)
from repro.core.model import GPT3_1T, VIT_LONG_SEQ, TransformerConfig
from repro.core.search import SearchStatistics, adapt_warm_hints, find_optimal_config
from repro.core.system import make_system
from repro.runtime import SearchCache, SearchTask, SweepExecutor, solve_search_task
from repro.runtime import executor as executor_module
from repro.runtime.executor import estimate_task_cost
from repro.utils.serialization import dataclass_from_jsonable, to_jsonable


@pytest.fixture(scope="module")
def b200():
    return make_system("B200", 8)


TINY_DENSE = TransformerConfig(
    name="tiny-dense", seq_len=1024, embed_dim=2048, num_heads=16, depth=16
)


def _task(system, n_gpus, **overrides):
    kwargs = dict(
        model=GPT3_1T,
        system=system,
        n_gpus=n_gpus,
        global_batch_size=4096,
        strategy="tp1d",
    )
    kwargs.update(overrides)
    return SearchTask(**kwargs)


def _square(x):
    return x * x


#: Items ``_square_or_die`` squared in the test process itself.
_RAN_HERE = []


def _square_or_die(item):
    """Square ``x``; a worker (any process but ``parent``) dies on ``doomed``.

    The pid guard keeps the in-process re-run of the doomed item from
    ending the test process.
    """
    x, parent, doomed = item
    if os.getpid() == parent:
        _RAN_HERE.append(x)
    elif x == doomed:
        os._exit(1)
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("fn failed on 3")
    return x * x


def _worker_pid(_):
    return os.getpid()


def _stub_result(task):
    """A cheap, serializable stand-in for a real engine result."""
    from repro.core.search import SearchResult

    return SearchResult(
        model_name=task.model.name,
        system_name=task.system.name,
        n_gpus=task.n_gpus,
        global_batch_size=task.global_batch_size,
        strategy=str(task.strategy),
        best=None,
    )


def _cross_process_writer(path, gpu_counts, barrier):
    """One writer process: load the cache, sync, then put and save each point.

    A writer given the same point many times piles duplicate lines onto the
    journal, so its saves (or another writer's) compact the file.
    """
    cache = SearchCache(path)
    barrier.wait(timeout=30)  # every process loads before any saves
    system = make_system("B200", 8)
    for n_gpus in gpu_counts:
        task = _task(system, n_gpus)
        cache.put(task, _stub_result(task))
        cache.save()


class TestSweepExecutor:
    def test_map_preserves_input_order(self):
        items = [5, 3, 1, 4, 2]
        with SweepExecutor(2) as executor:
            assert executor.map(_square, items) == [25, 9, 1, 16, 4]
        assert SweepExecutor(1).map(_square, items) == [25, 9, 1, 16, 4]

    def test_parallel_run_identical_to_serial(self, b200):
        tasks = [_task(b200, n) for n in (128, 256, 512)]
        serial = SweepExecutor(1).run(tasks)
        with SweepExecutor(3) as executor:
            parallel = executor.run(tasks)
        # Bit-identical SearchResult trees, statistics included.
        assert serial == parallel

    def test_scaling_sweep_parallel_equals_serial(self, b200):
        kwargs = dict(strategy="tp1d", n_gpus_list=(128, 256, 512), global_batch_size=4096)
        serial = scaling_sweep(GPT3_1T, b200, jobs=1, **kwargs)
        parallel = scaling_sweep(GPT3_1T, b200, jobs=2, **kwargs)
        assert [p.result for p in serial.points] == [p.result for p in parallel.points]

    def test_progress_callback_sees_every_point(self, b200):
        tasks = [_task(b200, n) for n in (128, 256)]
        seen = []
        SweepExecutor(1, progress=lambda done, total: seen.append((done, total))).run(tasks)
        assert seen == [(1, 2), (2, 2)]

    def test_duplicate_tasks_solved_once(self, b200):
        class CountingExecutor(SweepExecutor):
            dispatched = 0

            def map(self, fn, items, **kwargs):
                items = list(items)
                self.dispatched += len(items)
                return super().map(fn, items, **kwargs)

        task = _task(b200, 128)
        seen = []
        ex = CountingExecutor(1, progress=lambda d, t: seen.append((d, t)))
        results = ex.run([task, task, task])
        assert ex.dispatched == 1
        assert results[0] == results[1] == results[2]
        # Progress still covers all three occurrences, monotonically.
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_cost_estimate_orders_large_points_first(self, b200):
        # More GPUs decompose into more parallelizations: the estimated
        # search-space size must be monotone in the sweep's hardest axis.
        costs = [estimate_task_cost(_task(b200, n)) for n in (128, 1024, 4096)]
        assert costs == sorted(costs)
        assert costs[0] > 0

    def test_cost_estimate_covers_all_strategies(self, b200):
        single = estimate_task_cost(_task(b200, 256))
        combined = estimate_task_cost(_task(b200, 256, strategy="all"))
        assert combined > single

    def test_cost_estimate_survives_bad_tasks(self, b200):
        # A task the enumeration rejects falls back to the GPU count rather
        # than raising during dispatch ordering.
        bad = _task(b200, 256, strategy="no-such-strategy")
        assert estimate_task_cost(bad) == 256.0

    def test_pareto_tasks_price_like_training(self, b200):
        """A Pareto task enumerates the full training space."""
        training = _task(b200, 256)
        pareto = _task(b200, 256, objectives=("time", "cost"))
        assert estimate_task_cost(pareto) == estimate_task_cost(training)

    def test_lpt_dispatch_preserves_results_and_order(self, b200):
        dispatched = []

        class RecordingExecutor(SweepExecutor):
            def map(self, fn, items, **kwargs):
                dispatched.extend(items)
                return [fn(item) for item in items]

        tasks = [_task(b200, n) for n in (128, 512, 256)]
        recording = RecordingExecutor(4)
        results = recording.run(tasks)
        # Dispatch goes biggest-first (LPT), results return in input order.
        assert [t.n_gpus for t in dispatched] == [512, 256, 128]
        assert [r.n_gpus for r in results] == [128, 512, 256]
        assert results == SweepExecutor(1).run(tasks)

    def test_worker_exception_propagates(self, b200):
        bad = _task(b200, 128, strategy=())
        with pytest.raises(ValueError):
            SweepExecutor(1).run([bad])
        with SweepExecutor(2) as executor, pytest.raises(ValueError):
            executor.run([bad, _task(b200, 128)])


class TestPoolFailures:
    """A pool that cannot run a batch is dropped and the batch finishes
    in-process: the serial results in input order, progress monotonic up to
    the total, and a fresh pool for the next batch.  ``fn``'s own errors
    propagate and leave the pool in place."""

    ITEMS = [1, 2, 3, 4, 5, 6]

    def _map(self, executor, doomed=None):
        """Map ``ITEMS`` and check the answer; return the items run here."""
        _RAN_HERE.clear()
        seen = []
        items = [(x, os.getpid(), doomed) for x in self.ITEMS]
        results = executor.map(
            _square_or_die, items, progress=lambda done, total: seen.append((done, total))
        )
        assert results == [x * x for x in self.ITEMS]
        assert seen == [(done, len(items)) for done in range(1, len(items) + 1)]
        assert _RAN_HERE == sorted(_RAN_HERE)  # the fallback runs in input order
        return list(_RAN_HERE)

    def test_pool_that_cannot_start(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("cannot start worker processes")

        with SweepExecutor(2) as executor:
            monkeypatch.setattr(executor_module, "ProcessPoolExecutor", refuse)
            assert self._map(executor) == self.ITEMS
            assert executor._pool is None
            monkeypatch.undo()
            assert self._map(executor) == []
            assert executor._pool is not None

    def test_worker_that_dies_mid_batch(self):
        with SweepExecutor(2) as executor:
            executor.map(_square, [1, 2])
            broken = executor._pool
            ran_here = self._map(executor, doomed=3)
            assert 3 in ran_here
            assert executor._pool is None
            assert self._map(executor) == []
            assert executor._pool not in (None, broken)

    def test_pool_shut_down_before_the_next_batch(self):
        with SweepExecutor(2) as executor:
            executor.map(_square, [1, 2])
            closed = executor._pool
            closed.shutdown()
            assert self._map(executor) == self.ITEMS
            assert executor._pool is None
            assert self._map(executor) == []
            assert executor._pool not in (None, closed)

    def test_fn_runtime_error_propagates_and_keeps_the_pool(self):
        with SweepExecutor(2) as executor:
            executor.map(_square, [1, 2])
            pool = executor._pool
            with pytest.raises(RuntimeError, match="fn failed on 3"):
                executor.map(_fail_on_three, self.ITEMS)
            assert executor._pool is pool
            assert executor.map(_square, [3, 4]) == [9, 16]
            assert executor._pool is pool

    def test_no_worker_outlives_the_with_block(self):
        with SweepExecutor(2) as executor:
            pids = set(executor.map(_worker_pid, range(8)))
        assert pids and os.getpid() not in pids
        assert not pids & {child.pid for child in multiprocessing.active_children()}


class TestSearchCache:
    def test_miss_then_hit_returns_equal_result(self, b200):
        cache = SearchCache()
        task = _task(b200, 256)
        assert cache.get(task) is None
        result = solve_search_task(task)
        cache.put(task, result)
        cached = cache.get(task)
        assert cached == result
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "hint_keys": 1,
            "hint_entries": 1,
        }

    def test_fingerprint_changes_with_any_input(self, b200):
        base = _task(b200, 256)
        variants = [
            _task(b200, 512),
            _task(b200, 256, global_batch_size=2048),
            _task(b200, 256, strategy="tp2d"),
            _task(b200, 256, top_k=3),
            _task(b200, 256, space=SearchSpace(max_tensor_parallel=4)),
            _task(b200, 256, backend="sim"),
            _task(make_system("B200", 64), 256),
            _task(make_system("H200", 8), 256),
            dataclasses.replace(base, model=VIT_LONG_SEQ),
        ]
        fingerprints = {SearchCache.fingerprint(t) for t in [base] + variants}
        assert len(fingerprints) == len(variants) + 1

    def test_invalidation_on_fingerprint_change(self, b200):
        cache = SearchCache()
        task = _task(b200, 256)
        cache.put(task, solve_search_task(task))
        # A different system (even just a larger NVS domain) must miss.
        assert cache.get(_task(make_system("B200", 64), 256)) is None

    def test_persistence_roundtrip(self, b200, tmp_path):
        path = tmp_path / "cache.json"
        task = _task(b200, 256)
        result = solve_search_task(task)

        cache = SearchCache(path)
        cache.put(task, result)
        cache.save()

        reloaded = SearchCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(task) == result

    def test_malformed_entry_degrades_to_miss(self, b200):
        cache = SearchCache()
        task = _task(b200, 256)
        cache._entries[SearchCache.fingerprint(task)] = {"garbage": True}
        assert cache.get(task) is None  # dropped, not raised
        assert cache.misses == 1
        # The bad entry is evicted so a fresh solve can overwrite it.
        assert len(cache) == 0

    def test_incompatible_version_treated_as_empty(self, b200, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": -1, "entries": {"deadbeef": {}}}')
        assert len(SearchCache(path)) == 0

    def test_save_is_atomic_and_merges_concurrent_writers(self, b200, tmp_path):
        path = tmp_path / "cache.json"
        task_a, task_b = _task(b200, 128), _task(b200, 256)

        writer_a = SearchCache(path)
        writer_b = SearchCache(path)  # loaded before A saves
        writer_a.put(task_a, solve_search_task(task_a))
        writer_a.save()
        writer_b.put(task_b, solve_search_task(task_b))
        writer_b.save()  # must not clobber A's entry

        merged = SearchCache(path)
        assert len(merged) == 2
        assert merged.get(task_a) is not None
        assert merged.get(task_b) is not None
        # No temp files left behind by the atomic replace.
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_threads_lose_no_entries(self, b200, tmp_path):
        """Regression: unsynchronized put/save raced and dropped entries.

        The API server shares one ``SearchCache`` across request threads;
        interleaved ``save()`` calls used to rebuild ``_entries`` from a
        stale snapshot, silently losing concurrent ``put``s (and crashing
        with ``RuntimeError: dictionary changed size during iteration``).
        """
        import threading

        path = tmp_path / "cache.json"
        cache = SearchCache(path)
        n_threads, per_thread = 8, 16
        failures = []

        def hammer(tid):
            try:
                for i in range(per_thread):
                    task = _task(b200, 8 * (1 + tid * per_thread + i))
                    cache.put(task, _stub_result(task))
                    if i % 4 == 0:
                        cache.save()  # interleaves with other threads' puts
            except Exception as exc:  # noqa: BLE001 — record, assert below
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert len(cache) == n_threads * per_thread  # no lost updates
        cache.save()
        assert len(SearchCache(path)) == n_threads * per_thread

    def test_failed_save_leaves_no_temp_file(self, b200, tmp_path, monkeypatch):
        """A failed compaction leaves no temp file and the old file untouched."""
        import repro.runtime.cache as cache_mod

        path = tmp_path / "cache.json"
        # An older format: the first save must compact it into a journal.
        path.write_text('{"version": 8, "entries": {}, "hints": {}}')
        old = path.read_bytes()
        cache = SearchCache(path)
        task = _task(b200, 128)
        cache.put(task, _stub_result(task))

        def failing_write(fd, payload):
            os.write(fd, payload[: len(payload) // 2])  # a mid-write crash
            raise OSError("disk full")

        monkeypatch.setattr(cache_mod, "_write_all", failing_write)
        with pytest.raises(OSError, match="disk full"):
            cache.save()
        # The half-written temp file is cleaned up and the previous cache
        # file is untouched (the atomic replace never ran).
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == old
        # The record stays queued: the next save writes it.
        monkeypatch.undo()
        cache.save()
        assert SearchCache(path).get(task) == _stub_result(task)

    def test_file_is_parsed_once_per_load_and_per_save(self, b200, tmp_path, monkeypatch):
        """Load parses each line once; a save reads no record it already has."""
        import repro.runtime.cache as cache_mod

        path = tmp_path / "cache.json"
        seeded = SearchCache(path)
        for n in (128, 256):
            seeded.put(_task(b200, n), _stub_result(_task(b200, n)))
        seeded.save()

        parsed = []
        real_decode = cache_mod._decode

        def counting_decode(line):
            parsed.append(line)
            return real_decode(line)

        monkeypatch.setattr(cache_mod, "_decode", counting_decode)
        cache = SearchCache(path)
        assert len(cache) == 2
        assert parsed == path.read_bytes().splitlines()  # header + 2 records, once each
        parsed.clear()
        cache.put(_task(b200, 512), _stub_result(_task(b200, 512)))
        cache.save()
        assert parsed == []  # the journal was unchanged since the load
        assert len(SearchCache(path)) == 3

    def test_cross_process_save_merges_disjoint_entries(self, b200, tmp_path):
        """Four processes append to one journal while it is compacted; none loses an entry."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        path = tmp_path / "cache.json"
        SearchCache(path).save()  # an empty journal every writer loads
        writers = [(128, 136), (256, 264), (512, 520), (1024,) * 16]
        barrier = ctx.Barrier(len(writers))
        procs = [
            ctx.Process(target=_cross_process_writer, args=(path, counts, barrier))
            for counts in writers
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert [p.exitcode for p in procs] == [0] * len(writers)
        distinct = {n for counts in writers for n in counts}
        lines = path.read_bytes().splitlines()
        # Without a compaction the file would hold every save's lines.
        saves = sum(len(counts) for counts in writers)
        assert len(lines) < 1 + saves
        assert all(json.loads(line) for line in lines)
        merged = SearchCache(path)
        assert len(merged) == len(distinct)
        for n in distinct:
            assert merged.get(_task(b200, n)) == _stub_result(_task(b200, n))

    def test_executor_fingerprints_each_task_once(self, b200, monkeypatch):
        """``run`` hands the fingerprint it computed for ``get`` on to ``put``."""
        original = SearchCache.fingerprint
        calls = []

        def counting(task):
            calls.append(task)
            return original(task)

        monkeypatch.setattr(SearchCache, "fingerprint", staticmethod(counting))
        cache = SearchCache()
        tasks = [_task(b200, n) for n in (128, 256)]
        SweepExecutor(1, cache=cache).run(tasks)  # two misses, two puts
        assert len(calls) == 2
        SweepExecutor(1, cache=cache).run(tasks)  # two hits
        assert len(calls) == 4

    def test_executor_uses_cache(self, b200):
        cache = SearchCache()
        tasks = [_task(b200, n) for n in (128, 256)]
        first = SweepExecutor(1, cache=cache).run(tasks)
        second = SweepExecutor(1, cache=cache).run(tasks)
        assert first == second
        assert cache.hits == 2
        assert cache.misses == 2

    def test_search_result_json_roundtrip(self, b200):
        from repro.core.search import SearchResult

        result = solve_search_task(_task(b200, 256, top_k=3))
        rebuilt = dataclass_from_jsonable(SearchResult, to_jsonable(result))
        assert rebuilt == result


class TestPruning:
    PRUNE_OFF = SearchSpace(prune_with_lower_bound=False)

    @pytest.mark.parametrize(
        "model,n_gpus,strategy,top_k",
        [
            (GPT3_1T, 512, "tp1d", 0),
            (GPT3_1T, 1024, "tp1d", 5),
            (GPT3_1T, 256, "tp2d", 0),
            (VIT_LONG_SEQ, 512, "tp2d", 3),
            (GPT3_1T, 512, "summa", 0),
        ],
    )
    def test_pruning_never_changes_the_optimum(self, b200, model, n_gpus, strategy, top_k):
        kwargs = dict(n_gpus=n_gpus, global_batch_size=4096, strategy=strategy, top_k=top_k)
        pruned = find_optimal_config(model, b200, **kwargs)
        exhaustive = find_optimal_config(model, b200, space=self.PRUNE_OFF, **kwargs)
        assert pruned.found == exhaustive.found
        if pruned.found:
            assert pruned.best.config == exhaustive.best.config
            assert pruned.best.assignment == exhaustive.best.assignment
            assert pruned.best_time == exhaustive.best_time
        assert [e.config for e in pruned.top_k] == [e.config for e in exhaustive.top_k]
        assert pruned.statistics.candidates_evaluated <= exhaustive.statistics.candidates_evaluated

    def test_pruning_skips_work_on_default_gpt3_search(self, b200):
        """Acceptance: >0 pruned parallelizations on the GPT3-1T default search."""
        result = find_optimal_config(
            GPT3_1T, b200, n_gpus=1024, global_batch_size=4096, strategy="tp1d"
        )
        assert result.statistics.pruned_configs > 0
        assert result.statistics.bounds_computed > 0
        assert result.summary()["pruned_configs"] > 0
        exhaustive = find_optimal_config(
            GPT3_1T, b200, n_gpus=1024, global_batch_size=4096, strategy="tp1d",
            space=self.PRUNE_OFF,
        )
        assert exhaustive.statistics.pruned_configs == 0
        assert (
            result.statistics.candidates_evaluated
            < exhaustive.statistics.candidates_evaluated
        )

    def test_lower_bound_is_a_true_lower_bound(self, b200):
        """The bound must hold for *every* NVS assignment of every config."""
        clear_caches()
        checked = 0
        for config in parallel_configs(GPT3_1T, 256, 4096, "tp1d", SearchSpace()):
            memory = estimate_config_memory(GPT3_1T, config, global_batch_size=4096)
            if not memory.fits(b200.gpu.hbm_capacity):
                continue
            bound = config_time_lower_bound(
                GPT3_1T, b200, config, global_batch_size=4096
            )
            for assignment in gpu_assignments(config, b200.nvs_domain_size, SearchSpace()):
                estimate = evaluate_config(
                    GPT3_1T, b200, config, assignment, global_batch_size=4096
                )
                assert bound <= estimate.total_time + 1e-12
                checked += 1
        assert checked > 0


class TestBatchEvalExecutor:
    """The runtime's batch pricer (every analytic training task): statistics
    merging and parallel-vs-serial result identity."""

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(SearchStatistics)]
    )
    def test_merged_sums_every_field(self, name):
        a = SearchStatistics(parallel_configs=3, candidates_evaluated=10)
        b = dataclasses.replace(a, **{name: getattr(a, name) + 7})
        # Diagnostics-only counters (pruned_configs, ...) never break
        # result equality; every other field does.
        field = next(f for f in dataclasses.fields(SearchStatistics) if f.name == name)
        assert (a == b) == (not field.compare)
        assert getattr(a.merged(b), name) == 2 * getattr(a, name) + 7

    def test_batch_task_selects_the_scalar_optimum(self, b200):
        scalar = find_optimal_config(GPT3_1T, b200, 512, 4096, strategy="tp1d")
        batch = solve_search_task(_task(b200, 512))
        assert batch.best.config == scalar.best.config
        assert batch.best.assignment == scalar.best.assignment
        assert batch.best.breakdown == scalar.best.breakdown

    def test_parallel_batch_sweep_selects_identical_optima(self, b200):
        """Serial, fanned-out and direct solves agree on every result and on
        every deterministic work counter: a sweep seeds no point from
        another point's winner.  (The memo-cache hit/miss counters depend on
        how warm each worker process is, so they are left out.)"""
        tasks = [
            _task(b200, n, strategy="all") for n in (512, 1024)
        ]
        serial = SweepExecutor(jobs=1).run(tasks)
        with SweepExecutor(jobs=2) as executor:
            parallel = executor.run(tasks)
        direct = [solve_search_task(t) for t in tasks]
        for s, p, d in zip(serial, parallel, direct):
            assert s.best is not None and s == p == d
            work = [
                (
                    r.statistics.candidates_evaluated,
                    r.statistics.pruned_configs,
                    r.statistics.warm_start_hits,
                )
                for r in (s, p, d)
            ]
            assert work[0] == work[1] == work[2]
            assert work[0][2] == 0


class TestRuntimePricerChoice:
    """``solve_search_task`` picks the pricer from the backend: the batch
    pricer for analytic training and Pareto tasks, warm seeds included (the
    scalar oracle only re-prices winners), per-candidate pricing for
    ``sim``."""

    @staticmethod
    def _scalar_prices(monkeypatch):
        """Configs of every scalar-oracle call the training search makes."""
        from repro.core import search

        calls = []
        original = search.evaluate_config

        def counting(model, system, config, *args, **kwargs):
            calls.append(config)
            return original(model, system, config, *args, **kwargs)

        monkeypatch.setattr(search, "evaluate_config", counting)
        return calls

    def test_analytic_task_prices_only_winner_and_warm_seeds(self, b200, monkeypatch):
        """The scalar oracle prices the winner only; the warm seeds are the
        first batch chunk."""
        from repro.core import batch_eval

        calls = self._scalar_prices(monkeypatch)
        chunks = []
        original = batch_eval.batch_candidate_times

        def batched(model, system, candidates, **kwargs):
            chunks.append(len(candidates))
            return original(model, system, candidates, **kwargs)

        monkeypatch.setattr(batch_eval, "batch_candidate_times", batched)
        cold = solve_search_task(_task(b200, 512))
        assert cold.statistics.candidates_evaluated > 100
        assert calls == [cold.best.config]

        calls.clear()
        chunks.clear()
        hints = (cold.best.config,)
        warm = solve_search_task(_task(b200, 1024, warm_hints=hints))
        seeds = adapt_warm_hints(GPT3_1T, 1024, 4096, "tp1d", SearchSpace(), hints)
        seeded = sum(len(gpu_assignments(c, b200.nvs_domain_size)) for c in seeds)
        assert seeded > 0 and warm.statistics.warm_start_hits > 0
        assert calls == [warm.best.config]
        assert chunks[0] == seeded
        assert warm == find_optimal_config(GPT3_1T, b200, 1024, 4096, strategy="tp1d")

    def test_analytic_pareto_task_reprices_only_the_frontier(self, b200, monkeypatch):
        calls = self._scalar_prices(monkeypatch)
        result = solve_search_task(_task(b200, 256, objectives=("time", "cost")))
        assert result.found
        assert len(calls) == len(result.points)
        assert len(calls) < result.statistics.candidates_evaluated

    def test_sim_task_prices_every_candidate(self, monkeypatch):
        calls = self._scalar_prices(monkeypatch)
        result = solve_search_task(
            SearchTask(
                model=TINY_DENSE, system=make_system("B200", 8), n_gpus=16,
                global_batch_size=64, backend="sim",
            )
        )
        assert result.found
        assert len(calls) == result.statistics.candidates_evaluated > 0
