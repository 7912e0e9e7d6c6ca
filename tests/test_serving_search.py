"""Serving search: objectives, branch-and-bound invariants, presets, cache."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config_space import DEFAULT_SEARCH_SPACE
from repro.core.execution import cache_stats
from repro.core.inference import (
    ServingSearchResult,
    ServingSpec,
    find_serving_config,
)
from repro.core.model import TransformerConfig
from repro.core.search import find_optimal_config
from repro.core.system import make_system
from repro.core.workloads import get_workload
from repro.runtime import SearchCache, SearchTask, SweepExecutor, solve_search_task
from repro.utils.serialization import dataclass_from_jsonable, to_jsonable

TINY = TransformerConfig(
    name="tiny", seq_len=1024, embed_dim=2048, num_heads=16, kv_heads=4, depth=16
)
TINY_MOE = TransformerConfig(
    name="tiny-moe",
    seq_len=1024,
    embed_dim=2048,
    num_heads=16,
    kv_heads=4,
    depth=16,
    num_experts=8,
    moe_top_k=2,
)
SYSTEM = make_system("A100", 4)
SPEC = ServingSpec(arrival_rate=48.0, prompt_tokens=512, output_tokens=128)
NO_PRUNE = replace(DEFAULT_SEARCH_SPACE, prune_with_lower_bound=False)


class TestServingSearch:
    def test_finds_a_feasible_config(self):
        result = find_serving_config(TINY, SYSTEM, 16, serving=SPEC)
        assert result.found
        assert result.best.feasible
        assert result.best.config.total_gpus == 16
        assert result.best.config.strategy == "tp1d"

    @pytest.mark.parametrize("objective", ["throughput", "ttft", "tpot"])
    def test_best_is_optimal_over_reported_candidates(self, objective):
        result = find_serving_config(
            TINY, SYSTEM, 16, serving=SPEC, objective=objective, top_k=5, space=NO_PRUNE
        )
        assert result.found and result.top_k
        values = [est.objective_value(objective) for est in result.top_k]
        best = result.best.objective_value(objective)
        if objective == "throughput":
            assert best == max(values)
            assert values == sorted(values, reverse=True)
        else:
            assert best == min(values)
            assert values == sorted(values)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            find_serving_config(TINY, SYSTEM, 16, serving=SPEC, objective="mfu")

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k must be >= 0"):
            find_serving_config(TINY, SYSTEM, 16, serving=SPEC, top_k=-2)

    def test_overloaded_traffic_finds_nothing(self):
        overload = ServingSpec(arrival_rate=1e7, prompt_tokens=512, output_tokens=128)
        result = find_serving_config(TINY, SYSTEM, 8, serving=overload)
        assert not result.found
        assert result.statistics.infeasible_memory > 0


class TestBranchAndBoundInvariant:
    """Tier-1 acceptance invariant: decode-regime branch-and-bound must
    match exhaustive search exactly on a small grid — best *and* top-k,
    for every objective, dense and MoE."""

    @pytest.mark.parametrize("model", [TINY, TINY_MOE], ids=["dense", "moe"])
    @pytest.mark.parametrize("objective", ["throughput", "ttft", "tpot"])
    @pytest.mark.parametrize("top_k", [0, 3])
    def test_pruned_equals_exhaustive(self, model, objective, top_k):
        pruned = find_serving_config(
            model, SYSTEM, 16, serving=SPEC, objective=objective, top_k=top_k
        )
        exhaustive = find_serving_config(
            model, SYSTEM, 16, serving=SPEC, objective=objective, top_k=top_k,
            space=NO_PRUNE,
        )
        assert exhaustive.statistics.pruned_configs == 0
        assert pruned.found == exhaustive.found
        if pruned.found:
            assert pruned.best.config == exhaustive.best.config
            assert pruned.best.assignment == exhaustive.best.assignment
            assert pruned.best.objective_value(objective) == exhaustive.best.objective_value(
                objective
            )
        assert [(e.config, e.assignment) for e in pruned.top_k] == [
            (e.config, e.assignment) for e in exhaustive.top_k
        ]

    def test_pruning_actually_prunes(self):
        result = find_serving_config(TINY, SYSTEM, 16, serving=SPEC, objective="throughput")
        assert result.statistics.pruned_configs > 0

    def test_statistics_report_the_memo_cache_traffic(self):
        """The cache counters are the ``cache_stats()`` deltas over the call."""
        workload = get_workload("llama70b-serve")
        before = cache_stats()
        result = find_serving_config(
            workload.model, make_system("H200", 8), 8,
            serving=workload.serving, objective="throughput",
        )
        after = cache_stats()
        stats = result.statistics
        counted = (
            stats.workload_cache_hits, stats.workload_cache_misses,
            stats.stage_cache_hits, stats.stage_cache_misses,
        )
        assert counted == tuple(
            after[cache][counter] - before[cache][counter]
            for cache in ("workload", "stage_times")
            for counter in ("hits", "misses")
        )
        assert stats.workload_cache_hits + stats.stage_cache_hits > 0


class TestObjectiveThreading:
    """``solve_search_task`` sends a serving objective to the serving search."""

    def test_serving_objective_delegates(self):
        task = SearchTask(
            model=TINY, system=SYSTEM, n_gpus=16, global_batch_size=1024,
            objective="throughput", serving=SPEC,
        )
        result = solve_search_task(task)
        assert isinstance(result, ServingSearchResult)
        assert result.objective == "throughput"
        assert result == find_serving_config(TINY, SYSTEM, 16, serving=SPEC)

    def test_default_objective_still_returns_training_result(self):
        from repro.core.search import SearchResult

        task = SearchTask(model=TINY, system=SYSTEM, n_gpus=16, global_batch_size=64)
        result = solve_search_task(task)
        assert isinstance(result, SearchResult)
        assert result == find_optimal_config(TINY, SYSTEM, 16, 64)


class TestServingPresets:
    def test_llama70b_serve_preset_returns_valid_config(self):
        spec = get_workload("llama70b-serve")
        assert spec.serving is not None
        assert "serve" in spec.tags
        result = find_serving_config(
            spec.model, make_system("B200", 8), 8, serving=spec.serving,
            objective="throughput",
        )
        assert result.found
        assert result.best.feasible
        assert result.best.config.total_gpus == 8

    def test_moe_mixtral_serve_preset(self):
        spec = get_workload("moe-mixtral-serve")
        assert spec.serving is not None and spec.model.is_moe
        result = find_serving_config(
            spec.model, make_system("B200", 8), 8, serving=spec.serving
        )
        assert result.found


class TestServingResultSerde:
    def test_search_result_round_trips(self):
        result = find_serving_config(TINY, SYSTEM, 16, serving=SPEC, top_k=2)
        rebuilt = dataclass_from_jsonable(ServingSearchResult, to_jsonable(result))
        assert rebuilt.best.config == result.best.config
        assert rebuilt.serving == result.serving
        assert rebuilt.best.tpot == result.best.tpot
        assert len(rebuilt.top_k) == len(result.top_k)

    def test_summary_is_flat_and_jsonable(self):
        import json

        result = find_serving_config(TINY, SYSTEM, 16, serving=SPEC)
        summary = result.summary()
        json.dumps(to_jsonable(summary))
        assert summary["objective"] == "throughput"
        assert summary["found"] is True


class TestServingTasksAndCache:
    def test_serving_task_solves_and_caches(self, tmp_path):
        task = SearchTask(
            model=TINY,
            system=SYSTEM,
            n_gpus=16,
            global_batch_size=1024,
            objective="tpot",
            serving=SPEC,
        )
        cache = SearchCache(tmp_path / "cache.json")
        executor = SweepExecutor(cache=cache)
        (first,) = executor.run([task])
        assert isinstance(first, ServingSearchResult)
        (second,) = SweepExecutor(cache=SearchCache(tmp_path / "cache.json")).run([task])
        assert isinstance(second, ServingSearchResult)
        assert second.best.config == first.best.config
        assert second.best.tpot == first.best.tpot

    def test_training_and_serving_fingerprints_differ(self):
        train = SearchTask(model=TINY, system=SYSTEM, n_gpus=16, global_batch_size=1024)
        serve = SearchTask(
            model=TINY, system=SYSTEM, n_gpus=16, global_batch_size=1024,
            objective="throughput", serving=SPEC,
        )
        assert SearchCache.fingerprint(train) != SearchCache.fingerprint(serve)

    def test_different_serving_specs_miss(self):
        a = SearchTask(
            model=TINY, system=SYSTEM, n_gpus=16, global_batch_size=1024,
            objective="throughput", serving=SPEC,
        )
        b = SearchTask(
            model=TINY, system=SYSTEM, n_gpus=16, global_batch_size=1024,
            objective="throughput",
            serving=replace(SPEC, arrival_rate=SPEC.arrival_rate * 2),
        )
        assert SearchCache.fingerprint(a) != SearchCache.fingerprint(b)


class TestServingBatchEvalMode:
    """A serving task on the analytic backend, where ``solve_search_task``
    gives training tasks the batch pricer, runs the per-candidate serving
    search (which takes no ``eval_mode``), so the whole result — estimates
    AND diagnostics counters — equals a direct ``find_serving_config``
    call, pruned or exhaustive."""

    @staticmethod
    def _solve(model=TINY, **kwargs):
        kwargs.setdefault("objective", "throughput")
        return solve_search_task(
            SearchTask(
                model=model, system=SYSTEM, n_gpus=16, global_batch_size=1,
                serving=SPEC, **kwargs,
            )
        )

    @pytest.mark.parametrize("objective", ["throughput", "ttft", "tpot"])
    def test_batch_identical_to_scalar_including_statistics(self, objective):
        batch = self._solve(objective=objective)
        # Full dataclass equality, statistics included.
        assert batch == find_serving_config(
            TINY, SYSTEM, 16, serving=SPEC, objective=objective
        )

    @pytest.mark.parametrize("model", [TINY, TINY_MOE])
    def test_pruned_batch_equals_exhaustive_batch(self, model):
        pruned = self._solve(model)
        exhaustive = self._solve(model, space=NO_PRUNE)
        assert pruned.best == exhaustive.best

    def test_batch_topk_identical_to_scalar(self):
        batch = self._solve(top_k=4)
        scalar = find_serving_config(TINY, SYSTEM, 16, serving=SPEC, top_k=4)
        assert batch.top_k == scalar.top_k

    def test_serving_search_takes_no_eval_mode(self):
        with pytest.raises(TypeError, match="eval_mode"):
            find_serving_config(TINY, SYSTEM, 16, serving=SPEC, eval_mode="scalar")

    def test_serving_search_leaves_numpy_unloaded(self):
        """The serving search no longer imports the batch pricer (and NumPy)."""
        code = (
            "import sys\n"
            "from repro.core.inference import ServingSpec, find_serving_config\n"
            "from repro.core.model import TransformerConfig\n"
            "from repro.core.system import make_system\n"
            "model = TransformerConfig(name='t', seq_len=1024, embed_dim=2048,"
            " num_heads=16, kv_heads=4, depth=16)\n"
            "result = find_serving_config(model, make_system('A100', 4), 16,"
            " serving=ServingSpec())\n"
            "assert result.found\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
