"""The pluggable evaluation backends and the message-level sim backend.

Covers the backend registry (:mod:`repro.core.backends`), the ``sim``
pricer (:mod:`repro.simulate.backend`), the backend threading through the
search/runtime layers, and the cache-isolation regression: switching
backends mid-process must never serve one backend's numbers from the
other's cache.
"""

from __future__ import annotations

import pytest

from repro.core.backends import (
    DEFAULT_BACKEND,
    AnalyticPricer,
    available_backends,
    get_backend,
)
from repro.core.collectives import GroupPlacement, collective_time
from repro.core.execution import cache_stats, clear_caches, evaluate_config
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.search import find_optimal_config
from repro.core.workloads import get_workload
from repro.runtime import SearchCache, SearchTask

MODEL = get_workload("gpt3-1t").model
#: Small enough to fit (and search quickly) on a 32-GPU slice.
SMALL_MODEL = get_workload("moe-mixtral").model

#: A multi-node candidate: the DP ring leaves the NVSwitch domain, so the
#: simulated and analytic comm terms legitimately differ (which is what
#: the cache-isolation tests below rely on).
CONFIG = ParallelConfig(
    strategy="tp1d",
    tensor_parallel_1=4,
    tensor_parallel_2=1,
    pipeline_parallel=8,
    data_parallel=4,
    microbatch_size=1,
)
ASSIGNMENT = GpuAssignment(nvs_tp1=4, nvs_dp=2)
GLOBAL_BATCH = 64


def _evaluate(system, backend):
    return evaluate_config(
        MODEL,
        system,
        CONFIG,
        ASSIGNMENT,
        global_batch_size=GLOBAL_BATCH,
        backend=backend,
    )


class TestBackendRegistry:
    def test_default_is_analytic(self):
        assert DEFAULT_BACKEND == "analytic"

    def test_available_backends(self):
        names = available_backends()
        assert "analytic" in names and "sim" in names

    def test_sim_registers_lazily(self):
        factory = get_backend("sim")
        assert factory.__name__ == "SimPricer"

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown evaluation backend"):
            get_backend("measured")

    def test_analytic_pricer_matches_closed_forms(self, b200_nvs8):
        pricer = AnalyticPricer(b200_nvs8)
        placement = GroupPlacement(size=8, gpus_per_nvs_domain=4)
        assert pricer.collective("all_gather", 1e9, placement) == collective_time(
            "all_gather", 1e9, placement, b200_nvs8.network
        )


class TestSimBackendEstimates:
    def test_backend_recorded_on_estimate_and_plan(self, b200_nvs8):
        sim = _evaluate(b200_nvs8, "sim")
        assert sim.backend == "sim"
        assert sim.plan.backend == "sim"
        assert sim.summary()["backend"] == "sim"
        analytic = _evaluate(b200_nvs8, "analytic")
        assert analytic.backend == "analytic"
        assert analytic.plan.backend == "analytic"

    def test_roofline_terms_are_backend_independent(self, b200_nvs8):
        analytic = _evaluate(b200_nvs8, "analytic")
        sim = _evaluate(b200_nvs8, "sim")
        assert sim.breakdown.compute == analytic.breakdown.compute
        assert sim.breakdown.memory == analytic.breakdown.memory
        assert sim.memory.total_bytes == analytic.memory.total_bytes

    def test_sim_tracks_analytic_within_band(self, b200_nvs8):
        analytic = _evaluate(b200_nvs8, "analytic")
        sim = _evaluate(b200_nvs8, "sim")
        assert sim.total_time == pytest.approx(analytic.total_time, rel=0.10)

    def test_multi_node_dp_ring_differs_from_closed_form(self, b200_nvs8):
        """The replay walks real hops, so it must not collapse onto the
        closed form bit-for-bit on a multi-node ring — identical values
        would suggest the sim served an analytic cache entry."""
        analytic = _evaluate(b200_nvs8, "analytic")
        sim = _evaluate(b200_nvs8, "sim")
        assert sim.breakdown.dp_comm != analytic.breakdown.dp_comm

    def test_interleaved_falls_back_to_closed_form_off_grid(self):
        """m not a multiple of np has no executable Megatron order; the sim
        backend then prices the bubble with the schedule's closed form."""
        from repro.core.schedules import get_schedule
        from repro.simulate.backend import _simulated_bubble_time

        bubble = _simulated_bubble_time("interleaved", 8, 5, 1.0, 2.0, 2)
        assert bubble == get_schedule("interleaved").bubble_time(8, 5, 1.0, 2.0, 2)

    def test_all_schedules_evaluate_under_sim(self, b200_nvs8):
        from dataclasses import replace

        for schedule, v in (("1f1b", 1), ("gpipe", 1), ("interleaved", 2)):
            config = replace(CONFIG, schedule=schedule, virtual_stages=v)
            est = evaluate_config(
                MODEL,
                b200_nvs8,
                config,
                ASSIGNMENT,
                global_batch_size=GLOBAL_BATCH,
                backend="sim",
            )
            assert est.total_time > 0


class TestBackendCacheIsolation:
    """Satellite regression: no stale cross-backend cache entries."""

    def setup_method(self):
        clear_caches()

    def test_sim_caches_are_registered(self, b200_nvs8):
        _evaluate(b200_nvs8, "sim")
        stats = cache_stats()
        assert "sim_collective" in stats and "sim_pipeline" in stats
        assert stats["sim_collective"]["currsize"] > 0
        assert stats["sim_pipeline"]["currsize"] > 0

    def test_clear_caches_covers_sim_backend(self, b200_nvs8):
        _evaluate(b200_nvs8, "sim")
        clear_caches()
        stats = cache_stats()
        assert stats["sim_collective"]["currsize"] == 0
        assert stats["sim_pipeline"]["currsize"] == 0

    def test_backend_switch_round_trip_is_stable(self, b200_nvs8):
        """analytic -> sim -> analytic returns bit-identical analytic
        numbers: the sim pass must not poison the shared caches."""
        before = _evaluate(b200_nvs8, "analytic")
        sim = _evaluate(b200_nvs8, "sim")
        after = _evaluate(b200_nvs8, "analytic")
        assert after.breakdown == before.breakdown
        assert sim.breakdown != before.breakdown

    @pytest.mark.parametrize("strategy", ["tp1d", "all"])
    def test_sim_search_exercises_cache_counters(self, b200_nvs8, strategy):
        """SearchStatistics' memoization counters work under the sim
        backend too (the workload/stage caches are shared by design)."""
        result = find_optimal_config(
            SMALL_MODEL,
            b200_nvs8,
            n_gpus=32,
            global_batch_size=GLOBAL_BATCH,
            strategy=strategy,
            backend="sim",
        )
        assert result.found
        assert result.best.backend == "sim"
        stats = result.statistics
        assert stats.workload_cache_hits + stats.workload_cache_misses > 0
        assert stats.stage_cache_hits + stats.stage_cache_misses > 0
        # Pruning is disabled for non-analytic backends (the analytic
        # bound is only provably admissible for the analytic evaluation),
        # across the strategies of a multi-strategy search too.
        assert stats.pruned_configs == 0 and stats.bounds_computed == 0

    def test_sim_search_finds_same_structure_as_analytic(self, b200_nvs8):
        analytic = find_optimal_config(
            SMALL_MODEL, b200_nvs8, n_gpus=32, global_batch_size=GLOBAL_BATCH,
            strategy="tp1d",
        )
        sim = find_optimal_config(
            SMALL_MODEL,
            b200_nvs8,
            n_gpus=32,
            global_batch_size=GLOBAL_BATCH,
            strategy="tp1d",
            backend="sim",
        )
        assert sim.best.total_time == pytest.approx(analytic.best.total_time, rel=0.10)


class TestSearchCacheKeying:
    def test_fingerprint_differs_by_backend(self, b200_nvs8):
        base = dict(
            model=MODEL,
            system=b200_nvs8,
            n_gpus=64,
            global_batch_size=GLOBAL_BATCH,
            strategy="tp1d",
        )
        analytic_task = SearchTask(**base)
        sim_task = SearchTask(**base, backend="sim")
        assert SearchCache.fingerprint(analytic_task) != SearchCache.fingerprint(sim_task)

    def test_cache_never_serves_across_backends(self, b200_nvs8, tmp_path):
        cache = SearchCache(tmp_path / "cache.json")
        analytic_task = SearchTask(
            model=MODEL,
            system=b200_nvs8,
            n_gpus=64,
            global_batch_size=GLOBAL_BATCH,
            strategy="tp1d",
        )
        result = find_optimal_config(
            MODEL, b200_nvs8, n_gpus=64, global_batch_size=GLOBAL_BATCH, strategy="tp1d"
        )
        cache.put(analytic_task, result)
        sim_task = SearchTask(
            model=MODEL,
            system=b200_nvs8,
            n_gpus=64,
            global_batch_size=GLOBAL_BATCH,
            strategy="tp1d",
            backend="sim",
        )
        assert cache.get(sim_task) is None
        assert cache.get(analytic_task) is not None
