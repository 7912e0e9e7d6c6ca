"""Warm-started search: incumbent seeding, the hint index and API seeding.

The contract under test everywhere here: warm hints may only *accelerate*
the branch-and-bound search — the returned optimum, the top-k set and
every compared field of the statistics must be bit-identical to a cold
search, with hints taken from a *different* point than the one being
solved (the realistic sweep/API shape).
"""

import pytest

from repro.core.config_space import (
    DEFAULT_SEARCH_SPACE,
    config_in_space,
    parallel_configs,
)
from repro.core.inference import (
    SERVING_OBJECTIVES,
    ServingSpec,
    find_serving_config,
)
from repro.core.model import GPT3_1T, VIT_LONG_SEQ, TransformerConfig
from repro.core.parallelism.base import ParallelConfig
from repro.core.search import MAX_WARM_HINTS, adapt_warm_hints, find_optimal_config
from repro.core.system import make_system
from repro.runtime import SearchCache, SearchTask, solve_search_task
from repro.runtime.cache import reduced_fingerprint
from repro.runtime.executor import estimate_task_cost

TINY = TransformerConfig(
    name="tiny", seq_len=1024, embed_dim=2048, num_heads=16, kv_heads=4, depth=16
)
SERVE_SYSTEM = make_system("A100", 4)
SERVE_SPEC = ServingSpec(arrival_rate=32.0, prompt_tokens=512, output_tokens=128)


@pytest.fixture(scope="module")
def b200():
    return make_system("B200", 8)


def _donor_config(model, system, n_gpus, strategy, **kwargs):
    """The winner at a *different* point, used as the warm hint."""
    donor = find_optimal_config(
        model, system, n_gpus=n_gpus, global_batch_size=4096,
        strategy=strategy, **kwargs,
    )
    assert donor.found
    return donor.best.config


class TestWarmEqualsColdTraining:
    """Seeded searches return bit-identical results on every strategy."""

    @pytest.mark.parametrize("eval_mode", ["scalar", "batch"])
    @pytest.mark.parametrize("strategy", ["tp1d", "tp2d", "summa"])
    def test_warm_equals_cold(self, b200, strategy, eval_mode):
        model = GPT3_1T if strategy == "tp1d" else VIT_LONG_SEQ
        # The donor point is *smaller*, so the DP-rescaled hint keeps its
        # per-GPU footprint and stays feasible at the target scale.
        hint = _donor_config(model, b200, 256, strategy)
        kwargs = dict(
            n_gpus=512, global_batch_size=4096, strategy=strategy,
            eval_mode=eval_mode,
        )
        cold = find_optimal_config(model, b200, **kwargs)
        warm = find_optimal_config(model, b200, warm_hints=(hint,), **kwargs)
        assert cold == warm
        assert cold.best.config == warm.best.config
        assert cold.best.total_time == warm.best.total_time
        assert warm.statistics.warm_start_hits >= 1
        assert warm.statistics.warm_seed_time >= 0.0
        # The seed tightened the initial threshold, so the warm search can
        # only have priced fewer (never more) candidates.
        assert (
            warm.statistics.candidates_evaluated
            <= cold.statistics.candidates_evaluated
            + warm.statistics.warm_start_hits * 64
        )

    def test_assignment_tuple_hints_accepted(self, b200):
        """Hints may be (config, assignment) tuples, as SearchCache stores."""
        hint = _donor_config(GPT3_1T, b200, 512, "tp1d")
        cold = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096, strategy="tp1d"
        )
        warm = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096, strategy="tp1d",
            warm_hints=((hint, None),),
        )
        assert cold == warm

    def test_useless_hints_are_harmless(self, b200):
        """Garbage and cross-strategy hints are filtered, never fatal."""
        cold = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096, strategy="tp1d"
        )
        junk = (
            "not-a-config",
            None,
            _donor_config(VIT_LONG_SEQ, b200, 512, "tp2d"),
        )
        warm = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096, strategy="tp1d",
            warm_hints=junk,
        )
        assert cold == warm

    def test_top_k_ignores_hints(self, b200):
        """A single seed cannot stand in for the k-th-best threshold."""
        hint = _donor_config(GPT3_1T, b200, 512, "tp1d")
        cold = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096,
            strategy="tp1d", top_k=5,
        )
        warm = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096,
            strategy="tp1d", top_k=5, warm_hints=(hint,),
        )
        assert cold == warm
        assert [e.config for e in cold.top_k] == [e.config for e in warm.top_k]
        assert warm.statistics.warm_start_hits == 0

    @pytest.mark.parametrize("strategy", ["tp2d", "summa"])
    def test_warm_equals_cold_when_shrinking(self, b200, strategy):
        """Donor *larger* than the target exercises the shrink path, which
        must absorb the GPU ratio through the second tensor axis for these
        strategies instead of silently dropping the hint."""
        hint = _donor_config(VIT_LONG_SEQ, b200, 1024, strategy)
        kwargs = dict(n_gpus=256, global_batch_size=4096, strategy=strategy)
        cold = find_optimal_config(VIT_LONG_SEQ, b200, **kwargs)
        warm = find_optimal_config(VIT_LONG_SEQ, b200, warm_hints=(hint,), **kwargs)
        assert cold == warm
        assert cold.best.config == warm.best.config
        assert cold.best.total_time == warm.best.total_time


class TestWarmEqualsColdServing:
    """Serving-objective searches honour the same identity contract.

    They run through :func:`find_optimal_config`, which forwards the hints
    to the serving search and ignores either library ``eval_mode`` there.
    """

    @pytest.mark.parametrize("eval_mode", ["scalar", "batch"])
    @pytest.mark.parametrize("objective", SERVING_OBJECTIVES)
    def test_warm_equals_cold(self, objective, eval_mode):
        donor = find_serving_config(
            TINY, SERVE_SYSTEM, 32, serving=SERVE_SPEC, objective=objective
        )
        assert donor.found
        kwargs = dict(serving=SERVE_SPEC, objective=objective, eval_mode=eval_mode)
        cold = find_optimal_config(TINY, SERVE_SYSTEM, 16, 1, **kwargs)
        warm = find_optimal_config(
            TINY, SERVE_SYSTEM, 16, 1, warm_hints=(donor.best.config,), **kwargs
        )
        assert cold == warm
        assert cold.best.config == warm.best.config
        assert warm.statistics.warm_start_hits >= 1


class TestAdaptWarmHints:
    """Cross-scale hint adaptation produces members of the target space."""

    def test_rescales_along_data_parallel(self, b200):
        hint = _donor_config(GPT3_1T, b200, 512, "tp1d")
        for target in (256, 1024):
            adapted = adapt_warm_hints(
                GPT3_1T, target, 4096, "tp1d", DEFAULT_SEARCH_SPACE, [hint]
            )
            assert adapted, f"no adaptation for {target} GPUs"
            for config in adapted:
                assert config.total_gpus == target
                assert config_in_space(
                    GPT3_1T, target, 4096, "tp1d", DEFAULT_SEARCH_SPACE, config
                )

    def test_respects_limit_and_dedups(self, b200):
        hint = _donor_config(GPT3_1T, b200, 256, "tp1d")
        adapted = adapt_warm_hints(
            GPT3_1T, 256, 4096, "tp1d", DEFAULT_SEARCH_SPACE,
            [hint] * (2 * MAX_WARM_HINTS),
        )
        assert len(adapted) == 1  # duplicates collapse
        assert len(adapted) <= MAX_WARM_HINTS

    def test_shrinks_through_the_second_tensor_axis(self):
        """A tp2d hint whose DP/PP/TP1 axes cannot absorb the whole GPU
        ratio must shrink through ``tensor_parallel_2`` — with the axis set
        restricted to DP/PP/TP1 this donor was dropped outright."""
        donor = next(
            c for c in parallel_configs(
                VIT_LONG_SEQ, 1024, 4096, "tp2d", DEFAULT_SEARCH_SPACE
            )
            if (c.data_parallel, c.pipeline_parallel,
                c.tensor_parallel_1, c.tensor_parallel_2) == (2, 16, 1, 32)
        )
        adapted = adapt_warm_hints(
            VIT_LONG_SEQ, 16, 4096, "tp2d", DEFAULT_SEARCH_SPACE, [donor]
        )
        assert adapted, "shrink dropped a tp2d hint it can absorb via n2"
        for config in adapted:
            assert config.total_gpus == 16
            assert config.tensor_parallel_2 < donor.tensor_parallel_2
            assert config_in_space(
                VIT_LONG_SEQ, 16, 4096, "tp2d", DEFAULT_SEARCH_SPACE, config
            )

    def test_filters_foreign_strategies_and_junk(self, b200):
        hint = _donor_config(VIT_LONG_SEQ, b200, 512, "tp2d")
        assert adapt_warm_hints(
            GPT3_1T, 256, 4096, "tp1d", DEFAULT_SEARCH_SPACE,
            [hint, "junk", None, 42],
        ) == []


class TestConfigInSpace:
    """Membership test stays in lockstep with the enumeration."""

    @pytest.mark.parametrize(
        "model,strategy",
        [(GPT3_1T, "tp1d"), (VIT_LONG_SEQ, "tp2d"), (VIT_LONG_SEQ, "summa")],
    )
    def test_every_enumerated_config_is_a_member(self, model, strategy):
        configs = list(
            parallel_configs(model, 256, 4096, strategy, DEFAULT_SEARCH_SPACE)
        )
        assert configs
        for config in configs:
            assert config_in_space(
                model, 256, 4096, strategy, DEFAULT_SEARCH_SPACE, config
            ), f"enumerated {config} rejected by config_in_space"

    def test_non_members_are_rejected(self):
        member = next(
            iter(parallel_configs(GPT3_1T, 256, 4096, "tp1d", DEFAULT_SEARCH_SPACE))
        )
        from dataclasses import replace

        # Wrong GPU total, wrong strategy label, absurd microbatch.
        assert not config_in_space(
            GPT3_1T, 512, 4096, "tp1d", DEFAULT_SEARCH_SPACE, member
        )
        assert not config_in_space(
            GPT3_1T, 256, 4096, "tp2d", DEFAULT_SEARCH_SPACE, member
        )
        assert not config_in_space(
            GPT3_1T, 256, 4096, "tp1d", DEFAULT_SEARCH_SPACE,
            replace(member, microbatch_size=member.microbatch_size * 4096 + 3),
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


class TestEstimateTaskCost:
    def test_batch_mode_is_cheaper_than_scalar(self, b200):
        """An analytic task is batch-priced, a ``sim`` one per candidate."""
        scalar = estimate_task_cost(_task(b200, 256, backend="sim"))
        batch = estimate_task_cost(_task(b200, 256))
        assert batch == pytest.approx(0.2 * scalar)
        assert batch < scalar

    def test_bad_task_fallback_ignores_eval_mode_scaling(self, b200):
        bad = _task(b200, 256, strategy="no-such-strategy")
        assert estimate_task_cost(bad) == 256.0
        # The GPU-count fallback is not a candidate count: no batch discount.
        bad_sim = _task(b200, 256, strategy="no-such-strategy", backend="sim")
        assert estimate_task_cost(bad_sim) == 256.0

    def test_serving_cost_counts_the_serving_enumeration(self, b200):
        """A serving task is priced by what its solver enumerates: the
        post-filter tp1d serving space at the prompt's sequence length."""
        from repro.core.config_space import gpu_assignments
        from repro.core.inference import _serving_space

        spec = ServingSpec(arrival_rate=8.0, prompt_tokens=512, output_tokens=64)
        task = _task(b200, 256, objective="throughput", serving=spec)
        serving_space = _serving_space(task.space)
        prefill = task.model.scaled(seq_len=spec.prompt_tokens)
        expected = sum(
            len(gpu_assignments(c, b200.nvs_domain_size, serving_space))
            for c in parallel_configs(prefill, 256, 256, "tp1d", serving_space)
        )
        assert expected > 0
        assert estimate_task_cost(task) == float(expected)

    def test_serving_no_longer_outranks_training_in_lpt_order(self, b200):
        """Pricing serving work off the *training* enumeration overstated it
        by the collapsed microbatch/schedule axes, pushing every serving
        point ahead of genuinely larger training searches in the
        longest-first dispatch order.  The training task runs on ``sim`` so
        that both are priced per candidate (an analytic one is batch-priced
        and discounted)."""
        serving = _task(b200, 256, objective="throughput", serving=ServingSpec())
        training = _task(b200, 256, backend="sim")
        assert estimate_task_cost(serving) < estimate_task_cost(training)

    def test_pareto_tasks_price_like_training(self, b200):
        """A Pareto task enumerates the full training space."""
        training = _task(b200, 256)
        pareto = _task(b200, 256, objectives=("time", "cost"))
        assert estimate_task_cost(pareto) == estimate_task_cost(training)


class TestHintIndex:
    """Structure-keyed hint index: reduced keys, persistence, merging."""

    def test_reduced_fingerprint_drops_scale_axes(self, b200):
        a = _task(b200, 256)
        b = _task(b200, 1024, global_batch_size=2048)
        c = _task(b200, 256, strategy="tp2d")
        assert reduced_fingerprint(a) == reduced_fingerprint(b)
        assert reduced_fingerprint(a) != reduced_fingerprint(c)

    def test_put_feeds_warm_hints_nearest_first(self, b200):
        cache = SearchCache()
        for n in (256, 1024):
            task = _task(b200, n)
            cache.put(task, solve_search_task(task))
        hints = cache.warm_hints(_task(b200, 512))
        assert hints
        assert all(isinstance(h, ParallelConfig) for h in hints)
        # The 256-GPU winner is log-nearest to 512; it must sort first.
        nearest = cache.warm_hints(_task(b200, 300))
        assert nearest[0].total_gpus == 256

    def test_hint_order_is_insertion_order_independent(self, b200):
        """Equidistant records must rank identically no matter which sweep
        recorded them first — merge-on-save can interleave buckets
        arbitrarily across processes, so the distance sort carries a
        deterministic final tie-break (the config's canonical fingerprint)
        instead of leaning on bucket insertion order."""
        tasks = [_task(b200, 256), _task(b200, 1024)]
        results = [solve_search_task(t) for t in tasks]
        forward, backward = SearchCache(), SearchCache()
        for task, result in zip(tasks, results):
            forward.put(task, result)
        for task, result in zip(reversed(tasks), reversed(results)):
            backward.put(task, result)
        # 512 is log2-equidistant from both recorded points: the order of
        # the returned hints is decided purely by the tie-break.
        query = _task(b200, 512)
        assert forward.warm_hints(query)
        assert forward.warm_hints(query) == backward.warm_hints(query)

    def test_round_trip_through_save_and_load(self, b200, tmp_path):
        path = tmp_path / "cache.json"
        cache = SearchCache(path)
        task = _task(b200, 256)
        cache.put(task, solve_search_task(task))
        assert cache.warm_hints(_task(b200, 512))
        cache.save()

        reloaded = SearchCache(path)
        assert reloaded.warm_hints(_task(b200, 512)) == cache.warm_hints(
            _task(b200, 512)
        )
        stats = reloaded.stats()
        assert stats["hint_keys"] == 1
        assert stats["hint_entries"] == 1

    def test_cross_process_merge_on_save(self, b200, tmp_path):
        """Two caches sharing one path union their hints on save."""
        path = tmp_path / "cache.json"
        first, second = SearchCache(path), SearchCache(path)
        task_a, task_b = _task(b200, 256), _task(b200, 512)
        first.put(task_a, solve_search_task(task_a))
        second.put(task_b, solve_search_task(task_b))
        first.save()
        second.save()  # must merge, not clobber, first's hints

        merged = SearchCache(path)
        gpu_counts = {h.total_gpus for h in merged.warm_hints(_task(b200, 1024))}
        assert gpu_counts == {256, 512}
        assert merged.stats()["hint_entries"] == 2


class TestHintedTaskIdentity:
    def test_hinted_task_hits_unhinted_cache_entry(self, b200):
        """warm_hints is compare-excluded: fingerprints must not change."""
        cache = SearchCache()
        task = _task(b200, 256)
        hinted = _task(
            b200, 256,
            warm_hints=(_donor_config(GPT3_1T, b200, 512, "tp1d"),),
        )
        assert task == hinted
        assert SearchCache.fingerprint(task) == SearchCache.fingerprint(hinted)
        cache.put(task, solve_search_task(task))
        assert cache.get(hinted) is not None


class TestApiWarmStatus:
    def test_status_surfaces_warm_start_fields(self):
        """A default app seeds every miss from the hint index; status reports
        the seeds that took, not a switch."""
        from repro.serve_api import PlannerApp

        app = PlannerApp()
        try:
            base = {
                "workload": "gpt3-1t", "gpu": "B200", "nvs": 8,
                "global_batch": 4096, "eval_mode": "batch",
            }
            cold_body = app.search({**base, "gpus": 256})
            warm_body = app.search({**base, "gpus": 512})
            status = app.status()
        finally:
            app.close()
        assert "warm_start" not in status
        assert cold_body["statistics"]["warm_start_hits"] == 0
        assert warm_body["statistics"]["warm_start_hits"] >= 1
        assert status["warm_start_hits"] >= 1
        assert status["cache"]["hint_keys"] >= 1
        assert status["cache"]["hint_entries"] >= 2
