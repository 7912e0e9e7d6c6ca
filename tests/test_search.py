"""Optimal-configuration search (stage S3)."""

import math
import random

import pytest

from enumeration_rows import priced_chunk
from repro.core.config_space import SearchSpace
from repro.core.execution import ModelingOptions
from repro.core.inference import ServingSpec, find_serving_config
from repro.core.model import GPT3_1T, VIT_LONG_SEQ
from repro.core.parallelism.base import ParallelConfig
from repro.core.search import (
    BestK,
    PricedChunk,
    Survivor,
    best_assignment_for,
    branch_and_bound,
    evaluate_candidates,
    find_optimal_config,
)
from repro.core.system import make_system


@pytest.fixture(scope="module")
def b200():
    return make_system("B200", 8)


class TestFindOptimalConfig:
    def test_finds_paper_optimum_at_16k_gpus(self, b200):
        """Fig. 1/4a: the optimum at 16384 B200 GPUs is around nt=8, np=64."""
        result = find_optimal_config(
            GPT3_1T, b200, n_gpus=16384, global_batch_size=4096, strategy="tp1d"
        )
        assert result.found
        best = result.best
        assert best.config.tensor_parallel_1 == 8
        assert best.config.pipeline_parallel in (32, 64, 128)
        assert 1.0 < best.total_time < 6.0

    def test_best_is_feasible_and_minimal(self, b200):
        result = find_optimal_config(
            GPT3_1T, b200, n_gpus=512, global_batch_size=4096, strategy="tp1d", top_k=5
        )
        assert result.found
        assert result.best.feasible
        assert result.best.memory.fits(b200.gpu.hbm_capacity)
        # top_k is sorted and the best is its first entry.
        times = [est.total_time for est in result.top_k]
        assert times == sorted(times)
        assert result.best.total_time == pytest.approx(times[0])

    def test_statistics_are_populated(self, b200):
        result = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096, strategy="tp1d"
        )
        stats = result.statistics
        assert stats.parallel_configs > 0
        assert stats.candidates_evaluated > 0

    def test_no_feasible_configuration(self):
        """A single A100 cannot hold a 1T-parameter model."""
        a100 = make_system("A100", 4)
        result = find_optimal_config(
            GPT3_1T, a100, n_gpus=4, global_batch_size=4096, strategy="tp1d"
        )
        assert not result.found
        assert result.best_time == math.inf

    def test_multi_strategy_search_returns_overall_best(self, b200):
        combined = find_optimal_config(
            GPT3_1T, b200, n_gpus=512, global_batch_size=4096,
            strategy=("tp1d", "tp2d"),
        )
        tp1d_only = find_optimal_config(
            GPT3_1T, b200, n_gpus=512, global_batch_size=4096, strategy="tp1d"
        )
        tp2d_only = find_optimal_config(
            GPT3_1T, b200, n_gpus=512, global_batch_size=4096, strategy="tp2d"
        )
        assert combined.best_time == pytest.approx(
            min(tp1d_only.best_time, tp2d_only.best_time)
        )
        assert combined.strategy == "tp1d+tp2d"

    @pytest.mark.parametrize("objective", ["iteration", "throughput"])
    def test_negative_top_k_rejected(self, b200, objective):
        with pytest.raises(ValueError, match="top_k must be >= 0"):
            if objective == "iteration":
                find_optimal_config(GPT3_1T, b200, 256, 4096, top_k=-1)
            else:
                find_serving_config(
                    GPT3_1T, b200, 256, serving=ServingSpec(), objective=objective, top_k=-1
                )

    def test_empty_strategy_list_rejected(self, b200):
        with pytest.raises(ValueError):
            find_optimal_config(
                GPT3_1T, b200, n_gpus=64, global_batch_size=4096, strategy=()
            )

    def test_search_space_restriction_is_respected(self, b200):
        space = SearchSpace(max_tensor_parallel=2)
        result = find_optimal_config(
            GPT3_1T, b200, n_gpus=512, global_batch_size=4096, strategy="tp1d", space=space
        )
        assert result.best.config.tensor_parallel <= 2

    def test_summary_contains_best_config(self, b200):
        result = find_optimal_config(
            GPT3_1T, b200, n_gpus=256, global_batch_size=4096, strategy="tp1d"
        )
        summary = result.summary()
        assert summary["found"] is True
        assert summary["n_gpus"] == 256
        assert "config" in summary


class TestVitRequires2D:
    def test_vit_tp2d_feasible_and_faster_than_tp1d(self, b200):
        """Paper Q2(iv): the long-sequence ViT needs 2D TP."""
        tp2d = find_optimal_config(
            VIT_LONG_SEQ, b200, n_gpus=1024, global_batch_size=4096, strategy="tp2d"
        )
        tp1d = find_optimal_config(
            VIT_LONG_SEQ, b200, n_gpus=1024, global_batch_size=4096, strategy="tp1d"
        )
        assert tp2d.found
        assert tp2d.best.config.tensor_parallel_2 > 1
        # 1D TP is either infeasible or much slower.
        assert (not tp1d.found) or tp1d.best_time > tp2d.best_time

    def test_vit_memory_is_highly_utilised(self, b200):
        result = find_optimal_config(
            VIT_LONG_SEQ, b200, n_gpus=1024, global_batch_size=4096, strategy="tp2d"
        )
        assert result.best.memory_gb > 0.5 * b200.gpu.hbm_capacity / 1e9


class TestBestAssignmentFor:
    def test_picks_minimum_over_assignments(self, b200):
        config = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
            pipeline_parallel=64, data_parallel=32, microbatch_size=1,
        )
        best = best_assignment_for(GPT3_1T, b200, config, global_batch_size=4096)
        from repro.core.config_space import gpu_assignments

        estimates = evaluate_candidates(
            GPT3_1T, b200, config, gpu_assignments(config, 8), global_batch_size=4096
        )
        assert best.total_time == pytest.approx(min(e.total_time for e in estimates))

    def test_prefers_feasible_even_if_slower(self, b200):
        config = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
            pipeline_parallel=64, data_parallel=32, microbatch_size=1,
        )
        best = best_assignment_for(GPT3_1T, b200, config, global_batch_size=4096)
        assert best.feasible


class TestNvsDomainEffect:
    def test_larger_nvs_domain_shifts_gpt_to_lower_pp_at_scale(self):
        """Paper Fig. A3a: with a 64-GPU NVS domain the optimum uses less PP."""
        small = find_optimal_config(
            GPT3_1T, make_system("B200", 8), n_gpus=16384, global_batch_size=4096,
            strategy="tp1d",
        )
        large = find_optimal_config(
            GPT3_1T, make_system("B200", 64), n_gpus=16384, global_batch_size=4096,
            strategy="tp1d",
        )
        assert large.best.config.pipeline_parallel <= small.best.config.pipeline_parallel
        assert large.best_time <= small.best_time


class TestBatchEvalMode:
    """eval_mode="batch" regressions: the vectorized branch-and-bound with
    the multi-strategy floor must select exactly what exhaustive scalar
    search selects — best config, assignment, breakdown and top-k set."""

    MODEL = GPT3_1T
    N_GPUS = 1024
    GLOBAL_BATCH = 4096

    def _solve(self, b200, **kwargs):
        return find_optimal_config(
            self.MODEL, b200, n_gpus=self.N_GPUS,
            global_batch_size=self.GLOBAL_BATCH, **kwargs
        )

    @pytest.mark.parametrize("strategy", ["tp1d", "all"])
    def test_batch_equals_scalar_best(self, b200, strategy):
        scalar = self._solve(b200, strategy=strategy, eval_mode="scalar")
        batch = self._solve(b200, strategy=strategy, eval_mode="batch")
        assert batch.best.config == scalar.best.config
        assert batch.best.assignment == scalar.best.assignment
        assert batch.best.breakdown == scalar.best.breakdown
        assert batch.best_time == scalar.best_time

    def test_pruned_batch_equals_exhaustive_batch(self, b200):
        """B&B + the multi-strategy floor never change the optimum (batch pricer)."""
        no_prune = SearchSpace(prune_with_lower_bound=False)
        exhaustive = self._solve(
            b200, strategy="all", space=no_prune, eval_mode="batch"
        )
        pruned = self._solve(b200, strategy="all", eval_mode="batch")
        assert pruned.best.config == exhaustive.best.config
        assert pruned.best.assignment == exhaustive.best.assignment
        assert pruned.best_time == exhaustive.best_time
        assert pruned.statistics.candidates_evaluated < (
            exhaustive.statistics.candidates_evaluated
        )

    def test_pruned_scalar_equals_exhaustive_scalar(self, b200):
        """B&B + the multi-strategy floor never change the optimum (scalar
        pricer).  At 256 GPUs tp1d wins, so the floor it leaves prunes tp2d
        and summa, while the exhaustive scalar walk stays short."""
        kwargs = dict(
            n_gpus=256, global_batch_size=self.GLOBAL_BATCH, strategy="all",
            eval_mode="scalar",
        )
        exhaustive = find_optimal_config(
            self.MODEL, b200, space=SearchSpace(prune_with_lower_bound=False), **kwargs
        )
        pruned = find_optimal_config(self.MODEL, b200, **kwargs)
        assert pruned.statistics.shared_incumbent_prunes > 0
        assert pruned.best.config == exhaustive.best.config
        assert pruned.best.assignment == exhaustive.best.assignment
        assert pruned.best.breakdown == exhaustive.best.breakdown
        assert pruned.statistics.candidates_evaluated < (
            exhaustive.statistics.candidates_evaluated
        )

    def test_batch_topk_identical_to_scalar(self, b200):
        scalar = self._solve(b200, strategy="tp1d", top_k=5, eval_mode="scalar")
        batch = self._solve(b200, strategy="tp1d", top_k=5, eval_mode="batch")
        assert len(batch.top_k) == len(scalar.top_k) == 5
        for got, want in zip(batch.top_k, scalar.top_k):
            assert got.config == want.config
            assert got.assignment == want.assignment
            assert got.breakdown == want.breakdown

    def test_shared_incumbent_prunes_are_attributed(self, b200):
        """The floor prunes on an "all" search in both eval modes and is
        counted in the compare-excluded diagnostics, never in the result
        equality."""
        for eval_mode in ("batch", "scalar"):
            result = self._solve(b200, strategy="all", eval_mode=eval_mode)
            assert result.statistics.shared_incumbent_prunes > 0, eval_mode

    def test_topk_search_gets_no_floor(self, b200):
        """A top-k leaderboard prunes on the k-th best, which a floor from an
        earlier strategy would over-tighten, so none is passed on."""
        result = self._solve(b200, strategy="all", top_k=5, eval_mode="batch")
        assert len(result.top_k) == 5
        assert result.statistics.shared_incumbent_prunes == 0

    def test_top_1_searches_like_best_only(self, b200):
        """A one-entry leaderboard's threshold is the best score, so
        ``top_k=1`` keeps the multi-strategy floor and the warm seeds: it
        prices exactly the candidates ``top_k=0`` prices."""
        hints = (self._solve(b200, strategy="all", eval_mode="batch").best.config,)
        best_only = self._solve(b200, strategy="all", warm_hints=hints, eval_mode="batch")
        top_1 = self._solve(
            b200, strategy="all", top_k=1, warm_hints=hints, eval_mode="batch"
        )
        assert top_1.top_k == [top_1.best]
        assert top_1.best == best_only.best
        for name in ("candidates_evaluated", "shared_incumbent_prunes", "warm_start_hits"):
            assert getattr(top_1.statistics, name) == getattr(best_only.statistics, name) > 0

    def test_batch_requires_analytic_backend(self, b200):
        with pytest.raises(ValueError, match="eval_mode='batch'"):
            self._solve(b200, strategy="tp1d", eval_mode="batch", backend="sim")

    def test_unknown_eval_mode_is_rejected(self, b200):
        with pytest.raises(ValueError, match="eval_mode"):
            self._solve(b200, strategy="tp1d", eval_mode="vectorized")


class TestBestK:
    """The incumbent's best and top-k do not depend on how candidates are
    chunked, and exact score ties resolve by (rank, assignment index)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_any_chunking_gives_the_brute_force_best_and_top_k(self, seed):
        rng = random.Random(seed)
        rows = []
        # Small integer scores: many exact ties, within and across survivors.
        for rank in range(rng.randint(1, 40)):
            survivor = Survivor(0.0, rank, f"config-{rank}")
            for assign_idx in range(rng.randint(1, 4)):
                rows.append((float(rng.randint(1, 4)), survivor, assign_idx))
        want = [(rank, a) for _, rank, a in sorted((s, v.rank, a) for s, v, a in rows)]
        for top_k in range(4):
            rng.shuffle(rows)
            incumbent = BestK(top_k)
            start = 0
            while start < len(rows):
                size = rng.randint(1, 7)
                incumbent.offer(priced_chunk(rows[start : start + size], arrays=rng.random() < 0.5))
                start += size
            assert incumbent.best.assignment == want[0]
            assert incumbent.best.config == f"config-{want[0][0]}"
            assert [w.assignment for w in incumbent.leaderboard()] == want[:top_k]

    @pytest.mark.parametrize("top_k", [0, 1])
    def test_bound_equal_to_the_incumbent_is_still_priced(self, top_k):
        """A survivor whose bound ties the incumbent exactly may still hold an
        exact tie that wins on rank, so the kernel prices it."""
        times = {"late": 2.0, "early": 2.0}
        survivors = [Survivor(1.0, 1, "late"), Survivor(2.0, 0, "early")]

        class FakePricer:
            chunk = 1

            def __call__(self, chunk):
                scores = [times[item.config] for item in chunk]
                return PricedChunk(chunk, [("nvs",)] * len(chunk), [0], [0], scores, 1)

        incumbent = BestK(top_k)
        stats = branch_and_bound(survivors, FakePricer(), incumbent)
        assert (stats.candidates_evaluated, stats.pruned_configs) == (2, 0)
        assert incumbent.best.config == "early"
