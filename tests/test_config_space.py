"""Configuration-space enumeration (stage S3 candidate generation)."""

import itertools
import math

import pytest

from repro.core import config_space
from repro.core.config_space import (
    SearchSpace,
    count_configurations,
    default_assignment,
    gpu_assignments,
    microbatch_candidates,
    parallel_configs,
)
from repro.core.execution import clear_caches
from repro.core.model import GPT3_1T, VIT_LONG_SEQ
from repro.core.parallelism.base import GpuAssignment, ParallelConfig


class TestMicrobatchCandidates:
    def test_power_of_two_divisors(self):
        assert microbatch_candidates(128) == (1, 2, 4, 8)

    def test_respects_max(self):
        space = SearchSpace(max_microbatch_size=2)
        assert microbatch_candidates(128, space) == (1, 2)

    def test_explicit_sizes_filtered_by_divisibility(self):
        space = SearchSpace(microbatch_sizes=(1, 3, 4, 64))
        assert microbatch_candidates(12, space) == (1, 3, 4)

    def test_empty_for_zero_batch(self):
        assert microbatch_candidates(0) == ()


class TestParallelConfigs:
    def test_all_configs_multiply_to_n(self):
        configs = list(parallel_configs(GPT3_1T, 256, 4096, "tp1d"))
        assert configs
        for c in configs:
            assert c.total_gpus == 256
            assert c.tensor_parallel_2 == 1

    def test_divisibility_rules_enforced(self):
        for c in parallel_configs(GPT3_1T, 256, 4096, "tp1d"):
            assert GPT3_1T.depth % c.pipeline_parallel == 0
            assert GPT3_1T.num_heads % c.tensor_parallel_1 == 0
            assert 4096 % c.data_parallel == 0
            assert (4096 // c.data_parallel) % c.microbatch_size == 0

    def test_tp2d_explores_both_dimensions(self):
        configs = list(parallel_configs(VIT_LONG_SEQ, 64, 4096, "tp2d"))
        assert any(c.tensor_parallel_2 > 1 for c in configs)

    def test_summa_includes_panel_counts(self):
        space = SearchSpace(summa_panels=(1, 2, 4))
        panels = {
            c.summa_panels for c in parallel_configs(GPT3_1T, 64, 4096, "summa", space)
        }
        assert panels == {1, 2, 4}

    def test_max_tensor_parallel_limit(self):
        space = SearchSpace(max_tensor_parallel=4)
        for c in parallel_configs(GPT3_1T, 256, 4096, "tp1d", space):
            assert c.tensor_parallel <= 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            list(parallel_configs(GPT3_1T, 0, 4096, "tp1d"))
        with pytest.raises(ValueError):
            list(parallel_configs(GPT3_1T, 64, 0, "tp1d"))

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            list(parallel_configs(GPT3_1T, 64, 4096, "fsdp"))


def _config(n1=8, n2=1, np_=8, nd=4, strategy="tp1d"):
    return ParallelConfig(
        strategy=strategy, tensor_parallel_1=n1, tensor_parallel_2=n2,
        pipeline_parallel=np_, data_parallel=nd, microbatch_size=1,
    )


class TestGpuAssignments:
    def test_products_fill_the_domain(self):
        config = _config(n1=8, np_=8, nd=4)
        assignments = gpu_assignments(config, nvs_domain_size=8)
        assert assignments
        for a in assignments:
            assert a.total == 8
            assert a.is_valid_for(config, 8)

    def test_assignments_divide_group_sizes(self):
        config = _config(n1=4, np_=16, nd=4)
        for a in gpu_assignments(config, nvs_domain_size=8):
            assert config.tensor_parallel_1 % a.nvs_tp1 == 0
            assert config.pipeline_parallel % a.nvs_pp == 0
            assert config.data_parallel % a.nvs_dp == 0

    def test_small_cluster_cannot_exceed_gpu_count(self):
        config = _config(n1=2, np_=2, nd=2, n2=1)  # 8 GPUs total
        assignments = gpu_assignments(config, nvs_domain_size=64)
        assert max(a.total for a in assignments) <= 8

    def test_assignment_search_can_be_disabled(self):
        config = _config()
        space = SearchSpace(search_gpu_assignment=False)
        assignments = gpu_assignments(config, 8, space)
        assert len(assignments) == 1

    def test_memoized_result_equals_brute_force_enumeration(self):
        """The memo returns exactly what a fresh walk of the definition does:
        the largest domain share ``t <= min(nvs, GPUs)`` that some per-group
        factorization fills, each factor dividing its group, in
        lexicographic order."""

        def brute_force(sizes, nvs):
            effective = min(nvs, math.prod(sizes))
            for target in range(effective, 0, -1):
                if effective % target:
                    continue
                found = [
                    GpuAssignment(*factors)
                    for factors in itertools.product(
                        *([d for d in range(1, size + 1) if size % d == 0] for size in sizes)
                    )
                    if math.prod(factors) == target
                ]
                if found:
                    return found
            return [GpuAssignment()]

        shapes = list(itertools.product((1, 2, 4, 8), (1, 2), (1, 2, 16), (1, 4, 32)))
        clear_caches()
        for nvs in (1, 2, 4, 6, 8, 64):
            for tp1, tp2, pp, dp in shapes:
                config = _config(tp1, tp2, pp, dp, "tp2d" if tp2 > 1 else "tp1d")
                expected = brute_force((tp1, tp2, pp, dp), nvs)
                assert list(gpu_assignments(config, nvs)) == expected, (config, nvs)
                # The second call is a hit and returns the same immutable tuple.
                again = gpu_assignments(config, nvs)
                assert isinstance(again, tuple) and list(again) == expected
        info = config_space._assignments.cache_info()
        assert info.hits >= info.misses > 0
        clear_caches()
        assert config_space._assignments.cache_info().currsize == 0

    def test_default_assignment_prefers_tensor_parallel(self):
        config = _config(n1=8, np_=8, nd=4)
        a = default_assignment(config, nvs_domain_size=8)
        assert a.nvs_tp1 == 8
        assert a.total <= 8


class TestCountConfigurations:
    def test_counts_are_consistent(self):
        n_configs, n_total = count_configurations(GPT3_1T, 128, 4096, "tp1d", 8)
        assert n_configs > 0
        assert n_total >= n_configs

    def test_larger_nvs_domain_gives_more_candidates(self):
        _, total_small = count_configurations(GPT3_1T, 256, 4096, "tp1d", 4)
        _, total_large = count_configurations(GPT3_1T, 256, 4096, "tp1d", 8)
        assert total_large >= total_small
