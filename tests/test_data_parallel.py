"""Data parallelism and ZeRO optimizer-state sharding."""

import pytest

from repro.core.parallelism.base import GROUP_DP, GROUP_DP_TP2, ParallelConfig
from repro.core.parallelism.data_parallel import (
    GRAD_BYTES_PER_PARAM,
    OPTIMIZER_BYTES_PER_PARAM,
    WEIGHT_BYTES_PER_PARAM,
    data_parallel_plan,
)


def make_config(nd=8, n2=1):
    return ParallelConfig(
        strategy="tp2d" if n2 > 1 else "tp1d",
        tensor_parallel_1=4,
        tensor_parallel_2=n2,
        pipeline_parallel=2,
        data_parallel=nd,
        microbatch_size=1,
    )


class TestOptimizerMemory:
    def test_mixed_precision_constants(self):
        assert WEIGHT_BYTES_PER_PARAM == 2.0
        assert GRAD_BYTES_PER_PARAM == 2.0
        assert OPTIMIZER_BYTES_PER_PARAM == 12.0


class TestDataParallelPlan:
    def test_volumes_are_two_bytes_per_param(self):
        plan = data_parallel_plan(1e9, make_config(nd=8))
        assert plan.grad_reduce_scatter_bytes == pytest.approx(2e9)
        assert plan.weight_all_gather_bytes == pytest.approx(2e9)
        assert plan.total_bytes == pytest.approx(4e9)
        assert plan.sync_group == GROUP_DP

    def test_no_dp_means_no_communication(self):
        plan = data_parallel_plan(1e9, make_config(nd=1))
        assert plan.total_bytes == 0.0

    def test_2d_tp_group_includes_n2(self):
        config = make_config(nd=4, n2=2)
        plan = data_parallel_plan(1e9, config, grad_sync_group=GROUP_DP_TP2)
        assert plan.sync_group == GROUP_DP_TP2
        assert config.group_size(GROUP_DP_TP2) == 8
        assert plan.total_bytes > 0

    def test_n2_only_still_synchronises(self):
        # nd = 1 but weights shared over n2 = 2 still need a reduction.
        config = make_config(nd=1, n2=2)
        plan = data_parallel_plan(1e9, config, grad_sync_group=GROUP_DP_TP2)
        assert plan.total_bytes > 0

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            data_parallel_plan(-1.0, make_config())

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            data_parallel_plan(1.0, make_config(), grad_sync_group="pp")
