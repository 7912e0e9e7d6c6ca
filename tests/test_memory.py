"""HBM memory model (stage S2, memory used on HBM)."""

import pytest

from repro.core.execution import ModelingOptions, estimate_config_memory
from repro.core.memory import estimate_memory
from repro.core.model import GPT3_1T, VIT_LONG_SEQ
from repro.core.parallelism.base import ParallelConfig, get_strategy
from repro.core.system import make_gpu


def tp1d_config(nt=8, np_=64, nd=32, bm=1):
    return ParallelConfig(
        strategy="tp1d", tensor_parallel_1=nt, tensor_parallel_2=1,
        pipeline_parallel=np_, data_parallel=nd, microbatch_size=bm,
    )


def workload_for(config, model=GPT3_1T, **kwargs):
    return get_strategy(config.strategy).layer_workload(model, config, **kwargs)


class TestMemoryEstimate:
    def test_total_is_sum_of_components(self):
        config = tp1d_config()
        mem = estimate_memory(GPT3_1T, config, workload_for(config), num_microbatches=128)
        assert mem.total_bytes == pytest.approx(
            mem.weight_bytes
            + mem.grad_bytes
            + mem.optimizer_bytes
            + mem.activation_bytes
            + mem.pipeline_buffer_bytes
        )
        assert set(mem.breakdown()) == {
            "weights", "grads", "optimizer", "activations", "pipeline_buffers",
        }

    def test_weights_equal_grads_in_fp16(self):
        config = tp1d_config()
        mem = estimate_memory(GPT3_1T, config, workload_for(config), num_microbatches=128)
        assert mem.weight_bytes == pytest.approx(mem.grad_bytes)

    def test_paper_fig1_config_d_fits_b200(self):
        # Fig. 1 Config D uses roughly 40-60 GB on a 192 GB B200.
        config = tp1d_config(nt=8, np_=64, nd=32)
        mem = estimate_memory(GPT3_1T, config, workload_for(config), num_microbatches=128)
        assert 20 < mem.total_gb < 100
        assert mem.fits(make_gpu("B200").hbm_capacity)

    def test_zero_sharding_reduces_optimizer_memory(self):
        config = tp1d_config(nd=32)
        w = workload_for(config)
        sharded = estimate_memory(GPT3_1T, config, w, 128, zero_stage=1)
        unsharded = estimate_memory(GPT3_1T, config, w, 128, zero_stage=0)
        assert sharded.optimizer_bytes == pytest.approx(unsharded.optimizer_bytes / 32)
        assert sharded.total_bytes < unsharded.total_bytes

    def test_1f1b_retention_bounds_activations(self):
        # With np = 64 stages and m = 128 microbatches, only 64 are retained.
        config = tp1d_config(np_=64)
        w = workload_for(config)
        mem_few = estimate_memory(GPT3_1T, config, w, num_microbatches=64)
        mem_many = estimate_memory(GPT3_1T, config, w, num_microbatches=128)
        assert mem_few.activation_bytes == pytest.approx(mem_many.activation_bytes)

    def test_activations_scale_with_microbatch_size(self):
        c1 = tp1d_config(bm=1, nd=32)
        c2 = tp1d_config(bm=2, nd=32)
        m1 = estimate_memory(GPT3_1T, c1, workload_for(c1), 128)
        m2 = estimate_memory(GPT3_1T, c2, workload_for(c2), 64)
        assert m2.activation_bytes == pytest.approx(2 * m1.activation_bytes, rel=0.01)

    def test_more_pipeline_stages_reduce_weights_per_gpu(self):
        c64 = tp1d_config(np_=64)
        c128 = tp1d_config(np_=128)
        m64 = estimate_memory(GPT3_1T, c64, workload_for(c64), 128)
        m128 = estimate_memory(GPT3_1T, c128, workload_for(c128), 128)
        assert m128.weight_bytes == pytest.approx(m64.weight_bytes / 2, rel=0.01)


class TestPaperMemoryClaims:
    def test_vit_1d_tp_needs_enormous_memory(self):
        """Paper: 1D TP is infeasible for the ViT due to replicated activations."""
        config = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=16, tensor_parallel_2=1,
            pipeline_parallel=1, data_parallel=1, microbatch_size=1,
        )
        mem = estimate_memory(
            VIT_LONG_SEQ, config, workload_for(config, VIT_LONG_SEQ), num_microbatches=1
        )
        b200 = make_gpu("B200")
        assert not mem.fits(b200.hbm_capacity)

    def test_vit_2d_tp_fits_where_1d_does_not(self):
        config = ParallelConfig(
            strategy="tp2d", tensor_parallel_1=8, tensor_parallel_2=4,
            pipeline_parallel=2, data_parallel=1, microbatch_size=1,
        )
        mem = estimate_memory(
            VIT_LONG_SEQ, config, workload_for(config, VIT_LONG_SEQ), num_microbatches=4
        )
        assert mem.fits(make_gpu("B200").hbm_capacity)

    def test_flash_attention_saves_activation_memory(self):
        config = tp1d_config(nt=8, np_=64, nd=32)
        w_flash = workload_for(config, flash_attention=True)
        w_plain = workload_for(config, flash_attention=False)
        m_flash = estimate_memory(GPT3_1T, config, w_flash, 128)
        m_plain = estimate_memory(GPT3_1T, config, w_plain, 128)
        assert m_flash.activation_bytes < m_plain.activation_bytes


class TestEstimateConfigMemory:
    def test_matches_direct_computation(self):
        config = tp1d_config()
        direct = estimate_memory(GPT3_1T, config, workload_for(config), 128)
        via_helper = estimate_config_memory(GPT3_1T, config, global_batch_size=4096)
        assert via_helper.total_bytes == pytest.approx(direct.total_bytes)

    def test_respects_options(self):
        config = tp1d_config()
        zero = estimate_config_memory(
            GPT3_1T, config, global_batch_size=4096,
            options=ModelingOptions(zero_stage=1),
        )
        full = estimate_config_memory(
            GPT3_1T, config, global_batch_size=4096,
            options=ModelingOptions(zero_stage=0),
        )
        assert zero.total_bytes < full.total_bytes
