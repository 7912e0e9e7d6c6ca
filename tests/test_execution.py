"""Iteration-time assembly and breakdown (stage S2 end-to-end)."""

import pytest

from repro.core.execution import (
    DEFAULT_OPTIONS,
    IterationEstimate,
    ModelingOptions,
    TimeBreakdown,
    clear_caches,
    evaluate_config,
)
from repro.core.model import GPT3_1T
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.system import make_system


def tp1d_config(nt=8, np_=64, nd=32, bm=1):
    return ParallelConfig(
        strategy="tp1d", tensor_parallel_1=nt, tensor_parallel_2=1,
        pipeline_parallel=np_, data_parallel=nd, microbatch_size=bm,
    )


@pytest.fixture(scope="module")
def b200():
    return make_system("B200", 8)


@pytest.fixture(scope="module")
def paper_estimate(b200):
    return evaluate_config(
        GPT3_1T, b200, tp1d_config(), GpuAssignment(nvs_tp1=8), global_batch_size=4096
    )


class TestTimeBreakdown:
    def test_total_is_sum(self):
        bd = TimeBreakdown(compute=1, memory=2, tp_comm=3, pp_bubble=4, pp_comm=5, dp_comm=6)
        assert bd.total == 21
        assert sum(bd.as_dict().values()) == 21

    def test_fractions_sum_to_one(self):
        bd = TimeBreakdown(compute=1, memory=2, tp_comm=3, pp_bubble=4)
        assert sum(bd.fractions().values()) == pytest.approx(1.0)

    def test_empty_breakdown(self):
        assert TimeBreakdown().total == 0.0
        assert all(v == 0.0 for v in TimeBreakdown().fractions().values())


class TestEvaluateConfig:
    def test_paper_config_d_is_a_few_seconds(self, paper_estimate):
        # Fig. 1 Config D: roughly 2-4 s per iteration on 16384 B200 GPUs.
        assert 1.0 < paper_estimate.total_time < 6.0
        assert paper_estimate.feasible

    def test_compute_dominates_for_gpt_at_scale(self, paper_estimate):
        frac = paper_estimate.breakdown.fractions()
        assert frac["compute"] > 0.4
        assert frac["compute"] > frac["tp_comm"]
        assert frac["pp_bubble"] > 0.15

    def test_breakdown_sums_to_total(self, paper_estimate):
        assert paper_estimate.total_time == pytest.approx(
            sum(paper_estimate.breakdown.as_dict().values())
        )

    def test_microbatch_count(self, paper_estimate):
        assert paper_estimate.num_microbatches == 4096 // 32  # b / (nd * bm)

    def test_summary_keys(self, paper_estimate):
        summary = paper_estimate.summary()
        assert summary["feasible"] is True
        assert "t_compute" in summary and "t_pp_bubble" in summary

    def test_invalid_divisibility_raises(self, b200):
        with pytest.raises(ValueError):
            evaluate_config(
                GPT3_1T, b200, tp1d_config(nt=64), GpuAssignment(), global_batch_size=4096
            )

    def test_invalid_assignment_raises(self, b200):
        with pytest.raises(ValueError):
            evaluate_config(
                GPT3_1T, b200, tp1d_config(), GpuAssignment(nvs_tp1=16),
                global_batch_size=4096,
            )

    def test_global_batch_must_be_divisible(self, b200):
        with pytest.raises(ValueError):
            evaluate_config(
                GPT3_1T, b200, tp1d_config(nd=3, nt=8, np_=64),
                GpuAssignment(), global_batch_size=4096,
            )

    def test_infeasible_config_flagged_not_raised(self, b200):
        # Tiny TP with one pipeline stage cannot hold 1T parameters.
        config = tp1d_config(nt=1, np_=1, nd=1, bm=1)
        est = evaluate_config(GPT3_1T, b200, config, GpuAssignment(), global_batch_size=4096)
        assert not est.feasible
        assert est.infeasible_reason is not None


class TestAssignmentEffects:
    def test_tp_on_nvs_is_faster_than_tp_off_nvs(self, b200):
        config = tp1d_config()
        on_nvs = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096
        )
        off_nvs = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_dp=8), global_batch_size=4096
        )
        assert on_nvs.breakdown.tp_comm < off_nvs.breakdown.tp_comm
        assert on_nvs.total_time < off_nvs.total_time

    def test_memory_is_independent_of_assignment(self, b200):
        config = tp1d_config()
        a = evaluate_config(GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096)
        b = evaluate_config(GPT3_1T, b200, config, GpuAssignment(nvs_dp=8), global_batch_size=4096)
        assert a.memory.total_bytes == pytest.approx(b.memory.total_bytes)


class TestModelingOptions:
    def test_zero_stage_one_is_the_default(self):
        options = ModelingOptions(zero_stage=1)
        assert options == DEFAULT_OPTIONS
        assert hash(options) == hash(DEFAULT_OPTIONS)

    @pytest.mark.parametrize("stage", [None, 4])
    def test_unknown_zero_stage_rejected_at_construction(self, stage):
        with pytest.raises(ValueError, match="zero_stage"):
            ModelingOptions(zero_stage=stage)

    def test_disabling_dp_overlap_exposes_more_dp_time(self, b200):
        config = tp1d_config()
        overlapped = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096,
            options=ModelingOptions(overlap_dp=True),
        )
        exposed = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096,
            options=ModelingOptions(overlap_dp=False),
        )
        assert exposed.breakdown.dp_comm >= overlapped.breakdown.dp_comm
        assert exposed.total_time >= overlapped.total_time

    def test_disabling_flash_attention_increases_memory(self, b200):
        config = tp1d_config()
        flash = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096,
            options=ModelingOptions(flash_attention=True),
        )
        plain = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096,
            options=ModelingOptions(flash_attention=False),
        )
        assert plain.memory.total_bytes > flash.memory.total_bytes

    def test_overlapping_pp_removes_pp_comm(self, b200):
        config = tp1d_config()
        exposed = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096,
            options=ModelingOptions(overlap_pp=False),
        )
        hidden = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096,
            options=ModelingOptions(overlap_pp=True),
        )
        assert hidden.breakdown.pp_comm == 0.0
        assert exposed.breakdown.pp_comm > 0.0

    def test_cache_clearing_is_safe(self, b200):
        config = tp1d_config()
        before = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096
        )
        clear_caches()
        after = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096
        )
        assert before.total_time == pytest.approx(after.total_time)


class TestScalingBehaviour:
    def test_more_tensor_parallel_reduces_memory_but_adds_comm(self, b200):
        small_tp = evaluate_config(
            GPT3_1T, b200, tp1d_config(nt=4, nd=64), GpuAssignment(nvs_tp1=4),
            global_batch_size=4096,
        )
        large_tp = evaluate_config(
            GPT3_1T, b200, tp1d_config(nt=32, nd=8), GpuAssignment(nvs_tp1=8),
            global_batch_size=4096,
        )
        assert large_tp.memory.total_bytes < small_tp.memory.total_bytes
        assert large_tp.breakdown.tp_comm > small_tp.breakdown.tp_comm

    def test_fewer_microbatches_increase_bubble_fraction(self, b200):
        many_mb = evaluate_config(
            GPT3_1T, b200, tp1d_config(nd=8), GpuAssignment(nvs_tp1=8), global_batch_size=4096
        )
        few_mb = evaluate_config(
            GPT3_1T, b200, tp1d_config(nd=128), GpuAssignment(nvs_tp1=8), global_batch_size=4096
        )
        assert (
            few_mb.breakdown.fractions()["pp_bubble"]
            > many_mb.breakdown.fractions()["pp_bubble"]
        )
