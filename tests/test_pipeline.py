"""Pipeline parallelism: the 1F1B schedule model."""

import pytest

from repro.core.model import GPT3_1T
from repro.core.parallelism.base import ParallelConfig
from repro.core.parallelism.pipeline import (
    in_flight_microbatches,
    layers_per_stage,
    pipeline_bubble_time,
    pipeline_p2p_volume_bytes,
)


def tp1d_config(np_=8, nt=8, nd=1, bm=1):
    return ParallelConfig(
        strategy="tp1d", tensor_parallel_1=nt, tensor_parallel_2=1,
        pipeline_parallel=np_, data_parallel=nd, microbatch_size=bm,
    )


class TestBubbleModel:
    def test_formula(self):
        assert pipeline_bubble_time(8, 1.0, 2.0) == pytest.approx(7 * 3.0)

    def test_single_stage_has_no_bubble(self):
        assert pipeline_bubble_time(1, 1.0, 2.0) == 0.0

    def test_invalid_stages(self):
        with pytest.raises(ValueError):
            pipeline_bubble_time(0, 1.0, 1.0)


class TestInFlightMicrobatches:
    def test_bounded_by_stages(self):
        assert in_flight_microbatches(num_stages=8, num_microbatches=128) == 8

    def test_bounded_by_microbatches(self):
        assert in_flight_microbatches(num_stages=64, num_microbatches=4) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            in_flight_microbatches(0, 1)


class TestP2PVolume:
    def test_no_pipeline_means_no_p2p(self):
        assert pipeline_p2p_volume_bytes(GPT3_1T, tp1d_config(np_=1)) == 0.0

    def test_volume_formula(self):
        config = tp1d_config(np_=8, nt=8, bm=2)
        expected = 2 * (2 * GPT3_1T.seq_len * GPT3_1T.embed_dim / 8) * 2  # fwd + bwd
        assert pipeline_p2p_volume_bytes(GPT3_1T, config) == pytest.approx(expected)

    def test_one_direction_is_half(self):
        config = tp1d_config(np_=8, nt=8, bm=2)
        both = pipeline_p2p_volume_bytes(GPT3_1T, config, both_directions=True)
        one = pipeline_p2p_volume_bytes(GPT3_1T, config, both_directions=False)
        assert both == pytest.approx(2 * one)

    def test_volume_shrinks_with_tensor_parallel(self):
        small_tp = pipeline_p2p_volume_bytes(GPT3_1T, tp1d_config(np_=8, nt=2))
        large_tp = pipeline_p2p_volume_bytes(GPT3_1T, tp1d_config(np_=8, nt=32))
        assert large_tp < small_tp


class TestLayersPerStage:
    def test_even_split(self):
        assert layers_per_stage(GPT3_1T, tp1d_config(np_=64)) == 2
        assert layers_per_stage(GPT3_1T, tp1d_config(np_=128)) == 1

    def test_uneven_split_raises(self):
        with pytest.raises(ValueError):
            layers_per_stage(GPT3_1T, tp1d_config(np_=96))
