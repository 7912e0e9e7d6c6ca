"""Pipeline-parallel primitives shared by every schedule.

The model depth ``d`` is split into ``np`` stages of ``d / np`` layers; each
stage boundary exchanges the activation shard ``(b_m, l, e) / n_t`` per
microbatch (point-to-point), plus the gradient of the same tensor on the way
back.  This module holds the *schedule-independent* quantities — the layer
split, the boundary volume, and the classic ``(np - 1) * (t_f + t_b)``
fill/drain ramp that both 1F1B and GPipe pay.

Which ramp applies, how many microbatches are in flight, and how often a
microbatch crosses this GPU's boundaries are *schedule* decisions; they live
in the pluggable :mod:`repro.core.schedules` registry (1F1B — the paper's
default — GPipe, and interleaved-1F1B with a virtual-stage degree).
"""

from __future__ import annotations

from repro.core.model import TransformerConfig
from repro.core.parallelism.base import ParallelConfig


def pipeline_bubble_time(num_stages: int, forward_time: float, backward_time: float) -> float:
    """Idle time of the 1F1B schedule: ``(np - 1) * (tf + tb)``."""
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    return (num_stages - 1) * (forward_time + backward_time)


def in_flight_microbatches(num_stages: int, num_microbatches: int) -> int:
    """Number of microbatches whose activations are retained under 1F1B."""
    if num_stages < 1 or num_microbatches < 1:
        raise ValueError("num_stages and num_microbatches must be >= 1")
    return min(num_stages, num_microbatches)


def pipeline_p2p_volume_bytes(
    model: TransformerConfig, config: ParallelConfig, *, both_directions: bool = True
) -> float:
    """Per-microbatch point-to-point volume at one stage boundary (bytes).

    The tensor crossing the boundary is the layer output shard
    ``(b_m, l, e) / n_t``.  With ``both_directions`` the activation gradient
    flowing backwards is counted as well.
    """
    if config.pipeline_parallel <= 1:
        return 0.0
    elements = (
        config.microbatch_size
        * model.seq_len
        * model.embed_dim
        / config.tensor_parallel
    )
    volume = elements * model.dtype_bytes
    return 2.0 * volume if both_directions else volume


def layers_per_stage(model: TransformerConfig, config: ParallelConfig) -> int:
    """Number of transformer blocks per pipeline stage."""
    if model.depth % config.pipeline_parallel != 0:
        raise ValueError(
            f"pipeline_parallel ({config.pipeline_parallel}) must divide depth ({model.depth})"
        )
    return model.depth // config.pipeline_parallel
