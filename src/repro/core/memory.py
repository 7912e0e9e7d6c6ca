"""HBM memory model (stage S2, "Memory Used on HBM").

Under mixed-precision training each GPU holds:

* FP16 weights and FP16 gradients — 2 bytes per parameter each, where the
  parameter count per GPU follows from the tensor-parallel sharding and the
  number of layers per pipeline stage; under ZeRO-3 the weights (and under
  ZeRO-2/3 the gradients) additionally shard across the data-parallel group;
* the Adam optimizer states — 12 bytes per parameter, sharded across the
  data-parallel group when the distributed (ZeRO-1+) optimizer is used;
* for MoE layers, the expert weights/grads/optimizer states, which replicate
  only ``nd / ep`` times (the expert-parallel degree ``ep`` shards the
  experts), so their ZeRO divisors use that smaller group;
* the intermediate activations retained for the backward pass — per layer
  and per microbatch as reported by the tensor-parallel strategy (with
  FlashAttention the ``l x l`` attention matrix is recomputed instead of
  stored), multiplied by the number of in-flight microbatches of the
  configuration's pipeline schedule (``min(m, np)`` under 1F1B, all ``m``
  under GPipe — see :mod:`repro.core.schedules`);
* small pipeline input/output buffers for the activations in flight at the
  stage boundaries.

The configuration search declares a configuration *feasible* only if this
total fits in the GPU's HBM capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import TransformerConfig
from repro.core.parallelism.base import LayerWorkload, ParallelConfig
from repro.core.parallelism.data_parallel import (
    GRAD_BYTES_PER_PARAM,
    OPTIMIZER_BYTES_PER_PARAM,
    WEIGHT_BYTES_PER_PARAM,
    zero_shard_divisors,
)
from repro.core.parallelism.pipeline import (
    layers_per_stage,
    pipeline_p2p_volume_bytes,
)
from repro.core.schedules import get_schedule
from repro.utils.units import GB


@dataclass(frozen=True)
class MemoryEstimate:
    """Per-GPU HBM footprint of one configuration (all values in bytes)."""

    weight_bytes: float
    grad_bytes: float
    optimizer_bytes: float
    activation_bytes: float
    pipeline_buffer_bytes: float

    @property
    def total_bytes(self) -> float:
        """Total resident bytes per GPU."""
        return (
            self.weight_bytes
            + self.grad_bytes
            + self.optimizer_bytes
            + self.activation_bytes
            + self.pipeline_buffer_bytes
        )

    @property
    def total_gb(self) -> float:
        """Total footprint in (decimal) gigabytes, as plotted by the paper."""
        return self.total_bytes / GB

    def fits(self, hbm_capacity_bytes: float) -> bool:
        """True when the footprint fits in the given HBM capacity."""
        return self.total_bytes <= hbm_capacity_bytes

    def breakdown(self) -> dict:
        """Dictionary view used by reports."""
        return {
            "weights": self.weight_bytes,
            "grads": self.grad_bytes,
            "optimizer": self.optimizer_bytes,
            "activations": self.activation_bytes,
            "pipeline_buffers": self.pipeline_buffer_bytes,
        }


def estimate_memory(
    model: TransformerConfig,
    config: ParallelConfig,
    workload: LayerWorkload,
    num_microbatches: int,
    *,
    activation_checkpointing: bool = False,
    zero_stage: int = 1,
) -> MemoryEstimate:
    """Estimate the per-GPU HBM footprint of ``config``.

    ``workload`` must be the per-layer workload produced by the strategy for
    the same ``config`` (the activation and parameter shares are read from
    it).  With ``activation_checkpointing`` only each block's input is
    retained between the forward and backward pass (the block is recomputed
    during backward), plus one block's worth of live intermediates.

    ``zero_stage`` (0-3) controls how much per-parameter state shards across
    the data-parallel group; the default, stage 1, is the paper's distributed
    optimizer and stage 0 shards nothing.  Any other value raises
    ``ValueError``.  Expert (MoE) parameters shard over the smaller
    ``nd / ep`` expert-replication group.
    """
    stage_layers = layers_per_stage(model, config)
    params_per_gpu = workload.params_per_gpu * stage_layers
    expert_params = workload.expert_params_per_gpu * stage_layers

    w_div, g_div, o_div = zero_shard_divisors(zero_stage, config.data_parallel)
    expert_group = max(1, config.data_parallel // config.expert_parallel)
    we_div, ge_div, oe_div = zero_shard_divisors(zero_stage, expert_group)

    weight_bytes = (
        (WEIGHT_BYTES_PER_PARAM / w_div) * params_per_gpu
        + (WEIGHT_BYTES_PER_PARAM / we_div) * expert_params
    )
    grad_bytes = (
        (GRAD_BYTES_PER_PARAM / g_div) * params_per_gpu
        + (GRAD_BYTES_PER_PARAM / ge_div) * expert_params
    )
    optimizer_bytes = (
        (OPTIMIZER_BYTES_PER_PARAM / o_div) * params_per_gpu
        + (OPTIMIZER_BYTES_PER_PARAM / oe_div) * expert_params
    )

    schedule = get_schedule(config.schedule)
    in_flight = schedule.in_flight_microbatches(
        config.pipeline_parallel, num_microbatches, config.virtual_stages
    )
    if activation_checkpointing:
        retained = workload.block_input_elements * stage_layers * in_flight
        # One block's intermediates are live while it is being recomputed.
        working_set = workload.activation_elements
        activation_bytes = (retained + working_set) * model.dtype_bytes
    else:
        activation_bytes = (
            workload.activation_elements * model.dtype_bytes * stage_layers * in_flight
        )

    pipeline_buffer_bytes = (
        pipeline_p2p_volume_bytes(model, config, both_directions=False)
        * schedule.p2p_volume_factor(config.virtual_stages)
        * in_flight
    )

    return MemoryEstimate(
        weight_bytes=weight_bytes,
        grad_bytes=grad_bytes,
        optimizer_bytes=optimizer_bytes,
        activation_bytes=activation_bytes,
        pipeline_buffer_bytes=pipeline_buffer_bytes,
    )
