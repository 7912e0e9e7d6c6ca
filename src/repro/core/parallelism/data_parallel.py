"""Data parallelism and ZeRO-style state partitioning (stages 0-3).

The global batch is split across ``nd`` data-parallel replicas.  Under
mixed-precision training each parameter carries 2 bytes of FP16 weight,
2 bytes of FP16 gradient and 12 bytes of Adam optimizer state (FP32 master
weight + momentum + variance).  The ZeRO stages shard progressively more of
that state across the DP group:

* **stage 0** — nothing is sharded; every replica holds all 16 bytes/param;
* **stage 1** — the optimizer states shard (``12/nd``); this is the paper's
  "distributed optimizer" default;
* **stage 2** — gradients shard as well (``2/nd``);
* **stage 3** — parameters shard too (``2/nd``), at the cost of re-gathering
  the FP16 weights both before the forward and before the backward pass.

Gradient synchronisation is a ReduceScatter of the FP16 gradients followed
(after the optimizer step) by an AllGather of the updated FP16 weights.  The
paper assumes gradient accumulation across microbatches (no per-microbatch
communication), the ReduceScatter overlapped with the backward pass of the
last microbatch, and the AllGather overlapped with the forward pass of the
first microbatch after the pipeline flush.  Under ZeRO-3 the weight
AllGather happens twice per iteration (forward and backward re-gather).
For 2D tensor parallelism the weight gradients additionally reduce over the
``n2`` group, scheduled with the same collectives, so the group becomes
``nd x n2``; expert (MoE) weights are replicated only ``nd / ep`` times, so
their collectives run over the corresponding ``<group>/ep`` group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.parallelism.base import (
    GROUP_DP,
    GROUP_DP_EP,
    GROUP_DP_TP2,
    ParallelConfig,
)


#: Bytes per parameter for FP16 weights and FP16 gradients.
WEIGHT_BYTES_PER_PARAM = 2.0
GRAD_BYTES_PER_PARAM = 2.0
#: Bytes per parameter of the mixed-precision Adam optimizer states
#: (FP32 master weights + FP32 momentum + FP32 variance).
OPTIMIZER_BYTES_PER_PARAM = 12.0

#: ZeRO stages understood by the memory and communication models.
ZERO_STAGES = (0, 1, 2, 3)


def zero_shard_divisors(zero_stage: int, group_size: int) -> Tuple[int, int, int]:
    """Sharding divisors ``(weights, grads, optimizer)`` for one ZeRO stage.

    ``group_size`` is the replication count of the parameters (the DP degree
    for dense weights, ``nd / ep`` for expert weights).
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if zero_stage not in ZERO_STAGES:
        raise ValueError(f"zero_stage must be one of {ZERO_STAGES}, got {zero_stage!r}")
    return (
        group_size if zero_stage >= 3 else 1,
        group_size if zero_stage >= 2 else 1,
        group_size if zero_stage >= 1 else 1,
    )


@dataclass(frozen=True)
class DataParallelPlan:
    """Gradient/weight synchronisation plan for one training iteration."""

    #: Parameters held per GPU whose gradients must be synchronised.
    params_per_gpu: float
    #: Group performing the gradient ReduceScatter / weight AllGather.
    sync_group: str
    #: Per-GPU ReduceScatter volume (bytes) of the FP16 gradients.
    grad_reduce_scatter_bytes: float
    #: Per-GPU AllGather volume (bytes) of the updated FP16 weights.
    weight_all_gather_bytes: float
    #: Whether the collectives are (attempted to be) overlapped with compute.
    overlap_with_compute: bool = True

    @property
    def total_bytes(self) -> float:
        """Total per-GPU DP communication volume per iteration."""
        return self.grad_reduce_scatter_bytes + self.weight_all_gather_bytes


#: Gradient-sync groups a strategy may declare (dense and expert variants).
_SUPPORTED_SYNC_GROUPS = (
    GROUP_DP,
    GROUP_DP_TP2,
    GROUP_DP_EP,
    GROUP_DP_TP2 + "/ep",
)


def data_parallel_plan(
    params_per_gpu: float,
    config: ParallelConfig,
    *,
    grad_sync_group: str = GROUP_DP,
    overlap_with_compute: bool = True,
    zero_stage: int = 1,
) -> DataParallelPlan:
    """Build the DP synchronisation plan for ``params_per_gpu`` parameters.

    ``grad_sync_group`` comes from the tensor-parallel strategy: plain DP for
    1D TP and SUMMA, ``nd x n2`` for 2D TP (whose weights are replicated
    across ``n2``), and the ``/ep``-shrunk variants for MoE expert weights.

    ``zero_stage`` (default 1, the paper's distributed optimizer) only
    changes the communication volume at stage 3, where the sharded FP16
    weights must be re-gathered before the forward *and* before the backward
    pass (2x the weight AllGather volume).  Stages 0-2 move the same bytes
    as stage 1: one gradient ReduceScatter plus one weight AllGather, which
    also equals the classic stage-0 gradient AllReduce volume.  The stage is
    read as given; :class:`~repro.core.execution.ModelingOptions` validates
    it.
    """
    if params_per_gpu < 0:
        raise ValueError("params_per_gpu must be non-negative")
    if grad_sync_group not in _SUPPORTED_SYNC_GROUPS:
        raise ValueError(f"unsupported gradient sync group {grad_sync_group!r}")

    group_size = config.group_size(grad_sync_group)
    if group_size <= 1:
        # Nothing to synchronise: a single replica owns the weights (and the
        # paper's model has no DP communication in that case).
        return DataParallelPlan(
            params_per_gpu=params_per_gpu,
            sync_group=grad_sync_group,
            grad_reduce_scatter_bytes=0.0,
            weight_all_gather_bytes=0.0,
            overlap_with_compute=overlap_with_compute,
        )

    grad_bytes = GRAD_BYTES_PER_PARAM * params_per_gpu
    weight_bytes = WEIGHT_BYTES_PER_PARAM * params_per_gpu
    if zero_stage >= 3:
        weight_bytes = 2.0 * weight_bytes
    return DataParallelPlan(
        params_per_gpu=params_per_gpu,
        sync_group=grad_sync_group,
        grad_reduce_scatter_bytes=grad_bytes,
        weight_all_gather_bytes=weight_bytes,
        overlap_with_compute=overlap_with_compute,
    )
