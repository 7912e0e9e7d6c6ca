"""Parallelization strategies of the performance model.

Each strategy module translates one transformer block into the set of
device-local compute operations and parallel-group collectives it performs
under that partitioning, following the paper's Tables I (1D tensor
parallelism), II (2D tensor parallelism) and A2 (2D tensor parallelism with
SUMMA matrix multiplies), plus the pipeline-parallel (1F1B) and data-parallel
(ZeRO optimizer sharding) components.
"""

from repro.core.parallelism.base import (
    GpuAssignment,
    LayerWorkload,
    ParallelConfig,
    SummaMatmul,
    TensorParallelStrategy,
    get_strategy,
    STRATEGY_REGISTRY,
)
from repro.core.parallelism.tp1d import TensorParallel1D
from repro.core.parallelism.tp2d import TensorParallel2D
from repro.core.parallelism.summa import TensorParallelSUMMA
from repro.core.parallelism.pipeline import (
    pipeline_bubble_time,
    pipeline_p2p_volume_bytes,
    in_flight_microbatches,
)
from repro.core.parallelism.data_parallel import (
    DataParallelPlan,
    data_parallel_plan,
)

__all__ = [
    "DataParallelPlan",
    "GpuAssignment",
    "LayerWorkload",
    "ParallelConfig",
    "STRATEGY_REGISTRY",
    "SummaMatmul",
    "TensorParallel1D",
    "TensorParallel2D",
    "TensorParallelSUMMA",
    "TensorParallelStrategy",
    "data_parallel_plan",
    "get_strategy",
    "in_flight_microbatches",
    "pipeline_bubble_time",
    "pipeline_p2p_volume_bytes",
]
