"""Core analytical performance model.

This subpackage implements the paper's three modeling stages:

* **S1 (counting)** — :mod:`repro.core.operations` and
  :mod:`repro.core.parallelism` count FLOPs, HBM bytes, communication volume
  and resident memory of every transformer operation under every
  parallelization strategy;
* **S2 (timing)** — :mod:`repro.core.roofline`, :mod:`repro.core.collectives`
  and :mod:`repro.core.execution` convert those counts into per-iteration
  times on a given system (:mod:`repro.core.system`);
* **S3 (search)** — :mod:`repro.core.config_space` and
  :mod:`repro.core.search` enumerate and minimise over all admissible
  configurations; :mod:`repro.core.training` converts iteration times into
  end-to-end training days.
"""

from repro.core.model import (
    GPT3_1T,
    GPT3_175B,
    MODEL_CATALOG,
    TransformerConfig,
    VIT_32K,
    VIT_LONG_SEQ,
    get_model,
)
from repro.core.workloads import (
    MOE_1T,
    MOE_MIXTRAL,
    WORKLOAD_REGISTRY,
    WorkloadSpec,
    available_workloads,
    get_workload,
    register_workload,
)
from repro.core.system import (
    GPU_GENERATIONS,
    GpuSpec,
    NVS_DOMAIN_SIZES,
    NetworkSpec,
    SystemSpec,
    make_gpu,
    make_network,
    make_perlmutter,
    make_system,
    system_catalog,
)
from repro.core.execution import (
    DEFAULT_OPTIONS,
    IterationEstimate,
    ModelingOptions,
    TimeBreakdown,
    build_execution_plan,
    evaluate_config,
)
from repro.core.plan import CostPhase, ExecutionPlan
from repro.core.schedules import (
    PipelineSchedule,
    available_schedules,
    get_schedule,
    register_schedule,
)
from repro.core.inference import (
    SERVING_OBJECTIVES,
    ServingEstimate,
    ServingSearchResult,
    ServingSpec,
    evaluate_serving_config,
    find_serving_config,
    kv_cache_bytes_per_sequence,
)
from repro.core.memory import MemoryEstimate, estimate_memory
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.config_space import SearchSpace, parallel_configs, gpu_assignments
from repro.core.objectives import (
    DEFAULT_PARETO_OBJECTIVES,
    Objective,
    ObjectiveContext,
    get_objective,
    register_objective,
    registered_objectives,
    resolve_objectives,
)
from repro.core.search import (
    ParetoPoint,
    ParetoResult,
    SearchResult,
    best_assignment_for,
    find_optimal_config,
    find_pareto_configs,
)
from repro.core.training import (
    TrainingRegime,
    default_regime,
    gpt_pretraining_regime,
    training_days,
    vit_era5_regime,
)

__all__ = [
    "DEFAULT_OPTIONS",
    "GPT3_175B",
    "GPT3_1T",
    "MOE_1T",
    "MOE_MIXTRAL",
    "WORKLOAD_REGISTRY",
    "WorkloadSpec",
    "available_workloads",
    "get_workload",
    "register_workload",
    "GPU_GENERATIONS",
    "GpuAssignment",
    "GpuSpec",
    "IterationEstimate",
    "MODEL_CATALOG",
    "MemoryEstimate",
    "ModelingOptions",
    "DEFAULT_PARETO_OBJECTIVES",
    "NVS_DOMAIN_SIZES",
    "NetworkSpec",
    "Objective",
    "ObjectiveContext",
    "ParallelConfig",
    "ParetoPoint",
    "ParetoResult",
    "SERVING_OBJECTIVES",
    "SearchResult",
    "SearchSpace",
    "ServingEstimate",
    "ServingSearchResult",
    "ServingSpec",
    "SystemSpec",
    "TimeBreakdown",
    "TrainingRegime",
    "TransformerConfig",
    "VIT_32K",
    "VIT_LONG_SEQ",
    "CostPhase",
    "ExecutionPlan",
    "PipelineSchedule",
    "available_schedules",
    "best_assignment_for",
    "build_execution_plan",
    "default_regime",
    "estimate_memory",
    "evaluate_config",
    "evaluate_serving_config",
    "find_serving_config",
    "kv_cache_bytes_per_sequence",
    "get_schedule",
    "register_schedule",
    "find_optimal_config",
    "find_pareto_configs",
    "get_model",
    "get_objective",
    "register_objective",
    "registered_objectives",
    "resolve_objectives",
    "gpt_pretraining_regime",
    "gpu_assignments",
    "make_gpu",
    "make_network",
    "make_perlmutter",
    "make_system",
    "parallel_configs",
    "system_catalog",
    "training_days",
    "vit_era5_regime",
]
