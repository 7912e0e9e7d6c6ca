"""Iteration-time assembly: build a cost plan, then reduce it to a time.

This module combines every other piece of the performance model:

* the tensor-parallel strategy's per-layer workload (compute ops, exposed
  collectives, SUMMA matmuls, activation/parameter shares);
* the roofline compute-time model;
* the dual-network collective-time model with the configuration's NVSwitch
  assignment;
* the configuration's pipeline schedule (1F1B by default; GPipe and
  interleaved-1F1B through :mod:`repro.core.schedules`);
* the data-parallel gradient synchronisation with its overlap rules;
* the HBM memory model for the feasibility check.

Rather than computing the iteration time inline, :func:`evaluate_config`
*builds* a phase-level :class:`~repro.core.plan.ExecutionPlan` — the cost IR
of :mod:`repro.core.plan` — and *reduces* it.  The result is an
:class:`IterationEstimate` with the total time of one training iteration
(one forward+backward pass over the global batch), a breakdown into the same
categories the paper's figures use (Compute, Memory, TP Comm, PP Bubble,
PP Comm, DP Comm), the per-GPU memory footprint, and the plan itself for
phase-level introspection (``repro-perf search --explain-plan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core import config_space
from repro.core.backends import DEFAULT_BACKEND, CostPricer, get_backend
from repro.core.collectives import GroupPlacement
from repro.core.memory import MemoryEstimate, estimate_memory
from repro.core.model import TransformerConfig
from repro.core.operations import CommOp
from repro.core.parallelism.base import (
    GROUP_EP,
    GROUP_PP,
    GpuAssignment,
    LayerWorkload,
    ParallelConfig,
    SummaMatmul,
    get_strategy,
)
from repro.core.parallelism.data_parallel import ZERO_STAGES, data_parallel_plan
from repro.core.parallelism.pipeline import layers_per_stage, pipeline_p2p_volume_bytes
from repro.core.plan import (
    CATEGORY_COMPUTE,
    CATEGORY_DP_COMM,
    CATEGORY_MEMORY,
    CATEGORY_PP_BUBBLE,
    CATEGORY_PP_COMM,
    CATEGORY_STATE,
    CATEGORY_TP_COMM,
    CostPhase,
    ExecutionPlan,
    TimeBreakdown,
)
from repro.core.roofline import ops_time
from repro.core.schedules import get_schedule
from repro.core.system import GpuSpec, SystemSpec
from repro.utils import factorization

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_OPTIONS",
    "ModelingOptions",
    "TimeBreakdown",
    "IterationEstimate",
    "evaluate_config",
    "build_execution_plan",
    "config_time_lower_bound",
    "estimate_config_memory",
    "cache_stats",
    "clear_caches",
    "register_cache",
]


@dataclass(frozen=True)
class ModelingOptions:
    """Optional modeling knobs (paper defaults unless noted).

    Each behaviour has one spelling, so options that compute the same thing
    compare and hash equal and share one cache fingerprint.  A
    ``zero_stage`` outside ``ZERO_STAGES`` raises ``ValueError`` here.
    """

    #: Use the fused FlashAttention Logit-Attend (recompute in backward).
    flash_attention: bool = True
    #: Model dropout layers explicitly (the paper omits them for brevity).
    include_dropout: bool = False
    #: ZeRO sharding stage, one of ``ZERO_STAGES``.  Stage 1 is the paper's
    #: distributed optimizer (the Adam states shard over the DP group) and
    #: stage 0 shards nothing.  Stages 2/3 additionally shard
    #: gradients/parameters in the memory model; stage 3 doubles the weight
    #: AllGather volume (forward + backward re-gather).
    zero_stage: int = 1
    #: Overlap the DP gradient ReduceScatter / weight AllGather with the
    #: backward/forward pass of the last/first microbatch.
    overlap_dp: bool = True
    #: Overlap the pipeline P2P transfers with compute (the paper assumes
    #: they are exposed but small).
    overlap_pp: bool = False
    #: Include the per-kernel FLOP latency term of the roofline model.
    include_flop_latency: bool = True
    #: Full activation checkpointing: retain only each block's input and
    #: recompute the block during the backward pass (adds one forward's worth
    #: of compute and TP communication to the backward pass).  The paper does
    #: not model this explicitly; it is required to fit the long-sequence ViT
    #: on capacity-limited GPUs (A100) as its Fig. 5b implies.
    activation_checkpointing: bool = False

    def __post_init__(self) -> None:
        if self.zero_stage not in ZERO_STAGES:
            raise ValueError(f"zero_stage must be one of {ZERO_STAGES}, got {self.zero_stage!r}")


DEFAULT_OPTIONS = ModelingOptions()


@dataclass(frozen=True)
class IterationEstimate:
    """Result of evaluating one configuration on one system."""

    model_name: str
    system_name: str
    config: ParallelConfig
    assignment: GpuAssignment
    global_batch_size: int
    num_microbatches: int
    breakdown: TimeBreakdown
    memory: MemoryEstimate
    feasible: bool
    infeasible_reason: Optional[str] = None
    #: The phase-level cost plan the breakdown was reduced from.
    plan: Optional[ExecutionPlan] = None
    #: Evaluation backend that produced the estimate (see
    #: :mod:`repro.core.backends`).
    backend: str = DEFAULT_BACKEND

    @property
    def total_time(self) -> float:
        """Time of one training iteration in seconds."""
        return self.breakdown.total

    @property
    def memory_gb(self) -> float:
        """Per-GPU HBM footprint in GB."""
        return self.memory.total_gb

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports, JSON dumps and the CLI."""
        out: Dict[str, object] = {
            "model": self.model_name,
            "system": self.system_name,
            "config": self.config.describe(),
            "assignment": self.assignment.as_tuple(),
            "total_time_s": self.total_time,
            "memory_gb": self.memory_gb,
            "num_microbatches": self.num_microbatches,
            "feasible": self.feasible,
            "backend": self.backend,
        }
        out.update({f"t_{k}": v for k, v in self.breakdown.as_dict().items()})
        return out


# ----------------------------------------------------------------------
# Cached, assignment-independent pieces
# ----------------------------------------------------------------------

#: Per-SUMMA-matmul record used by the assignment-dependent comm evaluation:
#: (activation bytes, activation group, weight bytes, weight group,
#:  panel compute time, inner dim)
_SummaRecord = Tuple[float, str, float, str, float, int]

#: Explicit cache bounds.  The keys are per (strategy, model, microbatch,
#: TP factorization) — *not* per schedule, microbatch count or assignment —
#: so a whole multi-schedule search at one scale needs only a few dozen
#: entries; the bound caps worst-case growth in long-lived sweep workers.
WORKLOAD_CACHE_SIZE = 4096
STAGE_TIMES_CACHE_SIZE = 8192

#: Every memoization this module (and its helpers) maintains, keyed by a
#: stable reporting name — the single source of truth for both
#: :func:`clear_caches` and :func:`cache_stats`.
_CACHE_REGISTRY: Dict[str, object] = {}


def register_cache(name: str):
    """Track an ``lru_cache``-wrapped function under ``name``.

    Public registration hook: other model layers (e.g. the simulation
    backend's memoized collective replays) register their ``lru_cache``
    functions here so that :func:`clear_caches` and :func:`cache_stats`
    cover them too — one registry, one cold-start story for every backend.
    """

    def wrap(fn):
        _CACHE_REGISTRY[name] = fn
        return fn

    return wrap


@dataclass(frozen=True)
class _StageTimes:
    """Assignment-independent per-layer times and volumes."""

    fwd_flop: float
    fwd_mem_exposed: float
    bwd_flop: float
    bwd_mem_exposed: float
    fwd_comms: Tuple[CommOp, ...]
    bwd_comms: Tuple[CommOp, ...]
    fwd_summa: Tuple[_SummaRecord, ...]
    bwd_summa: Tuple[_SummaRecord, ...]


@register_cache("workload")
@lru_cache(maxsize=WORKLOAD_CACHE_SIZE)
def _cached_workload(
    strategy_name: str,
    model: TransformerConfig,
    microbatch_size: int,
    n1: int,
    n2: int,
    summa_panels: int,
    flash_attention: bool,
    include_dropout: bool,
    expert_parallel: int = 1,
) -> LayerWorkload:
    """Build (and cache) the per-layer workload for a TP configuration.

    The workload does not depend on the pipeline degree, the pipeline
    schedule or the data-parallel degree, so those are fixed to the minimum
    here (the expert-parallel degree needs an equally large DP degree to be
    structurally valid, but no per-GPU quantity of the workload depends on
    ``nd`` itself); the caller re-applies its own config for everything
    else.  This is what lets every microbatch-count, schedule and
    NVS-assignment candidate of one tensor-parallel strategy re-cost its
    plan from the same cached workload.
    """
    probe = ParallelConfig(
        strategy=strategy_name,
        tensor_parallel_1=n1,
        tensor_parallel_2=n2,
        pipeline_parallel=1,
        data_parallel=expert_parallel,
        microbatch_size=microbatch_size,
        summa_panels=summa_panels,
        expert_parallel=expert_parallel,
    )
    strategy = get_strategy(strategy_name)
    return strategy.layer_workload(
        model, probe, flash_attention=flash_attention, include_dropout=include_dropout
    )


def _summa_records(
    matmuls: Tuple[SummaMatmul, ...] | List[SummaMatmul],
    gpu: GpuSpec,
    summa_panels: int,
    include_latency: bool,
) -> Tuple[_SummaRecord, ...]:
    """Precompute per-panel compute times of SUMMA matmuls."""
    records = []
    for matmul in matmuls:
        nb = max(1, min(summa_panels, matmul.inner_dim))
        rate = gpu.tensor_flops
        latency = gpu.flops_latency if include_latency else 0.0
        flop_time = nb * latency + matmul.compute.flops / rate
        # Each additional panel re-reads and re-writes the local accumulator
        # block, so small panels lose matmul efficiency (Appendix A).
        panel_bytes = matmul.compute.bytes_hbm + 2.0 * (nb - 1) * matmul.output_bytes
        mem_time = panel_bytes / gpu.effective_hbm_bandwidth
        panel_compute = max(flop_time, mem_time) / nb
        records.append(
            (
                matmul.activation_bcast_bytes,
                matmul.activation_group,
                matmul.weight_bcast_bytes,
                matmul.weight_group,
                panel_compute,
                nb,
            )
        )
    return tuple(records)


@register_cache("stage_times")
@lru_cache(maxsize=STAGE_TIMES_CACHE_SIZE)
def _cached_stage_times(
    strategy_name: str,
    model: TransformerConfig,
    gpu: GpuSpec,
    microbatch_size: int,
    n1: int,
    n2: int,
    summa_panels: int,
    flash_attention: bool,
    include_dropout: bool,
    include_flop_latency: bool,
    expert_parallel: int = 1,
) -> _StageTimes:
    """Roofline times of one layer (forward and backward), per microbatch."""
    workload = _cached_workload(
        strategy_name,
        model,
        microbatch_size,
        n1,
        n2,
        summa_panels,
        flash_attention,
        include_dropout,
        expert_parallel,
    )
    fwd = ops_time(workload.forward_ops, gpu, include_latency=include_flop_latency)
    bwd = ops_time(workload.backward_ops, gpu, include_latency=include_flop_latency)

    fwd_summa = _summa_records(tuple(workload.forward_summa), gpu, summa_panels, include_flop_latency)
    bwd_summa = _summa_records(tuple(workload.backward_summa), gpu, summa_panels, include_flop_latency)

    # SUMMA panel compute contributes to the compute/memory categories too.
    fwd_flop = fwd.flop_time + sum(rec[4] * rec[5] for rec in fwd_summa)
    bwd_flop = bwd.flop_time + sum(rec[4] * rec[5] for rec in bwd_summa)

    return _StageTimes(
        fwd_flop=fwd_flop,
        fwd_mem_exposed=fwd.exposed_memory_time,
        bwd_flop=bwd_flop,
        bwd_mem_exposed=bwd.exposed_memory_time,
        fwd_comms=tuple(workload.forward_comms),
        bwd_comms=tuple(workload.backward_comms),
        fwd_summa=fwd_summa,
        bwd_summa=bwd_summa,
    )


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters of every registered memoization cache."""
    return {name: fn.cache_info()._asdict() for name, fn in _CACHE_REGISTRY.items()}


def clear_caches() -> None:
    """Drop every memoization this model maintains.

    Covers every cache in the registry (workload, stage times, and anything
    a future change registers) *and* the factorization and NVS-assignment
    caches the configuration enumeration leans on, so tests, sweeps and freshly
    started worker processes all start from the same cold, bounded state
    (:class:`~repro.runtime.SweepExecutor` installs this as its pool
    initializer).
    """
    for fn in _CACHE_REGISTRY.values():
        fn.cache_clear()
    factorization.divisors.cache_clear()
    factorization.factorizations.cache_clear()
    config_space._assignments.cache_clear()


# ----------------------------------------------------------------------
# Assignment-dependent evaluation
# ----------------------------------------------------------------------

def _largest_divisor_at_most(n: int, limit: int) -> int:
    """Largest divisor of ``n`` that is <= ``limit`` (>= 1)."""
    best = 1
    for d in range(1, n + 1):
        if d > limit:
            break
        if n % d == 0:
            best = d
    return best


def _group_placement(
    group: str, config: ParallelConfig, assignment: GpuAssignment
) -> GroupPlacement:
    """Placement of the named parallel group under ``assignment``.

    Expert-parallel groups (``ep`` and the ``<group>/ep`` gradient-sync
    groups) are carved out of the data-parallel group, so their GPUs share
    NVSwitch domains at most as much as the DP group does; the co-located
    count is clamped to the largest divisor of the group size.
    """
    size = config.group_size(group)
    if group == GROUP_EP or group.endswith("/ep"):
        base = group[: -len("/ep")] if group.endswith("/ep") else "dp"
        base_nvs = assignment.for_group(base) if base != "dp" else assignment.nvs_dp
        nvs = _largest_divisor_at_most(size, max(1, base_nvs))
        return GroupPlacement(size=size, gpus_per_nvs_domain=nvs)
    return GroupPlacement(
        size=size,
        gpus_per_nvs_domain=assignment.for_group(group),
    )


def _comm_time(
    comms: Tuple[CommOp, ...],
    config: ParallelConfig,
    assignment: GpuAssignment,
    pricer: CostPricer,
) -> float:
    """Total exposed time of a list of collectives."""
    total = 0.0
    for comm in comms:
        if comm.overlapped:
            continue
        placement = _group_placement(comm.group, config, assignment)
        total += pricer.collective(comm.collective, comm.volume_bytes, placement)
    return total


def _summa_comm_time(
    records: Tuple[_SummaRecord, ...],
    config: ParallelConfig,
    assignment: GpuAssignment,
    pricer: CostPricer,
) -> float:
    """Exposed communication time of SUMMA matmuls (prologue + spill-over).

    For each blocked matmul the first panel's broadcasts are fully exposed
    (prologue); subsequent panels overlap their broadcasts with the previous
    panel's compute and only expose the excess.
    """
    total = 0.0
    for act_bytes, act_group, w_bytes, w_group, panel_compute, nb in records:
        act_place = _group_placement(act_group, config, assignment)
        w_place = _group_placement(w_group, config, assignment)
        panel_act = pricer.collective("broadcast", act_bytes / nb, act_place)
        panel_w = pricer.collective("broadcast", w_bytes / nb, w_place)
        panel_comm = panel_act + panel_w
        prologue = panel_comm
        exposed_per_panel = max(0.0, panel_comm - panel_compute)
        total += prologue + max(0, nb - 1) * exposed_per_panel
    return total


def _assemble_plan(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment,
    *,
    global_batch_size: int,
    options: ModelingOptions,
    pricer: CostPricer,
) -> Tuple[ExecutionPlan, MemoryEstimate, int]:
    """Build the phase-level cost plan of one validated candidate.

    Returns ``(plan, memory, num_microbatches)``.  Every communication and
    bubble cost is priced through ``pricer``; with the analytic pricer the
    phase values are computed with exactly the arithmetic the legacy inline
    evaluation used, so reducing the plan reproduces the pre-IR totals
    bit-for-bit under the default 1F1B schedule.
    """
    schedule = get_schedule(config.schedule)
    num_microbatches = config.num_microbatches(global_batch_size)
    stage_layers = layers_per_stage(model, config)

    stage = _cached_stage_times(
        config.strategy,
        model,
        system.gpu,
        config.microbatch_size,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        options.include_flop_latency,
        config.expert_parallel,
    )
    workload = _cached_workload(
        config.strategy,
        model,
        config.microbatch_size,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        config.expert_parallel,
    )

    # --- per-microbatch, per-stage times -------------------------------
    fwd_tp_comm = _comm_time(stage.fwd_comms, config, assignment, pricer) + _summa_comm_time(
        stage.fwd_summa, config, assignment, pricer
    )
    bwd_tp_comm = _comm_time(stage.bwd_comms, config, assignment, pricer) + _summa_comm_time(
        stage.bwd_summa, config, assignment, pricer
    )

    fwd_compute = stage.fwd_flop * stage_layers
    fwd_memory = stage.fwd_mem_exposed * stage_layers
    bwd_compute = stage.bwd_flop * stage_layers
    bwd_memory = stage.bwd_mem_exposed * stage_layers
    fwd_tp_comm *= stage_layers
    bwd_tp_comm *= stage_layers

    if options.activation_checkpointing:
        # The backward pass first recomputes the block's forward pass
        # (compute, memory traffic and tensor-parallel collectives).
        bwd_compute += fwd_compute
        bwd_memory += fwd_memory
        bwd_tp_comm += fwd_tp_comm

    tf = fwd_compute + fwd_memory + fwd_tp_comm
    tb = bwd_compute + bwd_memory + bwd_tp_comm

    m = num_microbatches

    # --- memory (phase deltas + feasibility input) ----------------------
    memory = estimate_memory(
        model,
        config,
        workload,
        m,
        activation_checkpointing=options.activation_checkpointing,
        zero_stage=options.zero_stage,
    )

    phases: List[CostPhase] = [
        CostPhase(
            name="microbatch.compute",
            category=CATEGORY_COMPUTE,
            seconds=fwd_compute + bwd_compute,
            count=m,
        ),
        CostPhase(
            name="microbatch.hbm",
            category=CATEGORY_MEMORY,
            seconds=fwd_memory + bwd_memory,
            count=m,
        ),
        CostPhase(
            name="microbatch.tp_comm",
            category=CATEGORY_TP_COMM,
            seconds=fwd_tp_comm + bwd_tp_comm,
            count=m,
        ),
        CostPhase(
            name="pipeline.bubble",
            category=CATEGORY_PP_BUBBLE,
            seconds=pricer.bubble(
                schedule, config.pipeline_parallel, m, tf, tb, config.virtual_stages
            ),
        ),
    ]

    # --- pipeline P2P ---------------------------------------------------
    if config.pipeline_parallel > 1:
        p2p_bytes = pipeline_p2p_volume_bytes(model, config, both_directions=True)
        placement = _group_placement(GROUP_PP, config, assignment)
        # Interleaving crosses v chunk boundaries per microbatch — v separate
        # messages, each paying the full latency, so the factor scales the
        # per-boundary *time*, not just the bytes.
        phases.append(
            CostPhase(
                name="pipeline.p2p",
                category=CATEGORY_PP_COMM,
                seconds=schedule.p2p_volume_factor(config.virtual_stages)
                * pricer.p2p(p2p_bytes, placement),
                count=m,
                overlapped=options.overlap_pp,
                memory_bytes=memory.pipeline_buffer_bytes,
            )
        )

    # --- data parallel ---------------------------------------------------
    plans = [
        data_parallel_plan(
            workload.params_per_gpu * stage_layers,
            config,
            grad_sync_group=workload.grad_sync_group,
            overlap_with_compute=options.overlap_dp,
            zero_stage=options.zero_stage,
        )
    ]
    if workload.expert_params_per_gpu > 0:
        # Expert (MoE) weights replicate only nd/ep times; their gradients
        # synchronise over the correspondingly smaller group.
        plans.append(
            data_parallel_plan(
                workload.expert_params_per_gpu * stage_layers,
                config,
                grad_sync_group=workload.expert_grad_sync_group,
                overlap_with_compute=options.overlap_dp,
                zero_stage=options.zero_stage,
            )
        )
    rs_total = 0.0
    ag_total = 0.0
    for plan in plans:
        if plan.total_bytes <= 0:
            continue
        placement = _group_placement(plan.sync_group, config, assignment)
        rs_total += pricer.collective(
            "reduce_scatter", plan.grad_reduce_scatter_bytes, placement
        )
        ag_total += pricer.collective(
            "all_gather", plan.weight_all_gather_bytes, placement
        )
    if rs_total > 0 or ag_total > 0:
        # The gradient ReduceScatter can hide under the last microbatch's
        # backward pass, the weight AllGather under the first forward.
        phases.append(
            CostPhase(
                name="dp.grad_reduce_scatter",
                category=CATEGORY_DP_COMM,
                seconds=rs_total,
                overlap_budget=tb if options.overlap_dp else 0.0,
            )
        )
        phases.append(
            CostPhase(
                name="dp.weight_all_gather",
                category=CATEGORY_DP_COMM,
                seconds=ag_total,
                overlap_budget=tf if options.overlap_dp else 0.0,
            )
        )

    # --- resident state (memory-only phases) -----------------------------
    phases.append(
        CostPhase(
            name="state.parameters",
            category=CATEGORY_STATE,
            seconds=0.0,
            memory_bytes=memory.weight_bytes + memory.grad_bytes + memory.optimizer_bytes,
        )
    )
    phases.append(
        CostPhase(
            name="state.activations",
            category=CATEGORY_STATE,
            seconds=0.0,
            memory_bytes=memory.activation_bytes,
        )
    )

    plan = ExecutionPlan(
        schedule=config.schedule,
        virtual_stages=config.virtual_stages,
        num_stages=config.pipeline_parallel,
        num_microbatches=m,
        phases=tuple(phases),
        backend=pricer.name,
    )
    return plan, memory, m


def _validate_candidate(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment,
) -> None:
    """Raise ``ValueError`` for structurally invalid (config, assignment)."""
    strategy = get_strategy(config.strategy)
    err = strategy.validate_config(model, config)
    if err is None:
        err = get_schedule(config.schedule).validate(model, config)
    if err is not None:
        raise ValueError(f"invalid configuration {config.describe()}: {err}")
    if not assignment.is_valid_for(config, system.nvs_domain_size):
        raise ValueError(
            f"assignment {assignment.as_tuple()} invalid for {config.describe()} "
            f"on NVS domain size {system.nvs_domain_size}"
        )


def build_execution_plan(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment | None = None,
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> ExecutionPlan:
    """Build (but do not reduce) the cost plan of one candidate.

    Raises ``ValueError`` for structurally invalid configurations, exactly
    like :func:`evaluate_config`.
    """
    assignment = assignment or GpuAssignment()
    _validate_candidate(model, system, config, assignment)
    plan, _, _ = _assemble_plan(
        model, system, config, assignment,
        global_batch_size=global_batch_size, options=options,
        pricer=get_backend(backend)(system),
    )
    return plan


def evaluate_config(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment | None = None,
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> IterationEstimate:
    """Estimate the iteration time and memory of one configuration.

    Builds the candidate's :class:`~repro.core.plan.ExecutionPlan` and
    reduces it to the category breakdown.  Raises ``ValueError`` for
    structurally invalid configurations (bad divisibility); returns an
    estimate flagged infeasible when the configuration is valid but does not
    fit in HBM.

    ``backend`` selects the cost model: ``"analytic"`` (default — the
    paper's closed forms, bit-exact with every reproduced figure) or
    ``"sim"`` (the message-level oracle of :mod:`repro.simulate.backend`).
    The memory model and the feasibility check are backend-independent.
    """
    assignment = assignment or GpuAssignment()
    _validate_candidate(model, system, config, assignment)
    pricer = get_backend(backend)(system)
    plan, memory, m = _assemble_plan(
        model, system, config, assignment,
        global_batch_size=global_batch_size, options=options,
        pricer=pricer,
    )

    breakdown = plan.reduce()

    feasible = memory.fits(system.gpu.hbm_capacity)
    reason = None if feasible else (
        f"memory {memory.total_gb:.1f} GB exceeds HBM capacity "
        f"{system.gpu.hbm_capacity / 1e9:.1f} GB"
    )

    return IterationEstimate(
        model_name=model.name,
        system_name=system.name,
        config=config,
        assignment=assignment,
        global_batch_size=global_batch_size,
        num_microbatches=m,
        breakdown=breakdown,
        memory=memory,
        feasible=feasible,
        infeasible_reason=reason,
        plan=plan,
        backend=pricer.name,
    )


#: Relative slack that keeps :func:`config_time_lower_bound` admissible in
#: floating point.  The bound and the full evaluation add the same compute,
#: memory and bubble terms in different orders, so for a configuration whose
#: communication vanishes the bound could land an ulp *above* the evaluated
#: time, and pruning would drop an exact tie (a Pareto frontier member).
#: 1e-12 is orders of magnitude above the rounding of either sum.
_BOUND_SLACK = 1.0 - 1e-12


def config_time_lower_bound(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> float:
    """Assignment-independent lower bound on the iteration time of ``config``.

    The compute and exposed-HBM times of each stage, and the schedule bubble
    they imply, do not depend on the GPU-to-NVSwitch assignment; every
    communication term (TP collectives, pipeline P2P, DP synchronisation,
    SUMMA broadcasts) is non-negative under *any* assignment.  Dropping the
    communication terms therefore yields a true lower bound on
    :func:`evaluate_config`'s total time over all assignments, which the
    search uses for branch-and-bound pruning: a parallelization whose bound
    already exceeds the incumbent best cannot contain the optimum, so its
    NVS-assignment loop can be skipped entirely.

    The bound stays admissible across schedules because each configuration's
    bound uses *its own* schedule's bubble (e.g. the interleaved bubble
    shrinks by the virtual-stage degree in both the bound and the full
    evaluation), and in floating point because it is scaled down by
    :data:`_BOUND_SLACK`.
    """
    stage = _cached_stage_times(
        config.strategy,
        model,
        system.gpu,
        config.microbatch_size,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        options.include_flop_latency,
        config.expert_parallel,
    )
    stage_layers = layers_per_stage(model, config)
    tf = (stage.fwd_flop + stage.fwd_mem_exposed) * stage_layers
    tb = (stage.bwd_flop + stage.bwd_mem_exposed) * stage_layers
    if options.activation_checkpointing:
        tb += tf
    m = config.num_microbatches(global_batch_size)
    bubble = get_schedule(config.schedule).bubble_time(
        config.pipeline_parallel, m, tf, tb, config.virtual_stages
    )
    return (m * (tf + tb) + bubble) * _BOUND_SLACK


def config_compute_profile(
    model: TransformerConfig,
    config: ParallelConfig,
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> Tuple[float, float]:
    """Per-GPU roofline activity of one iteration: ``(FLOPs, HBM bytes)``.

    Sums the compute-op FLOP and HBM-byte counts of the cached per-layer
    workload (dense ops plus SUMMA matmuls, forward and backward) over the
    configuration's layers per stage and microbatch count.  With activation
    checkpointing the forward pass is recomputed during the backward pass,
    so its counts are charged twice — mirroring
    :func:`config_time_lower_bound`'s time accounting.

    Like the memory footprint, the profile does not depend on the NVS
    assignment, which is what makes the energy objective's lower bound
    exact (see :mod:`repro.core.objectives`).
    """
    workload = _cached_workload(
        config.strategy,
        model,
        config.microbatch_size,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        config.expert_parallel,
    )
    fwd_flops = sum(op.flops for op in workload.forward_ops)
    fwd_bytes = sum(op.bytes_hbm for op in workload.forward_ops)
    bwd_flops = sum(op.flops for op in workload.backward_ops)
    bwd_bytes = sum(op.bytes_hbm for op in workload.backward_ops)
    for matmul in workload.forward_summa:
        fwd_flops += matmul.compute.flops
        fwd_bytes += matmul.compute.bytes_hbm
    for matmul in workload.backward_summa:
        bwd_flops += matmul.compute.flops
        bwd_bytes += matmul.compute.bytes_hbm
    if options.activation_checkpointing:
        bwd_flops += fwd_flops
        bwd_bytes += fwd_bytes
    stage_layers = layers_per_stage(model, config)
    m = config.num_microbatches(global_batch_size)
    scale = float(m) * float(stage_layers)
    return scale * (fwd_flops + bwd_flops), scale * (fwd_bytes + bwd_bytes)


def estimate_config_memory(
    model: TransformerConfig,
    config: ParallelConfig,
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> MemoryEstimate:
    """Memory-only estimate (cheap pre-filter used by the search)."""
    workload = _cached_workload(
        config.strategy,
        model,
        config.microbatch_size,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        config.expert_parallel,
    )
    m = config.num_microbatches(global_batch_size)
    return estimate_memory(
        model,
        config,
        workload,
        m,
        activation_checkpointing=options.activation_checkpointing,
        zero_stage=options.zero_stage,
    )
