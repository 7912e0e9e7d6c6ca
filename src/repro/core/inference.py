"""Inference-serving execution mode: prefill, decode and continuous batching.

The training model answers "how fast is one iteration"; serving asks a
different set of questions about the *same* hardware model: how quickly a
prompt is absorbed (**prefill** — compute-bound, full-sequence, identical to
a training forward pass), how quickly subsequent tokens appear (**decode** —
bandwidth-bound: every step re-reads the weights and the growing KV-cache
for a single new token per sequence), and how many concurrent requests a
replica can sustain (**continuous batching** under KV-cache memory
pressure).

This module prices both regimes through the existing stack — the
tensor-parallel layer workloads, the roofline, the dual-network collective
model with NVSwitch placement, and the pluggable
:class:`~repro.core.backends.CostPricer` — and represents the result as
:class:`~repro.core.plan.CostPhase` nodes in the same
:class:`~repro.core.plan.ExecutionPlan` IR the training evaluator builds,
so ``--explain-plan`` introspection, serialization and caching all carry
over unchanged.

Model summary (first-order, documented so it can be tightened later):

* **Prefill** reuses the training stage-time cache for a forward pass over
  the prompt; with pipeline parallelism the prompt traverses all ``np``
  stages sequentially, so ``TTFT = np * t_pf_stage + (np - 1) * t_p2p``.
* **Decode** advances one token per sequence per step.  Per layer it runs
  the tp1d forward structure on ``g`` tokens (the per-stage decode group)
  with a Logit-Attend over the cached ``context`` keys/values — the
  KV-cache read appears naturally as the attention operands' HBM bytes,
  GQA-aware through ``kv_heads``.  Weight reads dominate at small ``g``,
  which is what makes decode bandwidth-bound.
* **Pipelining** replaces the training bubble with microbatch round-robin:
  ``np`` decode groups of ``g = B / np`` sequences each keep every stage
  busy, and a given sequence's token period is one full rotation,
  ``TPOT = np * (t_stage + t_p2p)``.
* **KV-cache memory** is allocated in paged blocks of
  ``kv_block_tokens`` tokens (each sequence's context rounds up to whole
  blocks), sized for the worst case (every resident sequence at full
  ``prompt + output`` context) so steady state never needs eviction.
* **Continuous batching** turns the arrival rate into an effective batch
  by Little's law: ``B = lambda_replica * output_tokens * TPOT(B)`` is
  solved by (deterministic) fixed-point iteration, and prefill work steals
  stage time at utilisation ``u_p = lambda_replica * t_pf_stage``,
  inflating the decode period by ``1 / (1 - u_p)``.

The serving search (:func:`find_serving_config`) enumerates EP/TP/PP/DP
exactly like the training search (through
:func:`repro.core.config_space.parallel_configs`) and prunes with an
*admissible* bound obtained by re-pricing the candidate with a zero-cost
communication pricer: every objective is monotone in the communication
terms, so the free-communication value can never be beaten by any NVS
assignment (:class:`_FreeCommPricer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backends import CostPricer, DEFAULT_BACKEND, get_backend
from repro.core.collectives import GroupPlacement
from repro.core.config_space import (
    DEFAULT_SEARCH_SPACE,
    SearchSpace,
    parallel_configs,
)
from repro.core.execution import (
    DEFAULT_OPTIONS,
    ModelingOptions,
    cache_stats,
    _cached_stage_times,
    _cached_workload,
    _comm_time,
    _group_placement,
    register_cache,
)
from repro.core.model import TransformerConfig
from repro.core.operations import (
    TENSOR_PIPE,
    AttentionShape,
    attention_forward_counts,
    matmul_bytes,
    matmul_flops,
    vector_bytes,
    vector_flops,
)
from repro.core.parallelism.base import (
    GROUP_EP,
    GROUP_PP,
    GROUP_TP1,
    GpuAssignment,
    ParallelConfig,
    get_strategy,
)
from repro.core.parallelism.data_parallel import WEIGHT_BYTES_PER_PARAM
from repro.core.parallelism.pipeline import layers_per_stage
from repro.core.plan import (
    CATEGORY_COMPUTE,
    CATEGORY_MEMORY,
    CATEGORY_PP_BUBBLE,
    CATEGORY_PP_COMM,
    CATEGORY_STATE,
    CATEGORY_TP_COMM,
    CostPhase,
    ExecutionPlan,
)
from repro.core.roofline import roofline_totals
from repro.core.schedules import DEFAULT_SCHEDULE
from repro.core.search import (
    BestK,
    CandidatePricer,
    SearchStatistics,
    Survivor,
    branch_and_bound,
    search_statistics,
    warm_seed,
)
from repro.core.system import GpuSpec, SystemSpec
from repro.utils.units import GB

__all__ = [
    "SERVING_OBJECTIVES",
    "SERVING_SCHEDULE",
    "ServingEstimate",
    "ServingSearchResult",
    "ServingSpec",
    "decode_step_time",
    "evaluate_serving_config",
    "find_serving_config",
    "kv_cache_bytes_per_sequence",
    "kv_cache_bytes_per_token_per_layer",
    "serving_objective_bound",
]

#: Objectives the serving search can optimise: peak sustainable decode
#: throughput (tokens/s/GPU, maximised), time-to-first-token or
#: time-per-output-token (seconds, minimised).
SERVING_OBJECTIVES: Tuple[str, ...] = ("throughput", "ttft", "tpot")

#: Schedule name a serving plan is labeled with (the round-robin schedule
#: registered in :mod:`repro.core.schedules.serve`).
SERVING_SCHEDULE = "serve-rr"

#: Fixed-point iteration controls for the continuous-batching effective
#: batch (deterministic: pure float arithmetic, fixed bounds).
_FIXED_POINT_MAX_ITER = 64
_FIXED_POINT_RTOL = 1e-9


@dataclass(frozen=True)
class ServingSpec:
    """Traffic and memory-policy description of one serving scenario.

    Parameters
    ----------
    arrival_rate:
        Cluster-wide request arrival rate (requests/second).  Divided
        evenly over the ``nd`` data-parallel replicas.
    prompt_tokens:
        Prompt (prefill) length per request, in tokens.  Must satisfy the
        same tensor-parallel divisibility rules as a training sequence.
    output_tokens:
        Tokens generated per request (decode steps).
    kv_block_tokens:
        Paged-KV block granularity: each sequence's cache allocation rounds
        up to whole blocks of this many tokens (vLLM-style paging).
    max_batch_per_replica:
        Scheduler cap on concurrently decoding sequences per replica
        (independent of the KV-memory cap, which is computed).
    target_ttft:
        Optional TTFT service-level objective in seconds; configurations
        exceeding it are flagged infeasible.
    target_tpot:
        Optional TPOT service-level objective in seconds.
    """

    arrival_rate: float = 1.0
    prompt_tokens: int = 2048
    output_tokens: int = 256
    kv_block_tokens: int = 16
    max_batch_per_replica: int = 256
    target_ttft: Optional[float] = None
    target_tpot: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject non-positive traffic, paging and SLO parameters."""
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.prompt_tokens < 1 or self.output_tokens < 1:
            raise ValueError("prompt_tokens and output_tokens must be >= 1")
        if self.kv_block_tokens < 1:
            raise ValueError("kv_block_tokens must be >= 1")
        if self.max_batch_per_replica < 1:
            raise ValueError("max_batch_per_replica must be >= 1")
        for name in ("target_ttft", "target_tpot"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")

    @property
    def max_context_tokens(self) -> int:
        """Longest context a sequence reaches (prompt fully decoded)."""
        return self.prompt_tokens + self.output_tokens

    @property
    def mean_context_tokens(self) -> float:
        """Steady-state average decode context (half the output generated)."""
        return self.prompt_tokens + self.output_tokens / 2.0

    def describe(self) -> Dict[str, object]:
        """Flat summary used by reports and the CLI."""
        out: Dict[str, object] = {
            "arrival_rate_rps": self.arrival_rate,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "kv_block_tokens": self.kv_block_tokens,
            "max_batch_per_replica": self.max_batch_per_replica,
        }
        if self.target_ttft is not None:
            out["target_ttft_s"] = self.target_ttft
        if self.target_tpot is not None:
            out["target_tpot_s"] = self.target_tpot
        return out


# ----------------------------------------------------------------------
# KV-cache accounting
# ----------------------------------------------------------------------

def kv_cache_bytes_per_token_per_layer(model: TransformerConfig, tensor_parallel: int) -> float:
    """Per-GPU KV-cache bytes one token adds in one layer.

    K and V each store ``kv_heads * head_dim`` elements per token — with
    grouped-query attention this is ``kv_heads / num_heads`` of the dense
    cache, the main reason GQA models serve so much cheaper — sharded over
    the tensor-parallel group (``kv_heads`` must divide by it).
    """
    if tensor_parallel < 1:
        raise ValueError("tensor_parallel must be >= 1")
    if model.kv_heads % tensor_parallel != 0:
        raise ValueError(
            f"tensor_parallel ({tensor_parallel}) does not divide "
            f"kv_heads ({model.kv_heads})"
        )
    return 2.0 * model.kv_dim * model.dtype_bytes / tensor_parallel


def kv_cache_bytes_per_sequence(
    model: TransformerConfig,
    config: ParallelConfig,
    context_tokens: int,
    kv_block_tokens: int = 16,
) -> float:
    """Per-GPU KV-cache bytes one sequence occupies at ``context_tokens``.

    Paged allocation: the context rounds up to whole blocks of
    ``kv_block_tokens`` tokens, and each GPU stores the cache only for its
    own pipeline stage's layers and its tensor-parallel KV-head shard.
    """
    if context_tokens < 0:
        raise ValueError("context_tokens must be >= 0")
    blocks = math.ceil(context_tokens / kv_block_tokens)
    stage_layers = layers_per_stage(model, config)
    return (
        blocks
        * kv_block_tokens
        * kv_cache_bytes_per_token_per_layer(model, config.tensor_parallel_1)
        * stage_layers
    )


# ----------------------------------------------------------------------
# Decode-step workload
# ----------------------------------------------------------------------

#: Distinct ``(model, GPU, n1, context, attention kernel, latency option)``
#: decode-layer tables :func:`_decode_layer_table` keeps.  A serving search
#: needs one per tensor-parallel degree it enumerates, and requests that
#: differ only in arrival rate, GPU count or NVS assignment share them.
DECODE_TABLE_CACHE_SIZE = 1024

#: Fused kernels charged one launch latency per decode layer: the attention
#: block and the MLP block (serving runtimes fuse decode layers this way —
#: FlashDecoding-style attention, fused MLP epilogues, CUDA graphs — so the
#: paper's per-matmul small-kernel latency would overcharge decode by the
#: primitive count and bury the bandwidth terms the regime is defined by).
_DECODE_FUSED_KERNELS_PER_LAYER = 2.0
#: One more fused launch for the MoE router + dispatch epilogue.
_DECODE_FUSED_KERNELS_MOE_EXTRA = 1.0


def _weight_matmul_row(m, k, n, dtype_bytes, rate, scale=1.0) -> Tuple[float, float, float]:
    """Counts of a matmul against a weight read once for the whole group."""
    return (
        matmul_flops(m, k, n) * scale,
        matmul_bytes(m, k, n, dtype_bytes=dtype_bytes, shared_operand_b=True) * scale,
        rate,
    )


def _vector_row(kind, numel, dtype_bytes, rate, scale=1.0) -> Tuple[float, float, float]:
    """Counts of a read-input, write-output vector op over ``numel`` elements."""
    return (
        vector_flops(kind, numel) * scale,
        vector_bytes(numel, dtype_bytes=dtype_bytes) * scale,
        rate,
    )


@dataclass(frozen=True)
class _DecodeLayerTable:
    """One decode layer's cost as a function of the decode group size ``g``.

    Per layer a decode step runs the tp1d forward structure with the
    sequence length replaced by the ``g`` new tokens of the decode group,
    plus a Logit-Attend whose K/V operands are the cached ``context``
    keys/values — so the KV-cache read traffic (GQA-aware) lands in the
    attention's HBM bytes and the weight reads land in the matmuls', exactly
    where the roofline expects them.  ``g`` may be fractional (the effective
    batch is a continuous steady-state quantity).

    Everything except ``g`` is fixed per table: the model's widths sharded
    over ``n1``, the context, the attention kernel, the GPU's pipe rates and
    HBM bandwidth, and the fused-launch latency.  Evaluating it builds no op
    objects, yet every count comes from the helpers the op builders use
    (:func:`matmul_flops`, :func:`vector_flops`, ...) and the per-op roofline
    sums through :func:`roofline_totals` in op order, so the times are
    bit-identical to :func:`~repro.core.roofline.ops_time` over the layer's
    op list.
    """

    embed: float
    hidden: float
    tp: float
    dtype_bytes: int
    #: Per-GPU widths: the TP1 shards of the embedding (the Q projection's
    #: output), of the K or V projection's output and of the MLP hidden layer.
    sharded_embed: float
    sharded_kv: float
    sharded_hidden: float
    #: Per-GPU attention heads, head width, K/V head ratio and cached context.
    heads: float
    head_dim: float
    kv_ratio: float
    context: float
    fused_attention: bool
    #: Routed experts per token (0 for a dense MLP) and the expert count.
    top_k: int
    experts: float
    tensor_rate: float
    vector_rate: float
    bandwidth: float
    #: Fused-kernel launch latency of one layer (0.0 without FLOP latency).
    launch: float

    def op_counts(self, g: float) -> List[Tuple[float, float, float]]:
        """``(flops, hbm_bytes, pipe_rate)`` of each op of the layer at ``g``.

        In op order: the attention block (LayerNorm, Q/K/V projections,
        Logit-Attend over the cached context, output projection), the MLP
        block (LayerNorm, up projection, GeLU, down projection) and, for MoE,
        the router.  MoE scales the MLP ops by the routed top-k (each token
        reads and computes its k expert shards), the same first-order
        treatment as training.
        """
        e, nt, dt = self.embed, self.tp, self.dtype_bytes
        tensor, vector = self.tensor_rate, self.vector_rate
        scale = float(self.top_k) if self.top_k else 1.0
        norm = g * e / nt
        rows = [
            _vector_row("layernorm", norm, dt, vector),
            _weight_matmul_row(g, e, self.sharded_embed, dt, tensor),
            _weight_matmul_row(g, e, self.sharded_kv, dt, tensor),
            _weight_matmul_row(g, e, self.sharded_kv, dt, tensor),
        ]
        # One new query row per sequence attends over the cached context.
        for flops, bytes_hbm, pipe in attention_forward_counts(
            g,
            self.heads,
            1.0,
            self.context,
            self.head_dim,
            self.kv_ratio,
            dtype_bytes=dt,
            fused=self.fused_attention,
        ):
            rows.append((flops, bytes_hbm, tensor if pipe == TENSOR_PIPE else vector))
        rows += (
            _weight_matmul_row(g, self.sharded_embed, e, dt, tensor),
            _vector_row("layernorm", norm, dt, vector),
            _weight_matmul_row(g, e, self.sharded_hidden, dt, tensor, scale),
            _vector_row("gelu", g * self.hidden / nt, dt, vector, scale),
            _weight_matmul_row(g, self.sharded_hidden, e, dt, tensor, scale),
        )
        if self.top_k:
            router_rows = g / nt
            rows.append(_weight_matmul_row(router_rows, e, self.experts, dt, tensor))
            rows.append(_vector_row("softmax", router_rows * self.experts, dt, vector))
        return rows

    def compute_times(self, g: float) -> Tuple[float, float]:
        """Per-layer FLOP time and exposed memory time at group size ``g``.

        Latency is charged per *fused* kernel (see
        :data:`_DECODE_FUSED_KERNELS_PER_LAYER`), not per primitive: the
        per-op roofline runs latency-free and the layer's launch cost is
        added to both sides, the way ``ops_time`` folds latency in.
        """
        flop_total, exposed_total = roofline_totals(self.op_counts(g), self.bandwidth)
        flop = flop_total + self.launch
        return flop, max(0.0, flop_total + exposed_total + self.launch - flop)

    def comm_time(
        self,
        g: float,
        tp1: GroupPlacement,
        ep: Optional[GroupPlacement],
        pricer: CostPricer,
    ) -> float:
        """Exposed collective time of one layer at group size ``g``.

        Each block (attention, then MLP) all-gathers its input and
        reduce-scatters its output over the TP1 group; MoE then dispatches
        and combines with AllToAlls over the expert-parallel group carved out
        of DP.  ``tp1`` and ``ep`` are the groups' placements.  Repeated
        collectives move the same volume over the same group, so each kind
        is priced once and added once per occurrence, in that order.
        """
        volume = self.dtype_bytes * g * self.embed
        all_gather = pricer.collective("all_gather", volume, tp1)
        reduce_scatter = pricer.collective("reduce_scatter", volume, tp1)
        total = 0.0
        for seconds in (all_gather, reduce_scatter, all_gather, reduce_scatter):
            total += seconds
        if self.top_k:
            a2a_volume = self.dtype_bytes * g * self.top_k * self.embed / self.tp
            all_to_all = pricer.collective("all_to_all", a2a_volume, ep)
            total += all_to_all  # dispatch
            total += all_to_all  # combine
        return total


@register_cache("decode_table")
@lru_cache(maxsize=DECODE_TABLE_CACHE_SIZE)
def _decode_layer_table(
    model: TransformerConfig,
    gpu: GpuSpec,
    n1: int,
    context_tokens: float,
    flash_attention: bool,
    include_flop_latency: bool,
) -> _DecodeLayerTable:
    """Build (and cache) the decode-layer table of one candidate shape."""
    if context_tokens <= 0:
        raise ValueError("context_tokens must be positive")
    nt = float(n1)
    e, kvd = float(model.embed_dim), float(model.kv_dim)
    attention = AttentionShape(
        batch=1.0,
        heads=float(model.num_heads) / nt,
        q_rows=1.0,
        kv_rows=float(context_tokens),
        head_dim=float(model.head_dim),
        kv_heads=float(model.kv_heads) / nt,
    )
    launches = _DECODE_FUSED_KERNELS_PER_LAYER + (
        _DECODE_FUSED_KERNELS_MOE_EXTRA if model.is_moe else 0.0
    )
    f = float(model.hidden_dim)
    return _DecodeLayerTable(
        embed=e,
        hidden=f,
        tp=nt,
        dtype_bytes=model.dtype_bytes,
        sharded_embed=e / nt,
        sharded_kv=kvd / nt,
        sharded_hidden=f / nt,
        heads=attention.heads,
        head_dim=attention.head_dim,
        kv_ratio=attention.kv_ratio,
        context=attention.kv_rows,
        fused_attention=flash_attention,
        top_k=model.moe_top_k if model.is_moe else 0,
        experts=float(model.num_experts),
        tensor_rate=gpu.tensor_flops,
        vector_rate=gpu.vector_flops,
        bandwidth=gpu.effective_hbm_bandwidth,
        launch=launches * gpu.flops_latency if include_flop_latency else 0.0,
    )


@dataclass(frozen=True)
class _DecodeStageTimes:
    """Per-stage decode-step times for one decode group size."""

    flop: float
    mem_exposed: float
    tp_comm: float
    p2p: float

    @property
    def stage_total(self) -> float:
        """Busy time of one stage for one decode step of its group."""
        return self.flop + self.mem_exposed + self.tp_comm


class _DecodeStep:
    """One candidate's decode step, priced at any decode group size.

    Binds the candidate's decode-layer table, its layers per stage, the
    pricer and the TP1, EP and PP group placements, resolved once; the
    continuous-batching fixed point then calls :meth:`stage_times` once per
    iteration.
    """

    def __init__(
        self,
        model: TransformerConfig,
        system: SystemSpec,
        config: ParallelConfig,
        assignment: GpuAssignment,
        context_tokens: float,
        options: ModelingOptions,
        pricer: CostPricer,
    ):
        """Look up the candidate's table and resolve its group placements."""
        self.table = _decode_layer_table(
            model,
            system.gpu,
            config.tensor_parallel_1,
            context_tokens,
            options.flash_attention,
            options.include_flop_latency,
        )
        self.stage_layers = layers_per_stage(model, config)
        self.pricer = pricer
        self.tp1 = _group_placement(GROUP_TP1, config, assignment)
        self.ep = _group_placement(GROUP_EP, config, assignment) if model.is_moe else None
        self.pp = (
            _group_placement(GROUP_PP, config, assignment)
            if config.pipeline_parallel > 1
            else None
        )

    def stage_times(self, g: float) -> _DecodeStageTimes:
        """Roofline + collective times of one pipeline stage's decode step."""
        table, layers = self.table, self.stage_layers
        flop, mem_exposed = table.compute_times(g)
        tp_comm = table.comm_time(g, self.tp1, self.ep, self.pricer)
        p2p = 0.0
        if self.pp is not None:
            p2p = self.pricer.p2p(table.dtype_bytes * g * table.embed, self.pp)
        return _DecodeStageTimes(
            flop=flop * layers,
            mem_exposed=mem_exposed * layers,
            tp_comm=tp_comm * layers,
            p2p=p2p,
        )


def decode_step_time(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment | None = None,
    *,
    batch_per_replica: float,
    context_tokens: float,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> float:
    """Time for every resident sequence to advance one token (= TPOT, pure).

    The per-replica batch splits into ``np`` round-robin groups; one token
    period is a full pipeline rotation ``np * (t_stage + t_p2p)``.  Public
    entry point for analyses that want the raw decode cost without the
    continuous-batching machinery.
    """
    assignment = assignment or GpuAssignment()
    pricer = get_backend(backend)(system)
    g = max(1.0, float(batch_per_replica)) / config.pipeline_parallel
    step = _DecodeStep(model, system, config, assignment, context_tokens, options, pricer)
    stage = step.stage_times(g)
    return config.pipeline_parallel * (stage.stage_total + stage.p2p)


# ----------------------------------------------------------------------
# Serving estimate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServingEstimate:
    """Result of evaluating one configuration in serving mode."""

    model_name: str
    system_name: str
    config: ParallelConfig
    assignment: GpuAssignment
    serving: ServingSpec
    #: Time-to-first-token: the prompt's traversal of the whole pipeline.
    ttft: float
    #: Time-per-output-token at the steady-state effective batch, including
    #: the prefill-interference inflation (``inf`` when prefill saturates).
    tpot: float
    #: Peak sustainable decode throughput (tokens/s/GPU) at the KV-capacity
    #: batch, with the matching prefill duty cycle amortised in.
    tokens_per_s_per_gpu: float
    #: Steady-state concurrently-decoding sequences per replica (Little's
    #: law fixed point, clamped to [1, capacity]).
    effective_batch: float
    #: Largest decode batch the replica can hold (min of the KV-memory cap
    #: and the scheduler cap).
    capacity_batch: float
    #: Fraction of stage time stolen by prefill work at the offered load.
    prefill_utilization: float
    #: Resident KV-cache bytes per GPU at the effective batch (paged).
    kv_cache_bytes: float
    #: Resident weight bytes per GPU (no grads/optimizer at inference).
    weight_bytes: float
    feasible: bool
    infeasible_reason: Optional[str] = None
    plan: Optional[ExecutionPlan] = None
    backend: str = DEFAULT_BACKEND

    @property
    def request_latency(self) -> float:
        """End-to-end latency of one request: TTFT + all decode steps."""
        return self.ttft + self.serving.output_tokens * self.tpot

    @property
    def kv_cache_gb(self) -> float:
        """Resident KV cache per GPU in (decimal) GB."""
        return self.kv_cache_bytes / GB

    @property
    def weight_gb(self) -> float:
        """Resident weights per GPU in (decimal) GB."""
        return self.weight_bytes / GB

    @property
    def goodput_tokens_per_s(self) -> float:
        """Output tokens/s the offered arrival rate produces when feasible."""
        if not self.feasible:
            return 0.0
        return self.serving.arrival_rate * self.serving.output_tokens

    def objective_value(self, objective: str) -> float:
        """Value of the named serving objective for this estimate."""
        if objective == "throughput":
            return self.tokens_per_s_per_gpu
        if objective == "ttft":
            return self.ttft
        if objective == "tpot":
            return self.tpot
        raise ValueError(
            f"unknown serving objective {objective!r}; expected one of {SERVING_OBJECTIVES}"
        )

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports, JSON dumps and the CLI."""
        return {
            "model": self.model_name,
            "system": self.system_name,
            "config": self.config.describe(),
            "assignment": self.assignment.as_tuple(),
            "ttft_s": self.ttft,
            "tpot_s": self.tpot,
            "request_latency_s": self.request_latency,
            "tokens_per_s_per_gpu": self.tokens_per_s_per_gpu,
            "effective_batch": self.effective_batch,
            "capacity_batch": self.capacity_batch,
            "prefill_utilization": self.prefill_utilization,
            "kv_cache_gb": self.kv_cache_gb,
            "weight_gb": self.weight_gb,
            "feasible": self.feasible,
            "backend": self.backend,
        }


class _FreeCommPricer(CostPricer):
    """Zero-cost communication pricer: the serving search's admissible bound.

    Every serving objective is monotone in the communication terms — TTFT
    and TPOT only grow when collectives/P2P cost more, throughput only
    shrinks, the prefill utilisation only grows, and the Little's-law fixed
    point (the smallest one, which the iteration converges to from below)
    only moves up — so pricing a candidate with free communication bounds
    its value under *every* NVS assignment.  Memory quantities do not
    depend on communication at all, which also makes bound-infeasibility
    (capacity or saturation) a proof that every assignment is infeasible.
    """

    name = "bound"

    def collective(self, collective, volume_bytes, placement):
        """Every collective is free under the bound."""
        return 0.0

    def p2p(self, volume_bytes, placement):
        """Every point-to-point transfer is free under the bound."""
        return 0.0

    def bubble(self, schedule, num_stages, num_microbatches, forward_time, backward_time, virtual_stages):
        """Serving plans charge no schedule bubble (kept for the interface)."""
        return 0.0


def _validate_serving_candidate(
    prefill_model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment,
) -> None:
    """Raise ``ValueError`` for structurally invalid serving candidates."""
    if config.strategy != "tp1d":
        raise ValueError(
            f"serving models 1D tensor parallelism only (got strategy {config.strategy!r}); "
            f"2D TP/SUMMA decompose the sequence, which autoregressive decode does not have"
        )
    if config.virtual_stages != 1:
        raise ValueError("serving uses microbatch round-robin, not interleaving (virtual_stages must be 1)")
    # tp1d's own rules cover everything decode needs too: kv_heads % n1
    # guards the KV shard, seq_len % n1 (on the prompt) guards prefill.
    err = get_strategy("tp1d").validate_config(prefill_model, config)
    if err is not None:
        raise ValueError(f"invalid serving configuration {config.describe()}: {err}")
    if not assignment.is_valid_for(config, system.nvs_domain_size):
        raise ValueError(
            f"assignment {assignment.as_tuple()} invalid for {config.describe()} "
            f"on NVS domain size {system.nvs_domain_size}"
        )


def _evaluate_serving(
    model: TransformerConfig,
    prefill_model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment,
    serving: ServingSpec,
    options: ModelingOptions,
    pricer: CostPricer,
) -> ServingEstimate:
    """Price one validated serving candidate through ``pricer``.

    ``prefill_model`` is ``model`` at the prompt's sequence length.
    """
    np_ = config.pipeline_parallel
    nd = config.data_parallel
    stage_layers = layers_per_stage(model, config)

    # --- prefill: a training forward pass over the prompt ----------------
    stage = _cached_stage_times(
        "tp1d",
        prefill_model,
        system.gpu,
        1,  # one request per prefill microbatch
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        options.include_flop_latency,
        config.expert_parallel,
    )
    pf_flop = stage.fwd_flop * stage_layers
    pf_mem = stage.fwd_mem_exposed * stage_layers
    pf_tp_comm = _comm_time(stage.fwd_comms, config, assignment, pricer) * stage_layers
    t_pf_stage = pf_flop + pf_mem + pf_tp_comm

    step = _DecodeStep(
        model, system, config, assignment, serving.mean_context_tokens, options, pricer
    )
    pf_p2p = 0.0
    if step.pp is not None:
        pf_p2p = pricer.p2p(
            model.dtype_bytes * serving.prompt_tokens * model.embed_dim, step.pp
        )
    ttft = np_ * t_pf_stage + (np_ - 1) * pf_p2p

    # --- memory: weights + paged KV capacity ------------------------------
    workload = _cached_workload(
        "tp1d",
        prefill_model,
        1,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        options.flash_attention,
        options.include_dropout,
        config.expert_parallel,
    )
    weight_bytes = (
        (workload.params_per_gpu + workload.expert_params_per_gpu)
        * stage_layers
        * WEIGHT_BYTES_PER_PARAM
    )
    # Inference retains no activations across layers; the live working set
    # is one layer's prefill intermediates (first-order).
    workspace_bytes = workload.activation_elements * model.dtype_bytes

    kv_seq_max = kv_cache_bytes_per_sequence(
        model, config, serving.max_context_tokens, serving.kv_block_tokens
    )
    available = system.gpu.hbm_capacity - weight_bytes - workspace_bytes

    feasible = True
    reason: Optional[str] = None
    if available <= 0:
        feasible = False
        reason = (
            f"weights + workspace {(weight_bytes + workspace_bytes) / GB:.1f} GB exceed "
            f"HBM capacity {system.gpu.hbm_capacity / GB:.1f} GB"
        )
        capacity_batch = 0.0
    else:
        capacity_batch = min(
            float(math.floor(available / kv_seq_max)), float(serving.max_batch_per_replica)
        )
        if capacity_batch < 1.0:
            feasible = False
            reason = (
                f"KV cache for one sequence ({kv_seq_max / GB:.2f} GB at "
                f"{serving.max_context_tokens} tokens) does not fit beside the weights"
            )

    # --- continuous batching: arrival rate -> effective batch -------------
    lam = serving.arrival_rate / nd
    prefill_utilization = lam * t_pf_stage
    slowdown = math.inf if prefill_utilization >= 1.0 else 1.0 / (1.0 - prefill_utilization)

    # Stage times by decode group size: the fixed point's clamped targets
    # (the one-sequence floor, the capacity batch) repeat a priced size.
    priced: Dict[float, _DecodeStageTimes] = {}

    def decode_stage(batch: float) -> _DecodeStageTimes:
        """Stage times of one decode step at per-replica batch ``batch``."""
        g = max(batch, 1.0) / np_
        if g not in priced:
            priced[g] = step.stage_times(g)
        return priced[g]

    def rotation_of(stage_times: _DecodeStageTimes) -> float:
        """Pure decode token period of already-computed stage times."""
        return np_ * (stage_times.stage_total + stage_times.p2p)

    if feasible and prefill_utilization >= 1.0:
        feasible = False
        reason = (
            f"prefill work saturates the replica: utilisation "
            f"{prefill_utilization:.2f} at {lam:.3f} req/s/replica"
        )

    # Decode stage times at the capacity batch, shared between the overload
    # check and the saturation-capacity ("throughput") formula below.
    cap_stage = decode_stage(capacity_batch) if capacity_batch >= 1.0 else None

    if cap_stage is not None and math.isfinite(slowdown):
        # Little's law fixed point B = lam * output * TPOT(B); the map is
        # monotone increasing in B, so iterating from below converges to
        # the smallest fixed point.  No fixed point at or below the
        # capacity batch means the offered load exceeds decode capacity.
        demand_at_cap = (
            lam * serving.output_tokens * rotation_of(cap_stage) * slowdown
        )
        if feasible and demand_at_cap > capacity_batch:
            feasible = False
            reason = (
                f"arrival rate exceeds decode capacity: Little's-law batch "
                f"{demand_at_cap:.1f} > capacity {capacity_batch:.0f} sequences/replica"
            )
        batch = 1.0
        dec = decode_stage(batch)
        for _ in range(_FIXED_POINT_MAX_ITER):
            target = max(1.0, lam * serving.output_tokens * rotation_of(dec) * slowdown)
            target = min(target, capacity_batch)
            converged = abs(target - batch) <= _FIXED_POINT_RTOL * max(1.0, batch)
            batch = target
            dec = decode_stage(batch)
            if converged:
                break
        effective_batch = batch
    else:
        # Saturated or capacity-less candidate: report single-sequence
        # latencies so the infeasible estimate still reads sensibly.
        effective_batch = 1.0
        dec = decode_stage(effective_batch)

    rotation_pure = rotation_of(dec)
    tpot = rotation_pure * slowdown

    # --- peak capacity (the "throughput" objective) -----------------------
    # At saturation the replica holds the capacity batch and each request
    # amortises one prefill: lambda_max = B / (out * TPOT_pure(B) + B * t_pf).
    if cap_stage is not None:
        tokens_capacity_replica = (
            capacity_batch
            * serving.output_tokens
            / (serving.output_tokens * rotation_of(cap_stage) + capacity_batch * t_pf_stage)
        )
    else:
        tokens_capacity_replica = 0.0
    tokens_per_s_per_gpu = tokens_capacity_replica * nd / config.total_gpus

    # --- SLO targets -------------------------------------------------------
    if feasible and serving.target_ttft is not None and ttft > serving.target_ttft:
        feasible = False
        reason = f"TTFT {ttft:.3f} s exceeds target {serving.target_ttft:.3f} s"
    if feasible and serving.target_tpot is not None and tpot > serving.target_tpot:
        feasible = False
        reason = f"TPOT {tpot:.4f} s exceeds target {serving.target_tpot:.4f} s"

    kv_resident = effective_batch * kv_cache_bytes_per_sequence(
        model, config, int(math.ceil(serving.mean_context_tokens)), serving.kv_block_tokens
    )

    # --- the cost plan: one request's lifetime ----------------------------
    # ``dec`` already holds the decode stage times at the effective batch.
    out = serving.output_tokens
    interference = tpot - rotation_pure if math.isfinite(tpot) else 0.0
    phases: List[CostPhase] = [
        CostPhase("prefill.compute", CATEGORY_COMPUTE, pf_flop, count=np_),
        CostPhase("prefill.hbm", CATEGORY_MEMORY, pf_mem, count=np_),
        CostPhase("prefill.tp_comm", CATEGORY_TP_COMM, pf_tp_comm, count=np_),
    ]
    if np_ > 1:
        phases.append(CostPhase("prefill.p2p", CATEGORY_PP_COMM, pf_p2p, count=np_ - 1))
    phases.extend(
        [
            CostPhase("decode.compute", CATEGORY_COMPUTE, np_ * dec.flop, count=out),
            CostPhase("decode.hbm", CATEGORY_MEMORY, np_ * dec.mem_exposed, count=out),
            CostPhase("decode.tp_comm", CATEGORY_TP_COMM, np_ * dec.tp_comm, count=out),
        ]
    )
    if np_ > 1:
        phases.append(CostPhase("decode.p2p", CATEGORY_PP_COMM, np_ * dec.p2p, count=out))
    if interference > 0.0 and math.isfinite(interference):
        phases.append(
            CostPhase("decode.prefill_interference", CATEGORY_PP_BUBBLE, interference, count=out)
        )
    phases.append(CostPhase("state.weights", CATEGORY_STATE, 0.0, memory_bytes=weight_bytes))
    phases.append(CostPhase("state.kv_cache", CATEGORY_STATE, 0.0, memory_bytes=kv_resident))

    plan = ExecutionPlan(
        schedule=SERVING_SCHEDULE,
        virtual_stages=1,
        num_stages=np_,
        num_microbatches=np_,  # round-robin decode groups in flight
        phases=tuple(phases),
        backend=pricer.name,
    )

    return ServingEstimate(
        model_name=model.name,
        system_name=system.name,
        config=config,
        assignment=assignment,
        serving=serving,
        ttft=ttft,
        tpot=tpot,
        tokens_per_s_per_gpu=tokens_per_s_per_gpu,
        effective_batch=effective_batch,
        capacity_batch=capacity_batch,
        prefill_utilization=prefill_utilization,
        kv_cache_bytes=kv_resident,
        weight_bytes=weight_bytes,
        feasible=feasible,
        infeasible_reason=reason,
        plan=plan,
        backend=pricer.name,
    )


def evaluate_serving_config(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment | None = None,
    *,
    serving: ServingSpec,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> ServingEstimate:
    """Estimate TTFT/TPOT/throughput of one configuration in serving mode.

    Mirrors :func:`repro.core.execution.evaluate_config`: raises
    ``ValueError`` for structurally invalid candidates, returns an estimate
    flagged infeasible when the candidate is valid but cannot hold a single
    sequence's KV cache or cannot sustain the offered arrival rate.
    """
    assignment = assignment or GpuAssignment()
    prefill_model = model.scaled(seq_len=serving.prompt_tokens)
    _validate_serving_candidate(prefill_model, system, config, assignment)
    pricer = get_backend(backend)(system)
    return _evaluate_serving(
        model, prefill_model, system, config, assignment, serving, options, pricer
    )


def serving_objective_bound(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    *,
    serving: ServingSpec,
    objective: str,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> Tuple[float, bool]:
    """Assignment-independent bound on ``objective`` for ``config``.

    Prices the candidate with zero-cost communication
    (:class:`_FreeCommPricer`): an upper bound for the maximised
    ``throughput`` objective, a lower bound for the minimised latency
    objectives, in both cases admissible over every NVS assignment.  The
    returned flag is the bound evaluation's feasibility — ``False`` proves
    every assignment infeasible (communication can only make things
    worse), so the search drops the candidate outright.
    """
    if objective not in SERVING_OBJECTIVES:
        raise ValueError(
            f"unknown serving objective {objective!r}; expected one of {SERVING_OBJECTIVES}"
        )
    prefill_model = model.scaled(seq_len=serving.prompt_tokens)
    return _serving_bound(model, prefill_model, system, config, serving, objective, options)


def _serving_bound(
    model: TransformerConfig,
    prefill_model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    serving: ServingSpec,
    objective: str,
    options: ModelingOptions,
) -> Tuple[float, bool]:
    """:func:`serving_objective_bound` of a known objective and prefill model."""
    assignment = GpuAssignment()
    _validate_serving_candidate(prefill_model, system, config, assignment)
    est = _evaluate_serving(
        model, prefill_model, system, config, assignment, serving, options,
        _FreeCommPricer(system),
    )
    return est.objective_value(objective), est.feasible


# ----------------------------------------------------------------------
# Serving search
# ----------------------------------------------------------------------

@dataclass
class ServingSearchResult:
    """Outcome of :func:`find_serving_config`."""

    model_name: str
    system_name: str
    n_gpus: int
    objective: str
    serving: ServingSpec
    best: Optional[ServingEstimate]
    top_k: List[ServingEstimate]
    statistics: SearchStatistics
    backend: str = DEFAULT_BACKEND

    @property
    def found(self) -> bool:
        """True when at least one feasible serving configuration exists."""
        return self.best is not None

    @property
    def best_value(self) -> float:
        """Objective value of the best configuration (``nan`` if none)."""
        if self.best is None:
            return math.nan
        return self.best.objective_value(self.objective)

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports and JSON archives."""
        out: Dict[str, object] = {
            "model": self.model_name,
            "system": self.system_name,
            "n_gpus": self.n_gpus,
            "objective": self.objective,
            "found": self.found,
            "configs_searched": self.statistics.parallel_configs,
            "candidates_evaluated": self.statistics.candidates_evaluated,
            "pruned_configs": self.statistics.pruned_configs,
        }
        out.update({f"serving_{k}": v for k, v in self.serving.describe().items()})
        if self.best is not None:
            out.update(self.best.summary())
        return out


def _serving_space(space: SearchSpace) -> SearchSpace:
    """Search-space view of ``space`` for serving enumeration.

    The training-only axes collapse: serving has no microbatch size (the
    decode batch is an outcome, not a knob), no training pipeline schedule
    (decode always round-robins) and no interleaving.
    """
    return replace(
        space,
        microbatch_sizes=(1,),
        schedules=(DEFAULT_SCHEDULE,),
        virtual_stages=(1,),
    )


def find_serving_config(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    *,
    serving: ServingSpec,
    objective: str = "throughput",
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    top_k: int = 0,
    backend: str = DEFAULT_BACKEND,
    warm_hints: Sequence = (),
) -> ServingSearchResult:
    """Search the EP/TP/PP/DP space for the best serving configuration.

    Enumerates parallelizations with the same machinery as the training
    search (:func:`repro.core.config_space.parallel_configs`, restricted to
    the 1D tensor-parallel strategy decode uses), pre-filters with the
    assignment-independent zero-communication evaluation, orders the
    NVS-assignment loops best-bound-first and prunes every candidate whose
    bound cannot beat the incumbent — provably never changing the selected
    optimum (or the top-k set), exactly like the training branch-and-bound
    (both run :func:`repro.core.search.branch_and_bound`).

    ``objective`` selects what "best" means: ``"throughput"`` maximises
    sustainable tokens/s/GPU; ``"ttft"`` / ``"tpot"`` minimise the latency
    terms.  Infeasible candidates (KV capacity, prefill saturation,
    arrival-rate overload, SLO targets) never win.

    The serving search prices per candidate: a candidate's cost is the
    scalar continuous-batching fixed point, whose iterations depend on each
    other.  Every iteration, and the bound's, prices its decode step from
    the candidate's memoized decode-layer table (:class:`_DecodeLayerTable`,
    one per model, GPU, ``n1`` and context) without building an op list.
    ``top_k`` is the size of the returned leaderboard (0: the winner only);
    a negative value raises ``ValueError``.

    ``warm_hints`` seeds the branch-and-bound exactly like the training
    search (:func:`repro.core.search.find_optimal_config`): hints — usually
    a neighboring request's winner — are adapted into the serving space,
    evaluated at this point first, and the best feasible *score* (the
    sign-adjusted objective, so the maximised throughput seeds correctly)
    opens the pruning threshold.  The selected optimum and top-k set are
    bit-identical to a cold search.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if objective not in SERVING_OBJECTIVES:
        raise ValueError(
            f"unknown serving objective {objective!r}; expected one of {SERVING_OBJECTIVES}"
        )
    caches_before = cache_stats()
    serving_space = _serving_space(space)
    # The enumeration must apply the *prompt's* divisibility rules (the
    # prefill sequence is what tensor parallelism shards at inference).
    prefill_model = model.scaled(seq_len=serving.prompt_tokens)
    prune = space.prune_with_lower_bound and backend == DEFAULT_BACKEND
    sign = -1.0 if objective == "throughput" else 1.0
    pricer = get_backend(backend)(system)

    def evaluate(config: ParallelConfig, assignment: GpuAssignment) -> ServingEstimate:
        """Serving estimate of one candidate."""
        return _evaluate_serving(
            model, prefill_model, system, config, assignment, serving, options, pricer
        )

    def evaluate_hint(config: ParallelConfig, assignment: GpuAssignment):
        """:func:`evaluate`, or ``None`` for a structurally invalid hint.

        Pass 1 rejects such parallelizations before pass 2 prices them; a
        warm hint has no such filter.
        """
        try:
            return evaluate(config, assignment)
        except ValueError:
            return None

    def score(est: Optional[ServingEstimate]) -> Optional[float]:
        """Sign-adjusted objective (the kernel minimises); ``None`` if infeasible."""
        if est is None or not est.feasible:
            return None
        return sign * est.objective_value(objective)

    price = CandidatePricer(evaluate, score, system.nvs_domain_size, serving_space)
    incumbent = BestK(top_k, prune)

    seeded = SearchStatistics()
    if warm_hints and prune and incumbent.best_only:
        seeded = warm_seed(
            CandidatePricer(evaluate_hint, score, system.nvs_domain_size, serving_space),
            incumbent,
            prefill_model, n_gpus, n_gpus, "tp1d", serving_space, warm_hints,
        )

    # Pass 1: the zero-communication evaluation doubles as the memory /
    # saturation pre-filter (bound-infeasibility is assignment-independent)
    # and, when pruning, as the candidate ordering score.
    survivors: List[Survivor] = []
    n_parallel = n_mem = n_other = n_bounds = 0
    for rank, config in enumerate(
        parallel_configs(prefill_model, n_gpus, n_gpus, "tp1d", serving_space)
    ):
        n_parallel += 1
        try:
            bound_value, bound_feasible = _serving_bound(
                model, prefill_model, system, config, serving, objective, options
            )
            n_bounds += 1
        except ValueError:
            n_other += 1
            continue
        if not bound_feasible:
            n_mem += 1
            continue
        survivors.append(Survivor(sign * bound_value, rank, config))
    if prune:
        survivors.sort(key=lambda item: item.bound)
    searched = branch_and_bound(survivors, price, incumbent)

    return ServingSearchResult(
        model_name=model.name,
        system_name=system.name,
        n_gpus=n_gpus,
        objective=objective,
        serving=serving,
        best=incumbent.best.estimate if incumbent.best is not None else None,
        top_k=[winner.estimate for winner in incumbent.leaderboard()],
        statistics=search_statistics(
            caches_before, seeded, searched,
            parallel_configs=n_parallel,
            infeasible_memory=n_mem,
            infeasible_other=n_other,
            bounds_computed=n_bounds,
        ),
        backend=backend,
    )
