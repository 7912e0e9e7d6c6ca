"""Reference decode step for the serving equivalence tests.

:mod:`repro.core.inference` prices a decode step from a memoized
decode-layer table that builds no op objects.  This module keeps the
straightforward path as the oracle: build the layer's :class:`ComputeOp` and
:class:`CommOp` lists, price the ops with
:func:`~repro.core.roofline.ops_time` and the collectives with
:func:`~repro.core.execution._comm_time`, resolving each group's placement
per collective.  The tests require bit-equal stage times and equal
:class:`~repro.core.inference.ServingEstimate` objects from the two paths.
"""

from typing import List, Tuple

from repro.core.backends import CostPricer
from repro.core.execution import ModelingOptions, _comm_time, _group_placement
from repro.core.inference import (
    _DECODE_FUSED_KERNELS_MOE_EXTRA,
    _DECODE_FUSED_KERNELS_PER_LAYER,
    _DecodeStageTimes,
)
from repro.core.model import TransformerConfig
from repro.core.operations import (
    AttentionShape,
    CommOp,
    ComputeOp,
    flash_attention_forward,
    gelu_op,
    layernorm_op,
    matmul_op,
    softmax_op,
)
from repro.core.parallelism.base import (
    GROUP_EP,
    GROUP_PP,
    GROUP_TP1,
    GpuAssignment,
    ParallelConfig,
)
from repro.core.parallelism.pipeline import layers_per_stage
from repro.core.roofline import RooflineTime, ops_time
from repro.core.system import SystemSpec

#: MLP ops that scale with the routed expert count for MoE decode (same
#: convention as the training transform in
#: :mod:`repro.core.parallelism.expert`).
_EXPERT_OP_PREFIXES = ("mlp.up_proj", "mlp.gelu", "mlp.down_proj")


def decode_layer(
    model: TransformerConfig,
    config: ParallelConfig,
    group_sequences: float,
    context_tokens: float,
    *,
    flash_attention: bool = True,
) -> Tuple[List[ComputeOp], List[CommOp]]:
    """Per-layer decode-step ops and collectives for ``group_sequences``.

    Mirrors the tp1d forward structure with the sequence length replaced by
    the ``g`` new tokens of the decode group, plus a Logit-Attend whose K/V
    operands are the cached ``context_tokens`` keys/values.
    """
    g = float(group_sequences)
    if g <= 0:
        raise ValueError("group_sequences must be positive")
    if context_tokens <= 0:
        raise ValueError("context_tokens must be positive")
    e, f, h = float(model.embed_dim), float(model.hidden_dim), float(model.num_heads)
    eh = float(model.head_dim)
    nt = float(config.tensor_parallel_1)
    kvd = float(model.kv_dim)
    dt = model.dtype_bytes

    ops: List[ComputeOp] = []
    comms: List[CommOp] = []

    # ---------------- Self-attention ----------------
    ops.append(layernorm_op(g * e / nt, name="sa.layernorm", dtype_bytes=dt))
    comms.append(CommOp("sa.ag_x", "all_gather", dt * g * e, GROUP_TP1))
    for proj, out_dim in (("q", e), ("k", kvd), ("v", kvd)):
        ops.append(
            matmul_op(
                f"sa.{proj}_proj", g, e, out_dim / nt, dtype_bytes=dt, shared_operand_b=True
            )
        )
    ops.extend(
        flash_attention_forward(
            AttentionShape(
                batch=g,
                heads=h / nt,
                q_rows=1.0,
                kv_rows=float(context_tokens),
                head_dim=eh,
                kv_heads=float(model.kv_heads) / nt,
            ),
            dtype_bytes=dt,
            fused=flash_attention,
        )
    )
    ops.append(matmul_op("sa.out_proj", g, e / nt, e, dtype_bytes=dt, shared_operand_b=True))
    comms.append(CommOp("sa.rs_y", "reduce_scatter", dt * g * e, GROUP_TP1))

    # ---------------- MLP ----------------
    ops.append(layernorm_op(g * e / nt, name="mlp.layernorm", dtype_bytes=dt))
    comms.append(CommOp("mlp.ag_y", "all_gather", dt * g * e, GROUP_TP1))
    ops.append(matmul_op("mlp.up_proj", g, e, f / nt, dtype_bytes=dt, shared_operand_b=True))
    ops.append(gelu_op(g * f / nt, name="mlp.gelu", dtype_bytes=dt))
    ops.append(matmul_op("mlp.down_proj", g, f / nt, e, dtype_bytes=dt, shared_operand_b=True))
    comms.append(CommOp("mlp.rs_out", "reduce_scatter", dt * g * e, GROUP_TP1))

    if model.is_moe:
        k = model.moe_top_k
        experts = float(model.num_experts)
        ops = [
            op.scaled(float(k)) if op.name.startswith(_EXPERT_OP_PREFIXES) else op
            for op in ops
        ]
        router_rows = g / nt
        ops.append(
            matmul_op("moe.router", router_rows, e, experts, dtype_bytes=dt, shared_operand_b=True)
        )
        ops.append(softmax_op(router_rows * experts, name="moe.router_softmax", dtype_bytes=dt))
        a2a_bytes = dt * g * k * e / nt
        comms.append(CommOp("moe.dispatch", "all_to_all", a2a_bytes, GROUP_EP))
        comms.append(CommOp("moe.combine", "all_to_all", a2a_bytes, GROUP_EP))

    return ops, comms


def decode_stage_times(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignment: GpuAssignment,
    group_sequences: float,
    context_tokens: float,
    options: ModelingOptions,
    pricer: CostPricer,
) -> _DecodeStageTimes:
    """Roofline + collective times of one pipeline stage's decode step."""
    ops, comms = decode_layer(
        model,
        config,
        group_sequences,
        context_tokens,
        flash_attention=options.flash_attention,
    )
    stage_layers = layers_per_stage(model, config)
    rt = ops_time(ops, system.gpu, include_latency=False)
    if options.include_flop_latency:
        launches = _DECODE_FUSED_KERNELS_PER_LAYER + (
            _DECODE_FUSED_KERNELS_MOE_EXTRA if model.is_moe else 0.0
        )
        rt = rt + RooflineTime(
            flop_time=launches * system.gpu.flops_latency,
            memory_time=launches * system.gpu.flops_latency,
        )
    tp_comm = _comm_time(tuple(comms), config, assignment, pricer)
    p2p = 0.0
    if config.pipeline_parallel > 1:
        placement = _group_placement(GROUP_PP, config, assignment)
        p2p = pricer.p2p(model.dtype_bytes * group_sequences * model.embed_dim, placement)
    return _DecodeStageTimes(
        flop=rt.flop_time * stage_layers,
        mem_exposed=rt.exposed_memory_time * stage_layers,
        tp_comm=tp_comm * stage_layers,
        p2p=p2p,
    )


class OracleDecodeStep:
    """Drop-in for ``inference._DecodeStep`` that prices through the oracle.

    Patching it over ``repro.core.inference._DecodeStep`` makes every
    serving evaluation build its estimate from :func:`decode_stage_times`.
    """

    def __init__(self, model, system, config, assignment, context_tokens, options, pricer):
        self.args = (model, system, config, assignment)
        self.context_tokens = context_tokens
        self.options = options
        self.pricer = pricer
        self.pp = (
            _group_placement(GROUP_PP, config, assignment)
            if config.pipeline_parallel > 1
            else None
        )

    def stage_times(self, g: float) -> _DecodeStageTimes:
        """The oracle's stage times at decode group size ``g``."""
        return decode_stage_times(
            *self.args, g, self.context_tokens, self.options, self.pricer
        )
