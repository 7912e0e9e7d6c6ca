"""Pluggable workload registry: named training scenarios as an extension point.

The paper studies exactly two dense workloads (GPT3-1T and a long-sequence
ViT).  This module turns the "model preset" idea into a registry so that new
scenarios — mixture-of-experts transformers, grouped-query-attention LLMs,
future multimodal variants — can be added (by this repo or by downstream
users) without touching the performance model:

>>> from repro.core.workloads import get_workload, register_workload, WorkloadSpec
>>> get_workload("moe-1t").model.num_experts
32
>>> spec = WorkloadSpec(
...     name="my-model",
...     model=TransformerConfig(name="MY", seq_len=2048, embed_dim=4096,
...                             num_heads=32, depth=32),
...     description="downstream experiment",
... )
>>> _ = register_workload(spec)

Every workload the CLI exposes through ``--workload`` (and, for backwards
compatibility, ``--model``) resolves through this registry; the paper's
original presets from :mod:`repro.core.model` are registered on import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.inference import ServingSpec
from repro.core.model import MODEL_CATALOG, TransformerConfig


@dataclass(frozen=True)
class WorkloadSpec:
    """A named training scenario: an architecture plus registry metadata.

    Parameters
    ----------
    name:
        Registry key (matched case-insensitively by :func:`get_workload`).
    model:
        The transformer architecture of the workload.
    description:
        One-line summary shown by ``repro-perf workloads``.
    tags:
        Free-form labels (``"paper"``, ``"moe"``, ``"gqa"``, ``"serve"``,
        ...) used for filtering in reports.
    default_global_batch:
        Global batch size typical for the workload (the paper uses 4096).
    pipeline_schedule:
        Default pipeline schedule for the workload (a registry name from
        :mod:`repro.core.schedules`); the CLI's ``--schedule`` flag
        overrides it.
    virtual_stages:
        Default virtual-stage degree for interleaving schedules.
    serving:
        Default serving scenario (traffic mix, KV paging, SLO targets) for
        ``repro-perf serve``; ``None`` for training-only workloads (the
        serve command then starts from :class:`~repro.core.inference.ServingSpec`
        defaults).  CLI flags override individual fields.
    """

    name: str
    model: TransformerConfig
    description: str = ""
    tags: Tuple[str, ...] = field(default_factory=tuple)
    default_global_batch: int = 4096
    pipeline_schedule: str = "1f1b"
    virtual_stages: int = 1
    serving: Optional[ServingSpec] = None

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("workload name must be non-empty")
        if not self.pipeline_schedule.strip():
            raise ValueError("workload pipeline_schedule must be non-empty")
        if self.virtual_stages < 1:
            raise ValueError("workload virtual_stages must be >= 1")
        object.__setattr__(self, "tags", tuple(self.tags))

    def summary(self) -> Dict[str, object]:
        """Flat description used by the CLI listing."""
        out: Dict[str, object] = {
            "workload": self.name,
            "description": self.description,
            "tags": ",".join(self.tags),
            "global_batch": self.default_global_batch,
            "schedule": self.pipeline_schedule
            + (f"(v={self.virtual_stages})" if self.virtual_stages > 1 else ""),
        }
        out.update(self.model.describe())
        if self.serving is not None:
            out.update({f"serving_{k}": v for k, v in self.serving.describe().items()})
        return out


#: Registry of workload specs keyed by their lower-cased name.
WORKLOAD_REGISTRY: Dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec, *, aliases: Sequence[str] = ()) -> WorkloadSpec:
    """Register ``spec`` (and optional aliases) for lookup by name.

    Re-registering a name overwrites the previous entry, so downstream code
    can shadow a built-in scenario with a tweaked variant.
    """
    for key in (spec.name, *aliases):
        WORKLOAD_REGISTRY[key.strip().lower()] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload by (case-insensitive) name.

    The only name lookup: :func:`~repro.core.model.get_model` resolves
    through it too.  Every :data:`~repro.core.model.MODEL_CATALOG` preset is
    registered on import, so every name ``--model`` ever accepted resolves
    here, and a re-registered name resolves to its latest spec everywhere.
    """
    key = name.strip().lower()
    if key in WORKLOAD_REGISTRY:
        return WORKLOAD_REGISTRY[key]
    raise KeyError(
        f"unknown workload {name!r}; available: {available_workloads()}"
    )


def available_workloads() -> Tuple[str, ...]:
    """Sorted names of every registered workload."""
    return tuple(sorted(WORKLOAD_REGISTRY))


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------

# The paper's own models, re-exported through the registry.
_PAPER_DESCRIPTIONS = {
    "gpt3-1t": "paper's 1T-parameter GPT-3 style LLM (dense, MHA)",
    "vit": "paper's long-sequence ViT (ERA5, 64800 patches)",
    "vit-long": "alias of 'vit'",
    "gpt3-175b": "paper's Megatron-LM validation GPT3-175B",
    "vit-32k": "paper's Megatron-LM validation 32K-sequence ViT",
}
for _name, _model in MODEL_CATALOG.items():
    register_workload(
        WorkloadSpec(
            name=_name,
            model=_model,
            description=_PAPER_DESCRIPTIONS.get(_name, ""),
            tags=("paper", "dense"),
        )
    )

#: ~1T-total-parameter mixture-of-experts LLM with grouped-query attention:
#: 32 experts, top-2 routing, 8 KV heads — representative of modern MoE
#: pre-training (Mixtral/DeepSeek-style scaled up).  Total params ≈ 1.1T,
#: active params per token ≈ 90B.
MOE_1T = TransformerConfig(
    name="MoE-1T",
    seq_len=4096,
    embed_dim=8192,
    num_heads=64,
    kv_heads=8,
    depth=64,
    num_experts=32,
    moe_top_k=2,
)
register_workload(
    WorkloadSpec(
        name="moe-1t",
        model=MOE_1T,
        description="1T-total-param MoE LLM (32 experts, top-2, GQA 8 KV heads)",
        tags=("moe", "gqa"),
    )
)

#: Mixtral-8x7B-shaped MoE (8 experts, top-2, GQA) — a smaller scenario that
#: fits modest clusters; useful for examples and tests.
MOE_MIXTRAL = TransformerConfig(
    name="MoE-Mixtral-8x7B",
    seq_len=4096,
    embed_dim=4096,
    num_heads=32,
    kv_heads=8,
    depth=32,
    hidden_dim=14336,
    num_experts=8,
    moe_top_k=2,
)
register_workload(
    WorkloadSpec(
        name="moe-mixtral",
        model=MOE_MIXTRAL,
        description="Mixtral-8x7B-shaped MoE (8 experts, top-2, GQA 8 KV heads)",
        tags=("moe", "gqa"),
    )
)

#: The paper's GPT3-1T under the interleaved-1F1B schedule with two virtual
#: stages per GPU: halves the pipeline bubble at the price of doubled P2P
#: traffic — the Megatron-LM production configuration the paper's 1F1B
#: baseline is usually compared against.
register_workload(
    WorkloadSpec(
        name="gpt3-1t-interleaved",
        model=MODEL_CATALOG["gpt3-1t"],
        description="GPT3-1T under interleaved 1F1B (2 virtual stages)",
        tags=("paper", "dense", "schedule"),
        pipeline_schedule="interleaved",
        virtual_stages=2,
    )
)

#: GPT3-1T with grouped-query attention (8 KV heads): isolates the GQA axis
#: against the paper's dense baseline.
GPT3_1T_GQA = TransformerConfig(
    name="GPT3-1T-GQA",
    seq_len=2048,
    embed_dim=25600,
    num_heads=160,
    kv_heads=8,
    depth=128,
)
register_workload(
    WorkloadSpec(
        name="gpt3-1t-gqa",
        model=GPT3_1T_GQA,
        description="GPT3-1T with grouped-query attention (8 KV heads)",
        tags=("gqa",),
    )
)

# ----------------------------------------------------------------------
# Inference-serving scenarios (repro-perf serve)
# ----------------------------------------------------------------------

#: Llama-2-70B-shaped dense LLM with grouped-query attention — the
#: canonical open-weights serving workload (80 layers, 8 KV heads).  The
#: model's MLP is a 2-matmul GeLU block, so Llama's 3-matrix SwiGLU
#: (gate/up/down, 28672 wide) is folded into an equivalent hidden width of
#: ``1.5 * 28672 = 43008`` — same parameter count (~69B) and same weight
#: bytes per decode step, which is what the serving model prices.
#: ``seq_len`` is the training context; serving prompt/output lengths come
#: from the :class:`~repro.core.inference.ServingSpec`.
LLAMA_70B = TransformerConfig(
    name="Llama-70B",
    seq_len=4096,
    embed_dim=8192,
    num_heads=64,
    kv_heads=8,
    depth=80,
    hidden_dim=43008,
)
register_workload(
    WorkloadSpec(
        name="llama70b-serve",
        model=LLAMA_70B,
        description="Llama-70B chat serving (2K prompt, 256 out, GQA 8 KV heads)",
        tags=("serve", "gqa", "dense"),
        serving=ServingSpec(
            arrival_rate=16.0,
            prompt_tokens=2048,
            output_tokens=256,
            kv_block_tokens=16,
            max_batch_per_replica=256,
        ),
    )
)

#: Mixtral-8x7B serving: the MoE twin of ``llama70b-serve`` — decode reads
#: only the routed top-2 experts' weights but must hold all 8 per EP shard,
#: making the expert-parallel degree a live serving trade-off.
register_workload(
    WorkloadSpec(
        name="moe-mixtral-serve",
        model=MOE_MIXTRAL,
        description="Mixtral-8x7B MoE serving (2K prompt, 512 out, top-2 routing)",
        tags=("serve", "moe", "gqa"),
        serving=ServingSpec(
            arrival_rate=16.0,
            prompt_tokens=2048,
            output_tokens=512,
            kv_block_tokens=16,
            max_batch_per_replica=256,
        ),
    )
)


def scenario_space(
    workload: str,
    *,
    schedule: Optional[str] = None,
    virtual_stages: Optional[int] = None,
    expert_parallel: Optional[int] = None,
):
    """Search space for ``workload`` with scenario overrides applied.

    Shared request-resolution logic of every front-end (the CLI's scenario
    flags and the JSON API's request fields): starts from
    :data:`~repro.core.config_space.DEFAULT_SEARCH_SPACE`, applies the
    workload preset's pipeline schedule / virtual-stage degree, then the
    explicit overrides.  With no overrides and a default-schedule workload
    the default space is returned unchanged, so every reproduced figure is
    unaffected.

    Raises ``KeyError`` for an unknown workload (from :func:`get_workload`)
    and ``ValueError`` for an unknown or unusable schedule / virtual-stage
    combination; front-ends translate these into usage errors.
    """
    from dataclasses import replace as _replace

    from repro.core.config_space import DEFAULT_SEARCH_SPACE
    from repro.core.schedules import (
        DEFAULT_SCHEDULE,
        available_schedules,
        get_schedule,
    )

    overrides: Dict[str, object] = {}
    if expert_parallel is not None:
        if expert_parallel < 1:
            raise ValueError("expert_parallel must be >= 1")
        overrides["expert_parallel"] = (expert_parallel,)

    spec = get_workload(workload)
    schedule_name = schedule or spec.pipeline_schedule
    virtual = virtual_stages
    if virtual is None:
        # The preset's virtual-stage degree belongs to the preset's own
        # schedule: an explicit schedule override drops it (back to 1)
        # unless the override names the same schedule, so e.g. the
        # gpt3-1t-interleaved preset searched under 1f1b just works.
        if schedule is None or schedule == spec.pipeline_schedule:
            virtual = spec.virtual_stages
        else:
            virtual = 1
    try:
        resolved = get_schedule(schedule_name)
    except KeyError:
        raise ValueError(
            f"unknown schedule {schedule_name!r}; "
            f"available: {', '.join(available_schedules())}"
        ) from None
    if not resolved.supports_training:
        raise ValueError(
            f"schedule {resolved.name!r} is serving-only (training schedules: "
            + ", ".join(s for s in available_schedules() if get_schedule(s).supports_training)
            + ")"
        )
    if virtual < 1:
        raise ValueError("virtual_stages must be >= 1")
    if virtual > 1 and not resolved.supports_virtual_stages:
        raise ValueError(
            f"schedule {resolved.name!r} does not support virtual_stages={virtual}; "
            f"use the interleaved schedule"
        )
    if resolved.name != DEFAULT_SCHEDULE:
        overrides["schedules"] = (resolved.name,)
    if virtual != 1:
        overrides["virtual_stages"] = (virtual,)

    if not overrides:
        return DEFAULT_SEARCH_SPACE
    return _replace(DEFAULT_SEARCH_SPACE, **overrides)
