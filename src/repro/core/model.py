"""Transformer architecture descriptions.

The performance model needs only the coarse architectural hyper-parameters
of the transformer (§III of the paper): batch size ``b``, sequence length
``l``, embedding dimension ``e``, hidden (MLP) dimension ``f`` (typically
``4e``), number of attention heads ``h`` and depth ``d``.

Two model classes are studied in the paper:

* ``GPT3-1T`` — a 1-trillion-parameter LLM with a short sequence
  (``l=2048, e=25600, h=160, d=128``), representative of foundation LLM
  pre-training, with an MLP:attention FLOP ratio of roughly 2x.
* ``VIT`` — a long-sequence vision transformer
  (``l=64800, e=12288, h=64, d=48``) representative of scientific foundation
  models (e.g. ERA5 weather models at 720x1440 resolution with patch size 4),
  with an MLP:attention FLOP ratio of roughly 0.5x.

Additional presets cover the models used in the paper's empirical-validation
section (GPT3-175B and a 32K-sequence ViT trained on 512 A100 GPUs).

Beyond the paper's two dense workloads, the architecture description carries
three optional scenario dimensions (all defaulting to the dense/MHA model the
paper studies, with *exact* reduction to it at the defaults):

* **grouped-query attention** — ``kv_heads < num_heads`` shares each K/V head
  across a group of query heads (``kv_heads=1`` is multi-query attention),
  shrinking the K/V projections, their activations and their communication;
* **mixture-of-experts** — ``num_experts > 1`` replaces the dense MLP with
  ``num_experts`` expert MLPs of which ``moe_top_k`` are active per token,
  multiplying MLP parameters by the expert count while scaling MLP FLOPs only
  by ``moe_top_k``.

The named presets themselves live in the pluggable workload registry
(:mod:`repro.core.workloads`); the catalogue kept here covers the paper's
original models and stays for backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class TransformerConfig:
    """Architectural description of a (pre-LN) transformer.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports.
    seq_len:
        Sequence length ``l`` (tokens for NLP, patches/pixels for vision).
    embed_dim:
        Embedding dimension ``e``.
    num_heads:
        Number of attention heads ``h`` (must divide ``embed_dim``).
    depth:
        Number of transformer blocks ``d``.
    hidden_dim:
        MLP hidden dimension ``f``; defaults to ``4 * embed_dim``.
    vocab_size:
        Vocabulary size for the (optional) embedding/unembedding layers.  The
        paper's model ignores the embedding cost (negligible at these scales)
        so it defaults to 0 and only contributes to the parameter count when
        explicitly set.
    dtype_bytes:
        Bytes per element of activations/weights (2 for FP16/BF16 mixed
        precision, which the paper assumes throughout).
    kv_heads:
        Number of key/value heads for grouped-query attention; must divide
        ``num_heads``.  Defaults to 0, meaning ``num_heads`` (standard
        multi-head attention); 1 is multi-query attention.
    num_experts:
        Number of MLP experts; 1 (the default) is the dense model.
    moe_top_k:
        Experts activated per token when ``num_experts > 1``.
    """

    name: str
    seq_len: int
    embed_dim: int
    num_heads: int
    depth: int
    hidden_dim: int = 0
    vocab_size: int = 0
    dtype_bytes: int = 2
    kv_heads: int = 0
    num_experts: int = 1
    moe_top_k: int = 1

    def __post_init__(self) -> None:
        if self.hidden_dim == 0:
            object.__setattr__(self, "hidden_dim", 4 * self.embed_dim)
        if self.kv_heads == 0:
            object.__setattr__(self, "kv_heads", self.num_heads)
        if self.seq_len <= 0 or self.embed_dim <= 0 or self.depth <= 0:
            raise ValueError("seq_len, embed_dim and depth must be positive")
        if self.num_heads <= 0 or self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"num_heads ({self.num_heads}) must divide embed_dim ({self.embed_dim})"
            )
        if self.kv_heads <= 0 or self.num_heads % self.kv_heads != 0:
            raise ValueError(
                f"kv_heads ({self.kv_heads}) must divide num_heads ({self.num_heads})"
            )
        if self.num_experts < 1:
            raise ValueError(f"num_experts ({self.num_experts}) must be >= 1")
        if not 1 <= self.moe_top_k <= self.num_experts:
            raise ValueError(
                f"moe_top_k ({self.moe_top_k}) must be in [1, num_experts={self.num_experts}]"
            )
        if self.dtype_bytes not in (1, 2, 4, 8):
            raise ValueError(f"unsupported dtype_bytes {self.dtype_bytes}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        """Per-head dimension ``e_h = e / h``."""
        return self.embed_dim // self.num_heads

    @property
    def kv_dim(self) -> int:
        """Total K (or V) projection width ``kv_heads * head_dim`` (= ``e`` for MHA)."""
        return self.kv_heads * self.head_dim

    @property
    def is_moe(self) -> bool:
        """True when the MLP is a mixture of experts (``num_experts > 1``)."""
        return self.num_experts > 1

    @property
    def attention_params_per_layer(self) -> int:
        """Parameters of the self-attention block (W_Q, W_K, W_V, W_p + biases).

        With grouped-query attention the K and V projections produce only
        ``kv_heads * head_dim`` columns instead of ``e``.
        """
        e, kv = self.embed_dim, self.kv_dim
        return 2 * e * e + 2 * e * kv + 2 * e + 2 * kv

    @property
    def router_params_per_layer(self) -> int:
        """Parameters of the MoE router/gate (0 for the dense model)."""
        return self.embed_dim * self.num_experts if self.is_moe else 0

    @property
    def expert_mlp_params(self) -> int:
        """Parameters of a single expert MLP (W_1, W_2 + biases)."""
        e, f = self.embed_dim, self.hidden_dim
        return 2 * e * f + f + e

    @property
    def mlp_params_per_layer(self) -> int:
        """Parameters of the MLP block: all experts plus the router."""
        return self.num_experts * self.expert_mlp_params + self.router_params_per_layer

    @property
    def layernorm_params_per_layer(self) -> int:
        """Parameters of the two LayerNorms (scale + shift each)."""
        return 4 * self.embed_dim

    @property
    def params_per_layer(self) -> int:
        """Total parameters in one transformer block."""
        return (
            self.attention_params_per_layer
            + self.mlp_params_per_layer
            + self.layernorm_params_per_layer
        )

    @property
    def embedding_params(self) -> int:
        """Parameters in the token-embedding table (0 unless ``vocab_size`` set)."""
        return self.vocab_size * self.embed_dim

    @property
    def total_params(self) -> int:
        """Total parameter count of the model."""
        return self.depth * self.params_per_layer + self.embedding_params

    @property
    def active_params_per_layer(self) -> int:
        """Parameters touched by one token: ``moe_top_k`` experts instead of all."""
        return (
            self.attention_params_per_layer
            + self.layernorm_params_per_layer
            + self.moe_top_k * self.expert_mlp_params
            + self.router_params_per_layer
        )

    @property
    def active_params(self) -> int:
        """Per-token active parameter count (= ``total_params`` for dense models)."""
        return self.depth * self.active_params_per_layer + self.embedding_params

    # ------------------------------------------------------------------
    # FLOP accounting at the model level (per token / per sample)
    # ------------------------------------------------------------------
    def attention_flops_per_layer(self, batch: int = 1) -> float:
        """Forward FLOPs of one self-attention block for ``batch`` samples.

        Includes the four projections (QKV + output) and the two
        activation-activation matmuls of Logit-Attend.  With grouped-query
        attention the K/V projections shrink to ``kv_heads * head_dim``
        output columns; the Logit-Attend FLOPs are unchanged (every query
        head still attends over the full sequence).
        """
        b, l, e, kv = batch, self.seq_len, self.embed_dim, self.kv_dim
        proj = 2 * (2.0 * b * l * e * e) + 2 * (2.0 * b * l * e * kv)
        logit_attend = 2 * (2.0 * b * l * l * e)
        return proj + logit_attend

    def router_flops_per_layer(self, batch: int = 1) -> float:
        """Forward FLOPs of the MoE router/gate (0 for the dense model)."""
        if not self.is_moe:
            return 0.0
        b, l, e = batch, self.seq_len, self.embed_dim
        return 2.0 * b * l * e * self.num_experts

    def mlp_flops_per_layer(self, batch: int = 1) -> float:
        """Forward FLOPs of one MLP block for ``batch`` samples.

        For MoE, every token runs through ``moe_top_k`` experts (plus the
        router), so the dense MLP FLOPs scale by ``moe_top_k``.
        """
        b, l, e, f = batch, self.seq_len, self.embed_dim, self.hidden_dim
        dense = 2 * (2.0 * b * l * e * f)
        return self.moe_top_k * dense + self.router_flops_per_layer(batch)

    def flops_per_layer(self, batch: int = 1) -> float:
        """Forward FLOPs of one full transformer block."""
        return self.attention_flops_per_layer(batch) + self.mlp_flops_per_layer(batch)

    def forward_flops(self, batch: int = 1) -> float:
        """Forward FLOPs of the whole model for ``batch`` samples."""
        return self.depth * self.flops_per_layer(batch)

    def mlp_to_attention_flop_ratio(self) -> float:
        """FLOP ratio of MLP to self-attention (≈2 for GPT3-1T, ≈0.5 for VIT)."""
        return self.mlp_flops_per_layer() / self.attention_flops_per_layer()

    def tokens_per_sample(self) -> int:
        """Sequence elements processed per sample (= ``seq_len``)."""
        return self.seq_len

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def scaled(self, **overrides) -> "TransformerConfig":
        """Return a copy of the config with fields replaced (keyword only)."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, float]:
        """Summary dictionary used by reports and the CLI."""
        out = {
            "name": self.name,
            "seq_len": self.seq_len,
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "num_heads": self.num_heads,
            "head_dim": self.head_dim,
            "depth": self.depth,
            "params_total": self.total_params,
            "params_per_layer": self.params_per_layer,
            "mlp_to_attention_flops": self.mlp_to_attention_flop_ratio(),
        }
        if self.kv_heads != self.num_heads:
            out["kv_heads"] = self.kv_heads
        if self.is_moe:
            out["num_experts"] = self.num_experts
            out["moe_top_k"] = self.moe_top_k
            out["params_active"] = self.active_params
        return out


# ----------------------------------------------------------------------
# Presets studied in the paper (§III-B and §IV Empirical Validation)
# ----------------------------------------------------------------------

#: 1-trillion-parameter GPT-3 style LLM (paper's LLM foundation model).
GPT3_1T = TransformerConfig(
    name="GPT3-1T", seq_len=2048, embed_dim=25600, num_heads=160, depth=128
)

#: Long-sequence vision transformer (paper's SciML foundation model): ERA5
#: 720x1440 grid, patch size 4 -> 180*360 = 64800 patches.
VIT_LONG_SEQ = TransformerConfig(
    name="VIT", seq_len=64800, embed_dim=12288, num_heads=64, depth=48
)

#: GPT3-175B used for the paper's Megatron-LM validation runs on Perlmutter.
GPT3_175B = TransformerConfig(
    name="GPT3-175B", seq_len=2048, embed_dim=12288, num_heads=96, depth=96
)

#: 32K-sequence ViT used for the paper's Megatron-LM validation runs.  The
#: paper does not publish the exact width/depth of this validation model; we
#: substitute a ViT sized to fit comfortably on 512 A100 GPUs with the
#: reported parallelization (n1, n2, np, nd, bm) = (2, 4, 4, 16, 1) — see
#: the docstring of :mod:`repro.analysis.validation` for the reconstruction.
VIT_32K = TransformerConfig(
    name="VIT-32K", seq_len=32400, embed_dim=6144, num_heads=48, depth=24
)

#: Registry of named model presets.
MODEL_CATALOG: Dict[str, TransformerConfig] = {
    "gpt3-1t": GPT3_1T,
    "vit": VIT_LONG_SEQ,
    "vit-long": VIT_LONG_SEQ,
    "gpt3-175b": GPT3_175B,
    "vit-32k": VIT_32K,
}


def get_model(name: str) -> TransformerConfig:
    """Look up a model preset by (case-insensitive) name.

    Shorthand for ``get_workload(name).model``: it resolves through the
    pluggable workload registry (:mod:`repro.core.workloads`), which holds
    the paper's catalogue above, registered scenarios (``moe-1t``,
    ``gpt3-1t-gqa``) and downstream additions or re-registrations.  An
    unknown name raises ``KeyError``.

    >>> get_model("GPT3-1T").depth
    128
    """
    from repro.core.workloads import get_workload  # local: avoid import cycle

    return get_workload(name).model
