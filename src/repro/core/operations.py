"""Operation-level FLOP / HBM-byte counting (stage S1 of the performance model).

Every transformer operation is reduced to one of a handful of primitives:

* dense matrix multiply ``C = A B`` (possibly batched, possibly with the
  right operand shared across the batch, as is the case for weights);
* element-wise / reduction vector operations (LayerNorm, Softmax, GeLU,
  Dropout, bias/residual add);
* the fused Logit-Attend kernel (FlashAttention), which recomputes the
  attention matrix in the backward pass and only reads/writes the fused
  kernel's inputs and outputs from HBM.

For each primitive we count the FLOPs ``lambda_f`` and the bytes moved
to/from HBM ``lambda_m`` for both the forward and the backward pass.  The
roofline model (:mod:`repro.core.roofline`) turns these counts into time.

Counting conventions (paper §III-A, S1):

* matmul ``(m, k) x (k, n)``: ``lambda_f = 2 m k n`` (the paper's
  ``(2k-1) m n`` rounded to the standard ``2 m k n``), and
  ``lambda_m = dtype * (m k + k n + m n)``;
* the backward pass of a matmul performs two matmuls
  (``dA = dC B^T`` and ``dB = A^T dC``), i.e. twice the forward FLOPs;
* vector ops move roughly "read input + write output" bytes and their FLOP
  counts use small per-element constants — they are bandwidth-bound on every
  GPU studied, so the exact constants do not change any conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Compute pipes available on the GPU.  Matrix multiplies use the FP16
#: tensor cores; everything else uses the vector pipe.
TENSOR_PIPE = "tensor"
VECTOR_PIPE = "vector"

#: FLOPs per element for the supported vector operations (first-order
#: estimates; all of these operations are memory-bound in practice).
_VECTOR_FLOPS_PER_ELEMENT = {
    "layernorm": 8.0,
    "softmax": 5.0,
    "gelu": 8.0,
    "dropout": 2.0,
    "bias_add": 1.0,
    "residual_add": 1.0,
    "elementwise": 1.0,
}


@dataclass(frozen=True)
class ComputeOp:
    """A single device-local computation with its roofline-relevant counts."""

    name: str
    #: Floating point operations performed.
    flops: float
    #: Bytes moved between HBM and the compute units.
    bytes_hbm: float
    #: Which hardware pipe executes the FLOPs (tensor cores vs vector units).
    pipe: str = TENSOR_PIPE

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_hbm < 0:
            raise ValueError(f"negative counts in op {self.name}")
        if self.pipe not in (TENSOR_PIPE, VECTOR_PIPE):
            raise ValueError(f"unknown pipe {self.pipe!r}")

    def scaled(self, factor: float, *, name: str | None = None) -> "ComputeOp":
        """Return a copy with FLOPs and bytes scaled by ``factor``."""
        return ComputeOp(
            name=name or self.name,
            flops=self.flops * factor,
            bytes_hbm=self.bytes_hbm * factor,
            pipe=self.pipe,
        )


@dataclass(frozen=True)
class CommOp:
    """A single collective communication performed by one parallel group.

    ``volume_bytes`` follows the paper's convention: the total number of
    bytes transferred per GPU for this collective (e.g. for an AllGather of
    a tensor with ``v`` elements, the volume is ``dtype * v``).
    """

    name: str
    #: One of ``all_gather``, ``reduce_scatter``, ``all_reduce``,
    #: ``broadcast``, ``reduce``, ``p2p``.
    collective: str
    #: Total bytes transferred per GPU.
    volume_bytes: float
    #: Which parallel group performs the collective: ``tp1``, ``tp2``,
    #: ``tp`` (the full tensor-parallel group), ``dp``, ``dp+tp2`` or ``pp``.
    group: str
    #: Whether the model assumes this communication is overlapped with
    #: compute (and therefore excluded from the exposed communication time).
    overlapped: bool = False

    def __post_init__(self) -> None:
        if self.volume_bytes < 0:
            raise ValueError(f"negative volume in comm {self.name}")


# ----------------------------------------------------------------------
# Matrix-multiply primitives
# ----------------------------------------------------------------------

def matmul_flops(m: float, k: float, n: float, *, batch: float = 1.0) -> float:
    """FLOPs of a (possibly batched) dense matmul ``(m,k) x (k,n)``."""
    return 2.0 * batch * m * k * n


def matmul_bytes(
    m: float,
    k: float,
    n: float,
    *,
    batch: float = 1.0,
    dtype_bytes: int = 2,
    shared_operand_b: bool = False,
) -> float:
    """HBM bytes moved by a dense matmul.

    ``shared_operand_b=True`` models activation-weight products where the
    weight matrix ``B`` is read once and reused across the batch.
    """
    a_bytes = batch * m * k
    b_bytes = (1.0 if shared_operand_b else batch) * k * n
    c_bytes = batch * m * n
    return dtype_bytes * (a_bytes + b_bytes + c_bytes)


def matmul_op(
    name: str,
    m: float,
    k: float,
    n: float,
    *,
    batch: float = 1.0,
    dtype_bytes: int = 2,
    shared_operand_b: bool = False,
) -> ComputeOp:
    """Build a forward matmul :class:`ComputeOp`."""
    return ComputeOp(
        name=name,
        flops=matmul_flops(m, k, n, batch=batch),
        bytes_hbm=matmul_bytes(
            m, k, n, batch=batch, dtype_bytes=dtype_bytes, shared_operand_b=shared_operand_b
        ),
        pipe=TENSOR_PIPE,
    )


def matmul_backward_ops(
    name: str,
    m: float,
    k: float,
    n: float,
    *,
    batch: float = 1.0,
    dtype_bytes: int = 2,
    shared_operand_b: bool = False,
) -> List[ComputeOp]:
    """Backward-pass ops of a matmul: ``dA = dC B^T`` and ``dB = A^T dC``.

    When the right operand is a weight shared across the batch, ``dB`` is a
    reduction over the batch dimension of ``A^T dC``; the FLOP count is the
    same and the output bytes are those of the (unbatched) weight gradient.
    """
    grad_a = ComputeOp(
        name=f"{name}.dgrad",
        flops=matmul_flops(m, n, k, batch=batch),
        bytes_hbm=matmul_bytes(
            m, n, k, batch=batch, dtype_bytes=dtype_bytes, shared_operand_b=shared_operand_b
        ),
        pipe=TENSOR_PIPE,
    )
    grad_b = ComputeOp(
        name=f"{name}.wgrad",
        flops=matmul_flops(k, m, n, batch=batch),
        bytes_hbm=matmul_bytes(
            k, m, n, batch=batch, dtype_bytes=dtype_bytes, shared_operand_b=False
        )
        if not shared_operand_b
        else dtype_bytes * (batch * (m * k + m * n) + k * n),
        pipe=TENSOR_PIPE,
    )
    return [grad_a, grad_b]


# ----------------------------------------------------------------------
# Vector-operation primitives
# ----------------------------------------------------------------------

def vector_op(
    kind: str,
    numel: float,
    *,
    name: str | None = None,
    dtype_bytes: int = 2,
    read_write_factor: float = 2.0,
) -> ComputeOp:
    """Build a vector-pipe :class:`ComputeOp` over ``numel`` elements.

    ``read_write_factor`` controls how many tensor-sized HBM transfers the
    operation performs (2 = read input + write output, 3 = additionally read
    a residual/mask, ...).
    """
    if kind not in _VECTOR_FLOPS_PER_ELEMENT:
        raise KeyError(f"unknown vector op kind {kind!r}")
    return ComputeOp(
        name=name or kind,
        flops=vector_flops(kind, numel),
        bytes_hbm=vector_bytes(numel, dtype_bytes=dtype_bytes, read_write_factor=read_write_factor),
        pipe=VECTOR_PIPE,
    )


def vector_flops(kind: str, numel: float) -> float:
    """FLOPs of a vector operation of ``kind`` over ``numel`` elements."""
    return _VECTOR_FLOPS_PER_ELEMENT[kind] * numel


def vector_bytes(numel: float, *, dtype_bytes: int = 2, read_write_factor: float = 2.0) -> float:
    """HBM bytes of a vector operation: ``read_write_factor`` tensor-sized transfers."""
    return read_write_factor * numel * dtype_bytes


def layernorm_op(numel: float, *, name: str = "layernorm", dtype_bytes: int = 2) -> ComputeOp:
    """LayerNorm over a tensor with ``numel`` elements."""
    return vector_op("layernorm", numel, name=name, dtype_bytes=dtype_bytes)


def softmax_op(numel: float, *, name: str = "softmax", dtype_bytes: int = 2) -> ComputeOp:
    """Softmax over a tensor with ``numel`` elements."""
    return vector_op("softmax", numel, name=name, dtype_bytes=dtype_bytes)


def gelu_op(numel: float, *, name: str = "gelu", dtype_bytes: int = 2) -> ComputeOp:
    """GeLU activation over ``numel`` elements."""
    return vector_op("gelu", numel, name=name, dtype_bytes=dtype_bytes)


def dropout_op(numel: float, *, name: str = "dropout", dtype_bytes: int = 2) -> ComputeOp:
    """Dropout over ``numel`` elements (mask read/write included)."""
    return vector_op("dropout", numel, name=name, dtype_bytes=dtype_bytes, read_write_factor=3.0)


def vector_backward_op(op: ComputeOp, *, factor: float = 2.0) -> ComputeOp:
    """Backward op of a vector operation (roughly ``factor`` x the forward cost)."""
    return op.scaled(factor, name=f"{op.name}.bwd")


# ----------------------------------------------------------------------
# Fused Logit-Attend (FlashAttention)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AttentionShape:
    """Shape of a (partitioned) Logit-Attend operation on one GPU.

    ``q_rows`` is the number of query positions local to the GPU (``l/n2``
    under 2D TP), ``kv_rows`` the number of key/value positions visible to
    the kernel (the full ``l`` — the sequence is gathered for K and V),
    ``heads`` the number of local heads and ``head_dim`` the per-head width.
    ``kv_heads`` is the number of local key/value heads for grouped-query
    attention (0, the default, means ``heads``, i.e. standard MHA).
    """

    batch: float
    heads: float
    q_rows: float
    kv_rows: float
    head_dim: float
    kv_heads: float = 0.0

    @property
    def kv_ratio(self) -> float:
        """K/V head fraction ``kv_heads / heads`` (exactly 1.0 for MHA)."""
        if self.kv_heads <= 0:
            return 1.0
        return self.kv_heads / self.heads


def flash_attention_forward(
    shape: AttentionShape, *, dtype_bytes: int = 2, fused: bool = True
) -> List[ComputeOp]:
    """Forward ops of the Logit-Attend block.

    With ``fused=True`` (FlashAttention) only the kernel inputs and outputs
    touch HBM; the ``l x l`` logits stay in SRAM, which raises the arithmetic
    intensity and usually makes the operation compute-bound.  With
    ``fused=False`` the intermediate attention matrix is written to and read
    back from HBM (and must also be *stored* for the backward pass — that is
    accounted for by the memory model, not here).
    """
    counts = attention_forward_counts(
        shape.batch,
        shape.heads,
        shape.q_rows,
        shape.kv_rows,
        shape.head_dim,
        shape.kv_ratio,
        dtype_bytes=dtype_bytes,
        fused=fused,
    )
    names = (
        ("flash_attention.fwd",) if fused else ("attention.qk", "attention.softmax", "attention.av")
    )
    return [
        ComputeOp(name=name, flops=flops, bytes_hbm=bytes_hbm, pipe=pipe)
        for name, (flops, bytes_hbm, pipe) in zip(names, counts)
    ]


def attention_forward_counts(
    batch: float,
    heads: float,
    q_rows: float,
    kv_rows: float,
    head_dim: float,
    kv_ratio: float,
    *,
    dtype_bytes: int = 2,
    fused: bool = True,
) -> Tuple[Tuple[float, float, str], ...]:
    """``(flops, hbm_bytes, pipe)`` of each forward Logit-Attend op.

    The counts behind :func:`flash_attention_forward`, in its op order, for
    the fields of an :class:`AttentionShape` (``kv_ratio`` is its
    :attr:`~AttentionShape.kv_ratio`).  Callers that price many shapes use
    it without building ops.
    """
    b, h, lq, lk, dh, kvr = batch, heads, q_rows, kv_rows, head_dim, kv_ratio
    # Grouped-query attention: K/V tensors carry only kv_heads heads.  The
    # score/attend FLOPs are unchanged (each query head attends over the full
    # sequence); only the K/V bytes shrink by kvr = kv_heads / heads.
    qk_flops = matmul_flops(lq, dh, lk, batch=b * h)
    av_flops = matmul_flops(lq, lk, dh, batch=b * h)
    softmax_flops = _VECTOR_FLOPS_PER_ELEMENT["softmax"] * b * h * lq * lk

    if fused:
        io_bytes = dtype_bytes * b * h * (lq * dh + 2 * kvr * lk * dh + lq * dh)
        return ((qk_flops + av_flops + softmax_flops, io_bytes, TENSOR_PIPE),)

    logits_bytes = dtype_bytes * b * h * lq * lk
    return (
        (qk_flops, dtype_bytes * b * h * (lq * dh + kvr * lk * dh) + logits_bytes, TENSOR_PIPE),
        (softmax_flops, 2 * logits_bytes, VECTOR_PIPE),
        (av_flops, logits_bytes + dtype_bytes * b * h * (kvr * lk * dh + lq * dh), TENSOR_PIPE),
    )


def flash_attention_backward(
    shape: AttentionShape, *, dtype_bytes: int = 2, fused: bool = True
) -> List[ComputeOp]:
    """Backward ops of the Logit-Attend block.

    The fused backward recomputes the attention matrix (one extra forward's
    worth of FLOPs) and then computes dQ, dK, dV and the softmax backward —
    roughly 2.5x the forward FLOPs in total, as in the FlashAttention paper.
    """
    forward = flash_attention_forward(shape, dtype_bytes=dtype_bytes, fused=fused)
    fwd_flops = sum(op.flops for op in forward)
    fwd_bytes = sum(op.bytes_hbm for op in forward)
    if fused:
        return [
            ComputeOp(
                name="flash_attention.bwd",
                flops=2.5 * fwd_flops,
                bytes_hbm=1.5 * fwd_bytes,
                pipe=TENSOR_PIPE,
            )
        ]
    return [op.scaled(2.0, name=f"{op.name}.bwd") for op in forward]


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------

def total_flops(ops: List[ComputeOp]) -> float:
    """Sum of FLOPs over a list of ops."""
    return sum(op.flops for op in ops)


def total_bytes(ops: List[ComputeOp]) -> float:
    """Sum of HBM bytes over a list of ops."""
    return sum(op.bytes_hbm for op in ops)


def arithmetic_intensity(ops: List[ComputeOp]) -> float:
    """FLOPs per HBM byte (aggregate) — useful for sanity checks and tests."""
    bytes_total = total_bytes(ops)
    if bytes_total == 0:
        return float("inf")
    return total_flops(ops) / bytes_total


def comm_volume_by_group(comms: List[CommOp]) -> dict:
    """Aggregate per-GPU communication bytes by parallel group."""
    out: dict = {}
    for comm in comms:
        out[comm.group] = out.get(comm.group, 0.0) + comm.volume_bytes
    return out
