"""Roofline execution-time model (stage S2, computation time).

The paper converts FLOP and HBM-byte counts into time with the classic
roofline model:

    t_op = max(t_sf + lambda_f / lambda_fh,  lambda_m / lambda_mh)

where ``lambda_fh`` is the peak rate of the pipe executing the operation
(FP16 tensor cores for matmuls, the vector pipe otherwise), ``lambda_mh`` is
the achievable HBM bandwidth and ``t_sf`` is a first-order FLOP latency that
captures the inefficiency of small matrix multiplies (taken from NVIDIA's
matmul performance guide).

In addition to the total time we keep the *flop-limited* and *memory-limited*
components separately so that the iteration-time breakdown can attribute
"Compute" vs "Memory" the same way the paper's figures do: the memory share
is the part of the operation time that exceeds what the FLOPs alone would
take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.core.operations import ComputeOp, TENSOR_PIPE, VECTOR_PIPE
from repro.core.system import GpuSpec


@dataclass(frozen=True)
class RooflineTime:
    """Execution time of one (or an aggregate of) compute op(s)."""

    #: Time the FLOPs alone would take (including the FLOP latency term).
    flop_time: float
    #: Time the HBM traffic alone would take.
    memory_time: float

    @property
    def total(self) -> float:
        """Roofline time: the operation is limited by the slower resource."""
        return max(self.flop_time, self.memory_time)

    @property
    def exposed_memory_time(self) -> float:
        """Memory time not hidden behind the FLOPs (the paper's "Memory" share)."""
        return max(0.0, self.memory_time - self.flop_time)

    @property
    def is_compute_bound(self) -> bool:
        """True when the FLOP time dominates."""
        return self.flop_time >= self.memory_time

    def __add__(self, other: "RooflineTime") -> "RooflineTime":
        return RooflineTime(
            flop_time=self.flop_time + other.flop_time,
            memory_time=self.memory_time + other.memory_time,
        )


ZERO_TIME = RooflineTime(0.0, 0.0)


def peak_rate(gpu: GpuSpec, pipe: str) -> float:
    """Peak FLOP rate of the requested pipe on ``gpu``."""
    if pipe == TENSOR_PIPE:
        return gpu.tensor_flops
    if pipe == VECTOR_PIPE:
        return gpu.vector_flops
    raise ValueError(f"unknown pipe {pipe!r}")


def roofline_terms(
    flops: float, bytes_hbm: float, rate: float, bandwidth: float, latency: float = 0.0
) -> Tuple[float, float]:
    """The per-op roofline rule: ``(flop_time, memory_time)`` of one op.

    ``rate`` is the peak rate of the op's pipe and ``bandwidth`` the
    achievable HBM bandwidth; an op without FLOPs charges no ``latency``.
    """
    flop_time = latency + flops / rate if flops > 0 else 0.0
    memory_time = bytes_hbm / bandwidth if bytes_hbm > 0 else 0.0
    return flop_time, memory_time


def op_time(op: ComputeOp, gpu: GpuSpec, *, include_latency: bool = True) -> RooflineTime:
    """Roofline time of a single compute op on ``gpu``."""
    flop_time, memory_time = roofline_terms(
        op.flops,
        op.bytes_hbm,
        peak_rate(gpu, op.pipe),
        gpu.effective_hbm_bandwidth,
        gpu.flops_latency if include_latency else 0.0,
    )
    return RooflineTime(flop_time=flop_time, memory_time=memory_time)


def roofline_totals(
    counts: Iterable[Tuple[float, float, float]], bandwidth: float, latency: float = 0.0
) -> Tuple[float, float]:
    """Per-op roofline summed over ``(flops, bytes_hbm, rate)`` rows.

    Returns the FLOP-time total and the exposed-memory total, each op
    roofline-limited on its own (:func:`roofline_terms`) and accumulated in
    row order.  :func:`ops_time` and the serving decode-layer table both sum
    through it, so they agree to the last bit on the same rows.
    """
    flop_total = 0.0
    exposed_total = 0.0
    for flops, bytes_hbm, rate in counts:
        flop_time, memory_time = roofline_terms(flops, bytes_hbm, rate, bandwidth, latency)
        flop_total += flop_time
        exposed_total += max(0.0, memory_time - flop_time)
    return flop_total, exposed_total


def ops_time(
    ops: Iterable[ComputeOp], gpu: GpuSpec, *, include_latency: bool = True
) -> RooflineTime:
    """Sum of per-op roofline times.

    Each op is individually roofline-limited; the totals we accumulate are
    the per-op flop times and per-op *exposed* totals, so that the aggregate
    ``total`` equals the sum of per-op ``max(flop, memory)`` times.  We store
    that in the ``memory_time`` slot as ``flop_total + exposed_memory_total``
    so the :class:`RooflineTime` invariants keep holding.
    """
    flop_total, exposed_total = roofline_totals(
        ((op.flops, op.bytes_hbm, peak_rate(gpu, op.pipe)) for op in ops),
        gpu.effective_hbm_bandwidth,
        gpu.flops_latency if include_latency else 0.0,
    )
    return RooflineTime(flop_time=flop_total, memory_time=flop_total + exposed_total)


def matmul_efficiency(
    m: float, k: float, n: float, gpu: GpuSpec, *, dtype_bytes: int = 2
) -> float:
    """Achieved fraction of peak tensor-core throughput for one matmul.

    A convenience diagnostic: ratio of the ideal FLOP time (without latency)
    to the roofline time.  Small or skinny matrices become memory-bound or
    latency-bound and show efficiency << 1.
    """
    from repro.core.operations import matmul_op

    op = matmul_op("probe", m, k, n, dtype_bytes=dtype_bytes)
    t = op_time(op, gpu)
    ideal = op.flops / gpu.tensor_flops
    if t.total <= 0:
        return 1.0
    return ideal / t.total
