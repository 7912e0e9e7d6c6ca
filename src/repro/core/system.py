"""Hardware and network descriptions (Table A3 of the paper).

A *system* consists of:

* a :class:`GpuSpec` — accelerator compute rates (tensor-core and vector
  FP16), a first-order FLOP latency modelling small-matrix inefficiency,
  HBM bandwidth and HBM capacity;
* a :class:`NetworkSpec` — a fast intra-node domain (NVSwitch/NVLink) with
  latency/bandwidth ``(alpha_f, beta_f)``, a slow inter-node domain
  (InfiniBand / Slingshot) with ``(alpha_s, beta_s)``, the NVSwitch domain
  size ``n_NVS`` and the number of NICs per node (which NCCL uses to run
  multiple rings and effectively multiply the inter-node bandwidth).

The catalogue covers three GPU generations (A100, H200, B200) exactly as in
Table A3, with NVLink and InfiniBand bandwidths increasing proportionally
across generations, and a 70% achievable-bandwidth efficiency observed on
Perlmutter and applied to all network (and HBM) bandwidth figures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.utils.units import GB, to_bytes, to_flops


#: Default achievable fraction of peak network bandwidth (paper: "we observe
#: typical bandwidth efficiencies of 70% for the networks").
DEFAULT_NETWORK_EFFICIENCY = 0.70

#: Default achievable fraction of peak HBM bandwidth.  The roofline model in
#: the paper uses peak HBM bandwidth directly; we keep 1.0 as the default and
#: expose the knob for sensitivity studies.
DEFAULT_HBM_EFFICIENCY = 1.0


@dataclass(frozen=True)
class GpuSpec:
    """Accelerator description (one GPU).

    All rates are in SI units: FLOP/s, bytes/s and bytes.
    """

    name: str
    #: Peak FP16 tensor-core rate (FLOP/s) — used for matrix multiplies.
    tensor_flops: float
    #: Peak FP16 vector rate (FLOP/s) — used for LN/softmax/GeLU/elementwise.
    vector_flops: float
    #: First-order FLOP latency (s) modelling small-matmul inefficiency
    #: (t = t_sf + flops / rate).
    flops_latency: float
    #: Peak HBM bandwidth (bytes/s).
    hbm_bandwidth: float
    #: HBM capacity (bytes).
    hbm_capacity: float
    #: Achievable fraction of peak HBM bandwidth.
    hbm_efficiency: float = DEFAULT_HBM_EFFICIENCY

    def __post_init__(self) -> None:
        if min(self.tensor_flops, self.vector_flops, self.hbm_bandwidth) <= 0:
            raise ValueError("compute rates and bandwidths must be positive")
        if self.hbm_capacity <= 0:
            raise ValueError("HBM capacity must be positive")
        if not (0.0 < self.hbm_efficiency <= 1.0):
            raise ValueError("hbm_efficiency must be in (0, 1]")

    @property
    def effective_hbm_bandwidth(self) -> float:
        """Achievable HBM bandwidth in bytes/s."""
        return self.hbm_bandwidth * self.hbm_efficiency

    def with_overrides(self, **overrides) -> "GpuSpec":
        """Return a copy with fields replaced (used by hardware sweeps)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class NetworkSpec:
    """Dual-bandwidth network description.

    The fast domain (NVSwitch) connects ``nvs_domain_size`` GPUs with
    bandwidth ``nvs_bandwidth`` and latency ``nvs_latency`` per hop; the slow
    domain (InfiniBand or Slingshot) connects nodes with per-NIC bandwidth
    ``ib_bandwidth`` and latency ``ib_latency``.  NCCL can use multiple rings
    (one per NIC) so the effective inter-node bandwidth of a collective that
    spans whole nodes is ``nics_per_node * ib_bandwidth``.
    """

    name: str
    #: One-directional NVSwitch/NVLink bandwidth per GPU (bytes/s).
    nvs_bandwidth: float
    #: NVSwitch per-hop latency (s).
    nvs_latency: float
    #: Per-NIC InfiniBand bandwidth (bytes/s).
    ib_bandwidth: float
    #: InfiniBand per-hop latency (s).
    ib_latency: float
    #: Number of GPUs per NVSwitch domain (= per node in the paper's systems).
    nvs_domain_size: int
    #: Number of NICs per node.  Defaults to the NVS domain size (the paper
    #: assumes nNIC is equal or proportional to nNVS).
    nics_per_node: int = 0
    #: Achievable fraction of peak bandwidth on both networks.
    bandwidth_efficiency: float = DEFAULT_NETWORK_EFFICIENCY

    def __post_init__(self) -> None:
        if self.nvs_domain_size < 1:
            raise ValueError("nvs_domain_size must be >= 1")
        if self.nics_per_node == 0:
            object.__setattr__(self, "nics_per_node", self.nvs_domain_size)
        if self.nics_per_node < 1:
            raise ValueError("nics_per_node must be >= 1")
        if min(self.nvs_bandwidth, self.ib_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")
        if not (0.0 < self.bandwidth_efficiency <= 1.0):
            raise ValueError("bandwidth_efficiency must be in (0, 1]")

    @property
    def effective_nvs_bandwidth(self) -> float:
        """Achievable NVSwitch bandwidth in bytes/s."""
        return self.nvs_bandwidth * self.bandwidth_efficiency

    @property
    def effective_ib_bandwidth(self) -> float:
        """Achievable per-NIC InfiniBand bandwidth in bytes/s."""
        return self.ib_bandwidth * self.bandwidth_efficiency

    def with_overrides(self, **overrides) -> "NetworkSpec":
        """Return a copy with fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class SystemSpec:
    """A complete system: one GPU type plus the dual-bandwidth network."""

    gpu: GpuSpec
    network: NetworkSpec

    @property
    def name(self) -> str:
        """System identifier, e.g. ``B200-NVS8``."""
        return f"{self.gpu.name}-NVS{self.network.nvs_domain_size}"

    @property
    def nvs_domain_size(self) -> int:
        """Number of GPUs in each fast-interconnect domain."""
        return self.network.nvs_domain_size

    def with_gpu(self, **overrides) -> "SystemSpec":
        """Return a copy of the system with GPU fields replaced."""
        return SystemSpec(gpu=self.gpu.with_overrides(**overrides), network=self.network)

    def with_network(self, **overrides) -> "SystemSpec":
        """Return a copy of the system with network fields replaced."""
        return SystemSpec(gpu=self.gpu, network=self.network.with_overrides(**overrides))

    def describe(self) -> Dict[str, float]:
        """Summary dictionary (Table A3 row) in the paper's units."""
        return {
            "system": self.name,
            "tensor_tflops": self.gpu.tensor_flops / 1e12,
            "vector_tflops": self.gpu.vector_flops / 1e12,
            "flops_latency_s": self.gpu.flops_latency,
            "hbm_bandwidth_gbps": self.gpu.hbm_bandwidth / GB,
            "hbm_capacity_gb": self.gpu.hbm_capacity / GB,
            "nvs_bandwidth_gbps": self.network.nvs_bandwidth / GB,
            "nvs_latency_s": self.network.nvs_latency,
            "ib_bandwidth_gbps": self.network.ib_bandwidth / GB,
            "ib_latency_s": self.network.ib_latency,
            "nvs_domain_size": self.network.nvs_domain_size,
            "nics_per_node": self.network.nics_per_node,
        }


# ----------------------------------------------------------------------
# Table A3: GPU and network parameters for various GPU generations
# ----------------------------------------------------------------------

_GPU_TABLE = {
    # name: (tensor TFLOP/s, vector TFLOP/s, flop latency s, HBM GB/s, HBM GB)
    "A100": (312.0, 78.0, 2e-5, 1555.0, 80.0),
    "H200": (990.0, 134.0, 2e-5, 4800.0, 141.0),
    "B200": (2500.0, 339.0, 2e-5, 8000.0, 192.0),
}

_NETWORK_TABLE = {
    # name: (NVS GB/s one-directional, NVS latency s, IB GB/s, IB latency s)
    "A100": (300.0, 2.5e-6, 25.0, 5e-6),
    "H200": (450.0, 2.5e-6, 50.0, 5e-6),
    "B200": (900.0, 2.5e-6, 100.0, 5e-6),
}

#: NVSwitch domain sizes studied in the paper (§IV Q3).
NVS_DOMAIN_SIZES = (4, 8, 64)

#: GPU generations studied in the paper.
GPU_GENERATIONS = tuple(_GPU_TABLE)

# ----------------------------------------------------------------------
# Economics: rental price and board power per GPU generation
# ----------------------------------------------------------------------
# The cost and energy objectives of the multi-objective search
# (:mod:`repro.core.objectives`) price GPU-hours and joules.  These live in
# their own tables — *not* as :class:`GpuSpec` fields — so that adding the
# economics never changes the serialized form of a system (cache
# fingerprints, golden JSON archives and the hint index all hash
# ``to_jsonable(system)``).

#: On-demand rental price per GPU-hour (USD), representative cloud list
#: prices per generation.  Synthetic GPUs fall back to FLOP-proportional
#: pricing (see :func:`gpu_hourly_price`).
GPU_HOURLY_PRICE_USD: Dict[str, float] = {
    "A100": 2.0,
    "H200": 4.5,
    "B200": 8.0,
}

#: Board power per GPU (watts, TDP-class).  Synthetic GPUs fall back to
#: FLOP-proportional power (see :func:`gpu_power_watts`).
GPU_POWER_WATTS: Dict[str, float] = {
    "A100": 400.0,
    "H200": 700.0,
    "B200": 1000.0,
}

#: Generation anchoring the FLOP-proportional fallback for synthetic GPUs
#: (hardware sweeps override ``tensor_flops`` etc. on a copied spec).
_ECONOMICS_REFERENCE_GPU = "B200"

#: Fraction of board power attributed to the compute engines; the rest is
#: attributed to HBM traffic.  First-order activity split used by the
#: energy objective (J/FLOP and J/byte at peak rates).
COMPUTE_POWER_FRACTION = 0.7


def _flops_scaled(table: Dict[str, float], gpu: GpuSpec) -> float:
    """Table lookup by GPU name, FLOP-proportional fallback for synthetics.

    A synthetic GPU (a heatmap point, an overridden spec) is priced as the
    reference generation scaled by its tensor-FLOP ratio, so sweeps over
    made-up hardware still get a monotone, deterministic price/power axis.
    """
    value = table.get(gpu.name.upper())
    if value is not None:
        return value
    ref_tflops, _, _, _, _ = _GPU_TABLE[_ECONOMICS_REFERENCE_GPU]
    ref_flops = to_flops(ref_tflops, "TFLOPS")
    return table[_ECONOMICS_REFERENCE_GPU] * (gpu.tensor_flops / ref_flops)


def gpu_hourly_price(gpu: GpuSpec) -> float:
    """Rental price of ``gpu`` in USD per GPU-hour.

    Catalogue generations use :data:`GPU_HOURLY_PRICE_USD`; synthetic GPUs
    are priced FLOP-proportionally against the reference generation.
    """
    return _flops_scaled(GPU_HOURLY_PRICE_USD, gpu)


def gpu_power_watts(gpu: GpuSpec) -> float:
    """Board power of ``gpu`` in watts (TDP-class).

    Catalogue generations use :data:`GPU_POWER_WATTS`; synthetic GPUs are
    scaled FLOP-proportionally against the reference generation.
    """
    return _flops_scaled(GPU_POWER_WATTS, gpu)


def gpu_energy_rates(gpu: GpuSpec) -> Tuple[float, float]:
    """First-order activity-energy rates of ``gpu``: ``(J/FLOP, J/byte)``.

    The board power is split between the compute engines
    (:data:`COMPUTE_POWER_FRACTION` of it, amortized over the peak tensor
    rate) and the HBM subsystem (the remainder, amortized over the peak HBM
    bandwidth).  The energy objective multiplies these by the roofline
    FLOP/byte counts of a configuration, so energy tracks *activity* rather
    than duplicating the time axis.
    """
    power = gpu_power_watts(gpu)
    joules_per_flop = COMPUTE_POWER_FRACTION * power / gpu.tensor_flops
    joules_per_byte = (1.0 - COMPUTE_POWER_FRACTION) * power / gpu.hbm_bandwidth
    return joules_per_flop, joules_per_byte


def make_gpu(generation: str, **overrides) -> GpuSpec:
    """Build a :class:`GpuSpec` for ``generation`` (A100/H200/B200)."""
    key = generation.upper()
    if key not in _GPU_TABLE:
        raise KeyError(f"unknown GPU generation {generation!r}; available: {GPU_GENERATIONS}")
    tflops, vflops, lat, bw_gb, cap_gb = _GPU_TABLE[key]
    spec = GpuSpec(
        name=key,
        tensor_flops=to_flops(tflops, "TFLOPS"),
        vector_flops=to_flops(vflops, "TFLOPS"),
        flops_latency=lat,
        hbm_bandwidth=to_bytes(bw_gb, "GB"),
        hbm_capacity=to_bytes(cap_gb, "GB"),
    )
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec


def make_network(
    generation: str,
    nvs_domain_size: int = 8,
    *,
    nics_per_node: int = 0,
    bandwidth_efficiency: float = DEFAULT_NETWORK_EFFICIENCY,
    **overrides,
) -> NetworkSpec:
    """Build a :class:`NetworkSpec` for ``generation`` and NVS domain size."""
    key = generation.upper()
    if key not in _NETWORK_TABLE:
        raise KeyError(f"unknown GPU generation {generation!r}; available: {GPU_GENERATIONS}")
    nvs_bw, nvs_lat, ib_bw, ib_lat = _NETWORK_TABLE[key]
    spec = NetworkSpec(
        name=f"{key}-net",
        nvs_bandwidth=to_bytes(nvs_bw, "GB"),
        nvs_latency=nvs_lat,
        ib_bandwidth=to_bytes(ib_bw, "GB"),
        ib_latency=ib_lat,
        nvs_domain_size=nvs_domain_size,
        nics_per_node=nics_per_node,
        bandwidth_efficiency=bandwidth_efficiency,
    )
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec


def make_system(generation: str, nvs_domain_size: int = 8, **kwargs) -> SystemSpec:
    """Build a complete :class:`SystemSpec` (GPU + network) for ``generation``.

    >>> make_system("B200", 8).name
    'B200-NVS8'
    """
    return SystemSpec(
        gpu=make_gpu(generation),
        network=make_network(generation, nvs_domain_size, **kwargs),
    )


def system_catalog(
    generations=GPU_GENERATIONS, nvs_domain_sizes=NVS_DOMAIN_SIZES
) -> Dict[str, SystemSpec]:
    """Return the full grid of systems studied in the paper (Fig. 5).

    Keys are of the form ``"A100-NVS4"``.
    """
    catalog: Dict[str, SystemSpec] = {}
    for gen in generations:
        for nvs in nvs_domain_sizes:
            system = make_system(gen, nvs)
            catalog[system.name] = system
    return catalog


#: GPUs per Perlmutter node that may share the fast NVLink domain.
PERLMUTTER_NVLINK_GPUS = (1, 2, 4)


#: A Perlmutter-like A100 system (4 GPUs/node all-to-all NVLink, 4 NICs/node)
#: used by the empirical-validation experiments and the NCCL-style collective
#: validation (Fig. A1).
def make_perlmutter(nvlink_gpus_per_node: int = 4) -> SystemSpec:
    """Build a Perlmutter-like system (A100, 4 GPUs + 4 NICs per node).

    ``nvlink_gpus_per_node`` restricts how many GPUs per node participate in
    the fast domain (the Fig. A1 validation compares NVL=2 and NVL=4).
    """
    if nvlink_gpus_per_node not in PERLMUTTER_NVLINK_GPUS:
        raise ValueError("Perlmutter nodes have 4 GPUs; choose 1, 2 or 4 per node")
    # Perlmutter: 4 third-generation NVLinks between each GPU pair when all
    # four GPUs are used (12 links per GPU); with 2 GPUs per node only 4
    # links per GPU are active.  Each NVLink3 link is 25 GB/s per direction.
    links_per_gpu = {1: 0, 2: 4, 4: 12}[nvlink_gpus_per_node]
    nvlink_bw_gb = max(links_per_gpu * 25.0, 25.0)
    network = NetworkSpec(
        name="perlmutter-net",
        nvs_bandwidth=to_bytes(nvlink_bw_gb, "GB"),
        nvs_latency=2.5e-6,
        ib_bandwidth=to_bytes(25.0, "GB"),
        ib_latency=5e-6,
        nvs_domain_size=nvlink_gpus_per_node,
        nics_per_node=nvlink_gpus_per_node,
    )
    return SystemSpec(gpu=make_gpu("A100"), network=network)
