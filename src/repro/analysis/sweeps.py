"""Scaling sweeps and hardware sweeps (Q2/Q3 of the paper; Figs. 4, 5, A3, A5, A6).

Three families of experiments are provided:

* :func:`scaling_sweep` — strong scaling of one model on one system: the
  optimal configuration is re-searched independently at every GPU count
  (Fig. 4 and Fig. A3);
* :func:`system_grid_sweep` — end-to-end training time (in days) across GPU
  generations and NVSwitch-domain sizes (Fig. 5);
* :func:`hardware_heatmap` — training time as a function of synthetic GPU
  parameters (tensor-core rate, HBM capacity, HBM bandwidth), holding the
  network fixed (Figs. A5 and A6).

Each sweep is a batch of independent searches and accepts ``jobs`` (worker
processes), ``cache`` (a :class:`~repro.runtime.SearchCache`) and
``progress`` keywords, executed through :class:`~repro.runtime.SweepExecutor`;
results are identical to serial execution regardless of ``jobs``, and every
point is searched cold, exactly as it would be on its own.  The sweeps take
no pricer argument: :func:`~repro.runtime.executor.solve_search_task` prices
every analytic point with the vectorized batch pricer
(:mod:`repro.core.batch_eval`, bit-exact against the scalar oracle) and a
``backend="sim"`` point per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config_space import DEFAULT_SEARCH_SPACE, SearchSpace
from repro.core.execution import DEFAULT_BACKEND, DEFAULT_OPTIONS, ModelingOptions
from repro.core.model import TransformerConfig
from repro.core.search import SearchResult
from repro.core.system import NVS_DOMAIN_SIZES, SystemSpec, make_system
from repro.core.training import TrainingRegime, default_regime
from repro.runtime import ProgressCallback, SearchCache, SearchTask, SweepExecutor
from repro.utils.units import GB, TB, to_bytes, to_flops

#: Default GPU-count grids of the paper's scaling plots.
GPT_SCALING_GPUS = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
VIT_SCALING_GPUS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
PAPER_GLOBAL_BATCH = 4096


@dataclass(frozen=True)
class ScalingPoint:
    """Optimal-configuration search result at one GPU count."""

    n_gpus: int
    result: SearchResult

    @property
    def iteration_time(self) -> float:
        """Best iteration time found (seconds; ``inf`` when infeasible)."""
        return self.result.best_time

    @property
    def found(self) -> bool:
        """Whether a feasible configuration exists at this scale."""
        return self.result.found


@dataclass
class ScalingSweep:
    """Strong-scaling sweep of one model/strategy/system."""

    model_name: str
    system_name: str
    strategy: str
    global_batch_size: int
    points: List[ScalingPoint] = field(default_factory=list)

    def gpu_counts(self) -> List[int]:
        """GPU counts in sweep order."""
        return [p.n_gpus for p in self.points]

    def iteration_times(self) -> List[float]:
        """Best iteration times in sweep order."""
        return [p.iteration_time for p in self.points]

    def training_days(self, regime: TrainingRegime) -> List[float]:
        """End-to-end training days in sweep order."""
        return [regime.days(p.iteration_time) if p.found else float("inf") for p in self.points]

    def parallel_efficiency(self) -> List[float]:
        """Strong-scaling efficiency relative to the smallest feasible point."""
        base = next((p for p in self.points if p.found), None)
        if base is None:
            return [0.0 for _ in self.points]
        base_throughput = 1.0 / base.iteration_time / base.n_gpus
        out = []
        for p in self.points:
            if not p.found:
                out.append(0.0)
                continue
            throughput = 1.0 / p.iteration_time / p.n_gpus
            out.append(throughput / base_throughput)
        return out


def scaling_sweep(
    model: TransformerConfig,
    system: SystemSpec,
    *,
    strategy: str = "tp1d",
    n_gpus_list: Sequence[int] = GPT_SCALING_GPUS,
    global_batch_size: int = PAPER_GLOBAL_BATCH,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
    jobs: Optional[int] = None,
    cache: Optional[SearchCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> ScalingSweep:
    """Re-run the optimal-configuration search at every GPU count (Fig. 4)."""
    sweep = ScalingSweep(
        model_name=model.name,
        system_name=system.name,
        strategy=strategy,
        global_batch_size=global_batch_size,
    )
    tasks = [
        SearchTask(
            model=model,
            system=system,
            n_gpus=n,
            global_batch_size=global_batch_size,
            strategy=strategy,
            space=space,
            options=options,
            backend=backend,
        )
        for n in n_gpus_list
    ]
    executor = SweepExecutor(jobs, cache=cache, progress=progress)
    for n, result in zip(n_gpus_list, executor.run(tasks)):
        sweep.points.append(ScalingPoint(n_gpus=n, result=result))
    return sweep


@dataclass
class SystemScalingSeries:
    """Training-days series of one system (one line of Fig. 5)."""

    system_name: str
    gpu_generation: str
    nvs_domain_size: int
    n_gpus: List[int] = field(default_factory=list)
    training_days: List[float] = field(default_factory=list)
    iteration_times: List[float] = field(default_factory=list)


def system_grid_sweep(
    model: TransformerConfig,
    *,
    strategy: str = "tp1d",
    gpu_generations: Sequence[str] = ("A100", "H200", "B200"),
    nvs_domain_sizes: Sequence[int] = NVS_DOMAIN_SIZES,
    n_gpus_list: Sequence[int] = GPT_SCALING_GPUS,
    global_batch_size: int = PAPER_GLOBAL_BATCH,
    regime: Optional[TrainingRegime] = None,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
    jobs: Optional[int] = None,
    cache: Optional[SearchCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SystemScalingSeries]:
    """Training time in days vs GPU count across the system grid (Fig. 5)."""
    regime = regime or default_regime(model, global_batch_size)
    series: List[SystemScalingSeries] = []
    tasks: List[SearchTask] = []
    for generation in gpu_generations:
        for nvs in nvs_domain_sizes:
            system = make_system(generation, nvs)
            series.append(
                SystemScalingSeries(
                    system_name=system.name,
                    gpu_generation=generation,
                    nvs_domain_size=nvs,
                )
            )
            tasks.extend(
                SearchTask(
                    model=model,
                    system=system,
                    n_gpus=n,
                    global_batch_size=global_batch_size,
                    strategy=strategy,
                    space=space,
                    options=options,
                    backend=backend,
                )
                for n in n_gpus_list
            )

    executor = SweepExecutor(jobs, cache=cache, progress=progress)
    results = executor.run(tasks)
    per_series = len(list(n_gpus_list))
    for i, entry in enumerate(series):
        for j, n in enumerate(n_gpus_list):
            result = results[i * per_series + j]
            entry.n_gpus.append(n)
            entry.iteration_times.append(result.best_time)
            entry.training_days.append(
                regime.days(result.best_time) if result.found else float("inf")
            )
    return series


@dataclass
class HardwareHeatmap:
    """Training time over a 2D grid of synthetic GPU parameters."""

    model_name: str
    strategy: str
    n_gpus: int
    x_label: str
    y_label: str
    x_values: List[float] = field(default_factory=list)
    y_values: List[float] = field(default_factory=list)
    #: ``training_days[i][j]`` corresponds to ``(y_values[i], x_values[j])``.
    training_days: List[List[float]] = field(default_factory=list)

    def as_array(self) -> np.ndarray:
        """Training-days grid as a NumPy array (rows = y, cols = x)."""
        return np.asarray(self.training_days, dtype=float)

    def min_point(self) -> Tuple[float, float, float]:
        """(x, y, days) of the fastest grid point."""
        arr = self.as_array()
        i, j = np.unravel_index(np.nanargmin(arr), arr.shape)
        return self.x_values[j], self.y_values[i], float(arr[i, j])


def hardware_heatmap(
    model: TransformerConfig,
    *,
    strategy: str = "tp1d",
    n_gpus: int = 8192,
    global_batch_size: int = PAPER_GLOBAL_BATCH,
    mode: str = "capacity_vs_flops",
    capacity_gb: Sequence[float] = (80, 141, 192, 256, 352),
    bandwidth_tbps: Sequence[float] = (1.5, 4.8, 8.0, 12.0, 16.0),
    tensor_tflops: Sequence[float] = (312, 990, 2500, 3500),
    base_generation: str = "B200",
    nvs_domain_size: int = 8,
    regime: Optional[TrainingRegime] = None,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
    jobs: Optional[int] = None,
    cache: Optional[SearchCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> HardwareHeatmap:
    """Training-days heatmap over synthetic GPU parameters (Figs. A5 / A6).

    Two modes are provided:

    * ``capacity_vs_flops`` (Fig. A5): the x axis jointly scales HBM capacity
      and bandwidth (as the paper does — the two are swept together on the x
      axis) and the y axis scales the tensor-core rate (the vector rate is
      scaled proportionally).  The network stays at the base generation.
    * ``capacity_vs_bandwidth`` (Fig. A6): capacity on x, bandwidth on y,
      compute and network fixed at the base generation.
    """
    regime = regime or default_regime(model, global_batch_size)
    base = make_system(base_generation, nvs_domain_size)

    if mode not in ("capacity_vs_flops", "capacity_vs_bandwidth"):
        raise ValueError(f"unknown heatmap mode {mode!r}")

    if mode == "capacity_vs_flops":
        x_values = list(capacity_gb)
        y_values = list(tensor_tflops)
        x_label = "hbm_capacity_gb"
        y_label = "tensor_tflops"
    else:
        x_values = list(capacity_gb)
        y_values = list(bandwidth_tbps)
        x_label = "hbm_capacity_gb"
        y_label = "hbm_bandwidth_tbps"

    # Pair each capacity with a bandwidth in capacity_vs_flops mode (the
    # paper sweeps them together on the shared x axis).
    paired_bandwidths = list(bandwidth_tbps)
    while len(paired_bandwidths) < len(x_values):
        paired_bandwidths.append(paired_bandwidths[-1])

    tasks: List[SearchTask] = []
    for y in y_values:
        for idx, x in enumerate(x_values):
            if mode == "capacity_vs_flops":
                ratio = to_flops(y, "TFLOPS") / base.gpu.tensor_flops
                gpu = base.gpu.with_overrides(
                    tensor_flops=to_flops(y, "TFLOPS"),
                    vector_flops=base.gpu.vector_flops * ratio,
                    hbm_capacity=to_bytes(x, "GB"),
                    hbm_bandwidth=paired_bandwidths[idx] * TB,
                )
            else:
                gpu = base.gpu.with_overrides(
                    hbm_capacity=to_bytes(x, "GB"),
                    hbm_bandwidth=y * TB,
                )
            tasks.append(
                SearchTask(
                    model=model,
                    system=SystemSpec(gpu=gpu, network=base.network),
                    n_gpus=n_gpus,
                    global_batch_size=global_batch_size,
                    strategy=strategy,
                    space=space,
                    options=options,
                    backend=backend,
                )
            )

    executor = SweepExecutor(jobs, cache=cache, progress=progress)
    results = executor.run(tasks)
    grid = [
        [
            regime.days(result.best_time) if result.found else float("inf")
            for result in results[i * len(x_values) : (i + 1) * len(x_values)]
        ]
        for i in range(len(y_values))
    ]

    return HardwareHeatmap(
        model_name=model.name,
        strategy=strategy,
        n_gpus=n_gpus,
        x_label=x_label,
        y_label=y_label,
        x_values=[float(v) for v in x_values],
        y_values=[float(v) for v in y_values],
        training_days=grid,
    )
