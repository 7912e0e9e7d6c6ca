"""Relative speedups of the 2D tensor-parallel variants over 1D TP (Fig. A4).

For every GPU count and every system of the paper's grid, the optimal
configuration is searched independently for 1D TP and for a 2D variant
(plain 2D TP or SUMMA); the speedup is the ratio of the 1D optimum's
iteration time to the 2D optimum's.  The paper reports speedups of roughly
5-10%, with SUMMA helping most in resource-constrained regimes (small GPU
counts, small HBM capacity, small NVSwitch domains) and plain 2D TP helping
more at the largest scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config_space import DEFAULT_SEARCH_SPACE, SearchSpace
from repro.core.execution import DEFAULT_BACKEND, DEFAULT_OPTIONS, ModelingOptions
from repro.core.model import TransformerConfig
from repro.core.system import make_system
from repro.runtime import ProgressCallback, SearchCache, SearchTask, SweepExecutor


@dataclass(frozen=True)
class SpeedupPoint:
    """Speedup of one 2D variant over 1D TP at one (system, GPU count)."""

    system_name: str
    n_gpus: int
    baseline_strategy: str
    variant_strategy: str
    baseline_time: float
    variant_time: float

    @property
    def speedup(self) -> float:
        """Baseline time divided by variant time (> 1 means the 2D variant wins)."""
        if self.variant_time <= 0 or self.variant_time == float("inf"):
            return 0.0
        if self.baseline_time == float("inf"):
            return float("inf")
        return self.baseline_time / self.variant_time


def speedup_sweep(
    model: TransformerConfig,
    *,
    variant_strategy: str = "summa",
    baseline_strategy: str = "tp1d",
    gpu_generations: Sequence[str] = ("A100", "H200", "B200"),
    nvs_domain_sizes: Sequence[int] = (4, 8, 64),
    n_gpus_list: Sequence[int] = (128, 256, 512, 1024, 2048, 4096, 8192, 16384),
    global_batch_size: int = 4096,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
    jobs: Optional[int] = None,
    cache: Optional[SearchCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SpeedupPoint]:
    """Fig. A4: speedup of ``variant_strategy`` w.r.t. ``baseline_strategy``.

    The baseline and variant searches of every grid point are all
    independent, so the whole sweep is one executor batch (and the baseline
    searches are natural cache hits for other sweeps over the same grid).
    As in :mod:`repro.analysis.sweeps`, the runtime picks the pricer: batch
    for the analytic backend, per candidate for ``sim``.
    """
    grid = [
        (make_system(generation, nvs), n)
        for generation in gpu_generations
        for nvs in nvs_domain_sizes
        for n in n_gpus_list
    ]
    tasks = [
        SearchTask(
            model=model,
            system=system,
            n_gpus=n,
            global_batch_size=global_batch_size,
            strategy=strat,
            space=space,
            options=options,
            backend=backend,
        )
        for system, n in grid
        for strat in (baseline_strategy, variant_strategy)
    ]
    with SweepExecutor(jobs, cache=cache, progress=progress) as executor:
        results = executor.run(tasks)

    points: List[SpeedupPoint] = []
    for idx, (system, n) in enumerate(grid):
        baseline, variant = results[2 * idx], results[2 * idx + 1]
        points.append(
            SpeedupPoint(
                system_name=system.name,
                n_gpus=n,
                baseline_strategy=baseline_strategy,
                variant_strategy=variant_strategy,
                baseline_time=baseline.best_time,
                variant_time=variant.best_time,
            )
        )
    return points


def speedups_by_system(points: Sequence[SpeedupPoint]) -> Dict[str, List[SpeedupPoint]]:
    """Group speedup points by system name (one Fig. A4 line each)."""
    grouped: Dict[str, List[SpeedupPoint]] = {}
    for point in points:
        grouped.setdefault(point.system_name, []).append(point)
    for series in grouped.values():
        series.sort(key=lambda p: p.n_gpus)
    return grouped
