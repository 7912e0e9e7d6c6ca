"""Differential testing: analytic backend vs the message-level sim oracle.

PRs 1-3 made the closed-form model fast, searchable and schedule-pluggable;
this harness is what makes every future refactor of it cheap to trust.  For
a grid of scenarios — dense / MoE / GQA workloads x every registered
pipeline schedule (1F1B, GPipe, interleaved v in {2, 4}) x every
tensor-parallel strategy (1D, 2D, SUMMA) — it evaluates the *same*
(configuration, NVS-assignment) candidate under both evaluation backends
(:mod:`repro.core.backends`) and asserts the two agree term by term within
a documented tolerance band.

Tolerance rationale
-------------------
The two backends share the roofline compute/HBM model, so ``compute`` and
``memory`` must agree to floating-point noise.  Every other term differs
for a *structural* reason, which sets its band:

* **comm terms** (``tp_comm``, ``pp_comm``, ``dp_comm``) — the ring replay
  is bulk-synchronous: each of the ``n - 1`` steps lasts as long as its
  slowest active link, so a multi-node ring pays the slow-link latency in
  *every* step, while the closed form charges ``n/g - 1`` slow hops total
  and lets the bandwidth term hide the rest.  The paper itself reports
  10-25% model-vs-measurement error for collectives (Fig. A1); we allow
  25% relative plus a 100 us floor for terms too small to matter.
* **pp_bubble** — the event-driven replay reproduces the 1F1B/GPipe ramp
  exactly and the interleaved ``(np-1)(tf+tb)/v`` ramp exactly whenever
  ``m % np == 0`` (the grid only uses such points, as Megatron requires);
  what remains is the deviation of the *stage times* feeding the formula,
  which inherit the comm-term deviation.  Same band as the comm terms.
* **total** — deviations are concentrated in the (sub-dominant) comm
  terms, so the end-to-end iteration time must agree much tighter: 10%.

A failure prints a per-term table of both backends' seconds and the band
that was violated (:func:`format_failure_diff`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.execution import (
    DEFAULT_OPTIONS,
    IterationEstimate,
    ModelingOptions,
    evaluate_config,
)
from repro.core.parallelism.base import ParallelConfig
from repro.core.plan import TIME_CATEGORIES
from repro.core.search import best_assignment_for
from repro.core.system import SystemSpec, make_system
from repro.core.workloads import get_workload
from repro.runtime import SweepExecutor

#: GPU count scale of the default grid: nt(4) x np(4) x nd(4).
_GRID_GLOBAL_BATCH = 64


@dataclass(frozen=True)
class ToleranceBand:
    """Acceptance band for one breakdown term: ``|s - a| <= abs + rel * max``."""

    rel: float
    abs: float = 0.0

    def allows(self, analytic: float, simulated: float) -> bool:
        """Whether the two values agree within the band."""
        scale = max(abs(analytic), abs(simulated))
        return abs(simulated - analytic) <= self.abs + self.rel * scale


#: The documented per-term bands (see the module docstring for rationale).
TOLERANCES: Dict[str, ToleranceBand] = {
    "compute": ToleranceBand(rel=1e-9),
    "memory": ToleranceBand(rel=1e-9),
    "tp_comm": ToleranceBand(rel=0.25, abs=1e-4),
    "pp_bubble": ToleranceBand(rel=0.25, abs=1e-4),
    "pp_comm": ToleranceBand(rel=0.25, abs=1e-4),
    "dp_comm": ToleranceBand(rel=0.25, abs=1e-4),
    "total": ToleranceBand(rel=0.10),
}


@dataclass(frozen=True)
class DifferentialCase:
    """One grid point: a workload under a fixed parallelization."""

    name: str
    workload: str
    config: ParallelConfig
    global_batch_size: int = _GRID_GLOBAL_BATCH

    @property
    def strategy(self) -> str:
        return self.config.strategy

    @property
    def schedule(self) -> str:
        return self.config.schedule


@dataclass(frozen=True)
class TermDelta:
    """Analytic-vs-simulated comparison of one breakdown term."""

    term: str
    analytic: float
    simulated: float
    within: bool

    @property
    def abs_error(self) -> float:
        return abs(self.simulated - self.analytic)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.analytic), abs(self.simulated))
        return self.abs_error / scale if scale > 0 else 0.0


@dataclass
class DifferentialResult:
    """Outcome of one differential comparison."""

    case: DifferentialCase
    analytic: IterationEstimate
    simulated: IterationEstimate
    deltas: List[TermDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every term (and the total) is inside its band."""
        return all(d.within for d in self.deltas)

    @property
    def max_rel_error(self) -> float:
        """Largest relative error over the compared terms."""
        return max((d.rel_error for d in self.deltas), default=0.0)

    def failing_terms(self) -> List[TermDelta]:
        return [d for d in self.deltas if not d.within]


def _compare(case: DifferentialCase, a: IterationEstimate, s: IterationEstimate) -> DifferentialResult:
    deltas = []
    a_dict = a.breakdown.as_dict()
    s_dict = s.breakdown.as_dict()
    for term in TIME_CATEGORIES:
        band = TOLERANCES[term]
        deltas.append(
            TermDelta(
                term=term,
                analytic=a_dict[term],
                simulated=s_dict[term],
                within=band.allows(a_dict[term], s_dict[term]),
            )
        )
    band = TOLERANCES["total"]
    deltas.append(
        TermDelta(
            term="total",
            analytic=a.breakdown.total,
            simulated=s.breakdown.total,
            within=band.allows(a.breakdown.total, s.breakdown.total),
        )
    )
    return DifferentialResult(case=case, analytic=a, simulated=s, deltas=deltas)


def run_case(
    case: DifferentialCase,
    system: Optional[SystemSpec] = None,
    *,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> DifferentialResult:
    """Differentially evaluate one grid point.

    The NVS assignment is chosen once — the analytic optimum for the
    candidate, mirroring how the search would place it — and the *same*
    assignment is then replayed by the simulation backend, so the
    comparison isolates the cost model, not the placement.
    """
    system = system or make_system("B200", 8)
    model = get_workload(case.workload).model
    analytic = best_assignment_for(
        model,
        system,
        case.config,
        global_batch_size=case.global_batch_size,
        options=options,
    )
    simulated = evaluate_config(
        model,
        system,
        case.config,
        analytic.assignment,
        global_batch_size=case.global_batch_size,
        options=options,
        backend="sim",
    )
    return _compare(case, analytic, simulated)


def _run_case_args(args: Tuple[DifferentialCase, SystemSpec, ModelingOptions]) -> DifferentialResult:
    """Module-level adapter so the grid can fan out across processes."""
    case, system, options = args
    return run_case(case, system, options=options)


# ----------------------------------------------------------------------
# The default grid
# ----------------------------------------------------------------------

#: (schedule, virtual stages) axis of the grid.
GRID_SCHEDULES: Tuple[Tuple[str, int], ...] = (
    ("1f1b", 1),
    ("gpipe", 1),
    ("interleaved", 2),
    ("interleaved", 4),
)

#: Workload axis: one dense, one MoE (32 experts, EP carved from DP), one
#: GQA scenario.  SUMMA does not support MoE layers, so that cell is
#: skipped (matching the strategy's own validation).
GRID_WORKLOADS: Tuple[str, ...] = ("gpt3-1t", "moe-1t", "gpt3-1t-gqa")

GRID_STRATEGIES: Tuple[str, ...] = ("tp1d", "tp2d", "summa")


def _grid_config(
    workload: str, strategy: str, schedule: str, virtual_stages: int
) -> Optional[ParallelConfig]:
    """The grid's canonical configuration for one cell (None = skipped).

    All cells use np=4 stages, nd=4 replicas and bm=1 on 64 GPUs with a
    global batch of 64, i.e. m=16 microbatches — a multiple of np, so the
    interleaved cells replay Megatron's real schedule, and np*v (at most
    16) divides every grid model's depth (64 and 128).
    """
    moe = "moe" in get_workload(workload).tags
    if moe and strategy == "summa":
        return None  # SUMMA has no MoE support (validated by the strategy)
    n1, n2 = (4, 1) if strategy == "tp1d" else (2, 2)
    return ParallelConfig(
        strategy=strategy,
        tensor_parallel_1=n1,
        tensor_parallel_2=n2,
        pipeline_parallel=4,
        data_parallel=4,
        microbatch_size=1,
        summa_panels=4 if strategy == "summa" else 1,
        expert_parallel=4 if moe else 1,
        schedule=schedule,
        virtual_stages=virtual_stages,
    )


def build_default_grid(workloads: Optional[Sequence[str]] = None) -> List[DifferentialCase]:
    """The dense/MoE/GQA x schedule x TP-strategy validation grid."""
    cases: List[DifferentialCase] = []
    for workload in workloads or GRID_WORKLOADS:
        for strategy in GRID_STRATEGIES:
            for schedule, v in GRID_SCHEDULES:
                config = _grid_config(workload, strategy, schedule, v)
                if config is None:
                    continue
                suffix = f"{schedule}" + (f"(v={v})" if v > 1 else "")
                cases.append(
                    DifferentialCase(
                        name=f"{workload}/{strategy}/{suffix}",
                        workload=workload,
                        config=config,
                    )
                )
    return cases


def run_differential_grid(
    cases: Optional[Sequence[DifferentialCase]] = None,
    system: Optional[SystemSpec] = None,
    *,
    options: ModelingOptions = DEFAULT_OPTIONS,
    jobs: Optional[int] = None,
) -> List[DifferentialResult]:
    """Run the full differential grid (``repro-perf validate --backend sim``).

    The cases are independent, so ``jobs > 1`` fans them across worker
    processes; result order always follows ``cases``.
    """
    cases = list(cases if cases is not None else build_default_grid())
    system = system or make_system("B200", 8)
    with SweepExecutor(jobs) as executor:
        return executor.map(_run_case_args, [(case, system, options) for case in cases])


def format_failure_diff(result: DifferentialResult) -> str:
    """Human-readable per-term diff of one out-of-band comparison."""
    lines = [
        f"{result.case.name}: simulated backend disagrees with the analytic model",
        f"  config: {result.case.config.describe()}  "
        f"assignment: {result.analytic.assignment.as_tuple()}",
        f"  {'term':10s} {'analytic(s)':>14s} {'simulated(s)':>14s} "
        f"{'rel err':>9s} {'band(rel,abs)':>16s}  verdict",
    ]
    for d in result.deltas:
        band = TOLERANCES[d.term]
        lines.append(
            f"  {d.term:10s} {d.analytic:14.6e} {d.simulated:14.6e} "
            f"{d.rel_error:8.2%} {f'({band.rel:g}, {band.abs:g})':>16s}  "
            + ("ok" if d.within else "OUT OF BAND")
        )
    return "\n".join(lines)
