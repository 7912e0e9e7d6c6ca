"""Vectorized (NumPy) pricing of whole candidate enumerations.

The scalar evaluation path prices one ``(ParallelConfig, GpuAssignment)``
candidate per :func:`~repro.core.execution.evaluate_config` call — thousands
of Python object constructions per search.  This module prices an *entire*
batch of candidates as NumPy array programs instead: the candidate axes
(tp/pp/dp/ep x schedule x virtual stages x NVS assignment) are packed into
structured arrays, every :class:`~repro.core.plan.CostPhase` term is
evaluated as one vectorized operation across all candidates, and the final
reduction produces the per-candidate step times in a single pass.

**The scalar path stays the bit-exactness oracle.**  Every formula here is
the elementwise float64 transcription of the corresponding scalar code —
same operations, same association order — so with the analytic backend the
batch totals equal :attr:`IterationEstimate.total_time` bit for bit:

* collectives: :func:`repro.core.collectives.collective_time` (latency +
  ring-bandwidth closed forms of §III-A);
* plan assembly: :func:`repro.core.execution._assemble_plan` (per-layer
  roofline times x layers per stage, SUMMA prologue/spill-over, DP
  ReduceScatter/AllGather with overlap budgets);
* reduction: :meth:`repro.core.plan.ExecutionPlan.reduce` /
  :attr:`repro.core.plan.TimeBreakdown.total` (category accumulation in
  plan order).

The equivalence is pinned by ``tests/test_batch_eval.py`` (scenario grid)
and ``tests/test_batch_eval_properties.py`` (hypothesis properties); the
documented tolerance is **exact equality** (``==``) on every category and
on the total.  Only the analytic backend is supported — a simulated bubble
has no closed form to vectorize — and :func:`validate_eval_mode` rejects
batch mode for any other backend.  Every analytic training and Pareto
search the runtime runs (:func:`repro.runtime.executor.solve_search_task`,
behind the CLI, the API and the analysis sweeps) is priced here.

The module also hosts :func:`non_dominated_mask`, the sort-and-sweep
dominance filter behind the Pareto frontier archive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.collectives import _BANDWIDTH_MULTIPLIER, POINT_TO_POINT
from repro.core.config_space import (
    SearchSpace,
    count_configurations,
    gpu_assignments,
    parallel_configs,
)
from repro.core.execution import (
    DEFAULT_BACKEND,
    ModelingOptions,
    DEFAULT_OPTIONS,
    _cached_stage_times,
    _cached_workload,
    _largest_divisor_at_most,
    register_cache,
)
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import (
    GROUP_DP,
    GROUP_DP_TP2,
    GROUP_EP,
    GROUP_PP,
    GROUP_TP1,
    GROUP_TP2,
    GpuAssignment,
    ParallelConfig,
)
from repro.core.parallelism.data_parallel import (
    GRAD_BYTES_PER_PARAM,
    WEIGHT_BYTES_PER_PARAM,
    resolve_zero_stage,
)
from repro.core.schedules import get_schedule
from repro.core.system import NetworkSpec, SystemSpec

__all__ = [
    "EVAL_MODES",
    "BatchBreakdown",
    "CandidateRow",
    "batch_candidate_breakdowns",
    "batch_candidate_times",
    "batch_evaluate_enumeration",
    "materialize_enumeration",
    "non_dominated_mask",
    "validate_eval_mode",
]

#: Evaluation modes of the library search functions' ``eval_mode`` switch:
#: the scalar per-candidate oracle, and the vectorized batch pricer of this
#: module.
EVAL_MODES = ("scalar", "batch")


def validate_eval_mode(eval_mode: str, backend: str = DEFAULT_BACKEND) -> str:
    """Normalise and validate an ``eval_mode`` value for ``backend``.

    Batch mode vectorizes the analytic closed forms, so it is rejected for
    any other backend.
    """
    mode = str(eval_mode).strip().lower()
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown eval_mode {eval_mode!r}; supported: {EVAL_MODES}")
    if mode == "batch" and backend != DEFAULT_BACKEND:
        raise ValueError(
            f"eval_mode='batch' vectorizes the analytic closed forms and is "
            f"only exact against backend={DEFAULT_BACKEND!r}; got {backend!r}"
        )
    return mode


# ----------------------------------------------------------------------
# Vectorized §III-A collective closed forms
# ----------------------------------------------------------------------

def _p2p_time_arr(volume_bytes, gpus_per_domain: np.ndarray, network: NetworkSpec):
    """Elementwise :func:`~repro.core.collectives.point_to_point_time`."""
    fast = network.nvs_latency + volume_bytes / network.effective_nvs_bandwidth
    slow = network.ib_latency + volume_bytes / network.effective_ib_bandwidth
    out = np.where(gpus_per_domain > 1, fast, slow)
    return np.where(np.asarray(volume_bytes) <= 0, 0.0, out)


def _collective_time_arr(
    collective: str,
    volume_bytes,
    size: np.ndarray,
    gpus_per_domain: np.ndarray,
    network: NetworkSpec,
):
    """Elementwise :func:`~repro.core.collectives.collective_time`.

    ``size``/``gpus_per_domain`` are aligned int64 arrays (one entry per
    candidate); ``volume_bytes`` may be a scalar or an aligned array.  Every
    operation mirrors the scalar closed form in order and association, so
    each lane is the bit-exact float64 result of the scalar call.
    """
    zero = (size == 1) | (np.asarray(volume_bytes) <= 0)
    if collective == POINT_TO_POINT:
        return np.where(
            zero, 0.0, _p2p_time_arr(volume_bytes, gpus_per_domain, network)
        )
    multiplier = _BANDWIDTH_MULTIPLIER[collective]
    # latency_time: slow hops across domains plus fast hops inside them.
    num_domains = size // gpus_per_domain
    lat = network.ib_latency * (num_domains - 1) + network.nvs_latency * (
        size - num_domains
    )
    # ring_bandwidth_time: (n-1)/n * max(fast-domain, NIC-multiplexed slow).
    fast = volume_bytes / network.effective_nvs_bandwidth
    share = gpus_per_domain / network.nvs_domain_size
    nics = np.maximum(1.0, network.nics_per_node * np.minimum(1.0, share))
    slow = volume_bytes / (nics * network.effective_ib_bandwidth)
    per_ring = np.where(size > gpus_per_domain, np.maximum(fast, slow), fast)
    ring = (size - 1) / size * per_ring
    return np.where(zero, 0.0, lat + multiplier * ring)


@register_cache("batch_ep_divisor")
@lru_cache(maxsize=4096)
def _ep_colocated(size: int, limit: int) -> int:
    """Memoized largest divisor of ``size`` at most ``limit`` (EP carve-out)."""
    return _largest_divisor_at_most(size, max(1, limit))


# ----------------------------------------------------------------------
# Candidate batches
# ----------------------------------------------------------------------

#: One fully-specified search candidate, with its bookkeeping indices:
#: ``rank`` is the parallelization's enumeration rank and ``assign_idx`` the
#: index of the assignment within ``gpu_assignments`` — the same tie-break
#: key order the scalar search uses.
@dataclass(frozen=True)
class CandidateRow:
    rank: int
    config: ParallelConfig
    assign_idx: int
    assignment: GpuAssignment


@dataclass(frozen=True)
class BatchBreakdown:
    """Per-candidate category times (aligned float64 arrays).

    The fields mirror :class:`~repro.core.plan.TimeBreakdown`;
    :attr:`total` is their sum accumulated in the same category order.
    """

    compute: np.ndarray
    memory: np.ndarray
    tp_comm: np.ndarray
    pp_bubble: np.ndarray
    pp_comm: np.ndarray
    dp_comm: np.ndarray
    total: np.ndarray

    def __len__(self) -> int:
        return len(self.total)


class _GroupGeometry:
    """Vectorized group placement for one homogeneous candidate group.

    Replicates :func:`repro.core.execution._group_placement` (including the
    EP carve-out and the ``GroupPlacement`` co-location clamp) as aligned
    ``(size, gpus_per_nvs_domain)`` int64 arrays, lazily per group label.
    """

    def __init__(
        self,
        n1: int,
        n2: int,
        ep: int,
        np_: np.ndarray,
        nd: np.ndarray,
        nvs_tp1: np.ndarray,
        nvs_tp2: np.ndarray,
        nvs_pp: np.ndarray,
        nvs_dp: np.ndarray,
    ):
        self.n1, self.n2, self.ep = n1, n2, ep
        self.np_, self.nd = np_, nd
        self.nvs = {
            GROUP_TP1: nvs_tp1,
            GROUP_TP2: nvs_tp2,
            GROUP_PP: nvs_pp,
            GROUP_DP: nvs_dp,
        }
        self._count = len(nd)
        self._cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def _const(self, value: int) -> np.ndarray:
        return np.full(self._count, value, dtype=np.int64)

    def _base_size(self, group: str) -> np.ndarray:
        if group.endswith("/ep"):
            # Validity is checked during enumeration; here ep always divides.
            return self._base_size(group[: -len("/ep")]) // self.ep
        if group == GROUP_TP1:
            return self._const(self.n1)
        if group == GROUP_TP2:
            return self._const(self.n2)
        if group == GROUP_PP:
            return self.np_
        if group == GROUP_DP:
            return self.nd
        if group == GROUP_DP_TP2:
            return self.nd * self.n2
        if group == GROUP_EP:
            return self._const(self.ep)
        if group == "tp":
            return self._const(self.n1 * self.n2)
        raise KeyError(f"unknown parallel group {group!r}")

    def _base_nvs(self, group: str) -> np.ndarray:
        if group == GROUP_DP_TP2:
            return self.nvs[GROUP_DP] * self.nvs[GROUP_TP2]
        if group == "tp":
            return self.nvs[GROUP_TP1] * self.nvs[GROUP_TP2]
        return self.nvs[group]

    def __call__(self, group: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(size, gpus_per_nvs_domain)`` arrays of the named group."""
        cached = self._cache.get(group)
        if cached is not None:
            return cached
        size = self._base_size(group)
        if group == GROUP_EP or group.endswith("/ep"):
            base = group[: -len("/ep")] if group.endswith("/ep") else GROUP_DP
            base_nvs = self._base_nvs(base)
            nvs = np.fromiter(
                (_ep_colocated(int(s), int(b)) for s, b in zip(size, base_nvs)),
                dtype=np.int64,
                count=self._count,
            )
        else:
            nvs = self._base_nvs(group)
        # GroupPlacement.__post_init__ clamps co-location to the group size.
        nvs = np.minimum(nvs, size)
        self._cache[group] = (size, nvs)
        return size, nvs


def _comm_time_arr(comms, geometry: _GroupGeometry, network: NetworkSpec, count: int):
    """Vectorized :func:`repro.core.execution._comm_time` (op-order sum)."""
    total = np.zeros(count)
    for comm in comms:
        if comm.overlapped:
            continue
        size, nvs = geometry(comm.group)
        total = total + _collective_time_arr(
            comm.collective, comm.volume_bytes, size, nvs, network
        )
    return total


def _summa_comm_time_arr(records, geometry: _GroupGeometry, network: NetworkSpec, count: int):
    """Vectorized :func:`repro.core.execution._summa_comm_time`."""
    total = np.zeros(count)
    for act_bytes, act_group, w_bytes, w_group, panel_compute, nb in records:
        act_size, act_nvs = geometry(act_group)
        w_size, w_nvs = geometry(w_group)
        panel_act = _collective_time_arr(
            "broadcast", act_bytes / nb, act_size, act_nvs, network
        )
        panel_w = _collective_time_arr("broadcast", w_bytes / nb, w_size, w_nvs, network)
        panel_comm = panel_act + panel_w
        exposed_per_panel = np.maximum(0.0, panel_comm - panel_compute)
        total = total + (panel_comm + max(0, nb - 1) * exposed_per_panel)
    return total


def _dp_comm_arrs(
    params_per_gpu: float,
    stage_layers: np.ndarray,
    sync_group: str,
    zero_stage: int,
    geometry: _GroupGeometry,
    network: NetworkSpec,
):
    """Vectorized DP plan volumes + collective times for one parameter set.

    Mirrors :func:`~repro.core.parallelism.data_parallel.data_parallel_plan`
    plus the pricing loop of ``_assemble_plan``: a group of size 1 has zero
    volume (and the collective closed form returns 0 for it anyway).
    """
    size, nvs = geometry(sync_group)
    params = params_per_gpu * stage_layers
    grad_bytes = GRAD_BYTES_PER_PARAM * params
    weight_bytes = WEIGHT_BYTES_PER_PARAM * params
    if zero_stage >= 3:
        weight_bytes = 2.0 * weight_bytes
    singleton = size <= 1
    grad_bytes = np.where(singleton, 0.0, grad_bytes)
    weight_bytes = np.where(singleton, 0.0, weight_bytes)
    rs = _collective_time_arr("reduce_scatter", grad_bytes, size, nvs, network)
    ag = _collective_time_arr("all_gather", weight_bytes, size, nvs, network)
    return rs, ag


#: Axes that are constant within one vectorized group: everything the cached
#: stage times / workload depend on, plus the schedule (whose bubble formula
#: and P2P volume factor differ per schedule).
_GroupKey = Tuple[str, int, int, int, int, int, str]


def _group_key(config: ParallelConfig) -> _GroupKey:
    return (
        config.strategy,
        config.microbatch_size,
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.summa_panels,
        config.expert_parallel,
        config.schedule,
    )


def _price_group(
    model: TransformerConfig,
    system: SystemSpec,
    candidates: Sequence[Tuple[ParallelConfig, GpuAssignment]],
    global_batch_size: int,
    options: ModelingOptions,
) -> BatchBreakdown:
    """Price one homogeneous group (shared stage times) of candidates."""
    head = candidates[0][0]
    schedule = get_schedule(head.schedule)
    network = system.network
    count = len(candidates)

    stage = _cached_stage_times(
        head.strategy,
        model,
        system.gpu,
        head.microbatch_size,
        head.tensor_parallel_1,
        head.tensor_parallel_2,
        head.summa_panels,
        options.flash_attention,
        options.include_dropout,
        options.include_flop_latency,
        head.expert_parallel,
    )
    workload = _cached_workload(
        head.strategy,
        model,
        head.microbatch_size,
        head.tensor_parallel_1,
        head.tensor_parallel_2,
        head.summa_panels,
        options.flash_attention,
        options.include_dropout,
        head.expert_parallel,
    )

    # --- per-candidate integer axes ------------------------------------
    np_ = np.fromiter((c.pipeline_parallel for c, _ in candidates), np.int64, count)
    nd = np.fromiter((c.data_parallel for c, _ in candidates), np.int64, count)
    v = np.fromiter((c.virtual_stages for c, _ in candidates), np.int64, count)
    m = np.fromiter(
        (c.num_microbatches(global_batch_size) for c, _ in candidates), np.int64, count
    )
    stage_layers = model.depth // np_
    geometry = _GroupGeometry(
        head.tensor_parallel_1,
        head.tensor_parallel_2,
        head.expert_parallel,
        np_,
        nd,
        np.fromiter((a.nvs_tp1 for _, a in candidates), np.int64, count),
        np.fromiter((a.nvs_tp2 for _, a in candidates), np.int64, count),
        np.fromiter((a.nvs_pp for _, a in candidates), np.int64, count),
        np.fromiter((a.nvs_dp for _, a in candidates), np.int64, count),
    )

    # --- per-microbatch, per-stage times (mirrors _assemble_plan) -------
    fwd_tp_comm = _comm_time_arr(
        stage.fwd_comms, geometry, network, count
    ) + _summa_comm_time_arr(stage.fwd_summa, geometry, network, count)
    bwd_tp_comm = _comm_time_arr(
        stage.bwd_comms, geometry, network, count
    ) + _summa_comm_time_arr(stage.bwd_summa, geometry, network, count)

    fwd_compute = stage.fwd_flop * stage_layers
    fwd_memory = stage.fwd_mem_exposed * stage_layers
    bwd_compute = stage.bwd_flop * stage_layers
    bwd_memory = stage.bwd_mem_exposed * stage_layers
    fwd_tp_comm = fwd_tp_comm * stage_layers
    bwd_tp_comm = bwd_tp_comm * stage_layers

    if options.activation_checkpointing:
        bwd_compute = bwd_compute + fwd_compute
        bwd_memory = bwd_memory + fwd_memory
        bwd_tp_comm = bwd_tp_comm + fwd_tp_comm

    tf = fwd_compute + fwd_memory + fwd_tp_comm
    tb = bwd_compute + bwd_memory + bwd_tp_comm

    compute = m * (fwd_compute + bwd_compute)
    memory = m * (fwd_memory + bwd_memory)
    tp_comm = m * (fwd_tp_comm + bwd_tp_comm)
    pp_bubble = schedule.bubble_time_batch(np_, m, tf, tb, v)

    # --- pipeline P2P ---------------------------------------------------
    if options.overlap_pp:
        pp_comm = np.zeros(count)
    else:
        # pipeline_p2p_volume_bytes, hoisted: constant within the group.
        elements = (
            head.microbatch_size * model.seq_len * model.embed_dim / head.tensor_parallel
        )
        p2p_volume = 2.0 * (elements * model.dtype_bytes)
        _, pp_nvs = geometry(GROUP_PP)
        factors = {vs: schedule.p2p_volume_factor(vs) for vs in np.unique(v).tolist()}
        factor = np.fromiter((factors[vv] for vv in v.tolist()), np.float64, count)
        pp_comm = np.where(
            np_ > 1, m * (factor * _p2p_time_arr(p2p_volume, pp_nvs, network)), 0.0
        )

    # --- data parallel ---------------------------------------------------
    zero_stage = resolve_zero_stage(options.zero_stage, options.zero_optimizer)
    rs_total, ag_total = _dp_comm_arrs(
        workload.params_per_gpu, stage_layers, workload.grad_sync_group,
        zero_stage, geometry, network,
    )
    if workload.expert_params_per_gpu > 0:
        rs_exp, ag_exp = _dp_comm_arrs(
            workload.expert_params_per_gpu, stage_layers,
            workload.expert_grad_sync_group, zero_stage, geometry, network,
        )
        rs_total = rs_total + rs_exp
        ag_total = ag_total + ag_exp
    if options.overlap_dp:
        dp_comm = np.maximum(0.0, rs_total - tb) + np.maximum(0.0, ag_total - tf)
    else:
        dp_comm = rs_total + ag_total

    total = compute + memory + tp_comm + pp_bubble + pp_comm + dp_comm
    return BatchBreakdown(
        compute=compute,
        memory=memory,
        tp_comm=tp_comm,
        pp_bubble=pp_bubble,
        pp_comm=pp_comm,
        dp_comm=dp_comm,
        total=total,
    )


def batch_candidate_breakdowns(
    model: TransformerConfig,
    system: SystemSpec,
    candidates: Sequence[Tuple[ParallelConfig, GpuAssignment]],
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> BatchBreakdown:
    """Per-candidate category breakdowns of a heterogeneous candidate batch.

    Candidates are grouped by their stage-time key (strategy, microbatch,
    TP factorization, panels, EP, schedule); each group is priced as one
    array program and the results are scattered back into input order.
    """
    count = len(candidates)
    fields = {
        name: np.zeros(count)
        for name in ("compute", "memory", "tp_comm", "pp_bubble", "pp_comm", "dp_comm", "total")
    }
    groups: Dict[_GroupKey, List[int]] = {}
    for idx, (config, _) in enumerate(candidates):
        groups.setdefault(_group_key(config), []).append(idx)
    for indices in groups.values():
        priced = _price_group(
            model,
            system,
            [candidates[i] for i in indices],
            global_batch_size,
            options,
        )
        for name, out in fields.items():
            out[indices] = getattr(priced, name)
    return BatchBreakdown(**fields)


def batch_candidate_times(
    model: TransformerConfig,
    system: SystemSpec,
    candidates: Sequence[Tuple[ParallelConfig, GpuAssignment]],
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> np.ndarray:
    """Per-candidate total iteration times (float64, input order)."""
    return batch_candidate_breakdowns(
        model, system, candidates, global_batch_size=global_batch_size, options=options
    ).total


# ----------------------------------------------------------------------
# Whole-enumeration entry points
# ----------------------------------------------------------------------

def materialize_enumeration(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    *,
    check_counts: bool = True,
) -> List[CandidateRow]:
    """Materialize every (parallelization, assignment) candidate as rows.

    With ``check_counts`` (the default, active under ``__debug__``), the
    materialized row count is asserted equal to
    :func:`~repro.core.config_space.count_configurations`, so the
    enumeration and the batch pricer can never silently diverge.
    """
    rows: List[CandidateRow] = []
    n_configs = 0
    for rank, config in enumerate(
        parallel_configs(model, n_gpus, global_batch_size, strategy, space)
    ):
        n_configs += 1
        for assign_idx, assignment in enumerate(
            gpu_assignments(config, system.nvs_domain_size, space)
        ):
            rows.append(CandidateRow(rank, config, assign_idx, assignment))
    if check_counts and __debug__:
        counted_configs, counted_rows = count_configurations(
            model, n_gpus, global_batch_size, strategy, system.nvs_domain_size, space
        )
        assert (n_configs, len(rows)) == (counted_configs, counted_rows), (
            f"enumeration drifted from count_configurations: materialized "
            f"({n_configs}, {len(rows)}) != counted ({counted_configs}, {counted_rows})"
        )
    return rows


def batch_evaluate_enumeration(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    *,
    space: SearchSpace,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> Tuple[List[CandidateRow], BatchBreakdown]:
    """Price one strategy's full enumeration; returns (rows, breakdowns).

    Analysis/testing helper: the search itself prices memory-filtered
    chunks (see :func:`repro.core.search.find_optimal_config`), but the
    full-enumeration form is what the equivalence suites pin against the
    scalar oracle.
    """
    rows = materialize_enumeration(
        model, system, n_gpus, global_batch_size, strategy, space
    )
    priced = batch_candidate_breakdowns(
        model,
        system,
        [(row.config, row.assignment) for row in rows],
        global_batch_size=global_batch_size,
        options=options,
    )
    return rows, priced


# ----------------------------------------------------------------------
# Vectorized Pareto dominance
# ----------------------------------------------------------------------

#: Rows per block of the dominance sweep.  A block is tested against the
#: kept front and then against itself: O(|front| * b + b^2) comparisons per
#: column in a handful of NumPy calls.
_DOMINANCE_BLOCK = 128


def _dominated_by(witnesses: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the ``rows`` that some row of ``witnesses`` strictly dominates.

    Both are column-major ``(k, m)`` blocks.  The test builds one
    ``(witnesses, rows)`` boolean plane per column, which NumPy evaluates
    far faster than a reduction over a short trailing ``k`` axis.
    """
    le = np.ones((witnesses.shape[1], rows.shape[1]), dtype=bool)
    lt = np.zeros_like(le)
    for w, r in zip(witnesses, rows):
        le &= w[:, None] <= r
        lt |= w[:, None] < r
    return (le & lt).any(axis=0)


def non_dominated_mask(vectors: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``vectors``.

    ``vectors`` is an ``(n, k)`` float64 matrix of canonical (minimised)
    metric vectors.  Row ``i`` is *strictly dominated* when some row ``j``
    is ``<=`` it in every component and ``<`` in at least one; the mask
    keeps exactly the rows no other row strictly dominates.  Duplicate
    vectors never dominate each other, so every copy of a non-dominated
    vector survives — the tie semantics the Pareto search's deterministic
    ``(vector, rank, assignment)`` ordering relies on.

    Sort-and-sweep (Kung, Luccio and Preparata, JACM 1975): the rows are
    sorted lexicographically, so a strict dominator always precedes its
    victim, and walked in blocks of :data:`_DOMINANCE_BLOCK` rows.  A block
    drops the rows the kept front dominates, then the rows other rows of
    the block dominate, and appends the survivors to the front.  A dominated
    row never has to act as a witness — whatever dominates it dominates its
    victims too — so a kept row is never removed later.  Work is
    O(n log n + n * |front| * k).
    """
    pts = np.asarray(vectors, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, k) matrix, got shape {pts.shape}")
    n, k = pts.shape
    if k == 0:  # no objectives: nothing is strictly better anywhere
        return np.ones(n, dtype=bool)
    order = np.lexsort(pts.T[::-1])
    columns = pts.T[:, order]
    keep = np.zeros(n, dtype=bool)
    front = columns[:, :0]
    for start in range(0, n, _DOMINANCE_BLOCK):
        idx = order[start : start + _DOMINANCE_BLOCK]
        block = columns[:, start : start + _DOMINANCE_BLOCK]
        if front.shape[1]:
            alive = ~_dominated_by(front, block)
            idx, block = idx[alive], block[:, alive]
        alive = ~_dominated_by(block, block)
        keep[idx[alive]] = True
        front = np.concatenate((front, block[:, alive]), axis=1)
    return keep
