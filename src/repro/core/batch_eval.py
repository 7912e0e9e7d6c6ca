"""Vectorized (NumPy) pricing of candidate batches.

The scalar evaluation path prices one ``(ParallelConfig, GpuAssignment)``
candidate per :func:`~repro.core.execution.evaluate_config` call — thousands
of Python object constructions per search.  This module prices a whole
batch (a search chunk) as NumPy array programs instead.  The batch arrives
one parallelization at a time (:class:`CandidateBlocks`: each config over
the matrix of its NVS assignments), and each candidate is one *lane*: its
integer axes (pipeline and DP degrees, microbatch count, schedule, virtual
stages, NVS assignment) are packed into one int64 lane matrix.  Lanes are grouped by the *structure* of their stage key — the
ordered collectives, SUMMA records and DP sync groups, which one model and
strategy share across every microbatch size, TP factorization, panel count
and EP degree — and each group is priced as one program: the per-key
numbers (stage times, volumes, parameter counts) are gathered into lane
arrays, every :class:`~repro.core.plan.CostPhase` term is one vectorized
operation across the lanes, and the bubble and P2P factor are applied per
schedule through masks.  A chunk of one model and strategy is one program.

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
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.collectives import _BANDWIDTH_MULTIPLIER, POINT_TO_POINT
from repro.core.config_space import (
    ASSIGNMENT_CACHE_SIZE,
    DEFAULT_SEARCH_SPACE,
    SearchSpace,
    _assignments,
    default_assignment,
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
    ParallelConfig,
)
from repro.core.parallelism.data_parallel import (
    GRAD_BYTES_PER_PARAM,
    WEIGHT_BYTES_PER_PARAM,
)
from repro.core.schedules import get_schedule
from repro.core.system import GpuSpec, NetworkSpec, SystemSpec

__all__ = [
    "EVAL_MODES",
    "BatchBreakdown",
    "CandidateBlocks",
    "assignment_matrix",
    "batch_candidate_breakdowns",
    "batch_candidate_times",
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
# Candidate lanes
# ----------------------------------------------------------------------

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


#: Rows of the lane matrix (:func:`_pack_blocks`), one column per candidate:
#: the stage key index, the ``(schedule, virtual stages)`` index, the
#: pipeline and data-parallel degrees, the virtual stages, the microbatch
#: count and the four NVS assignment factors.
_KEY, _SV, _NP, _ND, _V, _M, _NVS_TP1, _NVS_TP2, _NVS_PP, _NVS_DP = range(10)

#: What a candidate's stage times and workload depend on: strategy,
#: microbatch, TP factorization, SUMMA panels and EP degree.
_StageKey = Tuple[str, int, int, int, int, int]


@register_cache("assignment_matrix")
@lru_cache(maxsize=ASSIGNMENT_CACHE_SIZE)
def _assignment_matrix(tp1: int, tp2: int, pp: int, dp: int, nvs_domain_size: int) -> np.ndarray:
    """``config_space._assignments`` of one group shape as an int64 matrix."""
    matrix = np.array(
        [assignment.as_tuple() for assignment in _assignments(tp1, tp2, pp, dp, nvs_domain_size)],
        dtype=np.int64,
    ).reshape(-1, 4)
    matrix.setflags(write=False)  # every caller shares the memoized matrix
    return matrix


def assignment_matrix(
    config: ParallelConfig, nvs_domain_size: int, space: SearchSpace = DEFAULT_SEARCH_SPACE
) -> np.ndarray:
    """:func:`~repro.core.config_space.gpu_assignments` as an ``(n, 4)`` matrix.

    Row ``i`` is assignment ``i``'s NVS factors ``(nvs_tp1, nvs_tp2, nvs_pp,
    nvs_dp)``.  The matrix of a searched space is memoized per group shape
    and read-only.
    """
    if not space.search_gpu_assignment:
        return np.array([default_assignment(config, nvs_domain_size).as_tuple()], dtype=np.int64)
    return _assignment_matrix(
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.pipeline_parallel,
        config.data_parallel,
        nvs_domain_size,
    )


class CandidateBlocks:
    """A batch of candidates, packed one parallelization at a time.

    Block ``i`` is ``configs[i]`` under every row of ``assignments[i]``, an
    ``(n_i, 4)`` integer matrix of NVS factors such as
    :func:`assignment_matrix` returns.  Candidates are ordered block by
    block, and ``len()`` counts them.
    """

    def __init__(self, configs: Sequence[ParallelConfig], assignments: Sequence) -> None:
        self.configs = configs
        self.assignments = assignments
        self.sizes = np.fromiter(map(len, assignments), dtype=np.int64, count=len(assignments))

    def __len__(self) -> int:
        return int(self.sizes.sum())

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(block index, row index)`` of every candidate, in candidate order."""
        block = np.repeat(np.arange(len(self.sizes)), self.sizes)
        starts = np.cumsum(self.sizes) - self.sizes
        return block, np.arange(len(block)) - starts[block]


def _pack_blocks(
    blocks: CandidateBlocks, global_batch_size: int
) -> Tuple[List[_StageKey], List[Tuple[str, int]], np.ndarray]:
    """``(stage keys, (schedule, v) pairs, lane matrix)`` of a candidate batch.

    The lane matrix is ``(10, n)`` int64 (rows :data:`_KEY` ...
    :data:`_NVS_DP`); its first two rows index into the two lists.  Each
    block's config columns are built once and repeated over its assignment
    rows.
    """
    keys: Dict[_StageKey, int] = {}
    schedules: Dict[Tuple[str, int], int] = {}
    heads = []
    for config in blocks.configs:
        key = (
            config.strategy,
            config.microbatch_size,
            config.tensor_parallel_1,
            config.tensor_parallel_2,
            config.summa_panels,
            config.expert_parallel,
        )
        heads.append(
            (
                keys.setdefault(key, len(keys)),
                schedules.setdefault((config.schedule, config.virtual_stages), len(schedules)),
                config.pipeline_parallel,
                config.data_parallel,
                config.virtual_stages,
                config.num_microbatches(global_batch_size),
            )
        )
    lanes = np.empty((10, len(blocks)), dtype=np.int64)
    if heads:
        lanes[:_NVS_TP1] = np.repeat(np.array(heads, dtype=np.int64), blocks.sizes, axis=0).T
        lanes[_NVS_TP1:] = np.concatenate(blocks.assignments).T
    return list(keys), list(schedules), lanes


class _Structure(NamedTuple):
    """The collectives of one stage key, without their volumes.

    Stage keys with equal structures price as one lane program: the
    program's shape is fixed by the structure, and the per-key numbers
    (stage times, volumes, SUMMA records, parameter counts) enter it as
    lane arrays.
    """

    #: ``(collective, group)`` of each exposed (non-overlapped) TP
    #: collective, and ``(activation group, weight group)`` of each SUMMA
    #: matmul, of the forward and the backward pass.
    fwd_comms: Tuple[Tuple[str, str], ...]
    fwd_summa: Tuple[Tuple[str, str], ...]
    bwd_comms: Tuple[Tuple[str, str], ...]
    bwd_summa: Tuple[Tuple[str, str], ...]
    #: The DP gradient-sync group, then the expert one when the model has
    #: expert parameters.
    sync_groups: Tuple[str, ...]


def _key_values(
    model: TransformerConfig, gpu: GpuSpec, key: _StageKey, options: ModelingOptions
) -> Tuple[_Structure, List[float], Tuple[int, int, int]]:
    """``(structure, per-key floats, (n1, n2, ep))`` of one stage key.

    The floats are, in this order: forward and backward flop and exposed
    HBM times, dense and expert parameters per GPU, the two-way pipeline
    P2P volume, then the forward collective volumes, the forward SUMMA
    records ``(activation bytes, weight bytes, panel compute, panels)``,
    the backward collective volumes and the backward SUMMA records —
    the order :func:`_price_lanes` reads them in.
    """
    strategy, bm, n1, n2, nb, ep = key
    stage = _cached_stage_times(
        strategy, model, gpu, bm, n1, n2, nb,
        options.flash_attention, options.include_dropout, options.include_flop_latency, ep,
    )
    workload = _cached_workload(
        strategy, model, bm, n1, n2, nb, options.flash_attention, options.include_dropout, ep
    )
    # pipeline_p2p_volume_bytes(both_directions=True), in its operation order.
    elements = bm * model.seq_len * model.embed_dim / (n1 * n2)
    values = [
        stage.fwd_flop,
        stage.fwd_mem_exposed,
        stage.bwd_flop,
        stage.bwd_mem_exposed,
        workload.params_per_gpu,
        workload.expert_params_per_gpu,
        2.0 * (elements * model.dtype_bytes),
    ]
    shape = []
    for comms, records in ((stage.fwd_comms, stage.fwd_summa), (stage.bwd_comms, stage.bwd_summa)):
        exposed = [comm for comm in comms if not comm.overlapped]
        values += [comm.volume_bytes for comm in exposed]
        for act_bytes, _, w_bytes, _, panel_compute, panels in records:
            values += [act_bytes, w_bytes, panel_compute, panels]
        shape.append(tuple((comm.collective, comm.group) for comm in exposed))
        shape.append(tuple((rec[1], rec[3]) for rec in records))
    sync_groups = (workload.grad_sync_group,)
    if workload.expert_params_per_gpu > 0:
        sync_groups += (workload.expert_grad_sync_group,)
    return _Structure(*shape, sync_groups), values, (n1, n2, ep)


class _GroupGeometry:
    """Vectorized group placement of a set of candidate lanes.

    Replicates :func:`repro.core.execution._group_placement` (including the
    EP carve-out and the ``GroupPlacement`` co-location clamp) as aligned
    ``(size, gpus_per_nvs_domain)`` int64 arrays, lazily per group label.
    """

    def __init__(self, n1: np.ndarray, n2: np.ndarray, ep: np.ndarray, lanes: np.ndarray):
        self.n1, self.n2, self.ep = n1, n2, ep
        self.np_, self.nd = lanes[_NP], lanes[_ND]
        self.nvs = {
            GROUP_TP1: lanes[_NVS_TP1],
            GROUP_TP2: lanes[_NVS_TP2],
            GROUP_PP: lanes[_NVS_PP],
            GROUP_DP: lanes[_NVS_DP],
        }
        self._cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def _base_size(self, group: str) -> np.ndarray:
        if group.endswith("/ep"):
            # Validity is checked during enumeration; here ep always divides.
            return self._base_size(group[: -len("/ep")]) // self.ep
        if group == GROUP_TP1:
            return self.n1
        if group == GROUP_TP2:
            return self.n2
        if group == GROUP_PP:
            return self.np_
        if group == GROUP_DP:
            return self.nd
        if group == GROUP_DP_TP2:
            return self.nd * self.n2
        if group == GROUP_EP:
            return self.ep
        if group == "tp":
            return self.n1 * self.n2
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
            # One divisor search per distinct (size, co-location) pair.
            pairs, inverse = np.unique((size << 32) | base_nvs, return_inverse=True)
            nvs = np.array(
                [_ep_colocated(p >> 32, p & 0xFFFFFFFF) for p in pairs.tolist()],
                dtype=np.int64,
            )[inverse.reshape(-1)]
        else:
            nvs = self._base_nvs(group)
        # GroupPlacement.__post_init__ clamps co-location to the group size.
        nvs = np.minimum(nvs, size)
        self._cache[group] = (size, nvs)
        return size, nvs


def _comm_time_arr(comms, volumes, geometry: _GroupGeometry, network: NetworkSpec, count: int):
    """Vectorized :func:`repro.core.execution._comm_time` (op-order sum).

    ``comms`` are a structure's exposed ``(collective, group)`` pairs; their
    volume lanes are read from the ``volumes`` iterator.
    """
    total = np.zeros(count)
    for collective, group in comms:
        size, nvs = geometry(group)
        total = total + _collective_time_arr(collective, next(volumes), size, nvs, network)
    return total


def _summa_comm_time_arr(records, values, geometry: _GroupGeometry, network: NetworkSpec, count: int):
    """Vectorized :func:`repro.core.execution._summa_comm_time`.

    ``records`` are a structure's ``(activation group, weight group)``
    pairs; each record's four value lanes are read from ``values``.
    """
    total = np.zeros(count)
    for act_group, w_group in records:
        act_bytes, w_bytes, panel_compute, nb = (next(values) for _ in range(4))
        act_size, act_nvs = geometry(act_group)
        w_size, w_nvs = geometry(w_group)
        panel_act = _collective_time_arr(
            "broadcast", act_bytes / nb, act_size, act_nvs, network
        )
        panel_w = _collective_time_arr("broadcast", w_bytes / nb, w_size, w_nvs, network)
        panel_comm = panel_act + panel_w
        exposed_per_panel = np.maximum(0.0, panel_comm - panel_compute)
        total = total + (panel_comm + np.maximum(0, nb - 1) * exposed_per_panel)
    return total


def _dp_comm_arrs(
    params_per_gpu: np.ndarray,
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


def _price_lanes(
    model: TransformerConfig,
    network: NetworkSpec,
    options: ModelingOptions,
    structure: _Structure,
    values: np.ndarray,
    ints: np.ndarray,
    lanes: np.ndarray,
    schedules: Sequence[Tuple[str, int]],
) -> BatchBreakdown:
    """Price lanes of one structure as a single array program.

    ``values`` (float64) and ``ints`` (``n1, n2, ep``) hold each lane's
    per-key numbers, one row per quantity, in :func:`_key_values` order;
    ``lanes`` is the matching slice of the lane matrix.  Every expression
    mirrors ``_assemble_plan`` and the plan reduction operation for
    operation, so each lane is the scalar oracle's float64 result.
    """
    count = lanes.shape[1]
    np_, v, m, sv = lanes[_NP], lanes[_V], lanes[_M], lanes[_SV]
    fwd_flop, fwd_mem, bwd_flop, bwd_mem, params, expert_params, p2p_volume = values[:7]
    rows = iter(values[7:])  # the collective and SUMMA lanes, in structure order
    stage_layers = model.depth // np_
    geometry = _GroupGeometry(ints[0], ints[1], ints[2], lanes)

    # --- per-microbatch, per-stage times (mirrors _assemble_plan) -------
    fwd_tp_comm = _comm_time_arr(structure.fwd_comms, rows, geometry, network, count)
    fwd_tp_comm = fwd_tp_comm + _summa_comm_time_arr(
        structure.fwd_summa, rows, geometry, network, count
    )
    bwd_tp_comm = _comm_time_arr(structure.bwd_comms, rows, geometry, network, count)
    bwd_tp_comm = bwd_tp_comm + _summa_comm_time_arr(
        structure.bwd_summa, rows, geometry, network, count
    )

    fwd_compute = fwd_flop * stage_layers
    fwd_memory = fwd_mem * stage_layers
    bwd_compute = bwd_flop * stage_layers
    bwd_memory = bwd_mem * stage_layers
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

    # --- pipeline bubble, per schedule ----------------------------------
    names = list(dict.fromkeys(name for name, _ in schedules))
    sched = np.array([names.index(name) for name, _ in schedules], dtype=np.int64)[sv]
    pp_bubble = np.empty(count)
    for index, name in enumerate(names):
        lane = sched == index
        pp_bubble[lane] = get_schedule(name).bubble_time_batch(
            np_[lane], m[lane], tf[lane], tb[lane], v[lane]
        )

    # --- pipeline P2P ---------------------------------------------------
    if options.overlap_pp:
        pp_comm = np.zeros(count)
    else:
        factor = np.array(
            [get_schedule(name).p2p_volume_factor(vs) for name, vs in schedules],
            dtype=np.float64,
        )[sv]
        _, pp_nvs = geometry(GROUP_PP)
        pp_comm = np.where(
            np_ > 1, m * (factor * _p2p_time_arr(p2p_volume, pp_nvs, network)), 0.0
        )

    # --- data parallel ---------------------------------------------------
    zero_stage = options.zero_stage
    rs_total, ag_total = _dp_comm_arrs(
        params, stage_layers, structure.sync_groups[0], zero_stage, geometry, network
    )
    if len(structure.sync_groups) > 1:
        rs_exp, ag_exp = _dp_comm_arrs(
            expert_params, stage_layers, structure.sync_groups[1], zero_stage, geometry, network
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
    candidates: CandidateBlocks,
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> BatchBreakdown:
    """Per-candidate category breakdowns of a heterogeneous candidate batch.

    The blocks are packed into lanes, and the lanes are grouped by the
    :class:`_Structure` of their stage key (not by the key itself): every
    microbatch size, TP factorization, panel count, EP degree and schedule
    with the same collectives shares one array program, with the per-key
    numbers gathered into lane arrays.  A batch of one model and strategy
    is typically one program; each program's results are scattered back
    into candidate order.
    """
    keys, schedules, lanes = _pack_blocks(candidates, global_batch_size)
    programs: Dict[_Structure, List[int]] = {}
    key_values, key_ints = [], []
    for key in keys:
        structure, values, ints = _key_values(model, system.gpu, key, options)
        programs.setdefault(structure, []).append(len(key_values))
        key_values.append(values)
        key_ints.append(ints)

    key_of_lane = lanes[_KEY]
    out = {
        name: np.empty(lanes.shape[1])
        for name in ("compute", "memory", "tp_comm", "pp_bubble", "pp_comm", "dp_comm", "total")
    }
    for structure, members in programs.items():
        # Per-key numbers as (quantity, key) matrices, gathered per lane.
        values = np.array([key_values[k] for k in members], dtype=np.float64).T.copy()
        ints = np.array([key_ints[k] for k in members], dtype=np.int64).T.copy()
        local_of = np.full(len(keys), -1, dtype=np.int64)
        local_of[members] = np.arange(len(members))
        local = local_of[key_of_lane]
        (index,) = np.nonzero(local >= 0)
        priced = _price_lanes(
            model, system.network, options, structure,
            values[:, local[index]], ints[:, local[index]], lanes[:, index], schedules,
        )
        for name, arr in out.items():
            arr[index] = getattr(priced, name)
    return BatchBreakdown(**out)


def batch_candidate_times(
    model: TransformerConfig,
    system: SystemSpec,
    candidates: CandidateBlocks,
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
) -> np.ndarray:
    """Per-candidate total iteration times (float64, candidate order)."""
    return batch_candidate_breakdowns(
        model, system, candidates, global_batch_size=global_batch_size, options=options
    ).total


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
