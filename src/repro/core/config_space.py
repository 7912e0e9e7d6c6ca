"""Configuration-space enumeration (stage S3, candidate generation).

Given a GPU count ``n``, a global batch size ``b`` and a strategy, the
search space consists of

1. *Parallelization and microbatch configurations* ``(b_m, n1, n2, np, nd)``
   obtained by decomposing ``n`` into all possible factor tuples, discarding
   factors that do not evenly divide the tensor dimension they partition
   (heads/sequence/hidden for the TP factors, depth for ``np``, the global
   batch for ``nd``) and microbatch sizes that do not divide the per-replica
   batch;
2. *GPU assignment configurations* ``(nNVS1, nNVS2, nNVSp, nNVSd)`` obtained
   by decomposing the NVSwitch-domain size into per-group factors, each of
   which must divide its group size;
3. *SUMMA panel counts* ``nb`` (only for the SUMMA strategy);
4. *Pipeline schedules* and their virtual-stage degrees (``SearchSpace.schedules``
   / ``SearchSpace.virtual_stages``; the default enumerates only the paper's
   1F1B so the searched space matches the paper exactly).

The enumeration is deliberately exhaustive — the paper's solver does a
brute-force search — but restricted to power-of-two factors by default
(every configuration the paper reports is a power of two), which keeps the
search tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from repro.core.model import TransformerConfig
from repro.core.parallelism.base import (
    GpuAssignment,
    ParallelConfig,
    get_strategy,
)
from repro.core.schedules import DEFAULT_SCHEDULE, get_schedule
from repro.utils.factorization import divisors, factorizations, pow2_divisors


@dataclass(frozen=True)
class SearchSpace:
    """Knobs controlling the size of the configuration search."""

    #: Candidate microbatch sizes; ``None`` derives them from the local batch.
    microbatch_sizes: Tuple[int, ...] | None = None
    #: Upper bound on the microbatch size when deriving candidates.
    max_microbatch_size: int = 8
    #: Restrict all parallel degrees to powers of two (paper configurations).
    power_of_two_only: bool = True
    #: Candidate SUMMA panel counts (filtered by divisibility per matmul).
    summa_panels: Tuple[int, ...] = (1, 2, 4)
    #: Upper bound on the total tensor-parallel degree (None = unlimited).
    max_tensor_parallel: int | None = None
    #: Candidate expert-parallel degrees for MoE models; ``None`` derives
    #: them automatically (every factor of the data-parallel degree that also
    #: divides the expert count).  Ignored for dense models (always 1).
    expert_parallel: Tuple[int, ...] | None = None
    #: Search over GPU-to-NVS-domain assignments (the paper's contribution
    #: over Calculon); when False, a single default assignment is used that
    #: fills the domain in (tp1, tp2, pp, dp) priority order.
    search_gpu_assignment: bool = True
    #: Branch-and-bound pruning: order parallelizations by their cheap
    #: compute-only lower bound (:func:`repro.core.execution.config_time_lower_bound`)
    #: and skip the NVS-assignment loop of any parallelization whose bound
    #: already exceeds the incumbent optimum.  Never changes the selected
    #: optimum (or the top-k set); only reduces the candidates evaluated.
    prune_with_lower_bound: bool = True
    #: Pipeline schedules to enumerate (registry names, see
    #: :mod:`repro.core.schedules`).  The default searches only the paper's
    #: non-interleaved 1F1B, which keeps the candidate set (and therefore
    #: every reproduced figure) identical to the paper's.
    schedules: Tuple[str, ...] = (DEFAULT_SCHEDULE,)
    #: Candidate virtual-stage degrees for interleaving schedules; degrees a
    #: schedule rejects for a given configuration (non-dividing, or the
    #: schedule does not interleave at all) are filtered per candidate.
    virtual_stages: Tuple[int, ...] = (1,)


DEFAULT_SEARCH_SPACE = SearchSpace()


def _candidate_factors(n: int, power_of_two_only: bool) -> Sequence[int]:
    return pow2_divisors(n) if power_of_two_only else divisors(n)


def microbatch_candidates(
    local_batch: int, space: SearchSpace = DEFAULT_SEARCH_SPACE
) -> Tuple[int, ...]:
    """Microbatch sizes that divide the per-replica batch."""
    if local_batch < 1:
        return ()
    if space.microbatch_sizes is not None:
        return tuple(
            bm for bm in space.microbatch_sizes if bm >= 1 and local_batch % bm == 0
        )
    candidates = _candidate_factors(local_batch, space.power_of_two_only)
    return tuple(bm for bm in candidates if bm <= space.max_microbatch_size)


def expert_parallel_candidates(
    model: TransformerConfig,
    data_parallel: int,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
) -> Tuple[int, ...]:
    """Admissible expert-parallel degrees for ``model`` at one DP degree.

    The EP group is carved out of the DP group, so every candidate must
    divide ``data_parallel``; each GPU holds ``num_experts / ep`` whole
    experts, so it must divide the expert count too.  Dense models always
    return ``(1,)``.

    With an explicit ``space.expert_parallel`` candidate list the result may
    be empty: a pinned degree that no candidate satisfies at this DP degree
    must eliminate the parallelization, not silently fall back to ``ep=1``.
    The automatic derivation always contains 1, so it is never empty.
    """
    if model.num_experts == 1:
        return (1,)
    candidates = (
        space.expert_parallel
        if space.expert_parallel is not None
        else _candidate_factors(data_parallel, space.power_of_two_only)
    )
    return tuple(
        ep
        for ep in candidates
        if ep >= 1 and data_parallel % ep == 0 and model.num_experts % ep == 0
    )


def parallel_configs(
    model: TransformerConfig,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
) -> Iterator[ParallelConfig]:
    """Enumerate admissible ``(bm, n1, n2, np, nd)`` configurations.

    The strategy's own divisibility rules (heads vs ``n1``, sequence vs
    ``n2``, ...) are applied so that every yielded configuration can be
    evaluated without error.
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    if global_batch_size < 1:
        raise ValueError("global_batch_size must be >= 1")
    strat = get_strategy(strategy)
    is_1d = strategy == "tp1d"

    for n1, n2, np_, nd in factorizations(n_gpus, 4):
        if is_1d and n2 != 1:
            continue
        if space.power_of_two_only and not all(
            x & (x - 1) == 0 for x in (n1, n2, np_, nd)
        ):
            continue
        if space.max_tensor_parallel is not None and n1 * n2 > space.max_tensor_parallel:
            continue
        if model.depth % np_ != 0:
            continue
        if global_batch_size % nd != 0:
            continue
        local_batch = global_batch_size // nd
        bms = microbatch_candidates(local_batch, space)
        if not bms:
            continue

        panel_options: Sequence[int]
        if strategy == "summa":
            panel_options = tuple(
                nb for nb in space.summa_panels if model.embed_dim % nb == 0
            ) or (1,)
        else:
            panel_options = (1,)

        ep_options = expert_parallel_candidates(model, nd, space)
        for bm in bms:
            for nb in panel_options:
                for ep in ep_options:
                    for sched_name in space.schedules:
                        schedule = get_schedule(sched_name)
                        for v in space.virtual_stages:
                            config = ParallelConfig(
                                strategy=strategy,
                                tensor_parallel_1=n1,
                                tensor_parallel_2=n2,
                                pipeline_parallel=np_,
                                data_parallel=nd,
                                microbatch_size=bm,
                                summa_panels=nb,
                                expert_parallel=ep,
                                schedule=sched_name,
                                virtual_stages=v,
                            )
                            if schedule.validate(model, config) is not None:
                                continue
                            if strat.validate_config(model, config) is None:
                                yield config


def config_in_space(
    model: TransformerConfig,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    config: ParallelConfig,
) -> bool:
    """Membership test: would :func:`parallel_configs` yield ``config``?

    Applies exactly the same admissibility filters as the enumeration —
    factor structure, power-of-two restriction, divisibility of depth /
    batch / microbatch, SUMMA panels, expert-parallel degrees, schedule and
    strategy validation — without iterating the whole space.  The warm-start
    layer uses it to decide whether a hint carried over from a *different*
    search point is a legal candidate of the current one (only then is its
    evaluated time a sound branch-and-bound seed).

    A drift test pins this function against enumeration membership, so the
    two cannot silently diverge.
    """
    if n_gpus < 1 or global_batch_size < 1:
        return False
    if config.strategy != strategy:
        return False
    try:
        strat = get_strategy(strategy)
    except (KeyError, ValueError):
        return False
    if config.total_gpus != n_gpus:
        return False
    n1, n2 = config.tensor_parallel_1, config.tensor_parallel_2
    np_, nd = config.pipeline_parallel, config.data_parallel
    if strategy == "tp1d" and n2 != 1:
        return False
    if space.power_of_two_only and not all(
        x & (x - 1) == 0 for x in (n1, n2, np_, nd)
    ):
        return False
    if space.max_tensor_parallel is not None and n1 * n2 > space.max_tensor_parallel:
        return False
    if model.depth % np_ != 0:
        return False
    if global_batch_size % nd != 0:
        return False
    local_batch = global_batch_size // nd
    if config.microbatch_size not in microbatch_candidates(local_batch, space):
        return False

    if strategy == "summa":
        panel_options: Sequence[int] = tuple(
            nb for nb in space.summa_panels if model.embed_dim % nb == 0
        ) or (1,)
    else:
        panel_options = (1,)
    if config.summa_panels not in panel_options:
        return False

    if config.expert_parallel not in expert_parallel_candidates(model, nd, space):
        return False
    if config.schedule not in space.schedules:
        return False
    if config.virtual_stages not in space.virtual_stages:
        return False
    try:
        schedule = get_schedule(config.schedule)
    except (KeyError, ValueError):
        return False
    if schedule.validate(model, config) is not None:
        return False
    return strat.validate_config(model, config) is None


def default_assignment(config: ParallelConfig, nvs_domain_size: int) -> GpuAssignment:
    """Fill the NVS domain greedily in (tp1, tp2, pp, dp) priority order.

    This mimics the common practice (and Megatron's default rank ordering)
    of packing the tensor-parallel group onto NVLink first; it is the
    baseline against which the assignment *search* shows its benefit.
    """
    remaining = max(1, nvs_domain_size)
    values = []
    for size in (
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.pipeline_parallel,
        config.data_parallel,
    ):
        use = 1
        for d in divisors(size):
            if d <= remaining:
                use = d
            else:
                break
        values.append(use)
        remaining //= use
        remaining = max(1, remaining)
    return GpuAssignment(*values)


#: Distinct ``(group sizes, NVS domain size)`` keys whose assignment list
#: :func:`gpu_assignments` keeps.  Every search pass and every point of a
#: sweep revisits the same group shapes: one run of the paper's sweeps
#: (Figs. 4, 5 and A2–A6) touches about 1,200 keys.  ``clear_caches`` in
#: :mod:`repro.core.execution` empties the memo.
ASSIGNMENT_CACHE_SIZE = 2048


def gpu_assignments(
    config: ParallelConfig,
    nvs_domain_size: int,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
) -> Tuple[GpuAssignment, ...]:
    """Enumerate NVSwitch-domain assignments for ``config``.

    The paper decomposes the (effective) NVS domain size into
    ``nNVS1 * nNVS2 * nNVSp * nNVSd`` with each factor dividing its group.
    When the GPU count (or the group structure) cannot fill the whole domain
    we fall back to the largest product that can be formed.

    The enumeration depends only on the four group sizes and the domain
    size, so it is memoized (:data:`ASSIGNMENT_CACHE_SIZE` keys); the
    assignments are frozen, so callers share them.
    """
    if not space.search_gpu_assignment:
        return (default_assignment(config, nvs_domain_size),)
    return _assignments(
        config.tensor_parallel_1,
        config.tensor_parallel_2,
        config.pipeline_parallel,
        config.data_parallel,
        nvs_domain_size,
    )


@lru_cache(maxsize=ASSIGNMENT_CACHE_SIZE)
def _assignments(
    tp1: int, tp2: int, pp: int, dp: int, nvs_domain_size: int
) -> Tuple[GpuAssignment, ...]:
    """The assignment search of :func:`gpu_assignments` for one group shape."""
    group_sizes = (tp1, tp2, pp, dp)
    effective = min(nvs_domain_size, tp1 * tp2 * pp * dp)
    for target in reversed(divisors(effective)):
        found = tuple(
            GpuAssignment(*factors)
            for factors in factorizations(target, 4)
            if all(
                group_sizes[i] % factors[i] == 0 and factors[i] <= group_sizes[i]
                for i in range(4)
            )
        )
        if found:
            return found
    return (GpuAssignment(),)


def count_configurations(
    model: TransformerConfig,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    nvs_domain_size: int,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
) -> Tuple[int, int]:
    """Return (#parallel configs, #total candidates incl. assignments).

    Useful for reporting how large the searched design space is.
    """
    n_configs = 0
    n_total = 0
    for config in parallel_configs(model, n_gpus, global_batch_size, strategy, space):
        n_configs += 1
        n_total += len(gpu_assignments(config, nvs_domain_size, space))
    return n_configs, n_total
