"""Optimal-configuration search (stage S3 of the performance model).

Given ``n`` GPUs, a global batch size and a system description, the solver
enumerates every admissible configuration — the parallelization tuple
``(b_m, n1, n2, np, nd)``, the NVSwitch-domain assignment
``(nNVS1, nNVS2, nNVSp, nNVSd)`` and, for SUMMA, the panel count ``nb`` —
evaluates the analytical iteration time of each, discards configurations
that do not fit in HBM and returns the fastest feasible one (plus search
diagnostics and, optionally, the top-k runners-up).

Every search here — training, Pareto and (in :mod:`repro.core.inference`)
serving — runs in two passes.  Pass 1 is the caller's own: it rejects
parallelizations that cannot be feasible under any NVS assignment and
attaches an assignment-independent admissible bound to the rest.  Pass 2
is one shared kernel, :func:`branch_and_bound`: survivors are priced
best-bound-first in chunks by a *pricer* (per-candidate
:func:`~repro.core.execution.evaluate_config`, the vectorized
:mod:`repro.core.batch_eval`, or the serving evaluator) and offered to an
*incumbent* (:class:`BestK`, or the Pareto frontier archive) whose pruning
test skips every parallelization whose bound cannot contribute.  A priced
chunk is one :class:`PricedChunk` of columns — survivor index, assignment
index and score per candidate, NumPy arrays from the batch pricer — and the
incumbent folds it in as a whole; only the candidates that become the best,
a leaderboard entry or a frontier member are built into :class:`Winner`
objects.  The selected optimum (and top-k set, and frontier) is provably
unchanged; :class:`SearchStatistics` records how much work was avoided.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config_space import (
    DEFAULT_SEARCH_SPACE,
    SearchSpace,
    config_in_space,
    gpu_assignments,
    microbatch_candidates,
    parallel_configs,
)
from repro.core.execution import (
    DEFAULT_BACKEND,
    DEFAULT_OPTIONS,
    IterationEstimate,
    ModelingOptions,
    cache_stats,
    config_time_lower_bound,
    estimate_config_memory,
    evaluate_config,
    register_cache,
)
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.system import SystemSpec

if TYPE_CHECKING:  # NumPy is imported lazily, by the functions that use it.
    import numpy as np

#: Strategies searched when the caller asks for "all".
ALL_STRATEGIES = ("tp1d", "tp2d", "summa")

#: Parallelizations priced per vectorized block in batch mode.  Large enough
#: to amortize the NumPy dispatch, small enough that the incumbent (and the
#: branch-and-bound threshold derived from it) refreshes frequently.
_BATCH_CHUNK_CONFIGS = 256

#: Objective name of the classic training search (minimise iteration time).
#: The serving objectives live in :data:`repro.core.inference.SERVING_OBJECTIVES`.
TRAINING_OBJECTIVE = "iteration"


@dataclass(frozen=True)
class SearchStatistics:
    """Diagnostics of one search run."""

    #: Parallelizations ``(b_m, n1, n2, np, nd[, nb])`` enumerated, including
    #: those later rejected by the memory pre-filter or pruned by the bound.
    parallel_configs: int = 0
    #: Full (parallelization, NVS-assignment) candidates whose iteration time
    #: was evaluated (including warm-start seed evaluations).  How many
    #: candidates the branch-and-bound actually prices depends on how tight
    #: the initial threshold is — warm hints, the multi-strategy floor and
    #: batch chunking all shift it without changing the selected optimum —
    #: so the counter is diagnostics-only and excluded from equality.
    candidates_evaluated: int = field(default=0, compare=False)
    #: Candidates rejected because they do not fit in HBM — either by the
    #: assignment-independent memory pre-filter (counted once per
    #: parallelization) or by the per-candidate feasibility check.
    infeasible_memory: int = 0
    #: Parallelizations rejected for structural reasons (bad divisibility
    #: surfacing as ``ValueError`` during the memory estimate).
    infeasible_other: int = 0
    #: Parallelizations whose compute-only lower bound was computed for
    #: branch-and-bound ordering (0 when pruning is disabled).
    bounds_computed: int = 0
    #: Parallelizations skipped outright because their lower bound met or
    #: exceeded the incumbent optimum; their NVS-assignment loops never ran.
    #: Like :attr:`candidates_evaluated`, the count depends on the initial
    #: threshold (warm hints / the multi-strategy floor), so it is excluded
    #: from equality.
    pruned_configs: int = field(default=0, compare=False)
    #: Of :attr:`pruned_configs`, how many were pruned only by the *floor*:
    #: the lowest best time or warm seed the earlier strategies of the same
    #: multi-strategy call reached (see :func:`find_optimal_config`).  The count is
    #: deterministic, but like :attr:`pruned_configs` it moves with the warm
    #: seeds, so it is excluded from equality.
    shared_incumbent_prunes: int = field(default=0, compare=False)
    #: Hits/misses of the memoized per-layer workload cache during this
    #: search (``execution._cached_workload``) — hits mean microbatch,
    #: schedule and assignment candidates re-used an already-built workload.
    #: The counters depend on how warm the process-local caches already are,
    #: so they are diagnostics only and excluded from equality: a parallel
    #: sweep (cold workers) still compares equal to a serial one.
    workload_cache_hits: int = field(default=0, compare=False)
    workload_cache_misses: int = field(default=0, compare=False)
    #: Hits/misses of the memoized roofline stage-time cache
    #: (``execution._cached_stage_times``); stage times are shared across
    #: every schedule/assignment candidate of one TP parallelization.
    stage_cache_hits: int = field(default=0, compare=False)
    stage_cache_misses: int = field(default=0, compare=False)
    #: Warm-start hints (winners carried over from a neighboring search
    #: point) that adapted into the current point's space and evaluated
    #: feasible, i.e. actually seeded the branch-and-bound threshold.
    warm_start_hits: int = field(default=0, compare=False)
    #: Wall-clock seconds spent adapting and evaluating warm hints before
    #: the enumeration started (0.0 for cold searches).
    warm_seed_time: float = field(default=0.0, compare=False)

    def merged(self, other: "SearchStatistics") -> "SearchStatistics":
        """Combine statistics of two (sub-)searches (every field is summed)."""
        return SearchStatistics(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


@dataclass
class SearchResult:
    """Outcome of :func:`find_optimal_config`."""

    model_name: str
    system_name: str
    n_gpus: int
    global_batch_size: int
    strategy: str
    best: Optional[IterationEstimate]
    top_k: List[IterationEstimate] = field(default_factory=list)
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    @property
    def found(self) -> bool:
        """True when at least one feasible configuration exists."""
        return self.best is not None

    @property
    def best_time(self) -> float:
        """Iteration time of the best configuration (``inf`` if none found)."""
        return self.best.total_time if self.best is not None else math.inf

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports and JSON archives."""
        out: Dict[str, object] = {
            "model": self.model_name,
            "system": self.system_name,
            "n_gpus": self.n_gpus,
            "global_batch": self.global_batch_size,
            "strategy": self.strategy,
            "found": self.found,
            "configs_searched": self.statistics.parallel_configs,
            "candidates_evaluated": self.statistics.candidates_evaluated,
            "pruned_configs": self.statistics.pruned_configs,
        }
        if self.best is not None:
            out.update(self.best.summary())
        return out


def evaluate_candidates(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    assignments: Sequence[GpuAssignment],
    *,
    global_batch_size: int,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> List[IterationEstimate]:
    """Evaluate one parallelization under every NVS assignment."""
    estimates = []
    for assignment in assignments:
        estimates.append(
            evaluate_config(
                model,
                system,
                config,
                assignment,
                global_batch_size=global_batch_size,
                options=options,
                backend=backend,
            )
        )
    return estimates


#: Adapted hint parallelizations evaluated per strategy when seeding.  Hints
#: beyond this many are ignored: each seed evaluation costs a full
#: ``evaluate_config`` sweep over the config's NVS assignments, and the first
#: (nearest) hint almost always provides the tight threshold.
MAX_WARM_HINTS = 4


def adapt_warm_hints(
    model: TransformerConfig,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    warm_hints: Sequence,
    limit: int = MAX_WARM_HINTS,
) -> List[ParallelConfig]:
    """Translate warm hints into members of the *current* point's space.

    Each hint is a :class:`ParallelConfig` (or ``(config, assignment)``
    tuple; the assignment half is ignored — assignments are re-searched at
    the current point) typically taken from a neighboring search point's
    winner.  A hint whose GPU count differs from ``n_gpus`` is rescaled by
    the integer ratio along the data-parallel axis (growing) or greedily
    across the DP, PP, TP1 and TP2 axes (shrinking); a microbatch that no longer
    divides the new per-replica batch snaps to the nearest admissible
    candidate.  Only configs that pass :func:`config_in_space` — i.e. that
    the current enumeration itself would yield — are returned, which is what
    makes their evaluated times sound branch-and-bound seeds.
    """
    adapted: List[ParallelConfig] = []
    seen = set()
    for hint in warm_hints:
        config = hint[0] if isinstance(hint, tuple) else hint
        if not isinstance(config, ParallelConfig) or config.strategy != strategy:
            continue
        total = config.total_gpus
        if total != n_gpus:
            if n_gpus % total == 0:
                config = replace(
                    config, data_parallel=config.data_parallel * (n_gpus // total)
                )
            elif total % n_gpus == 0:
                ratio = total // n_gpus
                # Greedy gcd absorption across every parallel axis the
                # strategy populates — including the second tensor axis, so
                # tp2d/summa hints shrink instead of being dropped when only
                # ``tensor_parallel_2`` can absorb the surplus ratio.
                axes = {
                    "data_parallel": config.data_parallel,
                    "pipeline_parallel": config.pipeline_parallel,
                    "tensor_parallel_1": config.tensor_parallel_1,
                    "tensor_parallel_2": config.tensor_parallel_2,
                }
                for name in axes:
                    g = math.gcd(axes[name], ratio)
                    axes[name] //= g
                    ratio //= g
                if ratio != 1:
                    continue
                config = replace(config, **axes)
            else:
                continue
        if global_batch_size % config.data_parallel != 0:
            continue
        ep = math.gcd(config.expert_parallel, config.data_parallel)
        if ep != config.expert_parallel:
            config = replace(config, expert_parallel=ep)
        bms = microbatch_candidates(global_batch_size // config.data_parallel, space)
        if config.microbatch_size not in bms:
            if not bms:
                continue
            bm = min(bms, key=lambda c: (abs(c - config.microbatch_size), c))
            config = replace(config, microbatch_size=bm)
        if config in seen:
            continue
        if config_in_space(model, n_gpus, global_batch_size, strategy, space, config):
            seen.add(config)
            adapted.append(config)
            if len(adapted) >= limit:
                break
    return adapted


# ----------------------------------------------------------------------
# Branch-and-bound kernel
# ----------------------------------------------------------------------

class Survivor(NamedTuple):
    """A parallelization that passed a search's pass 1."""

    #: Admissible bound on every candidate of the parallelization: a score
    #: for :class:`BestK`, a canonical bound vector for the Pareto archive.
    bound: object
    #: Deterministic tie-break position: the enumeration rank (the Pareto
    #: search prefixes the strategy index).
    rank: object
    config: ParallelConfig
    #: ``(offset, slope)`` per objective (Pareto search only).
    coeffs: tuple = ()


class Winner(NamedTuple):
    """A candidate an incumbent keeps: the only candidates built as objects."""

    config: ParallelConfig
    assignment: GpuAssignment
    #: The estimate a per-candidate pricer built (``None`` from the batch
    #: pricer, whose winners are re-priced through the scalar oracle).
    estimate: object = None


class PricedChunk(NamedTuple):
    """A priced chunk: its feasible candidates as parallel columns.

    Column ``j`` is survivor ``survivors[index[j]]`` under assignment
    ``assign[j]`` of that survivor's ``assignments``, with the minimised
    score ``scores[j]``.  The batch pricer fills the columns with NumPy
    arrays.  The per-candidate pricers fill them with lists and keep each
    column's estimate in ``estimates``, so the serving search never imports
    NumPy.
    """

    survivors: Sequence[Survivor]
    #: Each survivor's NVS assignments, as ``gpu_assignments`` lists them.
    assignments: Sequence[Sequence[GpuAssignment]]
    index: Sequence[int]
    assign: Sequence[int]
    scores: Sequence[float]
    #: Candidates priced, the infeasible ones (which have no column) included.
    evaluated: int
    estimates: Sequence = ()

    def key(self, j: int) -> tuple:
        """Column ``j``'s ``(score, rank, assignment index)`` tie-break key."""
        return (float(self.scores[j]), self.survivors[self.index[j]].rank, int(self.assign[j]))

    def winner(self, j: int) -> Winner:
        """Column ``j`` as a :class:`Winner`."""
        i, a = int(self.index[j]), int(self.assign[j])
        estimate = self.estimates[j] if self.estimates else None
        return Winner(self.survivors[i].config, self.assignments[i][a], estimate)

    def smallest(self, count: int, cut: float) -> List[Tuple[tuple, int]]:
        """The ``count`` smallest keys scoring at most ``cut``, with their columns.

        Returns ``(key, column)`` pairs, smallest key first.
        """
        scores = self.scores
        if isinstance(scores, list):
            columns = [j for j, score in enumerate(scores) if score <= cut]
        else:
            # Array columns: only the count-th smallest score and its ties
            # can hold one of the count smallest keys.
            import numpy as np

            if count < len(scores):
                cut = min(cut, np.partition(scores, count - 1)[count - 1])
            columns = np.flatnonzero(scores <= cut).tolist()
        return sorted((self.key(j), j) for j in columns)[:count]


def branch_and_bound(survivors: Sequence[Survivor], price, incumbent) -> SearchStatistics:
    """Pass 2 of every search: price survivors best-bound-first.

    ``survivors`` are visited in order, ``price.chunk`` unpruned ones at a
    time.  Before each chunk the ``incumbent`` hands out its pruning test
    (:meth:`BestK.pruner`, :meth:`_FrontierArchive.pruner`); survivors it
    rejects are counted and skipped, the rest are priced by ``price`` into
    one :class:`PricedChunk` of columns, and the incumbent folds the chunk
    in, which may tighten the test for the next chunk.  Only the columns
    that become the best, a leaderboard entry or a frontier member are
    built into :class:`Winner` objects.  Pruning is sound whenever the
    incumbent only rejects a survivor whose bound proves it cannot
    contribute to the result, so the outcome never depends on the chunk
    size — only the amount of work does.
    """
    evaluated = infeasible = pruned = 0
    i, n = 0, len(survivors)
    while i < n:
        prunes = incumbent.pruner()
        chunk: List[Survivor] = []
        while i < n and len(chunk) < price.chunk:
            if prunes(survivors[i].bound):
                pruned += 1
            else:
                chunk.append(survivors[i])
            i += 1
        if chunk:
            priced = price(chunk)
            evaluated += priced.evaluated
            infeasible += priced.evaluated - len(priced.scores)
            incumbent.offer(priced)
    return SearchStatistics(
        candidates_evaluated=evaluated, infeasible_memory=infeasible, pruned_configs=pruned
    )


class BestK:
    """Single-objective incumbent: the best candidate plus a top-``k`` leaderboard.

    Candidates are keyed by ``(score, rank, assignment index)``, so exact
    score ties resolve by enumeration order whatever order they were priced
    in.  The pruning threshold is the best score — or, with ``top_k > 1``,
    the k-th best, so pruning also preserves the exact top-k set —
    tightened by the warm seed (:meth:`seed`) and capped by ``floor``: the
    lowest best score or warm seed the earlier strategies of the same
    multi-strategy call reached (see :func:`find_optimal_config`).  A
    one-entry leaderboard's k-th best *is* the best score, so ``top_k=1``
    follows the best-only rules (:attr:`best_only`).  A survivor is pruned
    only when its bound *exceeds* the threshold, so an exact tie with the
    incumbent is still priced.
    """

    def __init__(self, top_k: int = 0, prune: bool = True, floor: float = math.inf) -> None:
        self.top_k = top_k
        self.prune = prune
        self.floor = floor
        self.best: Optional[Winner] = None
        self._best_key: tuple = (math.inf, -1, -1)
        self._seed = math.inf
        self._heap: List[tuple] = []
        self._pruned_bounds: List[float] = []

    @property
    def best_only(self) -> bool:
        """True when the threshold is the best score (``top_k <= 1``).

        Only then may a warm seed or a floor tighten it: a single score
        would over-tighten the k-th-best threshold of a longer leaderboard.
        """
        return self.top_k <= 1

    def _threshold(self) -> float:
        """The threshold this search's own candidates and seed justify."""
        if not self.prune:
            return math.inf
        if not self.best_only:
            return -self._heap[0][0] if len(self._heap) >= self.top_k else math.inf
        return min(self._best_key[0], self._seed)

    def threshold(self) -> float:
        """The pruning threshold: this search's own, capped by the floor."""
        return min(self._threshold(), self.floor)

    def pruner(self):
        """Pruning test for the next chunk."""
        threshold = self.threshold()

        def prunes(bound: float) -> bool:
            if bound > threshold:
                self._pruned_bounds.append(bound)
                return True
            return False

        return prunes

    @property
    def shared_prunes(self) -> int:
        """Pruned survivors this search's own final threshold would have kept.

        Only the floor can prune those, so this is the floor's share of the
        pruning (0 without a floor).
        """
        own = self._threshold()
        return sum(1 for bound in self._pruned_bounds if bound <= own)

    def seed(self, chunk: PricedChunk) -> int:
        """Open the threshold with a priced chunk of warm hints; returns the hits.

        Every hint is a member of the searched space, so its best feasible
        score bounds the optimum from above and pruning against it can never
        discard the optimum or an exact tie.  A seed only tightens the
        threshold: it is never reported, because the enumeration prices the
        same candidate again under its own tie-break rank.  A hit is a hint
        with at least one feasible assignment.
        """
        if len(chunk.scores):
            self._seed = float(min(chunk.scores))
        return len(set(chunk.index))

    def offer(self, chunk: PricedChunk) -> None:
        """Fold a chunk into the best candidate and the leaderboard.

        Only the chunk's ``max(top_k, 1)`` smallest keys that can still
        enter are taken, in one :meth:`PricedChunk.smallest` call, and only
        the ones that enter become :class:`Winner` objects.
        """
        if self.top_k > 0:
            cut = -self._heap[0][0] if len(self._heap) >= self.top_k else math.inf
        else:
            cut = self._best_key[0]
        for key, j in chunk.smallest(max(self.top_k, 1), cut):
            winner = None
            if self.best is None or key < self._best_key:
                winner = chunk.winner(j)
                self.best, self._best_key = winner, key
            if self.top_k > 0:
                # Max-heap of the k best: heap[0] is the worst kept entry.
                negated = (-key[0], -key[1], -key[2])
                if len(self._heap) < self.top_k:
                    heapq.heappush(self._heap, negated + (winner or chunk.winner(j),))
                elif negated > self._heap[0][:3]:
                    heapq.heapreplace(self._heap, negated + (winner or chunk.winner(j),))

    def leaderboard(self) -> List[Winner]:
        """The top-k candidates, best first."""
        return [e[-1] for e in sorted(self._heap, key=lambda e: (-e[0], -e[1], -e[2]))]


class CandidatePricer:
    """Per-candidate pricer: one ``evaluate(config, assignment)`` call each.

    ``score(estimate)`` turns an estimate into the minimised score, or
    ``None`` when the candidate is infeasible.  The chunk keeps the
    estimates, so no winner is priced twice.
    """

    chunk = 1

    def __init__(self, evaluate, score, nvs_domain_size: int, space: SearchSpace) -> None:
        self.evaluate, self.score = evaluate, score
        self.nvs_domain_size, self.space = nvs_domain_size, space

    def __call__(self, survivors: Sequence[Survivor]) -> PricedChunk:
        """Price every candidate of ``survivors``, in enumeration order."""
        assignments = [
            gpu_assignments(item.config, self.nvs_domain_size, self.space) for item in survivors
        ]
        index, assign, scores, estimates = [], [], [], []
        for i, (item, options) in enumerate(zip(survivors, assignments)):
            for a, assignment in enumerate(options):
                estimate = self.evaluate(item.config, assignment)
                score = self.score(estimate)
                if score is not None:
                    index.append(i)
                    assign.append(a)
                    scores.append(score)
                    estimates.append(estimate)
        evaluated = sum(map(len, assignments))
        return PricedChunk(survivors, assignments, index, assign, scores, evaluated, estimates)

    def estimate(self, winner: Winner):
        """A winner's estimate, priced through ``evaluate`` if it carries none."""
        if winner.estimate is not None:
            return winner.estimate
        return self.evaluate(winner.config, winner.assignment)


class _BatchPricer(CandidatePricer):
    """Vectorized training pricer: one ``times(blocks)`` call per chunk.

    A chunk is :data:`_BATCH_CHUNK_CONFIGS` parallelizations, packed one
    block per parallelization (:class:`~repro.core.batch_eval.CandidateBlocks`).
    Pass 1 has already established feasibility (memory does not depend on
    the assignment), so every candidate is a column.  The batch times are
    bit-exact against the scalar oracle; the chunk carries no estimates, so
    winners are re-priced through ``evaluate`` by :meth:`estimate`.
    """

    chunk = _BATCH_CHUNK_CONFIGS

    def __init__(self, evaluate, times, nvs_domain_size: int, space: SearchSpace) -> None:
        super().__init__(evaluate, None, nvs_domain_size, space)
        self.times = times

    def __call__(self, survivors: Sequence[Survivor]) -> PricedChunk:
        """Price every candidate of ``survivors`` in one array program."""
        from repro.core import batch_eval

        nvs, space = self.nvs_domain_size, self.space
        configs = [item.config for item in survivors]
        blocks = batch_eval.CandidateBlocks(
            configs, [batch_eval.assignment_matrix(config, nvs, space) for config in configs]
        )
        times = self.times(blocks)
        index, assign = blocks.positions()
        assignments = [gpu_assignments(config, nvs, space) for config in configs]
        return PricedChunk(survivors, assignments, index, assign, times, len(times))


def _training_pricer(
    eval_mode: str,
    model: TransformerConfig,
    system: SystemSpec,
    global_batch_size: int,
    space: SearchSpace,
    options: ModelingOptions,
    backend: str,
) -> CandidatePricer:
    """The pricer of a training or Pareto search, picked by ``eval_mode``."""

    def evaluate(config: ParallelConfig, assignment: GpuAssignment) -> IterationEstimate:
        """The scalar oracle's estimate of one candidate."""
        return evaluate_config(
            model, system, config, assignment,
            global_batch_size=global_batch_size, options=options, backend=backend,
        )

    if eval_mode != "batch":
        return CandidatePricer(
            evaluate, lambda est: est.total_time if est.feasible else None,
            system.nvs_domain_size, space,
        )
    from repro.core import batch_eval

    def times(candidates):
        return batch_eval.batch_candidate_times(
            model, system, candidates, global_batch_size=global_batch_size, options=options
        )

    return _BatchPricer(evaluate, times, system.nvs_domain_size, space)


def warm_seed(price, incumbent: BestK, *adapt_args, keep=None) -> SearchStatistics:
    """Price the warm hints adapted to this point and seed ``incumbent``.

    ``adapt_args`` are :func:`adapt_warm_hints`'s positional arguments.
    ``keep``, when given, drops every adapted hint it returns false for
    before pricing: pass 1's filter, for a pricer that assumes it.  All
    remaining hints are priced as one chunk.  Returns the seeding's
    statistics: candidates priced, hits, seconds.
    """
    t0 = time.perf_counter()
    hints = adapt_warm_hints(*adapt_args)
    if keep is not None:
        hints = [config for config in hints if keep(config)]
    chunk = price([Survivor(0.0, rank, config) for rank, config in enumerate(hints)])
    hits = incumbent.seed(chunk)
    return SearchStatistics(
        candidates_evaluated=chunk.evaluated,
        warm_start_hits=hits,
        warm_seed_time=time.perf_counter() - t0,
    )


def search_statistics(
    caches_before: Dict[str, Dict[str, int]], *parts: SearchStatistics, **counts
) -> SearchStatistics:
    """Statistics of one search: ``counts`` plus ``parts`` plus cache deltas.

    ``caches_before`` is :func:`~repro.core.execution.cache_stats` taken
    when the search started; the memoization caches' hits and misses since
    then are filled in.
    """
    after = cache_stats()

    def delta(cache: str, counter: str) -> int:
        return after[cache][counter] - caches_before[cache][counter]

    stats = SearchStatistics(
        workload_cache_hits=delta("workload", "hits"),
        workload_cache_misses=delta("workload", "misses"),
        stage_cache_hits=delta("stage_times", "hits"),
        stage_cache_misses=delta("stage_times", "misses"),
        **counts,
    )
    for part in parts:
        stats = stats.merged(part)
    return stats


def resolve_strategies(strategy: str | Sequence[str]) -> Tuple[str, ...]:
    """Strategy names a search runs: ``"all"``, one name, or a sequence."""
    if isinstance(strategy, str):
        strategies = ALL_STRATEGIES if strategy == "all" else (strategy,)
    else:
        strategies = tuple(strategy)
    if not strategies:
        raise ValueError("at least one strategy is required")
    return strategies


#: Distinct ``(model, n_gpus, global batch, strategy, space, options)``
#: keys whose pass-1 table :func:`_pass1_table` keeps.  The table does not
#: depend on the system, so the systems of a grid sweep, the points of a
#: heatmap and repeated API requests share one.  A pass of the planbench
#: workloads touches 26-53 keys, and a table takes 44 bytes per
#: parallelization (at most ~95 kB on those workloads).
#: ``clear_caches`` in :mod:`repro.core.execution` empties the memo.
PASS1_TABLE_CACHE_SIZE = 256


class _Pass1Table(NamedTuple):
    """One strategy's parallelizations and their HBM footprints, as arrays.

    Row ``i`` is the parallelization of enumeration rank ``i``.  ``columns``
    is ``(n, 9)`` int32 in :class:`ParallelConfig` field order — TP1, TP2,
    PP, DP, microbatch, SUMMA panels, EP, schedule (an index into
    ``space.schedules``) and virtual stages; ``footprint`` is the float64
    per-GPU memory estimate in bytes, NaN where it raised ``ValueError``.
    """

    columns: np.ndarray
    footprint: np.ndarray


def _footprint(
    model: TransformerConfig,
    config: ParallelConfig,
    global_batch_size: int,
    options: ModelingOptions,
) -> float:
    """Pass 1's per-GPU memory estimate in bytes: NaN where it raises ``ValueError``.

    NaN compares false against any HBM capacity, so a structurally invalid
    parallelization is rejected like one that does not fit.
    """
    try:
        memory = estimate_config_memory(
            model, config, global_batch_size=global_batch_size, options=options
        )
    except ValueError:
        return math.nan
    return memory.total_bytes


@register_cache("pass1_table")
@lru_cache(maxsize=PASS1_TABLE_CACHE_SIZE)
def _pass1_table(
    model: TransformerConfig,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    options: ModelingOptions,
) -> _Pass1Table:
    """Walk the enumeration once and estimate every parallelization's memory."""
    import numpy as np

    columns, footprint = [], []
    for config in parallel_configs(model, n_gpus, global_batch_size, strategy, space):
        columns.append(
            (
                config.tensor_parallel_1,
                config.tensor_parallel_2,
                config.pipeline_parallel,
                config.data_parallel,
                config.microbatch_size,
                config.summa_panels,
                config.expert_parallel,
                space.schedules.index(config.schedule),
                config.virtual_stages,
            )
        )
        footprint.append(_footprint(model, config, global_batch_size, options))
    table = _Pass1Table(
        np.array(columns, dtype=np.int32).reshape(len(columns), 9),
        np.array(footprint, dtype=np.float64),
    )
    for array in table:  # every caller shares the memoized arrays
        array.setflags(write=False)
    return table


def _feasible_survivors(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    options: ModelingOptions,
    prune: bool,
) -> Tuple[List[Survivor], SearchStatistics]:
    """Pass 1 of training and Pareto search: memory filter, then time bound.

    Memory does not depend on the NVS assignment, so HBM-infeasible
    parallelizations are rejected before any assignment is priced.  The
    footprints come from the memoized :func:`_pass1_table`, which every
    system shares, and are filtered by one array compare; only the
    parallelizations that fit are built.  With pruning, each survivor
    carries the compute-only lower bound that orders pass 2; otherwise its
    bound is 0.  Survivors come in enumeration order.
    """
    import numpy as np

    table = _pass1_table(model, n_gpus, global_batch_size, strategy, space, options)
    fits = table.footprint <= system.gpu.hbm_capacity
    n_other = int(np.isnan(table.footprint).sum())
    n_fit = int(fits.sum())
    survivors: List[Survivor] = []
    for rank, (n1, n2, np_, nd, bm, nb, ep, schedule, v) in zip(
        np.flatnonzero(fits).tolist(), table.columns[fits].tolist()
    ):
        config = ParallelConfig(
            strategy, n1, n2, np_, nd, bm, nb, ep, space.schedules[schedule], v
        )
        bound = 0.0
        if prune:
            bound = config_time_lower_bound(
                model, system, config, global_batch_size=global_batch_size, options=options
            )
        survivors.append(Survivor(bound, rank, config))
    return survivors, SearchStatistics(
        parallel_configs=len(fits),
        infeasible_memory=len(fits) - n_fit - n_other,
        infeasible_other=n_other,
        bounds_computed=n_fit if prune else 0,
    )


def _search_single_strategy(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
    options: ModelingOptions,
    backend: str,
    eval_mode: str,
    incumbent: BestK,
    warm_hints: Sequence,
) -> SearchResult:
    """One strategy of :func:`find_optimal_config`: pass 1, then the kernel."""
    caches_before = cache_stats()
    price = _training_pricer(
        eval_mode, model, system, global_batch_size, space, options, backend
    )
    # Warm seeds suit a pruned best-only search: a top-k leaderboard prunes
    # on the k-th best, which a single seed score would over-tighten.  Pass
    # 1's memory rule drops the hints that do not fit before pricing.
    seeded = SearchStatistics()
    if warm_hints and incumbent.prune and incumbent.best_only:
        seeded = warm_seed(
            price, incumbent, model, n_gpus, global_batch_size, strategy, space, warm_hints,
            keep=lambda config: (
                _footprint(model, config, global_batch_size, options)
                <= system.gpu.hbm_capacity
            ),
        )

    survivors, filtered = _feasible_survivors(
        model, system, n_gpus, global_batch_size, strategy, space, options, incumbent.prune
    )
    if incumbent.prune:
        survivors.sort(key=lambda item: item.bound)
    searched = branch_and_bound(survivors, price, incumbent)

    best = price.estimate(incumbent.best) if incumbent.best is not None else None
    leaderboard = [
        best if winner is incumbent.best else price.estimate(winner)
        for winner in incumbent.leaderboard()
    ]
    return SearchResult(
        model_name=model.name,
        system_name=system.name,
        n_gpus=n_gpus,
        global_batch_size=global_batch_size,
        strategy=strategy,
        best=best,
        top_k=leaderboard,
        statistics=search_statistics(
            caches_before, seeded, filtered, searched,
            shared_incumbent_prunes=incumbent.shared_prunes,
        ),
    )


def find_optimal_config(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    *,
    strategy: str | Sequence[str] = "tp1d",
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    top_k: int = 0,
    fallback_activation_checkpointing: bool = True,
    backend: str = DEFAULT_BACKEND,
    eval_mode: str = "scalar",
    warm_hints: Sequence = (),
) -> SearchResult:
    """Brute-force search for the fastest feasible configuration.

    ``strategy`` may be a single strategy name, a sequence of names, or
    ``"all"`` to search 1D TP, 2D TP and SUMMA together (the overall best is
    returned and the per-strategy statistics are merged).  The strategies
    run in turn, and a pruned best-only search (``top_k <= 1``) starts each
    one from the *floor*: the lowest best time or warm seed the earlier
    strategies reached.  The floor only prunes candidates that cannot beat
    the merged best, so the answer is unchanged;
    :attr:`SearchStatistics.shared_incumbent_prunes` counts its prunes.

    ``backend`` selects the evaluation backend per candidate
    (:mod:`repro.core.backends`); with a non-default backend the
    branch-and-bound pruning is disabled, since the analytic lower bound is
    only provably admissible for the analytic evaluation.

    ``eval_mode`` is the library switch between the two training pricers.
    ``"scalar"`` (the default) calls
    :func:`~repro.core.execution.evaluate_config` once per candidate;
    ``"batch"`` prices memory-filtered survivors in vectorized NumPy chunks
    (:mod:`repro.core.batch_eval`) — the selected optimum and top-k set are
    identical (the batch pricer is bit-exact against the scalar oracle, and
    the winners are re-priced through it), but searches run several times
    faster.  Batch mode is analytic-only: combining it with a non-default
    ``backend`` raises :class:`ValueError`.  The runtime does not expose
    the switch: :func:`repro.runtime.executor.solve_search_task` (and with
    it the CLI, the API and the analysis sweeps) picks batch for the
    analytic backend and scalar otherwise; the scalar default serves the
    parity suites.

    ``top_k`` is the size of the returned leaderboard (0: the winner only;
    1: the winner as a one-entry leaderboard, searched exactly like 0); a
    negative value raises :class:`ValueError`.

    ``warm_hints`` seeds the branch-and-bound: each hint (a
    :class:`ParallelConfig` or ``(config, assignment)`` tuple, typically a
    neighboring search point's winner) is adapted to this point, validated
    as a member of the enumerated space and evaluated *before* the
    enumeration; hints that do not fit in HBM are dropped first, and the
    rest are priced as one chunk by the search's own pricer.  The best
    feasible time opens the pruning threshold.  The selected optimum and
    top-k set are bit-identical to a cold search — a seed is just a
    candidate evaluated first — and
    :attr:`SearchStatistics.warm_start_hits` /
    :attr:`SearchStatistics.warm_seed_time` record the effect.  Hints are
    ignored when pruning is off, when ``top_k > 1`` (a single seed would
    over-tighten the k-th-best threshold) or when none adapts into the
    space.

    When no configuration fits in HBM and ``fallback_activation_checkpointing``
    is set (the default), the search is repeated once with full activation
    checkpointing enabled — recomputing each block during the backward pass —
    which is how capacity-limited systems (e.g. A100 + the long-sequence ViT)
    are handled in practice.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    # Local import: batch_eval sits on top of execution/config_space, which
    # this module also imports; resolving it lazily keeps NumPy off the
    # import path and avoids fragile import ordering.
    from repro.core import batch_eval

    eval_mode = batch_eval.validate_eval_mode(eval_mode, backend)
    strategies = resolve_strategies(strategy)
    # The compute-only lower bound is provably admissible for the analytic
    # evaluation; a simulated bubble may legitimately undercut the closed
    # form, so pruning is disabled for any non-default backend.
    prune = space.prune_with_lower_bound and backend == DEFAULT_BACKEND

    def _run(opts: ModelingOptions) -> List[SearchResult]:
        # Each strategy starts from the floor the earlier ones reached.  That
        # is sound because a multi-strategy call only reports the *merged*
        # best: a candidate the floor pruned has time >= its bound > floor
        # >= merged best.  A longer leaderboard prunes on the k-th best,
        # which a floor would over-tighten, so it only applies to best-only
        # search (``top_k <= 1``).
        results = []
        floor = math.inf
        for strat in strategies:
            incumbent = BestK(top_k, prune, floor)
            results.append(
                _search_single_strategy(
                    model, system, n_gpus, global_batch_size, strat, space, opts,
                    backend, eval_mode, incumbent, warm_hints,
                )
            )
            if prune and incumbent.best_only:
                floor = incumbent.threshold()
        return results

    results = _run(options)

    if (
        fallback_activation_checkpointing
        and not options.activation_checkpointing
        and all(res.best is None for res in results)
    ):
        results = _run(replace(options, activation_checkpointing=True))

    if len(results) == 1:
        return results[0]

    merged_stats = SearchStatistics()
    for res in results:
        merged_stats = merged_stats.merged(res.statistics)
    by_time = attrgetter("total_time")  # min/sorted keep strategy order on ties
    return SearchResult(
        model_name=model.name,
        system_name=system.name,
        n_gpus=n_gpus,
        global_batch_size=global_batch_size,
        strategy="+".join(strategies),
        best=min((res.best for res in results if res.best is not None), key=by_time, default=None),
        top_k=sorted((est for res in results for est in res.top_k), key=by_time)[:top_k],
        statistics=merged_stats,
    )


# ----------------------------------------------------------------------
# Multi-objective (Pareto) search
# ----------------------------------------------------------------------

@dataclass
class ParetoPoint:
    """One frontier member: the estimate plus its raw metric values.

    ``metrics`` maps objective name to the *raw* value (headroom in bytes,
    cost in USD, ...) — maximised objectives are stored in their natural
    orientation, not the canonical minimised one.
    """

    estimate: IterationEstimate
    metrics: Dict[str, float]


@dataclass
class ParetoResult:
    """Outcome of :func:`find_pareto_configs`.

    ``points`` is the Pareto frontier in deterministic order: sorted by the
    canonical metric vector, then by (strategy, enumeration rank, assignment
    index) — so equal-vector ties keep every member and the order never
    depends on evaluation scheduling or eval mode.
    """

    model_name: str
    system_name: str
    n_gpus: int
    global_batch_size: int
    strategy: str
    objectives: Tuple[str, ...]
    points: List[ParetoPoint] = field(default_factory=list)
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    @property
    def found(self) -> bool:
        """True when at least one feasible configuration exists."""
        return bool(self.points)

    @property
    def best(self) -> Optional[IterationEstimate]:
        """The minimum-iteration-time frontier member (``None`` when empty).

        This is what lets a Pareto solve feed the warm-start hint index
        exactly like a scalar solve: the fastest frontier point is a true
        member of the search space and an excellent seed for scalar
        searches of the same structure.
        """
        if not self.points:
            return None
        return min(self.points, key=lambda p: p.estimate.total_time).estimate

    @property
    def best_time(self) -> float:
        """Iteration time of the fastest frontier member (``inf`` if none)."""
        best = self.best
        return best.total_time if best is not None else math.inf

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports and JSON archives."""
        out: Dict[str, object] = {
            "model": self.model_name,
            "system": self.system_name,
            "n_gpus": self.n_gpus,
            "global_batch": self.global_batch_size,
            "strategy": self.strategy,
            "objectives": list(self.objectives),
            "found": self.found,
            "frontier_size": len(self.points),
            "configs_searched": self.statistics.parallel_configs,
            "candidates_evaluated": self.statistics.candidates_evaluated,
            "pruned_configs": self.statistics.pruned_configs,
        }
        best = self.best
        if best is not None:
            out.update(best.summary())
        return out


class _FrontierArchive:
    """Incumbent Pareto frontier of evaluated candidates.

    The frontier is an ``(m, k)`` float64 matrix of canonical metric vectors,
    :attr:`vectors`, plus the parallel list :attr:`entries` of
    ``(order, winner)``, where ``order`` is the deterministic
    ``((strategy index, enumeration rank), assignment index)`` tie key.  The
    archive is the multi-objective incumbent of :func:`branch_and_bound`:
    its pruning test is :meth:`dominates_bound` — a parallelization whose
    admissible bound vector is strictly dominated by an archived point
    cannot contribute a frontier member (every real candidate of it is
    ``>=`` the bound componentwise, so the archived point strictly
    dominates them all; by transitivity the final frontier does too).
    :meth:`offer` stacks the archive on the chunk's vectors and keeps the
    survivors of one :func:`~repro.core.batch_eval.non_dominated_mask` call:
    the frontier of a union is the frontier of the old frontier plus the
    new candidates, so how the candidates are chunked never changes the
    result.
    """

    def __init__(self, prune: bool = True) -> None:
        self.prune = prune
        self.vectors = None
        self.entries: List[Tuple[tuple, Winner]] = []

    def dominates_bound(self, bound: Sequence[float]) -> bool:
        """True when some archived vector strictly dominates ``bound``."""
        if not self.entries:
            return False
        vectors = self.vectors
        return bool(((vectors <= bound).all(axis=1) & (vectors < bound).any(axis=1)).any())

    def pruner(self):
        """Pruning test for the next chunk: dominance of the bound vector."""
        return self.dominates_bound if self.prune else _never

    def offer(self, chunk: PricedChunk) -> None:
        """Fold a chunk (scored by time) into the frontier.

        Column ``j``'s vector is its survivor's ``offset + slope * time``
        per objective, computed for every column at once; only the columns
        that join the frontier become :class:`Winner` objects.
        """
        if not len(chunk.scores):
            return
        import numpy as np

        from repro.core import batch_eval

        # (column, objective, (offset, slope)) coefficients.
        coeffs = np.array([item.coeffs for item in chunk.survivors], dtype=np.float64)[
            np.asarray(chunk.index)
        ]
        times = np.asarray(chunk.scores, dtype=np.float64)[:, None]
        vectors = coeffs[:, :, 0] + coeffs[:, :, 1] * times
        old = len(self.entries)
        if old:
            vectors = np.concatenate((self.vectors, vectors))
        keep = batch_eval.non_dominated_mask(vectors)
        self.vectors = vectors[keep]
        self.entries = list(compress(self.entries, keep[:old].tolist())) + [
            (chunk.key(j)[1:], chunk.winner(j)) for j in np.flatnonzero(keep[old:]).tolist()
        ]

    def sorted_entries(self) -> List[Tuple[Tuple[float, ...], tuple, Winner]]:
        """``(vector, order, winner)`` in the report order (vector, then order)."""
        if not self.entries:
            return []
        return sorted(
            (
                (tuple(vector), order, winner)
                for vector, (order, winner) in zip(self.vectors.tolist(), self.entries)
            ),
            key=lambda entry: (entry[0], entry[1]),
        )


def _never(bound) -> bool:
    """Pruning test of an unpruned search."""
    return False


def find_pareto_configs(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    *,
    objectives: Sequence[str] = (),
    strategy: str | Sequence[str] = "tp1d",
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    fallback_activation_checkpointing: bool = True,
    backend: str = DEFAULT_BACKEND,
    eval_mode: str = "scalar",
) -> ParetoResult:
    """Multi-objective search: the Pareto frontier of the candidate space.

    Where :func:`find_optimal_config` returns the single fastest feasible
    configuration, this returns every *non-dominated* one under the named
    ``objectives`` (defaulting to
    :data:`repro.core.objectives.DEFAULT_PARETO_OBJECTIVES` — time, HBM
    headroom, cost, energy).  A candidate is dominated when another is no
    worse on every objective and strictly better on one; equal metric
    vectors are mutually non-dominated, so exact ties all stay.

    Branch-and-bound still prunes: every registered objective provides an
    admissible assignment-independent lower bound (see
    :mod:`repro.core.objectives`), and a parallelization whose bound
    *vector* is strictly dominated by an already-evaluated frontier point
    provably contains no frontier member — the exact multi-objective
    analogue of the scalar threshold.  The returned frontier equals the
    exhaustive non-dominated filter over the full enumeration (a tier-1
    invariant pins this, for scalar and batch eval modes alike).

    A single-entry ``objectives=("time",)`` degenerates to the scalar
    search: the frontier is exactly the set of minimum-time candidates and
    its fastest member matches :func:`find_optimal_config`'s winner.

    Both eval modes keep the frontier the same way: each priced chunk is
    stacked on the archive and filtered by one sort-and-sweep dominance
    pass (:func:`repro.core.batch_eval.non_dominated_mask`), and a survivor
    is pruned by one vectorized test of its bound vector against the
    archive.  ``eval_mode="batch"`` prices survivors through the vectorized
    batch pricer; the frontier is bit-identical to scalar mode (the batch
    times are bit-exact, the metric vectors use the same float arithmetic,
    and batch-mode frontier members are re-priced through the scalar
    oracle).  Batch mode is analytic-only.  As in
    :func:`find_optimal_config`, ``eval_mode`` is a library switch that
    defaults to the scalar oracle; the runtime
    (:func:`repro.runtime.executor.solve_search_task`) always asks for
    batch under the analytic backend.
    """
    from repro.core import batch_eval
    from repro.core.objectives import (
        DEFAULT_PARETO_OBJECTIVES,
        ObjectiveContext,
        resolve_objectives,
    )

    eval_mode = batch_eval.validate_eval_mode(eval_mode, backend)
    objs = resolve_objectives(objectives or DEFAULT_PARETO_OBJECTIVES)
    strategies = resolve_strategies(strategy)
    # Like the scalar search: the analytic time lower bound (which every
    # affine objective bound is built from) is only admissible against the
    # analytic evaluation.
    prune = space.prune_with_lower_bound and backend == DEFAULT_BACKEND

    def _run(opts: ModelingOptions):
        caches_before = cache_stats()
        archive = _FrontierArchive(prune)
        price = _training_pricer(
            eval_mode, model, system, global_batch_size, space, opts, backend
        )
        ctx = ObjectiveContext(
            model=model,
            system=system,
            n_gpus=n_gpus,
            global_batch_size=global_batch_size,
            options=opts,
        )
        parts: List[SearchStatistics] = []
        # One archive across strategies only ever prunes more: dominance is
        # transitive, so a candidate pruned by a sibling strategy's point is
        # dominated by the merged frontier too.
        for strategy_index, strat in enumerate(strategies):
            found, filtered = _feasible_survivors(
                model, system, n_gpus, global_batch_size, strat, space, opts, prune
            )
            survivors = []
            for item in found:
                coeffs = tuple(obj.coefficients(item.config, ctx) for obj in objs)
                bound = tuple(off + slope * item.bound for off, slope in coeffs) if prune else ()
                survivors.append(
                    Survivor(bound, (strategy_index, item.rank), item.config, coeffs)
                )
            if prune:
                # Best-first along the first objective's bound (ties by rank)
                # so the archive fills with strong points before the bulk of
                # the pruning tests run.  No survivor ends the walk: a later
                # parallelization may trade the first objective for another.
                survivors.sort(key=lambda item: (item.bound, item.rank))
            parts += [filtered, branch_and_bound(survivors, price, archive)]
        return archive, price, search_statistics(caches_before, *parts)

    archive, price, stats = _run(options)
    if (
        fallback_activation_checkpointing
        and not options.activation_checkpointing
        and not archive.entries
    ):
        archive, price, stats = _run(replace(options, activation_checkpointing=True))

    points = [
        ParetoPoint(
            estimate=price.estimate(winner),
            metrics={obj.name: obj.raw(component) for obj, component in zip(objs, vector)},
        )
        for vector, _, winner in archive.sorted_entries()
    ]
    return ParetoResult(
        model_name=model.name,
        system_name=system.name,
        n_gpus=n_gpus,
        global_batch_size=global_batch_size,
        strategy="+".join(strategies),
        objectives=tuple(obj.name for obj in objs),
        points=points,
        statistics=stats,
    )


def best_assignment_for(
    model: TransformerConfig,
    system: SystemSpec,
    config: ParallelConfig,
    *,
    global_batch_size: int,
    space: SearchSpace = DEFAULT_SEARCH_SPACE,
    options: ModelingOptions = DEFAULT_OPTIONS,
    backend: str = DEFAULT_BACKEND,
) -> IterationEstimate:
    """Evaluate ``config`` under its best NVS assignment.

    This is the helper the "rationale" experiments (Figs. 1-3) use: the
    parallelization is fixed by hand and only the GPU placement is optimised,
    mirroring the paper's methodology.
    """
    assignments = gpu_assignments(config, system.nvs_domain_size, space)
    estimates = evaluate_candidates(
        model,
        system,
        config,
        assignments,
        global_batch_size=global_batch_size,
        options=options,
        backend=backend,
    )
    feasible = [est for est in estimates if est.feasible]
    pool = feasible if feasible else estimates
    return min(pool, key=lambda est: est.total_time)
