"""Whole-enumeration rows for the batch-pricer equivalence suites.

The search prices memory-filtered chunks; the equivalence suites
(``test_batch_eval.py``, ``test_batch_eval_properties.py`` and
``test_batch_grid.py``) instead walk every ``(parallelization, assignment)``
candidate of one strategy and pin each batch-priced lane against the scalar
oracle.  These helpers materialize that walk, pack rows into the batch
pricer's blocks, and build the priced chunks the incumbent tests offer.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.batch_eval import BatchBreakdown, CandidateBlocks, batch_candidate_breakdowns
from repro.core.config_space import (
    SearchSpace,
    count_configurations,
    gpu_assignments,
    parallel_configs,
)
from repro.core.execution import DEFAULT_OPTIONS, ModelingOptions
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.search import PricedChunk, Survivor
from repro.core.system import SystemSpec


#: One fully-specified search candidate, with its bookkeeping indices:
#: ``rank`` is the parallelization's enumeration rank and ``assign_idx`` the
#: index of the assignment within ``gpu_assignments`` — the same tie-break
#: key order the search uses.
@dataclass(frozen=True)
class CandidateRow:
    rank: int
    config: ParallelConfig
    assign_idx: int
    assignment: GpuAssignment


def materialize_enumeration(
    model: TransformerConfig,
    system: SystemSpec,
    n_gpus: int,
    global_batch_size: int,
    strategy: str,
    space: SearchSpace,
) -> List[CandidateRow]:
    """Every (parallelization, assignment) candidate of one strategy, as rows.

    The row count is asserted equal to
    :func:`~repro.core.config_space.count_configurations`, so the
    enumeration and its count can never silently diverge.
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
    counted_configs, counted_rows = count_configurations(
        model, n_gpus, global_batch_size, strategy, system.nvs_domain_size, space
    )
    assert (n_configs, len(rows)) == (counted_configs, counted_rows), (
        f"enumeration drifted from count_configurations: materialized "
        f"({n_configs}, {len(rows)}) != counted ({counted_configs}, {counted_rows})"
    )
    return rows


def row_blocks(rows: Sequence[CandidateRow]) -> CandidateBlocks:
    """``rows`` as the batch pricer's blocks: each run of one config is a block.

    The blocks keep the rows' order, so lane ``i`` of the priced batch is
    ``rows[i]``.
    """
    configs: List[ParallelConfig] = []
    assignments: List[List[Tuple[int, int, int, int]]] = []
    for row in rows:
        if not configs or configs[-1] != row.config:
            configs.append(row.config)
            assignments.append([])
        assignments[-1].append(row.assignment.as_tuple())
    return CandidateBlocks(configs, assignments)


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
    """Batch-price one strategy's full enumeration; returns (rows, breakdowns)."""
    rows = materialize_enumeration(
        model, system, n_gpus, global_batch_size, strategy, space
    )
    priced = batch_candidate_breakdowns(
        model,
        system,
        row_blocks(rows),
        global_batch_size=global_batch_size,
        options=options,
    )
    return rows, priced


def priced_chunk(rows: Sequence[Tuple[float, Survivor, int]], arrays: bool) -> PricedChunk:
    """A chunk of ``(score, survivor, assignment index)`` rows, in row order.

    The columns are lists, or NumPy arrays when ``arrays`` is set: the two
    forms the pricers produce.  Survivor ``s``'s assignment ``a`` is the
    token ``(s.rank, a)``, so a winner names the row it came from.
    """
    survivors: List[Survivor] = []
    position = {}
    index = []
    for _, survivor, _ in rows:
        if id(survivor) not in position:
            position[id(survivor)] = len(survivors)
            survivors.append(survivor)
        index.append(position[id(survivor)])
    assign = [a for _, _, a in rows]
    scores = [score for score, _, _ in rows]
    width = max(assign, default=-1) + 1
    assignments = [[(survivor.rank, a) for a in range(width)] for survivor in survivors]
    if arrays:
        index, assign = np.array(index, dtype=np.int64), np.array(assign, dtype=np.int64)
        scores = np.array(scores, dtype=np.float64)
    return PricedChunk(survivors, assignments, index, assign, scores, len(rows))
