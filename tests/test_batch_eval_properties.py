"""Property-based pinning of the batch pricer against the scalar oracle.

The scenario grid in ``tests/test_batch_eval.py`` walks fixed enumerations;
these properties sample the cross product of model x system x strategy x
schedule x modeling flags and assert **exact** (``==``) per-CostPhase-term
equality on randomly drawn candidates.  The Pareto dominance mask is pinned
the same way, against a pure-Python pairwise filter.
"""

import math
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enumeration_rows import materialize_enumeration, row_blocks
from repro.core import batch_eval
from repro.core.batch_eval import batch_candidate_breakdowns, non_dominated_mask
from repro.core.config_space import DEFAULT_SEARCH_SPACE
from repro.core.execution import DEFAULT_OPTIONS, evaluate_config
from repro.core.model import TransformerConfig
from repro.core.system import make_system

DENSE = TransformerConfig(name="tiny-dense", seq_len=1024, embed_dim=2048, num_heads=16, depth=16)
GQA = TransformerConfig(
    name="tiny-gqa", seq_len=1024, embed_dim=2048, num_heads=16, kv_heads=4, depth=16
)
MOE = TransformerConfig(
    name="tiny-moe",
    seq_len=1024,
    embed_dim=2048,
    num_heads=16,
    depth=16,
    num_experts=8,
    moe_top_k=2,
)

B200_NVS8 = make_system("B200", 8)
A100_NVS4 = make_system("A100", 4)

N_GPUS = 16
GLOBAL_BATCH = 64


@lru_cache(maxsize=None)
def _rows(model, system, strategy, schedule, virtual_stages, microbatch):
    space = replace(
        DEFAULT_SEARCH_SPACE,
        microbatch_sizes=(microbatch,),
        schedules=(schedule,),
        virtual_stages=(virtual_stages,),
        expert_parallel=(1, 2) if model.num_experts > 1 else None,
    )
    return tuple(
        materialize_enumeration(model, system, N_GPUS, GLOBAL_BATCH, strategy, space)
    )


def _assert_terms_equal(batch, index, scalar_estimate):
    scalar = scalar_estimate.breakdown
    assert batch.compute[index] == scalar.compute
    assert batch.memory[index] == scalar.memory
    assert batch.tp_comm[index] == scalar.tp_comm
    assert batch.pp_bubble[index] == scalar.pp_bubble
    assert batch.pp_comm[index] == scalar.pp_comm
    assert batch.dp_comm[index] == scalar.dp_comm
    assert batch.total[index] == scalar_estimate.total_time


class TestTrainingTermEquality:
    @given(
        model=st.sampled_from([DENSE, GQA, MOE]),
        system=st.sampled_from([B200_NVS8, A100_NVS4]),
        strategy=st.sampled_from(["tp1d", "tp2d", "summa"]),
        schedule=st.sampled_from(["1f1b", "gpipe", "interleaved"]),
        virtual_stages=st.sampled_from([1, 2]),
        microbatch=st.sampled_from([1, 2]),
        zero_stage=st.sampled_from([1, 0, 2, 3]),
        checkpointing=st.booleans(),
        overlap_dp=st.booleans(),
        overlap_pp=st.booleans(),
        flash=st.booleans(),
        pick=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_cost_term_matches_the_scalar_oracle(
        self,
        model,
        system,
        strategy,
        schedule,
        virtual_stages,
        microbatch,
        zero_stage,
        checkpointing,
        overlap_dp,
        overlap_pp,
        flash,
        pick,
    ):
        assume(not (model.num_experts > 1 and strategy == "summa"))
        rows = _rows(model, system, strategy, schedule, virtual_stages, microbatch)
        assume(rows)
        row = rows[pick % len(rows)]
        options = replace(
            DEFAULT_OPTIONS,
            zero_stage=zero_stage,
            activation_checkpointing=checkpointing,
            overlap_dp=overlap_dp,
            overlap_pp=overlap_pp,
            flash_attention=flash,
        )
        priced = batch_candidate_breakdowns(
            model,
            system,
            row_blocks([row]),
            global_batch_size=GLOBAL_BATCH,
            options=options,
        )
        estimate = evaluate_config(
            model,
            system,
            row.config,
            row.assignment,
            global_batch_size=GLOBAL_BATCH,
            options=options,
        )
        _assert_terms_equal(priced, 0, estimate)

    @given(
        picks=st.lists(
            st.tuples(
                st.sampled_from(["tp1d", "tp2d", "summa"]),
                st.sampled_from(["1f1b", "interleaved"]),
                st.integers(min_value=0, max_value=10**9),
            ),
            min_size=2,
            max_size=8,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_heterogeneous_batches_scatter_back_in_input_order(self, picks):
        """A batch mixing strategies — several lane programs — equals its
        candidates priced one at a time."""
        chosen = []
        for strategy, schedule, pick in picks:
            rows = _rows(DENSE, B200_NVS8, strategy, schedule, 1 if schedule == "1f1b" else 2, 1)
            chosen.append(rows[pick % len(rows)])
        batched = batch_candidate_breakdowns(
            DENSE, B200_NVS8, row_blocks(chosen), global_batch_size=GLOBAL_BATCH
        )
        for i, row in enumerate(chosen):
            single = batch_candidate_breakdowns(
                DENSE, B200_NVS8, row_blocks([row]), global_batch_size=GLOBAL_BATCH
            )
            for name in ("compute", "memory", "tp_comm", "pp_bubble", "pp_comm", "dp_comm", "total"):
                assert getattr(batched, name)[i] == getattr(single, name)[0]


def _pairwise_non_dominated(rows):
    """Pure-Python reference: keep each row no other row strictly dominates."""

    def strictly_dominates(a, b):
        better = False
        for ai, bi in zip(a, b):
            if ai > bi:
                return False
            if ai < bi:
                better = True
        return better

    return [not any(strictly_dominates(other, row) for other in rows) for row in rows]


#: Metric values for the dominance properties: a small grid, so rows tie
#: often, with both signed zeros and both infinities.  NaN is left out on
#: purpose: the pairwise rule treats a NaN component as a tie (neither
#: ``>`` nor ``<``), NumPy's ``<=`` as incomparable, and no feasible
#: candidate yields a NaN metric.
_METRIC_GRID = (-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf)


@st.composite
def _metric_matrices(draw):
    """(n, k) canonical vectors: n in [0, 200], k in [1, 4], duplicated rows."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=160))
    row = st.tuples(*[st.sampled_from(_METRIC_GRID)] * k)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if rows:
        picks = draw(st.lists(st.integers(0, n - 1), max_size=40))
        rows = draw(st.permutations(rows + [rows[i] for i in picks]))
    return k, rows


class TestNonDominatedMask:
    @given(_metric_matrices(), st.sampled_from([None, 1, 3, 16]))
    @settings(max_examples=150, deadline=None)
    def test_mask_equals_the_pairwise_filter(self, drawn, block):
        """Exact at the shipped block size and at small ones, so that rows
        and their dominators straddle block boundaries."""
        k, rows = drawn
        vectors = np.array(rows, dtype=np.float64).reshape(len(rows), k)
        with mock.patch.object(
            batch_eval, "_DOMINANCE_BLOCK", block or batch_eval._DOMINANCE_BLOCK
        ):
            mask = non_dominated_mask(vectors)
        assert mask.dtype == bool
        assert mask.tolist() == _pairwise_non_dominated(rows)

    def test_antichain_survives_whole(self):
        """Sweep worst case: every row is kept, across several blocks."""
        antichain = [(float(i), float(300 - i), float(i % 7)) for i in range(300)]
        shifted = [(a + 1.0, b, c) for a, b, c in antichain[::3]]
        rows = shifted + antichain
        mask = non_dominated_mask(np.array(rows))
        assert mask.tolist() == _pairwise_non_dominated(rows)
        assert mask.tolist() == [False] * len(shifted) + [True] * len(antichain)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 2)])
    def test_rejects_anything_but_a_matrix(self, shape):
        with pytest.raises(ValueError, match="matrix"):
            non_dominated_mask(np.zeros(shape))
