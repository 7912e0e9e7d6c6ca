"""Batch pricer vs the scalar oracle: the bit-exactness equivalence grid.

The vectorized pricer (:mod:`repro.core.batch_eval`) re-derives every
analytic closed form as a NumPy array program; the scalar
:func:`~repro.core.execution.evaluate_config` path stays the oracle.  The
documented tolerance is **exact equality** — same float64 operations in the
same association order — so every assertion here is ``==``, never
``approx``.  Scenarios cover dense/GQA/MoE models, ZeRO stages 0 and 3,
activation checkpointing, the overlap/dropout/latency flags, all three
pipeline schedules (with virtual stages), and all three TP strategies on
both an A100-NVS4 and a B200-NVS8 system.
"""

from dataclasses import replace

import pytest

from enumeration_rows import batch_evaluate_enumeration, materialize_enumeration, row_blocks
from repro.core import batch_eval
from repro.core.batch_eval import (
    CandidateBlocks,
    assignment_matrix,
    batch_candidate_breakdowns,
    batch_candidate_times,
    validate_eval_mode,
)
from repro.core.config_space import DEFAULT_SEARCH_SPACE, count_configurations, gpu_assignments
from repro.core.execution import DEFAULT_OPTIONS, clear_caches, evaluate_config
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

#: Every schedule x virtual-stage x microbatch axis the cost-plan IR knows.
SPACE = replace(
    DEFAULT_SEARCH_SPACE,
    microbatch_sizes=(1, 2),
    schedules=("1f1b", "gpipe", "interleaved"),
    virtual_stages=(1, 2),
)

#: (model, system, space, options) scenario rows of the equivalence grid.
SCENARIOS = [
    pytest.param(DENSE, B200_NVS8, SPACE, DEFAULT_OPTIONS, id="dense-defaults"),
    pytest.param(DENSE, A100_NVS4, SPACE, DEFAULT_OPTIONS, id="dense-a100"),
    pytest.param(
        GQA,
        B200_NVS8,
        SPACE,
        replace(DEFAULT_OPTIONS, activation_checkpointing=True),
        id="gqa-checkpointing",
    ),
    pytest.param(
        MOE,
        B200_NVS8,
        replace(SPACE, expert_parallel=(1, 2)),
        replace(DEFAULT_OPTIONS, zero_stage=3),
        id="moe-ep-zero3",
    ),
    pytest.param(
        DENSE,
        B200_NVS8,
        SPACE,
        replace(
            DEFAULT_OPTIONS,
            zero_stage=0,
            overlap_dp=False,
            flash_attention=False,
        ),
        id="dense-zero0-exposed-dp",
    ),
    pytest.param(
        DENSE,
        A100_NVS4,
        SPACE,
        replace(
            DEFAULT_OPTIONS,
            overlap_pp=True,
            include_dropout=True,
            include_flop_latency=False,
        ),
        id="dense-overlap-pp-dropout",
    ),
]

N_GPUS = 16
GLOBAL_BATCH = 64


class TestEquivalenceGrid:
    """Every candidate of every scenario: batch == scalar, bit for bit."""

    @pytest.mark.parametrize("strategy", ["tp1d", "tp2d", "summa"])
    @pytest.mark.parametrize("model,system,space,options", SCENARIOS)
    def test_batch_matches_scalar_oracle(self, model, system, space, options, strategy):
        if model.num_experts > 1 and strategy == "summa":
            pytest.skip("SUMMA does not enumerate MoE candidates")
        rows, priced = batch_evaluate_enumeration(
            model, system, N_GPUS, GLOBAL_BATCH, strategy, space=space, options=options
        )
        assert rows, "scenario enumerates no candidates — grid point is vacuous"
        assert len(priced) == len(rows)
        for i, row in enumerate(rows):
            estimate = evaluate_config(
                model,
                system,
                row.config,
                row.assignment,
                global_batch_size=GLOBAL_BATCH,
                options=options,
            )
            scalar = estimate.breakdown
            assert priced.compute[i] == scalar.compute
            assert priced.memory[i] == scalar.memory
            assert priced.tp_comm[i] == scalar.tp_comm
            assert priced.pp_bubble[i] == scalar.pp_bubble
            assert priced.pp_comm[i] == scalar.pp_comm
            assert priced.dp_comm[i] == scalar.dp_comm
            assert priced.total[i] == estimate.total_time

    def test_times_equal_breakdown_totals(self):
        rows, priced = batch_evaluate_enumeration(
            DENSE, B200_NVS8, N_GPUS, GLOBAL_BATCH, "tp1d", space=SPACE
        )
        times = batch_candidate_times(
            DENSE, B200_NVS8, row_blocks(rows), global_batch_size=GLOBAL_BATCH
        )
        assert (times == priced.total).all()


class TestChunkProgram:
    """A chunk is one array program per collective structure, not per
    stage key."""

    @staticmethod
    def _priced(rows):
        return batch_candidate_breakdowns(
            DENSE, B200_NVS8, row_blocks(rows), global_batch_size=GLOBAL_BATCH
        )

    def test_mixed_chunk_costs_one_key_and_stays_exact(self, monkeypatch):
        rows = materialize_enumeration(DENSE, B200_NVS8, N_GPUS, GLOBAL_BATCH, "summa", SPACE)
        configs = {row.config for row in rows}
        assert len({config.microbatch_size for config in configs}) > 1
        assert len({(c.tensor_parallel_1, c.tensor_parallel_2) for c in configs}) > 1
        assert len({config.summa_panels for config in configs}) > 1
        assert {config.schedule for config in configs} == set(SPACE.schedules)
        one_key = [row for row in rows if row.config == rows[0].config]

        calls = []
        original = batch_eval._collective_time_arr

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(batch_eval, "_collective_time_arr", counting)
        self._priced(one_key)
        one_key_calls = list(calls)
        calls.clear()
        priced = self._priced(rows)
        assert calls == one_key_calls
        for i, row in enumerate(rows):
            estimate = evaluate_config(
                DENSE, B200_NVS8, row.config, row.assignment, global_batch_size=GLOBAL_BATCH
            )
            assert priced.total[i] == estimate.total_time
            assert priced.pp_bubble[i] == estimate.breakdown.pp_bubble
            assert priced.pp_comm[i] == estimate.breakdown.pp_comm

    def test_empty_chunk_runs_no_program(self, monkeypatch):
        """A warm seed whose hints all fail the memory filter prices nothing."""
        monkeypatch.setattr(batch_eval, "_price_lanes", None)  # never called
        priced = self._priced([])
        assert len(priced) == 0
        assert all(getattr(priced, name).shape == (0,) for name in ("compute", "pp_bubble", "total"))


class TestCandidateBlocks:
    """The batch pricer's input: one block per parallelization."""

    @pytest.mark.parametrize("search", [True, False], ids=["searched", "default-assignment"])
    def test_assignment_matrix_lists_gpu_assignments(self, search):
        space = replace(SPACE, search_gpu_assignment=search)
        for system in (B200_NVS8, A100_NVS4):
            nvs = system.nvs_domain_size
            for row in materialize_enumeration(DENSE, system, N_GPUS, GLOBAL_BATCH, "tp2d", space):
                matrix = assignment_matrix(row.config, nvs, space)
                want = [list(a.as_tuple()) for a in gpu_assignments(row.config, nvs, space)]
                assert matrix.tolist() == want

    def test_len_and_positions_count_candidates(self):
        one = (1, 1, 1, 1)
        blocks = CandidateBlocks([None, None, None], [[one, one], [], [one, one, one]])
        assert len(blocks) == 5
        block, row = blocks.positions()
        assert block.tolist() == [0, 0, 2, 2, 2]
        assert row.tolist() == [0, 1, 0, 1, 2]


class TestMaterializeEnumeration:
    def test_row_count_matches_count_configurations(self):
        rows = materialize_enumeration(
            DENSE, B200_NVS8, N_GPUS, GLOBAL_BATCH, "tp1d", SPACE
        )
        n_configs, n_rows = count_configurations(
            DENSE, N_GPUS, GLOBAL_BATCH, "tp1d", B200_NVS8.nvs_domain_size, SPACE
        )
        assert len(rows) == n_rows
        assert len({row.rank for row in rows}) == n_configs

    def test_rows_are_enumerated_in_order(self):
        rows = materialize_enumeration(
            DENSE, B200_NVS8, N_GPUS, GLOBAL_BATCH, "tp1d", SPACE
        )
        keys = [(row.rank, row.assign_idx) for row in rows]
        assert keys == sorted(keys)


class TestValidateEvalMode:
    def test_normalizes_case_and_whitespace(self):
        assert validate_eval_mode(" Batch\n") == "batch"
        assert validate_eval_mode("SCALAR") == "scalar"

    @pytest.mark.parametrize("bad", ["vectorized", "", "batch2", None])
    def test_rejects_unknown_modes(self, bad):
        with pytest.raises(ValueError, match="eval_mode"):
            validate_eval_mode(bad)


def test_clear_caches_covers_batch_caches():
    from repro.core.execution import cache_stats

    clear_caches()
    space = replace(SPACE, expert_parallel=(1, 2))
    rows = materialize_enumeration(MOE, B200_NVS8, N_GPUS, GLOBAL_BATCH, "tp1d", space)
    batch_candidate_times(MOE, B200_NVS8, row_blocks(rows), global_batch_size=GLOBAL_BATCH)
    assignment_matrix(rows[0].config, B200_NVS8.nvs_domain_size, space)
    stats = cache_stats()
    assert stats["batch_ep_divisor"]["currsize"] > 0
    assert stats["assignment_matrix"]["currsize"] > 0
    clear_caches()
    after = cache_stats()
    assert after["batch_ep_divisor"]["currsize"] == 0
    assert after["assignment_matrix"]["currsize"] == 0
