"""Pluggable pipeline schedules: registry, properties, legacy equivalence.

The three headline properties the cost-plan refactor promises:

* ``interleaved(v=1)`` reduces *exactly* (bit-for-bit) to ``1f1b``;
* the GPipe bubble is never smaller than the 1F1B bubble for the same
  stage times (and its activation memory is never smaller either);
* reducing the built :class:`ExecutionPlan` equals the legacy inline
  computation — re-derived independently here from the same primitives —
  on a sampled grid of dense / MoE / GQA configurations.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config_space import SearchSpace, parallel_configs
from repro.core.execution import (
    DEFAULT_OPTIONS,
    ModelingOptions,
    _cached_stage_times,
    _cached_workload,
    _comm_time,
    _group_placement,
    _summa_comm_time,
    evaluate_config,
)
from repro.core.backends import AnalyticPricer
from repro.core.collectives import collective_time, point_to_point_time
from repro.core.model import GPT3_1T
from repro.core.parallelism.base import GROUP_PP, GpuAssignment, ParallelConfig
from repro.core.parallelism.data_parallel import data_parallel_plan
from repro.core.parallelism.pipeline import (
    layers_per_stage,
    pipeline_bubble_time,
    pipeline_p2p_volume_bytes,
)
from repro.core.schedules import (
    SCHEDULE_REGISTRY,
    available_schedules,
    get_schedule,
    register_schedule,
)
from repro.core.schedules.base import PipelineSchedule
from repro.core.search import find_optimal_config
from repro.core.system import make_system
from repro.core.workloads import get_workload


@pytest.fixture(scope="module")
def b200():
    return make_system("B200", 8)


#: Scenario grid the equivalence properties sample from: a dense paper
#: model, a GQA variant and an MoE+GQA model, each at a small GPU count.
_SCENARIOS = []
for _workload, _n_gpus, _batch in (
    ("gpt3-1t", 32, 64),
    ("gpt3-1t-gqa", 32, 64),
    ("moe-mixtral", 16, 32),
):
    _model = get_workload(_workload).model
    _SCENARIOS.extend(
        (_model, _n_gpus, _batch, _config)
        for _config in parallel_configs(_model, _n_gpus, _batch, "tp1d")
    )


class TestRegistry:
    def test_builtin_schedules_registered(self):
        assert set(available_schedules()) >= {"1f1b", "gpipe", "interleaved"}

    def test_lookup_is_case_insensitive(self):
        assert get_schedule("  GPipe ") is SCHEDULE_REGISTRY["gpipe"]

    def test_unknown_schedule_raises(self):
        with pytest.raises(KeyError):
            get_schedule("pipedream-2bw")

    def test_custom_schedule_plugs_in(self, b200):
        class ZeroBubble(PipelineSchedule):
            name = "zero-bubble-test"
            description = "idealised zero-bubble schedule (test only)"

            def bubble_time(self, num_stages, num_microbatches, tf, tb, virtual_stages=1):
                return 0.0

        register_schedule(ZeroBubble())
        try:
            config = ParallelConfig(
                strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
                pipeline_parallel=64, data_parallel=32, microbatch_size=1,
                schedule="zero-bubble-test",
            )
            est = evaluate_config(
                GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096
            )
            assert est.breakdown.pp_bubble == 0.0
        finally:
            SCHEDULE_REGISTRY.pop("zero-bubble-test")


class TestInterleavedReducesTo1F1B:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_SCENARIOS))
    def test_v1_is_bit_identical_to_1f1b(self, scenario):
        model, n_gpus, batch, config = scenario
        interleaved = dataclasses.replace(config, schedule="interleaved", virtual_stages=1)
        base = evaluate_config(model, make_system("B200", 8), config, global_batch_size=batch)
        variant = evaluate_config(
            model, make_system("B200", 8), interleaved, global_batch_size=batch
        )
        assert variant.breakdown == base.breakdown  # bit-exact, not approx
        assert variant.memory == base.memory
        assert variant.feasible == base.feasible

    @settings(max_examples=40, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=128),
        num_microbatches=st.integers(min_value=1, max_value=512),
        tf=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        tb=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_v1_formulas_match_exactly(self, num_stages, num_microbatches, tf, tb):
        one = get_schedule("1f1b")
        inter = get_schedule("interleaved")
        assert inter.bubble_time(num_stages, num_microbatches, tf, tb, 1) == one.bubble_time(
            num_stages, num_microbatches, tf, tb, 1
        )
        assert inter.in_flight_microbatches(num_stages, num_microbatches, 1) == (
            one.in_flight_microbatches(num_stages, num_microbatches, 1)
        )
        assert inter.p2p_volume_factor(1) == one.p2p_volume_factor(1)

    def test_higher_degree_shrinks_bubble_and_grows_p2p(self, b200):
        config = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
            pipeline_parallel=64, data_parallel=32, microbatch_size=1,
            schedule="interleaved", virtual_stages=2,
        )
        base = evaluate_config(
            GPT3_1T, b200, dataclasses.replace(config, schedule="1f1b", virtual_stages=1),
            GpuAssignment(nvs_tp1=8), global_batch_size=4096,
        )
        inter = evaluate_config(
            GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096
        )
        assert inter.breakdown.pp_bubble == pytest.approx(base.breakdown.pp_bubble / 2)
        assert inter.breakdown.pp_comm == pytest.approx(2 * base.breakdown.pp_comm)
        # Everything schedule-independent is untouched.
        assert inter.breakdown.compute == base.breakdown.compute
        assert inter.breakdown.tp_comm == base.breakdown.tp_comm

    def test_non_dividing_degree_rejected(self, b200):
        # 128 layers / 64 stages = 2 layers per stage; v=4 cannot divide them.
        config = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
            pipeline_parallel=64, data_parallel=32, microbatch_size=1,
            schedule="interleaved", virtual_stages=4,
        )
        with pytest.raises(ValueError):
            evaluate_config(
                GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096
            )

    def test_interleaving_requires_pipeline(self, b200):
        config = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
            pipeline_parallel=1, data_parallel=16, microbatch_size=1,
            schedule="interleaved", virtual_stages=2,
        )
        with pytest.raises(ValueError):
            evaluate_config(
                GPT3_1T, b200, config, GpuAssignment(nvs_tp1=8), global_batch_size=4096
            )


class TestGPipeVs1F1B:
    @settings(max_examples=60, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=128),
        num_microbatches=st.integers(min_value=1, max_value=512),
        tf=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        tb=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_gpipe_bubble_never_smaller(self, num_stages, num_microbatches, tf, tb):
        gpipe = get_schedule("gpipe")
        one = get_schedule("1f1b")
        assert gpipe.bubble_time(num_stages, num_microbatches, tf, tb) >= one.bubble_time(
            num_stages, num_microbatches, tf, tb
        )
        # ... and it retains at least as many microbatches.
        assert gpipe.in_flight_microbatches(num_stages, num_microbatches) >= (
            one.in_flight_microbatches(num_stages, num_microbatches)
        )

    def test_gpipe_memory_dominates_when_microbatches_exceed_stages(self, b200):
        base = ParallelConfig(
            strategy="tp1d", tensor_parallel_1=8, tensor_parallel_2=1,
            pipeline_parallel=8, data_parallel=4, microbatch_size=1,
        )
        one = evaluate_config(
            GPT3_1T, b200, base, GpuAssignment(nvs_tp1=8), global_batch_size=1024
        )
        gpipe = evaluate_config(
            GPT3_1T, b200, dataclasses.replace(base, schedule="gpipe"),
            GpuAssignment(nvs_tp1=8), global_batch_size=1024,
        )
        # 256 microbatches in flight instead of 8: GPipe pays in HBM,
        # not in time.
        assert gpipe.memory.activation_bytes > one.memory.activation_bytes
        assert gpipe.breakdown == one.breakdown


def _legacy_breakdown(model, system, config, assignment, global_batch_size, options):
    """The pre-IR inline iteration-time arithmetic, re-derived independently.

    This is a line-for-line port of the monolithic ``evaluate_config`` as it
    existed before the cost-plan refactor (1F1B hard-coded); the property
    below checks the plan-built breakdown reproduces it bit-for-bit.
    """
    num_microbatches = config.num_microbatches(global_batch_size)
    stage_layers = layers_per_stage(model, config)
    stage = _cached_stage_times(
        config.strategy, model, system.gpu, config.microbatch_size,
        config.tensor_parallel_1, config.tensor_parallel_2, config.summa_panels,
        options.flash_attention, options.include_dropout,
        options.include_flop_latency, config.expert_parallel,
    )
    workload = _cached_workload(
        config.strategy, model, config.microbatch_size,
        config.tensor_parallel_1, config.tensor_parallel_2, config.summa_panels,
        options.flash_attention, options.include_dropout, config.expert_parallel,
    )

    pricer = AnalyticPricer(system)
    fwd_tp = _comm_time(stage.fwd_comms, config, assignment, pricer) + _summa_comm_time(
        stage.fwd_summa, config, assignment, pricer
    )
    bwd_tp = _comm_time(stage.bwd_comms, config, assignment, pricer) + _summa_comm_time(
        stage.bwd_summa, config, assignment, pricer
    )
    fwd_compute = stage.fwd_flop * stage_layers
    fwd_memory = stage.fwd_mem_exposed * stage_layers
    bwd_compute = stage.bwd_flop * stage_layers
    bwd_memory = stage.bwd_mem_exposed * stage_layers
    fwd_tp *= stage_layers
    bwd_tp *= stage_layers
    if options.activation_checkpointing:
        bwd_compute += fwd_compute
        bwd_memory += fwd_memory
        bwd_tp += fwd_tp
    tf = fwd_compute + fwd_memory + fwd_tp
    tb = bwd_compute + bwd_memory + bwd_tp
    m = num_microbatches

    bubble = pipeline_bubble_time(config.pipeline_parallel, tf, tb)
    pp_comm = 0.0
    if config.pipeline_parallel > 1 and not options.overlap_pp:
        p2p_bytes = pipeline_p2p_volume_bytes(model, config, both_directions=True)
        placement = _group_placement(GROUP_PP, config, assignment)
        pp_comm = m * point_to_point_time(p2p_bytes, placement, system.network)

    plans = [
        data_parallel_plan(
            workload.params_per_gpu * stage_layers, config,
            grad_sync_group=workload.grad_sync_group,
            overlap_with_compute=options.overlap_dp, zero_stage=options.zero_stage,
        )
    ]
    if workload.expert_params_per_gpu > 0:
        plans.append(
            data_parallel_plan(
                workload.expert_params_per_gpu * stage_layers, config,
                grad_sync_group=workload.expert_grad_sync_group,
                overlap_with_compute=options.overlap_dp, zero_stage=options.zero_stage,
            )
        )
    dp_comm = 0.0
    rs_total = 0.0
    ag_total = 0.0
    for plan in plans:
        if plan.total_bytes <= 0:
            continue
        placement = _group_placement(plan.sync_group, config, assignment)
        rs_total += collective_time(
            "reduce_scatter", plan.grad_reduce_scatter_bytes, placement, system.network
        )
        ag_total += collective_time(
            "all_gather", plan.weight_all_gather_bytes, placement, system.network
        )
    if rs_total > 0 or ag_total > 0:
        if options.overlap_dp:
            dp_comm = max(0.0, rs_total - tb) + max(0.0, ag_total - tf)
        else:
            dp_comm = rs_total + ag_total

    return {
        "compute": m * (fwd_compute + bwd_compute),
        "memory": m * (fwd_memory + bwd_memory),
        "tp_comm": m * (fwd_tp + bwd_tp),
        "pp_bubble": bubble,
        "pp_comm": pp_comm,
        "dp_comm": dp_comm,
    }


class TestPlanReductionMatchesLegacy:
    @settings(max_examples=60, deadline=None)
    @given(
        scenario=st.sampled_from(_SCENARIOS),
        overlap_dp=st.booleans(),
        overlap_pp=st.booleans(),
        checkpointing=st.booleans(),
    )
    def test_reduction_is_bit_exact(self, scenario, overlap_dp, overlap_pp, checkpointing):
        model, n_gpus, batch, config = scenario
        system = make_system("B200", 8)
        options = ModelingOptions(
            overlap_dp=overlap_dp,
            overlap_pp=overlap_pp,
            activation_checkpointing=checkpointing,
        )
        assignment = GpuAssignment()
        est = evaluate_config(
            model, system, config, assignment, global_batch_size=batch, options=options
        )
        legacy = _legacy_breakdown(model, system, config, assignment, batch, options)
        assert est.breakdown.as_dict() == legacy  # == on every float: bit-exact

    def test_summa_strategy_also_matches(self, b200):
        model = GPT3_1T
        for config in parallel_configs(model, 16, 32, "summa"):
            est = evaluate_config(model, b200, config, global_batch_size=32)
            legacy = _legacy_breakdown(
                model, b200, config, GpuAssignment(), 32, DEFAULT_OPTIONS
            )
            assert est.breakdown.as_dict() == legacy


class TestScheduleSearch:
    def test_interleaved_pruned_search_matches_exhaustive(self, b200):
        space = SearchSpace(
            schedules=("interleaved",), virtual_stages=(1, 2), prune_with_lower_bound=True
        )
        exhaustive_space = dataclasses.replace(space, prune_with_lower_bound=False)
        pruned = find_optimal_config(
            GPT3_1T, b200, n_gpus=128, global_batch_size=128, strategy="tp1d", space=space
        )
        exhaustive = find_optimal_config(
            GPT3_1T, b200, n_gpus=128, global_batch_size=128, strategy="tp1d",
            space=exhaustive_space,
        )
        assert pruned.found and exhaustive.found
        assert pruned.best == exhaustive.best
        assert pruned.statistics.candidates_evaluated <= (
            exhaustive.statistics.candidates_evaluated
        )
        # The halved bubble makes interleaving beat plain 1F1B here.
        baseline = find_optimal_config(
            GPT3_1T, b200, n_gpus=128, global_batch_size=128, strategy="tp1d"
        )
        assert pruned.best_time < baseline.best_time

    def test_schedule_axis_enumerates_both_degrees(self, b200):
        space = SearchSpace(schedules=("interleaved",), virtual_stages=(1, 2))
        degrees = {
            config.virtual_stages
            for config in parallel_configs(GPT3_1T, 64, 128, "tp1d", space)
        }
        assert degrees == {1, 2}

    def test_default_space_only_searches_1f1b(self, b200):
        for config in parallel_configs(GPT3_1T, 64, 128, "tp1d"):
            assert config.schedule == "1f1b"
            assert config.virtual_stages == 1

    def test_gpipe_search_never_beats_1f1b(self, b200):
        # GPipe matches 1F1B's time where it fits, but its all-m activation
        # retention rules out some candidates, so its optimum can only tie
        # or lose.
        one = find_optimal_config(GPT3_1T, b200, n_gpus=128, global_batch_size=128)
        gpipe = find_optimal_config(
            GPT3_1T, b200, n_gpus=128, global_batch_size=128,
            space=SearchSpace(schedules=("gpipe",)),
        )
        assert one.found and gpipe.found
        assert gpipe.best_time >= one.best_time
