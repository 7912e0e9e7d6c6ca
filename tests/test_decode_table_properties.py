"""The decode-layer table prices a decode step exactly like the op list.

:mod:`repro.core.inference` evaluates every decode step of the
continuous-batching fixed point from a memoized decode-layer table;
``serving_oracle`` keeps the op-list path (build the layer's ops and
collectives, price them with ``ops_time`` and ``_comm_time``).  The property
draws dense, MoE and GQA models, ``n1``, ``np`` and ``ep``, fractional group
sizes and contexts, fused or unfused attention, FLOP latency on or off and
the analytic, free-communication and ``sim`` pricers, and requires

* bit-equal per-op counts and stage times from the table and the oracle, and
* an equal :class:`~repro.core.inference.ServingEstimate` from
  ``_evaluate_serving`` with the oracle patched in.

Tier-1 runs a derandomized slice; ``pytest -m batch_grid`` runs 200 examples.
"""

from dataclasses import astuple, replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from serving_oracle import OracleDecodeStep, decode_layer, decode_stage_times

from repro.core import inference
from repro.core.backends import get_backend
from repro.core.config_space import gpu_assignments
from repro.core.execution import DEFAULT_OPTIONS, cache_stats, clear_caches
from repro.core.inference import (
    ServingSpec,
    _DecodeStep,
    _FreeCommPricer,
    _evaluate_serving,
    _validate_serving_candidate,
    decode_step_time,
)
from repro.core.model import TransformerConfig
from repro.core.parallelism.base import ParallelConfig
from repro.core.roofline import peak_rate
from repro.core.system import make_system

# Twelve-head models admit TP degrees that are not powers of two, whose
# divisions round: a table that reorders any product or quotient shows there.
DENSE = TransformerConfig(
    name="tiny-dense", seq_len=1536, embed_dim=1536, num_heads=12, depth=12
)
GQA = TransformerConfig(
    name="tiny-gqa", seq_len=1024, embed_dim=2048, num_heads=16, kv_heads=4, depth=16
)
MOE = TransformerConfig(
    name="tiny-moe",
    seq_len=1536,
    embed_dim=1536,
    num_heads=12,
    kv_heads=6,
    depth=12,
    num_experts=8,
    moe_top_k=2,
)


def _tp_degrees(model):
    """TP1 degrees that shard the model's K/V heads evenly."""
    return [n for n in (1, 2, 3, 4, 6, 8, 12) if model.kv_heads % n == 0]


def _pricer(kind, system):
    """The analytic, ``sim`` or free-communication (bound) pricer."""
    return _FreeCommPricer(system) if kind == "bound" else get_backend(kind)(system)


@st.composite
def decode_cases(draw):
    """One candidate, a decode group size and context, and a serving spec."""
    model = draw(st.sampled_from([DENSE, GQA, MOE]))
    ep = draw(st.sampled_from([1, 2, 4])) if model.is_moe else 1
    config = ParallelConfig(
        strategy="tp1d",
        tensor_parallel_1=draw(st.sampled_from(_tp_degrees(model))),
        tensor_parallel_2=1,
        pipeline_parallel=draw(st.sampled_from([1, 2, 4])),
        data_parallel=ep * draw(st.sampled_from([1, 2])),
        microbatch_size=1,
        expert_parallel=ep,
    )
    system = make_system(
        draw(st.sampled_from(["A100", "H200", "B200"])), draw(st.sampled_from([4, 8, 64]))
    )
    return dict(
        model=model,
        system=system,
        config=config,
        assignment=draw(st.sampled_from(gpu_assignments(config, system.nvs_domain_size))),
        options=replace(
            DEFAULT_OPTIONS,
            flash_attention=draw(st.booleans()),
            include_flop_latency=draw(st.booleans()),
        ),
        pricer=_pricer(draw(st.sampled_from(["analytic", "bound", "sim"])), system),
    ), dict(
        g=draw(st.floats(min_value=1 / 64, max_value=2048, allow_nan=False)),
        context=draw(
            st.one_of(
                st.integers(min_value=1, max_value=1 << 17),
                st.floats(min_value=0.5, max_value=1e6, allow_nan=False),
            )
        ),
        serving=ServingSpec(
            arrival_rate=draw(st.sampled_from([0.25, 4.0, 32.0, 512.0])),
            prompt_tokens=draw(st.sampled_from([384, 1536])),
            output_tokens=draw(st.integers(min_value=1, max_value=300)),
            max_batch_per_replica=draw(st.sampled_from([8, 256])),
        ),
    )


def _bits(values):
    """Every float of ``values``, exactly (signed zeros included)."""
    return tuple(float(value).hex() for value in values)


def _check_table_equals_oracle(case):
    candidate, knobs = case
    model, system, config, assignment, options, pricer = candidate.values()
    g, context = knobs["g"], knobs["context"]

    step = _DecodeStep(model, system, config, assignment, context, options, pricer)
    # Op by op first: a rounding change in one small op can vanish in the
    # stage totals.
    ops, _ = decode_layer(model, config, g, context, flash_attention=options.flash_attention)
    assert [_bits(row) for row in step.table.op_counts(g)] == [
        _bits((op.flops, op.bytes_hbm, peak_rate(system.gpu, op.pipe))) for op in ops
    ]
    oracle = decode_stage_times(model, system, config, assignment, g, context, options, pricer)
    assert _bits(astuple(step.stage_times(g))) == _bits(astuple(oracle))

    serving = knobs["serving"]
    _validate_serving_candidate(model, system, config, assignment, serving)
    estimate = _evaluate_serving(model, system, config, assignment, serving, options, pricer)
    with mock.patch.object(inference, "_DecodeStep", OracleDecodeStep):
        expected = _evaluate_serving(model, system, config, assignment, serving, options, pricer)
    assert estimate == expected


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(case=decode_cases())
@settings(max_examples=150, derandomize=True, **_SETTINGS)
def test_decode_table_equals_op_list(case):
    """Tier-1 slice: a fixed, derandomized set of drawn candidates."""
    _check_table_equals_oracle(case)


@pytest.mark.batch_grid
@given(case=decode_cases())
@settings(max_examples=200, **_SETTINGS)
def test_decode_table_equals_op_list_wide(case):
    """The same property on 200 random candidates (``pytest -m batch_grid``)."""
    _check_table_equals_oracle(case)


class TestDecodeTableMemo:
    """The table memo is one of the planner's registered caches."""

    def test_clear_caches_empties_the_table_memo(self):
        config = ParallelConfig(
            strategy="tp1d",
            tensor_parallel_1=2,
            tensor_parallel_2=1,
            pipeline_parallel=2,
            data_parallel=1,
            microbatch_size=1,
        )
        system = make_system("B200", 8)
        clear_caches()
        for batch in (4, 16, 64):
            decode_step_time(GQA, system, config, batch_per_replica=batch, context_tokens=640)
        stats = cache_stats()["decode_table"]
        assert (stats["misses"], stats["hits"], stats["currsize"]) == (1, 2, 1)
        clear_caches()
        assert cache_stats()["decode_table"]["currsize"] == 0

    def test_non_positive_context_is_rejected(self):
        config = ParallelConfig(
            strategy="tp1d",
            tensor_parallel_1=1,
            tensor_parallel_2=1,
            pipeline_parallel=1,
            data_parallel=1,
            microbatch_size=1,
        )
        with pytest.raises(ValueError, match="context_tokens must be positive"):
            decode_step_time(
                DENSE, make_system("A100", 4), config, batch_per_replica=1, context_tokens=0
            )
