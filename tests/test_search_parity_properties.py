"""Search-level invariants on one scenario generator.

``tests/test_batch_eval_properties.py`` pins the batch pricer against the
scalar oracle per candidate, and ``tests/test_batch_grid.py`` pins whole
searches on hand-picked grids.  The runtime prices every analytic training
and Pareto search in batch, so these properties draw small scenarios from
one strategy — tiny dense, MoE and GQA models, every TP strategy or all of
them, 8–512 GPUs, NVS domains of 4, 8 or 64, ZeRO 0–3, 1F1B alone or with
GPipe and interleaving, ``top_k`` 0–3, with and without warm hints from the
winner at half the GPU count — and assert that

* both library eval modes give equal results (dataclass equality,
  statistics included) for :func:`find_optimal_config` and, on a random
  objective subset, :func:`find_pareto_configs`;
* a pruned batch search returns the same best, top-k and frontier as an
  exhaustive one (``prune_with_lower_bound=False``).

A second generator draws serving scenarios — the same three models, 1–32
GPUs, every serving objective, arrival rates and ``top_k`` 0–3 — and asserts
that

* the pruned :func:`find_serving_config` equals the exhaustive one;
* :func:`serving_objective_bound` is admissible: no feasible assignment of a
  parallelization beats its bound, and a bound-infeasible parallelization
  has no feasible assignment.

Tier-1 runs a derandomized slice of each; the ``batch_grid`` tier runs the
same properties on at least 200 examples.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config_space import DEFAULT_SEARCH_SPACE, gpu_assignments, parallel_configs
from repro.core.execution import DEFAULT_OPTIONS
from repro.core.inference import (
    SERVING_OBJECTIVES,
    ServingSpec,
    _serving_space,
    evaluate_serving_config,
    find_serving_config,
    serving_objective_bound,
)
from repro.core.model import TransformerConfig
from repro.core.objectives import DEFAULT_PARETO_OBJECTIVES
from repro.core.search import find_optimal_config, find_pareto_configs
from repro.core.system import make_system

DENSE = TransformerConfig(
    name="tiny-dense", seq_len=1024, embed_dim=2048, num_heads=16, depth=16
)
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

SCHEDULES = {
    "1f1b": dict(schedules=("1f1b",), virtual_stages=(1,)),
    "mixed": dict(schedules=("1f1b", "gpipe", "interleaved"), virtual_stages=(1, 2)),
}


@st.composite
def scenarios(draw):
    """Keyword arguments of one small search, plus its top-k, warm-hint and
    Pareto-objective knobs."""
    model = draw(st.sampled_from([DENSE, GQA, MOE]))
    space = replace(
        DEFAULT_SEARCH_SPACE,
        **SCHEDULES[draw(st.sampled_from(sorted(SCHEDULES)))],
        expert_parallel=(1, 2) if model.is_moe else None,
    )
    return dict(
        model=model,
        system=make_system(
            draw(st.sampled_from(["A100", "B200"])), draw(st.sampled_from([4, 8, 64]))
        ),
        n_gpus=2 ** draw(st.integers(min_value=3, max_value=9)),
        global_batch_size=draw(st.sampled_from([64, 256])),
        strategy=draw(st.sampled_from(["tp1d", "tp2d", "summa", "all"])),
        space=space,
        options=replace(DEFAULT_OPTIONS, zero_stage=draw(st.sampled_from([0, 1, 2, 3]))),
    ), dict(
        top_k=draw(st.integers(min_value=0, max_value=3)),
        warm=draw(st.booleans()),
        objectives=tuple(
            draw(
                st.lists(
                    st.sampled_from(DEFAULT_PARETO_OBJECTIVES),
                    min_size=1,
                    max_size=len(DEFAULT_PARETO_OBJECTIVES),
                    unique=True,
                )
            )
        ),
    )


def _check_batch_equals_scalar(scenario):
    search, knobs = scenario
    hints = ()
    if knobs["warm"]:
        donor = find_optimal_config(**{**search, "n_gpus": search["n_gpus"] // 2})
        hints = (donor.best.config,) if donor.found else ()
    training = dict(search, top_k=knobs["top_k"], warm_hints=hints)
    scalar = find_optimal_config(**training, eval_mode="scalar")
    batch = find_optimal_config(**training, eval_mode="batch")
    assert batch == scalar
    assert batch.statistics == scalar.statistics

    pareto = dict(search, objectives=knobs["objectives"])
    scalar_front = find_pareto_configs(**pareto, eval_mode="scalar")
    batch_front = find_pareto_configs(**pareto, eval_mode="batch")
    assert batch_front == scalar_front
    assert batch_front.statistics == scalar_front.statistics


def _check_pruned_equals_exhaustive(scenario):
    search, knobs = scenario
    exhaustive = replace(search["space"], prune_with_lower_bound=False)
    training = dict(search, top_k=knobs["top_k"], eval_mode="batch")
    pruned = find_optimal_config(**training)
    unpruned = find_optimal_config(**{**training, "space": exhaustive})
    assert (pruned.best, pruned.top_k) == (unpruned.best, unpruned.top_k)

    pareto = dict(search, objectives=knobs["objectives"], eval_mode="batch")
    pruned_front = find_pareto_configs(**pareto)
    assert pruned_front.points == find_pareto_configs(**{**pareto, "space": exhaustive}).points


@st.composite
def serving_scenarios(draw):
    """Keyword arguments of one small serving search."""
    model = draw(st.sampled_from([DENSE, GQA, MOE]))
    return dict(
        model=model,
        system=make_system(draw(st.sampled_from(["A100", "B200"])), draw(st.sampled_from([4, 8]))),
        n_gpus=2 ** draw(st.integers(min_value=0, max_value=5)),
        serving=ServingSpec(
            arrival_rate=draw(st.sampled_from([1.0, 16.0, 64.0, 512.0])),
            prompt_tokens=draw(st.sampled_from([256, 1024])),
            output_tokens=draw(st.sampled_from([32, 256])),
        ),
        objective=draw(st.sampled_from(SERVING_OBJECTIVES)),
        top_k=draw(st.integers(min_value=0, max_value=3)),
        space=replace(DEFAULT_SEARCH_SPACE, expert_parallel=(1, 2) if model.is_moe else None),
    )


def _check_serving_pruned_equals_exhaustive(scenario):
    pruned = find_serving_config(**scenario)
    exhaustive = replace(scenario["space"], prune_with_lower_bound=False)
    unpruned = find_serving_config(**{**scenario, "space": exhaustive})
    assert (pruned.best, pruned.top_k) == (unpruned.best, unpruned.top_k)


def _check_serving_bound_admissible(scenario):
    """Every feasible assignment is no better than its parallelization's bound.

    The tolerance is ``TestAdmissibleBound``'s (``tests/test_inference.py``).
    """
    model, system, serving = scenario["model"], scenario["system"], scenario["serving"]
    objective, n_gpus = scenario["objective"], scenario["n_gpus"]
    prefill_model = model.scaled(seq_len=serving.prompt_tokens)
    space = _serving_space(scenario["space"])
    for config in parallel_configs(prefill_model, n_gpus, n_gpus, "tp1d", space):
        try:
            bound, bound_feasible = serving_objective_bound(
                model, system, config, serving=serving, objective=objective
            )
        except ValueError:
            continue
        for assignment in gpu_assignments(config, system.nvs_domain_size, space):
            estimate = evaluate_serving_config(model, system, config, assignment, serving=serving)
            if not estimate.feasible:
                continue
            assert bound_feasible, (config, assignment)
            value = estimate.objective_value(objective)
            if objective == "throughput":
                assert bound >= value - 1e-12, (config, assignment, bound, value)
            else:
                assert bound <= value + 1e-12, (config, assignment, bound, value)


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(scenario=scenarios())
@settings(max_examples=10, derandomize=True, **_SETTINGS)
def test_batch_search_equals_scalar_search(scenario):
    """Tier-1 slice: a fixed, derandomized set of drawn scenarios."""
    _check_batch_equals_scalar(scenario)


@pytest.mark.batch_grid
@given(scenario=scenarios())
@settings(max_examples=200, **_SETTINGS)
def test_batch_search_equals_scalar_search_wide(scenario):
    """The same property on 200 random scenarios (``pytest -m batch_grid``)."""
    _check_batch_equals_scalar(scenario)


@given(scenario=scenarios())
@settings(max_examples=10, derandomize=True, **_SETTINGS)
def test_pruned_search_equals_exhaustive_search(scenario):
    """Tier-1 slice: pruning never changes the best, top-k or frontier."""
    _check_pruned_equals_exhaustive(scenario)


@pytest.mark.batch_grid
@given(scenario=scenarios())
@settings(max_examples=200, **_SETTINGS)
def test_pruned_search_equals_exhaustive_search_wide(scenario):
    """The same property on 200 random scenarios (``pytest -m batch_grid``)."""
    _check_pruned_equals_exhaustive(scenario)


@given(scenario=serving_scenarios())
@settings(max_examples=10, derandomize=True, **_SETTINGS)
def test_pruned_serving_search_equals_exhaustive(scenario):
    """Tier-1 slice: pruning never changes the serving best or top-k."""
    _check_serving_pruned_equals_exhaustive(scenario)


@pytest.mark.batch_grid
@given(scenario=serving_scenarios())
@settings(max_examples=200, **_SETTINGS)
def test_pruned_serving_search_equals_exhaustive_wide(scenario):
    """The same property on 200 random scenarios (``pytest -m batch_grid``)."""
    _check_serving_pruned_equals_exhaustive(scenario)


@given(scenario=serving_scenarios())
@settings(max_examples=20, derandomize=True, **_SETTINGS)
def test_serving_bound_is_admissible(scenario):
    """Tier-1 slice: the free-communication bound is never beaten."""
    _check_serving_bound_admissible(scenario)


@pytest.mark.batch_grid
@given(scenario=serving_scenarios())
@settings(max_examples=200, **_SETTINGS)
def test_serving_bound_is_admissible_wide(scenario):
    """The same property on 200 random scenarios (``pytest -m batch_grid``)."""
    _check_serving_bound_admissible(scenario)
