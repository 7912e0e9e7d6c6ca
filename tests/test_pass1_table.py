"""The memoized pass-1 table against a direct walk of the enumeration.

``search._feasible_survivors`` reads each parallelization's HBM footprint
from one table per (model, n_gpus, global batch, strategy, space, options)
and filters it per system.  Whatever the table does, its survivors and
counters must be exactly those of walking ``parallel_configs`` and calling
``estimate_config_memory`` and ``config_time_lower_bound`` on each config.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import search
from repro.core.config_space import DEFAULT_SEARCH_SPACE, parallel_configs
from repro.core.execution import (
    DEFAULT_OPTIONS,
    ModelingOptions,
    cache_stats,
    clear_caches,
    config_time_lower_bound,
    estimate_config_memory,
)
from repro.core.model import TransformerConfig
from repro.core.search import SearchStatistics, find_optimal_config
from repro.core.system import make_system

DENSE = TransformerConfig(name="tiny-dense", seq_len=1024, embed_dim=2048, num_heads=16, depth=16)
GQA = TransformerConfig(
    name="tiny-gqa", seq_len=1024, embed_dim=2048, num_heads=16, kv_heads=4, depth=16
)
MOE = TransformerConfig(
    name="tiny-moe", seq_len=1024, embed_dim=2048, num_heads=16, depth=16,
    num_experts=8, moe_top_k=2,
)

B200 = make_system("B200", 8)
N_GPUS = 16
GLOBAL_BATCH = 64
SPACE = replace(
    DEFAULT_SEARCH_SPACE,
    microbatch_sizes=(1, 2),
    schedules=("1f1b", "gpipe", "interleaved"),
    virtual_stages=(1, 2),
    expert_parallel=(1, 2),
)


@pytest.fixture(autouse=True)
def _fresh_tables():
    """Start and leave every test with empty memos.

    A table built under a monkeypatched ``estimate_config_memory`` must not
    outlive the patch, and a later search of the same key must walk the
    enumeration again.
    """
    clear_caches()
    yield
    clear_caches()


def _with_hbm(system, capacity):
    """``system`` with another HBM capacity per GPU."""
    return replace(system, gpu=replace(system.gpu, hbm_capacity=capacity))


def _direct_walk(model, system, strategy, options, prune=True, memory=estimate_config_memory):
    """Pass 1 without the table: ``(survivors, counters)``."""
    survivors = []
    counts = dict(parallel_configs=0, infeasible_memory=0, infeasible_other=0, bounds_computed=0)
    for rank, config in enumerate(parallel_configs(model, N_GPUS, GLOBAL_BATCH, strategy, SPACE)):
        counts["parallel_configs"] += 1
        try:
            estimate = memory(model, config, global_batch_size=GLOBAL_BATCH, options=options)
        except ValueError:
            counts["infeasible_other"] += 1
            continue
        if not estimate.fits(system.gpu.hbm_capacity):
            counts["infeasible_memory"] += 1
            continue
        bound = 0.0
        if prune:
            bound = config_time_lower_bound(
                model, system, config, global_batch_size=GLOBAL_BATCH, options=options
            )
            counts["bounds_computed"] += 1
        survivors.append((bound, rank, config))
    return survivors, SearchStatistics(**counts)


def _via_table(model, system, strategy, options, prune=True):
    survivors, stats = search._feasible_survivors(
        model, system, N_GPUS, GLOBAL_BATCH, strategy, SPACE, options, prune
    )
    return [(s.bound, s.rank, s.config) for s in survivors], stats


def _footprints(model, strategy, options):
    return sorted(
        estimate_config_memory(model, c, global_batch_size=GLOBAL_BATCH, options=options).total_bytes
        for c in parallel_configs(model, N_GPUS, GLOBAL_BATCH, strategy, SPACE)
    )


SCENARIOS = [
    pytest.param(model, strategy, id=f"{model.name}-{strategy}")
    for model in (DENSE, GQA, MOE)
    for strategy in ("tp1d", "tp2d", "summa")
    if not (model.num_experts > 1 and strategy == "summa")
]

OPTIONS = [
    pytest.param(replace(DEFAULT_OPTIONS, zero_stage=stage), id=f"zero{stage}")
    for stage in (0, 1, 2, 3)
] + [pytest.param(replace(DEFAULT_OPTIONS, activation_checkpointing=True), id="checkpointing")]


@pytest.mark.parametrize("options", OPTIONS)
@pytest.mark.parametrize("model,strategy", SCENARIOS)
def test_survivors_and_counters_equal_the_direct_walk(model, strategy, options):
    footprints = _footprints(model, strategy, options)
    # Half the parallelizations fit, so both filter outcomes are exercised.
    system = _with_hbm(B200, footprints[len(footprints) // 2])
    for prune in (True, False):
        got = _via_table(model, system, strategy, options, prune)
        want = _direct_walk(model, system, strategy, options, prune)
        assert got == want
        assert got[1].infeasible_memory > 0 and got[0]


def test_two_systems_share_one_build(monkeypatch):
    walks = []
    original = search.parallel_configs

    def counting(*args, **kwargs):
        walks.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "parallel_configs", counting)
    footprints = _footprints(DENSE, "tp2d", DEFAULT_OPTIONS)
    small = _with_hbm(B200, footprints[len(footprints) // 3])
    for system in (B200, small):
        got = _via_table(DENSE, system, "tp2d", DEFAULT_OPTIONS)
        assert got == _direct_walk(DENSE, system, "tp2d", DEFAULT_OPTIONS)
    assert len(walks) == 1
    assert len(_via_table(DENSE, small, "tp2d", DEFAULT_OPTIONS)[0]) < len(
        _via_table(DENSE, B200, "tp2d", DEFAULT_OPTIONS)[0]
    )


def test_structural_errors_are_counted_not_built(monkeypatch):
    """A footprint that raised is NaN in the table: never a survivor."""

    def memory(model, config, **kwargs):
        if config.pipeline_parallel == 2:
            raise ValueError("structurally invalid")
        return estimate_config_memory(model, config, **kwargs)

    monkeypatch.setattr(search, "estimate_config_memory", memory)
    got = _via_table(GQA, B200, "tp1d", DEFAULT_OPTIONS)
    assert got == _direct_walk(GQA, B200, "tp1d", DEFAULT_OPTIONS, memory=memory)
    assert got[1].infeasible_other > 0
    table = search._pass1_table(GQA, N_GPUS, GLOBAL_BATCH, "tp1d", SPACE, DEFAULT_OPTIONS)
    assert table.columns.dtype == np.int32 and table.footprint.dtype == np.float64
    assert not table.columns.flags.writeable and not table.footprint.flags.writeable
    assert np.isnan(table.footprint).sum() == got[1].infeasible_other


def test_checkpointing_fallback_reads_its_own_table():
    """Nothing fits without checkpointing, so the search re-runs pass 1
    with checkpointed options; its counters are that table's."""
    checkpointed = replace(DEFAULT_OPTIONS, activation_checkpointing=True)
    plain_min = _footprints(DENSE, "tp1d", DEFAULT_OPTIONS)[0]
    ckpt = _footprints(DENSE, "tp1d", checkpointed)
    assert ckpt[0] < plain_min
    system = _with_hbm(B200, (ckpt[0] + plain_min) / 2)
    result = find_optimal_config(
        DENSE, system, N_GPUS, GLOBAL_BATCH, strategy="tp1d", space=SPACE, eval_mode="batch"
    )
    assert result.found and result.best.memory.fits(system.gpu.hbm_capacity)
    _, want = _direct_walk(DENSE, system, "tp1d", checkpointed)
    for name in ("parallel_configs", "infeasible_memory", "infeasible_other", "bounds_computed"):
        assert getattr(result.statistics, name) == getattr(want, name)
    assert search._pass1_table.cache_info().currsize == 2


def test_default_zero_stage_reads_the_default_table():
    """``zero_stage=1`` spells the default options, so a search with it
    builds no table of its own."""
    default = find_optimal_config(
        DENSE, B200, N_GPUS, GLOBAL_BATCH, strategy="all", space=SPACE, eval_mode="batch"
    )
    misses = search._pass1_table.cache_info().misses
    stage1 = find_optimal_config(
        DENSE, B200, N_GPUS, GLOBAL_BATCH, strategy="all", space=SPACE, eval_mode="batch",
        options=ModelingOptions(zero_stage=1),
    )
    assert search._pass1_table.cache_info().misses == misses
    assert stage1.best == default.best


def test_clear_caches_empties_the_bounded_table():
    tiny = TransformerConfig(name="tiny", seq_len=8, embed_dim=8, num_heads=1, depth=1)
    for batch in range(1, search.PASS1_TABLE_CACHE_SIZE + 11):
        search._pass1_table(tiny, 1, batch, "tp1d", DEFAULT_SEARCH_SPACE, DEFAULT_OPTIONS)
    info = cache_stats()["pass1_table"]
    assert info["maxsize"] == search.PASS1_TABLE_CACHE_SIZE
    assert info["currsize"] == search.PASS1_TABLE_CACHE_SIZE
    clear_caches()
    assert cache_stats()["pass1_table"]["currsize"] == 0
