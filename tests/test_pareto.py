"""Multi-objective Pareto search: registry, invariants, determinism.

The tier-1 contract pinned here: :func:`find_pareto_configs` returns
*exactly* the non-dominated subset of the full enumeration — the same set
an exhaustive evaluate-everything-then-filter pass produces — for dense
and MoE models, in scalar and batch eval modes, with branch-and-bound
pruning on or off.  The scalar objective case degenerates bit-identically
to :func:`find_optimal_config`.
"""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config_space import (
    DEFAULT_SEARCH_SPACE,
    gpu_assignments,
    parallel_configs,
)
from repro.core.execution import DEFAULT_OPTIONS, config_time_lower_bound, evaluate_config
from repro.core.model import get_model
from repro.core.objectives import (
    DEFAULT_PARETO_OBJECTIVES,
    Objective,
    ObjectiveContext,
    get_objective,
    register_objective,
    registered_objectives,
    resolve_objectives,
)
from enumeration_rows import priced_chunk
from repro.core.search import (
    ParetoResult,
    Survivor,
    _FrontierArchive,
    find_optimal_config,
    find_pareto_configs,
)
from repro.core.system import make_system
from repro.core.workloads import MOE_MIXTRAL
from repro.runtime import SearchCache, SearchTask, solve_search_task
from repro.utils.serialization import dataclass_from_jsonable, to_jsonable

TINY_DENSE = replace(get_model("gpt3-175b"), name="tiny-dense", depth=8)
TINY_MOE = replace(MOE_MIXTRAL, name="tiny-moe", depth=8)
N_GPUS = 16
GLOBAL_BATCH = 64


@pytest.fixture(scope="module")
def b200():
    return make_system("B200", 8)


def _strictly_dominates(a, b):
    """True when canonical vector ``a`` strictly dominates ``b``.

    ``a`` dominates ``b`` when it is no worse in every component and
    strictly better in at least one; equal vectors never dominate each
    other (both stay on the frontier).
    """
    better = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            better = True
    return better


def _canonical(point, names):
    """A frontier point's metric vector back in canonical (minimised) space."""
    return tuple(get_objective(n).sign * point.metrics[n] for n in names)


def exhaustive_frontier(model, system, names, *, strategy="tp1d"):
    """Reference implementation: evaluate everything, filter dominated."""
    objs = resolve_objectives(names)
    ctx = ObjectiveContext(
        model=model, system=system, n_gpus=N_GPUS,
        global_batch_size=GLOBAL_BATCH, options=DEFAULT_OPTIONS,
    )
    candidates = []
    for config in parallel_configs(model, N_GPUS, GLOBAL_BATCH, strategy):
        try:
            coeffs = [obj.coefficients(config, ctx) for obj in objs]
        except ValueError:
            continue
        for assignment in gpu_assignments(config, system.nvs_domain_size):
            estimate = evaluate_config(
                model, system, config, assignment,
                global_batch_size=GLOBAL_BATCH,
            )
            if not estimate.feasible:
                continue
            vector = tuple(
                off + slope * estimate.total_time for off, slope in coeffs
            )
            candidates.append((vector, config, assignment))
    return [
        c for c in candidates
        if not any(_strictly_dominates(o[0], c[0]) for o in candidates)
    ]


class TestObjectiveRegistry:
    def test_defaults_are_registered(self):
        names = registered_objectives()
        assert set(DEFAULT_PARETO_OBJECTIVES) <= set(names)
        assert list(names) == sorted(names)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="registered:"):
            get_objective("no-such-metric")

    def test_resolve_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError, match="at least one"):
            resolve_objectives(())
        with pytest.raises(ValueError, match="duplicate"):
            resolve_objectives(("time", "cost", "time"))

    def test_register_requires_a_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_objective(Objective())

    def test_raw_undoes_the_canonical_sign(self):
        headroom = get_objective("hbm_headroom")
        assert headroom.sign == -1.0
        assert headroom.raw(-12.5) == 12.5
        assert get_objective("time").raw(3.0) == 3.0

    def test_units_and_descriptions_exist(self):
        for objective in registered_objectives().values():
            assert objective.unit
            assert objective.description


class TestObjectiveBounds:
    """Every objective's lower bound is admissible over all assignments."""

    def test_bounds_never_exceed_evaluated_values(self, b200):
        objs = resolve_objectives(DEFAULT_PARETO_OBJECTIVES)
        ctx = ObjectiveContext(
            model=TINY_DENSE, system=b200, n_gpus=N_GPUS,
            global_batch_size=GLOBAL_BATCH, options=DEFAULT_OPTIONS,
        )
        checked = 0
        for config in parallel_configs(TINY_DENSE, N_GPUS, GLOBAL_BATCH, "tp1d"):
            try:
                time_bound = config_time_lower_bound(
                    TINY_DENSE, b200, config,
                    global_batch_size=GLOBAL_BATCH, options=DEFAULT_OPTIONS,
                )
            except ValueError:
                continue
            for assignment in gpu_assignments(config, b200.nvs_domain_size):
                estimate = evaluate_config(
                    TINY_DENSE, b200, config, assignment,
                    global_batch_size=GLOBAL_BATCH,
                )
                if not estimate.feasible:
                    continue
                assert time_bound <= estimate.total_time + 1e-12
                for obj in objs:
                    offset, slope = obj.coefficients(config, ctx)
                    assert slope >= 0.0
                    bound = obj.lower_bound(config, ctx, time_bound)
                    actual = offset + slope * estimate.total_time
                    assert bound <= actual + 1e-9
                checked += 1
        assert checked > 0

    def test_cost_and_energy_are_positive(self, b200):
        ctx = ObjectiveContext(
            model=TINY_DENSE, system=b200, n_gpus=N_GPUS,
            global_batch_size=GLOBAL_BATCH, options=DEFAULT_OPTIONS,
        )
        config = next(iter(parallel_configs(TINY_DENSE, N_GPUS, GLOBAL_BATCH, "tp1d")))
        cost_off, cost_slope = get_objective("cost").coefficients(config, ctx)
        assert cost_off == 0.0 and cost_slope > 0.0
        energy_off, energy_slope = get_objective("energy").coefficients(config, ctx)
        assert energy_off > 0.0 and energy_slope == 0.0


class TestParetoMatchesExhaustive:
    """Tier-1 invariant: pruned search == exhaustive non-dominated filter."""

    @pytest.mark.parametrize("eval_mode", ["scalar", "batch"])
    @pytest.mark.parametrize(
        "model", [TINY_DENSE, TINY_MOE], ids=["dense", "moe"]
    )
    def test_frontier_equals_exhaustive_filter(self, b200, model, eval_mode):
        names = DEFAULT_PARETO_OBJECTIVES
        result = find_pareto_configs(
            model, b200, n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            objectives=names, strategy="tp1d", eval_mode=eval_mode,
        )
        assert result.found
        reference = exhaustive_frontier(model, b200, names)
        got = {
            (p.estimate.config.as_tuple(), p.estimate.assignment.as_tuple())
            for p in result.points
        }
        want = {(c.as_tuple(), a.as_tuple()) for _, c, a in reference}
        assert got == want
        # The canonical vectors match bit-for-bit, not just approximately.
        got_vectors = sorted(_canonical(p, names) for p in result.points)
        want_vectors = sorted(v for v, _, _ in reference)
        assert got_vectors == want_vectors

    def test_pruning_does_not_change_the_frontier(self, b200):
        kwargs = dict(
            n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            objectives=DEFAULT_PARETO_OBJECTIVES, strategy="tp1d",
        )
        pruned = find_pareto_configs(TINY_DENSE, b200, **kwargs)
        unpruned = find_pareto_configs(
            TINY_DENSE, b200,
            space=replace(DEFAULT_SEARCH_SPACE, prune_with_lower_bound=False),
            **kwargs,
        )
        assert [p.estimate.config for p in pruned.points] == [
            p.estimate.config for p in unpruned.points
        ]
        assert [p.metrics for p in pruned.points] == [
            p.metrics for p in unpruned.points
        ]
        assert unpruned.statistics.pruned_configs == 0


class TestFrontierArchive:
    """The archive's frontier does not depend on how candidates are chunked."""

    @pytest.mark.parametrize("seed", range(20))
    def test_any_chunking_gives_the_brute_force_frontier(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 4)
        rows = []
        # Small integer coefficients and scores: many exact ties.
        for rank in range(rng.randint(1, 40)):
            coeffs = tuple(
                (float(rng.randint(0, 3)), float(rng.randint(0, 2))) for _ in range(k)
            )
            survivor = Survivor((), (0, rank), None, coeffs)
            for assign_idx in range(rng.randint(1, 4)):
                rows.append((float(rng.randint(1, 4)), survivor, assign_idx))
        rng.shuffle(rows)
        archive = _FrontierArchive()
        start = 0
        while start < len(rows):
            size = rng.randint(1, 7)
            archive.offer(priced_chunk(rows[start : start + size], arrays=rng.random() < 0.5))
            start += size
        scored = [
            (
                tuple(off + slope * score for off, slope in survivor.coeffs),
                (survivor.rank, assign_idx),
            )
            for score, survivor, assign_idx in rows
        ]
        want = sorted(
            (vector, order)
            for vector, order in scored
            if not any(_strictly_dominates(other, vector) for other, _ in scored)
        )
        entries = archive.sorted_entries()
        got = [(vector, order) for vector, order, _ in entries]
        assert got == want
        assert all(type(c) is float for vector, _ in got for c in vector)
        assert all(type(i) is int for _, (_, i), _ in entries)
        # Each member's winner is the candidate its order names.
        assert [winner.assignment for _, _, winner in entries] == [order for _, order in want]


def test_importing_search_and_the_api_leaves_numpy_unloaded():
    """The archive imports NumPy when a Pareto search runs, not at import
    time: NumPy is a large share of CLI and server start-up."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, repro.core.search, repro.serve_api.app; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.strip() == "False", proc.stderr


class TestScalarBatchIdentity:
    def test_frontiers_are_bit_identical(self, b200):
        kwargs = dict(
            n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            objectives=DEFAULT_PARETO_OBJECTIVES, strategy="tp1d",
        )
        scalar = find_pareto_configs(TINY_DENSE, b200, eval_mode="scalar", **kwargs)
        batch = find_pareto_configs(TINY_DENSE, b200, eval_mode="batch", **kwargs)
        assert len(scalar.points) == len(batch.points)
        for s, b in zip(scalar.points, batch.points):
            assert s.estimate.config == b.estimate.config
            assert s.estimate.assignment == b.estimate.assignment
            assert s.metrics == b.metrics  # exact float equality
            assert s.estimate.total_time == b.estimate.total_time


class TestDegenerateScalarObjective:
    def test_time_only_matches_find_optimal_config(self, b200):
        classic = find_optimal_config(
            TINY_DENSE, b200, n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            strategy="tp1d",
        )
        pareto = find_pareto_configs(
            TINY_DENSE, b200, n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            objectives=("time",), strategy="tp1d",
        )
        assert pareto.found
        assert pareto.best_time == classic.best_time  # bit-identical
        assert pareto.best.config == classic.best.config
        # A single-objective frontier is exactly the set of minimum-time
        # candidates (ties all kept).
        assert all(
            p.metrics["time"] == classic.best_time for p in pareto.points
        )

    def test_pareto_task_gets_no_cached_warm_hints(self, b200):
        """A cached scalar winner of the same structure seeds scalar tasks
        only: a seed time cannot open a frontier threshold."""
        scalar = SearchTask(
            TINY_DENSE, b200, n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            strategy="tp1d",
        )
        cache = SearchCache()
        cache.put(scalar, solve_search_task(scalar))
        pareto = replace(scalar, n_gpus=2 * N_GPUS, objectives=DEFAULT_PARETO_OBJECTIVES)
        assert cache.warm_hints(replace(pareto, objectives=())) != ()
        assert cache.warm_hints(pareto) == ()


class TestParetoResultShape:
    def test_summary_and_serialization_round_trip(self, b200):
        result = find_pareto_configs(
            TINY_DENSE, b200, n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            objectives=("time", "cost"), strategy="tp1d",
        )
        summary = result.summary()
        assert summary["found"] is True
        assert summary["frontier_size"] == len(result.points)
        assert summary["objectives"] == ["time", "cost"]
        restored = dataclass_from_jsonable(ParetoResult, to_jsonable(result))
        assert restored == result
        assert restored.best_time == result.best_time

    def test_empty_result_reports_not_found(self):
        """A single A100 cannot hold the 175B-layer stack: empty frontier."""
        a100 = make_system("A100", 4)
        result = find_pareto_configs(
            get_model("gpt3-1t"), a100, n_gpus=4, global_batch_size=GLOBAL_BATCH,
            objectives=("time",), strategy="tp1d",
        )
        assert not result.found
        assert result.best is None
        assert result.best_time == float("inf")
        assert result.summary()["frontier_size"] == 0

    def test_deterministic_point_order(self, b200):
        names = DEFAULT_PARETO_OBJECTIVES
        result = find_pareto_configs(
            TINY_DENSE, b200, n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
            objectives=names, strategy="tp1d",
        )
        vectors = [_canonical(p, names) for p in result.points]
        assert vectors == sorted(vectors)

    def test_batch_mode_requires_analytic_backend(self, b200):
        with pytest.raises(ValueError, match="batch"):
            find_pareto_configs(
                TINY_DENSE, b200, n_gpus=N_GPUS, global_batch_size=GLOBAL_BATCH,
                objectives=("time",), eval_mode="batch", backend="simulate",
            )
