"""Command-line interface: ``repro-perf``.

Sub-commands map onto the paper's experiments:

* ``repro-perf search`` — optimal-configuration search at one scale;
* ``repro-perf pareto`` — multi-objective search: the Pareto frontier of
  the same space under iteration time, HBM headroom, $-cost and energy
  (:mod:`repro.core.objectives`);
* ``repro-perf serve`` — inference-serving search: prefill/decode latency
  (TTFT/TPOT), paged KV-cache capacity and continuous-batching throughput
  over the same EP/TP/PP/DP space (:mod:`repro.core.inference`);
* ``repro-perf scaling`` — strong-scaling sweep (Fig. 4 / A3);
* ``repro-perf systems`` — GPU-generation x NVS-domain grid in training days
  (Fig. 5);
* ``repro-perf speedup`` — 2D TP speedups over 1D TP (Fig. A4);
* ``repro-perf validate`` — comparison with the paper's Megatron-LM
  validation numbers (§IV);
* ``repro-perf collectives`` — analytic vs simulated collective times
  (Fig. A1);
* ``repro-perf workloads`` — list the registered workload scenarios;
* ``repro-perf schedules`` — list the registered pipeline schedules;
* ``repro-perf api`` — long-running planning service: the same searches as
  a JSON API over a persistent process with a warm shared cache, in-flight
  request dedup and streaming progress (:mod:`repro.serve_api`).

Every command that takes a model accepts ``--workload`` (preferred; resolves
through the pluggable registry in :mod:`repro.core.workloads`, including MoE
and GQA scenarios) as well as the legacy ``--model`` alias, plus the
scenario knobs ``--zero-stage 0..3`` (ZeRO sharding),
``--expert-parallel auto|N`` (MoE expert-parallel degree searched or fixed)
and ``--schedule 1f1b|gpipe|interleaved`` / ``--virtual-stages N`` (the
pipeline schedule, resolved through :mod:`repro.core.schedules`).  ``search``
additionally offers ``--explain-plan`` to print the winning candidate's
phase-level cost plan.

Each command prints a plain-text table and can additionally archive the raw
series as JSON via ``--json PATH``.

The sweep commands (``scaling``, ``systems``, ``speedup``) additionally
accept ``--jobs N`` to fan the independent searches across N worker
processes (results are identical to serial execution) and ``--cache PATH``
to persist solved points in a content-addressed JSON cache that later
sweeps — including different commands over overlapping grids — reuse.
Every sweep point is searched cold, exactly as ``search`` would search it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.analysis.differential import (
    build_default_grid,
    format_failure_diff,
    run_differential_grid,
)
from repro.analysis.reporting import (
    render_differential,
    render_plan_phases,
    render_scaling_sweep,
    render_serving_report,
    render_speedups,
    render_system_grid,
    render_validation,
)
from repro.analysis.speedups import speedup_sweep
from repro.analysis.sweeps import scaling_sweep, system_grid_sweep
from repro.analysis.validation import run_validation
from repro.core.backends import DEFAULT_BACKEND as DEFAULT_EVAL_BACKEND
from repro.core.backends import available_backends
from repro.core.collectives import SUPPORTED_COLLECTIVES
from repro.core.config_space import DEFAULT_SEARCH_SPACE, SearchSpace
from repro.core.execution import ModelingOptions
from repro.core.inference import (
    SERVING_OBJECTIVES,
    ServingSpec,
    find_serving_config,
)
from repro.core.objectives import DEFAULT_PARETO_OBJECTIVES, registered_objectives
from repro.core.parallelism.data_parallel import ZERO_STAGES
from repro.core.schedules import (
    DEFAULT_SCHEDULE,
    available_schedules,
    get_schedule,
)
from repro.core.system import PERLMUTTER_NVLINK_GPUS, make_perlmutter, make_system
from repro.core.workloads import available_workloads, get_workload, scenario_space
from repro.runtime import SearchCache, SearchTask, solve_search_task
from repro.simulate.cluster import ClusterTopology
from repro.simulate.ring import sweep_volumes
from repro.utils.serialization import dump_json
from repro.utils.tables import format_table


def _add_common_model_args(
    parser: argparse.ArgumentParser, *, single_system: bool = True
) -> None:
    """Flags shared by the training-search commands.

    ``--gpu``/``--nvs`` are added only with ``single_system``: the grid
    commands take ``--generations`` and ``--nvs-sizes`` instead.
    """
    parser.add_argument(
        "--workload",
        default=None,
        help="workload scenario from the registry (see `repro-perf workloads`); "
        "takes precedence over --model",
    )
    parser.add_argument("--model", default="gpt3-1t", help="model preset name (legacy alias)")
    if single_system:
        parser.add_argument("--gpu", default="B200", help="GPU generation (A100/H200/B200)")
        parser.add_argument("--nvs", type=_parse_nvs, default=8, help="NVSwitch domain size")
    parser.add_argument("--global-batch", type=int, default=4096, help="global batch size")
    parser.add_argument(
        "--strategy", default="tp1d", help="tp1d, tp2d, summa or 'all'"
    )
    parser.add_argument(
        "--zero-stage",
        type=int,
        choices=ZERO_STAGES,
        default=1,
        help="ZeRO sharding stage (default: the paper's distributed optimizer, stage 1)",
    )
    parser.add_argument(
        "--expert-parallel",
        type=_parse_expert_parallel,
        default="auto",
        help="MoE expert-parallel degree: 'auto' searches every admissible "
        "degree, an integer fixes it (ignored for dense workloads)",
    )
    parser.add_argument(
        "--schedule",
        default=None,
        help="pipeline schedule (see `repro-perf schedules`); default: the "
        "workload's preset, usually 1f1b",
    )
    parser.add_argument(
        "--virtual-stages",
        type=int,
        default=None,
        help="virtual-stage degree for interleaving schedules (requires a "
        "schedule that supports it, e.g. --schedule interleaved)",
    )
    parser.add_argument(
        "--backend",
        default=DEFAULT_EVAL_BACKEND,
        choices=available_backends(),
        help="evaluation backend: 'analytic' (paper's closed forms, default) "
        "or 'sim' (message-level ring/schedule replay oracle)",
    )
    parser.add_argument("--json", default=None, help="optional path to dump raw results as JSON")


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (1 = serial; results are identical)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="search-cache journal path (JSON lines); solved points are reused "
        "across runs",
    )


def _gpu_count(text: str, where: str) -> int:
    """One GPU count, an integer >= 1; ``where`` names the list it came from."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid GPU count {text!r}{where}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"GPU counts must be >= 1, got {value}{where}")
    return value


def _parse_gpu_count(text: str) -> int:
    """Parse one ``--gpus`` count; a bad count is a usage error (exit 2)."""
    return _gpu_count(text, "")


def _parse_gpu_list(text: str) -> List[int]:
    """Parse a comma/whitespace-separated GPU-count list.

    Empty entries are skipped, duplicates are removed (first occurrence
    wins, preserving order) and malformed or non-positive tokens raise an
    ``argparse``-friendly error instead of a raw traceback.
    """
    gpus: List[int] = []
    seen = set()
    for tok in text.replace(",", " ").split():
        value = _gpu_count(tok, f" in --gpus list {text!r}")
        if value not in seen:
            seen.add(value)
            gpus.append(value)
    if not gpus:
        raise argparse.ArgumentTypeError(f"--gpus list {text!r} contains no GPU counts")
    return gpus


def _nvs_size(text: str, where: str) -> int:
    """One NVSwitch domain size, an integer >= 1; ``where`` names the flag."""
    try:
        size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid NVSwitch domain size {text!r} {where}") from None
    if size < 1:
        raise argparse.ArgumentTypeError(f"NVSwitch domain sizes must be >= 1, got {size} {where}")
    return size


def _parse_nvs(text: str) -> int:
    """Parse ``--nvs``; a bad size is a usage error (exit 2), not a traceback."""
    return _nvs_size(text, "for --nvs")


def _parse_nvs_sizes(text: str) -> List[int]:
    """Parse the comma-separated ``--nvs-sizes`` list the same way."""
    return [_nvs_size(tok, f"in --nvs-sizes list {text!r}") for tok in text.split(",")]


def _parse_expert_parallel(text: str) -> Optional[int]:
    """Parse ``--expert-parallel``: ``None`` for 'auto', a degree otherwise.

    Used as the argparse ``type=`` converter so malformed values produce a
    usage error (exit code 2), never a traceback.
    """
    raw = text.strip().lower()
    if raw in ("auto", ""):
        return None
    try:
        degree = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or an integer, got {text!r}"
        ) from None
    if degree < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {degree}")
    return degree


def _parse_objectives(text: str) -> List[str]:
    """Parse a comma/whitespace-separated ``--objectives`` list.

    Membership in the registry is validated by the solver (so plugins
    registered at runtime keep working); this converter only rejects an
    empty list and duplicate names with a usage error.
    """
    names = [tok for tok in text.replace(",", " ").split() if tok]
    if not names:
        raise argparse.ArgumentTypeError(f"--objectives list {text!r} names no objectives")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"--objectives list {text!r} repeats a name")
    return names


def _resolve_model(args: argparse.Namespace):
    """Model of the requested workload (``--workload`` wins over ``--model``)."""
    return get_workload(args.workload or args.model).model


def _scenario_space(args: argparse.Namespace) -> SearchSpace:
    """Search space honouring ``--expert-parallel``, ``--schedule`` and
    ``--virtual-stages`` (unset flags fall back to the workload's presets,
    so the default space — and every reproduced figure — is unchanged).

    Thin front-end over :func:`repro.core.workloads.scenario_space` — the
    same resolver the JSON API's schema layer uses.  Its ``ValueError``s
    reach the command, which reports them as one error line (exit 2).
    """
    degree = _parse_expert_parallel(str(getattr(args, "expert_parallel", None) or "auto"))
    return scenario_space(
        getattr(args, "workload", None) or getattr(args, "model", "gpt3-1t"),
        schedule=getattr(args, "schedule", None),
        virtual_stages=getattr(args, "virtual_stages", None),
        expert_parallel=degree,
    )


def _scenario_options(args: argparse.Namespace) -> ModelingOptions:
    """Modeling options honouring ``--zero-stage``."""
    return ModelingOptions(zero_stage=args.zero_stage)


def _make_cache(args: argparse.Namespace) -> Optional[SearchCache]:
    return SearchCache(args.cache) if getattr(args, "cache", None) else None


def _dump_json_report(obj, path: str) -> bool:
    """Archive ``obj`` at ``--json PATH``; one-line error instead of a traceback.

    Missing parent directories are created; paths that cannot be written —
    a parent that is a regular file, a read-only directory, a full disk —
    print a ``repro-perf: error:`` line and return ``False`` so the command
    exits non-zero without burying the already-printed report.
    """
    try:
        dump_json(obj, path)
    except OSError as exc:
        print(f"repro-perf: error: cannot write --json {path!r}: {exc}", file=sys.stderr)
        return False
    return True


def _report_cache(cache: Optional[SearchCache]) -> None:
    if cache is not None:
        stats = cache.stats()
        print(
            f"search cache: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['entries']} entries stored",
            file=sys.stderr,
        )


def cmd_search(args: argparse.Namespace) -> int:
    """Optimal-configuration search at one GPU count (``repro-perf search``).

    Runs through :func:`repro.runtime.solve_search_task`, which prices the
    analytic backend with the vectorized batch pricer and ``--backend sim``
    per candidate.
    """
    model = _resolve_model(args)
    system = make_system(args.gpu, args.nvs)
    try:
        task = SearchTask(
            model=model,
            system=system,
            n_gpus=args.gpus,
            global_batch_size=args.global_batch,
            strategy=args.strategy,
            space=_scenario_space(args),
            options=_scenario_options(args),
            top_k=args.top_k,
            backend=args.backend,
        )
        result = solve_search_task(task)
    except ValueError as exc:
        print(f"repro-perf: error: {exc}", file=sys.stderr)
        return 2
    if not result.found:
        print(f"No feasible configuration for {model.name} on {system.name} with {args.gpus} GPUs")
        return 1
    best = result.best
    print(f"Best configuration for {model.name} on {system.name} with {args.gpus} GPUs:")
    if args.backend != DEFAULT_EVAL_BACKEND:
        print(f"  backend     : {args.backend}")
    print(f"  config      : {best.config.describe()}")
    print(f"  assignment  : nNVS(tp1,tp2,pp,dp) = {best.assignment.as_tuple()}")
    print(f"  iteration   : {best.total_time:.3f} s")
    print(f"  memory      : {best.memory_gb:.1f} GB")
    fractions = best.breakdown.fractions()
    print("  breakdown   : " + ", ".join(f"{k}={100 * v:.1f}%" for k, v in fractions.items()))
    print(
        f"  search      : {result.statistics.parallel_configs} parallelizations, "
        f"{result.statistics.candidates_evaluated} candidates evaluated, "
        f"{result.statistics.pruned_configs} pruned by bound"
    )
    if getattr(args, "explain_plan", False) and best.plan is not None:
        print(render_plan_phases(best.plan))
    if args.top_k > 1 and result.top_k:
        rows = [
            [
                est.config.describe(),
                str(est.assignment.as_tuple()),
                est.total_time,
                est.memory_gb,
            ]
            for est in result.top_k
        ]
        print(format_table(["config", "assignment", "time(s)", "mem(GB)"], rows))
    if args.json and not _dump_json_report(result.summary(), args.json):
        return 1
    return 0


def _metric_column(name: str) -> tuple:
    """Column header and value scaler for one objective's report column."""
    obj = registered_objectives().get(name)
    unit = obj.unit if obj is not None else ""
    if unit == "bytes":
        return f"{name}(GB)", 1.0 / 1e9
    return (f"{name}({unit})" if unit else name), 1.0


def cmd_pareto(args: argparse.Namespace) -> int:
    """Multi-objective configuration search (``repro-perf pareto``).

    Returns the Pareto frontier of the candidate space under the requested
    ``--objectives`` instead of the single fastest point — every
    configuration no other configuration beats on *all* objectives at once.
    """
    if args.list_objectives:
        rows = [
            [name, obj.unit or "-", "max" if obj.sign < 0 else "min", obj.description]
            for name, obj in registered_objectives().items()
        ]
        print(format_table(["objective", "unit", "direction", "description"], rows))
        return 0
    model = _resolve_model(args)
    system = make_system(args.gpu, args.nvs)
    try:
        task = SearchTask(
            model=model,
            system=system,
            n_gpus=args.gpus,
            global_batch_size=args.global_batch,
            strategy=args.strategy,
            space=_scenario_space(args),
            options=_scenario_options(args),
            backend=args.backend,
            objectives=tuple(args.objectives),
        )
        result = solve_search_task(task)
    except ValueError as exc:
        print(f"repro-perf: error: {exc}", file=sys.stderr)
        return 2
    if not result.found:
        print(f"No feasible configuration for {model.name} on {system.name} with {args.gpus} GPUs")
        return 1
    print(
        f"Pareto frontier for {model.name} on {system.name} with {args.gpus} GPUs "
        f"({', '.join(result.objectives)}): {len(result.points)} configuration(s)"
    )
    columns = [_metric_column(name) for name in result.objectives]
    rows = [
        [p.estimate.config.describe(), str(p.estimate.assignment.as_tuple())]
        + [p.metrics[name] * scale for name, (_, scale) in zip(result.objectives, columns)]
        for p in result.points
    ]
    print(format_table(["config", "assignment"] + [header for header, _ in columns], rows))
    print(
        f"  search      : {result.statistics.parallel_configs} parallelizations, "
        f"{result.statistics.candidates_evaluated} candidates evaluated, "
        f"{result.statistics.pruned_configs} pruned by dominance bound"
    )
    if args.json:
        report = {
            "summary": result.summary(),
            "frontier": [
                {
                    "config": p.estimate.config.describe(),
                    "assignment": p.estimate.assignment.as_tuple(),
                    "metrics": p.metrics,
                }
                for p in result.points
            ],
        }
        if not _dump_json_report(report, args.json):
            return 1
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    """Strong-scaling sweep, Fig. 4 / A3 (``repro-perf scaling``)."""
    model = _resolve_model(args)
    system = make_system(args.gpu, args.nvs)
    cache = _make_cache(args)
    try:
        sweep = scaling_sweep(
            model,
            system,
            strategy=args.strategy,
            n_gpus_list=args.gpus,
            global_batch_size=args.global_batch,
            space=_scenario_space(args),
            options=_scenario_options(args),
            backend=args.backend,
            jobs=args.jobs,
            cache=cache,
        )
    except ValueError as exc:
        print(f"repro-perf: error: {exc}", file=sys.stderr)
        return 2
    _report_cache(cache)
    print(render_scaling_sweep(sweep))
    if args.json and not _dump_json_report([p.result.summary() for p in sweep.points], args.json):
        return 1
    return 0


def cmd_systems(args: argparse.Namespace) -> int:
    """Training days across the system grid, Fig. 5 (``repro-perf systems``)."""
    model = _resolve_model(args)
    cache = _make_cache(args)
    try:
        series = system_grid_sweep(
            model,
            strategy=args.strategy,
            gpu_generations=args.generations.split(","),
            nvs_domain_sizes=args.nvs_sizes,
            n_gpus_list=args.gpus,
            global_batch_size=args.global_batch,
            space=_scenario_space(args),
            options=_scenario_options(args),
            backend=args.backend,
            jobs=args.jobs,
            cache=cache,
        )
    except ValueError as exc:
        print(f"repro-perf: error: {exc}", file=sys.stderr)
        return 2
    _report_cache(cache)
    print(render_system_grid(series, model.name))
    if args.json and not _dump_json_report(series, args.json):
        return 1
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    """2D TP speedups over 1D TP, Fig. A4 (``repro-perf speedup``)."""
    model = _resolve_model(args)
    cache = _make_cache(args)
    try:
        points = speedup_sweep(
            model,
            variant_strategy=args.variant,
            baseline_strategy=args.strategy,
            gpu_generations=args.generations.split(","),
            nvs_domain_sizes=args.nvs_sizes,
            n_gpus_list=args.gpus,
            global_batch_size=args.global_batch,
            space=_scenario_space(args),
            options=_scenario_options(args),
            backend=args.backend,
            jobs=args.jobs,
            cache=cache,
        )
    except ValueError as exc:
        print(f"repro-perf: error: {exc}", file=sys.stderr)
        return 2
    _report_cache(cache)
    print(render_speedups(points))
    if args.json and not _dump_json_report(points, args.json):
        return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Model validation (``repro-perf validate``).

    Two modes, selected by ``--backend``:

    * ``--backend analytic`` (default) — compare against the paper's
      Megatron-LM validation numbers (§IV), exactly as before;
    * ``--backend sim`` — differential validation: sweep the dense/MoE/GQA
      x schedule x TP-strategy grid, evaluate every candidate under both
      backends, and report the per-term analytic-vs-simulated deltas.
      Exits non-zero (with a per-term diff for each failure) when any term
      falls outside its documented tolerance band.
    """
    if args.backend != "sim":
        # The grid knobs only parameterize the differential mode; silently
        # dropping them would let `validate --workload moe-1t` (without
        # `--backend sim`) masquerade as a passed differential run.
        for flag, value in (("--workload", args.workload), ("--gpu", args.gpu), ("--nvs", args.nvs)):
            if value is not None:
                print(
                    f"repro-perf: error: {flag} only applies to the differential "
                    f"grid; add --backend sim",
                    file=sys.stderr,
                )
                return 2
        comparisons = run_validation(jobs=args.jobs)
        print(render_validation(comparisons))
        if args.json and not _dump_json_report(comparisons, args.json):
            return 1
        return 0

    workloads = [args.workload] if args.workload else None
    cases = build_default_grid(workloads)
    if not cases:
        print(f"repro-perf: error: no differential cases for workload {args.workload!r}")
        return 2
    system = make_system(args.gpu or "B200", args.nvs or 8)
    results = run_differential_grid(cases, system, jobs=args.jobs)
    print(render_differential(results, system.name))
    if args.json:
        series = [
            {
                "case": r.case.name,
                "config": r.case.config.describe(),
                "ok": r.ok,
                "max_rel_error": r.max_rel_error,
                "terms": {
                    d.term: {"analytic": d.analytic, "simulated": d.simulated}
                    for d in r.deltas
                },
            }
            for r in results
        ]
        if not _dump_json_report(series, args.json):
            return 1
    failures = [r for r in results if not r.ok]
    for failure in failures:
        print(format_failure_diff(failure), file=sys.stderr)
    return 1 if failures else 0


def _resolve_serving_spec(args: argparse.Namespace) -> ServingSpec:
    """Serving spec of the workload preset with CLI overrides applied.

    Starts from the workload's ``serving`` preset (or library defaults for
    training-only workloads) and replaces exactly the fields the user set,
    so ``--arrival-rate`` alone keeps the preset's prompt/output mix.  An
    out-of-range value raises :class:`ServingSpec`'s ``ValueError``, which
    ``serve`` reports as one error line (exit 2).
    """
    spec = get_workload(args.workload or args.model).serving or ServingSpec()
    overrides = {}
    for flag, field in (
        ("arrival_rate", "arrival_rate"),
        ("prompt_tokens", "prompt_tokens"),
        ("output_tokens", "output_tokens"),
        ("kv_block", "kv_block_tokens"),
        ("max_batch", "max_batch_per_replica"),
        ("target_ttft", "target_ttft"),
        ("target_tpot", "target_tpot"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return replace(spec, **overrides) if overrides else spec


def cmd_serve(args: argparse.Namespace) -> int:
    """Serving-configuration search (``repro-perf serve``).

    Prices prefill (TTFT), continuous-batching decode (TPOT, tokens/s/GPU)
    and the paged KV cache for every EP/TP/PP/DP split of the GPU budget,
    and reports the best configuration under ``--objective``.
    """
    model = _resolve_model(args)
    system = make_system(args.gpu, args.nvs)
    try:
        serving = _resolve_serving_spec(args)
        result = find_serving_config(
            model,
            system,
            n_gpus=args.gpus,
            serving=serving,
            objective=args.objective,
            top_k=args.top_k,
            backend=args.backend,
        )
    except ValueError as exc:
        print(f"repro-perf: error: {exc}", file=sys.stderr)
        return 2
    print(render_serving_report(result))
    if result.found and getattr(args, "explain_plan", False) and result.best.plan is not None:
        print(render_plan_phases(result.best.plan))
    if args.json and not _dump_json_report(result.summary(), args.json):
        return 1
    return 0 if result.found else 1


def cmd_collectives(args: argparse.Namespace) -> int:
    """Analytic vs simulated collective times, Fig. A1 (``repro-perf collectives``)."""
    system = make_perlmutter(args.nvlink)
    volumes = [2.0**exp * 1e6 for exp in range(0, 14)]
    try:
        topology = ClusterTopology.from_system(system, args.gpus)
        results = sweep_volumes(
            args.collective,
            volumes,
            topology,
            system.network,
            group_size=args.gpus,
            gpus_per_nvs_domain=args.nvlink,
        )
    except ValueError as exc:
        print(f"repro-perf: error: {exc}", file=sys.stderr)
        return 2
    rows = [
        [r.volume_bytes / 1e9, r.simulated_time, r.analytic_time, 100 * r.relative_error]
        for r in results
    ]
    print(
        f"{args.collective} on {args.gpus} GPUs ({args.nvlink} GPUs/node fast domain)\n"
        + format_table(["volume(GB)", "simulated(s)", "analytic(s)", "error(%)"], rows)
    )
    if args.json and not _dump_json_report(results, args.json):
        return 1
    return 0


def cmd_schedules(args: argparse.Namespace) -> int:
    """List the registered pipeline schedules (``repro-perf schedules``)."""
    rows = []
    summaries = []
    for name in available_schedules():
        schedule = get_schedule(name)
        summaries.append(schedule.summary())
        rows.append(
            [
                name + (" (default)" if name == DEFAULT_SCHEDULE else ""),
                "yes" if schedule.supports_virtual_stages else "no",
                schedule.description,
            ]
        )
    print(format_table(["schedule", "virtual stages", "description"], rows))
    if args.json and not _dump_json_report(summaries, args.json):
        return 1
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    """List the registered workload scenarios (``repro-perf workloads``)."""
    rows = []
    specs = []
    for name in available_workloads():
        spec = get_workload(name)
        if spec.name.lower() != name:
            continue  # alias rows (e.g. vit-long) would duplicate the listing
        specs.append(spec)
        model = spec.model
        rows.append(
            [
                name,
                model.total_params / 1e9,
                model.active_params / 1e9,
                f"{model.num_experts}x" + (f"top{model.moe_top_k}" if model.is_moe else "dense"),
                f"{model.kv_heads}/{model.num_heads}",
                spec.description,
            ]
        )
    print(
        format_table(
            ["workload", "params(B)", "active(B)", "experts", "kv/q heads", "description"],
            rows,
        )
    )
    if args.json and not _dump_json_report([spec.summary() for spec in specs], args.json):
        return 1
    return 0


def cmd_api(args: argparse.Namespace) -> int:
    """Long-running planning service (``repro-perf api``).

    Boots the stdlib JSON API of :mod:`repro.serve_api` and blocks until
    interrupted.  One process-wide ``SearchCache`` stays hot in memory
    across requests (persisted to ``--cache`` when given), identical
    in-flight searches are deduplicated, and ``--jobs`` sizes the shared
    worker pool sweeps fan out over.  See ``docs/service.md`` for the
    endpoint and schema reference.
    """
    # Local import: the one-shot commands must not pay for (or depend on)
    # the service layer.
    from repro.serve_api import ApiError, PlannerApp, create_server

    app = PlannerApp(cache_path=args.cache, jobs=args.jobs)
    try:
        server = create_server(args.host, args.port, app=app, quiet=args.quiet)
    except (ApiError, OSError) as exc:
        print(f"repro-perf: error: cannot start API server: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    print(
        f"repro-perf api: serving on http://{host}:{port} "
        f"(jobs={app.executor.jobs}, cache={args.cache or 'in-memory'})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-perf api: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        app.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-perf`` argument parser (one sub-command per experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Analytical performance model for foundation-model training (SC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="optimal-configuration search at one GPU count")
    _add_common_model_args(p)
    p.add_argument("--gpus", type=int, default=1024, help="number of GPUs")
    p.add_argument("--top-k", type=int, default=1, help="also print the k best configurations")
    p.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the winning configuration's phase-level cost plan",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "pareto",
        help="multi-objective search: the Pareto frontier over iteration "
        "time, HBM headroom, $-cost and energy",
    )
    _add_common_model_args(p)
    p.add_argument("--gpus", type=int, default=1024, help="number of GPUs")
    p.add_argument(
        "--objectives",
        type=_parse_objectives,
        default=list(DEFAULT_PARETO_OBJECTIVES),
        help="comma-separated objective names (see --list-objectives); "
        f"default: {','.join(DEFAULT_PARETO_OBJECTIVES)}",
    )
    p.add_argument(
        "--list-objectives",
        action="store_true",
        help="list the registered objectives and exit",
    )
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser(
        "serve",
        help="inference-serving search: prefill/decode latency, KV-cache "
        "capacity and continuous-batching throughput",
    )
    p.add_argument(
        "--workload",
        default=None,
        help="workload scenario (serving presets: llama70b-serve, "
        "moe-mixtral-serve); takes precedence over --model",
    )
    p.add_argument("--model", default="llama70b-serve", help="model preset name (legacy alias)")
    p.add_argument("--gpu", default="B200", help="GPU generation (A100/H200/B200)")
    p.add_argument("--nvs", type=_parse_nvs, default=8, help="NVSwitch domain size")
    p.add_argument("--gpus", type=int, default=8, help="number of GPUs")
    p.add_argument(
        "--objective",
        default="throughput",
        choices=SERVING_OBJECTIVES,
        help="what to optimise: sustainable tokens/s/GPU (throughput, "
        "default), time-to-first-token (ttft) or time-per-output-token (tpot)",
    )
    p.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="cluster-wide request arrival rate in req/s (default: the "
        "workload preset's)",
    )
    p.add_argument(
        "--prompt-tokens", type=int, default=None, help="prompt length per request (tokens)"
    )
    p.add_argument(
        "--output-tokens", type=int, default=None, help="generated tokens per request"
    )
    p.add_argument(
        "--kv-block",
        type=int,
        default=None,
        help="paged-KV block granularity in tokens (default: preset, usually 16)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="scheduler cap on concurrently decoding sequences per replica",
    )
    p.add_argument(
        "--target-ttft",
        type=float,
        default=None,
        help="TTFT service-level objective in seconds (configurations above "
        "it are infeasible)",
    )
    p.add_argument(
        "--target-tpot",
        type=float,
        default=None,
        help="TPOT service-level objective in seconds",
    )
    p.add_argument("--top-k", type=int, default=1, help="also print the k best configurations")
    p.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the winning configuration's phase-level cost plan "
        "(prefill + decode phases of one request)",
    )
    p.add_argument(
        "--backend",
        default=DEFAULT_EVAL_BACKEND,
        choices=available_backends(),
        help="evaluation backend for the comm terms (analytic default)",
    )
    p.add_argument("--json", default=None, help="optional path to dump raw results as JSON")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("scaling", help="strong-scaling sweep (Fig. 4 / A3)")
    _add_common_model_args(p)
    _add_runtime_args(p)
    p.add_argument(
        "--gpus", type=_parse_gpu_list, default="128,256,512,1024,2048,4096,8192,16384"
    )
    p.set_defaults(func=cmd_scaling)

    # The two grid commands take their systems from --generations and
    # --nvs-sizes.  Abbreviations are off so that a stray --gpu or --nvs is
    # rejected rather than read as a prefix of --gpus or --nvs-sizes.
    p = sub.add_parser(
        "systems",
        help="GPU-generation x NVS grid in training days (Fig. 5)",
        allow_abbrev=False,
    )
    _add_common_model_args(p, single_system=False)
    _add_runtime_args(p)
    p.add_argument("--gpus", type=_parse_gpu_list, default="1024,4096,16384")
    p.add_argument("--generations", default="A100,H200,B200")
    p.add_argument("--nvs-sizes", type=_parse_nvs_sizes, default="4,8,64")
    p.set_defaults(func=cmd_systems)

    p = sub.add_parser(
        "speedup", help="2D TP speedups over 1D TP (Fig. A4)", allow_abbrev=False
    )
    _add_common_model_args(p, single_system=False)
    _add_runtime_args(p)
    p.add_argument("--variant", default="summa", help="variant strategy (tp2d or summa)")
    p.add_argument("--gpus", type=_parse_gpu_list, default="1024,4096,16384")
    p.add_argument("--generations", default="A100,B200")
    p.add_argument("--nvs-sizes", type=_parse_nvs_sizes, default="8,64")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser(
        "validate",
        help="validate the model: against the paper's Megatron-LM numbers "
        "(default) or against the message-level sim oracle (--backend sim)",
    )
    p.add_argument("--json", default=None)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the case evaluations (1 = serial)",
    )
    p.add_argument(
        "--backend",
        default=DEFAULT_EVAL_BACKEND,
        choices=available_backends(),
        help="'analytic': reproduce the paper's §IV comparison; 'sim': run "
        "the analytic-vs-simulated differential grid",
    )
    p.add_argument(
        "--workload",
        default=None,
        help="restrict the differential grid to one workload "
        "(e.g. --workload moe-1t; sim backend only)",
    )
    p.add_argument(
        "--gpu",
        default=None,
        help="GPU generation for the differential grid (sim backend only; "
        "default B200)",
    )
    p.add_argument(
        "--nvs",
        type=_parse_nvs,
        default=None,
        help="NVSwitch domain size for the grid (sim backend only; default 8)",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "api",
        help="long-running planning service: JSON API with a warm shared "
        "cache, request dedup and streaming progress (see docs/service.md)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8421,
        help="bind port (0 picks an ephemeral port, printed at start-up)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes of the shared solve pool (sweep requests fan "
        "out over them; 1 solves in the request thread)",
    )
    p.add_argument(
        "--cache",
        default=None,
        help="search-cache journal path: replayed once at start-up, kept hot "
        "in memory, new records appended after every solved batch (omit for "
        "in-memory only)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress the per-request access log"
    )
    p.set_defaults(func=cmd_api)

    p = sub.add_parser("workloads", help="list the registered workload scenarios")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("schedules", help="list the registered pipeline schedules")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_schedules)

    p = sub.add_parser("collectives", help="analytic vs simulated collective times (Fig. A1)")
    p.add_argument("--gpus", type=_parse_gpu_count, default=32, help="group size (>= 1)")
    p.add_argument(
        "--nvlink",
        type=int,
        choices=PERLMUTTER_NVLINK_GPUS,
        default=4,
        help="GPUs per node in the fast domain (1, 2 or 4)",
    )
    p.add_argument("--collective", choices=SUPPORTED_COLLECTIVES, default="all_gather")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_collectives)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-perf`` console script.

    An unknown registry name — workload, model, GPU generation, strategy —
    surfaces from the library as a ``KeyError``; it is reported as one
    ``repro-perf: error:`` line with exit status 2, like a usage error.
    Every command reports input the library rejects with a ``ValueError``
    (an unknown schedule, a schedule and virtual-stage degree that do not
    fit together, a non-positive serving parameter, ...) the same way.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"repro-perf: error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
