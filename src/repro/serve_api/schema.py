"""Request/response schemas of the planning service.

This module is the *pure* boundary between JSON payloads and the engine's
dataclasses: every handler body parses into existing engine objects
(:class:`~repro.runtime.executor.SearchTask`,
:class:`~repro.core.parallelism.base.ParallelConfig`,
:class:`~repro.core.inference.ServingSpec`, ...) here, and every response
is rendered back through :func:`~repro.utils.serialization.to_jsonable`.
Nothing in this module touches sockets, threads or global state — it can
be unit-tested with plain dictionaries — which keeps the app/engine
separation intact: the engine modules never learn about HTTP, and the
HTTP layer never builds engine objects by hand.

Validation failures raise :class:`ApiError`, which carries the HTTP status
the handler should answer with (400 for malformed requests); the engine's
own ``ValueError``/``KeyError`` messages are surfaced verbatim so the API
reports exactly what the CLI would.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.backends import available_backends
from repro.core.execution import ModelingOptions, evaluate_config
from repro.core.inference import SERVING_OBJECTIVES, ServingSpec
from repro.core.objectives import DEFAULT_PARETO_OBJECTIVES, resolve_objectives
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.core.parallelism.data_parallel import ZERO_STAGES
from repro.core.search import ALL_STRATEGIES
from repro.core.system import SystemSpec, make_system
from repro.core.workloads import available_workloads, get_workload, scenario_space
from repro.runtime.executor import SearchTask
from repro.utils.serialization import dataclass_from_jsonable, to_jsonable


class ApiError(Exception):
    """A request the service must reject, with the HTTP status to use."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status

    @property
    def message(self) -> str:
        """The human-readable error text (the exception's first argument)."""
        return self.args[0]

    def body(self) -> Dict[str, Any]:
        """JSON body the handler answers with."""
        return {"error": self.message, "status": self.status}


# ----------------------------------------------------------------------
# Field extraction helpers
# ----------------------------------------------------------------------

def _expect_mapping(payload: Any) -> Mapping[str, Any]:
    """The request body as a JSON object, or a 400."""
    if not isinstance(payload, Mapping):
        raise ApiError("request body must be a JSON object")
    return payload


def _get(
    payload: Mapping[str, Any],
    field: str,
    kind: type,
    default: Any = None,
    *,
    required: bool = False,
) -> Any:
    """Typed field lookup: JSON ``kind`` or a 400 naming the field.

    ``int`` fields reject booleans (JSON ``true`` is not a GPU count) and
    ``float`` fields accept integers, mirroring JSON's single number type.
    """
    if field not in payload or payload[field] is None:
        if required:
            raise ApiError(f"missing required field {field!r}")
        return default
    value = payload[field]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, bool):
        raise ApiError(f"field {field!r} must be an integer, got a boolean")
    if not isinstance(value, kind):
        raise ApiError(
            f"field {field!r} must be of type {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _get_positive_int(
    payload: Mapping[str, Any], field: str, default: Optional[int] = None, *, required: bool = False
) -> Optional[int]:
    value = _get(payload, field, int, default, required=required)
    if value is not None and value < 1:
        raise ApiError(f"field {field!r} must be >= 1, got {value}")
    return value


def _get_choice(
    payload: Mapping[str, Any], field: str, choices: Sequence[str], default: Optional[str]
) -> Optional[str]:
    value = _get(payload, field, str, default)
    if value is not None and value not in choices:
        raise ApiError(
            f"field {field!r} must be one of {', '.join(choices)}; got {value!r}"
        )
    return value


def get_stream_flag(payload: Any) -> bool:
    """The request's ``stream`` flag (NDJSON progress events when true)."""
    return bool(_get(_expect_mapping(payload), "stream", bool, False))


# ----------------------------------------------------------------------
# Shared scenario resolution
# ----------------------------------------------------------------------

def _resolve_workload(payload: Mapping[str, Any], default: str):
    """The workload spec named by ``workload`` (or legacy ``model``)."""
    name = _get(payload, "workload", str) or _get(payload, "model", str) or default
    try:
        return get_workload(name)
    except KeyError:
        raise ApiError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        ) from None


def _resolve_system(payload: Mapping[str, Any]) -> SystemSpec:
    """System of the request's ``gpu`` generation and ``nvs`` domain size."""
    gpu = _get(payload, "gpu", str, "B200")
    nvs = _get_positive_int(payload, "nvs", 8)
    try:
        return make_system(gpu, nvs)
    except (KeyError, ValueError) as exc:
        raise ApiError(str(exc.args[0] if exc.args else exc)) from None


def _resolve_space(payload: Mapping[str, Any], workload_name: str):
    """Search space honouring ``schedule``/``virtual_stages``/``expert_parallel``."""
    try:
        return scenario_space(
            workload_name,
            schedule=_get(payload, "schedule", str),
            virtual_stages=_get_positive_int(payload, "virtual_stages"),
            expert_parallel=_get_positive_int(payload, "expert_parallel"),
        )
    except ValueError as exc:
        raise ApiError(str(exc)) from None


def _resolve_options(payload: Mapping[str, Any]) -> ModelingOptions:
    """Modeling options honouring ``zero_stage`` (default: stage 1)."""
    zero_stage = _get(payload, "zero_stage", int, 1)
    if zero_stage not in ZERO_STAGES:
        raise ApiError(f"field 'zero_stage' must be 0..3, got {zero_stage}")
    return ModelingOptions(zero_stage=zero_stage)


def _resolve_strategy(payload: Mapping[str, Any]):
    """The request's strategy: one name, ``"all"`` or a list of names."""
    value = payload.get("strategy", "tp1d")
    known = (*ALL_STRATEGIES, "all")
    if isinstance(value, str):
        if value not in known:
            raise ApiError(f"field 'strategy' must be one of {', '.join(known)}; got {value!r}")
        return value
    if isinstance(value, list) and value and all(isinstance(s, str) for s in value):
        for s in value:
            if s not in ALL_STRATEGIES:
                raise ApiError(
                    f"field 'strategy' entries must be one of {', '.join(ALL_STRATEGIES)}; got {s!r}"
                )
        return tuple(value)
    raise ApiError("field 'strategy' must be a strategy name or a non-empty list of names")


def _common_task_fields(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Backend / top-k fields shared by every solve request.

    No field picks the pricer: the runtime chooses it from ``backend``, so
    an ``eval_mode`` key, like any other unknown key, is ignored.
    """
    top_k = _get(payload, "top_k", int, 0)
    if top_k < 0:
        raise ApiError(f"field 'top_k' must be >= 0, got {top_k}")
    return {
        "backend": _get_choice(payload, "backend", available_backends(), "analytic"),
        "top_k": top_k,
    }


# ----------------------------------------------------------------------
# Request parsers (JSON payload -> engine objects)
# ----------------------------------------------------------------------

def parse_search_request(payload: Any) -> SearchTask:
    """``POST /v1/search`` body -> a training :class:`SearchTask`."""
    payload = _expect_mapping(payload)
    spec = _resolve_workload(payload, "gpt3-1t")
    system = _resolve_system(payload)
    n_gpus = _get_positive_int(payload, "gpus", required=True)
    global_batch = _get_positive_int(payload, "global_batch", spec.default_global_batch)
    try:
        return SearchTask(
            model=spec.model,
            system=system,
            n_gpus=n_gpus,
            global_batch_size=global_batch,
            strategy=_resolve_strategy(payload),
            space=_resolve_space(payload, spec.name),
            options=_resolve_options(payload),
            **_common_task_fields(payload),
        )
    except ValueError as exc:
        raise ApiError(str(exc)) from None


def parse_pareto_request(payload: Any) -> SearchTask:
    """``POST /v1/pareto`` body -> a multi-objective :class:`SearchTask`.

    Identical to a search request plus an ``objectives`` list (defaulting
    to :data:`~repro.core.objectives.DEFAULT_PARETO_OBJECTIVES`), validated
    against the objective registry up front so unknown names answer 400
    with the registered vocabulary.  ``top_k`` does not apply to a frontier
    and is pinned to 0 (one cache entry per Pareto point).
    """
    payload = _expect_mapping(payload)
    spec = _resolve_workload(payload, "gpt3-1t")
    system = _resolve_system(payload)
    n_gpus = _get_positive_int(payload, "gpus", required=True)
    global_batch = _get_positive_int(payload, "global_batch", spec.default_global_batch)
    objectives = payload.get("objectives", list(DEFAULT_PARETO_OBJECTIVES))
    if (
        not isinstance(objectives, list)
        or not objectives
        or not all(isinstance(name, str) for name in objectives)
    ):
        raise ApiError("field 'objectives' must be a non-empty list of objective names")
    try:
        resolve_objectives(objectives)
    except (KeyError, ValueError) as exc:
        raise ApiError(str(exc.args[0] if exc.args else exc)) from None
    common = _common_task_fields(payload)
    common["top_k"] = 0
    try:
        return SearchTask(
            model=spec.model,
            system=system,
            n_gpus=n_gpus,
            global_batch_size=global_batch,
            strategy=_resolve_strategy(payload),
            space=_resolve_space(payload, spec.name),
            options=_resolve_options(payload),
            objectives=tuple(objectives),
            **common,
        )
    except ValueError as exc:
        raise ApiError(str(exc)) from None


def parse_sweep_request(payload: Any) -> List[SearchTask]:
    """``POST /v1/sweep`` body -> one :class:`SearchTask` per GPU count.

    Identical to a search request except ``gpus`` is a list; the executor
    fans the points out over its worker pool and the in-memory cache /
    in-flight dedup apply per point.
    """
    payload = _expect_mapping(payload)
    gpus = payload.get("gpus")
    if not isinstance(gpus, list) or not gpus:
        raise ApiError("field 'gpus' must be a non-empty list of GPU counts")
    tasks = []
    seen = set()
    for count in gpus:
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ApiError(f"field 'gpus' entries must be integers >= 1, got {count!r}")
        if count in seen:
            continue
        seen.add(count)
        tasks.append(parse_search_request({**payload, "gpus": count}))
    return tasks


def parse_serve_request(payload: Any) -> SearchTask:
    """``POST /v1/serve`` body -> a serving-objective :class:`SearchTask`.

    Starts from the workload's serving preset and replaces exactly the
    fields the request sets (same override semantics as the CLI flags).
    The serving model reads neither a global batch nor a ZeRO stage, so the
    task pins both to their defaults and ``global_batch`` and
    ``zero_stage`` keys are ignored like any other unknown key: bodies that
    differ only in them are one search.
    """
    payload = _expect_mapping(payload)
    spec = _resolve_workload(payload, "llama70b-serve")
    system = _resolve_system(payload)
    objective = _get_choice(payload, "objective", SERVING_OBJECTIVES, "throughput")
    serving = spec.serving or ServingSpec()
    overrides: Dict[str, Any] = {}
    for field, kind in (
        ("arrival_rate", float),
        ("prompt_tokens", int),
        ("output_tokens", int),
        ("kv_block_tokens", int),
        ("max_batch_per_replica", int),
        ("target_ttft", float),
        ("target_tpot", float),
    ):
        value = _get(payload, field, kind)
        if value is not None:
            overrides[field] = value
    try:
        serving = replace(serving, **overrides) if overrides else serving
        return SearchTask(
            model=spec.model,
            system=system,
            n_gpus=_get_positive_int(payload, "gpus", 8),
            global_batch_size=1,
            strategy="tp1d",
            objective=objective,
            serving=serving,
            **_common_task_fields(payload),
        )
    except ValueError as exc:
        raise ApiError(str(exc)) from None


def parse_evaluate_request(payload: Any) -> Dict[str, Any]:
    """``POST /v1/evaluate`` body -> :func:`evaluate_config` keyword set.

    ``config`` (required) and ``assignment`` (optional) are rebuilt into
    the engine dataclasses through the same type-hint-driven machinery the
    cache read path uses, so the accepted JSON shape is exactly the
    :func:`to_jsonable` form of the dataclasses.
    """
    payload = _expect_mapping(payload)
    spec = _resolve_workload(payload, "gpt3-1t")
    system = _resolve_system(payload)
    config_data = payload.get("config")
    if not isinstance(config_data, Mapping):
        raise ApiError("field 'config' must be a JSON object describing a ParallelConfig")
    assignment_data = payload.get("assignment")
    if assignment_data is not None and not isinstance(assignment_data, Mapping):
        raise ApiError("field 'assignment' must be a JSON object describing a GpuAssignment")
    try:
        config = dataclass_from_jsonable(ParallelConfig, dict(config_data))
        assignment = (
            dataclass_from_jsonable(GpuAssignment, dict(assignment_data))
            if assignment_data is not None
            else GpuAssignment()
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise ApiError(f"invalid config/assignment: {exc}") from None
    return {
        "model": spec.model,
        "system": system,
        "config": config,
        "assignment": assignment,
        "global_batch_size": _get_positive_int(
            payload, "global_batch", spec.default_global_batch
        ),
        "options": _resolve_options(payload),
        "backend": _get_choice(payload, "backend", available_backends(), "analytic"),
    }


def run_evaluate(kwargs: Dict[str, Any]):
    """Price one explicit configuration (the ``evaluate`` endpoint's engine call).

    Translates the engine's structural ``ValueError``s (bad divisibility,
    GPU-count mismatches) into 400s — a malformed *configuration* is a
    client error, not a server fault.
    """
    try:
        return evaluate_config(
            kwargs["model"],
            kwargs["system"],
            kwargs["config"],
            kwargs["assignment"],
            global_batch_size=kwargs["global_batch_size"],
            options=kwargs["options"],
            backend=kwargs["backend"],
        )
    except ValueError as exc:
        raise ApiError(str(exc)) from None


# ----------------------------------------------------------------------
# Response envelopes (engine objects -> JSON)
# ----------------------------------------------------------------------

def result_body(result, *, source: str) -> Dict[str, Any]:
    """Response body of a solved search/serve task.

    ``source`` records how the request was satisfied: ``"solved"`` (a
    fresh engine solve), ``"cache"`` (the warm in-memory cache) or
    ``"dedup"`` (attached to an identical in-flight solve).
    """
    body: Dict[str, Any] = {
        "found": result.found,
        "source": source,
        "summary": to_jsonable(result.summary()),
        "statistics": to_jsonable(result.statistics),
    }
    if getattr(result, "top_k", None):
        body["top_k"] = [to_jsonable(est.summary()) for est in result.top_k]
    return body


def pareto_point_body(point) -> Dict[str, Any]:
    """JSON form of one frontier member (shared by body and stream events)."""
    return {
        "config": point.estimate.config.describe(),
        "assignment": list(point.estimate.assignment.as_tuple()),
        "metrics": to_jsonable(point.metrics),
    }


def pareto_body(result, *, source: str) -> Dict[str, Any]:
    """Response body of a solved Pareto task: summary plus the frontier."""
    return {
        "found": result.found,
        "source": source,
        "summary": to_jsonable(result.summary()),
        "statistics": to_jsonable(result.statistics),
        "objectives": list(result.objectives),
        "frontier": [pareto_point_body(point) for point in result.points],
    }


def evaluate_body(estimate) -> Dict[str, Any]:
    """Response body of one ``evaluate`` call."""
    return {
        "feasible": estimate.feasible,
        "summary": to_jsonable(estimate.summary()),
        "breakdown": to_jsonable(estimate.breakdown),
    }


def sweep_body(results: Sequence, sources: Sequence[str]) -> Dict[str, Any]:
    """Response body of a sweep: one entry per requested GPU count."""
    return {
        "points": [
            {"source": source, "found": result.found, "summary": to_jsonable(result.summary())}
            for result, source in zip(results, sources)
        ]
    }
