"""Answer checks: the planner must not get faster by getting things wrong.

Every seed: each winner is re-priced through the scalar oracle
(:func:`repro.core.execution.evaluate_config`, or
:func:`repro.core.inference.evaluate_serving_config` for serving) and must
reproduce its reported time bit for bit; repeats must come from the cache
with the original answer; every pass must give the same answers.

The default seed additionally compares every answer — winner config and
time per sweep point or request, or the frontier's configs and metrics —
with the reference stored in ``reference/`` (recorded with
``run.py --record-reference``).  Work counters are never part of an answer.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.core.execution import evaluate_config
from repro.core.inference import evaluate_serving_config
from repro.core.parallelism.base import GpuAssignment, ParallelConfig
from repro.serve_api import schema

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).with_name("reference")

_DESCRIBE = re.compile(r"^(\w+)\[(.*)\]$")
_FIELDS = {
    "bm": "microbatch_size",
    "n1": "tensor_parallel_1",
    "n2": "tensor_parallel_2",
    "np": "pipeline_parallel",
    "nd": "data_parallel",
    "nb": "summa_panels",
    "ep": "expert_parallel",
    "sched": "schedule",
    "v": "virtual_stages",
}


def parse_config(text: str) -> ParallelConfig:
    """Inverse of :meth:`ParallelConfig.describe`."""
    match = _DESCRIBE.match(text)
    if match is None:
        raise ValueError(f"not a described config: {text!r}")
    fields: Dict[str, Any] = {"strategy": match.group(1)}
    for item in match.group(2).split(","):
        key, value = item.split("=")
        fields[_FIELDS[key]] = value if key == "sched" else int(value)
    return ParallelConfig(**fields)


def reprice(task, config: ParallelConfig, assignment: Sequence[int]):
    """Scalar-oracle estimate of a winner under ``task``'s inputs.

    A search that finds nothing feasible retries with full activation
    checkpointing, so an estimate that does not fit is re-priced that way.
    """
    kwargs = dict(global_batch_size=task.global_batch_size, options=task.options)
    estimate = evaluate_config(task.model, task.system, config, GpuAssignment(*assignment), **kwargs)
    if not estimate.feasible:
        kwargs["options"] = replace(task.options, activation_checkpointing=True)
        estimate = evaluate_config(task.model, task.system, config,
                                   GpuAssignment(*assignment), **kwargs)
    return estimate


def _check_frontier(payload: Dict[str, Any], answer: Dict[str, Any]) -> List[str]:
    task = schema.parse_pareto_request(payload)
    objectives = list(task.objectives)
    problems = []
    for config, assignment, metrics in answer["frontier"]:
        estimate = reprice(task, parse_config(config), assignment)
        if "time" in objectives and metrics[objectives.index("time")] != estimate.total_time:
            problems.append(f"frontier point {config} re-prices to {estimate.total_time!r}")
    config, assignment, best_time = answer["best"]
    if config is not None and reprice(task, parse_config(config), assignment).total_time != best_time:
        problems.append(f"fastest point {config} does not re-price to {best_time!r}")
    return problems


def _check_design(task, answer: Dict[str, Any]) -> List[str]:
    if answer["winner"] is None:
        return []
    config, assignment, time = answer["winner"]
    repriced = reprice(task, parse_config(config), assignment).total_time
    return [] if repriced == time else [f"{config} re-prices to {repriced!r}, reported {time!r}"]


def _check_api(request, answer: Dict[str, Any], solved: Dict[Any, Dict[str, Any]]) -> List[str]:
    if answer["status"] != 200:
        return []  # drivers.py already failed every unexpected status
    key = (request.path, request.body)
    if request.kind == "repeat":
        original = solved.get(key)
        if original is None:
            return ["repeat of a request that was never solved"]
        return [] if answer == {**original, "source": "cache"} else ["repeat differs from its solve"]
    if request.kind == "evaluate":
        estimate = schema.run_evaluate(schema.parse_evaluate_request(request.payload()))
        ok = estimate.total_time == answer["time"] and estimate.feasible == answer["feasible"]
        return [] if ok else [f"evaluate re-prices to {estimate.total_time!r}"]
    if request.kind != "solve":
        return []
    solved[key] = answer
    if answer["source"] != "solved":
        return [f"first request answered from {answer['source']!r}"]
    if request.path == "/v1/pareto":
        return _check_frontier(request.payload(), answer)
    if not answer["found"]:
        return []
    config, assignment = answer["winner"]
    if request.path == "/v1/serve":
        task = schema.parse_serve_request(request.payload())
        est = evaluate_serving_config(task.model, task.system, parse_config(config),
                                      GpuAssignment(*assignment), serving=task.serving,
                                      options=task.options)
        values = [est.ttft, est.tpot, est.tokens_per_s_per_gpu]
    else:
        task = schema.parse_search_request(request.payload())
        values = [reprice(task, parse_config(config), assignment).total_time]
    return [] if values == answer["values"] else [f"{config} re-prices to {values!r}"]


def check_answers(workload: str, ops: List[Any], answers: List[Any],
                  context: List[Any]) -> Dict[int, str]:
    """Re-price every answer of one pass; returns failures by op index."""
    failures: Dict[int, str] = {}
    solved: Dict[Any, Dict[str, Any]] = {}
    for i, answer in enumerate(answers):
        if answer is None:
            continue
        if workload == "design-sweep":
            problems = _check_design(context[i], answer)
        elif workload == "pareto-frontier":
            problems = _check_frontier(ops[i], answer)
        else:
            problems = _check_api(ops[i], answer, solved)
        if problems:
            failures[i] = "; ".join(problems)
    return failures


def normalized(answers: List[Any]) -> List[Any]:
    """Answers as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(answers))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def compare_reference(workload: str, answers: List[Any]) -> Dict[int, str]:
    """Differences from the stored default-seed answers, by op index."""
    stored = json.loads(reference_path(workload).read_text())["answers"]
    answers = normalized(answers)
    failures = {i: "differs from the stored reference answer"
                for i, (got, want) in enumerate(zip(answers, stored)) if got != want}
    for i in range(min(len(answers), len(stored)), max(len(answers), len(stored))):
        failures[i] = "op count differs from the stored reference"
    return failures


def record_reference(workload: str, answers: List[Any]) -> Path:
    """Store ``answers`` as the default seed's reference, one op per line."""
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(answer, sort_keys=True) for answer in normalized(answers))
    path.write_text(
        f'{{"seed": {DEFAULT_SEED}, "workload": "{workload}", "answers": [\n{lines}\n]}}\n'
    )
    return path
