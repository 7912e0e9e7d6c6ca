"""Seeded op lists of the three workloads.

Pure Python, no planner import: the same seed gives the same op list on
every commit, so a run's inputs never depend on the code under test.

Runs with different seeds must do comparable work, or run-to-run spread
would measure the draw rather than the planner.  Every draw is therefore
stratified by cost: the seed only picks among inputs of near-equal solve
time (measured when the benchmark was defined) or only orders fixed
inputs, and the ops that set p90 and above are the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

WORKLOADS = ("design-sweep", "pareto-frontier", "api-replay")

# ----------------------------------------------------------------------
# design-sweep: one op is one sweep point
# ----------------------------------------------------------------------

#: Sweeps every pass runs first, in this order.  Later sweeps reuse the
#: planner's memoised workloads of earlier ones, so the order is fixed, and
#: so are these sweeps: they hold the points that set p90.
DESIGN_FIXED: Tuple[Dict[str, Any], ...] = (
    {"sweep": "scaling", "model": "gpt3-1t", "strategy": "tp2d", "gpu": "H200", "nvs": 8},
    {"sweep": "scaling", "model": "vit", "strategy": "tp2d", "gpu": "H200", "nvs": 8},
    {"sweep": "grid", "model": "gpt3-1t", "generations": ["A100", "H200"]},
    {"sweep": "heatmap", "model": "vit", "mode": "capacity_vs_flops"},
    {"sweep": "heatmap", "model": "vit", "mode": "capacity_vs_bandwidth"},
    {"sweep": "speedup", "model": "gpt3-1t", "gpu": "B200", "nvs": 4},
)

#: Sweeps the seed varies, run last (in seeded order) so that no choice
#: changes what the fixed sweeps find in the planner's caches.  The systems
#: of one entry gave sweep times within ~0.1 s of each other.
DESIGN_SEEDED: Tuple[Tuple[Dict[str, Any], Tuple[Tuple[str, int], ...]], ...] = (
    ({"sweep": "scaling", "model": "gpt3-1t", "strategy": "tp1d"},
     (("A100", 4), ("A100", 8), ("H200", 8), ("H200", 4), ("B200", 4))),
    ({"sweep": "scaling", "model": "vit", "strategy": "tp1d"},
     (("A100", 4), ("H200", 4), ("B200", 8), ("A100", 8), ("B200", 64))),
)


def design_sweep_ops(seed: int) -> List[Dict[str, Any]]:
    """The pass's sweeps: the fixed ones, then the seeded ones."""
    rng = random.Random(f"design-sweep:{seed}")
    seeded = []
    for fixed, systems in DESIGN_SEEDED:
        gpu, nvs = rng.choice(systems)
        seeded.append({**fixed, "gpu": gpu, "nvs": nvs})
    rng.shuffle(seeded)
    return [dict(spec) for spec in DESIGN_FIXED] + seeded


# ----------------------------------------------------------------------
# pareto-frontier: one op is one /v1/pareto payload
# ----------------------------------------------------------------------

#: Payload pool: groups of payload codes, each group's payloads within a
#: few percent of each other in solve time (see the README).
PARETO_POOL = Path(__file__).with_name("pareto_pool.json")

#: The costliest groups, whose requests set p90 and above.  They are sent
#: first and in pool order, so the latency tail does not depend on what
#: earlier requests left in the planner's memoisation caches.
PARETO_FIXED_TAIL = 22


def pareto_payload(code: str) -> Dict[str, Any]:
    """``preset/strategy/gpus/gpu/nvs/obj+obj`` -> a ``/v1/pareto`` body."""
    preset, strategy, gpus, gpu, nvs, objectives = code.split("/")
    return {
        "workload": preset,
        "strategy": strategy,
        "gpus": int(gpus),
        "gpu": gpu,
        "nvs": int(nvs),
        "objectives": objectives.split("+"),
        "eval_mode": "batch",
    }


def pareto_frontier_ops(seed: int) -> List[Dict[str, Any]]:
    """Each cost group's first payload: the tail, then the rest in seeded order.

    The seed orders the payloads and does not pick them: groups were cut
    from solve times measured on a noisy host, so members of one group
    differ by more than the noise of the median, and a per-seed pick moved
    p50 by 17% between seeds.
    """
    rng = random.Random(f"pareto-frontier:{seed}")
    groups = json.loads(PARETO_POOL.read_text())["groups"]
    first = [pareto_payload(group[0]) for group in groups]
    head, tail = first[:-PARETO_FIXED_TAIL], first[-PARETO_FIXED_TAIL:]
    rng.shuffle(head)
    return tail + head


# ----------------------------------------------------------------------
# api-replay: one op is one HTTP request
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One request of the replay and the status it must get."""

    kind: str  # solve | repeat | evaluate | status | malformed
    method: str
    path: str
    body: Optional[str]
    expect: int

    def payload(self) -> Any:
        return None if self.body is None else json.loads(self.body)


#: Near-duplicate solve families: members differ only along a sweep axis
#: (GPU count, arrival rate) and are solved in the order listed, so the
#: cache's hint index seeds each member from the ones solved before it.
SEARCH_FAMILIES: Tuple[Dict[str, Any], ...] = (
    {"workload": "gpt3-1t", "gpu": "B200", "nvs": 8, "strategy": "tp1d", "eval_mode": "batch"},
    {"workload": "gpt3-1t", "gpu": "H200", "nvs": 64, "strategy": "tp2d", "eval_mode": "batch"},
    {"workload": "vit", "gpu": "B200", "nvs": 8, "strategy": "tp1d"},
    {"workload": "vit", "gpu": "A100", "nvs": 64, "strategy": "tp1d", "eval_mode": "batch"},
    {"workload": "gpt3-1t-gqa", "gpu": "A100", "nvs": 8, "strategy": "tp1d"},
    {"workload": "gpt3-1t-gqa", "gpu": "B200", "nvs": 64, "strategy": "tp2d", "eval_mode": "batch"},
    # The preset's expert parallelism needs at least 256 GPUs.
    {"workload": "moe-1t", "gpu": "B200", "nvs": 64, "strategy": "tp1d", "eval_mode": "batch",
     "gpus": (256, 512, 1024)},
    {"workload": "gpt3-1t", "gpu": "A100", "nvs": 8, "strategy": "tp1d"},
)
SEARCH_GPUS = (128, 256, 512)

SERVE_FAMILIES: Tuple[Dict[str, Any], ...] = (
    {"workload": "llama70b-serve", "gpu": "H200", "nvs": 8, "objective": "throughput"},
    {"workload": "llama70b-serve", "gpu": "B200", "nvs": 8, "objective": "ttft"},
    {"workload": "moe-mixtral-serve", "gpu": "B200", "nvs": 64, "objective": "tpot"},
)
SERVE_POINTS = ((4, 2.0), (8, 2.0), (8, 5.0))

PARETO_FAMILIES: Tuple[Dict[str, Any], ...] = (
    {"workload": "gpt3-1t", "gpu": "B200", "nvs": 8, "objectives": ["time", "energy"]},
    {"workload": "vit", "gpu": "H200", "nvs": 64, "objectives": ["time", "hbm_headroom", "cost"]},
    {"workload": "gpt3-1t-gqa", "gpu": "A100", "nvs": 8,
     "objectives": ["time", "hbm_headroom", "energy"]},
)
PARETO_GPUS = (128, 256, 512)

#: Explicit configurations for ``/v1/evaluate``: (workload, config).
EVALUATE_CONFIGS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("gpt3-1t", {"strategy": "tp2d", "tensor_parallel_1": 2, "tensor_parallel_2": 8,
                 "pipeline_parallel": 4, "data_parallel": 16, "microbatch_size": 1}),
    ("gpt3-1t", {"strategy": "tp2d", "tensor_parallel_1": 1, "tensor_parallel_2": 2,
                 "pipeline_parallel": 128, "data_parallel": 4, "microbatch_size": 8}),
    ("gpt3-1t", {"strategy": "tp1d", "tensor_parallel_1": 16, "tensor_parallel_2": 1,
                 "pipeline_parallel": 1, "data_parallel": 64, "microbatch_size": 4}),
    ("vit", {"strategy": "tp2d", "tensor_parallel_1": 8, "tensor_parallel_2": 4,
             "pipeline_parallel": 1, "data_parallel": 16, "microbatch_size": 1}),
    ("vit", {"strategy": "tp2d", "tensor_parallel_1": 4, "tensor_parallel_2": 4,
             "pipeline_parallel": 4, "data_parallel": 8, "microbatch_size": 1}),
    ("gpt3-1t-gqa", {"strategy": "tp1d", "tensor_parallel_1": 8, "tensor_parallel_2": 1,
                     "pipeline_parallel": 2, "data_parallel": 128, "microbatch_size": 1}),
    ("gpt3-1t-gqa", {"strategy": "tp2d", "tensor_parallel_1": 2, "tensor_parallel_2": 8,
                     "pipeline_parallel": 8, "data_parallel": 16, "microbatch_size": 1}),
    ("moe-1t", {"strategy": "tp1d", "tensor_parallel_1": 1, "tensor_parallel_2": 1,
                "pipeline_parallel": 32, "data_parallel": 32, "microbatch_size": 1,
                "expert_parallel": 4}),
    ("moe-1t", {"strategy": "tp2d", "tensor_parallel_1": 4, "tensor_parallel_2": 2,
                "pipeline_parallel": 8, "data_parallel": 16, "microbatch_size": 2,
                "expert_parallel": 8}),
)

#: Requests the service must reject with a 400: (path, raw body).
MALFORMED: Tuple[Tuple[str, str], ...] = (
    ("/v1/search", "{not json"),
    ("/v1/search", json.dumps([1, 2, 3])),
    ("/v1/search", json.dumps({"workload": "gpt3-1t"})),
    ("/v1/search", json.dumps({"workload": "no-such-model", "gpus": 256})),
    ("/v1/search", json.dumps({"gpus": 0})),
    ("/v1/search", json.dumps({"gpus": 256, "strategy": "tp3d"})),
    ("/v1/search", json.dumps({"gpus": 256, "zero_stage": 9})),
    ("/v1/pareto", json.dumps({"gpus": 256, "objectives": "time"})),
    ("/v1/pareto", json.dumps({"gpus": 256, "objectives": ["time", "speed"]})),
    ("/v1/serve", json.dumps({"gpus": 8, "arrival_rate": -1.0})),
    ("/v1/serve", json.dumps({"gpus": 8, "objective": "latency"})),
    ("/v1/evaluate", json.dumps({"workload": "gpt3-1t"})),
    ("/v1/evaluate", json.dumps({"workload": "gpt3-1t", "config": {"strategy": "tp1d"}})),
)

#: Request mix of one pass besides the 42 solves: 121 requests (repeats
#: are rounded per endpoint), of which
#: 35% solve, 42% repeat a solve, 12% evaluate, 6% read status and 6% are
#: malformed.  Cheap requests (repeats, status, malformed) are just over
#: half, so p50 falls among them.
API_MIX = {"repeat": 50, "evaluate": 14, "status": 7, "malformed": 7}


def _post(kind: str, path: str, payload: Any, expect: int = 200) -> Request:
    body = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return Request(kind, "POST", path, body, expect)


def api_replay_ops(seed: int) -> List[Request]:
    """The replay: solve families interleaved with repeats and cheap calls.

    The solves, which set p90, are the same for every seed: round-robin over
    the families in a fixed order, each family's members in listed order,
    so the hint index seeds them and the cache file every solve rewrites
    grows the same way.  The seed picks what is repeated (in proportion to
    each endpoint's solves), what is evaluated or malformed, and where the
    requests that do not solve fall.
    """
    rng = random.Random(f"api-replay:{seed}")
    families: List[List[Request]] = []
    for family in SEARCH_FAMILIES:
        base = {k: v for k, v in family.items() if k != "gpus"}
        families.append([_post("solve", "/v1/search", {**base, "gpus": n})
                         for n in family.get("gpus", SEARCH_GPUS)])
    for family in SERVE_FAMILIES:
        families.append([
            _post("solve", "/v1/serve", {**family, "gpus": n, "arrival_rate": rate})
            for n, rate in SERVE_POINTS
        ])
    for family in PARETO_FAMILIES:
        families.append([
            _post("solve", "/v1/pareto",
                  {**family, "strategy": "tp1d", "eval_mode": "batch", "gpus": n})
            for n in PARETO_GPUS
        ])
    solves = [op for members in zip(*families) for op in members]
    repeats = {path: API_MIX["repeat"] * sum(op.path == path for op in solves) / len(solves)
               for path in ("/v1/search", "/v1/serve", "/v1/pareto")}
    repeats = {path: round(share) for path, share in repeats.items()}
    remaining = {**API_MIX, "solve": len(solves), "repeat": sum(repeats.values())}
    sent: Dict[str, List[Request]] = {path: [] for path in repeats}
    ops: List[Request] = []
    while any(remaining.values()):
        can_repeat = [p for p, left in repeats.items() if left and sent[p]]
        kinds = [k for k, left in remaining.items() if left and (k != "repeat" or can_repeat)]
        kind = rng.choices(kinds, weights=[remaining[k] for k in kinds])[0]
        remaining[kind] -= 1
        if kind == "solve":
            op = solves.pop(0)
            sent[op.path].append(op)
        elif kind == "repeat":
            path = rng.choices(can_repeat, weights=[repeats[p] for p in can_repeat])[0]
            repeats[path] -= 1
            source = rng.choice(sent[path])
            op = Request("repeat", source.method, source.path, source.body, 200)
        elif kind == "evaluate":
            workload, config = rng.choice(EVALUATE_CONFIGS)
            op = _post("evaluate", "/v1/evaluate", {
                "workload": workload,
                "gpu": rng.choice(("A100", "H200", "B200")),
                "nvs": rng.choice((8, 64)),
                "config": config,
            })
        elif kind == "status":
            op = Request("status", "GET", "/v1/status", None, 200)
        else:
            path, body = rng.choice(MALFORMED)
            op = _post("malformed", path, body, 400)
        ops.append(op)
    return ops


def op_list(workload: str, seed: int) -> List[Any]:
    """The seeded op list of ``workload``."""
    if workload == "design-sweep":
        return design_sweep_ops(seed)
    if workload == "pareto-frontier":
        return pareto_frontier_ops(seed)
    if workload == "api-replay":
        return api_replay_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
