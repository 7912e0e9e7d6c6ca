#!/usr/bin/env python3
"""Rebuild ``pareto_pool.json``, the cost-stratified payload pool.

Times every payload of the cross product below (best of two solves, each in
a fresh :class:`PlannerApp` with cold planner caches), drops payloads slower
than ``CAP_S``, sorts the rest by time and cuts them into ``GROUPS``
consecutive groups.  ``pareto-frontier`` sends the first payload of each
group (see ``ops.pareto_frontier_ops``).  Takes about ten minutes::

    python3 planbench/build_pareto_pool.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from planbench.ops import PARETO_POOL, pareto_payload  # noqa: E402
from repro.core.execution import clear_caches  # noqa: E402
from repro.serve_api import PlannerApp  # noqa: E402

PRESETS = ("gpt3-1t", "vit", "gpt3-1t-gqa", "moe-1t")
OBJECTIVES = ("time", "hbm_headroom", "cost", "energy")
CAP_S = 0.6
GROUPS = 110


def codes():
    """Every payload code: tp2d stops at 1024 GPUs (512 for MoE)."""
    subsets = [c for r in (2, 3, 4) for c in itertools.combinations(OBJECTIVES, r)]
    for preset, strategy in itertools.product(PRESETS, ("tp1d", "tp2d")):
        if strategy == "tp1d":
            counts = (256, 512, 1024, 2048, 4096)
        else:
            counts = (256, 512) if preset == "moe-1t" else (256, 512, 1024)
        for gpus, gpu, nvs, objs in itertools.product(counts, ("A100", "H200", "B200"),
                                                      (8, 64), subsets):
            yield f"{preset}/{strategy}/{gpus}/{gpu}/{nvs}/{'+'.join(objs)}"


def solve_time(code: str) -> float:
    best = float("inf")
    for _ in range(2):
        clear_caches()
        app = PlannerApp()
        start = time.perf_counter()
        app.pareto(pareto_payload(code))
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    timed = sorted((solve_time(code), code) for code in codes())
    kept = [code for seconds, code in timed if seconds <= CAP_S]
    cuts = [round(i * len(kept) / GROUPS) for i in range(GROUPS + 1)]
    groups = [kept[cuts[i]:cuts[i + 1]] for i in range(GROUPS)]
    PARETO_POOL.write_text(json.dumps({"cap_s": CAP_S, "groups": groups}, indent=0) + "\n")
    print(f"{len(kept)} of {len(timed)} payloads in {GROUPS} groups -> {PARETO_POOL}")


if __name__ == "__main__":
    main()
