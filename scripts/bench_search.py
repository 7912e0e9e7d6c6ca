#!/usr/bin/env python
"""Cold vs warm search benchmark — emits ``BENCH_search.json``.

Measures the warm-start machinery (PR: cross-point incumbent seeding and
the structure-keyed hint index) on the two traffic shapes it targets:

* **Scaling sweep** (fig. 4a style): the gpt3-1t preset on a B200 NVS-64
  system, global batch 4096, ``tp1d``, across the GPU grid 4k..128k.  The
  sweep is analytic, so the runtime prices it with the vectorized batch
  pricer.  The cold run searches every point from
  scratch; the warm run chains each point's winner into the next point's
  branch-and-bound incumbent.  Results must be identical — the script
  fails if any optimum differs — while the warm run evaluates fewer
  candidates and finishes faster.

* **API replay**: 20 near-identical planning requests (training searches
  varying ``gpus``/``global_batch`` plus serving searches varying
  ``arrival_rate``) through :class:`repro.serve_api.PlannerApp`, once
  with the hint index enabled and once without.  This is the
  planning-as-a-service shape: distinct requests never hit the exact
  result cache, but structurally similar ones seed each other.

Wall-clock numbers are best-of-``--repeats`` with the process-wide
evaluation caches cleared before every repeat, so both modes price every
candidate from cold interpreter state.  Candidate counts are exact and
deterministic.

Usage::

    PYTHONPATH=src python scripts/bench_search.py               # full run
    PYTHONPATH=src python scripts/bench_search.py --repeats 2   # faster
    PYTHONPATH=src python scripts/bench_search.py --out BENCH_search.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.sweeps import scaling_sweep  # noqa: E402
from repro.core.execution import clear_caches  # noqa: E402
from repro.core.model import get_model  # noqa: E402
from repro.core.system import make_system  # noqa: E402

#: Fig. 4a-style grid where the chunked batch pricer pays a visible
#: cold-start cost per point: the first 256-candidate chunk is priced with
#: an infinite threshold, which a seeded incumbent cuts down immediately.
SWEEP_GPUS = (4096, 8192, 16384, 32768, 65536, 131072)
SWEEP_MODEL = "gpt3-1t"
SWEEP_SYSTEM = ("B200", 64)
SWEEP_BATCH = 4096
SWEEP_STRATEGY = "tp1d"


def _sweep_once(warm_start: bool):
    model = get_model(SWEEP_MODEL)
    system = make_system(*SWEEP_SYSTEM)
    clear_caches()
    start = time.perf_counter()
    sweep = scaling_sweep(
        model,
        system,
        strategy=SWEEP_STRATEGY,
        n_gpus_list=SWEEP_GPUS,
        global_batch_size=SWEEP_BATCH,
        warm_start=warm_start,
    )
    wall = time.perf_counter() - start
    return sweep, wall


def bench_sweep(repeats: int) -> dict:
    """Cold vs warm scaling sweep: wall-clock, candidates, identity check."""
    results = {}
    optima = {}
    for label, warm in (("cold", False), ("warm", True)):
        best_wall = float("inf")
        sweep = None
        for _ in range(repeats):
            sweep, wall = _sweep_once(warm)
            best_wall = min(best_wall, wall)
        points = sweep.points
        candidates = sum(p.result.statistics.candidates_evaluated for p in points)
        warm_hits = sum(p.result.statistics.warm_start_hits for p in points)
        optima[label] = [
            (p.n_gpus, p.result.best.config.describe(), p.result.best.total_time)
            for p in points
            if p.found
        ]
        results[label] = {
            "wall_seconds": round(best_wall, 4),
            "candidates_evaluated": candidates,
            "warm_start_hits": warm_hits,
        }
    if optima["cold"] != optima["warm"]:
        raise SystemExit(
            "FATAL: warm-started sweep found different optima than the cold "
            f"sweep:\ncold: {optima['cold']}\nwarm: {optima['warm']}"
        )
    cold, warm = results["cold"], results["warm"]
    return {
        "model": SWEEP_MODEL,
        "system": "-NVS".join(str(x) for x in SWEEP_SYSTEM),
        "strategy": SWEEP_STRATEGY,
        "global_batch": SWEEP_BATCH,
        "gpus": list(SWEEP_GPUS),
        "repeats": repeats,
        "cold": cold,
        "warm": warm,
        "optima_identical": True,
        "candidate_ratio": round(
            cold["candidates_evaluated"] / warm["candidates_evaluated"], 3
        ),
        "wall_ratio": round(cold["wall_seconds"] / warm["wall_seconds"], 3),
    }


#: 20-request replay: structurally similar planning traffic.  No request
#: repeats exactly (so the exact-fingerprint result cache never
#: short-circuits a solve); the reduced-fingerprint hint index is the only
#: thing the warm app can lean on.
def _replay_requests():
    requests = []
    for gpus in (4096, 8192, 16384, 32768):
        for batch in (4096, 2048):
            requests.append(
                (
                    "search",
                    {
                        "workload": SWEEP_MODEL,
                        "gpu": "B200",
                        "nvs": 64,
                        "gpus": gpus,
                        "global_batch": batch,
                    },
                )
            )
    for gpus in (64, 128):
        for rate in (10.0, 20.0, 40.0):
            requests.append(
                (
                    "serve",
                    {
                        "workload": "llama70b-serve",
                        "gpu": "B200",
                        "nvs": 8,
                        "gpus": gpus,
                        "arrival_rate": rate,
                    },
                )
            )
    for gpus in (65536, 131072):
        for batch in (4096, 8192, 2048):
            requests.append(
                (
                    "search",
                    {
                        "workload": SWEEP_MODEL,
                        "gpu": "B200",
                        "nvs": 64,
                        "gpus": gpus,
                        "global_batch": batch,
                    },
                )
            )
    assert len(requests) == 20, len(requests)
    return requests


def bench_api_replay(repeats: int) -> dict:
    """Replay 20 planning requests through a cold and a warm PlannerApp."""
    from repro.serve_api import PlannerApp

    requests = _replay_requests()
    results = {}
    answers = {}
    for label, warm in (("cold", False), ("warm", True)):
        best_wall = float("inf")
        for _ in range(repeats):
            clear_caches()
            app = PlannerApp(warm_start=warm)
            candidates = 0
            summaries = []
            start = time.perf_counter()
            for endpoint, payload in requests:
                body = getattr(app, endpoint)(payload)
                candidates += body["statistics"]["candidates_evaluated"]
                # Threshold-dependent work counters legitimately differ
                # between cold and warm solves; everything else must match.
                summaries.append(
                    {
                        k: v
                        for k, v in body["summary"].items()
                        if k not in ("candidates_evaluated", "pruned_configs")
                    }
                )
            wall = time.perf_counter() - start
            status = app.status()
            app.close()
            best_wall = min(best_wall, wall)
        answers[label] = summaries
        results[label] = {
            "wall_seconds": round(best_wall, 4),
            "candidates_evaluated": candidates,
            "warm_start_hits": status["warm_start_hits"],
            "hint_index_keys": status["cache"]["hint_keys"],
            "hint_index_entries": status["cache"]["hint_entries"],
        }
    if answers["cold"] != answers["warm"]:
        raise SystemExit(
            "FATAL: warm API replay returned different answers than cold"
        )
    cold, warm = results["cold"], results["warm"]
    return {
        "requests": len(requests),
        "repeats": repeats,
        "cold": cold,
        "warm": warm,
        "answers_identical": True,
        "candidate_ratio": round(
            cold["candidates_evaluated"] / warm["candidates_evaluated"], 3
        ),
        "wall_ratio": round(cold["wall_seconds"] / warm["wall_seconds"], 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_search.json",
        help="output path for the machine-readable report",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="wall-clock repeats per mode (best-of-N; candidates are exact)",
    )
    parser.add_argument(
        "--skip-api",
        action="store_true",
        help="only run the scaling-sweep half (faster)",
    )
    args = parser.parse_args(argv)

    print(f"sweep: {SWEEP_MODEL} {SWEEP_STRATEGY} x{len(SWEEP_GPUS)} GPU counts, "
          f"cold vs warm, best of {args.repeats} ...")
    sweep = bench_sweep(args.repeats)
    print(
        f"  cold: {sweep['cold']['wall_seconds']:.3f}s, "
        f"{sweep['cold']['candidates_evaluated']} candidates\n"
        f"  warm: {sweep['warm']['wall_seconds']:.3f}s, "
        f"{sweep['warm']['candidates_evaluated']} candidates "
        f"({sweep['warm']['warm_start_hits']} hint hits)\n"
        f"  ratios: {sweep['candidate_ratio']:.2f}x candidates, "
        f"{sweep['wall_ratio']:.2f}x wall-clock"
    )

    report = {
        "benchmark": "warm-started search",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "sweep": sweep,
    }
    if not args.skip_api:
        print("api replay: 20 requests, cold vs warm app ...")
        replay = bench_api_replay(max(1, args.repeats - 1))
        print(
            f"  cold: {replay['cold']['wall_seconds']:.3f}s, "
            f"{replay['cold']['candidates_evaluated']} candidates\n"
            f"  warm: {replay['warm']['wall_seconds']:.3f}s, "
            f"{replay['warm']['candidates_evaluated']} candidates "
            f"({replay['warm']['warm_start_hits']} hint hits, "
            f"{replay['warm']['hint_index_entries']} hints indexed)\n"
            f"  ratios: {replay['candidate_ratio']:.2f}x candidates, "
            f"{replay['wall_ratio']:.2f}x wall-clock"
        )
        report["api_replay"] = replay

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
