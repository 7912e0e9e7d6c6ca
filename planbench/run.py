#!/usr/bin/env python3
"""Layered planner benchmark: one command measures, traces and checks.

Usage (from the repository root)::

    python3 planbench/run.py --workload design-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``planbench/README.md``).  A readable report
comes first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from planbench import pace  # noqa: E402  (pure Python, imports no planner code)

#: Pace probes taken on each side of the set-up; it is rescaled by their median.
SETUP_PACE_PROBES = 3

_SETUP_PACE = [pace.probe() for _ in range(SETUP_PACE_PROBES)]
_STARTED = time.perf_counter(), time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from planbench import ops as op_lists  # noqa: E402  (pure Python, imports no planner code)
from planbench.stats import percentile  # noqa: E402

#: Nominal pass length per workload on a 2-vCPU x86-64 container; a run
#: replays the op list ``round(seconds / PASS_SECONDS)`` times (at least
#: once) and keeps each op's best time.
PASS_SECONDS = {"design-sweep": 7.5, "pareto-frontier": 10.0, "api-replay": 10.0}

#: Extra set-ups, each in a fresh interpreter, that ``setup_s`` takes the
#: median over (with the run's own set-up).
SETUP_RUNS = 2

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=op_lists.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default seed's answers as the reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_s() -> float:
    """Seconds since set-up began, at the pace probed on both sides of it."""
    wall = time.perf_counter() - _STARTED[0]
    cpu = time.process_time() - _STARTED[1]
    after = [pace.probe() for _ in range(SETUP_PACE_PROBES)]
    return pace.rescale(wall, cpu, statistics.median(_SETUP_PACE + after))[0]


def _probe_setups(workload: str) -> List[float]:
    """Set-up times of ``SETUP_RUNS`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _best(per_pass: List[List[float]]) -> List[float]:
    return [min(times) for times in zip(*per_pass)]


def _paced(result) -> Tuple[List[float], List[float]]:
    """Per-op wall and CPU seconds of a pass at the reference pace."""
    return pace.rescale_ops(result.latencies, result.cpu, result.probes)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no planner source under {ROOT / 'src'}; run from a checkout")
    ops = op_lists.op_list(args.workload, args.seed)

    from planbench import answers as checks
    from planbench import drivers
    from planbench.tracer import LAYER_METRICS, Tracer

    runner = drivers.RUNNERS[args.workload]()
    if args.setup_probe:
        runner.open()
        elapsed = _setup_s()
        runner.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.record_reference and (args.seed != checks.DEFAULT_SEED or args.trace):
        raise SystemExit(f"--record-reference needs --seed {checks.DEFAULT_SEED} --trace 0")

    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    schedule = [True, False] * max(1, round(passes / 2)) if args.trace else [False] * passes
    tracer = Tracer() if args.trace else None
    results = []
    setup_s = None
    for traced in schedule:
        drivers.reset_process()
        runner.open()
        if setup_s is None:
            setup_s = _setup_s()
        if traced:
            tracer.install()
        try:
            results.append((traced, runner.run(ops, tracer if traced else None)))
        finally:
            if traced:
                tracer.uninstall()
            runner.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ------------------------------------------------------------------
    # Answers: re-price pass 1, hold every other pass to pass 1.
    # ------------------------------------------------------------------
    first = results[0][1]
    n_ops = len(first.latencies)
    wrong: Dict[int, str] = {}
    if len(first.answers) != n_ops:
        wrong[-1] = f"{len(first.answers)} answers for {n_ops} timed ops"
    wrong.update(checks.check_answers(args.workload, ops, first.answers, first.context))
    if args.seed == checks.DEFAULT_SEED and not args.record_reference:
        wrong.update(checks.compare_reference(args.workload, first.answers))
    reference = checks.normalized(first.answers)
    failed = 0
    for _, result in results:
        bad = dict(wrong)
        bad.update(result.errors)
        if len(result.latencies) != n_ops:
            bad[-1] = f"{len(result.latencies)} timed ops, pass 1 had {n_ops}"
        bad.update({i: "answer differs from pass 1"
                    for i, got in enumerate(checks.normalized(result.answers))
                    if i < len(reference) and got != reference[i]})
        failed += len(bad)
        for i, why in sorted(bad.items())[:10]:
            print(f"FAILED op {i}: {why}", file=sys.stderr)
    attempted = n_ops * len(results)
    correct = failed == 0
    if args.record_reference:
        if not correct:
            raise SystemExit("answers failed their checks; reference not recorded")
        print(f"recorded {checks.record_reference(args.workload, first.answers)}")

    print(f"planbench {args.workload} seed={args.seed} passes={len(results)} "
          f"ops/pass={n_ops} trace={args.trace}")
    if args.trace:
        metrics = _layer_metrics(args, results, tracer, LAYER_METRICS)
        units = dict(LAYER_METRICS)
    else:
        metrics = _end_to_end(results, n_ops, setup_s, peak_rss_mb, args.workload)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':30s} {failed / attempted:14.6g} ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _end_to_end(results, n_ops: int, setup_s: float, peak_rss_mb: float,
                workload: str) -> Dict[str, float]:
    paced = [_paced(result) for _, result in results]
    best = _best([walls for walls, _ in paced])
    best_cpu = _best([cpus for _, cpus in paced])
    p50, p90 = percentile(best, 50), percentile(best, 90)
    if p90 is None:
        raise SystemExit(f"{n_ops} ops per pass leave fewer than 10 samples beyond p90")
    setups = [setup_s, *_probe_setups(workload)]
    raw = _best([result.latencies for _, result in results])
    probes = [p for _, result in results for p in result.probes]
    print(f"  samples: latency/throughput/cpu n={n_ops} (per-op best of {len(results)} "
          f"passes), setup n={len(setups)} (median)")
    print(f"  pace: probe median {statistics.median(probes) * 1e3:.3f} ms "
          f"(reference {pace.REFERENCE_S * 1e3:.3f} ms); as measured, "
          f"p50 {percentile(raw, 50) * 1e3:.2f} ms, p90 {percentile(raw, 90) * 1e3:.2f} ms, "
          f"{n_ops / sum(raw):.2f} ops/s")
    return {
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "throughput_ops_s": n_ops / sum(best),
        "cpu_s": sum(best_cpu),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(args, results, tracer, layer_metrics) -> Dict[str, float]:
    traced = [result for on, result in results if on]
    plain = [result for on, result in results if not on]
    missing = tracer.missing_work(args.workload, http_requests=len(traced[0].latencies)
                                  if args.workload == "api-replay" else 0)
    if missing:
        raise SystemExit(f"traced {args.workload}: no work recorded for {', '.join(missing)}")
    http_s = sum(sum(result.latencies) for result in traced) if args.workload == "api-replay" else 0.0
    values = tracer.layer_metrics(len(traced), http_client_s=http_s)
    untraced_total = sum(_best([_paced(r)[0] for r in plain]))
    traced_total = sum(_best([_paced(r)[0] for r in traced]))
    values["trace.overhead_pct"] = 100.0 * (traced_total - untraced_total) / untraced_total
    from planbench.drivers import WORK_DIR

    path = tracer.dump(WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return {name: values[name] for name, _ in layer_metrics}


if __name__ == "__main__":
    sys.exit(main())
