#!/usr/bin/env python
"""Tier-2 wall-clock guard for the optimal-configuration search hot path.

Times the optimal-configuration search on the gpt3-1t preset (the paper's
headline workload) with both pricers and fails when either best-of-N
wall-clock regresses more than the tolerance over its committed baseline:

* ``benchmarks/baselines/search_gpt3_1t.json`` — the scalar oracle path:
  :func:`repro.core.search.find_optimal_config` in-process with the
  engine's default ``eval_mode`` on the point ``repro-perf search``
  searches;
* ``benchmarks/baselines/search_gpt3_1t_batch.json`` — ``repro-perf
  search`` itself, which the runtime prices with the vectorized batch
  pricer;
* ``benchmarks/baselines/sweep_gpt3_1t.json`` — the fig. 4a-style
  scaling sweep through :func:`repro.analysis.sweeps.scaling_sweep`;
* ``benchmarks/baselines/pareto_gpt3_1t.json`` — the multi-objective
  Pareto search (``find_pareto_configs``, all strategies, batch pricer).
  Besides the wall-clock budget this baseline pins the *exact* frontier
  size — the frontier is deterministic, so any drift means the dominance
  logic (not the machine) changed.

On top of the per-mode baselines the guard asserts the *relative* speedup
that justifies the vectorized pricer's existence: the batch search must be
at least :data:`MIN_BATCH_SPEEDUP`x faster than the scalar search, measured
in the same run.  That check compares two measurements from the same
machine and process, so it needs no calibration and cannot be fooled by
runner speed.

The guard is deliberately end-to-end — it exercises candidate enumeration,
the cost-plan build/reduce, branch-and-bound pruning, the NumPy batch
pricer and the CLI — so a slowdown anywhere on the search path trips it.
The scalar baseline skips the CLI (which no longer offers the scalar
pricer); its few milliseconds of argument parsing and printing are noise
next to the search.

Usage::

    PYTHONPATH=src python scripts/perf_guard.py            # check
    PYTHONPATH=src python scripts/perf_guard.py --update   # refresh baselines

The baselines are portable across machines: alongside the wall-clock each
records a *calibration* time — a fixed pure-Python workload measured on the
same machine — and the budget scales by the ratio of the checking machine's
calibration to the baseline's, so a slower CI runner gets a proportionally
larger budget (and a faster one a tighter budget) instead of failing or
passing on hardware speed alone.  Residual variance is absorbed by the
tolerance (default 25%, overridable with ``--tolerance`` or the
``PERF_GUARD_TOLERANCE`` environment variable) and by taking the *best* of
several repeats, which is far less noisy than the mean under CI load.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "search_gpt3_1t.json"
DEFAULT_BATCH_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "search_gpt3_1t_batch.json"
)
DEFAULT_SWEEP_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "sweep_gpt3_1t.json"
DEFAULT_PARETO_BASELINE = (
    REPO_ROOT / "benchmarks" / "baselines" / "pareto_gpt3_1t.json"
)

#: The guarded command: the gpt3-1t preset across all three strategies at a
#: figure-scale GPU count — a few seconds of work, so the measurement
#: dominates interpreter start-up noise.  The CLI prices it in batch.
SEARCH_ARGV = [
    "search", "--model", "gpt3-1t", "--gpus", "4096", "--strategy", "all", "--top-k", "5",
]

#: What the scalar baseline runs: the point ``SEARCH_ARGV`` searches (the
#: CLI's default B200 NVS-8 system and global batch 4096), priced by the
#: scalar oracle.
SCALAR_SEARCH = (
    "find_optimal_config(gpt3-1t, B200-NVS8, n_gpus=4096, global_batch_size=4096, "
    "strategy='all', top_k=5)"
)

#: Minimum end-to-end speedup of the batch path over the scalar path,
#: measured back-to-back in the same process.  The array programs price the
#: pinned search roughly 8-9x faster than the scalar loop; 3x leaves headroom
#: for CI noise while still failing if vectorization silently degrades to
#: per-candidate work.
MIN_BATCH_SPEEDUP = 3.0

#: The guarded scaling sweep: the gpt3-1t preset across the fig. 4a GPU
#: grid on a B200 NVS-64 system, every point searched cold with the batch
#: pricer.
SWEEP_GPUS = "4096,8192,16384,32768,65536,131072"
SWEEP_ARGV = [
    "scaling", "--model", "gpt3-1t", "--gpu", "B200", "--nvs", "64",
    "--gpus", SWEEP_GPUS, "--global-batch", "4096", "--strategy", "tp1d",
]

#: The guarded multi-objective search: the gpt3-1t preset, every strategy,
#: the default four-objective set, vectorized pricing.
PARETO_ARGV = [
    "pareto", "--model", "gpt3-1t", "--gpus", "4096", "--strategy", "all",
]


def calibrate(repeats: int = 3) -> float:
    """Machine-speed proxy: best-of-N of a fixed pure-Python workload.

    The guarded search is dominated by pure-Python enumeration and float
    arithmetic, so a plain interpreter-bound loop tracks its speed across
    machines far better than any hardware spec would.
    """
    def once() -> float:
        acc = 0.0
        for i in range(1, 400_001):
            acc += (i % 7) * 0.5 + i / 3.0
        return acc

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        once()
        best = min(best, time.perf_counter() - start)
    return best


def time_search(argv, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock of the guarded CLI search (seconds)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import main
    from repro.core.execution import clear_caches

    best = float("inf")
    for _ in range(repeats):
        clear_caches()  # every repeat measures the cold-cache hot path
        sink = StringIO()
        start = time.perf_counter()
        with redirect_stdout(sink):
            rc = main(argv)
        elapsed = time.perf_counter() - start
        if rc != 0:
            raise SystemExit(f"guarded search failed with exit code {rc}")
        best = min(best, elapsed)
    return best


def time_scalar_search(repeats: int) -> float:
    """Best-of-``repeats`` wall-clock of :data:`SCALAR_SEARCH` (seconds).

    Runs :func:`repro.core.search.find_optimal_config` in-process with the
    engine's default ``eval_mode``, the per-candidate scalar oracle, on the
    model, space and options ``repro-perf search`` resolves for
    :data:`SEARCH_ARGV`.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.execution import clear_caches
    from repro.core.search import find_optimal_config
    from repro.core.system import make_system
    from repro.core.workloads import get_workload, scenario_space

    model = get_workload("gpt3-1t").model
    system = make_system("B200", 8)
    space = scenario_space("gpt3-1t")
    best = float("inf")
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        result = find_optimal_config(
            model, system, n_gpus=4096, global_batch_size=4096,
            strategy="all", space=space, top_k=5,
        )
        best = min(best, time.perf_counter() - start)
        if not result.found:
            raise SystemExit("guarded scalar search found no configuration")
    return best


def time_sweep(repeats: int) -> float:
    """Best-of-``repeats`` wall-clock of the guarded scaling sweep (seconds).

    Runs :func:`repro.analysis.sweeps.scaling_sweep` in-process, the CLI
    command ``repro-perf scaling`` over the same grid.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis.sweeps import scaling_sweep
    from repro.core.execution import clear_caches
    from repro.core.model import get_model
    from repro.core.system import make_system

    model = get_model("gpt3-1t")
    system = make_system("B200", 64)
    best = float("inf")
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        scaling_sweep(
            model,
            system,
            strategy="tp1d",
            n_gpus_list=[int(x) for x in SWEEP_GPUS.split(",")],
            global_batch_size=4096,
        )
        best = min(best, time.perf_counter() - start)
    return best


def time_pareto(repeats: int):
    """Best-of-``repeats`` wall-clock and exact frontier size of the Pareto search.

    Runs :func:`repro.core.search.find_pareto_configs` in-process (the CLI
    command is ``repro-perf pareto`` over the same point) so the guard can
    read the deterministic frontier size alongside the wall-clock.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.execution import clear_caches
    from repro.core.model import get_model
    from repro.core.search import find_pareto_configs
    from repro.core.system import make_system

    model = get_model("gpt3-1t")
    system = make_system("B200", 8)
    best = float("inf")
    frontier_size = 0
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        result = find_pareto_configs(
            model, system, n_gpus=4096, global_batch_size=4096,
            strategy="all", eval_mode="batch",
        )
        best = min(best, time.perf_counter() - start)
        frontier_size = len(result.points)
    return best, frontier_size


def _write_baseline(
    path: Path, command: str, measured: float, calibration: float, repeats: int, **extra
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "command": command,
                "wall_seconds": round(measured, 4),
                "calibration_seconds": round(calibration, 5),
                "repeats": repeats,
                "platform": platform.platform(),
                "python": platform.python_version(),
                **extra,
            },
            indent=2,
        )
        + "\n"
    )


def _command(argv) -> str:
    """The shell form of a ``repro-perf`` invocation, as baselines record it."""
    return "repro-perf " + " ".join(argv)


def _check_baseline(
    label: str, path: Path, measured: float, calibration: float, tolerance: float
) -> bool:
    """Print a verdict line for one baseline; True when within budget."""
    baseline = json.loads(path.read_text())
    # Normalize for machine speed: a runner whose calibration loop is k×
    # slower than the baseline machine's gets a k× larger budget.
    speed_ratio = (
        calibration / baseline["calibration_seconds"]
        if baseline.get("calibration_seconds")
        else 1.0
    )
    budget = baseline["wall_seconds"] * speed_ratio * (1.0 + tolerance)
    ok = measured <= budget
    print(
        f"{'OK' if ok else 'REGRESSION'}: {label} search took {measured:.3f}s "
        f"(baseline {baseline['wall_seconds']:.3f}s, machine-speed ratio "
        f"{speed_ratio:.2f}x, budget {budget:.3f}s, "
        f"tolerance {100 * tolerance:.0f}%)"
    )
    return ok


def main_guard(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--batch-baseline", type=Path, default=DEFAULT_BATCH_BASELINE)
    parser.add_argument("--sweep-baseline", type=Path, default=DEFAULT_SWEEP_BASELINE)
    parser.add_argument("--pareto-baseline", type=Path, default=DEFAULT_PARETO_BASELINE)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PERF_GUARD_TOLERANCE", "0.25")),
        help="allowed fractional regression over the baseline (default 0.25)",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baselines from this run"
    )
    args = parser.parse_args(argv)

    measured = time_scalar_search(args.repeats)
    measured_batch = time_search(SEARCH_ARGV, args.repeats)
    sweep_wall = time_sweep(args.repeats)
    pareto_wall, frontier_size = time_pareto(args.repeats)
    calibration = calibrate()

    if (
        args.update
        or not args.baseline.exists()
        or not args.batch_baseline.exists()
        or not args.sweep_baseline.exists()
        or not args.pareto_baseline.exists()
    ):
        _write_baseline(args.baseline, SCALAR_SEARCH, measured, calibration, args.repeats)
        _write_baseline(
            args.batch_baseline, _command(SEARCH_ARGV), measured_batch, calibration,
            args.repeats,
        )
        _write_baseline(
            args.sweep_baseline, _command(SWEEP_ARGV), sweep_wall, calibration, args.repeats
        )
        _write_baseline(
            args.pareto_baseline, _command(PARETO_ARGV), pareto_wall, calibration,
            args.repeats, frontier_size=frontier_size,
        )
        print(
            f"baselines written: scalar {measured:.3f}s, batch {measured_batch:.3f}s, "
            f"sweep {sweep_wall:.3f}s, pareto {pareto_wall:.3f}s "
            f"({frontier_size} frontier points, calibration {calibration:.4f}s) "
            f"-> {args.baseline.parent}"
        )
        return 0

    ok = _check_baseline("scalar", args.baseline, measured, calibration, args.tolerance)
    ok &= _check_baseline(
        "batch", args.batch_baseline, measured_batch, calibration, args.tolerance
    )
    ok &= _check_baseline(
        "sweep", args.sweep_baseline, sweep_wall, calibration, args.tolerance
    )
    ok &= _check_baseline(
        "pareto", args.pareto_baseline, pareto_wall, calibration, args.tolerance
    )

    expected_frontier = json.loads(args.pareto_baseline.read_text()).get("frontier_size")
    if expected_frontier is None or frontier_size == expected_frontier:
        print(
            f"OK: pareto frontier has exactly {frontier_size} points "
            f"(deterministic, baseline {expected_frontier})"
        )
    else:
        ok = False
        print(
            f"REGRESSION: pareto frontier has {frontier_size} points, baseline "
            f"pinned {expected_frontier} — the dominance logic changed, not the machine"
        )

    speedup = measured / measured_batch if measured_batch > 0 else float("inf")
    if speedup >= MIN_BATCH_SPEEDUP:
        print(
            f"OK: vectorized search is {speedup:.1f}x faster than scalar "
            f"(floor {MIN_BATCH_SPEEDUP:.0f}x)"
        )
    else:
        ok = False
        print(
            f"REGRESSION: vectorized search is only {speedup:.1f}x faster than "
            f"scalar (floor {MIN_BATCH_SPEEDUP:.0f}x)"
        )

    if not ok:
        print(
            "the search hot path regressed; investigate before merging, or "
            "refresh the baselines with --update if the slowdown is intentional",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main_guard())
