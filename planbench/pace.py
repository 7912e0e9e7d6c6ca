"""Host pace: how fast this host runs plain Python at the moment.

The vCPUs of a shared host change speed by up to ~2x from one moment to
the next (another tenant on the sibling hyper-thread), for stretches of
tens of milliseconds to minutes, and process CPU time slows with them.
Left alone, that drift decides a run's latency more than the planner does.

A fixed probe loop, independent of the planner's code, is therefore timed
before every op and once after the last.  An op's *busy* time (its process
CPU time, at most its wall time) is rescaled to the reference pace, at
which the probe takes :data:`REFERENCE_S`, using the median of the probes
that bracket it; its *waiting* time (wall minus busy: sockets, timers) is
kept as measured.  A change to the planner moves the rescaled times by the
same share as the raw ones, because the probe does not run planner code.
"""

from __future__ import annotations

import time
from statistics import median
from typing import List, Sequence, Tuple

#: Probe time of the reference pace, inside the 0.48-0.97 ms the probe took
#: on a 2-vCPU x86-64 container.
REFERENCE_S = 0.7e-3

#: Probes on each side of an op that its pace is the median of.
WINDOW = 2


def _probe_loop() -> float:
    table = {}
    total = 0.0
    pairs = []
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0.0) + i * 1.0001
        total += (i % 7) * 0.5
        if i & 15 == 0:
            pairs.append((key, total))
            pairs.sort()
    return total


def probe() -> float:
    """Wall seconds of the probe loop: the faster of two back-to-back runs.

    The pace holds for tens of milliseconds, so the second run sees the
    same pace; taking the faster drops a run that another thread of the
    process (the api-replay server finishing a request) interrupted.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - start)
    return best


def rescale(wall: float, cpu: float, probe_s: float) -> Tuple[float, float]:
    """``(wall, cpu)`` of an interval at the reference pace.

    ``probe_s`` is the probe time measured around the interval.
    """
    busy = min(max(cpu, 0.0), wall)
    scale = REFERENCE_S / probe_s
    return wall - busy + busy * scale, cpu * scale


def rescale_ops(walls: Sequence[float], cpus: Sequence[float],
                probes: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Per-op ``(walls, cpus)`` at the reference pace.

    ``probes[i]`` was taken just before op ``i`` and ``probes[i + 1]`` just
    after it; op ``i`` uses the median of the :data:`WINDOW` probes on each
    side of it.
    """
    if len(probes) != len(walls) + 1:
        raise ValueError(f"{len(probes)} probes for {len(walls)} ops; expected one more")
    out_wall, out_cpu = [], []
    for i, (wall, cpu) in enumerate(zip(walls, cpus)):
        around = probes[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        w, c = rescale(wall, cpu, median(around))
        out_wall.append(w)
        out_cpu.append(c)
    return out_wall, out_cpu
