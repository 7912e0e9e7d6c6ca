"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank ``pct`` percentile, or ``None`` when it is not resolved.

    The value at rank ``ceil(pct/100 * n)`` of the sorted samples; ``None``
    unless at least :data:`MIN_BEYOND` samples rank above it.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]
