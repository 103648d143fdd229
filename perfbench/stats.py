"""Summary statistics the benchmark reports.

Timings are summarised as a median plus a tail: the highest percentile
that still has at least :data:`TAIL_BEYOND` samples above it, stated
together with the sample count, so a tail read off 48 cells and one
read off 480 cells are never confused.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle pair)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """Highest whole percentile with at least ``beyond`` samples above it.

    Under the nearest-rank rule the ``p``-th percentile of ``count``
    samples is the sample of rank ``ceil(p * count / 100)``, which
    leaves ``count - rank`` samples beyond it. ``None`` when even the
    first percentile leaves fewer than ``beyond``.
    """
    for pct in range(99, 0, -1):
        rank = max(1, math.ceil(pct * count / 100))
        if count - rank >= beyond:
            return pct
    return None


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Dict[str, float]:
    """``{"pct", "value", "samples"}`` for the reportable tail.

    Falls back to the median (``pct`` 50) when there are too few
    samples for any percentile to leave ``beyond`` of them above it.
    """
    pct = tail_percentile(len(values), beyond)
    if pct is None:
        return {"pct": 50, "value": median(values), "samples": len(values)}
    return {
        "pct": pct,
        "value": nearest_rank(values, pct),
        "samples": len(values),
    }


def cell_samples(cells: Iterable[Sequence]) -> List[float]:
    """One latency sample per cell of a run, from ``(kind, seconds, key)``.

    The run repeats the same cells in every command, so each cell (by
    kind and cache key) contributes the median of its repetitions, and
    the p50 and tail are taken over the cells with a percentile fixed
    by the spec's cell count, whatever the number of commands. A cache
    hit (``kind == "hit"``) takes tens of microseconds, shorter than
    the host's contention bursts: its repetitions flip between a fast
    and a slow mode and their median follows the share of slow moments
    rather than the program, so a hit cell contributes its best
    repetition instead (the ``timeit`` convention).
    """
    repetitions: Dict[Tuple[str, str], List[float]] = {}
    for kind, seconds, key in cells:
        repetitions.setdefault((kind, key), []).append(seconds)
    return [
        min(values) if kind == "hit" else median(values)
        for (kind, _), values in repetitions.items()
    ]


def fail_ratio(attempted: int, failed: int) -> float:
    """Cells failed over cells attempted.

    A cell fails when it raised or failed an output check; infeasible
    (out-of-memory) cells are valid outcomes and never count here.
    """
    if attempted < 1:
        raise ValueError("no cells attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
