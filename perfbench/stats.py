"""Pure helpers behind the benchmark's figures: percentiles with their
sample count, span self time, and the error rate.

Nothing here imports the simulator, so the self-tests run in milliseconds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of
    ``count`` samples."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """``percentile(samples, q)`` when at least ``min_beyond`` samples lie
    beyond it, else ``None`` (too few samples to say anything about the
    tail)."""
    if beyond(len(samples), q) < min_beyond:
        return None
    return percentile(samples, q)


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[float, float, Optional[int]]]
               ) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span: its duration
    minus the part of it that its direct children cover.  Children are
    clipped to the parent's interval."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            p_start, p_end = spans[parent][0], spans[parent][1]
            children.setdefault(parent, []).append(
                (max(start, p_start), min(end, p_end)))
    return [(end - start) - union_length(children.get(index, ()))
            for index, (start, end, _parent) in enumerate(spans)]


def error_rate(failed: int, ops: int) -> float:
    """Failed ops over attempted ops; ``ops`` must be at least 1."""
    if ops < 1:
        raise ValueError("error_rate needs at least one attempted op")
    if not 0 <= failed <= ops:
        raise ValueError(f"failed={failed} outside [0, ops={ops}]")
    return failed / ops
