"""Struct-of-arrays trace columns for the batched simulation kernel.

The heap kernel replays traces through the iterator protocol and derives
everything per access: line number, cache set.  The batched kernel
instead precomputes the derived values *once per trace* as parallel
columns -- ``works`` / ``addrs`` / ``iswrites`` / ``lines`` -- using
numpy int64 array ops over the whole event stream (one vectorized shift
instead of one Python shift per replayed access).  DRAM coordinates are
not precomputed here: a request is located once, when it reaches the
memory controller (:meth:`~repro.dram.device.DramDevice.locate`).

Columns are converted back to plain Python scalars (``ndarray.tolist``)
before they leave this module: the hot loops index them as ordinary lists
(CPython list indexing beats numpy scalar extraction), and no ``np.int64``
ever reaches a statistic, a fingerprint, or a JSON document.

Everything here is memoized per ``(profile, seed)`` -- the same key the
trace generator's own memo uses -- because the same seeded trace drives
many systems (slowdown baselines, benchmark repeats, GA evaluations).
numpy is optional: without it the columns are built by plain Python loops
with identical results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, NamedTuple, Optional, Tuple

try:  # pragma: no cover - exercised implicitly by every batched run
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

#: bounded memo (same policy as the trace generator's stream memo)
_COLUMN_MEMO: "OrderedDict[Tuple, TraceColumns]" = OrderedDict()
_MEMO_MAX = 64


class TraceColumns(NamedTuple):
    """Parallel per-event columns of one trace (do not mutate)."""

    #: compute gap before each access, in cycles
    works: List[int]
    #: byte address of each access
    addrs: List[int]
    #: write flag of each access
    iswrites: List[bool]
    #: cache-line number (``address >> log2(line_bytes)``)
    lines: List[int]
    #: zipped ``(work, address, is_write, line)`` rows -- the core's run
    #: loop fetches one row per access (one index plus an unpack) instead
    #: of four column indexings
    rows: List[Tuple[int, int, bool, int]]

    @property
    def length(self) -> int:
        return len(self.works)


def _shift_for(value: int) -> Optional[int]:
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def trace_key(trace) -> Optional[Tuple]:
    """Hashable memo key of a trace, or ``None`` when not memoizable."""
    profile = getattr(trace, "profile", None)
    seed = getattr(trace, "seed", None)
    if profile is None or seed is None:
        return None
    try:
        hash((profile, seed))
    except TypeError:
        return None
    return (profile, seed)


def _memo_put(memo: OrderedDict, key: Tuple, value) -> None:
    memo[key] = value
    if len(memo) > _MEMO_MAX:
        memo.popitem(last=False)


def trace_columns(trace, line_bytes: int) -> Optional[TraceColumns]:
    """Build (or fetch) the SoA columns of ``trace``.

    Returns ``None`` when the trace cannot be materialised as columns
    (non-power-of-two line size, or events that are not 4-field
    ``(work, address, is_write, depends)`` records); callers fall back to
    the iterator-driven core model in that case.
    """
    shift = _shift_for(line_bytes)
    if shift is None:
        return None
    key = trace_key(trace)
    memo_key = (key, shift) if key is not None else None
    if memo_key is not None:
        cached = _COLUMN_MEMO.get(memo_key)
        if cached is not None:
            return cached
    try:
        events = tuple(iter(trace))
    except TypeError:
        return None
    if not events:
        return None
    columns = _build_columns(events, shift)
    if columns is not None and memo_key is not None:
        _memo_put(_COLUMN_MEMO, memo_key, columns)
    return columns


def _build_columns(events: Tuple, shift: int) -> Optional[TraceColumns]:
    if _np is not None:
        try:
            table = _np.array(events, dtype=_np.int64)
        except (TypeError, ValueError):
            return None
        if table.ndim != 2 or table.shape[1] < 3:
            return None
        addrs_col = table[:, 1]
        works = table[:, 0].tolist()
        addrs = addrs_col.tolist()
        iswrites = (table[:, 2] != 0).tolist()
        lines = (addrs_col >> shift).tolist()
        return TraceColumns(works, addrs, iswrites, lines,
                            list(zip(works, addrs, iswrites, lines)))
    works: List[int] = []
    addrs: List[int] = []
    iswrites: List[bool] = []
    lines: List[int] = []
    try:
        for event in events:
            works.append(int(event[0]))
            addrs.append(int(event[1]))
            iswrites.append(bool(event[2]))
            lines.append(int(event[1]) >> shift)
    except (TypeError, IndexError):
        return None
    return TraceColumns(works, addrs, iswrites, lines,
                        list(zip(works, addrs, iswrites, lines)))
