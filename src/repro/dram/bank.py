"""Per-bank DRAM state: open row tracking and ready-time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..analysis import contracts
from .timing import DramTiming


@dataclass(slots=True)
class Bank:
    """One DRAM bank's row-buffer state machine.

    The bank is modelled with two pieces of state: the currently open row
    (or ``None`` after a precharge) and the cycle at which the bank can
    accept its next column command.  Row hit/closed/conflict latencies come
    from :class:`~repro.dram.timing.DramTiming`.
    """

    timing: DramTiming
    open_row: Optional[int] = None
    ready_cycle: int = 0
    row_hits: int = 0
    row_misses: int = 0
    #: cycle of the last activate, to honour the tRC window
    last_activate: int = field(default=-(10 ** 9))
    #: timing sums the access path reads, derived once from ``timing``:
    #: ``(t_bl, t_rc, t_rp, t_wr, t_rcd + t_bl, t_rp + t_rcd + t_bl,
    #: hit latency, closed latency, conflict latency)``
    _sums: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        timing = self.timing
        self._sums = (timing.t_bl, timing.t_rc, timing.t_rp, timing.t_wr,
                      timing.t_rcd + timing.t_bl,
                      timing.t_rp + timing.t_rcd + timing.t_bl,
                      timing.row_hit_latency, timing.row_closed_latency,
                      timing.row_conflict_latency)

    def access(self, row: int, now: int, is_write: bool = False) -> int:
        """Perform an access to ``row`` starting no earlier than ``now``.

        Returns the cycle at which the data burst completes.  Updates the
        open row and the bank's ready time.  Successive column commands to
        an open row pipeline at the burst rate (tCCD ~= tBL), so the bank
        becomes ready for the *next* command well before this access's data
        has returned -- this is what lets streaming traffic approach the
        bus's peak bandwidth.  The caller (the DRAM device) serialises data
        bursts on the shared channel bus.
        """
        guarded = contracts.is_enabled()
        if guarded:
            contracts.check(isinstance(now, int) and isinstance(row, int),
                            "Bank.access(row=%r, now=%r): cycles and rows "
                            "are integers", row, now)
            contracts.check(now >= 0, "Bank.access at negative cycle %r",
                            now)
            prev_ready = self.ready_cycle
        (t_bl, t_rc, t_rp, t_wr, t_rcd_bl, t_rp_rcd_bl,
         hit_latency, closed_latency, conflict_latency) = self._sums
        start = self.ready_cycle
        if now > start:
            start = now
        open_row = self.open_row
        if open_row == row:
            done = start + hit_latency
            next_ready = start + t_bl
            self.row_hits += 1
        else:
            gate = self.last_activate + t_rc
            if gate > start:
                start = gate
            if open_row is None:
                done = start + closed_latency
                next_ready = start + t_rcd_bl
                self.last_activate = start
            else:  # conflict: precharge, then activate
                done = start + conflict_latency
                next_ready = start + t_rp_rcd_bl
                self.last_activate = start + t_rp
            self.row_misses += 1
            self.open_row = row
        if is_write:
            next_ready += t_wr
        self.ready_cycle = next_ready
        if guarded:
            # Row-buffer legality: the access leaves ``row`` open, never
            # finishes before it starts, and bank readiness only advances.
            contracts.check(self.open_row == row,
                            "Bank left row %r open after accessing row %r",
                            self.open_row, row)
            contracts.check(done >= start >= now,
                            "Bank access time ran backwards: now=%d "
                            "start=%d done=%d", now, start, done)
            contracts.check(self.ready_cycle >= prev_ready,
                            "Bank ready_cycle regressed from %d to %d",
                            prev_ready, self.ready_cycle)
            contracts.check(self.last_activate <= self.ready_cycle,
                            "Bank last_activate %d beyond ready_cycle %d",
                            self.last_activate, self.ready_cycle)
        return done

    def refresh(self, now: int) -> None:
        """Apply a refresh: closes the row and blocks the bank for tRFC."""
        prev_ready = self.ready_cycle
        start = max(now, self.ready_cycle)
        self.open_row = None
        self.ready_cycle = start + self.timing.t_rfc
        if contracts.is_enabled():
            contracts.check(self.ready_cycle >= prev_ready,
                            "Bank refresh regressed ready_cycle from %d "
                            "to %d", prev_ready, self.ready_cycle)
