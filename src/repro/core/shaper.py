"""The MITTS traffic shaper (the paper's primary contribution).

One :class:`MittsShaper` sits at each core between the L1 cache and the
(possibly distributed) shared LLC.  It measures the inter-arrival time of
outgoing memory requests, maps each request to a credit bin, and delays the
request whenever no bin at its inter-arrival time or faster holds a credit.
A delayed request *ages*: as it waits, its inter-arrival time grows, so it
may eventually match a farther-out (slower) bin that still has credits --
exactly the behaviour of Figure 6.

Both hybrid accounting methods of Section III-D are implemented:

* **Method 2** (used in the 25-core tape-out, the default): assume every L1
  miss is an LLC miss and deduct immediately; on an LLC *hit* notification,
  refund the credit to the bin it came from (a per-request pending table
  stores the bin number).
* **Method 1**: record a timestamp per L1 miss, and only deduct once the
  LLC confirms a miss, using the inter-arrival time between confirmed LLC
  misses.  Issue decisions still consult the (lagging) counters, so this
  variant is "slightly aggressive" exactly as the paper describes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .bins import BinConfig
from .credits import CreditState
from .limiter import SourceLimiter
from .replenish import ReplenishPolicy, ResetReplenisher


class MittsShaper(SourceLimiter):
    """Bin-based inter-arrival-time traffic shaper for one core."""

    __slots__ = ("state", "replenisher", "method", "_last_release",
                 "_pending_bin", "_pending_stamp", "_last_confirmed_miss",
                 "released", "stalled_requests", "total_stall_cycles",
                 "refunds")

    METHOD_TIMESTAMP = 1
    METHOD_DEDUCT_REFUND = 2

    def __init__(self, config: BinConfig,
                 replenisher: ReplenishPolicy = None,
                 method: int = METHOD_DEDUCT_REFUND,
                 phase: int = 0) -> None:
        """``phase`` staggers this shaper's replenishment boundary so
        co-running shapers do not burst in lockstep (see
        :class:`~repro.core.replenish.ReplenishPolicy`)."""
        if method not in (self.METHOD_TIMESTAMP, self.METHOD_DEDUCT_REFUND):
            raise ValueError(f"unknown hybrid method {method}")
        self.state = CreditState(config)
        self.replenisher = replenisher or ResetReplenisher(config,
                                                           phase=phase)
        self.method = method
        #: cycle of the last released request (inter-arrival reference);
        #: boots "long ago" so the first request lands in the slowest bin.
        self._last_release: Optional[int] = None
        #: method 2: req_id -> bin the credit was deducted from
        self._pending_bin: Dict[int, int] = {}
        #: method 1: req_id -> release timestamp
        self._pending_stamp: Dict[int, int] = {}
        #: method 1: timestamp of the previous *confirmed* LLC miss
        self._last_confirmed_miss: Optional[int] = None
        # --- statistics ---
        self.released = 0
        self.stalled_requests = 0
        self.total_stall_cycles = 0
        self.refunds = 0

    # ------------------------------------------------------------------
    # configuration

    @property
    def config(self) -> BinConfig:
        return self.state.config

    @property
    def spec(self):
        return self.state.config.spec

    def reconfigure(self, config: BinConfig, now: int = 0,
                    reset_credits: bool = True) -> None:
        """Install a new bin allocation (OS/hypervisor register write)."""
        self.state.reconfigure(config, reset=reset_credits)
        self.replenisher = self.replenisher.for_config(config)
        self.replenisher.reset_clock(now)

    def stall_forever(self) -> bool:
        return self.config.total_credits == 0

    # ------------------------------------------------------------------
    # issue path

    def _interarrival(self, cycle: int) -> int:
        if self._last_release is None:
            # Counter has been running since boot: slowest bin.
            return self.spec.lower_edge(self.spec.num_bins - 1)
        return cycle - self._last_release

    def bin_at(self, cycle: int) -> int:
        """Bin a request released at ``cycle`` would fall into."""
        return self.spec.bin_for_interarrival(self._interarrival(cycle))

    def earliest_issue(self, now: int) -> Optional[int]:
        """First cycle >= ``now`` at which a release is permitted.

        A stalled request ages until its inter-arrival time reaches the
        lowest bin holding a credit; if that comes before the next
        replenishment boundary it is the answer, else ask again of the
        counters the boundary installs (DESIGN.md section 1.1).
        """
        if self.stall_forever():
            return None
        self.replenisher.apply_until(self.state, now)
        t = now
        for counts, until in self.replenisher.upcoming(self.state):
            ready = self._ready_at(counts, t)
            if ready is not None and ready < until:
                return ready
            t = until
        return self._ready_at(self.config.credits, t)

    def _ready_at(self, counts: Sequence[int], t: int) -> Optional[int]:
        """First cycle >= ``t`` a request may release if the counters
        stay ``counts``; ``None`` when no bin holds a credit."""
        for index, count in enumerate(counts):
            if count > 0:
                if self._last_release is None:  # boot: slowest bin
                    return t
                return max(t, self._last_release + self.spec.lower_edge(index))
        return None

    def issue(self, cycle: int, req_id: int = -1) -> None:
        """Commit a release at ``cycle``; deducts per the active method."""
        self.replenisher.apply_until(self.state, cycle)
        bin_index = self.bin_at(cycle)
        if self.method == self.METHOD_DEDUCT_REFUND:
            source = self.state.find_deductible(bin_index)
            if source is None:
                raise ValueError(
                    f"no credit available at cycle {cycle} (bin {bin_index})")
            self.state.deduct(source)
            if req_id >= 0:
                self._pending_bin[req_id] = source
        else:
            if req_id >= 0:
                self._pending_stamp[req_id] = cycle
        self._last_release = cycle
        self.released += 1

    def record_stall(self, cycles: int) -> None:
        """Bookkeeping hook for the core model."""
        if cycles > 0:
            self.stalled_requests += 1
            self.total_stall_cycles += cycles

    # ------------------------------------------------------------------
    # LLC feedback (hybrid operation, Section III-D)

    def on_llc_response(self, req_id: int, was_hit: bool) -> None:
        if self.method == self.METHOD_DEDUCT_REFUND:
            bin_index = self._pending_bin.pop(req_id, None)
            if bin_index is None:
                return
            if was_hit:
                self.state.refund(bin_index)
                self.refunds += 1
        else:
            stamp = self._pending_stamp.pop(req_id, None)
            if stamp is None:
                return
            if was_hit:
                return
            # Confirmed LLC miss: deduct using the inter-arrival time
            # between confirmed misses (timestamp comparison of method 1).
            if self._last_confirmed_miss is None:
                interarrival = self.spec.lower_edge(self.spec.num_bins - 1)
            else:
                interarrival = max(0, stamp - self._last_confirmed_miss)
            self._last_confirmed_miss = stamp
            bin_index = self.spec.bin_for_interarrival(interarrival)
            source = self.state.find_deductible(bin_index)
            if source is not None:
                self.state.deduct(source)

    # ------------------------------------------------------------------
    # introspection

    @property
    def pending_entries(self) -> int:
        """Occupancy of the pending table (sizes the hardware structure)."""
        return len(self._pending_bin) + len(self._pending_stamp)

    def credit_counts(self):
        """Copy of the live per-bin counters."""
        return self.state.snapshot()

    def credit_occupancy(self):
        """Per-bin ``(n_i, K_i)`` pairs -- the bound checker's probe.

        The analytic oracle (:mod:`repro.validate.bounds`) asserts
        ``n_i <= K_i`` for every bin from *outside* the credit machinery,
        so the check stays meaningful even when the contracts invariants
        inside :class:`~repro.core.credits.CreditState` are compiled out.
        Reads copies only; never perturbs the registers.
        """
        return list(zip(self.state.snapshot(), self.config.credits))

    def diagnostics(self) -> dict:
        """Plain-data state snapshot for starvation diagnostics.

        Consumed by the forward-progress watchdog when it raises
        :class:`~repro.resilience.watchdog.StarvationError`: enough to
        explain a stall (which bins are empty, what was bought, how many
        requests are parked) without re-running the simulation.
        """
        return {
            "method": self.method,
            "credits": self.state.snapshot(),
            "limits": list(self.config.credits),
            "total_credits": self.config.total_credits,
            "stall_forever": self.stall_forever(),
            "pending_entries": self.pending_entries,
            "released": self.released,
            "stalled_requests": self.stalled_requests,
            "total_stall_cycles": self.total_stall_cycles,
            "refunds": self.refunds,
        }
