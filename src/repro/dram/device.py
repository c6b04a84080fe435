"""The DRAM device: banks behind a shared per-channel data bus.

This is the DRAMSim2 substitute.  It is request-level rather than
command-level: given a request and the current cycle it computes the cycle
at which the data burst finishes, honouring per-bank row-buffer state, the
tRC activate window, write recovery, data-bus serialisation, and periodic
refresh.  That is the level of fidelity MITTS and the comparator schedulers
actually exercise -- they reorder and throttle *requests*, not DDR commands.

Address mapping happens once per request, in :meth:`DramDevice.locate`;
the row-hit probe and the service path read the stamped location.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .address_map import AddressMapper
from .bank import Bank
from .timing import DramTiming

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..sim.request import MemoryRequest


class DramDevice:
    """Request-level DRAM model with banked row buffers."""

    __slots__ = ("timing", "mapper", "banks", "bus_free", "_next_refresh",
                 "_refresh_bank", "_t_bl")

    def __init__(self, timing: DramTiming,
                 mapping_scheme: str = "row") -> None:
        self.timing = timing
        self.mapper = AddressMapper(timing, scheme=mapping_scheme)
        self.banks: List[Bank] = [Bank(timing) for _ in range(timing.total_banks)]
        #: per-channel cycle at which the data bus is next free
        self.bus_free: List[int] = [0] * timing.channels
        self._next_refresh = timing.t_refi if timing.refresh_enabled else None
        self._refresh_bank = 0
        self._t_bl = timing.t_bl

    def _maybe_refresh(self, now: int) -> None:
        """Round-robin per-bank refresh, one bank per tREFI/banks slot."""
        if self._next_refresh is None:
            return
        while now >= self._next_refresh:
            bank = self.banks[self._refresh_bank % len(self.banks)]
            bank.refresh(self._next_refresh)
            self._refresh_bank += 1
            self._next_refresh += max(1, self.timing.t_refi // len(self.banks))

    def locate(self, request: MemoryRequest) -> None:
        """Stamp ``request`` with its DRAM location, mapping it once.

        Sets the flat bank index (:meth:`AddressMapper.flat_index`
        numbering, the index into :attr:`banks`), the row and the channel.
        The memory controller calls this when a request arrives; every
        later scheduler scan and the DRAM service only read the stamp.
        """
        mapper = self.mapper
        coords = mapper.map(request.address)
        request.bank = mapper.flat_index(coords)
        request.row = coords.row
        request.channel = coords.channel

    def would_row_hit(self, request: MemoryRequest) -> bool:
        """True if located ``request`` would hit its bank's open row."""
        return self.banks[request.bank].open_row == request.row

    def bank_ready_cycle(self, request: MemoryRequest) -> int:
        """Cycle at which located ``request``'s bank can start a command."""
        return self.banks[request.bank].ready_cycle

    def service(self, request: MemoryRequest, now: int) -> int:
        """Service one located cache-line request; returns the
        data-complete cycle.

        Refresh catch-up, then the bank's row-buffer state machine, then
        the data burst serialised on the request's channel bus.
        """
        if self._next_refresh is not None and now >= self._next_refresh:
            self._maybe_refresh(now)
        done = self.banks[request.bank].access(request.row, now,
                                               request.is_write)
        t_bl = self._t_bl
        bus_free = self.bus_free
        channel = request.channel
        bus_start = done - t_bl
        free_at = bus_free[channel]
        if free_at > bus_start:
            bus_start = free_at
        done = bus_start + t_bl
        bus_free[channel] = done
        return done

    @property
    def row_hits(self) -> int:
        return sum(bank.row_hits for bank in self.banks)

    @property
    def row_misses(self) -> int:
        return sum(bank.row_misses for bank in self.banks)
