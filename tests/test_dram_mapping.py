"""Tests for address-interleaving schemes and multi-channel DRAM."""

import pytest

from repro.dram.address_map import AddressMapper
from repro.dram.device import DramDevice
from repro.dram.timing import DramTiming
from repro.sim.system import SimSystem, single_config
from repro.workloads.trace import uniform_trace

from tests.test_dram import located


class TestBankInterleaving:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            AddressMapper(DramTiming(), scheme="diagonal")

    def test_consecutive_lines_rotate_banks(self):
        mapper = AddressMapper(DramTiming(), scheme="bank")
        banks = [mapper.map(i * 64).bank for i in range(8)]
        assert banks == list(range(8))

    def test_row_scheme_keeps_lines_in_row(self):
        mapper = AddressMapper(DramTiming(), scheme="row")
        rows = {mapper.map(i * 64).row for i in range(8)}
        banks = {mapper.map(i * 64).bank for i in range(8)}
        assert rows == {0}
        assert banks == {0}

    def test_mapping_is_injective_within_region(self):
        for scheme in AddressMapper.SCHEMES:
            mapper = AddressMapper(DramTiming(), scheme=scheme)
            seen = set()
            for i in range(4096):
                coords = mapper.map(i * 64)
                key = (coords.channel, coords.rank, coords.bank,
                       coords.row, coords.column)
                assert key not in seen
                seen.add(key)

    def test_streaming_row_hits_differ_by_scheme(self):
        timing = DramTiming(refresh_enabled=False)
        row_dev = DramDevice(timing, mapping_scheme="row")
        bank_dev = DramDevice(timing, mapping_scheme="bank")
        for i in range(256):
            row_dev.service(located(row_dev, i * 64), 10_000 * i)
            bank_dev.service(located(bank_dev, i * 64), 10_000 * i)
        # Row interleaving turns a stream into row hits; bank
        # interleaving rotates banks so each line opens a row.
        assert row_dev.row_hits > bank_dev.row_hits

    def test_system_config_plumbs_scheme(self):
        config = single_config(dram_mapping="bank")
        system = SimSystem([uniform_trace(200, 10)], config=config)
        assert system.dram.mapper.scheme == "bank"
        system.run(5_000)


class TestMultiChannel:
    def test_two_channels_double_banks(self):
        timing = DramTiming(channels=2, refresh_enabled=False)
        assert timing.total_banks == 16
        device = DramDevice(timing)
        assert len(device.bus_free) == 2

    def test_channels_serve_in_parallel(self):
        timing = DramTiming(channels=2, refresh_enabled=False)
        mapper = AddressMapper(timing)
        device = DramDevice(timing)
        # Find two addresses on different channels (row interleaving
        # switches channel only after a full rank of banks: every 64KB).
        addresses = {}
        for i in range(4096):
            addresses.setdefault(mapper.map(i * 64).channel, i * 64)
            if len(addresses) == 2:
                break
        assert len(addresses) == 2
        done = [device.service(located(device, addr), 0)
                for addr in addresses.values()]
        # Neither burst waited for the other's bus.
        assert abs(done[0] - done[1]) < timing.t_bl

    def test_peak_bandwidth_scales_with_channels(self):
        one = DramTiming(channels=1)
        two = DramTiming(channels=2)
        assert two.peak_bandwidth_bytes_per_cycle() == pytest.approx(
            2 * one.peak_bandwidth_bytes_per_cycle())

    def test_multichannel_system_runs(self):
        config = single_config(
            timing=DramTiming(channels=2, refresh_enabled=False))
        system = SimSystem([uniform_trace(500, 5)], config=config)
        stats = system.run(10_000)
        assert stats.cores[0].dram_requests > 0


#: a geometry with no power-of-two dimension besides the line size, so
#: the mapper takes its div/mod path
ODD_TIMING = DramTiming(channels=3, ranks_per_channel=2, banks_per_rank=6,
                        row_buffer_bytes=6144, refresh_enabled=False)


class TestLocate:
    """The DRAM location stamped on a request is the mapper's answer."""

    @pytest.mark.parametrize("scheme", AddressMapper.SCHEMES)
    @pytest.mark.parametrize("timing", [DramTiming(), ODD_TIMING],
                             ids=["pow2", "non-pow2"])
    def test_stamp_matches_mapper(self, scheme, timing):
        device = DramDevice(timing, mapping_scheme=scheme)
        mapper = AddressMapper(timing, scheme=scheme)
        assert (mapper._pow2 is None) == (timing is ODD_TIMING)
        for i in range(2048):
            address = i * 193 * 64 + i % 64
            request = located(device, address)
            coords = mapper.map(address)
            assert (request.bank, request.row, request.channel) == (
                mapper.flat_index(coords), coords.row, coords.channel)
            assert 0 <= request.bank < timing.total_banks

    def test_controller_stamps_arrivals(self):
        from repro.sim.engine import Engine
        from repro.sim.memctrl import MemoryController
        from repro.sim.request import MemoryRequest

        class Hold:
            def select(self, queue, now, controller):
                return None

            def on_complete(self, request, now):
                pass

        device = DramDevice(ODD_TIMING)
        mc = MemoryController(Engine(), device, Hold(),
                              complete=lambda request: None)
        mapper = AddressMapper(ODD_TIMING)
        for i in range(8):
            request = MemoryRequest(core_id=0, address=i * 6144 + 64)
            assert request.bank is None
            mc.enqueue(request)
            coords = mapper.map(request.address)
            assert (request.bank, request.row, request.channel) == (
                mapper.flat_index(coords), coords.row, coords.channel)

    def test_service_reads_the_stamp_without_mapping(self):
        device = DramDevice(ODD_TIMING)
        requests = [located(device, i * 4096) for i in range(16)]
        device.mapper = None  # any mapping attempt now fails
        for now, request in enumerate(requests):
            device.would_row_hit(request)
            device.service(request, now)
        assert device.row_hits + device.row_misses == 16
