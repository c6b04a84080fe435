"""Heap-vs-batched kernel equivalence on full systems.

The golden-fingerprint suite pins both kernels to recorded hashes; these
tests assert the stronger property directly -- the complete
:meth:`~repro.sim.stats.SystemStats.snapshot` documents are *equal*
between kernels, so a divergence points at the exact statistic instead of
an opaque hash mismatch.  They also cover the batched kernel's config
surface (validation, checkpointing) that the goldens don't touch.
"""

from dataclasses import replace

import pytest

import repro.sched
from repro.core.bins import BinConfig
from repro.core.shaper import MittsShaper
from repro.sched.base import FrFcfsScheduler, MemoryScheduler
from repro.sim.engine import Engine
from repro.sim.system import (SCALED_MULTI_CONFIG, SCALED_SINGLE_CONFIG,
                              SimSystem)
from repro.sim.wheel import WheelEngine
from repro.workloads.benchmarks import trace_for
from repro.workloads.mixes import workload_traces

CYCLES = 60_000

#: every memory-controller scheduler the package exports
SCHEDULERS = sorted(
    (obj for obj in vars(repro.sched).values()
     if isinstance(obj, type) and issubclass(obj, MemoryScheduler)
     and obj is not MemoryScheduler),
    key=lambda cls: cls.__name__)


def _shaped_system(kernel: str, phase_stride: int = 0,
                   scheduler_cls=FrFcfsScheduler,
                   dram_mapping: str = "row") -> SimSystem:
    traces = workload_traces(2, seed=5)
    config = replace(SCALED_MULTI_CONFIG, kernel=kernel,
                     dram_mapping=dram_mapping)
    credits = [4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
    limiters = [MittsShaper(BinConfig.from_credits(credits),
                            phase=phase_stride * i)
                for i in range(len(traces))]
    return SimSystem(traces, config=config, limiters=limiters,
                     scheduler=scheduler_cls(len(traces)))


class TestKernelSelection:
    def test_batched_config_uses_wheel_engine(self):
        system = SimSystem(workload_traces(1, seed=3),
                           config=SCALED_MULTI_CONFIG)
        assert isinstance(system.engine, WheelEngine)

    def test_heap_config_uses_heap_engine(self):
        config = replace(SCALED_MULTI_CONFIG, kernel="heap")
        system = SimSystem(workload_traces(1, seed=3), config=config)
        assert isinstance(system.engine, Engine)

    def test_unknown_kernel_rejected(self):
        config = replace(SCALED_MULTI_CONFIG, kernel="quantum")
        with pytest.raises(ValueError, match="kernel"):
            SimSystem(workload_traces(1, seed=3), config=config)

    def test_unknown_macro_tick_mode_rejected(self):
        config = replace(SCALED_MULTI_CONFIG, macro_tick="sometimes")
        with pytest.raises(ValueError, match="macro_tick"):
            SimSystem(workload_traces(1, seed=3), config=config)


class TestSnapshotEquality:
    """Full snapshot documents match between kernels, field for field."""

    def _run_pair(self, build):
        snapshots = {}
        for kernel in ("heap", "batched"):
            system = build(kernel)
            system.run(CYCLES)
            snapshots[kernel] = system.stats.snapshot()
        return snapshots

    def test_unshaped_multi(self):
        def build(kernel):
            config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
            return SimSystem(workload_traces(1, seed=5), config=config)

        snapshots = self._run_pair(build)
        assert snapshots["heap"] == snapshots["batched"]

    def test_single_core(self):
        def build(kernel):
            config = replace(SCALED_SINGLE_CONFIG, kernel=kernel)
            return SimSystem([trace_for("mcf", seed=5)], config=config)

        snapshots = self._run_pair(build)
        assert snapshots["heap"] == snapshots["batched"]

    def test_shaped_aligned_phases(self):
        # Aligned phases make the macro-tick pump eligible under the
        # batched kernel, so this pair exercises pump-vs-lazy on top of
        # wheel-vs-heap.
        snapshots = self._run_pair(lambda k: _shaped_system(k))
        assert snapshots["heap"] == snapshots["batched"]

    def test_shaped_staggered_phases(self):
        # Staggered phases (anti-lockstep) have no common boundary: the
        # pump must stay off and the lazy path must still match the heap.
        snapshots = self._run_pair(
            lambda k: _shaped_system(k, phase_stride=17))
        assert snapshots["heap"] == snapshots["batched"]

    @pytest.mark.parametrize("dram_mapping", ["row", "bank"])
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS,
                             ids=lambda cls: cls.__name__)
    def test_every_scheduler(self, scheduler_cls, dram_mapping):
        # Every scheduler runs through the batched controller's one
        # dispatch loop: head-pop for FCFS order, select/remove otherwise.
        snapshots = self._run_pair(
            lambda k: _shaped_system(k, phase_stride=17,
                                     scheduler_cls=scheduler_cls,
                                     dram_mapping=dram_mapping))
        assert snapshots["heap"] == snapshots["batched"]

    def test_events_executed_matches(self):
        counts = {}
        for kernel in ("heap", "batched"):
            config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
            system = SimSystem(workload_traces(1, seed=5), config=config)
            system.run(CYCLES)
            counts[kernel] = system.engine.events_executed
        assert counts["heap"] == counts["batched"]


class TestBatchedCheckpoint:
    def test_roundtrip_reproduces_uninterrupted_run(self, tmp_path):
        config = replace(SCALED_MULTI_CONFIG, kernel="batched")
        reference = SimSystem(workload_traces(1, seed=5), config=config)
        reference.run(CYCLES)

        system = SimSystem(workload_traces(1, seed=5), config=config)
        system.run(CYCLES // 2)
        path = tmp_path / "batched.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        resumed.run(CYCLES - CYCLES // 2)
        assert resumed.stats.snapshot() == reference.stats.snapshot()

    def test_shaped_roundtrip_matches_heap(self, tmp_path):
        # Checkpoint mid-window with the pump scheduled, restore, run to
        # the horizon: the result must still equal the heap kernel's.
        heap_system = _shaped_system("heap")
        heap_system.run(CYCLES)

        system = _shaped_system("batched")
        system.run(CYCLES // 2)
        path = tmp_path / "shaped.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        resumed.run(CYCLES - CYCLES // 2)
        assert resumed.stats.snapshot() == heap_system.stats.snapshot()
