"""Instrumentation the benchmark installs on the simulator from outside.

A :class:`Recorder` always wraps ``SimSystem.run``: every call is one *op*,
timed around the call alone, with the stats fingerprint and the model
counters read after the timer stops.  ``install_tracing`` adds, for the
traced run only,

* spans (name, start, end, parent, simulation id) around the coarse layer
  boundaries: experiment, GA run, fitness evaluation, system build,
  system run, runner run, result-cache load/store;
* call counts and summed time (no spans) on the hot entry points: the
  MITTS shaper, every scheduler's ``select``, the DRAM device and address
  mapper, and trace synthesis.

Wrappers go on the classes, so they must be installed before any system
is built (the fused kernel binds methods at construction).  Processes
forked after installation (the runner's pool workers) inherit them; with
a ``flush_dir`` each such process appends its records to
``<flush_dir>/<pid>.jsonl`` and :func:`load_records` merges them.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from itertools import count
from typing import Callable, Dict, List, Optional

from .stats import self_times

perf = time.perf_counter

#: model counters read from each op's final ``SystemStats``
MODEL_FIELDS = ("cycles", "dram_requests", "row_hits", "row_misses",
                "llc_hits", "llc_misses", "shaper_stall_cycles",
                "memory_stall_cycles", "peak_queue_depth",
                "backpressure_events")

#: hot counter name -> does its time belong to the simulated memory path
#: (subtracted from ``engine.self_s``)
HOT_KEYS = {
    "shaper.earliest_issue": True,
    "shaper.issue": True,
    "sched.select": True,
    "dram.service": True,
    "dram.row_hit_check": True,
    "dram.addr_map": True,
    "workloads.trace": False,
}


def model_of(stats) -> List[int]:
    cores = stats.cores
    return [stats.cycles,
            sum(c.dram_requests + c.writebacks for c in cores),
            stats.row_hits, stats.row_misses,
            sum(c.llc_hits for c in cores),
            sum(c.llc_misses for c in cores),
            sum(c.shaper_stall_cycles for c in cores),
            sum(c.memory_stall_cycles for c in cores),
            stats.peak_queue_depth, stats.queue_backpressure_events]


class Recorder:
    """Op records, spans and counters of one process (see module doc)."""

    def __init__(self, flush_dir: Optional[str] = None) -> None:
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.flush_dir = flush_dir
        self.progress_path: Optional[str] = None
        #: [pid, sim, start, seconds, cycles advanced, events,
        #:  fingerprint, model counters, cycles requested]
        self.ops: List[list] = []
        #: [name, start, end, parent, sim, pid]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        #: hot key -> [calls, seconds, depth]
        self.hot: Dict[str, list] = {key: [0, 0.0, 0] for key in HOT_KEYS}
        #: [open memory-path hot calls, seconds of the outermost ones]
        self.nest = [0, 0.0]
        self._patches: list = []
        self._sim_ids = count(1)
        self._built: Dict[int, int] = {}
        self._sim_of: Dict[int, int] = {}
        self._flushed = [0, 0]
        #: open a ``system.run`` span per op (traced runs only)
        self.traced_runs = False
        if flush_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    # -- state ---------------------------------------------------------

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.ops, self.spans, self.stack = [], [], []
        self.counters = {}
        for cell in self.hot.values():
            cell[:] = [0, 0.0, 0]
        self.nest[:] = [0, 0.0]
        self._flushed = [0, 0]

    def take_ops(self) -> List[list]:
        ops, self.ops = self.ops, []
        return ops

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def dump(self) -> dict:
        return {"pid": self.pid, "ops": self.ops, "spans": self.spans,
                "counters": self.counters,
                "hot": {k: v[:2] for k, v in self.hot.items()},
                "hot_in_run_s": self.nest[1]}

    def flush(self) -> None:
        """Append this forked process's new records to its file."""
        ops_done, spans_done = self._flushed
        closed = len(self.spans)
        while closed and self.spans[closed - 1][2] is None:
            closed -= 1
        chunk = {"pid": self.pid, "ops": self.ops[ops_done:],
                 "spans": self.spans[spans_done:closed],
                 "counters": self.counters,
                 "hot": {k: v[:2] for k, v in self.hot.items()},
                 "hot_in_run_s": self.nest[1]}
        self._flushed = [len(self.ops), closed]
        path = os.path.join(self.flush_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(chunk) + "\n")

    def _forked(self) -> bool:
        return self.flush_dir is not None and self.pid != self.owner_pid

    # -- spans ---------------------------------------------------------

    def open(self, name: str, sim: Optional[int] = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf(), None, parent, sim, self.pid])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf()
        self.stack.pop()
        if not self.stack and self._forked():
            self.flush()

    def span(self, name: str, fn: Callable, on_result=None) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_ops(self) -> None:
        """Time every ``SimSystem.run`` call as one op."""
        from repro.sim.system import SimSystem
        self._patch(SimSystem, "run", self._wrap_run)

    def _wrap_run(self, original: Callable) -> Callable:
        rec = self

        def run(system, cycles):
            key = id(system)
            if not system._started:
                sim = rec._built.pop(key, None) or next(rec._sim_ids)
                rec._sim_of[key] = sim
            sim = rec._sim_of[key]
            engine = system.engine
            cycles_before = system.stats.cycles
            events_before = engine.events_executed
            traced = rec.traced_runs
            index = rec.open("system.run", sim) if traced else None
            start = perf()
            try:
                stats = original(system, cycles)
            except BaseException as exc:
                rec.ops.append([rec.pid, sim, start, perf() - start, 0, 0,
                                f"raised:{type(exc).__name__}", None,
                                cycles])
                raise
            finally:
                elapsed = perf() - start
                if traced:
                    rec.close(index)
            rec.ops.append([rec.pid, sim, start, elapsed,
                            stats.cycles - cycles_before,
                            engine.events_executed - events_before,
                            stats.fingerprint()[:16], model_of(stats),
                            cycles])
            if rec._forked() and not rec.stack:
                rec.flush()
            elif rec.progress_path is not None:
                with open(rec.progress_path, "w", encoding="utf-8") as fh:
                    fh.write(str(len(rec.ops)))
            return stats
        return run

    def _hot(self, key: str, fn: Callable) -> Callable:
        cell = self.hot[key]
        nest = self.nest
        in_run = HOT_KEYS[key]

        def wrapper(*args, **kwargs):
            if cell[2]:
                return fn(*args, **kwargs)
            cell[2] = 1
            outer = in_run and not nest[0]
            if in_run:
                nest[0] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                cell[0] += 1
                cell[1] += elapsed
                cell[2] = 0
                if in_run:
                    nest[0] -= 1
                    if outer:
                        nest[1] += elapsed
        return wrapper

    def install_tracing(self) -> None:
        """Spans and hot counters; call before any system is built."""
        import repro.experiments as experiments
        import repro.sched  # noqa: F401  (registers every scheduler)
        from repro.core.macrotick import MacroTickPump
        from repro.core.shaper import MittsShaper
        from repro.dram.address_map import AddressMapper
        from repro.dram.device import DramDevice
        from repro.runner import ResultCache, Runner
        from repro.sim.memctrl import MemorySchedulerProtocol
        from repro.sim.system import SimSystem
        from repro.tuning.ga import GeneticAlgorithm
        from repro.tuning.objectives import FitnessEvaluator
        from repro.workloads.generator import SyntheticTrace

        rec = self
        self.traced_runs = True
        hot = self._hot
        self._patch(MittsShaper, "earliest_issue",
                    lambda f: hot("shaper.earliest_issue", f))
        self._patch(MittsShaper, "issue", lambda f: hot("shaper.issue", f))
        pending = [MemorySchedulerProtocol]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "select" in cls.__dict__:
                self._patch(cls, "select", lambda f: hot("sched.select", f))
        self._patch(DramDevice, "service", lambda f: hot("dram.service", f))
        self._patch(DramDevice, "would_row_hit",
                    lambda f: hot("dram.row_hit_check", f))
        self._patch(AddressMapper, "map", lambda f: hot("dram.addr_map", f))
        self._patch(SyntheticTrace, "__iter__",
                    lambda f: hot("workloads.trace", f))

        def build(original):
            def __init__(system, *args, **kwargs):
                sim = next(rec._sim_ids)
                index = rec.open("system.build", sim)
                try:
                    original(system, *args, **kwargs)
                finally:
                    rec.close(index)
                rec._built[id(system)] = sim
            return __init__
        self._patch(SimSystem, "__init__", build)

        def attach(original):
            def wrapper(cls, system, mode="auto"):
                pump = original(cls, system, mode)
                rec.add("macrotick.attach_calls")
                rec.add("macrotick.attached", pump is not None)
                return pump
            return wrapper
        self._patch(MacroTickPump, "attach", attach)

        def ga_done(_args, result):
            rec.add("ga.runs")
            rec.add("ga.evaluations", result.evaluations)
            rec.add("ga.memo_hits", result.memo_hits)
            rec.add("ga.starvations", result.penalized)

        def runner_done(args, sweep):
            rec.add("runner.run_calls")
            rec.add("runner.cache_hits", sweep.cache_hits)
            rec.add("runner.failed_jobs", len(sweep.failures))
            jobs = args[0].config.jobs
            rec.counters["runner.jobs"] = max(
                rec.counters.get("runner.jobs", 0), jobs)

        self._patch(GeneticAlgorithm, "run",
                    lambda f: rec.span("ga.run", f, ga_done))
        self._patch(FitnessEvaluator, "__call__",
                    lambda f: rec.span("ga.eval", f))
        self._patch(Runner, "run",
                    lambda f: rec.span("runner.run", f, runner_done))
        self._patch(ResultCache, "load", lambda f: rec.span("cache.load", f))
        self._patch(ResultCache, "store",
                    lambda f: rec.span("cache.store", f))
        self._patch(experiments, "run_experiment",
                    lambda f: rec.span("experiment", f))


def load_records(directory: str) -> List[dict]:
    """Per-process dumps written to ``directory``: ``*.json`` whole
    dumps, ``*.jsonl`` chunked flushes (merged into one dump per pid)."""
    dumps = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as handle:
            if name.endswith(".json"):
                dumps.append(json.load(handle))
            elif name.endswith(".jsonl"):
                merged = None
                for line in handle:
                    chunk = json.loads(line)
                    if merged is None:
                        merged = chunk
                        continue
                    merged["ops"] += chunk["ops"]
                    merged["spans"] += chunk["spans"]
                    for key in ("counters", "hot", "hot_in_run_s"):
                        merged[key] = chunk[key]
                if merged is not None:
                    dumps.append(merged)
    return dumps


def merge(dumps: List[dict]) -> dict:
    """One dump from several processes' dumps (span parents re-indexed)."""
    out = {"ops": [], "spans": [], "counters": {}, "hot": {},
           "hot_in_run_s": 0.0}
    for dump in dumps:
        offset = len(out["spans"])
        for name, start, end, parent, sim, pid in dump["spans"]:
            out["spans"].append([name, start, end,
                                 None if parent is None else parent + offset,
                                 sim, pid])
        out["ops"] += dump["ops"]
        for key, value in dump["counters"].items():
            if key == "runner.jobs":
                out["counters"][key] = max(out["counters"].get(key, 0),
                                           value)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + value
        for key, (calls, seconds) in dump["hot"].items():
            cell = out["hot"].setdefault(key, [0, 0.0])
            cell[0] += calls
            cell[1] += seconds
        out["hot_in_run_s"] += dump["hot_in_run_s"]
    return out


def model_totals(ops: List[list]) -> Dict[str, float]:
    """``model.*`` over the final stats of every simulated system."""
    final: Dict[tuple, list] = {}
    for op in ops:
        if op[7] is not None:
            final[(op[0], op[1])] = op[7]
    sums = dict.fromkeys(MODEL_FIELDS, 0)
    for model in final.values():
        for field, value in zip(MODEL_FIELDS, model):
            if field == "peak_queue_depth":
                sums[field] = max(sums[field], value)
            else:
                sums[field] += value
    rows = sums["row_hits"] + sums["row_misses"]
    llc = sums["llc_hits"] + sums["llc_misses"]
    return {
        "model.cycles": sums["cycles"],
        "model.dram_requests": sums["dram_requests"],
        "model.row_hit_rate": sums["row_hits"] / rows if rows else 0.0,
        "model.llc_hit_rate": sums["llc_hits"] / llc if llc else 0.0,
        "model.shaper_stall_cycles": sums["shaper_stall_cycles"],
        "model.memory_stall_cycles": sums["memory_stall_cycles"],
        "model.peak_queue_depth": sums["peak_queue_depth"],
        "model.backpressure_events": sums["backpressure_events"],
    }


def layer_metrics(record: dict) -> Dict[str, float]:
    """Every per-layer metric except ``model.*`` and ``trace.*``."""
    spans = record["spans"]
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    counters = record["counters"]
    hot = record["hot"]

    def durations(name):
        return [s[2] - s[1] for s in spans if s[0] == name]

    def self_sum(name):
        return sum(t for s, t in zip(spans, selfs) if s[0] == name)

    def calls(key):
        return hot.get(key, [0, 0.0])[0]

    def seconds(key):
        return hot.get(key, [0, 0.0])[1]

    builds = durations("system.build")
    events = sum(op[5] for op in record["ops"])
    run_s = sum(durations("system.run"))
    engine_self = run_s - record["hot_in_run_s"]
    evaluations = counters.get("ga.evaluations", 0)
    memo_hits = counters.get("ga.memo_hits", 0)
    return {
        "workloads.trace_calls": calls("workloads.trace"),
        "workloads.trace_s": seconds("workloads.trace"),
        "system.builds": len(builds),
        "system.build_s": sum(builds),
        "system.build_ms_p50": (statistics.median(builds) * 1e3
                                if builds else 0.0),
        "engine.events": events,
        "engine.run_s": run_s,
        "engine.self_s": engine_self,
        "engine.ns_per_event": engine_self / events * 1e9 if events else 0.0,
        "shaper.earliest_issue_calls": calls("shaper.earliest_issue"),
        "shaper.earliest_issue_s": seconds("shaper.earliest_issue"),
        "shaper.issue_calls": calls("shaper.issue"),
        "shaper.issue_s": seconds("shaper.issue"),
        "macrotick.attach_calls": counters.get("macrotick.attach_calls", 0),
        "macrotick.attached": counters.get("macrotick.attached", 0),
        "sched.select_calls": calls("sched.select"),
        "sched.select_s": seconds("sched.select"),
        "dram.service_calls": calls("dram.service"),
        "dram.service_s": seconds("dram.service"),
        "dram.row_hit_checks": calls("dram.row_hit_check"),
        "dram.row_hit_check_s": seconds("dram.row_hit_check"),
        "dram.addr_map_calls": calls("dram.addr_map"),
        "ga.runs": counters.get("ga.runs", 0),
        "ga.evaluations": evaluations,
        "ga.memo_hits": memo_hits,
        "ga.useful_ratio": (evaluations / (evaluations + memo_hits)
                            if evaluations + memo_hits else 0.0),
        "ga.starvations": counters.get("ga.starvations", 0),
        "ga.self_s": self_sum("ga.run"),
        "experiments.self_s": self_sum("experiment"),
        "runner.run_calls": counters.get("runner.run_calls", 0),
        "runner.jobs": counters.get("runner.jobs", 0),
        "runner.run_s": self_sum("runner.run"),
        "runner.cache_hits": counters.get("runner.cache_hits", 0),
        "runner.cache_load_s": sum(durations("cache.load")),
        "runner.cache_store_s": sum(durations("cache.store")),
        "runner.failed_jobs": counters.get("runner.failed_jobs", 0),
    }


def chrome_trace(record: dict, metrics: Dict[str, float]) -> dict:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    spans = record["spans"]
    origin = min((s[1] for s in spans), default=0.0)
    events = []
    for index, (name, start, end, parent, sim, pid) in enumerate(spans):
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "ts": (start - origin) * 1e6,
                       "dur": (end - start) * 1e6, "pid": pid, "tid": pid,
                       "args": {"id": index, "parent": parent,
                                "sim": None if sim is None
                                else f"{pid}:{sim}"}})
    end = max((s[2] for s in spans), default=origin)
    pid = spans[0][5] if spans else 0
    events.append({"name": "layer metrics", "ph": "C", "pid": pid,
                   "ts": (end - origin) * 1e6,
                   "args": {k: v for k, v in metrics.items()}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
