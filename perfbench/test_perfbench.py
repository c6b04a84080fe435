"""Self-tests of the benchmark (not part of the repository's test suite).

    PYTHONPATH=src:. python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import workloads
from perfbench.probe import (Recorder, layer_metrics, load_records, merge,
                             model_totals)
from perfbench.stats import (beyond, error_rate, percentile, self_times,
                             tail_percentile, union_length)


# -- percentiles and their sample counts ------------------------------------

def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert percentile(samples, 0.5) == 3
    assert percentile(samples, 1.0) == 5
    assert percentile(list(range(1, 101)), 0.9) == 90


def test_p90_needs_ten_samples_beyond_it():
    assert beyond(100, 0.9) == 10
    assert beyond(99, 0.9) == 9
    assert tail_percentile(list(range(99)), 0.9) is None
    assert tail_percentile(list(range(1, 101)), 0.9) == 90
    assert tail_percentile(list(range(1, 201)), 0.9) == 180


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


# -- self time of nested spans ------------------------------------------------

def test_union_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [(0.0, 10.0, None),   # root
             (1.0, 3.0, 0),       # child
             (2.0, 5.0, 0),       # overlapping child
             (2.5, 2.75, 1),      # grandchild: only its parent loses it
             (9.0, 12.0, 0)]      # child overrunning the root: clipped
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs[1] == pytest.approx(2.0 - 0.25)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.25)


# -- error rate ----------------------------------------------------------

def test_error_rate_uses_ops_as_base():
    assert error_rate(0, 129) == 0.0
    assert error_rate(3, 120) == pytest.approx(0.025)
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(5, 4)


# -- records from several processes ------------------------------------------

def test_chunked_records_merge_with_reindexed_parents(tmp_path):
    chunks = [
        {"pid": 9, "ops": [[9, 1, 0.0, 1.0, 10, 5, "a", [1] * 10, 10]],
         "spans": [["ga.eval", 0.0, 2.0, None, None, 9],
                   ["system.run", 0.5, 1.5, 0, 1, 9]],
         "counters": {"macrotick.attach_calls": 1},
         "hot": {"sched.select": [3, 0.25]}, "hot_in_run_s": 0.25},
        {"pid": 9, "ops": [], "spans": [["system.build", 3.0, 3.5, None,
                                         2, 9]],
         "counters": {"macrotick.attach_calls": 2},
         "hot": {"sched.select": [7, 0.5]}, "hot_in_run_s": 0.5},
    ]
    with open(tmp_path / "9.jsonl", "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(json.dumps(chunk) + "\n")
    main = {"pid": 1, "ops": [], "counters": {"runner.jobs": 2},
            "spans": [["experiment", 0.0, 4.0, None, None, 1]],
            "hot": {"sched.select": [1, 0.125]}, "hot_in_run_s": 0.0}
    with open(tmp_path / "main-1.json", "w", encoding="utf-8") as handle:
        json.dump(main, handle)
    record = merge(load_records(str(tmp_path)))
    # the .jsonl file sorts first: its spans keep indices 0..2
    assert [s[3] for s in record["spans"]] == [None, 0, None, None]
    assert record["counters"] == {"macrotick.attach_calls": 2,
                                  "runner.jobs": 2}
    assert record["hot"]["sched.select"] == [8, 0.625]
    layers = layer_metrics(record)
    assert layers["sched.select_calls"] == 8
    assert layers["system.builds"] == 1
    assert layers["engine.events"] == 5


def test_model_totals_take_each_systems_last_op():
    first = [1, 1, 0.0, 0.1, 5, 1, "x", [5, 2, 1, 1, 1, 1, 0, 3, 4, 0], 5]
    last = [1, 1, 0.1, 0.1, 5, 1, "y", [10, 4, 3, 1, 2, 2, 0, 6, 7, 1], 5]
    other = [2, 1, 0.0, 0.1, 5, 1, "z", [5, 2, 1, 1, 0, 2, 9, 1, 2, 0], 5]
    totals = model_totals([first, last, other])
    assert totals["model.cycles"] == 15
    assert totals["model.row_hit_rate"] == pytest.approx(4 / 6)
    assert totals["model.llc_hit_rate"] == pytest.approx(2 / 6)
    assert totals["model.peak_queue_depth"] == 7
    assert totals["model.shaper_stall_cycles"] == 9


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    root = workloads.ROOT
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    empty = {"ops": [], "spans": [], "counters": {}, "hot": {},
             "hot_in_run_s": 0.0}
    reported = set(layer_metrics(empty)) | set(model_totals([])) \
        | {"trace.spans", "trace.overhead_s"}
    assert {entry["name"] for entry in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    from perfbench.run import E2E_UNITS
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == E2E_UNITS
    for name in workloads.NAMES:
        layers = dict.fromkeys(reported, 0)
        assert set(workloads.HEAVY[name]) <= set(layers)
        assert set(workloads.ZERO[name]) <= set(layers)


def test_fig11_block_stays_under_the_trace_column_memo():
    from repro.sim import soa
    assert 6 * workloads.FIG11_BLOCK <= soa._MEMO_MAX


# -- continuity with BENCH_sim.json ------------------------------------------

def test_mix4_long_fcfs_mix1_is_repro_bench_mix4():
    """mix4-long's FCFS mix-1 system at the default seed executes the
    49,640 events ``python -m repro.bench`` records for ``mix4`` over
    600k cycles, so the two trajectories share a fixed point."""
    system = workloads.mix4_systems(workloads.DEFAULT_SEED)[0]
    assert type(system.scheduler).__name__ == "_FcfsFallback"
    for _ in range(workloads.SLICES):
        system.run(workloads.SLICE_CYCLES)
    assert system.stats.cycles == 600_000
    assert system.engine.events_executed == 49_640


def test_tracing_does_not_change_the_simulation():
    from repro.sched import FrFcfsScheduler
    from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
    from repro.workloads.mixes import workload_traces

    def fingerprint():
        traces = workload_traces(1, seed=3)
        system = SimSystem(traces, config=SCALED_MULTI_CONFIG,
                           scheduler=FrFcfsScheduler(len(traces)))
        return system.run(20_000).fingerprint()

    untraced = fingerprint()
    rec = Recorder()
    rec.install_ops()
    rec.install_tracing()
    try:
        traced = fingerprint()
    finally:
        rec.uninstall()
    assert traced == untraced
    assert rec.hot["sched.select"][0] > 0
    assert len(rec.ops) == 1 and rec.ops[0][4] == 20_000
    assert [s[0] for s in rec.spans] == ["system.build", "system.run"]


# -- deadline ---------------------------------------------------------------

def test_an_overrunning_worker_is_killed_and_its_ops_fail(tmp_path):
    import time

    from perfbench.run import failed_result, spawn
    (tmp_path / "w.json.progress").write_text("41")
    start = time.monotonic()
    report, _spawned = spawn("mix4-long", workloads.DEFAULT_SEED, 0, 0,
                             str(tmp_path), start + 1.0)
    assert report is None
    assert time.monotonic() - start < 30
    result = failed_result(str(tmp_path), "overran")
    assert result == {"correct": False, "attempted": 42, "failed": 42,
                      "metrics": {}}
