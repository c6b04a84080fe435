#!/usr/bin/env python3
"""Benchmark entry point: one workload run, one JSON result line.

    python3 perfbench/run.py --workload fig12-jobs2 --seed 7 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --workload all        # every workload, table

Run from the repository root (the simulator is imported from ``src/``).
Each run executes in worker processes under a deadline; a worker that
overruns is killed with its whole process group and its ops count as
failed.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (and writes a Chrome trace
under ``.perfbench/``).  The last line of standard output is the result
object; the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.stats import (beyond, error_rate,  # noqa: E402
                             percentile, tail_percentile)

#: setup_s samples per run: set-up-only processes plus the measured one
SETUP_SAMPLES = 3
#: whole-run deadline: a run must end within 180 s
DEADLINE_S = 170.0
WORK_DIR = os.path.join(ROOT, ".perfbench")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sim_mcycles_per_s": "Mcycles/s",
    "peak_rss_mb": "MB",
    "ops": "count",
}


def spawn(workload: str, seed: int, seconds: float, trace: int,
          work: str, deadline: float, setup_only: bool = False):
    """Run one worker process; ``(report or None, spawn time)``.

    ``None`` means the worker overran ``deadline`` (it and every process
    it started were killed) or died without writing its report.
    """
    out = os.path.join(work, f"worker-{time.monotonic_ns()}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["TMPDIR"] = work
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if not os.path.exists(out):
        return None, spawned
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), spawned


def progress(work: str) -> int:
    """Ops a killed worker had finished, from its progress file."""
    done = 0
    for name in os.listdir(work):
        if name.endswith(".progress"):
            with open(os.path.join(work, name), encoding="utf-8") as fh:
                done = max(done, int(fh.read() or 0))
    return done


def failed_result(work: str, problem: str) -> dict:
    ops = max(1, progress(work) + 1)
    print(f"perfbench: {problem}; {ops} op(s) recorded as failed",
          file=sys.stderr)
    return {"correct": False, "attempted": ops, "failed": ops,
            "metrics": {}}


def end_to_end(workload: str, seed: int, seconds: float, work: str,
               deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        report, spawned = spawn(workload, seed, seconds, 0, work, deadline,
                                setup_only=True)
        if report is None:
            return failed_result(work, "set-up overran its deadline or "
                                       "died")
        setups.append(report["setup_end"] - spawned)
    report, spawned = spawn(workload, seed, seconds, 0, work, deadline)
    if report is None:
        return failed_result(work, "run overran its deadline or died")
    problems = report["problems"]
    ops = max(1, report.get("ops", 0), progress(work))
    failed = min(ops, report["failed"])
    for problem in problems:
        print(f"perfbench: {workload} seed {seed}: {problem}",
              file=sys.stderr)
    if problems:
        return {"correct": False, "attempted": ops, "failed": failed,
                "metrics": {}}
    setups.append(report["setup_end"] - spawned)
    op_s = report["op_seconds"]
    p90 = tail_percentile(op_s, 0.9)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(report["passes"]),
        "op_ms_p50": percentile(op_s, 0.5) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "sim_mcycles_per_s": report["sim_cycles"] / sum(op_s) / 1e6,
        "peak_rss_mb": report["peak_rss_mb"],
        "ops": ops / len(report["passes"]),
    }
    print(f"perfbench: {workload} seed {seed}: {len(op_s)} op samples, "
          f"{beyond(len(op_s), 0.9)} beyond p90; "
          f"error_rate {error_rate(failed, ops):.4f}", file=sys.stderr)
    return {"correct": True, "attempted": ops, "failed": failed,
            "metrics": {name: {"value": value, "unit": E2E_UNITS[name]}
                        for name, value in values.items()}}


def per_layer(workload: str, seed: int, work: str, deadline: float) -> dict:
    """A traced run beside an untraced one: layer metrics, ``model.*``
    equality between the two, and the tracing overhead."""
    plain, _ = spawn(workload, seed, 0, 0, work, deadline)
    traced, _ = spawn(workload, seed, 0, 1, work, deadline)
    if plain is None or traced is None:
        return failed_result(work, "traced run overran its deadline or "
                                   "died")
    problems = plain["problems"] + traced["problems"]
    ops = max(1, traced.get("ops", 0))
    complete = "model" in plain and "layers" in traced
    differs = [key for key in plain["model"]
               if plain["model"][key] != traced["model"][key]] \
        if complete else []
    if differs:
        problems.append(f"tracing changed the simulation: {differs}")
    for problem in problems:
        print(f"perfbench: {workload} seed {seed} (traced): {problem}",
              file=sys.stderr)
    if not complete:
        return {"correct": False, "attempted": ops, "failed": ops,
                "metrics": {}}
    values = dict(traced["layers"])
    values.update(traced["model"])
    values["trace.spans"] = traced["trace_spans"]
    values["trace.overhead_s"] = statistics.median(traced["passes"]) \
        - statistics.median(plain["passes"])
    path = os.path.join(WORK_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(traced["trace"], handle)
    print(f"perfbench: Chrome trace written to {path}", file=sys.stderr)
    units = layer_units()
    failed = min(ops, traced["failed"] + plain["failed"] + bool(differs))
    return {"correct": not problems, "attempted": ops, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if trace:
            return per_layer(workload, seed, work, deadline)
        return end_to_end(workload, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_all(seed: int, seconds: float) -> int:
    """Every workload's end-to-end metrics (plus error_rate) as a table."""
    ok = True
    for workload in workloads.NAMES:
        result = run(workload, seed, seconds, 0)
        ok = ok and result["correct"]
        print(f"== {workload} (seed {seed})")
        for name, entry in result["metrics"].items():
            print(f"  {name:<20} {entry['value']:>14.4f} {entry['unit']}")
        print(f"  {'error_rate':<20} "
              f"{error_rate(result['failed'], result['attempted']):>14.4f}"
              f" failed/ops")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="repeat the fixed work until this many "
                             "seconds have passed (at least twice)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no simulator source at src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return report_all(args.seed, args.seconds)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
