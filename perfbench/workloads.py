"""The three benchmark workloads: inputs, fixed work, resume step, checks.

Every workload is closed-loop batch work: one client, each op (one
``SimSystem.run`` call) starts when the previous one returns.  The seed is
the benchmark's argument; the program sees only the traces it generates.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from typing import Callable, Dict, List

SCALE = "smoke"
#: default ``--seed``: with it the FCFS mix-1 system of ``mix4-long`` is
#: ``python -m repro.bench``'s ``mix4``
DEFAULT_SEED = 7
#: a second seed whose op fingerprints are also pinned in ``reference/``
HELD_OUT_SEED = 11
#: consecutive seeds per fig11-static pass (6 smoke benchmarks each, so 36
#: distinct traces: under the 64-entry trace-column memo of sim/soa.py)
FIG11_BLOCK = 6
MIXES = (1, 2, 3)
#: mix4-long: fixed slices of simulated cycles per system
SLICES = 12
SLICE_CYCLES = 50_000
#: a run needs at least this many ops, so p90 has 10 samples beyond it
MIN_OPS = 100
#: a run repeats its fixed work at least this often, so every timing is
#: a median over samples taken at different times of the run
MIN_PASSES = 2
#: wall-clock cap on one experiments-CLI subprocess
CLI_TIMEOUT_S = 150

NAMES = ("fig11-static", "mix4-long", "fig12-jobs2")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fig11_seeds(seed: int) -> List[int]:
    return list(range(seed, seed + FIG11_BLOCK))


def traces_for(name: str, seed: int) -> list:
    """The traces a workload's simulations replay."""
    if name == "fig11-static":
        from repro.experiments.common import benchmarks_for, get_scale
        from repro.experiments.fig11_static_comparison import FULL_SUITE
        from repro.workloads.benchmarks import trace_for
        names = benchmarks_for(get_scale(SCALE), FULL_SUITE)
        return [trace_for(bench, seed=s) for s in fig11_seeds(seed)
                for bench in names]
    from repro.workloads.mixes import workload_traces
    return [trace for mix in MIXES
            for trace in workload_traces(mix, seed=seed)]


def setup(name: str, seed: int) -> int:
    """Import the workload's layers and synthesise its traces; returns
    the number of distinct traces."""
    import repro.experiments  # noqa: F401
    import repro.runner  # noqa: F401
    traces = traces_for(name, seed)
    for trace in traces:
        for _event in trace:
            pass
    return len({(trace.profile.name, trace.seed) for trace in traces})


# ---------------------------------------------------------------------------
# fixed work: one pass returns what the checks and the resume step need

def pass_fig11(seed: int, _ctx: dict) -> list:
    import repro.experiments as experiments
    return [experiments.run_experiment("fig11", scale=SCALE, seed=s)
            for s in fig11_seeds(seed)]


def mix4_systems(seed: int) -> list:
    """The nine long systems: mixes 1-3 under FCFS, FR-FCFS and TCM."""
    from repro.sched import FrFcfsScheduler, TcmScheduler
    from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
    from repro.workloads.mixes import workload_traces
    systems = []
    for mix in MIXES:
        traces = workload_traces(mix, seed=seed)
        for factory in (None, FrFcfsScheduler, TcmScheduler):
            scheduler = factory(len(traces)) if factory else None
            systems.append(SimSystem(traces, config=SCALED_MULTI_CONFIG,
                                     scheduler=scheduler))
    return systems


def pass_mix4(seed: int, _ctx: dict) -> list:
    systems = mix4_systems(seed)
    for system in systems:
        for _ in range(SLICES):
            system.run(SLICE_CYCLES)
    return systems


def cli(args: List[str], record_dir: str = None,
        traced: bool = False) -> None:
    """Run the experiments CLI in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT])
    env.pop("PERFBENCH_RECORD", None)
    if record_dir is not None:
        env["PERFBENCH_RECORD"] = record_dir
        env["PERFBENCH_TRACE"] = "1" if traced else "0"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.cli", *args, "--no-progress"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S, check=False)
    if done.returncode != 0:
        tail = done.stderr.decode("utf-8", "replace")[-400:]
        raise RuntimeError(f"experiments CLI {args} exited "
                           f"{done.returncode}: {tail}")


def pass_jobs2(seed: int, ctx: dict) -> list:
    """fig12 through the CLI with ``--jobs 2`` and a fresh cache."""
    work = ctx["dir"]
    save = os.path.join(work, "first")
    cli(["fig12", "--scale", SCALE, "--seed", str(seed), "--jobs", "2",
         "--cache-dir", os.path.join(work, "cache"), "--save-dir", save],
        record_dir=ctx["record_dir"], traced=ctx["traced"])
    return [saved_result(os.path.join(save, "fig12.json"))]


PASSES: Dict[str, Callable] = {
    "fig11-static": pass_fig11,
    "mix4-long": pass_mix4,
    "fig12-jobs2": pass_jobs2,
}


# ---------------------------------------------------------------------------
# resume: serve the same outputs again from what the last pass saved.
# Only checked, not timed: as a process, a cached CLI re-run is almost all
# interpreter start-up and imports, which setup_s already measures.

def saved_result(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["result"]


def plain(result) -> dict:
    """A Result as the JSON the CLI's ``--save-dir`` holds."""
    return json.loads(json.dumps(asdict(result)))


def cli_spec(experiment: str, seed: int):
    """The job spec ``python -m repro.experiments`` builds for one
    experiment (its cache key)."""
    from repro.runner import JobSpec
    return JobSpec(job_id=experiment, fn="repro.experiments:run_experiment",
                   args=(experiment,),
                   kwargs=tuple(sorted({"scale": SCALE,
                                        "seed": seed}.items())),
                   seed=seed, scale=SCALE)


def resume_cli(experiment: str, seeds: List[int], results: list,
               work: str) -> int:
    """Cache each result under the CLI's key, then re-run the CLI with
    ``--resume --require-cached``; the results that came back different."""
    from repro.runner import ResultCache
    cache_dir = os.path.join(work, "cache")
    cache = ResultCache(cache_dir)
    mismatches = 0
    for seed, result in zip(seeds, results):
        if not isinstance(result, dict):
            cache.store(cli_spec(experiment, seed), result)
            result = plain(result)
        save = os.path.join(work, f"resume-{seed}")
        cli([experiment, "--scale", SCALE, "--seed", str(seed),
             "--cache-dir", cache_dir, "--resume", "--require-cached",
             "--save-dir", save])
        mismatches += saved_result(
            os.path.join(save, f"{experiment}.json")) != result
    return mismatches


def resume_mix4(systems: list, work: str) -> int:
    """Checkpoint each long system and restore it; the systems whose
    restored stats differ from the last op's."""
    from repro.sim.system import SimSystem
    paths = []
    for index, system in enumerate(systems):
        path = os.path.join(work, f"mix4-{index}.ckpt")
        system.save_checkpoint(path)
        paths.append(path)
    restored = [SimSystem.load_checkpoint(path) for path in paths]
    return sum(a.stats.fingerprint() != b.stats.fingerprint()
               for a, b in zip(systems, restored))


def resume_jobs2(seed: int, first: dict, ctx: dict) -> int:
    """The CLI's cached re-run against the cache its pass wrote."""
    save = os.path.join(ctx["dir"], "resumed")
    cli(["fig12", "--scale", SCALE, "--seed", str(seed), "--jobs", "2",
         "--cache-dir", os.path.join(ctx["dir"], "cache"), "--resume",
         "--require-cached", "--save-dir", save],
        record_dir=ctx["record_dir"], traced=ctx["traced"])
    return int(saved_result(os.path.join(save, "fig12.json")) != first)


def resume(name: str, seed: int, outputs: list, ctx: dict) -> int:
    """Outputs of the pass that made ``outputs`` that came back different
    when served again from what it saved."""
    if name == "fig11-static":
        return resume_cli("fig11", fig11_seeds(seed), outputs, ctx["dir"])
    if name == "mix4-long":
        return resume_mix4(outputs, ctx["dir"])
    return resume_jobs2(seed, outputs[0], ctx)


# ---------------------------------------------------------------------------
# output checks

def result_problems(outputs: list) -> int:
    """Experiment results with missing rows or non-finite summaries."""
    import math
    bad = 0
    for result in outputs:
        data = result if isinstance(result, dict) else plain(result)
        values = list(data["summary"].values())
        if not data["rows"] or not values \
                or not all(math.isfinite(v) and v > 0 for v in values):
            bad += 1
    return bad


def op_problems(ops: list) -> int:
    """Ops that raised out of the program or simulated the wrong span."""
    return sum(1 for op in ops
               if op[7] is None and op[6] != "raised:StarvationError"
               or op[7] is not None and op[4] != op[8])


def reference_path(name: str) -> str:
    """Pinned op fingerprints; ``fig12-jobs2`` is checked against serial
    fig12's."""
    base = "fig12" if name == "fig12-jobs2" else name
    return os.path.join(ROOT, "perfbench", "reference", f"{base}.json")


def reference_mismatches(name: str, seed: int, ops: list,
                         passes: int = 1) -> int:
    """Ops whose fingerprint differs from the pinned one (``0`` when the
    seed has no reference).  Pool workers finish in any order, so
    ``fig12-jobs2`` compares the multiset."""
    with open(reference_path(name), encoding="utf-8") as handle:
        pinned = json.load(handle).get(str(seed))
    if pinned is None:
        return 0
    pinned = pinned * passes
    got = [op[6] for op in ops]
    if name == "fig12-jobs2":
        return multiset_difference(pinned, got)
    return sum(a != b for a, b in zip(pinned, got)) \
        + abs(len(pinned) - len(got))


def multiset_difference(a: list, b: list) -> int:
    from collections import Counter
    left, right = Counter(a), Counter(b)
    return sum(((left - right) + (right - left)).values())


#: per-layer expectations of the traced run: nonzero on the heavy
#: workloads, exactly zero where the layer must not run
HEAVY = {
    "fig11-static": ("workloads.trace_calls", "system.builds",
                     "shaper.earliest_issue_calls", "shaper.issue_calls",
                     "macrotick.attach_calls", "macrotick.attached",
                     "ga.runs", "ga.evaluations", "experiments.self_s"),
    "mix4-long": ("engine.events", "sched.select_calls",
                  "dram.service_calls", "dram.row_hit_checks",
                  "dram.addr_map_calls"),
    "fig12-jobs2": ("runner.run_calls", "runner.jobs", "runner.cache_hits",
                    "runner.cache_store_s", "runner.cache_load_s",
                    "shaper.earliest_issue_calls", "shaper.issue_calls",
                    "sched.select_calls", "dram.service_calls",
                    "dram.row_hit_checks", "dram.addr_map_calls",
                    "ga.runs", "ga.evaluations", "experiments.self_s"),
}
_RUNNER = ("runner.run_calls", "runner.jobs", "runner.run_s",
           "runner.cache_hits", "runner.cache_load_s",
           "runner.cache_store_s", "runner.failed_jobs")
ZERO = {
    "fig11-static": _RUNNER,
    "mix4-long": _RUNNER + (
        "shaper.earliest_issue_calls", "shaper.earliest_issue_s",
        "shaper.issue_calls", "shaper.issue_s", "macrotick.attached",
        "ga.runs", "ga.evaluations", "ga.memo_hits", "ga.useful_ratio",
        "ga.starvations", "ga.self_s", "experiments.self_s"),
    # staggered shaper phases: the macro-tick pump never attaches
    "fig12-jobs2": ("runner.failed_jobs", "macrotick.attached"),
}


def expectation_problems(name: str, layers: Dict[str, float]) -> List[str]:
    problems = [f"{key} is 0 on its heavy workload"
                for key in HEAVY[name] if not layers[key]]
    problems += [f"{key} = {layers[key]} where it must be 0"
                 for key in ZERO[name] if layers[key]]
    return problems
