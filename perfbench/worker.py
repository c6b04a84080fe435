"""One benchmark run of one workload, in its own process.

``perfbench/run.py`` starts this module under a deadline and reads the
JSON it writes to ``--out``.  With ``--setup-only`` it stops after the
set-up (imports and trace synthesis) and reports when that ended, which is
how ``setup_s`` is sampled several times per run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import tempfile
import time
import traceback

from . import workloads
from .probe import (Recorder, chrome_trace, layer_metrics, load_records,
                    merge, model_totals)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(name: str, seed: int, seconds: float, traced: bool,
            report: dict, scratch: str, pin: bool = False) -> None:
    """Set up, run the fixed work, resume, check; fills ``report``.
    ``pin`` records the op fingerprints instead of comparing them."""
    rec = Recorder()
    rec.progress_path = report["progress_path"]
    rec.install_ops()
    if traced:
        rec.install_tracing()
    index = rec.open("trace.build") if traced else None
    report["distinct_traces"] = workloads.setup(name, seed)
    if traced:
        rec.close(index)
    report["setup_end"] = time.monotonic()

    ctx = {"dir": scratch, "traced": traced,
           "record_dir": os.path.join(scratch, "records")}
    os.makedirs(ctx["record_dir"])
    run_pass = workloads.PASSES[name]
    passes, results = [], []
    problems, failed = [], 0
    started = time.perf_counter()
    while len(passes) < workloads.MIN_PASSES \
            or time.perf_counter() - started < seconds:
        ctx["dir"] = tempfile.mkdtemp(dir=scratch)
        # Neither the previous pass's outputs nor its garbage belong to
        # this pass's time or peak memory.
        outputs = None
        gc.collect()
        start = time.perf_counter()
        outputs = run_pass(seed, ctx)
        passes.append(time.perf_counter() - start)
        if name != "mix4-long":
            bad = workloads.result_problems(outputs)
            if bad:
                problems.append(f"{bad} result(s) with empty rows or bad "
                                f"summary")
                failed += bad
        if name == "fig12-jobs2":
            results.append(outputs)
    report["passes"] = passes
    # before the checks and the resume step, which hold extra objects
    report["peak_rss_mb"] = peak_rss_mb()
    if not traced or name == "fig12-jobs2":
        # Traced serial runs skip the resume step: it would put runner
        # work on workloads whose runner counters must read 0.
        differs = workloads.resume(name, seed, outputs, ctx)
        if differs:
            problems.append(f"resumed output differs ({differs})")
            failed += differs

    def record():
        if name == "fig12-jobs2":
            return merge(load_records(ctx["record_dir"]) + [rec.dump()])
        return rec.dump()

    ops = list(record()["ops"])
    report["ops"] = len(ops)
    report["op_seconds"] = [op[3] for op in ops]
    report["sim_cycles"] = sum(op[4] for op in ops)
    report["model"] = model_totals(ops)
    fingerprints = [op[6] for op in ops]
    # every pass repeats the same ops, so the reference holds one pass
    one_pass = fingerprints[:len(ops) // len(passes)]
    wrong = workloads.op_problems(ops)
    if wrong:
        problems.append(f"{wrong} op(s) raised or simulated the wrong span")
        failed += wrong

    if name == "fig12-jobs2" and not traced:
        import repro.experiments as experiments
        rec.take_ops()
        serial = workloads.plain(experiments.run_experiment(
            "fig12", scale=workloads.SCALE, seed=seed))
        serial_ops = [op[6] for op in rec.take_ops()]
        differs = sum(result[0] != serial for result in results)
        if differs:
            problems.append(f"{differs} --jobs 2 result(s) differ from "
                            f"serial fig12")
            failed += differs
        differs = workloads.multiset_difference(serial_ops * len(passes),
                                                fingerprints)
        if differs:
            problems.append(f"{differs} op fingerprint(s) of --jobs 2 "
                            f"differ from serial fig12")
            failed += differs
        # serial fig12 is what the reference pins for this workload
        one_pass = serial_ops

    if pin:
        report["fingerprints"] = one_pass
    else:
        mismatch = workloads.reference_mismatches(name, seed, ops,
                                                  len(passes))
        if mismatch:
            problems.append(f"{mismatch} op fingerprint(s) differ from "
                            f"the reference at seed {seed}")
            failed += mismatch

    if len(ops) < workloads.MIN_OPS:
        problems.append(f"only {len(ops)} ops (< {workloads.MIN_OPS})")
        failed += 1
    if traced:
        rec.uninstall()
        traced_record = record()
        layers = layer_metrics(traced_record)
        problems += workloads.expectation_problems(name, layers)
        report["layers"] = layers
        report["trace_spans"] = len(traced_record["spans"])
        report["trace"] = chrome_trace(traced_record, layers)
    report["failed"] = min(failed, max(len(ops), 1))
    report["problems"] += problems


def pin_reference(name: str, seed: int, fingerprints: list) -> None:
    path = workloads.reference_path(name)
    pinned = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            pinned = json.load(handle)
    pinned[str(seed)] = fingerprints
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(pinned.items())), handle, indent=0)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.worker")
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this seed's op fingerprints in "
                             "reference/ (after a reviewed behaviour "
                             "change; fig12-jobs2 pins serial fig12's)")
    args = parser.parse_args(argv)

    if args.setup_only:
        workloads.setup(args.workload, args.seed)
        report = {"setup_end": time.monotonic()}
    else:
        report = {"progress_path": args.out + ".progress", "problems": []}
        scratch = tempfile.mkdtemp(prefix="run-",
                                   dir=os.path.dirname(args.out))
        try:
            measure(args.workload, args.seed, args.seconds,
                    bool(args.trace), report, scratch,
                    pin=args.write_reference)
        except Exception:
            report["problems"].append(traceback.format_exc(limit=8))
            report["failed"] = report.get("ops", 0) + 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if args.write_reference and not report["problems"]:
            pin_reference(args.workload, args.seed,
                          report["fingerprints"])
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
