"""Drive runs and print them: a human report per workload, then the result
object the driver reads from the last stdout line."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path


def result_object(outcome, units: dict[str, str]) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }


def print_outcome(outcome, units: dict[str, str], traced: bool) -> None:
    notes = outcome.notes
    if traced:
        print(f"  traced run: {notes['traced_ops']} ops, "
              f"{notes['spans']} spans -> {notes['trace_file']}")
        print(f"  unresolved_layers: {notes['unresolved_layers']}")
    else:
        print(f"  samples: op n={notes['op_n']} (tail = "
              f"p{100 * notes['tail_quantile']:.0f}, median over "
              f"{notes['tail_blocks']} blocks), alt n={notes['alt_n']}, "
              f"setup n={notes['setup_n']}, {notes['regions']} timed "
              f"regions, {notes['timed_wall_s']:.2f} s in all")
    for name, value in outcome.metrics.items():
        if traced and value == 0:
            continue            # layer did not run on this workload
        print(f"  {name:<40} {value:>14.4f} {units[name]}")
    print(f"  ops attempted {outcome.attempted}  failed {outcome.failed}")


def reap_resource_tracker() -> None:
    """Stop and wait for multiprocessing's resource tracker.

    Reading the shard workers' shared-memory blocks starts one in this
    process; left alone it only exits some time after we do, and the
    benchmark must have waited for every process it caused.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def run_all(args, run_py: Path) -> int:
    """Every workload, gated and ungated, each in a process of its own —
    exactly what the driver measures: a workload never inherits another
    one's heap."""
    import manifest

    failed = False
    for name in (*manifest.WORKLOADS, *manifest.UNGATED):
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, str(run_py), "--workload", name,
                       "--seed", str(args.seed), "--trace", str(trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.json_out is not None:
                command += ["--json-out", str(args.json_out)]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)   # drop the JSON line
            failed |= proc.returncode != 0 \
                or not lines or '"correct": true' not in lines[-1]
    return 1 if failed else 0


def main(args, build_dir: Path) -> int:
    """One workload in this process; prints the result object last."""
    started = time.perf_counter()
    import bench                      # imports the program: part of set-up
    import_s = time.perf_counter() - started
    import corpus as corpus_mod
    import manifest

    name = args.workload
    if name not in manifest.WORKLOADS and name not in manifest.UNGATED:
        print(f"perf: unknown workload {name!r}; choose from "
              f"{[*manifest.WORKLOADS, *manifest.UNGATED]}", file=sys.stderr)
        return 2
    seconds = manifest.RUN_SECONDS if args.seconds is None else args.seconds
    if seconds <= 0:
        print("perf: --seconds must be positive", file=sys.stderr)
        return 2
    units = manifest.units()
    traced = bool(args.trace)

    corpus = corpus_mod.ensure(build_dir / "corpus", args.seed)
    print(f"workload {name}{' [traced]' if traced else ''}  seed {args.seed}"
          f"  corpus C162 seed {corpus.seed}  sha256 {corpus.digest}  "
          f"input_gen_s {corpus.input_gen_s:.3f}"
          f"{'' if corpus.input_gen_s else ' (cached)'}")
    work_dir = build_dir / f"run-{os.getpid()}"
    try:
        if traced:
            outcome = bench.run_traced(
                name, corpus, args.seed, seconds, work_dir,
                build_dir / "trace" / f"{name}-{args.seed}.jsonl")
        else:
            outcome = bench.run_timed(
                name, corpus, args.seed, seconds, work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        reap_resource_tracker()
    print_outcome(outcome, units, traced)
    result = result_object(outcome, units)
    if args.json_out is not None:
        with open(args.json_out, "a") as out:
            out.write(json.dumps({"workload": name, "seed": args.seed,
                                  "trace": int(traced), "result": result,
                                  "samples": outcome.samples}) + "\n")
    print(json.dumps(result))
    return 0
