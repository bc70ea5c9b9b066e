"""``run.py --check``: the guard against an invalid manifest.

Static: ``BENCHMARK.json`` obeys the driver's schema (names, counts,
units, bounds, paths) and equals what manifest.py generates.  Dynamic:
in a clean copy of the checkout (program source + this directory + the
manifest, nothing else), the manifest's command runs every workload (the ungated ones too) with
``--trace 0`` and ``--trace 1`` and emits exactly the manifest's metric
names — both directions, per workload — with the right units; and in a
directory holding only the manifest and ``paths`` it fails without
printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import manifest as manifest_mod

CHECK_SECONDS = 1
CHECK_SEED = 20130826
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _copy_checkout(root: Path, dest: Path, manifest: dict, *,
                   with_program: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    dest.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in manifest["paths"]:
        shutil.copytree(root / path, dest / path, ignore=ignore)
    if with_program:
        shutil.copytree(root / "src", dest / "src", ignore=ignore)
        # Synthesis costs ~15 s per corpus; a copied cache is still
        # digest-checked when the run loads it.
        cache = root / ".bench_build" / "perf" / "corpus"
        if cache.is_dir():
            shutil.copytree(cache, dest / ".bench_build" / "perf" / "corpus")


def _run(command: list[str], cwd: Path, workload: str, trace: int
         ) -> subprocess.CompletedProcess:
    # As the driver would: no PYTHONPATH or hash seed handed down.
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "PYTHONHASHSEED")}
    return subprocess.run(
        command + ["--workload", workload, "--seed", str(CHECK_SEED),
                   "--seconds", str(CHECK_SECONDS), "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def _check_result(proc, workload: str, trace: int, manifest: dict
                  ) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{where}: last stdout line is not a JSON object"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
    if not (isinstance(result["attempted"], int)
            and result["attempted"] >= 1):
        errors.append(f"{where}: attempted = {result['attempted']!r}")
    declared = manifest["per_layer" if trace else "end_to_end"]
    want = {entry["name"]: entry["unit"] for entry in declared}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        errors.append(f"{where}: manifest metric {name} was not emitted")
    for name in sorted(set(got) - set(want)):
        errors.append(f"{where}: emitted metric {name} is not in the "
                      f"manifest")
    for name in sorted(set(got) & set(want)):
        metric = got[name]
        if set(metric) != {"value", "unit"} or metric["unit"] != want[name]:
            errors.append(f"{where}: {name} is {metric}, want unit "
                          f"{want[name]}")
        elif isinstance(metric["value"], bool) \
                or not isinstance(metric["value"], (int, float)):
            errors.append(f"{where}: {name} value {metric['value']!r}")
        elif not trace and metric["value"] <= 0:
            errors.append(f"{where}: end-to-end {name} must never be 0")
    return errors


def main(root: Path) -> int:
    manifest_path = root / "BENCHMARK.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"check: cannot read {manifest_path}: {exc}", file=sys.stderr)
        return 1
    errors = manifest_mod.validate(manifest, root)
    if manifest != manifest_mod.build():
        errors.append("BENCHMARK.json differs from manifest.py "
                      "(regenerate with run.py --write-manifest)")
    if errors:
        print("\n".join(f"check: {e}" for e in errors), file=sys.stderr)
        return 1

    scratch = root / ".bench_build" / "perf" / "check"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        clean, bare = scratch / "clean", scratch / "bare"
        _copy_checkout(root, clean, manifest, with_program=True)
        _copy_checkout(root, bare, manifest, with_program=False)
        command = manifest["command"]
        workloads = [entry["name"] for entry in manifest["workloads"]]
        workloads += manifest_mod.UNGATED    # same metric names, not gated

        proc = _run(command, bare, workloads[0], 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            errors.append("without the program the command must fail "
                          "and print no result")
        for workload in workloads:
            for trace in (0, 1):
                print(f"check: {workload} --trace {trace}", flush=True)
                errors.extend(_check_result(
                    _run(command, clean, workload, trace),
                    workload, trace, manifest))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if errors:
        print("\n".join(f"check: {e}" for e in errors), file=sys.stderr)
        return 1
    print(f"check: ok — {len(workloads)} workloads, "
          f"{len(manifest['end_to_end'])} end-to-end and "
          f"{len(manifest['per_layer'])} per-layer metrics emitted "
          f"as declared")
    return 0
