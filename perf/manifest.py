"""What the benchmark measures, as data: workloads, end-to-end metrics and
per-layer metrics.  ``BENCHMARK.json`` at the repository root is generated
from these tables (``run.py --write-manifest``) and ``run.py --check``
fails when the committed file and the code disagree.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

RUN_SECONDS = 14
COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name -> why (what op and alt are, and which layers it exists to price).
# These are in BENCHMARK.json: the driver runs and gates them.  All are
# single-threaded and in-process, so the second core of the reference box
# absorbs a busy neighbour and their medians hold still.
WORKLOADS: dict[str, str] = {
    "cold_first_answer":
        "Paper headline. op: lazy construct over 162 files + Figure-1 Q1 "
        "(metadata-only load); alt: same with mode=eager over a 36-file "
        "network (full up-front load). Header scan, harvest, bulk insert.",
    "cold_scan":
        "Extraction-bound. op: first-touch COUNT/MIN/MAX/AVG per channel "
        "over one station's 18 files on a lazy warehouse; alt: STDDEV_SAMP "
        "over the same, now cached. File read, Steim decode, transform.",
    "warm_window_mix":
        "Corpus fits the cache. op: distinct ad-hoc 30 s-window queries "
        "(parse+plan every time); alt: prepared Figure-1 Q1 template "
        "(plan-cache hits). No file I/O or decode.",
    "cache_churn_rewrite":
        "Working set 6x the cache, writes beside reads. op: ad-hoc 60 s "
        "window on a Zipf(1.1) file (miss, evict, re-extract); alt: "
        "rewrite a file then sync(), next query must see new bytes.",
    "checkpoint_restart":
        "Storage engine. alt: checkpoint() of a warehouse that scanned a "
        "station (page encode, segment write, fsync); op: first answer "
        "after reopening from the store; then promote() and a promoted scan.",
}

# Runnable (``--workload NAME``, and in the all-workloads report) but not
# in BENCHMARK.json.  Both keep two or three processes busy on the two
# cores of the reference box, so a busy neighbour slows them 1.2-2x for
# minutes at a time: no bound the driver accepts would hold.
UNGATED: dict[str, str] = {
    "tcp_serve_mix":
        "Serving path: repro.net.cli subprocess, one client connection. "
        "op: prepared Q1 over TCP (per-request overhead); alt: every 10th "
        "op retrieves a 24000-row file (batch encode, copy, socket).",
    "shard_scatter":
        "SeismicWarehouse(shards=2). op: cold decomposable COUNT+MAX per "
        "channel of a station (partial-aggregate pushdown); alt: "
        "STDDEV_SAMP (fallback shipping sample arrays over shm).",
}

# (name, unit, better, bound).  Every bound is the driver's maximum.  Ten
# runs of a gated workload spread by 2-5 % (interquartile distance /
# median) while the shared host is quiet, but by 8-14 % when one of its
# slow spells covers part of the set, and two sets twenty minutes apart
# differed by up to 13 % in their medians (README.md has both sets).
END_TO_END: list[tuple[str, str, str, float]] = [
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("alt_ms_p50", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER: list[tuple[str, str, str]] = [
    ("seismology.warehouse.self_ms", "ms", "lower"),
    ("mseed.files.self_ms", "ms", "lower"),
    ("mseed.files.calls", "count", "lower"),
    ("mseed.files.bytes_read", "B", "lower"),
    ("mseed.steim.self_ms", "ms", "lower"),
    ("mseed.steim.samples_decoded", "count", "lower"),
    ("mseed.steim.msamples_per_s", "Msamples/s", "higher"),
    ("etl.metadata.self_ms", "ms", "lower"),
    ("etl.metadata.files_harvested", "count", "lower"),
    ("etl.mseed_adapter.self_ms", "ms", "lower"),
    ("etl.mseed_adapter.samples_extracted", "count", "lower"),
    ("etl.lazy.self_ms", "ms", "lower"),
    ("etl.lazy.fetch_calls", "count", "lower"),
    ("etl.eager.self_ms", "ms", "lower"),
    ("etl.cache.self_ms", "ms", "lower"),
    ("etl.cache.hit_ratio", "ratio", "higher"),
    ("etl.cache.evictions", "count", "lower"),
    ("etl.cache.stale_drops", "count", "lower"),
    ("etl.refresh.self_ms", "ms", "lower"),
    ("etl.refresh.files_updated", "count", "higher"),
    ("db.sql.self_ms", "ms", "lower"),
    ("db.plan.self_ms", "ms", "lower"),
    ("db.plan.cache_hit_ratio", "ratio", "higher"),
    ("db.exec.self_ms", "ms", "lower"),
    ("db.exec.rows_out", "count", "higher"),
    ("db.exec.recycler.self_ms", "ms", "lower"),
    ("db.exec.recycler.hit_ratio", "ratio", "higher"),
    ("api.self_ms", "ms", "lower"),
    ("storage.codecs.self_ms", "ms", "lower"),
    ("storage.codecs.bytes_out_per_byte_in", "ratio", "lower"),
    ("storage.segment.self_ms", "ms", "lower"),
    ("storage.segment.pages_read", "count", "lower"),
    ("storage.segment.pages_skipped_zone", "count", "higher"),
    ("storage.bufferpool.hit_ratio", "ratio", "higher"),
    ("storage.bufferpool.evictions", "count", "lower"),
    ("storage.store.self_ms", "ms", "lower"),
    ("storage.store.fsyncs", "count", "lower"),
    ("storage.store.bytes_per_source_byte", "ratio", "lower"),
    ("storage.promoted.self_ms", "ms", "lower"),
    ("storage.promoted.rows_served", "count", "higher"),
    ("storage.promoted.promote_ms", "ms", "lower"),
    ("storage.promoted.scan_ms", "ms", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("net.frames.self_ms", "ms", "lower"),
    ("net.frames.bytes_per_row", "B", "lower"),
    ("net.server.self_ms", "ms", "lower"),
    ("net.client.socket_wait_ms", "ms", "lower"),
    ("shard.executor.self_ms", "ms", "lower"),
    ("shard.executor.worker_busy_ms", "ms", "lower"),
    ("shard.executor.slowest_over_mean", "ratio", "lower"),
    ("shard.transport.self_ms", "ms", "lower"),
    ("shard.transport.bytes_shipped", "B", "lower"),
    ("shard.gather.self_ms", "ms", "lower"),
    ("shard.warm_decomposed_s", "s", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unresolved_layers", "count", "lower"),
]


def build() -> dict:
    """The manifest the tables above describe."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def units() -> dict[str, str]:
    out = {name: unit for name, unit, _b, _bound in END_TO_END}
    out.update({name: unit for name, unit, _b in PER_LAYER})
    return out


def validate(manifest: dict, root: Path) -> list[str]:
    """Every way ``manifest`` breaks the driver's contract (static part)."""
    errors: list[str] = []
    expected_keys = {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}
    if set(manifest) != expected_keys:
        errors.append(f"top-level keys {sorted(manifest)} != "
                      f"{sorted(expected_keys)}")
        return errors
    if len(json.dumps(manifest)) > 64 * 1024:
        errors.append("manifest larger than 64 KiB")
    command = manifest["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and all(
            isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command must be 1-32 strings of <= 200 chars")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in arg.split("/"):
                errors.append(f"command argument {arg!r} leaves the repo")
    paths = manifest["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1-16 directories")
    else:
        for path in paths:
            if not re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) \
                    or path.startswith("/") or ".." in path.split("/"):
                errors.append(f"bad path {path!r}")
            elif not (root / path).is_dir():
                errors.append(f"path {path!r} does not exist")
    seconds = manifest["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool)
            and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number in 1..60")

    names: list[str] = []

    def check_entries(key, lo, hi, fields) -> None:
        entries = manifest[key]
        if not (isinstance(entries, list) and lo <= len(entries) <= hi):
            errors.append(f"{key}: need {lo}..{hi} entries")
            return
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != set(fields):
                errors.append(f"{key}: entry keys must be {fields}: {entry}")
                continue
            names.append(entry["name"])
            if not NAME_RE.match(str(entry["name"])):
                errors.append(f"{key}: bad name {entry['name']!r}")
            if "why" in entry and (len(entry["why"]) > 200
                                   or "\n" in entry["why"]):
                errors.append(f"{key}: why of {entry['name']} is not one "
                              f"line of <= 200 chars")
            if "unit" in entry and not UNIT_RE.match(str(entry["unit"])):
                errors.append(f"{key}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower",
                                                             "higher"):
                errors.append(f"{key}: bad better {entry['better']!r}")
            if "bound" in entry and not (
                    isinstance(entry["bound"], (int, float))
                    and 0 < entry["bound"] <= 0.25):
                errors.append(f"{key}: bound of {entry['name']} not in "
                              f"(0, 0.25]")

    check_entries("workloads", 2, 8, ("name", "why"))
    check_entries("end_to_end", 1, 16, ("name", "unit", "better", "bound"))
    check_entries("per_layer", 1, 128, ("name", "unit", "better"))
    for name in sorted({n for n in names if names.count(n) > 1}):
        errors.append(f"name {name!r} is used more than once")
    setup = [e for e in manifest["end_to_end"]
             if isinstance(e, dict) and e.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s"
            and setup[0].get("better") == "lower"):
        errors.append("end_to_end needs setup_s with unit s, better lower")
    return errors
