"""Run one workload and turn what it recorded into named metrics.

The timed run (tracing off) yields the end-to-end metrics.  The traced
run is separate: one untraced pass and one traced pass at the same reduced
op counts, so ``trace.overhead_ratio`` is traced wall / untraced wall and
no end-to-end number ever carries tracing cost.
"""

from __future__ import annotations

import os
import resource
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import stats
from corpus import Corpus
from manifest import END_TO_END, PER_LAYER
from workloads import CALIBRATED_SECONDS, WORKLOADS, Env, Recorder

TRACE_SCALE = 0.35      # traced passes run this share of the timed op count
HOOK_DIR = Path(__file__).resolve().parent / "hook"


@dataclass
class Outcome:
    workload: str
    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: dict[str, object]          # sample counts etc., for the report
    samples: Optional[dict] = None    # raw timings of a timed run


def _env(corpus: Corpus, seed: int, scale: float, work_dir: Path,
         tracer=None) -> Env:
    work_dir.mkdir(parents=True, exist_ok=True)
    return Env(corpus=corpus, seed=seed, scale=scale, work_dir=work_dir,
               tracer=tracer)


def run_timed(workload: str, corpus: Corpus, seed: int, seconds: float,
              work_dir: Path, import_s: float) -> Outcome:
    """The untraced run: every end-to-end metric of one workload."""
    rec = WORKLOADS[workload](
        _env(corpus, seed, seconds / CALIBRATED_SECONDS, work_dir))
    op, alt = rec.samples["op"], rec.samples["alt"]
    metrics = {
        "op_ms_p50": 1000.0 * stats.median(op),
        "op_ms_tail": 1000.0 * stats.tail(op),
        "alt_ms_p50": 1000.0 * stats.median(alt),
        "ops_per_s": stats.median(rec.region_rates),
        "setup_s": import_s + stats.median(rec.setup),
    }
    assert set(metrics) == {name for name, *_ in END_TO_END}
    notes = {
        "op_n": len(op), "alt_n": len(alt), "setup_n": len(rec.setup),
        "tail_blocks": stats.tail_blocks(len(op)),
        "tail_quantile": stats.tail_quantile(
            len(op) // stats.tail_blocks(len(op))),
        "regions": len(rec.regions), "timed_wall_s": rec.wall_s,
    }
    samples = {"op": op, "alt": alt, "setup": rec.setup,
               "region_rates": rec.region_rates}
    return Outcome(workload, metrics, rec.attempted, rec.failed, notes,
                   samples)


# -- traced run --------------------------------------------------------------

def run_traced(workload: str, corpus: Corpus, seed: int, seconds: float,
               work_dir: Path, trace_out: Optional[Path] = None) -> Outcome:
    """The traced run: every per-layer metric of one workload."""
    from layers import LAYERS
    from tracer import TRACE_DIR_ENV, LayerTotals, Tracer, read_spans, \
        write_spans

    scale = TRACE_SCALE * seconds / CALIBRATED_SECONDS
    fn = WORKLOADS[workload]
    plain = fn(_env(corpus, seed, scale, work_dir / "plain"))

    span_dir = work_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    saved = {key: os.environ.get(key)
             for key in ("PYTHONPATH", TRACE_DIR_ENV)}
    usage_before = _cpu_seconds()
    tracer.install(LAYERS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(HOOK_DIR)] + [p for p in (saved["PYTHONPATH"] or "")
                           .split(os.pathsep) if p])
    os.environ[TRACE_DIR_ENV] = str(span_dir)
    try:
        traced = fn(_env(corpus, seed, scale, work_dir / "traced",
                         tracer=tracer))
    finally:
        tracer.uninstall()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    cpu_s = _cpu_seconds() - usage_before

    spans = list(tracer.spans)
    main_pid = os.getpid()
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        spans.extend(read_spans(path))
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        write_spans(trace_out, spans)
    timed = [s for s in spans
             if any(lo <= s[4] <= hi for lo, hi, _ops in traced.regions)]
    totals = LayerTotals(timed)
    metrics = per_layer_metrics(
        traced, totals, main_pid,
        overhead_ratio=traced.wall_s / plain.wall_s,
        cpu_s=cpu_s, unresolved=len(tracer.unresolved),
        repo_bytes=corpus.repo_bytes)
    assert list(metrics) == [name for name, *_ in PER_LAYER]
    notes = {"unresolved_layers": list(tracer.unresolved),
             "spans": len(spans), "traced_ops": traced.timed_ops,
             "trace_file": str(trace_out) if trace_out else None}
    shutil.rmtree(span_dir, ignore_errors=True)
    return Outcome(workload, metrics,
                   plain.attempted + traced.attempted,
                   plain.failed + traced.failed, notes)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rec: Recorder, totals, main_pid: int, *,
                      overhead_ratio: float, cpu_s: float, unresolved: int,
                      repo_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric, in manifest order; 0 where the layer did
    not run.  ``*.self_ms`` is per timed op of the traced pass."""
    ops = max(1, rec.timed_ops)
    counts = rec.counts

    def self_ms(layer: str) -> float:
        return 1000.0 * totals.self_s.get(layer, 0.0) / ops

    # Shard workers: the other traced processes of a run that scattered.
    workers = [busy for pid, busy in totals.root_busy_s.items()
               if pid != main_pid] if totals.calls.get("shard.executor") \
        else []
    steim_s = totals.self_s.get("mseed.steim", 0.0)
    decoded = totals.counter("mseed.steim", "samples_decoded")
    cycles = max(1.0, counts["restart_cycles"])
    values = {
        "mseed.files.calls": totals.calls.get("mseed.files", 0),
        "mseed.files.bytes_read": totals.counter("mseed.files", "bytes_read"),
        "mseed.steim.samples_decoded": decoded,
        "mseed.steim.msamples_per_s": _ratio(decoded, steim_s) / 1e6,
        "etl.metadata.files_harvested":
            totals.counter("etl.metadata", "files_harvested"),
        "etl.mseed_adapter.samples_extracted":
            totals.counter("etl.mseed_adapter", "samples_extracted"),
        "etl.lazy.fetch_calls": totals.calls.get("etl.lazy", 0),
        "etl.cache.hit_ratio":
            _ratio(counts["cache_hits"], counts["cache_lookups"]),
        "etl.cache.evictions": counts["cache_evictions"],
        "etl.cache.stale_drops": counts["cache_stale_drops"],
        "etl.refresh.files_updated":
            totals.counter("etl.refresh", "files_updated"),
        "db.plan.cache_hit_ratio":
            _ratio(counts["plan_cache_hits"], counts["statements"]),
        "db.exec.rows_out": counts["rows_out"],
        "db.exec.recycler.hit_ratio":
            _ratio(counts["recycler_hits"], counts["recycler_lookups"]),
        "storage.codecs.bytes_out_per_byte_in": _ratio(
            totals.counter("storage.codecs", "bytes_out"),
            totals.counter("storage.codecs", "bytes_in")),
        "storage.segment.pages_read": counts["pages_read"],
        "storage.segment.pages_skipped_zone": counts["pages_skipped_zone"],
        "storage.bufferpool.hit_ratio":
            _ratio(counts["pool_hits"], counts["pool_lookups"]),
        "storage.bufferpool.evictions": counts["pool_evictions"],
        "storage.store.fsyncs": totals.calls_by_name.get("fsync", 0),
        "storage.store.bytes_per_source_byte":
            _ratio(counts["store_bytes"] / cycles, repo_bytes),
        "storage.promoted.rows_served": counts["rows_served_eager"],
        "storage.promoted.promote_ms": 1000.0 * counts["promote_s"] / cycles,
        "storage.promoted.scan_ms":
            1000.0 * counts["promoted_scan_s"] / cycles,
        "service.queue_wait_ms": 1000.0 * _ratio(
            counts["queue_wait_s"], counts["queue_wait_n"]),
        "service.coalesced_ratio": _ratio(
            counts["coalesced_records"],
            counts["coalesced_records"] + counts["led_records"]),
        "net.frames.bytes_per_row": _ratio(
            totals.counter("net.frames", "bytes"),
            totals.counter("net.frames", "rows")),
        "net.client.socket_wait_ms": self_ms("net.client"),
        "shard.executor.worker_busy_ms":
            1000.0 * sum(workers) / ops if workers else 0.0,
        "shard.executor.slowest_over_mean":
            _ratio(max(workers), sum(workers) / len(workers))
            if workers else 0.0,
        "shard.transport.bytes_shipped":
            totals.counter("shard.transport", "bytes_shipped"),
        "shard.warm_decomposed_s": _ratio(
            counts["warm_decomposed_s"], counts["warm_decomposed_n"]),
        "process.peak_rss_mb": _peak_rss_mb(),
        "process.cpu_s": cpu_s,
        "trace.coverage": totals.coverage,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unresolved_layers": unresolved,
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in values:
            out[name] = float(values[name])
        else:
            layer, _, suffix = name.rpartition(".")
            assert suffix == "self_ms", f"no rule computes {name}"
            out[name] = self_ms(layer)
    return out
