"""The seven workloads.  Each drives only the stable public surface
(``SeismicWarehouse`` / ``connect()`` / cursors / ``sync`` / ``checkpoint``
/ ``promote`` / ``connect_tcp`` / ``python -m repro.net.cli``), closed
loop, and checks every answer against the numpy oracle.

A workload times two classes of operation — ``op`` (the headline one)
and ``alt`` (the contrasting one) — plus its own set-up, and returns a
:class:`Recorder`.  Op counts are fixed per ``--seconds`` (calibrated so
the timed regions add up to about ``--seconds`` on the 2-core reference
box), never time-boxed, so one seed always runs the same statements.

Every workload cuts its run into many short timed regions that each hold
the same mix of ops: both classes are sampled across the whole run, so a
slow spell of a shared host lands on a minority of every sample list and
the medians reject it, and throughput is the median over regions.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import ops as opgen
from corpus import Corpus
from ops import Op
from oracle import Oracle, rows_match
from repro import SeismicWarehouse, connect_tcp
from repro.seismology.queries import fig1_query1_template

TCP_TOKEN = "perf-benchmark-token"

# The op-count literals below are sized for this many seconds of timed
# regions on the 2-core reference box; ``--seconds`` scales them.
CALIBRATED_SECONDS = 10

# cache_churn_rewrite: 1/6 of the 36 890 560 bytes ``wh.cache.used_bytes``
# reports after a full scan of C162 (measured once; frozen here so the
# working-set-to-cache ratio never drifts with the program).
CHURN_CACHE_BUDGET_BYTES = 6_148_000
CHURN_REWRITE_EVERY = 50
CHURN_WARMUP_QUERIES = 150
WARM_BLOCK = 100
TCP_SMALL_PER_LARGE = 9
EAGER_NETWORKS = ("GE", "KO")    # two stations, 36 files each


@dataclass
class Env:
    corpus: Corpus
    seed: int
    scale: float                 # --seconds / CALIBRATED_SECONDS
    work_dir: Path               # private scratch, removed after the run
    tracer: object = None        # tracer.Tracer during the traced pass
    _paths: "itertools.count" = field(default_factory=itertools.count)

    def count(self, at_calibration: int, floor: int = 1) -> int:
        return max(floor, round(at_calibration * self.scale))

    def fresh_path(self, stem: str) -> Path:
        return self.work_dir / f"{stem}-{next(self._paths)}"


class Recorder:
    """Latency samples, set-up samples, failures and boundary counts."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {"op": [], "alt": []}
        self.setup: list[float] = []
        self.regions: list[tuple[float, float, int]] = []  # start, end, ops
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end, _ops in self.regions)

    @property
    def region_rates(self) -> list[float]:
        """Timed ops per second of each timed region."""
        return [ops / (end - start) for start, end, ops in self.regions]

    @property
    def timed_ops(self) -> int:
        return sum(len(v) for v in self.samples.values())

    @contextmanager
    def setting_up(self):
        start = time.perf_counter()
        yield
        self.setup.append(time.perf_counter() - start)

    @contextmanager
    def timed_region(self):
        """One timed region.  Every region of a workload holds the same
        mix of ops, so their rates are comparable."""
        gc.collect()
        before = self.timed_ops
        start = time.perf_counter()
        try:
            yield
        finally:
            self.regions.append((start, time.perf_counter(),
                                 self.timed_ops - before))

    def run(self, kind: Optional[str], fn: Callable[[], object],
            verify: Callable[[object], bool]):
        """Time ``fn()`` as one op of class ``kind`` (``None``: a set-up
        statement, verified but not sampled).  An exception or a wrong
        answer is a failed op; its latency still counts."""
        result, ok = None, False
        tracer = self.tracer
        start = time.perf_counter()
        try:
            if tracer is not None and kind is not None:
                with tracer.op(kind, next(self._ids)):
                    result = fn()
            else:
                result = fn()
            elapsed = time.perf_counter() - start
            ok = bool(verify(result))
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"perf: FAILED {kind or 'setup'} op: "
                      f"{str(result)[:200]}", file=sys.stderr)
        if kind is not None:
            self.samples[kind].append(elapsed)
        return result

    # -- statements ----------------------------------------------------------

    def statement(self, kind: Optional[str], execute, op: Op):
        """Run one :class:`Op` through ``execute`` (see :func:`on` and
        :func:`bound`) and fetch everything."""
        def fn():
            cursor = execute(op)
            rows = cursor.fetchall()
            if self.tracer is not None:
                self.note_report(cursor.report)
            return rows
        return self.run(kind, fn, lambda rows: matches(rows, op))

    # -- counts read at the layer boundaries (traced pass only) --------------

    def note_report(self, report) -> None:
        if report is None:
            return
        counts = self.counts
        counts["statements"] += 1
        counts["plan_cache_hits"] += bool(report.plan_cache_hit)
        for name in ("rows_out", "rows_extracted", "pages_read",
                     "pages_skipped_zone", "rows_served_eager"):
            counts[name] += getattr(report, name, 0) or 0

    def note_warehouse(self, wh, sign: int = 1) -> None:
        """Fold a warehouse's own counters in (call before ``close``).
        ``sign=-1`` right after set-up subtracts what set-up itself
        caused, leaving the timed region's share."""
        if self.tracer is None:
            return
        counts = self.counts
        cache = wh.cache
        if cache is not None:
            stats = cache.stats
            for name in ("lookups", "hits", "evictions", "stale_drops"):
                counts[f"cache_{name}"] += sign * getattr(stats, name)
        recycler = wh.recycler
        if recycler is not None:
            counts["recycler_lookups"] += sign * recycler.stats.lookups
            counts["recycler_hits"] += sign * recycler.stats.hits
        if wh.store is not None:
            pool = wh.store.pool.snapshot()
            for name in ("lookups", "hits", "evictions"):
                counts[f"pool_{name}"] += sign * pool[name]


def on(conn) -> Callable[[Op], object]:
    """Ad-hoc execution: the SQL text travels with every op."""
    return lambda op: conn.execute(op.sql, op.params)


def bound(stmt) -> Callable[[Op], object]:
    """Execution of a statement prepared once; only values travel."""
    return lambda op: stmt.execute(op.params)


def matches(rows, op: Op) -> bool:
    return rows_match(rows, op.want, rel=op.rel, ordered=op.ordered)


# -- 1. cold_first_answer ----------------------------------------------------

def cold_first_answer(env: Env) -> Recorder:
    """op: lazy construct over all 162 files -> connect -> Figure-1 Q1 ->
    fetchall -> close.  alt: the same with mode="eager" (the up-front
    load the paper avoids) over one two-station network, 36 files: the
    eager load of all 162 takes 4-6 s, too long to sample often enough
    for a steady median."""
    rec = Recorder(env.tracer)
    corpus = env.corpus
    oracle = Oracle(corpus.entries, corpus.truth)
    rng = opgen.rng_for(env.seed, "cold_first_answer")
    eager_side = [
        (str(corpus.root / network),
         Oracle([e for e in corpus.entries if e.network == network],
                corpus.truth))
        for network in EAGER_NETWORKS]

    def first_answer(kind: Optional[str], mode: str, root: str,
                     truth: Oracle) -> None:
        op = opgen.fig1_q1_op(truth, rng)

        def fn():
            wh = SeismicWarehouse(root, mode=mode)
            try:
                cursor = wh.connect().execute(op.sql)
                rows = cursor.fetchall()
                if rec.tracer is not None:
                    rec.note_report(cursor.report)
                    rec.note_warehouse(wh)
                return rows
            finally:
                wh.close()
        rec.run(kind, fn, lambda rows: matches(rows, op))

    first_answer(None, "eager", *eager_side[-1])
    for _ in range(3):
        with rec.setting_up():
            first_answer(None, "lazy", str(corpus.root), oracle)
    for i in range(env.count(17, floor=3)):
        with rec.timed_region():
            first_answer("op", "lazy", str(corpus.root), oracle)
            first_answer("alt", "eager", *eager_side[i % len(eager_side)])
    return rec


# -- 2. cold_scan ------------------------------------------------------------

def cold_scan(env: Env) -> Recorder:
    """A fresh lazy warehouse every nine regions; one region per station.
    op: first touch of the station's 18 files — COUNT/MIN/MAX/AVG per
    channel over all their samples (read, Steim decode, transform).
    alt: STDDEV_SAMP per channel over the same, now cached, samples."""
    rec = Recorder(env.tracer)
    oracle = Oracle(env.corpus.entries, env.corpus.truth)
    rng = opgen.rng_for(env.seed, "cold_scan")
    root = str(env.corpus.root)
    regions = env.count(30, floor=3)
    while regions > 0:
        stations = oracle.stations()
        rng.shuffle(stations)
        with rec.setting_up():
            wh = SeismicWarehouse(root, mode="lazy")
            adhoc = on(wh.connect())
        try:
            for station in stations[:regions]:
                with rec.timed_region():
                    rec.statement("op", adhoc,
                                  opgen.station_scan_op(oracle, station))
                    rec.statement("alt", adhoc,
                                  opgen.station_stddev_op(oracle, station))
            rec.note_warehouse(wh)
        finally:
            wh.close()
        regions -= len(stations)
    return rec


# -- 3. warm_window_mix ------------------------------------------------------

def warm_window_mix(env: Env) -> Recorder:
    """Corpus fits the default 256 MiB cache, warmed by one full scan.
    op: distinct ad-hoc literal 30 s-window AVG+COUNT queries.
    alt: executions of fig1_query1_template() prepared once."""
    rec = Recorder(env.tracer)
    oracle = Oracle(env.corpus.entries, env.corpus.truth)
    rng = opgen.rng_for(env.seed, "warm_window_mix")
    n = WARM_BLOCK * env.count(24, floor=3)
    adhoc = opgen.distinct_ops(
        lambda: opgen.adhoc_window_op(oracle, rng, 30.0), n)
    prepared = opgen.distinct_ops(
        lambda: opgen.prepared_q1_op(oracle, rng), n)
    with rec.setting_up():
        wh = SeismicWarehouse(str(env.corpus.root), mode="lazy")
        conn = wh.connect()
        rec.statement(None, on(conn), opgen.scan_op(oracle))
    rec.note_warehouse(wh, -1)
    try:
        stmt = conn.prepare(fig1_query1_template())
        adhoc_run, bound_run = on(conn), bound(stmt)
        # Runs of one class at a time inside each region: each sample
        # list stays unimodal and spans the whole run.
        for start in range(0, n, WARM_BLOCK):
            with rec.timed_region():
                for op in adhoc[start:start + WARM_BLOCK]:
                    rec.statement("op", adhoc_run, op)
                for op in prepared[start:start + WARM_BLOCK]:
                    rec.statement("alt", bound_run, op)
        rec.note_warehouse(wh)
    finally:
        wh.close()
    return rec


# -- 4. cache_churn_rewrite --------------------------------------------------

def cache_churn_rewrite(env: Env) -> Recorder:
    """Working set ~6x the extraction cache, files rewritten under query.
    op: ad-hoc 60 s-window query on a Zipf(1.1)-chosen file.
    alt: rewrite one file (os.replace + mtime bump) -> sync() returns;
    the next query reads that file and must see the new bytes."""
    rec = Recorder(env.tracer)
    corpus = env.corpus
    oracle = Oracle(corpus.entries, corpus.truth)
    rng = opgen.rng_for(env.seed, "cache_churn_rewrite")
    repo = corpus.private_copy(env.fresh_path("churn-repo"))
    regions = env.count(54, floor=4)
    files = list(corpus.entries)
    rng.shuffle(files)                      # rank -> file, per seed
    ranks = iter(opgen.zipf_ranks(
        rng, len(files),
        CHURN_WARMUP_QUERIES + regions * CHURN_REWRITE_EVERY))
    swapped: dict[int, bool] = {}           # alt-capable index -> alt live?
    staged = env.fresh_path("staged")

    def window_on(entry) -> Op:
        return opgen.adhoc_window_op(oracle, rng, 60.0, inside=entry)

    def rewrite(entry) -> None:
        """Flip ``entry`` between its original and alternate bytes."""
        to_alt = not swapped.get(entry.index, False)
        source = (corpus.alt_root if to_alt else corpus.root) / entry.rel
        target = repo / entry.rel
        shutil.copyfile(source, staged)
        bumped = target.stat().st_mtime_ns + 2_000_000_000

        def fn():
            os.replace(staged, target)
            os.utime(target, ns=(bumped, bumped))
            return wh.sync()
        rec.run("alt", fn, lambda report: report.updated == [entry.rel])
        swapped[entry.index] = to_alt
        oracle.replace_file(
            entry, (corpus.alt_truth if to_alt else corpus.truth)[entry.index])

    with rec.setting_up():
        wh = SeismicWarehouse(str(repo), mode="lazy",
                              cache_budget_bytes=CHURN_CACHE_BUDGET_BYTES)
        adhoc = on(wh.connect())
        for _ in range(CHURN_WARMUP_QUERIES):
            rec.statement(None, adhoc, window_on(files[next(ranks)]))
    rec.note_warehouse(wh, -1)
    try:
        rewritten = None
        for _ in range(regions):
            with rec.timed_region():
                for i in range(CHURN_REWRITE_EVERY):
                    entry = files[next(ranks)]
                    if i == 0 and rewritten is not None:
                        entry = rewritten   # must answer from the new bytes
                    rec.statement("op", adhoc, window_on(entry))
                rewritten = rng.choice(corpus.alt_entries)
                rewrite(rewritten)
        rec.note_warehouse(wh)
    finally:
        wh.close()
    return rec


# -- 5. tcp_serve_mix --------------------------------------------------------

@contextmanager
def served_warehouse(root: str, log_path: Path):
    """``python -m repro.net.cli`` as a subprocess; yields its TCP port."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.cli", "--repo", root,
             "--tcp-port", "0", "--auth-token", TCP_TOKEN],
            stdout=subprocess.PIPE, stderr=log, text=True)
        watchdog = threading.Timer(60.0, proc.kill)   # never hang on spawn
        watchdog.start()
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("repro-serve: ready"):
                    port = int(line.split("tcp=")[1].split()[0]
                               .rsplit(":", 1)[1])
                    break
            watchdog.cancel()
            if port is None:
                raise RuntimeError(
                    f"server did not become ready (see {log_path})")
            yield port
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def tcp_serve_mix(env: Env) -> Recorder:
    """A served warehouse and one client connection, closed loop: client
    and server take turns, so the pair never wants more than the box's
    two cores.  op: the prepared Figure-1 Q1 template over TCP (1-row
    result).  alt: every 10th op retrieves one whole file (24 000 rows,
    many FETCH batches)."""
    rec = Recorder(env.tracer)
    oracle = Oracle(env.corpus.entries, env.corpus.truth)
    rng = opgen.rng_for(env.seed, "tcp_serve_mix")
    regions = env.count(52, floor=4)
    per_region = 2 * TCP_SMALL_PER_LARGE
    small = iter(opgen.distinct_ops(
        lambda: opgen.prepared_q1_op(oracle, rng), regions * per_region))
    log_path = env.fresh_path("server-log")
    started = time.perf_counter()
    with served_warehouse(str(env.corpus.root), log_path) as port:
        conn = connect_tcp("127.0.0.1", port, token=TCP_TOKEN)
        try:
            adhoc = on(conn)
            rec.statement(None, adhoc, opgen.scan_op(oracle))
            template = bound(conn.prepare(fig1_query1_template()))
            rec.setup.append(time.perf_counter() - started)
            if rec.tracer is not None:
                _note_server_metrics(rec, conn, -1)
            for _ in range(regions):
                with rec.timed_region():
                    for i in range(per_region + 2):
                        if i % (TCP_SMALL_PER_LARGE + 1) == TCP_SMALL_PER_LARGE:
                            rec.statement("alt", adhoc, opgen.file_retrieval_op(
                                oracle, rng.choice(env.corpus.entries)))
                        else:
                            rec.statement("op", template, next(small))
            if rec.tracer is not None:
                _note_server_metrics(rec, conn)
        finally:
            conn.close()
    return rec


def _note_server_metrics(rec: Recorder, conn, sign: int = 1) -> None:
    """Server-side counts, read through the server's own sys.metrics."""
    rows = conn.execute(
        "SELECT name, stat, value FROM sys.metrics").fetchall()
    wanted = {
        ("repro_cache_lookups_total", "value"): "cache_lookups",
        ("repro_cache_hits_total", "value"): "cache_hits",
        ("repro_cache_evictions_total", "value"): "cache_evictions",
        ("repro_cache_stale_drops_total", "value"): "cache_stale_drops",
        ("repro_recycler_lookups_total", "value"): "recycler_lookups",
        ("repro_recycler_hits_total", "value"): "recycler_hits",
        ("repro_queue_wait_seconds", "sum"): "queue_wait_s",
        ("repro_queue_wait_seconds", "count"): "queue_wait_n",
        ("repro_coalescer_records_led_total", "value"): "led_records",
        ("repro_coalescer_records_waited_total", "value"):
            "coalesced_records",
    }
    for name, stat, value in rows:
        key = wanted.get((name, stat))
        if key is not None:
            rec.counts[key] += sign * value


# -- 6. shard_scatter --------------------------------------------------------

def shard_scatter(env: Env) -> Recorder:
    """SeismicWarehouse(shards=2), a fresh pool every nine regions; one
    region per station (18 files, split over the two workers).
    op: D1, decomposable COUNT+MAX per channel, first touch of the station.
    alt: F1, STDDEV_SAMP per channel on the now-warm station: does not
    decompose, sample arrays ship from the workers to the parent.
    (D2, a warm decomposable MIN, is timed into a per-layer metric.)"""
    rec = Recorder(env.tracer)
    oracle = Oracle(env.corpus.entries, env.corpus.truth)
    rng = opgen.rng_for(env.seed, "shard_scatter")
    root = str(env.corpus.root)
    regions = env.count(21, floor=3)
    while regions > 0:
        stations = oracle.stations()
        rng.shuffle(stations)
        with rec.setting_up():
            wh = SeismicWarehouse(root, shards=2)
            adhoc = on(wh.connect())
        try:
            for station in stations[:regions]:
                with rec.timed_region():
                    rec.statement("op", adhoc,
                                  opgen.station_count_max_op(oracle, station))
                    before = time.perf_counter()
                    rec.statement(None, adhoc,
                                  opgen.station_min_op(oracle, station))
                    rec.counts["warm_decomposed_s"] += \
                        time.perf_counter() - before
                    rec.counts["warm_decomposed_n"] += 1
                    rec.statement("alt", adhoc,
                                  opgen.station_stddev_op(oracle, station))
            rec.note_warehouse(wh)
        finally:
            wh.close()
        regions -= len(stations)
    return rec


# -- 7. checkpoint_restart ---------------------------------------------------

def checkpoint_restart(env: Env) -> Recorder:
    """The storage engine: spill, restart from disk, promote, scan; one
    region per repetition, each on a fresh warehouse and store.
    alt: checkpoint(dir) of a warehouse that scanned one station.
    op: first answer after restart — SeismicWarehouse(storage_path=dir)
    -> STDDEV_SAMP per channel of that station -> fetchall, answered
    from the restored cache.  Then promote() of everything touched and a
    scan of the station from the promoted segments (per-layer metrics;
    inside the region's wall)."""
    rec = Recorder(env.tracer)
    oracle = Oracle(env.corpus.entries, env.corpus.truth)
    rng = opgen.rng_for(env.seed, "checkpoint_restart")
    root = str(env.corpus.root)
    stations = oracle.stations()
    rng.shuffle(stations)
    for station in itertools.islice(itertools.cycle(stations),
                                    env.count(16, floor=3)):
        store = env.fresh_path("store")
        first = opgen.station_stddev_op(oracle, station)
        with rec.setting_up():
            wh = SeismicWarehouse(root, mode="lazy")
            rec.statement(None, on(wh.connect()),
                          opgen.station_scan_op(oracle, station))
        rec.note_warehouse(wh, -1)
        reopened = None
        try:
            with rec.timed_region():
                rec.run("alt", lambda: wh.checkpoint(store),
                        lambda spilled: spilled > 0)
                wh.close()

                def reopen():
                    nonlocal reopened
                    reopened = SeismicWarehouse(root, storage_path=store)
                    cursor = reopened.connect().execute(first.sql)
                    rows = cursor.fetchall()
                    if rec.tracer is not None:
                        rec.note_report(cursor.report)
                    return rows
                rec.run("op", reopen, lambda rows: matches(rows, first))
                before = time.perf_counter()
                reopened.promote(min_score=0.0, max_units=1_000_000)
                rec.counts["promote_s"] += time.perf_counter() - before
                before = time.perf_counter()
                rec.statement(None, on(reopened.connect()),
                              opgen.station_min_op(oracle, station))
                rec.counts["promoted_scan_s"] += time.perf_counter() - before
                rec.counts["restart_cycles"] += 1
            rec.counts["store_bytes"] += sum(
                p.stat().st_size for p in store.rglob("*") if p.is_file())
            rec.note_warehouse(wh)
            rec.note_warehouse(reopened)
        finally:
            wh.close()
            if reopened is not None:
                reopened.close()
            shutil.rmtree(store, ignore_errors=True)
    return rec


WORKLOADS: dict[str, Callable[[Env], Recorder]] = {
    "cold_first_answer": cold_first_answer,
    "cold_scan": cold_scan,
    "warm_window_mix": warm_window_mix,
    "cache_churn_rewrite": cache_churn_rewrite,
    "tcp_serve_mix": tcp_serve_mix,
    "shard_scatter": shard_scatter,
    "checkpoint_restart": checkpoint_restart,
}
