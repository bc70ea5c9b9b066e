"""SeismicWarehouse: one object tying repository + strategy + schema.

The demo's "scientific data warehouse, ready for query processing without
waiting for long initial loading" (§1) — or, in ``eager`` mode, the
baseline it is compared against.  The same SQL (including the Figure-1
queries verbatim) runs in both modes.
"""

from __future__ import annotations

import logging
import os
import time
from typing import TYPE_CHECKING, Literal, Optional

from repro.db.exec.engine import Database
from repro.db.exec.result import Result
from repro.errors import ETLError, ShardConfigError
from repro.etl.eager import EagerETL
from repro.etl.framework import SCHEMA, ETLReport, SourceAdapter
from repro.etl.lazy import LazyETL
from repro.etl.mseed_adapter import MSeedAdapter
from repro.etl.refresh import EagerRefresh, MetadataSync, SyncReport
from repro.mseed.repository import Repository
from repro.obs.export import render_prometheus, snapshot_json
from repro.obs.metrics import ExtractionInstruments, MetricsRegistry
from repro.seismology import schema as schema_mod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.promoted import PromotionReport

Mode = Literal["lazy", "eager"]

logger = logging.getLogger("repro.warehouse")


class SeismicWarehouse:
    """A seismic data warehouse over an mSEED repository."""

    def __init__(
        self,
        repository: "Repository | str | os.PathLike",
        *,
        mode: Mode = "lazy",
        adapter: Optional[SourceAdapter] = None,
        cache_budget_bytes: int = 256 * 1024 * 1024,
        recycler_budget_bytes: int = 64 * 1024 * 1024,
        storage_path: "str | os.PathLike | None" = None,
        bufferpool_bytes: int = 64 * 1024 * 1024,
        trace_spans: bool = False,
        shards: int = 1,
    ) -> None:
        if mode not in ("lazy", "eager"):
            raise ETLError(f"unknown warehouse mode {mode!r}")
        if not isinstance(shards, int) or isinstance(shards, bool) \
                or shards < 1:
            raise ShardConfigError(
                f"shards must be a positive integer, got {shards!r}")
        if shards > 1 and mode != "lazy":
            raise ShardConfigError(
                f"sharded execution requires mode='lazy' (workers run "
                f"lazy shard warehouses); got mode={mode!r}")
        if shards > 1 and adapter is not None:
            raise ShardConfigError(
                "sharded execution supports the built-in mSEED adapter "
                "only: a custom adapter cannot be reconstructed inside "
                "spawned shard workers")
        self.mode: Mode = mode
        self.repo = (repository if isinstance(repository, Repository)
                     else Repository(repository))
        self.adapter = adapter or MSeedAdapter()
        self.shards = shards
        self._cache_budget_bytes = cache_budget_bytes
        self._sharding = None
        self._shard_router = None
        # One registry per warehouse: every layer (storage, ETL, engine,
        # service) reports into it; scraped via metrics()/metrics_text().
        self.metrics_registry = MetricsRegistry()
        self._metrics_collector = None
        self.db = Database(
            recycler_budget_bytes=recycler_budget_bytes,
            trace_spans=trace_spans,
        )

        if mode == "lazy":
            self.pipeline = LazyETL(
                self.db, self.repo, self.adapter,
                cache_budget_bytes=cache_budget_bytes,
            )
        else:
            self.pipeline = EagerETL(self.db, self.repo, self.adapter)

        self.store = None
        if storage_path is not None:
            from repro.storage.store import TableStore

            self.store = TableStore(storage_path,
                                    bufferpool_bytes=bufferpool_bytes)
            # The query journal is durable: restore whatever the last
            # checkpoint spilled so sys.queries spans process restarts.
            self.db.journal.import_state(self.store.load_query_journal())

        if self._can_warm_start():
            # Restart from the checkpoint: attach persisted metadata and
            # restore the extraction cache — no re-harvest, no re-ETL.
            self.load_report = self.pipeline.warm_start(self.store)
            schema_mod.create_dataview(self.db)
        else:
            self.pipeline.create_tables()
            schema_mod.create_dataview(self.db)
            self.load_report = self._load()
        self._attach_promoted()
        self._wire_observability()
        if self.shards > 1:
            self.ensure_sharding()

    def _can_warm_start(self) -> bool:
        if self.store is None or self.mode != "lazy":
            return False
        return (self.store.has_table(f"{SCHEMA}.files")
                and self.store.has_table(f"{SCHEMA}.records"))

    # -- lifecycle ----------------------------------------------------------------

    def _load(self) -> ETLReport:
        """Run the mode's initial loading; returns the cost report."""
        started = time.perf_counter()
        report = self.pipeline.initial_load()
        report.seconds = max(report.seconds, time.perf_counter() - started)
        return report

    def _attach_promoted(self) -> None:
        """Mount the store's promoted segments on the lazy binding.

        Promoted units persisted by an earlier process are served again
        immediately — zero re-extraction of promoted ranges after a
        warm start.  No-op outside lazy mode, without storage, or once
        mounted.
        """
        if self.mode != "lazy" or self.store is None:
            return
        binding = self.pipeline.binding
        if binding.promoted is not None:
            return
        from repro.storage.promoted import PromotedStore

        binding.promoted = PromotedStore(self.store,
                                         self.pipeline.index.version)

    def _wire_observability(self) -> None:
        """Attach extraction instruments and the warehouse collector.

        The collector samples subsystem counters at scrape time only, so
        queries never pay for it.
        """
        # Only the lazy binding has query-time extraction to instrument.
        if self.mode == "lazy":
            self.pipeline.binding.metrics = \
                ExtractionInstruments(self.metrics_registry)
        self._metrics_collector = self.metrics_registry.register_collector(
            self._collect_warehouse_metrics)
        # sys.* virtual tables over this warehouse's live state.
        from repro.obs.systables import install_warehouse_system_tables

        install_warehouse_system_tables(self)

    def _collect_warehouse_metrics(self) -> dict:
        """Scrape-time sample of every subsystem's own counters."""
        out: dict[str, float] = {}
        cache = self.cache
        if cache is not None:
            snap = cache.snapshot()
            for name in ("lookups", "hits", "misses", "admissions",
                         "evictions", "stale_drops", "widenings",
                         "restored", "spills"):
                out[f"repro_cache_{name}_total"] = snap[name]
            out["repro_cache_entries"] = snap["entries"]
            out["repro_cache_used_bytes"] = snap["used_bytes"]
            out["repro_cache_protected_entries"] = snap["protected"]
        if self.store is not None:
            snap = self.store.pool.snapshot()
            for name in ("lookups", "hits", "misses", "evictions",
                         "disk_reads", "coalesced_loads"):
                out[f"repro_bufferpool_{name}_total"] = snap[name]
            out["repro_bufferpool_bytes_read_total"] = snap["bytes_read"]
            out["repro_bufferpool_pages"] = snap["pages"]
            out["repro_bufferpool_used_bytes"] = snap["used_bytes"]
            out["repro_bufferpool_pinned_pages"] = snap["pinned"]
        out["repro_plan_cache_hits_total"] = self.db.plan_cache_hits
        out["repro_plan_cache_misses_total"] = self.db.plan_cache_misses
        out["repro_plan_cache_entries"] = self.db.plan_cache_len()
        recycler = self.recycler
        for name in ("lookups", "hits", "admissions", "evictions",
                     "rejected", "stale_drops"):
            out[f"repro_recycler_{name}_total"] = getattr(recycler.stats, name)
        out["repro_recycler_used_bytes"] = recycler.used_bytes
        out["repro_recycler_entries"] = len(recycler)
        promoted = self.promoted
        if promoted is not None:
            out["repro_promoted_units"] = len(promoted)
            out["repro_promoted_disk_bytes"] = promoted.disk_bytes()
        sharding = self._sharding
        if sharding is not None:
            rows = sharding.describe()
            out["repro_shard_workers"] = len(rows)
            out["repro_shard_workers_alive"] = sum(
                1 for row in rows if row["alive"])
            out["repro_shard_queries_total"] = sum(
                row["queries"] for row in rows)
            out["repro_shard_extracts_total"] = sum(
                row["extracts"] for row in rows)
            out["repro_shard_rows_extracted_total"] = sum(
                row["rows_extracted"] for row in rows)
            out["repro_shard_errors_total"] = sum(
                row["errors"] for row in rows)
            out["repro_shard_restarts_total"] = sum(
                row["restarts"] for row in rows)
            router = self._shard_router
            if router is not None:
                out["repro_shard_plans_decomposed_total"] = router.decomposed
                out["repro_shard_plans_fallback_total"] = router.fallbacks
        return out

    # -- sharded execution --------------------------------------------------------

    @property
    def sharding(self):
        """The live :class:`~repro.shard.executor.ShardedExtractor`, or
        ``None`` while running single-process."""
        return self._sharding

    def ensure_sharding(self, shards: "int | None" = None) -> bool:
        """Bring up the shard worker pool and install the execution
        hooks.  Returns True if this call created the pool (False when
        sharding is already up or ``shards`` resolves to 1).
        """
        if shards is not None:
            if not isinstance(shards, int) or isinstance(shards, bool) \
                    or shards < 1:
                raise ShardConfigError(
                    f"shards must be a positive integer, got {shards!r}")
            self.shards = shards
        if self.shards <= 1 or self._sharding is not None:
            return False
        if self.mode != "lazy":
            raise ShardConfigError(
                f"sharded execution requires mode='lazy'; got "
                f"mode={self.mode!r}")
        binding = self.pipeline.binding
        from repro.service.parallel import ParallelExtractor
        from repro.shard.executor import ShardedExtractor
        from repro.shard.gather import ShardRouter
        from repro.shard.partition import ShardMap

        uris = [info.uri for info in self.repo.list_files()]
        if self.shards > len(uris):
            logger.warning(
                "shards=%d exceeds the repository's %d files; "
                "%d worker(s) will own no files",
                self.shards, len(uris), self.shards - len(uris))
        shard_map = ShardMap.build(uris, self.shards)
        executor = ShardedExtractor(
            str(self.repo.root), shard_map,
            extension=self.repo.extension,
            cache_budget_bytes=self._cache_budget_bytes,
        )
        executor.start()
        router = ShardRouter(
            executor,
            lazy_table=self.pipeline.data_table,
            allowed_tables=frozenset({
                self.pipeline.data_table,
                self.pipeline.files_table,
                self.pipeline.records_table,
            }),
        )
        self._sharding = executor
        self._shard_router = router
        self.db.shard_router = router
        binding.remote_extractor = executor.extract
        # Scattered extraction for non-decomposable queries: without a
        # pool, per-file remote extracts would serialize even though each
        # runs on a different worker process.
        binding.extract_pool = ParallelExtractor(max_workers=self.shards)
        # Plans compiled before sharding came up never met the router.
        self.db.clear_plan_cache()
        return True

    def shutdown_sharding(self) -> None:
        """Drain and join the shard pool, uninstall every hook.

        Idempotent; runs *before* any storage teardown in :meth:`close`
        so in-flight worker replies never race closed handles.
        """
        executor, self._sharding = self._sharding, None
        self._shard_router = None
        if executor is None:
            return
        self.db.shard_router = None
        binding = self.pipeline.binding
        binding.remote_extractor = None
        pool, binding.extract_pool = binding.extract_pool, None
        pool.close()
        executor.close()
        # Cached PShardGather plans hold dead worker handles.
        self.db.clear_plan_cache()

    def checkpoint(self, storage_path: "str | os.PathLike | None" = None
                   ) -> int:
        """Persist warehouse state for a warm restart.

        Metadata tables (and, in eager mode, the data table) go to
        compressed segment files; in lazy mode the extraction cache is
        snapshotted too, so a fresh process re-answers past queries with
        zero re-extraction.  Returns the number of cache entries spilled.
        """
        if storage_path is not None and self.store is None:
            from repro.storage.store import TableStore

            self.store = TableStore(storage_path)
        if self.store is None:
            raise ETLError(
                "no storage attached: pass storage_path here or at "
                "construction"
            )
        # Spill the query journal into the manifest meta area first so
        # the single atomic commit below covers it (durable sys.queries).
        self.store.save_query_journal(self.db.journal.export_state(),
                                      commit=False)
        if self.mode == "lazy":
            entries = self.pipeline.checkpoint(self.store)
            self._attach_promoted()
            return entries
        if self.db.catalog.store is None:
            self.db.attach(self.store)
        self.db.checkpoint()
        return 0

    def close(self) -> None:
        """Release observability hooks and storage handles.

        Idempotent.  Unregisters the warehouse's scrape-time collector
        from its registry (creating and closing many warehouses must not
        accumulate collectors) and closes promoted-segment readers.  The
        warehouse object is not usable for queries afterwards only to
        the extent that its storage handles are gone; in-memory tables
        still answer.

        Teardown order matters: the shard worker pool drains first (its
        replies may still reference caches and promoted readers), then
        observability hooks, then storage handles.
        """
        self.shutdown_sharding()
        if self._metrics_collector is not None:
            self.metrics_registry.unregister_collector(
                self._metrics_collector)
            self._metrics_collector = None
        promoted = self.promoted
        if promoted is not None:
            promoted.close()
        for table in self.db.catalog.tables():
            backing = getattr(table, "disk_backing", None)
            if backing is not None:
                backing.close()

    def __enter__(self) -> "SeismicWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def promote(self, *, min_score: float = 1, max_units: int = 512
                ) -> PromotionReport:
        """Promote what the extraction cache holds: one synchronous pass.

        Every resident record with at least ``min_score`` cache hits (0
        promotes them all) that no promoted unit covers yet is written,
        most hits and then most recently used first, up to ``max_units``
        records, into one segment of the attached store.  Later queries
        over those records read transformed columns from disk pages
        instead of re-extracting.  Promotion extracts nothing, and a
        record of a file rewritten since it was cached is skipped.  See
        :meth:`repro.etl.lazy.LazyETL.promote`.
        """
        if self.mode != "lazy":
            raise ETLError("promotion applies to lazy mode only")
        if self.store is None:
            raise ETLError(
                "promotion requires attached storage: pass storage_path "
                "at construction or checkpoint(storage_path=...) first"
            )
        if max_units <= 0:
            raise ETLError("max_units must be positive")
        self._attach_promoted()
        return self.pipeline.promote(min_score, max_units)

    def sync(self) -> SyncReport:
        """Refresh the warehouse after repository changes."""
        if self.mode == "lazy":
            return MetadataSync(self.pipeline).sync()
        return EagerRefresh(self.pipeline).sync()

    # -- querying -----------------------------------------------------------------

    @property
    def dataview(self) -> str:
        return f"{SCHEMA}.dataview"

    def connect(self):
        """Open a :class:`~repro.api.connection.Connection` — the unified
        query entry point.

        Cursors opened on it stream results in row batches, statements
        accept ``?``/``:name`` parameters, and compiled plans are cached
        across executions::

            conn = wh.connect()
            cur = conn.cursor()
            cur.execute("SELECT F.station, MIN(D.sample_value) "
                        "FROM mseed.dataview WHERE F.network = :net "
                        "GROUP BY F.station", {"net": "NL"})
            for row in cur:
                ...
            print(cur.report.plan_cache_hit, cur.report.execute_s)
        """
        from repro.api import Connection

        return Connection(self.db)

    def query(self, sql: str, params=None) -> Result:
        """Run a SELECT, fully materialised (the cursor path, drained).

        .. deprecated:: thin wrapper over the unified API — prefer
           ``connect()`` and a cursor, which streams and reports.
        """
        return self.db.query(sql, params)

    def serve(self, **config):
        """Open a concurrent query service over this warehouse.

        Returns a started
        :class:`~repro.service.service.WarehouseService`; keyword
        arguments are :class:`~repro.service.service.ServiceConfig`
        fields (``max_workers``, ``queue_depth``, ``tcp_port``, ...).  Use
        as a context manager::

            with wh.serve(max_workers=8) as svc:
                a, b = svc.session("alice"), svc.session("bob")
                futures = [a.submit(sql1), b.submit(sql2)]
                outcomes = [f.result() for f in futures]
        """
        from repro.service.service import WarehouseService

        return WarehouseService(self, **config)

    def execute(self, sql: str, params=None) -> Result:
        """Run any statement, fully materialised.

        .. deprecated:: thin wrapper over the unified API — prefer
           ``connect()`` and a cursor.
        """
        return self.db.execute(sql, params)

    def explain(self, sql: str) -> str:
        return self.db.explain(sql)

    def explain_analyze(self, sql: str, params=None) -> str:
        """EXPLAIN ANALYZE: run the query and render measured actuals."""
        return self.db.explain_analyze(sql, params)

    # -- observability -----------------------------------------------------------

    def metrics(self) -> dict:
        """One metrics snapshot: ``{name: {type, help, samples}}``.

        Covers every wired subsystem — extraction cache, buffer pool,
        plan cache, recycler, promotion, extraction instruments and
        (while serving) the service's latency/admission metrics.
        """
        return self.metrics_registry.snapshot()

    def metrics_text(self) -> str:
        """The current snapshot in Prometheus text exposition format."""
        return render_prometheus(self.metrics_registry)

    def metrics_json(self, **extra: object) -> str:
        """The current snapshot as a JSON document (plus ``extra`` keys)."""
        return snapshot_json(self.metrics_registry, **extra)

    # -- introspection (the demo's numbered panels) ----------------------------------

    @property
    def last_trace(self) -> list[dict]:
        """Operators injected at run time by the last query (panel 5/6)."""
        return self.db.last_trace

    def render_last_trace(self) -> str:
        return self.db.render_last_trace()

    @property
    def cache(self):
        """The extraction cache (panel 7); ``None`` outside lazy mode."""
        return self.pipeline.cache if self.mode == "lazy" else None

    @property
    def recycler(self):
        return self.db.recycler

    @property
    def promoted(self):
        """The promoted-segment store; ``None`` without lazy storage."""
        binding = getattr(self.pipeline, "binding", None)
        return None if binding is None else binding.promoted

    def files_extracted_by_last_query(self) -> list[str]:
        """Which repository files the last query touched (panel 5)."""
        return sorted({
            entry["file"] for entry in self.last_trace
            if entry.get("op") == "extract"
        })

    def warehouse_bytes(self) -> int:
        """Resident warehouse size, tables plus caches (experiment E4)."""
        total = self.db.warehouse_bytes()
        if self.cache is not None:
            total += self.cache.used_bytes
        return total

    def repository_bytes(self) -> int:
        return sum(info.size for info in self.repo.list_files())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeismicWarehouse(mode={self.mode}, repo={self.repo.root})"
