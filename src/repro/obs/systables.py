"""``sys.*`` system-table definitions and their providers.

The warehouse's own runtime state — queries, sessions, metrics, caches,
promotions, on-disk segments — is exposed as read-only virtual
tables in the reserved ``sys`` schema, queryable through the normal
SQL surface (``SELECT status, count(*) FROM sys.queries GROUP BY
status`` just works, joins included).  Each table is a
:class:`~repro.db.table.SystemTable` whose provider samples the live
subsystem at *scan* time, so cached plans always see current data.

Two registration entry points:

* :func:`install_engine_system_tables` — journal-backed tables every
  :class:`~repro.db.exec.engine.Database` has (``sys.queries``,
  ``sys.sessions``).
* :func:`install_warehouse_system_tables` — subsystem tables wired by
  :class:`~repro.seismology.warehouse.SeismicWarehouse`
  (``sys.metrics``, ``sys.extraction_cache``, ``sys.bufferpool``,
  ``sys.promoted``, ``sys.segments``, ``sys.shards``).
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

from repro.db.table import ColumnSpec, SystemTable, TableSchema
from repro.db.types import DataType

B = DataType.BIGINT
D = DataType.DOUBLE
S = DataType.VARCHAR
BOOL = DataType.BOOLEAN

QUERIES_COLUMNS: list[tuple[str, DataType]] = [
    ("id", B), ("session", S), ("sql", S), ("params_hash", S),
    ("status", S), ("error", S),
    ("started_at", D), ("queued_s", D),
    ("parse_s", D), ("bind_s", D), ("optimize_s", D), ("execute_s", D),
    ("total_s", D),
    ("plan_cache_hit", BOOL),
    ("rows_out", B), ("rows_extracted", B), ("rows_extracted_here", B),
    ("rows_coalesced", B), ("rows_served_eager", B),
    ("pages_read", B), ("pages_skipped_zone", B),
]

SESSIONS_COLUMNS: list[tuple[str, DataType]] = [
    ("session", S), ("queries", B), ("errors", B),
    ("rows_out", B), ("rows_coalesced", B), ("rows_served_eager", B),
    ("pages_read", B),
    ("execute_s", D), ("total_s", D),
    ("first_at", D), ("last_at", D),
]

METRICS_COLUMNS: list[tuple[str, DataType]] = [
    ("name", S), ("kind", S), ("labels", S), ("stat", S), ("value", D),
]

EXTRACTION_CACHE_COLUMNS: list[tuple[str, DataType]] = [
    ("uri", S), ("records", B), ("nbytes", B), ("hits", B),
]

BUFFERPOOL_COLUMNS: list[tuple[str, DataType]] = [
    ("lookups", B), ("hits", B), ("misses", B), ("evictions", B),
    ("disk_reads", B), ("bytes_read", B), ("coalesced_loads", B),
    ("pages", B), ("used_bytes", B), ("budget_bytes", B), ("pinned", B),
]

PROMOTED_COLUMNS: list[tuple[str, DataType]] = [
    ("uri", S), ("seq_no", B), ("segment", S), ("rows", B),
    ("columns", B), ("mtime_ns", B),
]

SEGMENTS_COLUMNS: list[tuple[str, DataType]] = [
    ("name", S), ("kind", S), ("segment", S), ("rows", B), ("bytes", B),
]

CONNECTIONS_COLUMNS: list[tuple[str, DataType]] = [
    ("session", S), ("peer", S), ("principal", S),
    ("open_cursors", B), ("cursors_total", B),
    ("bytes_in", B), ("bytes_out", B),
    ("idle_s", D), ("connected_at", D),
]

SHARDS_COLUMNS: list[tuple[str, DataType]] = [
    ("shard_id", B), ("pid", B), ("alive", BOOL), ("files", B),
    ("queries", B), ("extracts", B), ("rows_extracted", B),
    ("errors", B), ("restarts", B),
]

SYSTEM_TABLE_COLUMNS: dict[str, list[tuple[str, DataType]]] = {
    "queries": QUERIES_COLUMNS,
    "sessions": SESSIONS_COLUMNS,
    "metrics": METRICS_COLUMNS,
    "extraction_cache": EXTRACTION_CACHE_COLUMNS,
    "bufferpool": BUFFERPOOL_COLUMNS,
    "promoted": PROMOTED_COLUMNS,
    "segments": SEGMENTS_COLUMNS,
    "connections": CONNECTIONS_COLUMNS,
    "shards": SHARDS_COLUMNS,
}
"""Schema reference for every ``sys.*`` table (README + HTTP docs)."""


def _default_for(dtype: DataType):
    if dtype == S:
        return ""
    if dtype == BOOL:
        return False
    if dtype == D:
        return 0.0
    return 0


def rows_to_columns(rows: Sequence[dict],
                    columns: list[tuple[str, DataType]]) -> dict[str, list]:
    """Pivot row dicts into the aligned column lists a provider returns."""
    return {
        name: [row.get(name, _default_for(dtype)) for row in rows]
        for name, dtype in columns
    }


def _register(catalog, name: str,
              columns: list[tuple[str, DataType]],
              provider: Callable[[], dict]) -> SystemTable:
    schema = TableSchema([ColumnSpec(n, dtype) for n, dtype in columns])
    return catalog.register_system_table(
        SystemTable(f"sys.{name}", schema, provider)
    )


# -- engine-level tables (journal-backed) -----------------------------------


def install_engine_system_tables(db) -> None:
    """Register ``sys.queries`` and ``sys.sessions`` over ``db.journal``."""
    journal = db.journal

    def queries() -> dict:
        return rows_to_columns(journal.entries(), QUERIES_COLUMNS)

    def sessions() -> dict:
        return rows_to_columns(journal.session_summary(), SESSIONS_COLUMNS)

    _register(db.catalog, "queries", QUERIES_COLUMNS, queries)
    _register(db.catalog, "sessions", SESSIONS_COLUMNS, sessions)


# -- warehouse-level tables --------------------------------------------------


def _metrics_rows(registry) -> list[dict]:
    """Flatten a registry snapshot: one row per sample statistic."""
    rows: list[dict] = []
    for name, info in sorted(registry.snapshot().items()):
        kind = info.get("type", "gauge")
        for sample in info.get("samples", ()):
            labels = json.dumps(sample.get("labels", {}), sort_keys=True)
            if "value" in sample:
                rows.append({"name": name, "kind": kind, "labels": labels,
                             "stat": "value",
                             "value": float(sample["value"])})
                continue
            for stat in ("count", "sum", "p50", "p95", "p99"):
                if stat in sample:
                    rows.append({"name": name, "kind": kind,
                                 "labels": labels, "stat": stat,
                                 "value": float(sample[stat])})
    return rows


def install_warehouse_system_tables(warehouse) -> None:
    """Register the subsystem ``sys.*`` tables over a warehouse.

    Providers tolerate absent subsystems (eager mode has no extraction
    cache, memory-only warehouses have no bufferpool or segments) by
    returning zero rows — the tables always exist, they are just empty.
    """

    def metrics() -> dict:
        return rows_to_columns(_metrics_rows(warehouse.metrics_registry),
                               METRICS_COLUMNS)

    def extraction_cache() -> dict:
        cache = warehouse.cache
        rows = [] if cache is None else [
            {"uri": uri, "records": records, "nbytes": nbytes, "hits": hits}
            for uri, records, nbytes, hits in cache.contents()
        ]
        return rows_to_columns(rows, EXTRACTION_CACHE_COLUMNS)

    def bufferpool() -> dict:
        store = warehouse.store
        rows = [] if store is None else [store.pool.snapshot()]
        return rows_to_columns(rows, BUFFERPOOL_COLUMNS)

    def promoted() -> dict:
        store = warehouse.promoted
        rows = []
        if store is not None:
            for uri, seq in sorted(store.unit_keys()):
                unit = store.unit(uri, seq)
                if unit is None:
                    continue  # dropped between keys() and unit()
                rows.append({"uri": uri, "seq_no": seq,
                             "segment": unit.segment, "rows": unit.rows,
                             "columns": len(unit.columns),
                             "mtime_ns": unit.info.mtime_ns})
        return rows_to_columns(rows, PROMOTED_COLUMNS)

    def segments() -> dict:
        store = warehouse.store
        rows = [] if store is None else store.segments_snapshot()
        return rows_to_columns(rows, SEGMENTS_COLUMNS)

    def shards() -> dict:
        executor = getattr(warehouse, "sharding", None)
        rows = [] if executor is None else executor.describe()
        return rows_to_columns(rows, SHARDS_COLUMNS)

    catalog = warehouse.db.catalog
    _register(catalog, "metrics", METRICS_COLUMNS, metrics)
    _register(catalog, "extraction_cache", EXTRACTION_CACHE_COLUMNS,
              extraction_cache)
    _register(catalog, "bufferpool", BUFFERPOOL_COLUMNS, bufferpool)
    _register(catalog, "promoted", PROMOTED_COLUMNS, promoted)
    _register(catalog, "segments", SEGMENTS_COLUMNS, segments)
    _register(catalog, "shards", SHARDS_COLUMNS, shards)


# -- wire-server table -------------------------------------------------------


def install_connections_table(db, snapshot: Callable[[], list]) -> None:
    """Register ``sys.connections`` over a wire server's live sessions.

    ``snapshot`` returns one row dict per open TCP session (see
    :meth:`repro.net.server.WireServer.connections_snapshot`).
    Re-registration replaces the provider, so serving the same
    warehouse again after a shutdown swaps in the new server's view.
    """

    def connections() -> dict:
        return rows_to_columns(snapshot(), CONNECTIONS_COLUMNS)

    _register(db.catalog, "connections", CONNECTIONS_COLUMNS, connections)
