"""``sys.*`` system tables: SQL queryability, isolation, freshness.

The tentpole contract: system tables are ordinary relations to the
planner — filterable, joinable, aggregatable through the same
vectorized executor as user tables — while staying read-only, epoch
stable (registering them never invalidates cached plans) and *fresh*
(every scan re-samples the provider; neither the plan cache nor the
recycler may serve stale system rows).
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db.catalog import SYSTEM_SCHEMA
from repro.db.table import ColumnSpec, SystemTable, TableSchema
from repro.db.types import DataType
from repro.errors import CatalogError, ExecutionError, SQLError
from repro.obs.systables import SYSTEM_TABLE_COLUMNS
from repro.seismology.warehouse import SeismicWarehouse

COUNT_NL = "SELECT COUNT(*) AS n FROM mseed.dataview WHERE F.network = 'NL'"


# ---------------------------------------------------------------------------
# engine-level: sys.queries / sys.sessions
# ---------------------------------------------------------------------------


def _tiny_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (a BIGINT, b VARCHAR)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
    return db


def test_group_by_over_sys_queries():
    db = _tiny_db()
    db.query("SELECT a FROM t WHERE a > 1")
    db.query("SELECT b, count(*) FROM t GROUP BY b")
    rows = db.query(
        "SELECT status, count(*) AS n, max(execute_s) AS mx "
        "FROM sys.queries GROUP BY status").rows()
    assert rows == [("ok", 2, pytest.approx(rows[0][2]))]
    assert rows[0][2] > 0


def test_join_sys_queries_to_sys_sessions_via_cursor():
    db = _tiny_db()
    db.query("SELECT count(*) FROM t")
    from repro.api import Connection

    conn = Connection(db)
    cur = conn.cursor()
    cur.execute(
        "SELECT q.sql, s.queries FROM sys.queries q "
        "JOIN sys.sessions s ON q.session = s.session")
    rows = list(cur)
    assert rows, "join over system tables returned nothing"
    assert any("count(*)" in row[0] for row in rows)
    # Every journal row joined to the one default session.
    assert {row[1] for row in rows} == {1}


def test_failed_queries_journal_with_error_status():
    db = _tiny_db()
    with pytest.raises(SQLError):
        db.query("SELECT no_such_column FROM t")
    rows = db.query(
        "SELECT status, error FROM sys.queries WHERE status = 'error'"
    ).rows()
    assert len(rows) == 1
    assert "no_such_column" in rows[0][1]


def test_sys_queries_freshness_defeats_plan_and_recycler_caches():
    # The same aggregate SQL, executed repeatedly, must see the journal
    # grow: a cached plan snapshots the provider at execution time and
    # the recycler must not replay a previous scan's aggregate.
    db = _tiny_db()
    sql = "SELECT count(*) FROM sys.queries"
    counts = [db.query(sql).rows()[0][0] for _ in range(4)]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0], f"stale system scan: {counts}"
    assert db.plan_cache_hits > 0, "plan cache never engaged"


def test_registration_is_epoch_stable():
    db = _tiny_db()
    epoch = db.catalog.epoch
    sql = "SELECT a FROM t ORDER BY a"
    db.query(sql)
    # Re-registering a system table must not invalidate cached plans.
    table = db.catalog.system_tables()["queries"]
    db.catalog.register_system_table(table)
    assert db.catalog.epoch == epoch
    before = db.plan_cache_hits
    db.query(sql)
    assert db.plan_cache_hits == before + 1


# ---------------------------------------------------------------------------
# read-only enforcement + reserved schema
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", [
    "INSERT INTO sys.queries (id) VALUES (1)",
    "UPDATE sys.queries SET sql = 'x'",
    "DELETE FROM sys.queries",
    "CREATE TABLE sys.mine (a BIGINT)",
    "DROP TABLE sys.queries",
])
def test_sys_schema_rejects_writes(sql):
    db = _tiny_db()
    with pytest.raises((SQLError, CatalogError, ExecutionError)):
        db.execute(sql)
    # The failed DDL/DML itself never corrupts the journal tables.
    assert db.query("SELECT count(*) FROM sys.queries").rows()[0][0] >= 0


def test_reserved_schema_blocks_create_schema_and_views():
    db = Database()
    with pytest.raises(CatalogError):
        db.catalog.create_schema(SYSTEM_SCHEMA)
    with pytest.raises(CatalogError):
        db.catalog.drop_schema(SYSTEM_SCHEMA)


def test_system_table_mutation_api_is_sealed():
    db = Database()
    table = db.catalog.system_tables()["queries"]
    assert isinstance(table, SystemTable)
    with pytest.raises(ExecutionError):
        table.truncate()
    with pytest.raises(ExecutionError):
        table.append_pydict({"id": [1]})


def test_ragged_provider_is_an_execution_error():
    db = Database()
    schema = TableSchema([ColumnSpec("a", DataType.BIGINT),
                          ColumnSpec("b", DataType.BIGINT)])
    db.catalog.register_system_table(SystemTable(
        "sys.bad", schema, provider=lambda: {"a": [1, 2], "b": [1]}))
    with pytest.raises(ExecutionError):
        db.query("SELECT * FROM sys.bad")


# ---------------------------------------------------------------------------
# warehouse-level tables
# ---------------------------------------------------------------------------


def test_warehouse_registers_every_documented_table(demo_repo, tmp_path):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          storage_path=tmp_path / "store")
    try:
        # sys.connections belongs to the wire server and only exists
        # while one is serving (covered by tests/test_net_server.py).
        assert set(wh.db.catalog.system_tables()) == \
            set(SYSTEM_TABLE_COLUMNS) - {"connections"}
        for name in wh.db.catalog.system_tables():
            rows = wh.query(f"SELECT * FROM sys.{name}").rows()
            width = len(SYSTEM_TABLE_COLUMNS[name])
            assert all(len(row) == width for row in rows), name
    finally:
        wh.close()


def test_sys_metrics_and_cache_reflect_query_work(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    try:
        wh.query(COUNT_NL)
        hit = wh.query(
            "SELECT value FROM sys.metrics "
            "WHERE name = 'repro_extract_rows_total' AND stat = 'value'"
        ).rows()
        assert hit and hit[0][0] > 0
        cached = wh.query(
            "SELECT count(*), sum(records), sum(nbytes), sum(hits) "
            "FROM sys.extraction_cache"
        ).rows()[0]
        # One row per file, the eviction unit: its records, its bytes and
        # the hits summed over its records (none yet: all extracted).
        assert cached == (wh.cache.snapshot()["entries"], len(wh.cache),
                          wh.cache.used_bytes, 0)
        assert cached[0] > 0 and cached[1] > cached[0]
    finally:
        wh.close()
