"""Intermediate-result recycling tests (the lazy-loading substrate)."""

import numpy as np

from repro.db import Database
from repro.db.column import Column
from repro.db.exec.recycler import Recycler, signature_of
from repro.db.plan.logical import bind_select
from repro.db.sql.parser import parse_select
from repro.db.types import DataType


def _col(values):
    return Column.from_values(DataType.BIGINT, values)


def test_lookup_admit_roundtrip():
    recycler = Recycler(budget_bytes=1 << 20)
    assert recycler.lookup("sig") is None
    recycler.admit("sig", [_col([1, 2, 3])], 3)
    columns, length = recycler.lookup("sig")
    assert length == 3
    assert columns[0].to_pylist() == [1, 2, 3]
    assert recycler.stats.hits == 1


def test_budget_eviction_lru_order():
    entry_bytes = _col(list(range(100))).memory_bytes()
    recycler = Recycler(budget_bytes=entry_bytes * 2 + 16)
    recycler.admit("a", [_col(list(range(100)))], 100)
    recycler.admit("b", [_col(list(range(100)))], 100)
    recycler.lookup("a")  # a becomes most recently used
    recycler.admit("c", [_col(list(range(100)))], 100)
    assert recycler.lookup("b") is None  # b was LRU
    assert recycler.lookup("a") is not None
    assert recycler.stats.evictions == 1


def test_oversized_entry_rejected():
    recycler = Recycler(budget_bytes=64)
    accepted = recycler.admit("big", [_col(list(range(1000)))], 1000)
    assert not accepted
    assert recycler.stats.rejected == 1


def test_invalidate_matching():
    recycler = Recycler()
    recycler.admit("scan(main.t@v1:[a])", [_col([1])], 1)
    recycler.admit("scan(main.u@v1:[a])", [_col([1])], 1)
    dropped = recycler.invalidate_matching("main.t@")
    assert dropped == 1
    assert len(recycler) == 1


def _signature_for(db, sql):
    plan = bind_select(db.catalog, parse_select(sql))
    return signature_of(plan)


def test_signature_stable_across_compiles():
    db = Database()
    db.execute("CREATE TABLE t (a BIGINT, b VARCHAR)")
    sql = "SELECT b, SUM(a) FROM t WHERE a > 3 GROUP BY b"
    assert _signature_for(db, sql) == _signature_for(db, sql)


def test_signature_distinguishes_predicates():
    db = Database()
    db.execute("CREATE TABLE t (a BIGINT, b VARCHAR)")
    one = _signature_for(db, "SELECT SUM(a) FROM t WHERE a > 3")
    two = _signature_for(db, "SELECT SUM(a) FROM t WHERE a > 4")
    assert one != two


def test_signature_embeds_table_version():
    db = Database()
    db.execute("CREATE TABLE t (a BIGINT)")
    sql = "SELECT SUM(a) FROM t"
    before = _signature_for(db, sql)
    db.execute("INSERT INTO t VALUES (1)")
    after = _signature_for(db, sql)
    assert before != after


def test_recycling_skips_recompute_and_stays_correct():
    db = Database(recycler_budget_bytes=1 << 20)
    db.execute("CREATE TABLE t (g VARCHAR, v BIGINT)")
    db.execute("INSERT INTO t VALUES ('x', 1), ('x', 2), ('y', 5)")
    sql = "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g"
    first = db.query(sql).rows()
    assert db.recycler.stats.admissions >= 1
    second = db.query(sql).rows()
    assert second == first
    assert db.recycler.stats.hits >= 1
    assert any(e.get("op") == "recycler_hit" for e in db.last_trace)


def test_update_invalidates_recycled_result():
    db = Database(recycler_budget_bytes=1 << 20)
    db.execute("CREATE TABLE t (g VARCHAR, v BIGINT)")
    db.execute("INSERT INTO t VALUES ('x', 1)")
    sql = "SELECT SUM(v) FROM t"
    assert db.query(sql).scalar() == 1
    db.execute("INSERT INTO t VALUES ('x', 9)")
    assert db.query(sql).scalar() == 10  # stale hit would return 1


def test_disable_recycler():
    db = Database(enable_recycler=False)
    db.execute("CREATE TABLE t (v BIGINT)")
    db.execute("INSERT INTO t VALUES (1)")
    db.query("SELECT SUM(v) FROM t")
    assert db.recycler is None


def test_contents_listing():
    recycler = Recycler()
    recycler.admit("sig-a", [_col([1, 2])], 2)
    contents = recycler.contents()
    assert contents[0][0] == "sig-a"
    assert contents[0][1] == 2
