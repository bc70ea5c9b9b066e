"""Intermediate-result recycling tests (the lazy-loading substrate)."""

import os

import numpy as np

from repro.db import Database
from repro.db.column import Column
from repro.db.exec.recycler import Recycler, signature_of
from repro.db.plan.logical import bind_select
from repro.db.sql.parser import parse_select
from repro.db.types import DataType
from repro.mseed.files import write_mseed_file
from repro.seismology.warehouse import SeismicWarehouse
from repro.util.timefmt import from_ymd


def _col(values):
    return Column.from_values(DataType.BIGINT, values)


def test_lookup_admit_roundtrip():
    recycler = Recycler(budget_bytes=1 << 20)
    assert recycler.lookup_validated("sig") is None
    recycler.admit("sig", [_col([1, 2, 3])], 3)
    columns, length, depends = recycler.lookup_validated("sig")
    assert length == 3
    assert columns[0].to_pylist() == [1, 2, 3]
    assert depends == {}
    assert recycler.stats.hits == 1


def test_budget_eviction_lru_order():
    entry_bytes = _col(list(range(100))).memory_bytes()
    recycler = Recycler(budget_bytes=entry_bytes * 2 + 16)
    recycler.admit("a", [_col(list(range(100)))], 100)
    recycler.admit("b", [_col(list(range(100)))], 100)
    recycler.lookup_validated("a")  # a becomes most recently used
    recycler.admit("c", [_col(list(range(100)))], 100)
    assert recycler.lookup_validated("b") is None  # b was LRU
    assert recycler.lookup_validated("a") is not None
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
    db = Database(recycler_budget_bytes=0)
    db.execute("CREATE TABLE t (v BIGINT)")
    db.execute("INSERT INTO t VALUES (1)")
    db.query("SELECT SUM(v) FROM t")
    db.query("SELECT SUM(v) FROM t")
    assert len(db.recycler) == 0
    assert db.recycler.stats.lookups == 0  # no signature nodes at all
    assert "recycler_hit" not in {e.get("op") for e in db.last_trace}


def test_budget_zero_admits_nothing_not_even_an_empty_result():
    recycler = Recycler(budget_bytes=0)
    empty = _col([])
    assert empty.memory_bytes() == 0
    assert recycler.admit("sig-empty", [empty], 0) is False
    assert len(recycler) == 0 and recycler.used_bytes == 0
    assert recycler.stats.admissions == 0
    assert recycler.lookup_validated("sig-empty") is None


def test_budget_zero_warehouse_repeats_from_the_extraction_cache(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    sql = ("SELECT MAX(D.sample_value) FROM mseed.dataview "
           "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    first = wh.query(sql).scalar()
    assert "extract" in {e["op"] for e in wh.last_trace}
    assert wh.query(sql).scalar() == first
    ops = {e["op"] for e in wh.last_trace}
    assert "cache_fetch" in ops
    assert not {"extract", "recycler_hit"} & ops
    assert len(wh.recycler) == 0


def test_contents_listing():
    recycler = Recycler()
    recycler.admit("sig-a", [_col([1, 2])], 2)
    contents = recycler.contents()
    assert contents[0][0] == "sig-a"
    assert contents[0][1] == 2


# ---------------------------------------------------------------------------
# Lazy-fetch intermediates: reachable, because freshness is the metadata
# tables' versions in the signature plus the FileInfo pins — extraction-
# cache traffic changes neither
# ---------------------------------------------------------------------------


def _per_channel(station, select):
    return (f"SELECT F.channel, {select} FROM mseed.dataview "
            f"WHERE F.station = '{station}' GROUP BY F.channel")


def _ops(wh):
    return [t["op"] for t in wh.last_trace]


def test_station_second_aggregate_reuses_the_recycled_fetch(lazy_wh,
                                                            demo_repo):
    """STDDEV of a station, then a query extracting other files, then the
    station's COUNT/MAX: the last one is answered from the first one's
    lazy fetch — no cache fetch, no extraction, and no cache lookup."""
    count_max = _per_channel("HGN", "COUNT(*), MAX(D.sample_value)")
    lazy_wh.query(_per_channel("HGN", "STDDEV_SAMP(D.sample_value)"))
    lazy_wh.query(_per_channel("ISK", "MIN(D.sample_value)"))
    assert "extract" in _ops(lazy_wh)
    lookups = lazy_wh.cache.snapshot()["lookups"]

    rows = sorted(lazy_wh.query(count_max).rows())
    assert [t["node"] for t in lazy_wh.last_trace
            if t["op"] == "recycler_hit"] == ["PLazyFetch"]
    assert not {"extract", "cache_fetch"} & set(_ops(lazy_wh))
    # A record served from a recycled intermediate was not accessed.
    assert lazy_wh.cache.snapshot()["lookups"] == lookups

    fresh = SeismicWarehouse(demo_repo.root, mode="lazy",
                             recycler_budget_bytes=0)
    assert rows == sorted(fresh.query(count_max).rows())


def test_fetches_outputting_different_columns_do_not_share(lazy_wh,
                                                           demo_repo):
    """Same metadata plan, same fetched columns, but one parent reads
    ``station`` and the other does not: a recycled fetch is positional,
    so the second must not replay the first one's columns."""
    by_station = ("SELECT F.station, AVG(D.sample_value) FROM mseed.dataview "
                  "WHERE F.station = 'ISK' GROUP BY F.station")
    total = ("SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview "
             "WHERE F.station = 'ISK'")
    lazy_wh.query(by_station)
    fresh = SeismicWarehouse(demo_repo.root, mode="lazy",
                             recycler_budget_bytes=0)
    assert lazy_wh.query(total).rows() == fresh.query(total).rows()


def test_clearing_the_extraction_cache_keeps_recycled_results(lazy_wh):
    """The files did not change, so neither did the answer: emptying the
    extraction cache does not invalidate a recycled intermediate."""
    sql = _per_channel("DBN", "MAX(D.sample_value)")
    first = lazy_wh.query(sql).rows()
    lazy_wh.cache.clear()
    assert lazy_wh.query(sql).rows() == first
    assert "recycler_hit" in _ops(lazy_wh)
    assert "extract" not in _ops(lazy_wh)
    assert lazy_wh.recycler.stats.stale_drops == 0


def test_lazy_full_scan_sees_a_file_added_by_sync(mutable_repo):
    """A lazy table read without metadata keys extracts the whole
    repository; after sync() adds a file, the repeat must include it."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    sql = "SELECT COUNT(*) FROM mseed.data"
    counts = {wh.query(sql).scalar() for _ in range(3)}
    assert counts == {mutable_repo.total_samples}
    write_mseed_file(
        os.path.join(mutable_repo.root, "NL", "HGN",
                     "NL.HGN..BHZ.2010.013.2200.mseed"),
        network="NL", station="HGN", location="", channel="BHZ",
        start_time_us=from_ymd(2010, 1, 13, 22, 0), sample_rate=40.0,
        samples=np.arange(4000, dtype=np.int32),
    )
    assert len(wh.sync().added) == 1
    assert wh.query(sql).scalar() == mutable_repo.total_samples + 4000
