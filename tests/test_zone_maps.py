"""Zone maps: per-page min/max in segment footers + scan page pruning.

Soundness contract: pruning only ever *skips* pages no row of which can
satisfy a pushed-down conjunct; the filter above retains the full
predicate, so every test here can (and does) check pruned results
against an unpruned reference — the rowpath interpreter, which runs
with zone pruning disabled.
"""

import math

import pytest
from oracle import CORPUS_BATCH_ROWS

from repro.db.column import Column
from repro.db.exec.engine import Database
from repro.db.plan.physical import _zone_dead
from repro.db.types import DataType
from repro.storage.bufferpool import BufferPool
from repro.storage.segment import SegmentReader, SegmentWriter

ROWS = 40_000  # > 2 pages of 16384: three pages per column


def _build_store(tmp_path, rows=ROWS):
    db = Database()
    db.execute(
        "CREATE TABLE t (v BIGINT, f DOUBLE, s VARCHAR, n BIGINT)")
    db.table("main.t").append_pydict({
        "v": list(range(rows)),
        "f": [float(i) / 2 if i % 7 else None for i in range(rows)],
        "s": [f"x{i % 5}" for i in range(rows)],
        "n": [None] * rows,  # all-NULL: every zone entry is None
    })
    db.attach(tmp_path / "store")
    db.checkpoint()
    return tmp_path / "store"


def _open(store_path):
    db = Database()
    db.attach(store_path)
    assert db.table("main.t").disk_backing is not None
    return db


def _disk_db(tmp_path, rows=ROWS):
    return _open(_build_store(tmp_path, rows))


# ---------------------------------------------------------------------------
# Footer contents
# ---------------------------------------------------------------------------


def test_writer_records_per_page_min_max(tmp_path):
    path = tmp_path / "zones.seg"
    writer = SegmentWriter(path)
    writer.write_column(
        "v", Column.from_values(DataType.BIGINT, list(range(10))),
        page_rows=4)
    writer.write_column(
        "s", Column.from_values(DataType.VARCHAR, list("abcdefghij")),
        page_rows=4)
    writer.finish()
    reader = SegmentReader(path, BufferPool(1 << 20))
    try:
        assert reader.zone_map("v") == [(0, 3), (4, 7), (8, 9)]
        assert reader.zone_map("s") is None  # non-numeric: no zones
        assert reader.page_row_counts("v") == [4, 4, 2]
    finally:
        reader.close()


def test_null_and_nan_values_never_enter_zones(tmp_path):
    path = tmp_path / "zones.seg"
    writer = SegmentWriter(path)
    writer.write_column(
        "f", Column.from_values(
            DataType.DOUBLE,
            [1.5, None, 3.0, math.nan] + [None] * 4),
        page_rows=4)
    writer.finish()
    reader = SegmentReader(path, BufferPool(1 << 20))
    try:
        # Page 1: min/max over {1.5, 3.0} only; page 2 has no valid
        # comparable value at all.
        assert reader.zone_map("f") == [(1.5, 3.0), None]
    finally:
        reader.close()


# ---------------------------------------------------------------------------
# The page-death predicate itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("zone,op,value,dead", [
    ((10, 20), "=", 5, True),
    ((10, 20), "=", 15, False),
    ((10, 20), "=", 25, True),
    ((10, 20), "<", 10, True),
    ((10, 20), "<", 11, False),
    ((10, 20), "<=", 9, True),
    ((10, 20), "<=", 10, False),
    ((10, 20), ">", 20, True),
    ((10, 20), ">", 19, False),
    ((10, 20), ">=", 21, True),
    ((10, 20), ">=", 20, False),
    ((10, 10), "!=", 10, True),   # constant page, excluded value
    ((10, 20), "!=", 10, False),
    (None, ">", 0, True),          # page with no comparable values
    ((10, 20), ">", None, True),   # NULL constant: nothing qualifies
    ((10, 20), "<", math.nan, True),
])
def test_zone_dead(zone, op, value, dead):
    assert _zone_dead(zone, op, value) is dead


# ---------------------------------------------------------------------------
# End-to-end pruning: identical answers, fewer pages decoded
# ---------------------------------------------------------------------------


PRUNABLE = [
    "SELECT count(*), min(v), max(v) FROM t WHERE v < 100",
    "SELECT count(*) FROM t WHERE v >= 39990",
    "SELECT count(*) FROM t WHERE 20000 <= v AND v <= 20004",  # flipped side
    "SELECT count(*) FROM t WHERE v BETWEEN 16000 AND 16500 AND f > 0",
    "SELECT sum(v) FROM t WHERE f < 50.0",
    "SELECT count(*) FROM t WHERE v = 123 AND s = 'x3'",
    "SELECT count(*) FROM t WHERE n > 0",        # all-NULL column: 0 rows
    "SELECT count(*) FROM t WHERE v < -1",       # every page dead
]


@pytest.mark.parametrize("sql", PRUNABLE)
def test_pruned_scan_matches_rowpath(tmp_path, sql):
    store = _build_store(tmp_path)
    # The rowpath reference faults whole columns resident, so it gets
    # its own connection — the pruned run must start disk-backed.
    reference, ref_report, _ = _open(store).query_rowpath(sql)
    assert ref_report.pages_skipped_zone == 0  # baseline never prunes
    db = _open(store)
    assert db.query(sql).rows() == reference.rows()
    assert db.last_report.pages_skipped_zone > 0


@pytest.mark.parametrize("sql", PRUNABLE)
def test_pruned_streaming_matches_rowpath(tmp_path, sql):
    store = _build_store(tmp_path)
    reference, _, _ = _open(store).query_rowpath(sql)
    run = _open(store).open_query(sql, batch_rows=512)
    rows = [row for batch in run.batches() for row in batch.rows()]
    assert rows == reference.rows()
    assert run.report.pages_skipped_zone > 0


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    return _build_store(tmp_path_factory.mktemp("zone-oracle"))


DISK_ORACLE = PRUNABLE + [
    "SELECT v, f, s, n FROM t WHERE v BETWEEN 16380 AND 16390",  # page seam
    "SELECT s, count(*), sum(v), avg(f) FROM t GROUP BY s ORDER BY s",
    "SELECT DISTINCT s, n FROM t WHERE v >= 30000",
    "SELECT v, f FROM t ORDER BY v DESC LIMIT 5",
    "SELECT v, s FROM t LIMIT 10 OFFSET 16380",  # stops inside page two
]


@pytest.mark.oracle
@pytest.mark.parametrize("sql", DISK_ORACLE)
def test_disk_backed_differential_oracle(shared_store, differential_oracle,
                                         sql):
    """A table straight after ``attach``: the drain reads it from disk
    (pruned or whole), and every streamed batch size and the rowpath
    agree with it bit for bit."""
    differential_oracle(_open(shared_store), sql,
                        stream_batch_rows=CORPUS_BATCH_ROWS)


def test_streaming_scan_skips_dead_pages_entirely(tmp_path):
    db = _disk_db(tmp_path)
    run = db.open_query("SELECT v FROM t WHERE v >= 39999", batch_rows=64)
    rows = [r[0] for b in run.batches() for r in b.rows()]
    assert rows == [39999]
    # Only the last of the three v-pages survives its zone check.
    assert run.report.pages_read == 1
    assert run.report.pages_skipped_zone == 2


def test_param_conjuncts_prune_per_execution(tmp_path):
    db = _disk_db(tmp_path)
    sql = "SELECT count(*) FROM t WHERE v < ?"
    assert db.query(sql, [100]).rows() == [(100,)]
    assert db.last_report.pages_skipped_zone == 2
    # A different binding prunes differently — and a NULL binding makes
    # the conjunct unsatisfiable, so every page is provably dead.
    assert db.query(sql, [20000]).rows() == [(20000,)]
    assert db.last_report.pages_skipped_zone == 1
    assert db.query(sql, [None]).rows() == [(0,)]
    assert db.last_report.pages_skipped_zone == 3
    assert db.last_report.pages_read == 0


def test_resident_columns_stay_row_aligned(tmp_path):
    db = _disk_db(tmp_path)
    # Fault `s` fully into memory (no prunable conjunct, whole scan).
    db.query("SELECT DISTINCT s FROM t")
    assert db.table("main.t").is_column_resident("s")
    # Now a pruned scan mixes a resident column with paged reads.
    rows = db.query(
        "SELECT v, s FROM t WHERE v BETWEEN 16382 AND 16385").rows()
    assert rows == [(i, f"x{i % 5}") for i in range(16382, 16386)]


def test_pruned_scan_never_caches_partial_columns(tmp_path):
    db = _disk_db(tmp_path)
    db.query("SELECT v FROM t WHERE v < 5")
    assert not db.table("main.t").is_column_resident("v")
    # The full, unpruned scan afterwards sees every row.
    assert db.query("SELECT count(*) FROM t").rows() == [(ROWS,)]


def test_explain_documents_zone_pruning(tmp_path):
    db = _disk_db(tmp_path)
    plan = db.explain("SELECT v FROM t WHERE v < 100")
    assert "zone-prune[v < 100]" in plan
    assert "skip 2/3 pages/col" in plan


def test_no_pruning_without_conjuncts_or_backing(tmp_path):
    db = _disk_db(tmp_path)
    assert db.query("SELECT count(*) FROM t WHERE s = 'x1'").rows() \
        == [(ROWS // 5,)]
    assert db.last_report.pages_skipped_zone == 0  # VARCHAR: no zones
    db.execute("INSERT INTO t (v, f, s, n) VALUES (-1, 0.0, 'y', 0)")
    assert db.table("main.t").disk_backing is None  # copy-on-write detach
    assert db.query("SELECT count(*) FROM t WHERE v < 100").rows() \
        == [(101,)]
