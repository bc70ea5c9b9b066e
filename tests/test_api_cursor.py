"""The unified Connection/Cursor API: streaming, plan cache, services."""

import numpy as np
import pytest

from repro.api import Connection, PreparedStatement, connect
from repro.db.exec.engine import Database
from repro.db.exec.result import Result
from repro.db.column import Column
from repro.db.types import DataType
from repro.errors import ExecutionError, ReproError


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE nums (v BIGINT, tag VARCHAR)")
    database.bulk_insert(("nums",), {
        "v": np.arange(10_000),
        "tag": np.array(["even" if i % 2 == 0 else "odd"
                         for i in range(10_000)], dtype=object),
    })
    return database


@pytest.fixture()
def conn(db):
    return connect(db)


# -- connection basics --------------------------------------------------------


def test_connect_accepts_database_and_warehouse(db, lazy_wh):
    assert isinstance(connect(db), Connection)
    assert isinstance(connect(lazy_wh), Connection)
    assert isinstance(lazy_wh.connect(), Connection)
    with pytest.raises(ExecutionError):
        connect(object())


def test_closed_connection_refuses(conn):
    conn.close()
    with pytest.raises(ExecutionError, match="closed"):
        conn.cursor()


def test_connection_context_manager(db):
    with connect(db) as c:
        assert c.execute("SELECT count(*) FROM nums").scalar() == 10_000
    assert c.closed


# -- cursor fetch protocol ----------------------------------------------------


def test_description_and_dtypes(conn):
    cur = conn.execute("SELECT v, tag FROM nums LIMIT 1")
    assert [d[0] for d in cur.description] == ["v", "tag"]
    assert [d[1] for d in cur.description] == [DataType.BIGINT,
                                              DataType.VARCHAR]


def test_fetchone_fetchmany_fetchall(conn):
    cur = conn.cursor()
    cur.execute("SELECT v FROM nums WHERE v < 5 ORDER BY v")
    assert cur.fetchone() == (0,)
    assert cur.fetchmany(2) == [(1,), (2,)]
    assert cur.fetchall() == [(3,), (4,)]
    assert cur.fetchone() is None
    assert cur.fetchmany(3) == []
    assert cur.rowcount == 5


def test_fetchmany_uses_arraysize(conn):
    cur = conn.cursor()
    cur.arraysize = 3
    cur.execute("SELECT v FROM nums WHERE v < 10 ORDER BY v")
    assert len(cur.fetchmany()) == 3


def test_iteration(conn):
    cur = conn.execute("SELECT v FROM nums WHERE v < 4 ORDER BY v")
    assert [row[0] for row in cur] == [0, 1, 2, 3]


def test_scalar_helpers_and_errors(conn):
    assert conn.execute("SELECT sum(v) FROM nums").scalar() == \
        sum(range(10_000))
    with pytest.raises(ExecutionError, match="single-column"):
        conn.execute("SELECT v, tag FROM nums").scalar()
    with pytest.raises(ExecutionError, match="empty"):
        conn.execute("SELECT v FROM nums WHERE v < 0").scalar()
    with pytest.raises(ExecutionError, match="multi-row"):
        conn.execute("SELECT v FROM nums WHERE v < 2").scalar()


def test_fetch_before_execute_raises(conn):
    with pytest.raises(ExecutionError, match="no statement"):
        conn.cursor().fetchall()


def test_closed_cursor_refuses(conn):
    cur = conn.execute("SELECT v FROM nums LIMIT 1")
    cur.close()
    with pytest.raises(ExecutionError, match="closed"):
        cur.fetchone()


# -- streaming ----------------------------------------------------------------


def test_first_batch_arrives_before_full_materialisation(conn):
    # The tentpole acceptance assertion: a cursor over a full-table scan
    # yields its first rows while most of the table has NOT been pulled
    # through the engine.
    cur = conn.cursor()
    cur.execute("SELECT v, tag FROM nums", batch_rows=500)
    first = cur.fetchmany(10)
    assert len(first) == 10
    assert cur.rows_streamed == 500          # one batch, not the table
    assert cur.rows_streamed < 10_000
    assert cur.rowcount == -1                # stream still open
    assert len(first) + len(cur.fetchall()) == 10_000
    assert cur.rowcount == 10_000            # known once exhausted


def test_streaming_filter_and_projection(conn):
    cur = conn.cursor()
    cur.execute("SELECT v * 2 AS d FROM nums WHERE tag = 'even'",
                batch_rows=256)
    head = cur.fetchmany(4)
    assert head == [(0,), (4,), (8,), (12,)]
    assert cur.rows_streamed < 5_000


def test_limit_stops_pulling_early(conn):
    cur = conn.cursor()
    cur.execute("SELECT v FROM nums LIMIT 7", batch_rows=100)
    assert len(cur.fetchall()) == 7
    assert cur.rows_streamed == 7


def test_abandoned_stream_finalises_report(conn):
    cur = conn.cursor()
    cur.execute("SELECT v FROM nums", batch_rows=100)
    cur.fetchmany(5)
    report = cur.report
    cur.execute("SELECT count(*) FROM nums")  # implicitly closes the stream
    assert report.rows_out == 100  # one pulled batch was accounted
    assert cur.scalar() == 10_000


def test_streaming_results_match_materialised(conn, db):
    sql = "SELECT tag, count(*) AS n FROM nums GROUP BY tag ORDER BY tag"
    assert conn.execute(sql).fetchall() == db.query(sql).rows()


# -- per-cursor reports and the plan cache ------------------------------------


def test_per_cursor_report(conn):
    cur = conn.execute("SELECT count(*) FROM nums WHERE v >= ?", [5_000])
    cur.fetchall()
    assert cur.report.rows_out == 1
    assert cur.report.sql.startswith("SELECT count(*)")
    assert not cur.report.plan_cache_hit
    cur.execute("SELECT count(*) FROM nums WHERE v >= ?", [9_000])
    assert cur.report.plan_cache_hit
    assert cur.report.bind_s == 0.0 and cur.report.optimize_s == 0.0
    assert cur.scalar() == 1_000


def test_plan_cache_invalidated_by_dml(conn, db):
    sql = "SELECT count(*) FROM nums"
    assert conn.execute(sql).scalar() == 10_000
    assert conn.execute(sql).report.plan_cache_hit
    db.execute("INSERT INTO nums VALUES (77777, 'odd')")
    cur = conn.execute(sql)
    assert not cur.report.plan_cache_hit  # recompiled after DML
    assert cur.scalar() == 10_001


def test_plan_cache_invalidated_by_ddl(conn, db):
    sql = "SELECT count(*) FROM nums"
    conn.execute(sql)
    assert conn.execute(sql).report.plan_cache_hit
    db.execute("CREATE TABLE other (x BIGINT)")
    assert not conn.execute(sql).report.plan_cache_hit


def test_plan_cache_bounded(db):
    small = Database(plan_cache_size=4)
    small.execute("CREATE TABLE t (a BIGINT)")
    small.execute("INSERT INTO t VALUES (1)")
    for i in range(10):
        small.query(f"SELECT a + {i} FROM t")
    assert small.plan_cache_len() <= 4


# -- DML / DDL through cursors -------------------------------------------------


def test_dml_rowcount_and_no_result_set(conn):
    cur = conn.execute("DELETE FROM nums WHERE v >= 9995")
    assert cur.rowcount == 5
    assert cur.description is None
    with pytest.raises(ExecutionError, match="did not produce"):
        cur.fetchall()


def test_executemany_inserts(conn):
    cur = conn.cursor()
    cur.executemany("INSERT INTO nums VALUES (?, ?)",
                    [[100_001, "big"], [100_002, "big"], [100_003, "big"]])
    assert cur.rowcount == 3  # total across the batch
    assert conn.execute(
        "SELECT count(*) FROM nums WHERE tag = 'big'").scalar() == 3


def test_executemany_parses_once(conn):
    cur = conn.cursor()
    cur.executemany("INSERT INTO nums VALUES (?, ?)",
                    [[200_001, "batch"], [200_002, "batch"]])
    # The second (and every later) execution reuses the cached parse.
    assert cur.report.plan_cache_hit


def _counting_cursor(rowcounts):
    """A cursor over a fake runner yielding fixed per-run rowcounts."""
    from repro.db.exec.engine import CompletedQuery, QueryReport

    runs = iter(rowcounts)

    def runner(_sql, _params, _batch_rows):
        return CompletedQuery(Result([], []), QueryReport(), [],
                              is_rowset=False, rowcount=next(runs))

    from repro.api.cursor import Cursor

    return Cursor(runner)


def test_executemany_indeterminate_run_poisons_total():
    """DB-API: one -1 constituent makes the whole batch total -1.

    The old accounting silently *skipped* -1 runs and summed the rest,
    under-reporting the batch.
    """
    cur = _counting_cursor([5, -1, 3])
    cur.executemany("STMT", [None, None, None])
    assert cur.rowcount == -1


def test_executemany_sums_determinate_runs():
    cur = _counting_cursor([5, 0, 3])
    cur.executemany("STMT", [None, None, None])
    assert cur.rowcount == 8


def test_executemany_all_indeterminate():
    cur = _counting_cursor([-1, -1])
    cur.executemany("STMT", [None, None])
    assert cur.rowcount == -1


def test_executemany_empty_sequence_leaves_rowcount_untouched():
    cur = _counting_cursor([7])
    cur.executemany("STMT", [None])
    assert cur.rowcount == 7
    cur.executemany("STMT", [])  # nothing ran: prior state stands
    assert cur.rowcount == 7


def test_executemany_select_batch_is_indeterminate(conn):
    # Streaming SELECTs report -1 until exhausted; a batch of them must
    # stay -1 rather than summing to a misleading 0.
    cur = conn.cursor()
    cur.executemany("SELECT v FROM nums WHERE v < ?", [[5], [10]])
    assert cur.rowcount == -1
    assert len(cur.fetchall()) == 10  # the last run is still consumable


def test_explain_through_cursor(conn):
    cur = conn.execute("EXPLAIN SELECT count(*) FROM nums")
    rows = cur.fetchall()
    assert len(rows) == 1 and "physical plan" in rows[0][0]


# -- prepared statements -------------------------------------------------------


def test_prepared_statement_introspection(conn):
    stmt = conn.prepare("SELECT v FROM nums WHERE v = :target")
    assert isinstance(stmt, PreparedStatement)
    assert stmt.param_style == "named"
    assert stmt.param_names == ("target",)
    stmt2 = conn.prepare("SELECT v FROM nums WHERE v > ? AND v < ?")
    assert stmt2.param_style == "positional"
    assert stmt2.param_count == 2


def test_prepared_statement_compile_errors_surface_early(conn):
    with pytest.raises(ReproError):
        conn.prepare("SELECT nope FROM nums")


def test_prepared_execution_hits_plan_cache(conn):
    stmt = conn.prepare("SELECT count(*) FROM nums WHERE v < ?")
    cur = stmt.execute([10])
    assert cur.report.plan_cache_hit  # prepare() itself compiled it
    assert cur.scalar() == 10
    assert stmt.execute([100]).scalar() == 100
    assert stmt.query([3]).scalar() == 3


# -- Result ergonomics (satellite) ---------------------------------------------


def test_result_scalar_errors_are_clear():
    empty = Result(["v"], [Column.from_values(DataType.BIGINT, [])])
    with pytest.raises(ExecutionError, match="scalar"):
        empty.scalar()
    with pytest.raises(ExecutionError, match="first"):
        empty.first()
    wide = Result(["a", "b"], [Column.from_values(DataType.BIGINT, [1]),
                               Column.from_values(DataType.BIGINT, [2])])
    with pytest.raises(ExecutionError, match="1x2"):
        wide.scalar()
    tall = Result(["a"], [Column.from_values(DataType.BIGINT, [1, 2])])
    with pytest.raises(ExecutionError, match="2x1"):
        tall.scalar()
    # Every shape error is a ReproError, never a bare IndexError.
    for result in (empty, wide, tall):
        try:
            result.scalar()
        except ReproError:
            pass


def test_zero_column_result_is_well_behaved():
    nothing = Result([], [])
    assert nothing.row_count == 0
    assert nothing.rows() == []
    with pytest.raises(ExecutionError):
        nothing.scalar()


# -- the service exposes the same cursor protocol ------------------------------


def test_service_session_cursor(lazy_wh):
    with lazy_wh.serve(max_workers=2) as svc:
        session = svc.session("api-test")
        cur = session.cursor()
        cur.execute("SELECT count(*) FROM mseed.records")
        total = cur.scalar()
        assert total > 0
        assert cur.report.rows_out == 1
        cur.execute(
            "SELECT count(*) FROM mseed.files AS F WHERE F.network = ?",
            ["NL"],
        )
        assert cur.scalar() > 0
        assert cur.report.sql.startswith("SELECT count(*)")
        # Both cursor executions were served (and counted) by the service.
        assert svc.stats().completed == 2


def test_service_cursor_rejects_ddl_clearly(lazy_wh):
    from repro.errors import ServiceError

    with lazy_wh.serve(max_workers=1) as svc:
        cur = svc.session("scoped").cursor()
        with pytest.raises(ServiceError, match="queries only"):
            cur.execute("CREATE SCHEMA scratch")


def test_service_cursor_matches_direct_connection(lazy_wh):
    sql = ("SELECT F.station, count(*) AS n FROM mseed.files AS F "
           "GROUP BY F.station ORDER BY F.station")
    direct = lazy_wh.connect().execute(sql).fetchall()
    with lazy_wh.serve(max_workers=2) as svc:
        served = svc.session("cmp").cursor().execute(sql).fetchall()
    assert served == direct


# -- warehouse-level integration ----------------------------------------------


def test_parameterised_window_prunes_extraction_like_literals(lazy_wh):
    # Dynamic time bounds: a prepared Figure-1 Q1 must extract exactly
    # the records the literal form extracts — parameter values resolve
    # into the metadata pruning window at execution time.
    from repro.seismology.queries import fig1_query1, fig1_query1_template

    values = {
        "station": "ISK", "channel": "BHE",
        "day_start": "2010-01-12T00:00:00.000",
        "day_end": "2010-01-12T23:59:59.999",
        "window_start": "2010-01-12T22:15:00.000",
        "window_end": "2010-01-12T22:15:02.000",
    }
    literal_result, literal_report, _ = lazy_wh.db.query_with_report(
        fig1_query1())
    fresh = lazy_wh.connect()  # same warehouse: caches are shared
    lazy_wh.cache.clear()      # force re-extraction for a fair count
    cur = fresh.cursor().execute(fig1_query1_template(), values)
    rows = cur.fetchall()
    assert rows == literal_result.rows()
    assert cur.report.rows_extracted == literal_report.rows_extracted


def test_warehouse_parameterised_dataview_query(lazy_wh):
    from repro.seismology.queries import fig1_query2, fig1_query2_template

    conn = lazy_wh.connect()
    stmt = conn.prepare(fig1_query2_template())
    via_params = stmt.execute(
        {"network": "NL", "channel": "BHZ"}).fetchall()
    via_literals = lazy_wh.query(
        fig1_query2(network="NL", channel="BHZ")).rows()
    assert sorted(via_params) == sorted(via_literals)
    second = stmt.execute({"network": "KO", "channel": "BHE"})
    assert second.report.plan_cache_hit
    assert sorted(second.fetchall()) == sorted(
        lazy_wh.query(fig1_query2(network="KO", channel="BHE")).rows())
