"""Remote clients: differential oracle across the wire, params, asyncio.

The headline check extends the repo's differential-testing oracle over
TCP: every query of the E8 analytical suite must come back from a
remote client *bit-identical* — same values, same row order, same null
masks, same float bits — to an in-process ``wh.connect()`` cursor, and
with an agreeing ``QueryReport``.
"""

import asyncio
import struct
import time

import pytest
from oracle import column_fingerprint

from repro.api.cursor import Cursor
from repro.db.column import Column
from repro.errors import ExecutionError, RemoteQueryError
from repro.net import connect_tcp, connect_tcp_async
from repro.net.server import _ServerCursor
from repro.seismology.queries import analytical_suite
from repro.seismology.warehouse import SeismicWarehouse

TOKEN = "client-suite-secret"


@pytest.fixture(scope="module")
def served(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    svc = wh.serve(max_workers=4, tcp_port=0, auth_tokens=[TOKEN])
    yield wh, svc
    svc.close()
    wh.close()


@pytest.fixture()
def remote(served):
    _wh, svc = served
    conn = connect_tcp("127.0.0.1", svc.tcp_port, token=TOKEN)
    yield conn
    conn.close()


def _remote_fingerprints(conn, sql, params=None, batch_rows=64):
    """Column fingerprints + report of one remote streamed execution."""
    run = conn._run(sql, params, batch_rows)
    parts = [[] for _ in run.names]
    for batch in run.batches():
        for i, col in enumerate(batch.columns):
            parts[i].append(col)
    fps = [column_fingerprint(Column.concat(p)) if p else ((), ())
           for p in parts]
    return fps, run.report


# -- the E8 suite, bit-identical across the wire -----------------------------


def test_e8_suite_bit_identical_across_wire(served, remote):
    wh, _svc = served
    for spec in analytical_suite():
        vec = wh.db.query(spec.sql)
        local_report = wh.db.last_report
        local_fps = [column_fingerprint(col) for col in vec.columns]

        remote_fps, remote_report = _remote_fingerprints(remote, spec.sql)
        assert remote_fps == local_fps, (
            f"{spec.qid}: remote rows diverge from in-process on "
            f"{spec.sql!r}")
        assert remote_report.rows_out == local_report.rows_out == \
            vec.row_count, f"{spec.qid}: report row counts disagree"


def test_remote_report_counters_match_in_process(served, remote):
    wh, _svc = served
    sql = ("SELECT station, COUNT(*) AS n FROM mseed.files "
           "GROUP BY station ORDER BY station")
    vec = wh.db.query(sql)
    cur = remote.execute(sql)
    rows = cur.fetchall()
    assert rows == list(zip(*[c.to_pylist() for c in vec.columns]))
    report = cur.report
    assert report.rows_out == vec.row_count
    # The full counter dict made it across (field-driven to_dict).
    data = report.to_dict()
    for key in ("parse_s", "execute_s", "rows_extracted", "plan_cache_hit",
                "pages_read", "total_s"):
        assert key in data
    assert cur.rowcount == vec.row_count


# -- cursor surface ----------------------------------------------------------


def test_remote_cursor_is_the_shared_cursor_class(remote):
    cur = remote.cursor()
    assert isinstance(cur, Cursor)
    cur.execute("SELECT COUNT(*) FROM mseed.files")
    assert cur.description is not None
    assert cur.description[0][0] == "count_star"
    cur.close()


def test_fetch_surfaces_agree(served, remote):
    wh, _svc = served
    sql = "SELECT seq_no FROM mseed.records ORDER BY seq_no"
    expected = [r for (r,) in wh.connect().execute(sql).fetchall()]

    cur = remote.cursor(batch_rows=7)
    cur.execute(sql)
    head = cur.fetchone()
    some = cur.fetchmany(5)
    rest = cur.fetchall()
    got = [head[0]] + [r for (r,) in some] + [r for (r,) in rest]
    assert got == expected

    cur.execute(sql)  # re-execute on the same cursor: fresh stream
    assert [r for (r,) in cur] == expected


def test_fetch_batches_window_delivers_identical_rows(served):
    wh, svc = served
    sql = "SELECT sample_time, sample_value FROM mseed.dataview"
    baseline = wh.db.query(sql)
    conn = connect_tcp("127.0.0.1", svc.tcp_port, token=TOKEN,
                       fetch_batches=3)
    try:
        fps, report = _remote_fingerprints(conn, sql, batch_rows=256)
        assert fps == [column_fingerprint(c) for c in baseline.columns]
        assert report.rows_out == baseline.row_count
    finally:
        conn.close()


def test_early_cursor_close_keeps_connection_usable(remote):
    cur = remote.cursor(batch_rows=16)
    cur.execute("SELECT sample_time FROM mseed.dataview")
    assert cur.fetchone() is not None
    cur.close()  # abandon mid-stream: CLOSE_CURSOR round trip
    assert remote.execute("SELECT COUNT(*) FROM mseed.files").scalar() > 0


# -- parameters (typed payloads, never interpolated) -------------------------


def test_positional_params_match_in_process(served, remote):
    wh, _svc = served
    sql = ("SELECT COUNT(*) FROM mseed.files "
           "WHERE station = ? AND sample_rate > ?")
    local = wh.connect().execute(sql, ("HGN", 1.5)).scalar()
    assert remote.execute(sql, ("HGN", 1.5)).scalar() == local
    assert local > 0


def test_named_params_and_prepared_statement(served, remote):
    wh, _svc = served
    sql = "SELECT COUNT(*) FROM mseed.files WHERE station = :sta"
    stmt = remote.prepare(sql)
    for sta in ("HGN", "DBN", "ISK", "nowhere"):
        local = wh.connect().execute(sql, {"sta": sta}).scalar()
        assert stmt.execute({"sta": sta}).scalar() == local


def test_float_param_bits_survive_the_wire(served, remote):
    wh, _svc = served
    # 0.1 has no exact decimal spelling: only a bit-exact transport
    # (float.hex) makes remote and local predicates agree everywhere.
    needle = 0.1 + 2**-40
    sql = "SELECT COUNT(*) FROM mseed.dataview WHERE sample_value > ?"
    local = wh.connect().execute(sql, (needle,)).scalar()
    assert remote.execute(sql, (needle,)).scalar() == local


def test_sql_never_interpolated(remote):
    # A hostile string parameter stays a value: it matches nothing,
    # instead of rewriting the statement.
    sql = "SELECT COUNT(*) FROM mseed.files WHERE station = ?"
    hostile = "x' OR '1'='1"
    assert remote.execute(sql, (hostile,)).scalar() == 0


# -- error mapping -----------------------------------------------------------


def test_remote_query_errors_carry_remote_type(remote):
    with pytest.raises(RemoteQueryError) as excinfo:
        remote.execute("SELECT nope FROM mseed.no_such_table")
    assert excinfo.value.remote_type == "BindError"
    with pytest.raises(RemoteQueryError) as excinfo:
        remote.execute("SELECT COUNT(* FROM mseed.files")
    assert excinfo.value.remote_type == "ParseError"
    # failures do not poison the connection
    assert remote.execute("SELECT COUNT(*) FROM mseed.files").scalar() > 0


# -- asyncio client ----------------------------------------------------------


def test_async_client_matches_sync(served):
    wh, svc = served
    sql = ("SELECT station, COUNT(*) AS n FROM mseed.files "
           "GROUP BY station ORDER BY station")
    expected = wh.connect().execute(sql).fetchall()

    async def main():
        conn = await connect_tcp_async("127.0.0.1", svc.tcp_port,
                                       token=TOKEN)
        async with conn:
            cur = await conn.execute(sql)
            rows = await cur.fetchall()
            assert cur.report is not None
            assert cur.report.rows_out == len(rows)
            assert cur.rowcount == len(rows)
            return rows

    assert asyncio.run(main()) == expected


def test_async_cursors_pipeline_on_one_connection(served):
    wh, svc = served
    stations = ("HGN", "DBN", "ISK")
    sql = "SELECT COUNT(*) FROM mseed.files WHERE station = ?"
    expected = [wh.connect().execute(sql, (s,)).scalar() for s in stations]

    async def main():
        conn = await connect_tcp_async("127.0.0.1", svc.tcp_port,
                                       token=TOKEN)
        async with conn:
            async def one(station):
                cur = await conn.execute(sql, (station,))
                return await cur.scalar()

            return await asyncio.gather(*[one(s) for s in stations])

    assert asyncio.run(main()) == expected


def test_async_iteration_and_fetchmany(served):
    wh, svc = served
    sql = "SELECT seq_no FROM mseed.records ORDER BY seq_no"
    expected = [r for (r,) in wh.connect().execute(sql).fetchall()]

    async def main():
        conn = await connect_tcp_async("127.0.0.1", svc.tcp_port,
                                       token=TOKEN, batch_rows=8)
        async with conn:
            cur = await conn.execute(sql)
            first = await cur.fetchmany(3)
            rest = [row async for row in cur]
            return [r for (r,) in first] + [r for (r,) in rest]

    assert asyncio.run(main()) == expected


def test_async_float_rows_bit_exact(served):
    wh, svc = served
    sql = ("SELECT sample_value FROM mseed.dataview "
           "WHERE station = 'HGN' LIMIT 500")
    expected = [r for (r,) in wh.connect().execute(sql).fetchall()]

    async def main():
        conn = await connect_tcp_async("127.0.0.1", svc.tcp_port,
                                       token=TOKEN)
        async with conn:
            cur = await conn.execute(sql)
            return [r for (r,) in await cur.fetchall()]

    got = asyncio.run(main())
    assert len(got) == len(expected)
    for sent, received in zip(expected, got):
        assert struct.pack("<d", sent) == struct.pack("<d", received)


# -- an interrupted exchange closes the connection ---------------------------
#
# A response the client stopped reading is still on the socket; a
# connection that stayed "open" would hand its tail to the next request
# ("expected OPENED, got BATCH").


@pytest.fixture()
def slow_batches(monkeypatch):
    """Every server-side batch push is late by far more than the
    clients below are willing to wait."""
    push = _ServerCursor.push

    def late_push(self, result):
        time.sleep(0.5)
        return push(self, result)

    monkeypatch.setattr(_ServerCursor, "push", late_push)


def test_sync_timeout_mid_fetch_closes_the_connection(served, remote,
                                                      slow_batches):
    cur = remote.execute("SELECT COUNT(*), AVG(sample_value) "
                         "FROM mseed.dataview")
    remote._sock.settimeout(0.05)
    with pytest.raises(TimeoutError):
        cur.fetchall()
    assert remote.closed is True
    with pytest.raises(ExecutionError, match="connection is closed"):
        remote.execute("SELECT COUNT(*) FROM mseed.files")
    cur.close()  # nothing left to tell the server; must not raise


def test_async_cancel_mid_fetch_closes_the_connection(served, slow_batches):
    _wh, svc = served

    async def main():
        conn = await connect_tcp_async("127.0.0.1", svc.tcp_port,
                                       token=TOKEN)
        cur = await conn.execute("SELECT COUNT(*), AVG(sample_value) "
                                 "FROM mseed.dataview")
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(cur.fetchall(), 0.05)
        assert conn.closed is True
        with pytest.raises(ExecutionError, match="connection is closed"):
            await conn.execute("SELECT COUNT(*) FROM mseed.files")
        await cur.close()
        await conn.close()

    asyncio.run(main())
