"""Wire server: auth, validation, ugly corners, drain, attribution."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    ServiceError,
    WireAuthError,
    WireShutdownError,
)
from repro.net import connect_tcp, frames
from repro.seismology.warehouse import SeismicWarehouse
from repro.service.service import ServiceConfig

TOKENS = ["alice=wire-secret", "spare-secret"]
TOKEN = "wire-secret"


@pytest.fixture(scope="module")
def wired(tiny_repo):
    """One served warehouse shared by the read-only tests."""
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    svc = wh.serve(max_workers=2, tcp_port=0, auth_tokens=TOKENS,
                   cursor_window_batches=2)
    yield wh, svc
    svc.close()
    wh.close()


def _connect(svc, **kwargs):
    kwargs.setdefault("token", TOKEN)
    return connect_tcp("127.0.0.1", svc.tcp_port, **kwargs)


def _raw_authed_socket(svc) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", svc.tcp_port), timeout=10)
    sock.sendall(frames.pack_json_frame(frames.MSG_HELLO, {
        "token": TOKEN, "protocol": frames.PROTOCOL_VERSION}))
    msg_type, _ = frames.recv_frame_sock(sock)
    assert msg_type == frames.MSG_WELCOME
    return sock


def _wait_until(predicate, timeout_s=10.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


# -- ServiceConfig validation ------------------------------------------------


def test_config_rejects_out_of_range_tcp_port():
    with pytest.raises(ServiceError, match=r"tcp_port"):
        ServiceConfig(tcp_port=65536, auth_tokens=["x"])
    with pytest.raises(ServiceError, match=r"tcp_port"):
        ServiceConfig(tcp_port=-1, auth_tokens=["x"])


def test_config_requires_auth_token_for_tcp():
    with pytest.raises(ServiceError, match="auth token"):
        ServiceConfig(tcp_port=0)
    with pytest.raises(ServiceError, match="auth token"):
        ServiceConfig(tcp_port=0, auth_tokens=[""])


def test_config_rejects_degenerate_wire_tunables():
    with pytest.raises(ServiceError, match="cursor_window_batches"):
        ServiceConfig(tcp_port=0, auth_tokens=["x"],
                      cursor_window_batches=0)
    with pytest.raises(ServiceError, match="cursor_stall_timeout_s"):
        ServiceConfig(tcp_port=0, auth_tokens=["x"],
                      cursor_stall_timeout_s=0)
    with pytest.raises(ServiceError, match="tcp_max_frame_bytes"):
        ServiceConfig(tcp_port=0, auth_tokens=["x"], tcp_max_frame_bytes=0)
    with pytest.raises(ServiceError, match="tcp_drain_s"):
        ServiceConfig(tcp_port=0, auth_tokens=["x"], tcp_drain_s=-1)


def test_double_close_is_noop(tiny_repo):
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    svc = wh.serve(max_workers=2, tcp_port=0, auth_tokens=[TOKEN])
    svc.close()
    started = time.monotonic()
    svc.close()  # regression: second close must return, not hang/raise
    assert time.monotonic() - started < 5.0
    wh.close()


# -- auth --------------------------------------------------------------------


def test_auth_failure_before_any_query(wired):
    _wh, svc = wired
    before = svc.wire.stats()["auth_failures_total"]
    with pytest.raises(WireAuthError, match="authentication failed"):
        _connect(svc, token="wrong-secret")
    assert svc.wire.stats()["auth_failures_total"] == before + 1
    # The listener survives and still serves good credentials.
    with _connect(svc) as conn:
        assert conn.execute(
            "SELECT COUNT(*) FROM mseed.records").scalar() > 0


def test_principal_and_plain_tokens(wired):
    _wh, svc = wired
    with _connect(svc, token="wire-secret") as conn:
        assert conn.principal == "alice"
    with _connect(svc, token="spare-secret") as conn:
        assert conn.principal == "token-1"


def test_open_before_hello_is_auth_error(wired):
    _wh, svc = wired
    sock = socket.create_connection(("127.0.0.1", svc.tcp_port), timeout=10)
    try:
        sock.sendall(frames.pack_json_frame(frames.MSG_OPEN,
                                            {"sql": "SELECT 1"}))
        msg_type, payload = frames.recv_frame_sock(sock)
        assert msg_type == frames.MSG_ERROR
        assert frames.decode_json_payload(payload)["code"] == frames.ERR_AUTH
    finally:
        sock.close()


@pytest.mark.parametrize("hello", [
    {"token": TOKEN, "protocol": 1},   # a peer on the pre-page BATCH layout
    {"token": TOKEN},                  # a peer that states no version
    {"token": "wrong-secret", "protocol": 99},  # refused before the token
])
def test_hello_with_another_protocol_version_is_refused(wired, hello):
    _wh, svc = wired
    before = svc.wire.stats()
    sock = socket.create_connection(("127.0.0.1", svc.tcp_port), timeout=10)
    try:
        sock.sendall(frames.pack_json_frame(frames.MSG_HELLO, hello))
        msg_type, payload = frames.recv_frame_sock(sock)
        assert msg_type == frames.MSG_ERROR  # never a WELCOME
        obj = frames.decode_json_payload(payload)
        assert obj["code"] == frames.ERR_PROTOCOL
        assert str(frames.PROTOCOL_VERSION) in obj["error"]
        with pytest.raises(ConnectionError):
            frames.recv_frame_sock(sock)  # server closed the connection
    finally:
        sock.close()
    after = svc.wire.stats()
    assert after["protocol_errors_total"] == \
        before["protocol_errors_total"] + 1
    assert after["auth_failures_total"] == before["auth_failures_total"]


# -- statement policy --------------------------------------------------------


def test_non_select_is_rejected(wired):
    _wh, svc = wired
    with _connect(svc) as conn:
        with pytest.raises(ServiceError, match="SELECT"):
            conn.execute("CREATE TABLE t (x BIGINT)")
        # the connection itself is still usable afterwards
        assert conn.execute(
            "SELECT COUNT(*) FROM mseed.records").scalar() > 0


# -- hostile frames ----------------------------------------------------------


def test_oversized_frame_gets_typed_error_and_close(wired):
    _wh, svc = wired
    sock = _raw_authed_socket(svc)
    try:
        limit = svc.config.tcp_max_frame_bytes
        sock.sendall(struct.pack("<IB", limit + 2, frames.MSG_OPEN))
        msg_type, payload = frames.recv_frame_sock(sock)
        assert msg_type == frames.MSG_ERROR
        obj = frames.decode_json_payload(payload)
        assert obj["code"] == frames.ERR_PROTOCOL
        assert "exceeds" in obj["error"]
        with pytest.raises(ConnectionError):
            frames.recv_frame_sock(sock)  # server closed the connection
    finally:
        sock.close()


def test_garbage_frame_type_gets_typed_error_and_close(wired):
    _wh, svc = wired
    sock = _raw_authed_socket(svc)
    try:
        sock.sendall(struct.pack("<IB", 1, 0x7E))
        msg_type, payload = frames.recv_frame_sock(sock)
        assert msg_type == frames.MSG_ERROR
        assert frames.decode_json_payload(payload)["code"] == \
            frames.ERR_PROTOCOL
    finally:
        sock.close()


def test_torn_frame_does_not_crash_server(wired):
    _wh, svc = wired
    sock = _raw_authed_socket(svc)
    # A header promising 100 bytes, then hang up mid-payload.
    sock.sendall(struct.pack("<IB", 101, frames.MSG_OPEN) + b"partial")
    sock.close()
    _wait_until(lambda: svc.wire.stats()["connections"] == 0,
                message="torn session teardown")
    with _connect(svc) as conn:  # the server is alive and well
        assert conn.execute(
            "SELECT COUNT(*) FROM mseed.files").scalar() > 0


def test_unexpected_server_frame_type_closes_session(wired):
    _wh, svc = wired
    sock = _raw_authed_socket(svc)
    try:
        # WELCOME is a server->client frame; a client sending it is
        # speaking the wrong half of the protocol.
        sock.sendall(frames.pack_json_frame(frames.MSG_WELCOME, {}))
        msg_type, payload = frames.recv_frame_sock(sock)
        assert msg_type == frames.MSG_ERROR
        assert frames.decode_json_payload(payload)["code"] == \
            frames.ERR_PROTOCOL
    finally:
        sock.close()


# -- cursor lifecycle under client failure -----------------------------------


def test_disconnect_mid_fetch_frees_cursor_and_slot(wired):
    _wh, svc = wired
    conn = _connect(svc)
    run = conn._run(
        "SELECT sample_time, sample_value FROM mseed.dataview", None, 32)
    batches = run.batches()
    next(batches)  # stream is live; the producer holds a worker
    assert svc.wire.stats()["cursors_open"] == 1
    conn._sock.close()  # vanish without CLOSE/GOODBYE
    _wait_until(lambda: svc.wire.stats()["cursors_open"] == 0,
                message="cursor cleanup after disconnect")
    _wait_until(lambda: svc.wire.stats()["connections"] == 0,
                message="session cleanup after disconnect")
    # The admission slot and worker are free again: new queries run.
    with _connect(svc) as probe:
        assert probe.execute(
            "SELECT COUNT(*) FROM mseed.records").scalar() > 0


def test_close_cursor_frees_server_state(wired):
    _wh, svc = wired
    with _connect(svc) as conn:
        cur = conn.cursor(batch_rows=16)
        cur.execute("SELECT sample_time FROM mseed.dataview")
        assert cur.fetchone() is not None
        cur.close()  # sends CLOSE_CURSOR
        _wait_until(lambda: svc.wire.stats()["cursors_open"] == 0,
                    message="explicit cursor close")


# -- observability attribution -----------------------------------------------


def test_wire_sessions_attributed_in_journal_and_systables(wired):
    wh, svc = wired
    with _connect(svc) as conn:
        assert conn.execute(
            "SELECT COUNT(*) FROM mseed.records").scalar() > 0
        session_id = conn.session

        # sys.connections: live session with peer + principal + counters
        rows = conn.execute(
            "SELECT session, peer, principal, bytes_in, bytes_out "
            "FROM sys.connections").fetchall()
        mine = [r for r in rows if r[0] == session_id]
        assert mine, f"no sys.connections row for {session_id}: {rows}"
        assert mine[0][1].startswith("127.0.0.1:")
        assert mine[0][2] == "alice"
        assert mine[0][3] > 0 and mine[0][4] > 0

    # sys.queries: the journal entry carries session id + peer address
    local = wh.connect()
    entries = local.execute(
        "SELECT session FROM sys.queries WHERE status = 'ok'").fetchall()
    wire_sessions = [s for (s,) in entries if s.startswith("wire-")]
    assert wire_sessions, f"no wire-attributed journal entries: {entries}"
    assert any("@127.0.0.1:" in s for s in wire_sessions)


def test_wire_metrics_exported(wired):
    wh, svc = wired
    with _connect(svc) as conn:
        conn.ping()
        snapshot = wh.metrics_registry.snapshot()
    assert "repro_wire_connections_total" in snapshot
    assert "repro_wire_cursors_open" in snapshot
    stats = svc.wire.stats()
    assert stats["connections_total"] >= 1
    assert stats["session_bytes_out"] >= 0


# -- shutdown: graceful drain vs deadline abort ------------------------------


def test_graceful_drain_lets_cursor_finish(tiny_repo):
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    svc = wh.serve(max_workers=2, tcp_port=0, auth_tokens=[TOKEN],
                   cursor_window_batches=2, tcp_drain_s=30.0)
    conn = _connect(svc)
    cur = conn.cursor(batch_rows=64)
    cur.execute("SELECT sample_time, sample_value FROM mseed.dataview")
    first = cur.fetchmany(64)
    assert len(first) == 64

    closer = threading.Thread(target=svc.close)
    closer.start()
    try:
        # The service is draining, but this in-flight cursor may run to
        # completion — every remaining row arrives.
        rest = cur.fetchall()
        assert len(rest) > 0
        assert cur.report is not None
        assert cur.report.rows_out == len(first) + len(rest)
    finally:
        closer.join(timeout=60)
        assert not closer.is_alive()
        conn.close()
        wh.close()


def test_drain_deadline_aborts_stalled_cursor(tiny_repo):
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    svc = wh.serve(max_workers=2, tcp_port=0, auth_tokens=[TOKEN],
                   cursor_window_batches=1, tcp_drain_s=0.3)
    conn = _connect(svc)
    run = conn._run(
        "SELECT sample_time, sample_value FROM mseed.dataview", None, 16)
    batches = run.batches()
    next(batches)  # open the stream, then stop fetching: the cursor stalls

    closer = threading.Thread(target=svc.close)
    closer.start()
    closer.join(timeout=60)
    assert not closer.is_alive(), "close() hung past the drain deadline"
    # The abort is observable from the client as a typed shutdown error
    # (or, if the transport died first, a connection error).
    with pytest.raises((WireShutdownError, ConnectionError)):
        for _ in batches:
            pass
    conn.close()
    wh.close()


def test_connections_refused_after_close(tiny_repo):
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    svc = wh.serve(max_workers=2, tcp_port=0, auth_tokens=[TOKEN])
    port = svc.tcp_port
    svc.close()
    with pytest.raises((WireShutdownError, ConnectionError, OSError)):
        connect_tcp("127.0.0.1", port, token=TOKEN, timeout=5)
    wh.close()


# -- fan-in: 100 connections, 0 dropped, clean drain under load --------------


def test_hundred_async_connections_then_clean_drain(tiny_repo):
    """100 concurrent asyncio connections each run one aggregate and one
    multi-batch fetch with no failure; then ``close()`` lands while
    streaming cursors are live, lets them finish inside ``tcp_drain_s``,
    and leaves no session and no thread behind."""
    import asyncio

    from repro.net import connect_tcp_async

    n_conns, n_streaming, drain_s = 100, 4, 20.0
    aggregate = ("SELECT station, COUNT(*) FROM mseed.files "
                 "GROUP BY station ORDER BY station")
    stream = "SELECT sample_time, sample_value FROM mseed.dataview"
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    local = wh.connect()
    expected_groups = local.execute(aggregate).fetchall()
    expected_rows = local.execute(stream).fetchall()  # also warms the cache
    threads_before = threading.active_count()
    # A streaming cursor pins a worker while its window is full, so the
    # drain phase holds fewer live cursors than there are workers.
    svc = wh.serve(max_workers=8, queue_depth=4 * n_conns, tcp_port=0,
                   auth_tokens=[TOKEN], tcp_drain_s=drain_s)

    async def one_client(conn) -> None:
        async with conn:
            cur = await conn.execute(aggregate)
            assert await cur.fetchall() == expected_groups
            cur = conn.cursor(batch_rows=100)
            await cur.execute(stream + " LIMIT 350")  # four BATCH frames
            assert await cur.fetchall() == expected_rows[:350]

    async def drive():
        # Every connection is open before the first query fires, so the
        # peak concurrency really is n_conns.
        conns = await asyncio.gather(*[
            connect_tcp_async("127.0.0.1", svc.tcp_port, token=TOKEN)
            for _ in range(n_conns)])
        # The server registers a session just after it sends WELCOME;
        # nothing else runs on this loop yet, so a blocking poll is fine.
        _wait_until(lambda: svc.wire.stats()["connections"] == n_conns,
                    message=f"{n_conns} live wire sessions")
        outcomes = await asyncio.gather(
            *[one_client(conn) for conn in conns], return_exceptions=True)

        streaming = await asyncio.gather(*[
            connect_tcp_async("127.0.0.1", svc.tcp_port, token=TOKEN)
            for _ in range(n_streaming)])
        cursors = []
        for conn in streaming:
            cur = conn.cursor(batch_rows=256)
            await cur.execute(stream)
            assert await cur.fetchmany(256) == expected_rows[:256]
            cursors.append(cur)
        started = time.monotonic()
        closing = asyncio.get_running_loop().run_in_executor(None, svc.close)
        rests = await asyncio.gather(*[cur.fetchall() for cur in cursors])
        await closing
        drained_in = time.monotonic() - started
        for conn in streaming:
            await conn.close()
        return outcomes, rests, drained_in

    try:
        outcomes, rests, drained_in = asyncio.run(drive())
    finally:
        svc.close()
    errors = [outcome for outcome in outcomes if outcome is not None]
    assert not errors, f"{len(errors)} of {n_conns} clients failed: {errors[:3]}"
    assert all(rest == expected_rows[256:] for rest in rests)
    assert drained_in < drain_s
    assert svc.stats().failed == 0
    assert local.execute("SELECT COUNT(*) FROM sys.connections").scalar() == 0
    _wait_until(lambda: threading.active_count() == threads_before,
                message="service threads to exit")
    wh.close()
