"""The client protocol without sockets, then the same script over both
drivers.

``repro.net.protocol`` holds every client exchange as a generator; here
each one is fed a scripted list of reply frames, and the two real
drivers (blocking socket, asyncio streams) are then run against one
scripted peer over a ``socketpair``.
"""

import ast
import asyncio
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.db.column import Column
from repro.db.exec.result import Result
from repro.db.types import DataType
from repro.errors import (
    ExecutionError,
    RemoteQueryError,
    WireAuthError,
    WireProtocolError,
)
from repro.net import frames, protocol
from repro.net.aio import AsyncConnection
from repro.net.client import RemoteConnection

NAMES = ["n"]


def frame(msg_type, obj=None):
    """One scripted reply, as the ``(type, payload)`` a driver reads."""
    raw = frames.pack_frame(msg_type) if obj is None \
        else frames.pack_json_frame(msg_type, obj)
    return msg_type, raw[frames.HEADER_SIZE:]


def batch(cursor_id, values):
    result = Result(NAMES, [Column(DataType.BIGINT,
                                   np.asarray(values, dtype=np.int64))])
    return frames.MSG_BATCH, frames.encode_result_batch(cursor_id, result)


WELCOME = frame(frames.MSG_WELCOME, {
    "session": "wire-1", "principal": "alice",
    "protocol": frames.PROTOCOL_VERSION})
OPENED = frame(frames.MSG_OPENED,
               {"cursor": 7, "names": NAMES, "dtypes": ["bigint"]})
DONE = frame(frames.MSG_DONE, {
    "cursor": 7, "report": {"rows_out": 5}, "trace": [{"op": "scan"}],
    "timings": {"total_s": 0.25}})
QUERY_ERROR = frame(frames.MSG_ERROR, {
    "code": frames.ERR_QUERY, "error": "no such table", "type": "BindError"})


def drive(exchange, replies):
    """Run one exchange against scripted replies → ``(sent, outcome)``;
    every scripted reply must have been consumed when it ends."""
    sent, replies = [], list(replies)
    try:
        outgoing = next(exchange)
        while True:
            if outgoing is not None:
                sent.append(outgoing)
            assert replies, "exchange wants a frame the script lacks"
            outgoing = exchange.send(replies.pop(0))
    except StopIteration as done:
        assert not replies, "exchange ended before the script did"
        return sent, done.value


def sent_request(sent):
    """The single request frame an exchange sent → ``(type, object)``."""
    (raw,) = sent
    msg_type, length = frames.split_header(raw[:frames.HEADER_SIZE],
                                           max_frame_bytes=1 << 20)
    payload = raw[frames.HEADER_SIZE:]
    assert len(payload) == length
    return msg_type, frames.decode_json_payload(payload) if payload else {}


def open_stream():
    _sent, stream = drive(protocol.open_cursor("SELECT 1", None, 64),
                          [OPENED])
    return stream


# -- the module itself -------------------------------------------------------


def test_protocol_module_does_no_io():
    tree = ast.parse(Path(protocol.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & {"socket", "asyncio", "selectors", "ssl"}


# -- HELLO -------------------------------------------------------------------


def test_hello_sends_token_and_version_and_returns_welcome():
    sent, welcome = drive(protocol.hello("s3cret"), [WELCOME])
    assert sent_request(sent) == (frames.MSG_HELLO, {
        "token": "s3cret", "protocol": frames.PROTOCOL_VERSION})
    assert welcome["principal"] == "alice"


def test_hello_answered_by_error_returns_the_typed_error():
    _sent, outcome = drive(protocol.hello("nope"), [frame(
        frames.MSG_ERROR,
        {"code": frames.ERR_AUTH, "error": "authentication failed"})])
    assert isinstance(outcome, WireAuthError)
    assert "authentication failed" in str(outcome)


@pytest.mark.parametrize("welcome", [
    {"session": "wire-1", "protocol": frames.PROTOCOL_VERSION - 1},
    {"session": "wire-1"},
])
def test_hello_refuses_a_server_on_another_version(welcome):
    with pytest.raises(WireProtocolError, match="wire protocol"):
        drive(protocol.hello("t"), [frame(frames.MSG_WELCOME, welcome)])


# -- OPEN --------------------------------------------------------------------


def test_open_returns_a_stream_described_by_opened():
    sent, stream = drive(
        protocol.open_cursor("SELECT n FROM t WHERE n > ?", (1.5,), 64),
        [OPENED])
    msg_type, obj = sent_request(sent)
    assert msg_type == frames.MSG_OPEN
    assert obj["sql"] == "SELECT n FROM t WHERE n > ?"
    assert obj["batch_rows"] == 64
    assert frames.unpack_params(obj["params"]) == (1.5,)
    assert (stream.cursor_id, stream.names, stream.dtypes) == \
        (7, NAMES, [DataType.BIGINT])
    assert not stream.finished and not stream.closed
    assert stream.report is None and stream.rowcount == -1


def test_open_answered_by_error_returns_the_typed_error():
    _sent, outcome = drive(protocol.open_cursor("SELECT", None, 64),
                           [QUERY_ERROR])
    assert isinstance(outcome, RemoteQueryError)
    assert outcome.remote_type == "BindError"


def test_opened_without_its_fields_is_a_protocol_error():
    with pytest.raises(WireProtocolError, match="OPENED frame lacks"):
        drive(protocol.open_cursor("SELECT 1", None, 64),
              [frame(frames.MSG_OPENED, {"cursor": 7})])


# -- FETCH -------------------------------------------------------------------


def test_fetch_one_batch_at_a_time_then_done():
    stream = open_stream()
    sent, results = drive(stream.fetch(1), [batch(7, [1, 2, 3])])
    assert sent_request(sent) == (frames.MSG_FETCH,
                                  {"cursor": 7, "max_batches": 1})
    assert [r.rows() for r in results] == [[(1,), (2,), (3,)]]
    assert not stream.finished

    _sent, results = drive(stream.fetch(1), [DONE])
    assert results == []
    assert stream.finished and stream.closed
    assert stream.report.rows_out == 5
    assert stream.report.timings == {"total_s": 0.25}
    assert stream.trace == [{"op": "scan"}]
    assert stream.rowcount == 5
    assert stream.close() is None  # DONE dropped the server cursor


def test_fetch_window_of_three_ending_in_done():
    stream = open_stream()
    _sent, results = drive(stream.fetch(3),
                           [batch(7, [1, 2]), batch(7, [3]), DONE])
    assert [r.rows() for r in results] == [[(1,), (2,)], [(3,)]]
    assert stream.finished


def test_fetch_stops_reading_at_a_full_window():
    stream = open_stream()
    _sent, results = drive(
        stream.fetch(3), [batch(7, [1]), batch(7, [2]), batch(7, [3])])
    assert len(results) == 3
    assert not stream.finished and not stream.closed


def test_error_mid_fetch_ends_the_stream_cleanly():
    stream = open_stream()
    _sent, outcome = drive(stream.fetch(3), [batch(7, [1]), QUERY_ERROR])
    assert isinstance(outcome, RemoteQueryError)
    assert stream.finished and stream.closed
    assert stream.close() is None


def test_batch_for_another_cursor_is_a_protocol_error():
    stream = open_stream()
    with pytest.raises(WireProtocolError, match="batch for cursor 8"):
        drive(stream.fetch(1), [batch(8, [1])])


def test_corrupt_batch_mid_fetch_is_a_protocol_error():
    stream = open_stream()
    msg_type, payload = batch(7, list(range(50)))
    flipped = bytearray(payload)
    flipped[-1] ^= 0x01
    with pytest.raises(WireProtocolError, match="checksum"):
        drive(stream.fetch(1), [(msg_type, bytes(flipped))])


# -- CLOSE_CURSOR / PING -----------------------------------------------------


def test_close_cursor_runs_once():
    stream = open_stream()
    sent, outcome = drive(stream.close(),
                          [frame(frames.MSG_CLOSED, {"cursor": 7})])
    assert sent_request(sent) == (frames.MSG_CLOSE_CURSOR, {"cursor": 7})
    assert outcome == {"cursor": 7}
    assert stream.finished and stream.closed
    assert stream.close() is None


def test_ping_pong():
    sent, outcome = drive(protocol.ping(), [frame(frames.MSG_PONG)])
    assert sent_request(sent) == (frames.MSG_PING, {})
    assert outcome is True


# -- a frame no state expects ------------------------------------------------


@pytest.mark.parametrize("start, reply, complaint", [
    (lambda: protocol.hello("t"), OPENED, "expected WELCOME, got OPENED"),
    (lambda: protocol.open_cursor("SELECT 1", None, 8), batch(7, [1]),
     "expected OPENED, got BATCH"),
    (lambda: open_stream().fetch(2), OPENED, "unexpected OPENED during FETCH"),
    (lambda: open_stream().close(), DONE, "expected CLOSED, got DONE"),
    (lambda: protocol.ping(), WELCOME, "expected PONG, got WELCOME"),
], ids=["hello", "open", "fetch", "close", "ping"])
def test_unexpected_frame_type_is_a_protocol_error(start, reply, complaint):
    with pytest.raises(WireProtocolError, match=complaint):
        drive(start(), [reply])


# -- the same script through both drivers ------------------------------------


class ScriptedPeer(threading.Thread):
    """The server end of a socketpair: for each step, read one request
    frame of the expected type, then send the scripted replies."""

    def __init__(self, sock, script):
        super().__init__(daemon=True)
        self.sock = sock
        self.script = script
        self.error = None

    def run(self):
        try:
            for expected, replies in self.script:
                msg_type, _payload = frames.recv_frame_sock(self.sock)
                assert msg_type == expected, frames.MESSAGE_NAMES[msg_type]
                for reply_type, payload in replies:
                    self.sock.sendall(frames.pack_frame(reply_type, payload))
        except BaseException as exc:  # surfaced by the test's join
            self.error = exc


@pytest.fixture(params=["sync", "async"])
def driven(request):
    """``(peer socket, connection, run)`` — ``run(exchange)`` drives one
    exchange through the connection's real driver."""
    peer_sock, client_sock = socket.socketpair()
    peer_sock.settimeout(10)
    if request.param == "sync":
        client_sock.settimeout(10)
        conn = RemoteConnection(client_sock)
        yield peer_sock, conn, conn._exchange
        conn.close()
    else:
        loop = asyncio.new_event_loop()

        async def connect():
            reader, writer = await asyncio.open_connection(sock=client_sock)
            return AsyncConnection(reader, writer)

        conn = loop.run_until_complete(connect())

        def run(exchange):
            return loop.run_until_complete(
                asyncio.wait_for(conn._exchange(exchange), 10))

        yield peer_sock, conn, run
        loop.run_until_complete(conn.close())
        loop.close()
    peer_sock.close()


def test_one_script_through_the_sync_and_the_async_driver(driven):
    peer_sock, conn, run = driven
    opened_9 = frame(frames.MSG_OPENED,
                     {"cursor": 9, "names": NAMES, "dtypes": ["bigint"]})
    peer = ScriptedPeer(peer_sock, [
        (frames.MSG_HELLO, [WELCOME]),
        (frames.MSG_OPEN, [OPENED]),
        (frames.MSG_FETCH, [batch(7, [1, 2]), batch(7, [3]), DONE]),
        (frames.MSG_OPEN, [QUERY_ERROR]),
        (frames.MSG_PING, [frame(frames.MSG_PONG)]),
        (frames.MSG_OPEN, [opened_9]),
        (frames.MSG_FETCH, [batch(7, [4])]),  # not the cursor asked for
    ])
    peer.start()

    assert run(protocol.hello("t"))["session"] == "wire-1"
    stream = run(protocol.open_cursor("SELECT n FROM t", None, 2))
    rows = [row for result in run(stream.fetch(3)) for row in result.rows()]
    assert rows == [(1,), (2,), (3,)]
    assert stream.finished and stream.rowcount == 5

    # A server ERROR ends its exchange cleanly: still in sync, still open.
    with pytest.raises(RemoteQueryError, match="no such table"):
        run(protocol.open_cursor("SELECT n FROM missing", None, 2))
    assert conn.closed is False
    assert run(protocol.ping()) is True

    # Leaving an exchange any other way closes the connection.
    stream = run(protocol.open_cursor("SELECT n FROM t", None, 2))
    with pytest.raises(WireProtocolError, match="batch for cursor 7"):
        run(stream.fetch(1))
    assert conn.closed is True
    with pytest.raises(ExecutionError, match="connection is closed"):
        run(protocol.ping())

    peer.join(10)
    assert not peer.is_alive()
    assert peer.error is None
