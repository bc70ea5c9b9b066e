"""The synchronous remote client: ``connect_tcp`` → DB-API shapes.

:func:`connect_tcp` opens one authenticated wire session and returns a
:class:`RemoteConnection` whose cursors are the *same*
:class:`repro.api.cursor.Cursor` class used in-process — the cursor
only consumes a "run" protocol (``names`` / ``dtypes`` / ``batches()``
/ ``report`` / ``close``), and :class:`_RemoteRun` implements it over a
:class:`repro.net.protocol.CursorStream`.  Rows therefore come back
through the exact fetch surface local code uses, bit-identical to an
in-process cursor: every column of a batch travels as a checksummed
storage page and floats in parameters travel as ``float.hex()``.

No protocol logic lives here: what is sent and which frames may answer
is :mod:`repro.net.protocol`, and :meth:`RemoteConnection._exchange` is
its blocking-socket driver, one exchange in flight at a time.  An
exchange that does not run to its end (a socket timeout, a reset, a
refused frame) closes the connection — see that module for why; a
server ERROR frame ends its exchange cleanly and leaves it usable.
"""

from __future__ import annotations

import socket
import threading
from operator import attrgetter
from typing import Iterator, Optional

from repro.api.cursor import Cursor
from repro.db.exec.result import Result
from repro.errors import ExecutionError
from repro.net import frames, protocol

__all__ = ["connect_tcp", "RemoteConnection"]


class _RemoteRun:
    """One open server-side cursor, shaped like a StreamingQuery.

    Satisfies the run protocol :class:`repro.api.cursor.Cursor`
    consumes; :meth:`batches` FETCHes ahead ``fetch_batches`` at a time
    and each exchange reads its whole response before yielding, so the
    connection is idle between pulls and :meth:`close` can always send
    CLOSE_CURSOR.
    """

    is_rowset = True
    names = property(attrgetter("_stream.names"))
    dtypes = property(attrgetter("_stream.dtypes"))
    rowcount = property(attrgetter("_stream.rowcount"))
    report = property(attrgetter("_stream.report"))
    trace = property(attrgetter("_stream.trace"))

    def __init__(self, conn: "RemoteConnection",
                 stream: protocol.CursorStream) -> None:
        self._conn = conn
        self._stream = stream

    def batches(self) -> Iterator[Result]:
        while not self._stream.finished:
            yield from self._conn._exchange(
                self._stream.fetch(self._conn._fetch_batches))

    def close(self) -> None:
        """Abandon the stream: frees the server cursor (and its worker)."""
        exchange = self._stream.close()
        if exchange is not None and not self._conn.closed:
            self._conn._exchange(exchange)


class RemotePreparedStatement:
    """Client-side prepared statement: the SQL travels once per execute
    (verbatim), values travel as typed payloads, and the *server's*
    plan cache makes repeat executions compile-free."""

    def __init__(self, connection: "RemoteConnection", sql: str) -> None:
        self.connection = connection
        self.sql = sql

    def execute(self, params=None, *,
                cursor: Optional[Cursor] = None) -> Cursor:
        target = cursor if cursor is not None else self.connection.cursor()
        return target.execute(self.sql, params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = " ".join(self.sql.split())[:60]
        return f"RemotePreparedStatement({head!r})"


class RemoteConnection:
    """One authenticated TCP session against a served warehouse."""

    def __init__(self, sock: socket.socket, *,
                 batch_rows: Optional[int] = None,
                 fetch_batches: int = 1,
                 max_frame_bytes: int = frames.DEFAULT_MAX_FRAME_BYTES
                 ) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._batch_rows = batch_rows
        self._fetch_batches = max(1, fetch_batches)
        self._max_frame_bytes = max_frame_bytes
        self._closed = False
        self.session = ""
        self.principal = ""

    def _handshake(self, token: str) -> None:
        welcome = self._exchange(protocol.hello(token))
        self.session = welcome.get("session", "")
        self.principal = welcome.get("principal", "")

    # -- cursors (the shared DB-API surface) ---------------------------------

    def cursor(self, *, batch_rows: Optional[int] = None) -> Cursor:
        self._check_open()
        return Cursor(self._run, batch_rows=batch_rows or self._batch_rows)

    def execute(self, sql: str, params=None) -> Cursor:
        return self.cursor().execute(sql, params)

    def prepare(self, sql: str) -> RemotePreparedStatement:
        self._check_open()
        return RemotePreparedStatement(self, sql)

    def _run(self, sql: str, params, batch_rows: int) -> _RemoteRun:
        return _RemoteRun(self, self._exchange(
            protocol.open_cursor(sql, params, batch_rows)))

    # -- connection management ----------------------------------------------

    def ping(self) -> bool:
        return self._exchange(protocol.ping())

    def commit(self) -> None:
        """No-op: the engine autocommits."""

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(frames.pack_frame(frames.MSG_GOODBYE))
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("connection is closed")

    # -- the protocol driver -------------------------------------------------

    def _exchange(self, exchange: protocol.Exchange):
        """Run one protocol exchange over the blocking socket."""
        with self._lock:
            self._check_open()
            try:
                outgoing = next(exchange)
                while True:
                    if outgoing is not None:
                        self._sock.sendall(outgoing)
                    outgoing = exchange.send(frames.recv_frame_sock(
                        self._sock, max_frame_bytes=self._max_frame_bytes))
            except StopIteration as done:
                outcome = done.value
            except BaseException:
                # Left mid-exchange: the stream position is unknown.
                self._closed = True
                self._sock.close()
                raise
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"RemoteConnection({self.session or '?'}, {state})"


def connect_tcp(host: str, port: int, *, token: str,
                timeout: Optional[float] = 30.0,
                batch_rows: Optional[int] = None,
                fetch_batches: int = 1,
                max_frame_bytes: int = frames.DEFAULT_MAX_FRAME_BYTES
                ) -> RemoteConnection:
    """Open an authenticated connection to a served warehouse.

    ``timeout`` bounds every socket operation (connect and each frame
    read); ``fetch_batches`` is the FETCH-ahead window — how many result
    batches each round trip may carry.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = RemoteConnection(sock, batch_rows=batch_rows,
                                fetch_batches=fetch_batches,
                                max_frame_bytes=max_frame_bytes)
        conn._handshake(token)
    except BaseException:
        sock.close()
        raise
    return conn
