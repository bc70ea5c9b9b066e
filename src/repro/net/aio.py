"""The asyncio-native remote client: ``connect_tcp_async``.

The same wire protocol as :mod:`repro.net.client`, literally: both drive
the exchanges of :mod:`repro.net.protocol`, and
:meth:`AsyncConnection._exchange` is the ``StreamReader`` /
``StreamWriter`` driver.  :class:`AsyncConnection` multiplexes any
number of :class:`AsyncCursor`\\ s over one authenticated TCP session (an
``asyncio.Lock`` serialises the exchanges, so concurrent coroutines
pipeline cleanly instead of interleaving frames), and every fetch
surface is awaitable — ``await cur.fetchall()``, ``async for row in
cur``.  A cancelled task (``asyncio.wait_for`` timing out included)
leaves its exchange half read, so it closes the connection, like every
other unfinished exchange.

The sync client exists for scripts and notebooks; this one is for
servers and load generators that hold hundreds of connections open —
``tests/test_net_server.py`` drives exactly that at 100 connections.
"""

from __future__ import annotations

import asyncio
from collections import deque
from operator import attrgetter
from typing import AsyncIterator, Optional

from repro.api.cursor import DEFAULT_CURSOR_BATCH_ROWS
from repro.errors import ExecutionError
from repro.net import frames, protocol

__all__ = ["connect_tcp_async", "AsyncConnection", "AsyncCursor"]


class AsyncCursor:
    """One awaitable cursor over a server-side cursor.

    Minimal DB-API shape (``execute`` / ``fetchone`` / ``fetchmany`` /
    ``fetchall`` / ``async for``) plus the engine extensions
    (:attr:`report`, :attr:`trace`, :attr:`description`).
    """

    def __init__(self, conn: "AsyncConnection",
                 batch_rows: Optional[int] = None) -> None:
        self._conn = conn
        self._batch_rows = batch_rows
        self._stream = protocol.CursorStream(None, [], [])  # none executed
        self._buffer: deque[tuple] = deque()  # rows pulled, not yet fetched
        self._closed = False

    # -- execution -----------------------------------------------------------

    async def execute(self, sql: str, params=None, *,
                      batch_rows: Optional[int] = None) -> "AsyncCursor":
        self._check_open()
        await self._abandon()
        self._stream = await self._conn._exchange(protocol.open_cursor(
            sql, params,
            batch_rows or self._batch_rows or DEFAULT_CURSOR_BATCH_ROWS))
        self._buffer.clear()
        return self

    # -- metadata ------------------------------------------------------------

    names = property(attrgetter("_stream.names"))
    dtypes = property(attrgetter("_stream.dtypes"))
    report = property(attrgetter("_stream.report"))
    trace = property(attrgetter("_stream.trace"))
    rowcount = property(attrgetter("_stream.rowcount"))

    @property
    def description(self) -> Optional[list[tuple]]:
        if self._stream.cursor_id is None:
            return None
        return [(name, dtype, None, None, None, None, None)
                for name, dtype in zip(self.names, self.dtypes)]

    # -- fetching ------------------------------------------------------------

    async def fetchone(self) -> Optional[tuple]:
        await self._pull_until(1)
        return self._buffer.popleft() if self._buffer else None

    async def fetchmany(self, size: int = 1) -> list[tuple]:
        await self._pull_until(size)
        return [self._buffer.popleft()
                for _ in range(min(size, len(self._buffer)))]

    async def fetchall(self) -> list[tuple]:
        await self._pull_until(None)
        rows = list(self._buffer)
        self._buffer.clear()
        return rows

    async def scalar(self):
        rows = await self.fetchall()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise ExecutionError("scalar() needs a 1x1 result")
        return rows[0][0]

    def __aiter__(self) -> AsyncIterator[tuple]:
        return self._iterate()

    async def _iterate(self) -> AsyncIterator[tuple]:
        while True:
            row = await self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        if self._closed:
            return
        await self._abandon()
        self._closed = True

    async def __aenter__(self) -> "AsyncCursor":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- internals -----------------------------------------------------------

    async def _pull_until(self, ahead: Optional[int]) -> None:
        """FETCH until ``ahead`` rows are buffered (``None``: until the
        stream is finished)."""
        self._require_executed()
        stream = self._stream
        while not stream.finished \
                and (ahead is None or len(self._buffer) < ahead):
            for batch in await self._conn._exchange(
                    stream.fetch(self._conn._fetch_batches)):
                self._buffer.extend(batch.rows())

    async def _abandon(self) -> None:
        """Close the open server cursor, if any stream is still live."""
        exchange = self._stream.close()
        if exchange is not None and not self._conn.closed:
            await self._conn._exchange(exchange)

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("cursor is closed")

    def _require_executed(self) -> None:
        self._check_open()
        if self._stream.cursor_id is None:
            raise ExecutionError("no statement has been executed")


class AsyncConnection:
    """One authenticated wire session, shared by any number of cursors."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 batch_rows: Optional[int] = None,
                 fetch_batches: int = 1,
                 max_frame_bytes: int = frames.DEFAULT_MAX_FRAME_BYTES
                 ) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._batch_rows = batch_rows
        self._fetch_batches = max(1, fetch_batches)
        self._max_frame_bytes = max_frame_bytes
        self._closed = False
        self.session = ""
        self.principal = ""

    async def _handshake(self, token: str) -> None:
        welcome = await self._exchange(protocol.hello(token))
        self.session = welcome.get("session", "")
        self.principal = welcome.get("principal", "")

    # -- cursors -------------------------------------------------------------

    def cursor(self, *, batch_rows: Optional[int] = None) -> AsyncCursor:
        self._check_open()
        return AsyncCursor(self, batch_rows or self._batch_rows)

    async def execute(self, sql: str, params=None) -> AsyncCursor:
        return await self.cursor().execute(sql, params)

    async def ping(self) -> bool:
        return await self._exchange(protocol.ping())

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.write(frames.pack_frame(frames.MSG_GOODBYE))
            await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    async def __aenter__(self) -> "AsyncConnection":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("connection is closed")

    # -- the protocol driver -------------------------------------------------

    async def _exchange(self, exchange: protocol.Exchange):
        """Run one protocol exchange over the asyncio stream pair."""
        async with self._lock:
            self._check_open()
            try:
                outgoing = next(exchange)
                while True:
                    if outgoing is not None:
                        self._writer.write(outgoing)
                        await self._writer.drain()
                    outgoing = exchange.send(await frames.recv_frame_stream(
                        self._reader, max_frame_bytes=self._max_frame_bytes))
            except StopIteration as done:
                outcome = done.value
            except BaseException:
                # Left mid-exchange (cancellation included): the stream
                # position is unknown.
                self._closed = True
                self._writer.close()
                raise
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


async def connect_tcp_async(host: str, port: int, *, token: str,
                            batch_rows: Optional[int] = None,
                            fetch_batches: int = 1,
                            max_frame_bytes: int =
                            frames.DEFAULT_MAX_FRAME_BYTES
                            ) -> AsyncConnection:
    """Open an authenticated asyncio connection to a served warehouse."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        conn = AsyncConnection(reader, writer, batch_rows=batch_rows,
                               fetch_batches=fetch_batches,
                               max_frame_bytes=max_frame_bytes)
        await conn._handshake(token)
    except BaseException:
        writer.close()
        raise
    return conn
