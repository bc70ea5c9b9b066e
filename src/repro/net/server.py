"""The asyncio TCP query server: the wire side of a served warehouse.

One :class:`WireServer` is owned by a
:class:`~repro.service.service.WarehouseService` (``serve(tcp_port=...,
auth_tokens=[...])``) and speaks the framed protocol of
:mod:`repro.net.frames` on an asyncio event loop running in a daemon
thread — the service itself stays a thread-pool system, and every query
still flows through its admission controller and single-flight
coalescer via :meth:`WarehouseService.submit_stream`.

Design points:

* **Auth before anything.**  The first frame must be HELLO carrying a
  pre-shared token; comparison is constant-time
  (:func:`hmac.compare_digest` against *every* configured token, no
  early exit) and failure closes the connection after one typed error
  frame.
* **Server-side cursors with a bounded window.**  OPEN admits the query
  and returns a cursor id; the executing worker pushes codec-compressed
  batches into a bounded per-cursor window
  (``cursor_window_batches``) and *blocks* when the client stops
  fetching — the server never materialises a full result for a slow
  client.  A cursor nobody fetches for ``cursor_stall_timeout_s`` is
  aborted so a vanished client cannot pin a worker forever.
* **Disconnect frees everything.**  A dedicated reader task notices EOF
  immediately (even mid-FETCH) and cancels the session's cursors, which
  unblocks any worker parked on a full window.
* **Graceful drain.**  ``stop(drain_s=...)`` closes the listener, lets
  in-flight cursors finish up to the deadline, then aborts the
  remainder with a typed ``shutdown`` error frame.
"""

from __future__ import annotations

import asyncio
import hmac
import itertools
import logging
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import (
    AdmissionError,
    ServiceClosedError,
    ServiceError,
    WireError,
)
from repro.net import frames
from repro.net.frames import (
    ERR_AUTH,
    ERR_CURSOR,
    ERR_OVERLOAD,
    ERR_PROTOCOL,
    ERR_QUERY,
    ERR_SHUTDOWN,
    ERR_UNSUPPORTED,
    MSG_BATCH,
    MSG_CLOSE_CURSOR,
    MSG_CLOSED,
    MSG_DONE,
    MSG_ERROR,
    MSG_FETCH,
    MSG_GOODBYE,
    MSG_HELLO,
    MSG_OPEN,
    MSG_OPENED,
    MSG_PING,
    MSG_PONG,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    WireProtocolError,
)
from repro.obs.systables import install_connections_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import WarehouseService

logger = logging.getLogger("repro.net.server")

AUTH_TIMEOUT_S = 10.0
"""A connection that has not authenticated within this window is dropped."""

_REQUEST_QUEUE_DEPTH = 64  # pipelined frames buffered per connection


def parse_auth_tokens(tokens) -> dict[str, str]:
    """Normalise configured tokens to ``{principal: secret}``.

    Accepts plain secrets (principal becomes ``token-<i>``) and
    ``principal=secret`` entries.
    """
    table: dict[str, str] = {}
    for i, entry in enumerate(tokens):
        if "=" in entry:
            principal, secret = entry.split("=", 1)
        else:
            principal, secret = f"token-{i}", entry
        if not secret:
            raise ServiceError(f"auth token for {principal!r} is empty")
        table[principal] = secret
    return table


class _ServerCursor:
    """One server-side cursor: the bounded window between a service
    worker (producer) and the wire writer (consumer).

    The producer side is the ``sink`` protocol
    :meth:`WarehouseService.submit_stream` expects — ``opened`` /
    ``push`` / ``fail`` / ``finish`` — called from worker threads;
    ``push`` blocks while the window is full (that *is* the
    backpressure) and gives up after the stall timeout.  The consumer
    side is asyncio-native: :meth:`next_event` awaits without tying up
    an executor thread.
    """

    def __init__(self, cursor_id: int, loop: asyncio.AbstractEventLoop, *,
                 window: int, stall_timeout_s: float) -> None:
        self.id = cursor_id
        self._loop = loop
        self._window = window
        self._stall_timeout_s = stall_timeout_s
        self._cond = threading.Condition()
        self._batches: deque[bytes] = deque()
        self._state = "opening"  # streaming | done | error | cancelled
        self._error: Optional[BaseException] = None
        self._final: Optional[tuple] = None
        self._aev = asyncio.Event()
        self.names: list[str] = []
        self.dtypes: list = []
        self.rows_sent = 0
        self.batches_sent = 0

    # -- sink protocol (service worker threads) ------------------------------

    def opened(self, names, dtypes) -> None:
        with self._cond:
            if self._state == "opening":
                self.names = list(names)
                self.dtypes = list(dtypes)
                self._state = "streaming"
        self._wake_consumer()

    def push(self, result) -> bool:
        payload = frames.encode_result_batch(self.id, result)
        deadline = time.monotonic() + self._stall_timeout_s
        with self._cond:
            while len(self._batches) >= self._window:
                if self._state == "cancelled":
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Nobody is fetching: abort rather than pin a
                    # worker on a vanished client forever.
                    self._state = "error"
                    self._error = WireError(
                        f"cursor {self.id} stalled: no FETCH for "
                        f"{self._stall_timeout_s:.0f}s")
                    self._wake_consumer()
                    return False
                self._cond.wait(min(remaining, 0.25))
            if self._state == "cancelled":
                return False
            self._batches.append(payload)
        self._wake_consumer()
        return True

    def fail(self, exc: BaseException) -> None:
        with self._cond:
            if self._state != "cancelled":
                self._state = "error"
                self._error = exc
        self._wake_consumer()

    def finish(self, report, trace, *, queued_s: float, execute_s: float,
               total_s: float) -> None:
        with self._cond:
            if self._state not in ("cancelled", "error"):
                self._state = "done"
                self._final = (report, trace,
                               {"queued_s": queued_s,
                                "execute_s": execute_s,
                                "total_s": total_s})
        self._wake_consumer()

    # -- consumer side (the wire handler coroutine) --------------------------

    def cancel(self) -> None:
        """Abandon the cursor: unblocks a parked producer immediately."""
        with self._cond:
            self._state = "cancelled"
            self._batches.clear()
            self._cond.notify_all()
        self._wake_consumer()

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    async def wait_opened(self) -> str:
        """Await admission + compile; returns the state reached."""
        while True:
            self._aev.clear()
            with self._cond:
                if self._state != "opening":
                    return self._state
            await self._aev.wait()

    async def next_event(self) -> tuple:
        """The next stream event: ``("batch", bytes)`` /
        ``("done", report, trace, timings)`` / ``("error", exc)`` /
        ``("cancelled",)``."""
        while True:
            self._aev.clear()
            with self._cond:
                if self._batches:
                    payload = self._batches.popleft()
                    self._cond.notify_all()  # wake a window-blocked producer
                    return ("batch", payload)
                if self._state == "error":
                    return ("error", self._error)
                if self._state == "done":
                    return ("done", *self._final)
                if self._state == "cancelled":
                    return ("cancelled",)
            await self._aev.wait()

    def _wake_consumer(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._aev.set)
        except RuntimeError:  # loop already closed during teardown
            pass


class _WireSession:
    """One authenticated TCP connection and its server-side cursors."""

    def __init__(self, session_no: int, peer: str) -> None:
        self.no = session_no
        self.id = f"wire-{session_no}"
        self.peer = peer
        self.principal = ""
        self.connected_at = time.time()
        self.last_activity = self.connected_at
        self.bytes_in = 0
        self.bytes_out = 0
        self.cursors: dict[int, _ServerCursor] = {}
        self.cursors_total = 0
        self._cursor_ids = itertools.count(1)

    @property
    def journal_id(self) -> str:
        """The session id carried into sys.queries / the slow log:
        wire session number + peer address."""
        return f"{self.id}@{self.peer}"

    def new_cursor(self, loop, *, window: int,
                   stall_timeout_s: float) -> _ServerCursor:
        cursor = _ServerCursor(next(self._cursor_ids), loop, window=window,
                               stall_timeout_s=stall_timeout_s)
        self.cursors[cursor.id] = cursor
        self.cursors_total += 1
        return cursor

    def drop_cursor(self, cursor_id: int) -> None:
        self.cursors.pop(cursor_id, None)

    def cancel_cursors(self) -> None:
        for cursor in list(self.cursors.values()):
            cursor.cancel()
        self.cursors.clear()


class WireServer:
    """Serve the query wire protocol for one WarehouseService."""

    def __init__(self, service: "WarehouseService") -> None:
        config = service.config
        self.service = service
        self.host = config.tcp_host
        self.requested_port = config.tcp_port
        self.auth = parse_auth_tokens(config.auth_tokens)
        self.max_frame_bytes = config.tcp_max_frame_bytes
        self.window_batches = config.cursor_window_batches
        self.stall_timeout_s = config.cursor_stall_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._sessions: dict[str, _WireSession] = {}
        self._sessions_lock = threading.Lock()
        self._session_counter = itertools.count(1)
        self._draining = False
        self._stopped = False
        self._stats_lock = threading.Lock()
        self._connections_total = 0
        self._auth_failures = 0
        self._protocol_errors = 0
        self._cursors_aborted = 0
        self._metrics_collector = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The bound port (resolves ephemeral binds), None when down."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    def start(self) -> "WireServer":
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()
        bound = threading.Event()
        bind_error: list[BaseException] = []

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._server = self._loop.run_until_complete(
                    asyncio.start_server(
                        self._handle, self.host, self.requested_port,
                        backlog=512))
            except BaseException as exc:  # bind failure → re-raise in start()
                bind_error.append(exc)
                bound.set()
                return
            bound.set()
            try:
                self._loop.run_forever()
            finally:
                try:
                    self._loop.run_until_complete(
                        self._loop.shutdown_asyncgens())
                finally:
                    self._loop.close()

        self._thread = threading.Thread(target=_run, name="repro-wire",
                                        daemon=True)
        self._thread.start()
        bound.wait()
        if bind_error:
            self._thread.join()
            self._thread = None
            raise ServiceError(
                f"wire server failed to bind {self.host}:"
                f"{self.requested_port}: {bind_error[0]}"
            ) from bind_error[0]
        install_connections_table(self.service.warehouse.db,
                                  self.connections_snapshot)
        self._metrics_collector = None  # stats flow via the service collector
        logger.info("wire server listening on %s:%s", self.host, self.port)
        return self

    def stop(self, *, drain_s: float = 5.0) -> None:
        """Stop accepting, drain cursors up to ``drain_s``, then abort."""
        if self._stopped or self._loop is None:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain_s), self._loop)
        try:
            future.result(timeout=drain_s + 10.0)
        except Exception:  # pragma: no cover - defensive teardown
            logger.exception("wire shutdown did not complete cleanly")
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        logger.info("wire server stopped")

    async def _shutdown(self, drain_s: float) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._loop.time() + drain_s
        while self._loop.time() < deadline:
            with self._sessions_lock:
                open_cursors = sum(len(s.cursors)
                                   for s in self._sessions.values())
            if open_cursors == 0:
                break
            await asyncio.sleep(0.05)
        # Past the deadline (or idle): abort whatever is left with a
        # typed error frame so clients see *why* the stream died.
        with self._sessions_lock:
            leftovers = list(self._sessions.values())
        for session in leftovers:
            if session.cursors:
                with self._stats_lock:
                    self._cursors_aborted += len(session.cursors)
            session.cancel_cursors()
            writer = getattr(session, "writer", None)
            if writer is not None and not writer.is_closing():
                try:
                    writer.write(frames.pack_json_frame(MSG_ERROR, {
                        "code": ERR_SHUTDOWN,
                        "error": "server shutting down (drain deadline)",
                    }))
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                writer.close()

    # -- connection handling -------------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader,
                          session: _WireSession) -> tuple[int, bytes]:
        msg_type, payload = await frames.recv_frame_stream(
            reader, max_frame_bytes=self.max_frame_bytes)
        session.bytes_in += frames.HEADER_SIZE + len(payload)
        session.last_activity = time.time()
        return msg_type, payload

    async def _send(self, writer: asyncio.StreamWriter,
                    session: _WireSession, data: bytes) -> None:
        writer.write(data)
        session.bytes_out += len(data)
        await writer.drain()

    async def _send_error(self, writer, session, code: str, error: str,
                          **extra) -> None:
        await self._send(writer, session, frames.pack_json_frame(
            MSG_ERROR, {"code": code, "error": error, **extra}))

    def _check_token(self, token: str) -> Optional[str]:
        """Constant-time token check against every principal (no early
        exit on match, so timing does not leak which principal hit)."""
        matched: Optional[str] = None
        encoded = token.encode("utf-8", "surrogateescape")
        for principal, secret in self.auth.items():
            if hmac.compare_digest(secret.encode("utf-8"), encoded):
                matched = principal
        return matched

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = (f"{peername[0]}:{peername[1]}"
                if isinstance(peername, tuple) else str(peername))
        session = _WireSession(next(self._session_counter), peer)
        session.writer = writer
        with self._stats_lock:
            self._connections_total += 1
        try:
            if self._draining:
                await self._send_error(writer, session, ERR_SHUTDOWN,
                                       "server is shutting down")
                return
            if not await self._handshake(reader, writer, session):
                return
            with self._sessions_lock:
                self._sessions[session.id] = session
            await self._serve_session(reader, writer, session)
        except (ConnectionError, OSError):
            pass  # client went away; cursors are cancelled below
        except WireProtocolError as exc:
            with self._stats_lock:
                self._protocol_errors += 1
            try:
                await self._send_error(writer, session, ERR_PROTOCOL,
                                       str(exc))
            except (ConnectionError, OSError):
                pass
        except Exception:  # pragma: no cover - never kill the server
            logger.exception("wire session %s crashed", session.id)
        finally:
            session.cancel_cursors()
            with self._sessions_lock:
                self._sessions.pop(session.id, None)
            if not writer.is_closing():
                writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(self, reader, writer,
                         session: _WireSession) -> bool:
        try:
            msg_type, payload = await asyncio.wait_for(
                self._read_frame(reader, session), timeout=AUTH_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self._send_error(writer, session, ERR_AUTH,
                                   "no HELLO within the auth window")
            return False
        if msg_type != MSG_HELLO:
            with self._stats_lock:
                self._auth_failures += 1
            await self._send_error(
                writer, session, ERR_AUTH,
                f"expected HELLO, got {frames.MESSAGE_NAMES[msg_type]}")
            return False
        hello = frames.decode_json_payload(payload)
        if hello.get("protocol") != PROTOCOL_VERSION:
            # Refused before the token is even looked at: a peer on
            # another version would misparse every BATCH that follows.
            with self._stats_lock:
                self._protocol_errors += 1
            await self._send_error(
                writer, session, ERR_PROTOCOL,
                f"client speaks wire protocol {hello.get('protocol')!r}, "
                f"this server speaks {PROTOCOL_VERSION}")
            return False
        token = hello.get("token")
        principal = self._check_token(token) if isinstance(token, str) \
            else None
        if principal is None:
            with self._stats_lock:
                self._auth_failures += 1
            await self._send_error(writer, session, ERR_AUTH,
                                   "authentication failed")
            return False
        session.principal = principal
        await self._send(writer, session, frames.pack_json_frame(
            MSG_WELCOME, {
                "session": session.id,
                "peer": session.peer,
                "principal": principal,
                "protocol": PROTOCOL_VERSION,
            }))
        return True

    async def _serve_session(self, reader, writer,
                             session: _WireSession) -> None:
        """Process requests; a dedicated pump task reads ahead so a
        client disconnect is noticed immediately, even mid-FETCH."""
        requests: asyncio.Queue = asyncio.Queue(_REQUEST_QUEUE_DEPTH)

        async def pump() -> None:
            try:
                while True:
                    frame = await self._read_frame(reader, session)
                    await requests.put(("frame", frame))
            except (ConnectionError, OSError):
                session.cancel_cursors()  # free workers parked on windows
                await requests.put(("eof", None))
            except WireProtocolError as exc:
                session.cancel_cursors()
                await requests.put(("protocol_error", exc))
            except asyncio.CancelledError:
                raise

        pump_task = asyncio.ensure_future(pump())
        try:
            while True:
                kind, item = await requests.get()
                if kind == "eof":
                    return
                if kind == "protocol_error":
                    with self._stats_lock:
                        self._protocol_errors += 1
                    await self._send_error(writer, session, ERR_PROTOCOL,
                                           str(item))
                    return
                msg_type, payload = item
                if msg_type == MSG_GOODBYE:
                    return
                if msg_type == MSG_PING:
                    await self._send(writer, session,
                                     frames.pack_frame(MSG_PONG))
                elif msg_type == MSG_OPEN:
                    await self._handle_open(writer, session, payload)
                elif msg_type == MSG_FETCH:
                    await self._handle_fetch(writer, session, payload)
                elif msg_type == MSG_CLOSE_CURSOR:
                    await self._handle_close_cursor(writer, session, payload)
                else:
                    raise WireProtocolError(
                        f"unexpected {frames.MESSAGE_NAMES[msg_type]} "
                        "frame from a client")
        finally:
            pump_task.cancel()

    # -- request handlers ----------------------------------------------------

    async def _handle_open(self, writer, session: _WireSession,
                           payload: bytes) -> None:
        obj = frames.decode_json_payload(payload)
        sql = obj.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise WireProtocolError("OPEN payload carries no SQL text")
        if self._draining:
            await self._send_error(writer, session, ERR_SHUTDOWN,
                                   "server is draining; no new queries")
            return
        try:
            params = frames.unpack_params(obj.get("params"))
        except WireProtocolError as exc:
            await self._send_error(writer, session, ERR_PROTOCOL, str(exc))
            return
        batch_rows = obj.get("batch_rows")
        if batch_rows is not None and (not isinstance(batch_rows, int)
                                       or batch_rows <= 0):
            raise WireProtocolError(f"invalid batch_rows {batch_rows!r}")
        cursor = session.new_cursor(self._loop, window=self.window_batches,
                                    stall_timeout_s=self.stall_timeout_s)
        # The bridge into the service's admission controller runs in an
        # executor: enqueueing parses the statement, which must not
        # stall the event loop for every other connection.
        try:
            await self._loop.run_in_executor(
                None, lambda: self.service.submit_stream(
                    session.journal_id, sql, cursor, params,
                    batch_rows=batch_rows))
        except AdmissionError as exc:
            session.drop_cursor(cursor.id)
            await self._send_error(writer, session, ERR_OVERLOAD, str(exc))
            return
        except ServiceClosedError as exc:
            session.drop_cursor(cursor.id)
            await self._send_error(writer, session, ERR_SHUTDOWN, str(exc))
            return
        except ServiceError as exc:
            session.drop_cursor(cursor.id)
            await self._send_error(writer, session, ERR_UNSUPPORTED,
                                   str(exc))
            return
        except Exception as exc:  # parse/lex errors
            session.drop_cursor(cursor.id)
            await self._send_error(writer, session, ERR_QUERY, str(exc),
                                   type=type(exc).__name__)
            return
        state = await cursor.wait_opened()
        if state == "error":
            exc = cursor._error
            session.drop_cursor(cursor.id)
            await self._send_error(writer, session, ERR_QUERY, str(exc),
                                   type=type(exc).__name__)
            return
        if state == "cancelled":
            session.drop_cursor(cursor.id)
            await self._send_error(writer, session, ERR_SHUTDOWN,
                                   "cursor cancelled before it opened")
            return
        await self._send(writer, session, frames.pack_json_frame(
            MSG_OPENED, {
                "cursor": cursor.id,
                "names": cursor.names,
                "dtypes": frames.dtype_names(cursor.dtypes),
            }))

    async def _handle_fetch(self, writer, session: _WireSession,
                            payload: bytes) -> None:
        obj = frames.decode_json_payload(payload)
        cursor = session.cursors.get(obj.get("cursor"))
        if cursor is None:
            await self._send_error(writer, session, ERR_CURSOR,
                                   f"unknown cursor {obj.get('cursor')!r}")
            return
        max_batches = obj.get("max_batches", 1)
        if not isinstance(max_batches, int) or max_batches <= 0:
            raise WireProtocolError(f"invalid max_batches {max_batches!r}")
        sent = 0
        while sent < max_batches:
            event = await cursor.next_event()
            kind = event[0]
            if kind == "batch":
                await self._send(writer, session,
                                 frames.pack_frame(MSG_BATCH, event[1]))
                cursor.batches_sent += 1
                sent += 1
            elif kind == "done":
                report, trace, timings = event[1], event[2], event[3]
                session.drop_cursor(cursor.id)
                await self._send(writer, session, frames.pack_json_frame(
                    MSG_DONE, {
                        "cursor": cursor.id,
                        "report": report.to_dict(),
                        "trace": trace,
                        "timings": timings,
                    }))
                return
            elif kind == "error":
                exc = event[1]
                with self._stats_lock:
                    self._cursors_aborted += 1
                session.drop_cursor(cursor.id)
                await self._send_error(writer, session, ERR_QUERY,
                                       str(exc), type=type(exc).__name__,
                                       cursor=cursor.id)
                return
            else:  # cancelled (drain-abort or racing CLOSE)
                session.drop_cursor(cursor.id)
                code = ERR_SHUTDOWN if self._draining else ERR_CURSOR
                await self._send_error(writer, session, code,
                                       f"cursor {cursor.id} cancelled",
                                       cursor=cursor.id)
                return

    async def _handle_close_cursor(self, writer, session: _WireSession,
                                   payload: bytes) -> None:
        obj = frames.decode_json_payload(payload)
        cursor = session.cursors.pop(obj.get("cursor"), None)
        if cursor is not None:
            cursor.cancel()
        await self._send(writer, session, frames.pack_json_frame(
            MSG_CLOSED, {"cursor": obj.get("cursor")}))

    # -- introspection -------------------------------------------------------

    def connections_snapshot(self) -> list[dict]:
        """Rows for ``sys.connections``: one per live wire session."""
        now = time.time()
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        return [
            {
                "session": s.id, "peer": s.peer, "principal": s.principal,
                "open_cursors": len(s.cursors),
                "cursors_total": s.cursors_total,
                "bytes_in": s.bytes_in, "bytes_out": s.bytes_out,
                "idle_s": round(now - s.last_activity, 3),
                "connected_at": s.connected_at,
            }
            for s in sorted(sessions, key=lambda s: s.no)
        ]

    def stats(self) -> dict:
        """Scrape-time counters (merged into the service collector)."""
        with self._sessions_lock:
            connections = len(self._sessions)
            open_cursors = sum(len(s.cursors)
                               for s in self._sessions.values())
            bytes_in = sum(s.bytes_in for s in self._sessions.values())
            bytes_out = sum(s.bytes_out for s in self._sessions.values())
        with self._stats_lock:
            return {
                "connections": connections,
                "connections_total": self._connections_total,
                "cursors_open": open_cursors,
                "cursors_aborted_total": self._cursors_aborted,
                "auth_failures_total": self._auth_failures,
                "protocol_errors_total": self._protocol_errors,
                "session_bytes_in": bytes_in,
                "session_bytes_out": bytes_out,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WireServer({self.host}:{self.port}, " \
               f"sessions={len(self._sessions)})"
